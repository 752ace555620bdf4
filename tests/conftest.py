"""Shared brute-force oracles.

Everything here deliberately avoids the library's search and bit-table
machinery: adjacency is recomputed from the raw distance clauses, and
homomorphism existence is decided by sweeping the full product space
with numpy boolean tensors.  Tests compare the fast paths against these.
"""

from __future__ import annotations

import itertools

import numpy as np

from sgchrom.core import NEG, POS, SignedMultigraph


def oracle_adjacency(p: int, q: int, i: int, j: int) -> set[int]:
    """Literal reading of the clique definition, no distance shortcut."""
    out = set()
    d = abs(i - j)
    if q <= d <= p - q:
        out.add(NEG)
    if d <= p // 2 - q or d >= p // 2 + q:
        out.add(POS)
    return out


def oracle_sign_tensors(p: int, q: int):
    pos = np.zeros((p, p), dtype=bool)
    neg = np.zeros((p, p), dtype=bool)
    for i in range(p):
        for j in range(p):
            signs = oracle_adjacency(p, q, i, j)
            pos[i, j] = POS in signs
            neg[i, j] = NEG in signs
    return {POS: pos, NEG: neg}


def oracle_colorable(g: SignedMultigraph, p: int, q: int) -> bool:
    """Full product-space sweep; independent of the backtracking solver."""
    if g.has_negative_loop:
        return False
    ok = oracle_sign_tensors(p, q)
    feasible = np.ones((p,) * g.n, dtype=bool)
    for (u, v, s) in g.edges:
        shape_u = [1] * g.n
        shape_u[u] = p
        shape_v = [1] * g.n
        shape_v[v] = p
        iu = np.arange(p).reshape(shape_u)
        iv = np.arange(p).reshape(shape_v)
        feasible &= ok[s][iu, iv]
    return bool(feasible.any())


def oracle_count_homs(g: SignedMultigraph, p: int, q: int) -> int:
    if g.has_negative_loop:
        return 0
    ok = oracle_sign_tensors(p, q)
    feasible = np.ones((p,) * g.n, dtype=bool)
    for (u, v, s) in g.edges:
        shape_u = [1] * g.n
        shape_u[u] = p
        shape_v = [1] * g.n
        shape_v[v] = p
        iu = np.arange(p).reshape(shape_u)
        iv = np.arange(p).reshape(shape_v)
        feasible &= ok[s][iu, iv]
    return int(feasible.sum())


def oracle_switch_equivalent(g1: SignedMultigraph, g2: SignedMultigraph) -> bool:
    """Try all 2^n switch sets."""
    from sgchrom.core import switch

    for bits in range(1 << g1.n):
        xs = [v for v in range(g1.n) if bits >> v & 1]
        if switch(g1, xs) == g2:
            return True
    return False


def oracle_switching_isomorphic(g: SignedMultigraph, h: SignedMultigraph) -> bool:
    """Try every vertex bijection (n <= 6): relabel g and ask
    is_switching_equivalent whenever the underlying multigraphs agree."""
    from sgchrom.core import is_switching_equivalent, relabel

    if g.n != h.n:
        return False
    assert g.n <= 6, "the reference tries all n! bijections"

    def underlying(x):
        return sorted((min(u, v), max(u, v)) for (u, v, _) in x.edges)

    target = underlying(h)
    for perm in itertools.permutations(range(g.n)):
        r = relabel(g, perm)
        if underlying(r) == target and is_switching_equivalent(r, h):
            return True
    return False


def all_simple_cycles(g: SignedMultigraph):
    """Vertex sequences of all simple cycles (length >= 3), each once, plus
    2-cycles through parallel edge pairs."""
    pairs = g.pair_signs()
    adj = {v: set() for v in range(g.n)}
    for (a, b) in pairs:
        adj[a].add(b)
        adj[b].add(a)
    cycles = set()

    def extend(path):
        head, tail = path[0], path[-1]
        for w in adj[tail]:
            if w == head and len(path) >= 3:
                rev = (head,) + tuple(reversed(path[1:]))
                if rev not in cycles:
                    cycles.add(tuple(path))
            elif w not in path and w > head:
                extend(path + [w])

    for v in range(g.n):
        extend([v])
    return [list(c) for c in cycles]


def negative_cycle_fingerprint(g: SignedMultigraph):
    """Set of negative simple cycles (as vertex tuples) plus negative digon
    pairs; a complete switching-class invariant."""
    pairs = g.pair_signs()
    fingerprint = set()
    for cyc in all_simple_cycles(g):
        sign = 1
        for i in range(len(cyc)):
            a, b = cyc[i], cyc[(i + 1) % len(cyc)]
            sig = pairs[(min(a, b), max(a, b))]
            sign *= sig[0]  # multi-edges handled separately
        if sign == NEG:
            fingerprint.add(tuple(cyc))
    for pair, sig in pairs.items():
        if len(sig) == 2 and sig[0] != sig[1]:
            fingerprint.add(pair)
    return fingerprint


def random_signed_graph(rng, n_max=6, p_edge=0.5, allow_digons=False) -> SignedMultigraph:
    n = rng.randint(1, n_max)
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p_edge:
                edges.append((u, v, rng.choice((POS, NEG))))
                if allow_digons and rng.random() < 0.15:
                    edges.append((u, v, -edges[-1][2]))
    return SignedMultigraph(n, tuple(edges))
