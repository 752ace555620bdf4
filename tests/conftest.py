"""Shared brute-force oracles.

Everything here deliberately avoids the library's search and bit-table
machinery: adjacency is recomputed from the raw distance clauses, and
homomorphism existence is decided by sweeping the full product space
with numpy boolean tensors.  Tests compare the fast paths against these.
``run_fresh`` runs code in a new interpreter, for checks of what a
process imports or builds first.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np

import sgchrom
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


def oracle_embedding(g: SignedMultigraph, h: SignedMultigraph):
    """An (injective map phi of h into g, switch set X of g) such that
    switch(g, X) holds every pair and loop multiset of h under phi, or
    None.  Tries all 2^n switch sets and all injective maps (g.n <= 5);
    switching is applied edge by edge, not through the library."""
    assert g.n <= 5, "the reference tries every switch set and injective map"
    need = Counter((min(u, v), max(u, v), s) for (u, v, s) in h.edges)
    for bits in range(1 << g.n):
        have = Counter()
        for (u, v, s) in g.edges:
            flip = (bits >> u & 1) != (bits >> v & 1)
            have[(min(u, v), max(u, v), -s if flip else s)] += 1
        for phi in itertools.permutations(range(g.n), h.n):
            if all(have[(min(phi[u], phi[v]), max(phi[u], phi[v]), s)] >= c for (u, v, s), c in need.items()):
                return phi, frozenset(x for x in range(g.n) if bits >> x & 1)
    return None


def grouped(g: SignedMultigraph) -> dict:
    """Sign counts per unordered pair, loops included."""
    out: dict = {}
    for (u, v, s) in g.edges:
        out.setdefault((min(u, v), max(u, v)), Counter())[s] += 1
    return out


def assert_embedding(g: SignedMultigraph, h: SignedMultigraph, found) -> None:
    """``found`` = (phi, X) is injective, and switch(g, X) holds every
    pair and loop multiset of h under phi."""
    from sgchrom.core import switch

    phi, xs = found
    assert len(set(phi)) == h.n
    host = grouped(switch(g, xs))
    for pair, need in grouped(h).items():
        have = host.get((min(phi[pair[0]], phi[pair[1]]), max(phi[pair[0]], phi[pair[1]])), Counter())
        assert all(have[s] >= c for s, c in need.items())


def closure(n: int, gens) -> list:
    """The permutation group of range(n) that ``gens`` generate, sorted."""
    identity = tuple(range(n))
    group = {identity}
    stack = [identity]
    while stack:
        x = stack.pop()
        for g in gens:
            y = tuple(g[i] for i in x)
            if y not in group:
                group.add(y)
                stack.append(y)
    return sorted(group)


def run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout's
    sgchrom; return its stdout."""
    src = str(Path(sgchrom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
