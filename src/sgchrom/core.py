"""Signed multigraphs: construction, switching, and switching-aware comparison.

A signed multigraph has vertices 0..n-1 and an ordered list of edges
(u, v, sign) with sign +1 or -1.  Loops and parallel edges are
representable; a *digon* is a pair of parallel edges of opposite sign
between the same two vertices.  Switching a vertex set X negates every
edge with exactly one endpoint in X; loop signs are unchanged.

All values are immutable after construction; every operation returns a
new graph.

In a fixed labelling, one forest normal form (``_normalizing_switch``)
decides switching equivalence.  Switching isomorphisms and switching
subgraphs are embeddings into a switching graph (Brewster & Graves
2009), found by the solver's FC-CBJ loop (``_embed``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

POS = 1
NEG = -1

_SIGN_CHAR = {POS: "+", NEG: "-"}
_CHAR_SIGN = {"+": POS, "-": NEG}


class GraphError(ValueError):
    """Malformed graph input: bad vertex index, bad sign, bad file format."""


def sign_char(s: int) -> str:
    return _SIGN_CHAR[s]


def _check_sign(s: int) -> int:
    if s not in (POS, NEG):
        raise GraphError(f"sign must be +1 or -1, got {s!r}")
    return s


@dataclass(frozen=True)
class SignedMultigraph:
    """Immutable signed multigraph on vertices 0..n-1.

    ``edges`` keeps construction order so that certificates can refer to
    individual parallel edges.  Semantic equality (``__eq__``) compares
    the edge *multiset* with endpoints unordered.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise GraphError("vertex count must be nonnegative")
        for (u, v, s) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
            _check_sign(s)

    # -- basic accessors -------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        """Degree counting edge multiplicity; a loop contributes 2."""
        return sum((e[0] == v) + (e[1] == v) for e in self.edges)

    def max_degree(self) -> int:
        return max(_degrees(self), default=0)

    def pair_signs(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """Sign multiset per unordered non-loop pair, sorted +1 first."""
        out: dict[tuple[int, int], list[int]] = {}
        for (u, v, s) in self.edges:
            if u == v:
                continue
            out.setdefault((min(u, v), max(u, v)), []).append(s)
        return {k: tuple(sorted(v, reverse=True)) for k, v in out.items()}

    def loop_signs(self) -> dict[int, tuple[int, ...]]:
        out: dict[int, list[int]] = {}
        for (u, v, s) in self.edges:
            if u == v:
                out.setdefault(u, []).append(s)
        return {k: tuple(sorted(v, reverse=True)) for k, v in out.items()}

    @property
    def has_loop(self) -> bool:
        return any(u == v for (u, v, _) in self.edges)

    @property
    def has_negative_loop(self) -> bool:
        return any(u == v and s == NEG for (u, v, s) in self.edges)

    @property
    def is_simple(self) -> bool:
        """No loops and at most one edge per unordered pair."""
        if self.has_loop:
            return False
        return all(len(sig) == 1 for sig in self.pair_signs().values())

    def neighbors(self, v: int) -> list[int]:
        out = set()
        for (a, b, _) in self.edges:
            if a == v and b != v:
                out.add(b)
            elif b == v and a != v:
                out.add(a)
        return sorted(out)

    def _key(self):
        return (self.n, tuple(sorted((min(u, v), max(u, v), s) for (u, v, s) in self.edges)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignedMultigraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        es = ",".join(f"({u},{v},{sign_char(s)})" for (u, v, s) in self.edges)
        return f"SignedMultigraph(n={self.n}, edges=[{es}])"


def make_graph(n: int, edges: Iterable[tuple[int, int, int]], *, dedupe: bool = False) -> SignedMultigraph:
    """Build a signed multigraph, validating indices and signs.

    With ``dedupe=True``, a second parallel edge of the same sign on the
    same unordered pair (or loop) is rejected: the graph classes studied
    here never contain same-sign parallel edges, so a duplicate is
    almost always a transcription error.
    """
    edge_list = tuple((int(u), int(v), _check_sign(int(s))) for (u, v, s) in edges)
    g = SignedMultigraph(n, edge_list)
    if dedupe:
        seen = set()
        for (u, v, s) in edge_list:
            key = (min(u, v), max(u, v), s)
            if key in seen:
                raise GraphError(f"same-sign parallel edge ({u},{v},{sign_char(s)})")
            seen.add(key)
    return g


def switch(g: SignedMultigraph, x: Iterable[int]) -> SignedMultigraph:
    """Negate every edge with exactly one endpoint in ``x``."""
    xs = frozenset(x)
    for v in xs:
        if not (0 <= v < g.n):
            raise GraphError(f"switch set vertex {v} out of range")
    new_edges = tuple(
        (u, v, -s if ((u in xs) != (v in xs)) else s) for (u, v, s) in g.edges
    )
    return SignedMultigraph(g.n, new_edges)


def relabel(g: SignedMultigraph, perm: Sequence[int]) -> SignedMultigraph:
    """Apply the vertex bijection ``perm`` (old index -> new index)."""
    if sorted(perm) != list(range(g.n)):
        raise GraphError("relabel requires a permutation of 0..n-1")
    return SignedMultigraph(g.n, tuple((perm[u], perm[v], s) for (u, v, s) in g.edges))


def cycle_sign(g: SignedMultigraph, walk: Sequence[int]) -> int:
    """Sign of a closed walk given as a sequence of edge indices.

    The edges must chain: consecutive edges share an endpoint and the
    walk returns to its starting vertex.  Edge indices may repeat (it is
    a walk, not a cycle); the sign is the product over the sequence.
    """
    if not walk:
        raise GraphError("empty walk")
    for i in walk:
        if not (0 <= i < g.m):
            raise GraphError(f"edge index {i} out of range")
    first = g.edges[walk[0]]
    for start in {first[0], first[1]}:
        cur = first[1] if start == first[0] else first[0]
        ok = True
        for i in walk[1:]:
            (u, v, _) = g.edges[i]
            if cur == u:
                cur = v
            elif cur == v:
                cur = u
            else:
                ok = False
                break
        if ok and cur == start:
            prod = 1
            for i in walk:
                prod *= g.edges[i][2]
            return prod
    raise GraphError("edge sequence is not a closed walk")


def _degrees(g: SignedMultigraph) -> list[int]:
    """Every vertex's degree, as :meth:`SignedMultigraph.degree`, in one pass."""
    deg = [0] * g.n
    for (u, v, _) in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _adjacency(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Sorted neighbor lists of the graph on 0..n-1 with edges ``pairs``."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for (a, b) in pairs:
        adj[a].append(b)
        adj[b].append(a)
    for row in adj:
        row.sort()
    return adj


def _bfs(n: int, pairs: Iterable[tuple[int, int]]) -> Iterator[tuple[Optional[int], int]]:
    """(parent, vertex) of the graph on 0..n-1 with edges ``pairs`` in
    breadth-first visiting order, parent None at each root: lowest root
    first, neighbors in increasing order, first in first out."""
    adj = _adjacency(n, pairs)
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        yield None, root
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    yield u, w
                    queue.append(w)


def components(n: int, pairs: Iterable[tuple[int, int]]) -> list[list[int]]:
    """Connected components of the graph on 0..n-1 with edges ``pairs``,
    ordered by their lowest vertex (each component starts with it)."""
    comps: list[list[int]] = []
    for u, w in _bfs(n, pairs):
        if u is None:
            comps.append([w])
        else:
            comps[-1].append(w)
    return comps


def bfs_forest(n: int, pairs: Iterable[tuple[int, int]]) -> list[tuple[int, int]]:
    """Tree edges (parent, child) of the BFS spanning forest of the graph
    on 0..n-1 with edges ``pairs``, in visiting order (``_bfs``)."""
    return [(u, w) for u, w in _bfs(n, pairs) if u is not None]


def _fits(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The flips f (0 keeps b, 1 negates it) for which the sign multiset
    ``a`` is contained in flip^f(b)."""
    ap, bp = a.count(POS), b.count(POS)
    an, bn = len(a) - ap, len(b) - bp
    return tuple(f for f, (p, q) in enumerate(((bp, bn), (bn, bp))) if ap <= p and an <= q)


def _normalizing_switch(g: SignedMultigraph) -> list[int]:
    """The 0/1 switch x that gives every pair of g's BFS spanning forest
    its flip with more positive signs; each root keeps 0, and the rest
    are set from their forest parents in visiting order.

    The forest spans the orientable pairs only, those whose sign multiset
    changes under flipping (2 * #positive != multiplicity); digons and
    other balanced pairs look the same either way.  Cycle signs fix a
    switching class (Zaslavsky, *Signed graphs*, 1982), so switch(g, x)
    is the one member of the class with this forest normal form, up to
    the sign order within a pair.
    """
    orientable = {p: sig for p, sig in g.pair_signs().items() if 2 * sig.count(POS) != len(sig)}
    # A forest pair is flipped iff its sign sum is negative (never a tie).
    x = [0] * g.n
    for (u, w) in bfs_forest(g.n, orientable):  # each parent before its children
        x[w] = x[u] ^ (sum(orientable[(min(u, w), max(u, w))]) < 0)
    return x


def switching_set(g1: SignedMultigraph, g2: SignedMultigraph) -> Optional[frozenset[int]]:
    """A vertex set X with switch(g1, X) sign-equal to g2, or None.

    Both graphs must have the same underlying multigraph (same n, same
    pair multiplicities).  Each is switched to its forest normal form
    (:func:`_normalizing_switch`); X is the difference of the two
    switches, and the graphs are equivalent iff it carries g1 onto g2,
    loops included.  Each component of the orientable pairs keeps its
    lowest vertex out of X.
    """
    if g1.n != g2.n:
        raise GraphError("underlying graphs differ: vertex counts")
    if {k: len(v) for k, v in g1.pair_signs().items()} != {k: len(v) for k, v in g2.pair_signs().items()}:
        raise GraphError("underlying graphs differ: edge multiplicities")
    x1, x2 = _normalizing_switch(g1), _normalizing_switch(g2)
    xs = frozenset(v for v in range(g1.n) if x1[v] != x2[v])
    return xs if switch(g1, xs) == g2 else None


def is_switching_equivalent(g1: SignedMultigraph, g2: SignedMultigraph) -> bool:
    """True iff some switching maps g1's signature to g2's.

    Equivalent to the two signatures having the same set of positive
    cycles; decided by comparing forest normal forms instead of cycle
    sets, in the time of sorting the edges.
    """
    return switching_set(g1, g2) is not None


def canonical_signature(g: SignedMultigraph) -> SignedMultigraph:
    """Deterministic representative of the switching class of ``g``.

    ``g`` is switched by :func:`_normalizing_switch`, so that every
    forest pair carries its maximum number of positive signs; for single
    edges that means all forest edges positive.  Within each pair the
    final sign multiset is laid back onto the edge slots with positives
    first, so equal classes give equal edge lists.
    """
    x = _normalizing_switch(g)
    switched = switch(g, [v for v in range(g.n) if x[v]])
    # Redistribute pair signs onto slots, positives first, for stable output.
    remaining = {p: list(sig) for p, sig in switched.pair_signs().items()}
    new_edges = []
    for (u, v, s) in switched.edges:
        if u == v:
            new_edges.append((u, v, s))
        else:
            pool = remaining[(min(u, v), max(u, v))]
            new_edges.append((u, v, pool.pop(0)))
    return SignedMultigraph(g.n, tuple(new_edges))


# -- switching isomorphism ----------------------------------------------

_ISO_MAX_N = 12


class _LazyTable:
    """A pair table of _embed whose mask for color c is ``mask(c)``, made
    when it is read, so that memory stays linear in the host graph."""

    __slots__ = ("mask",)

    def __init__(self, mask):
        self.mask = mask

    def __getitem__(self, c: int) -> int:
        return self.mask(c)


def _embed(g: SignedMultigraph, h: SignedMultigraph) -> Optional[tuple[tuple[int, ...], frozenset[int]]]:
    """An injective vertex map phi of h into g and a switch set X of g
    such that switch(g, X) holds every edge of h under phi with its sign,
    or None.

    A switching homomorphism into g is a sign-preserving homomorphism
    into g's switching graph, which holds every vertex x of g twice, x
    switched and x unswitched (Brewster & Graves, *Edge-switching
    homomorphisms of edge-coloured graphs*, Discrete Math. 309, 2009); an
    embedding is one that is also injective on g's vertices.  That is a
    coloring of h under binary constraints, found by the solver's FC-CBJ
    loop: value 2x + s sends an h vertex to x, with x switched iff
    s = 1.  An h pair with sign multiset A allows (x, s) beside (y, t)
    when x, y is a pair of g, with multiset B, and s ^ t is in
    _fits(A, B); every other h pair only needs x != y.  A vertex's domain
    holds the x with at least its degree and room for its loops, which
    switching keeps.  The order and its roots are _static_order's over
    h's edges; complementing s across one component of h changes no
    constraint, so each root is pinned unswitched.
    """
    from .solver import _Deadline, _search, _static_order  # solver imports core

    gp, gloops, gdeg = g.pair_signs(), g.loop_signs(), _degrees(g)
    hp, hloops, hdeg = h.pair_signs(), h.loop_signs(), _degrees(h)
    gadj: list[list] = [[] for _ in range(g.n)]
    for (x, y), b in gp.items():
        gadj[x].append((y, b))
        gadj[y].append((x, b))
    full = (1 << 2 * g.n) - 1
    apart = _LazyTable(lambda c: full ^ (3 << (c & ~1)))

    def fitting(sig):
        flips = {b: _fits(sig, b) for b in set(gp.values())}
        # bits[x]: the values 2y + f that (x, 0) allows; (x, 1) allows each with f flipped.
        bits = [tuple(2 * y + f for (y, b) in row for f in flips[b]) for row in gadj]
        return _LazyTable(lambda c: sum(1 << (b ^ (c & 1)) for b in bits[c >> 1]))

    paired = {sig: fitting(sig) for sig in set(hp.values())}
    tables = {}
    for u in range(h.n):
        for v in range(u + 1, h.n):
            sig = hp.get((u, v))
            tables[(u, v)] = tables[(v, u)] = apart if sig is None else paired[sig]

    def room(v, x):  # x has v's degree, and its loops hold v's
        return gdeg[x] >= hdeg[v] and (v not in hloops or 0 in _fits(hloops[v], gloops.get(x, ())))

    domains = [sum(3 << 2 * x for x in range(g.n) if room(v, x)) for v in range(h.n)]
    order, roots = _static_order(h.edges, h.n)
    for v in roots:
        domains[v] &= full // 3  # the even values: x unswitched
    sol = next(_search(order, domains, tables, _Deadline(None)), None)
    if sol is None:
        return None
    phi = [0] * h.n
    for v, c in zip(order, sol):
        phi[v] = c >> 1
    return tuple(phi), frozenset(c >> 1 for c in sol if c & 1)


def _negative_triangle_counts(g: SignedMultigraph) -> list[int]:
    """Per vertex, the negative triangles through it whose three pairs are
    each a single edge, sorted.

    Switching keeps every cycle's sign and a relabelling only permutes
    the counts, so switching isomorphic graphs have equal lists."""
    single = {p: sig[0] for p, sig in g.pair_signs().items() if len(sig) == 1}
    adj = _adjacency(g.n, single)
    count = [0] * g.n
    for (u, v), s in single.items():  # u < v < w counts each triangle once
        for w in adj[v]:
            if w > v and (u, w) in single and s * single[(u, w)] * single[(v, w)] < 0:
                count[u] += 1
                count[v] += 1
                count[w] += 1
    return sorted(count)


def is_switching_isomorphic(g: SignedMultigraph, h: SignedMultigraph) -> bool:
    """True iff some vertex bijection plus switching maps g onto h.

    With equal vertex and edge counts, an embedding of h into g (see
    :func:`contains_switching_subgraph`) covers every pair and loop of g
    with its whole multiplicity, so it is a bijection that uses every
    edge: a switching isomorphism.  The search is exhaustive over vertex
    maps and meant for gadget-sized graphs; it refuses n > 12.  Graphs
    whose negative triangle counts differ are told apart before it: the
    search would find a mismatch that sits in g rather than h only deep
    in its tree.
    """
    if g.n != h.n or g.m != h.m:
        return False
    if g.n > _ISO_MAX_N:
        raise GraphError(f"is_switching_isomorphic limited to n <= {_ISO_MAX_N}")
    if _negative_triangle_counts(g) != _negative_triangle_counts(h):
        return False
    return _embed(g, h) is not None


def contains_switching_subgraph(
    g: SignedMultigraph, h: SignedMultigraph
) -> Optional[tuple[tuple[int, ...], frozenset[int]]]:
    """Find h inside g up to switching.

    Returns (phi, X) where phi is an injective vertex map and X a switch
    set of g such that every edge of h appears in switch(g, X) under phi
    with matching sign, or None.  h must be small (<= 6 vertices); g may
    be large: forward checking keeps each placed neighbor's image
    adjacent, and the pair tables make each mask when it is read, so
    memory stays linear in g's size.
    """
    if h.n > 6:
        raise GraphError("subgraph pattern limited to 6 vertices")
    if h.n > g.n or h.m > g.m:
        return None
    return _embed(g, h)


# -- text interchange format ----------------------------------------------


def parse_graph_text(text: str) -> SignedMultigraph:
    """Parse the text interchange format.

    Line 1: ``n m``; then m lines ``u v s`` with s one of ``+``/``-``.
    ``#`` starts a comment; blank lines are skipped.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows:
        raise GraphError("empty graph file")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphError(f"line {lineno}: expected 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphError(f"line {lineno}: expected integers 'n m'") from None
    if len(rows) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 3 or parts[2] not in _CHAR_SIGN:
            raise GraphError(f"line {lineno}: expected 'u v +|-'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: bad vertex index") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"line {lineno}: vertex out of range")
        edges.append((u, v, _CHAR_SIGN[parts[2]]))
    return make_graph(n, edges)


def format_graph_text(g: SignedMultigraph, *, comment: str = "") -> str:
    lines = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"# {row}")
    lines.append(f"{g.n} {g.m}")
    for (u, v, s) in g.edges:
        lines.append(f"{u} {v} {sign_char(s)}")
    return "\n".join(lines) + "\n"
