"""Property tests for switching, canonical signatures, subgraph search,
the component walk and colorability, on small random signed multigraphs.

Derandomized, so every run draws the same examples."""

import itertools
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from sgchrom.core import (
    NEG,
    POS,
    SignedMultigraph,
    canonical_signature,
    components,
    contains_switching_subgraph,
    is_switching_equivalent,
    relabel,
    switch,
    switching_set,
)
from sgchrom.solver import find_sp_hom, verify_hom

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)


@st.composite
def graphs(draw, max_n=6, max_m=10, loops=True):
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    edge = st.tuples(vertex, vertex, st.sampled_from((POS, NEG)))
    if not loops:
        edge = edge.filter(lambda e: e[0] != e[1])
    return SignedMultigraph(n, tuple(draw(st.lists(edge, max_size=max_m))))


@st.composite
def graph_switch_perm(draw, **kwargs):
    g = draw(graphs(**kwargs))
    xs = draw(st.sets(st.integers(0, g.n - 1)))
    perm = draw(st.permutations(range(g.n)))
    return g, xs, perm


def grouped(g: SignedMultigraph) -> dict:
    """Sign counts per unordered pair, loops included."""
    out: dict = {}
    for (u, v, s) in g.edges:
        out.setdefault((min(u, v), max(u, v)), Counter())[s] += 1
    return out


@PROPERTY
@given(graph_switch_perm())
def test_switching_set_round_trip(case):
    g, xs, _ = case
    h = switch(g, xs)
    found = switching_set(g, h)
    assert found is not None
    assert switch(g, found) == h
    # Switching the complement is the same switching.
    assert switch(g, set(range(g.n)) - found) == h


@PROPERTY
@given(graph_switch_perm())
def test_canonical_signature_is_a_function_of_the_class(case):
    g, xs, perm = case
    canon = canonical_signature(relabel(g, perm))
    assert canonical_signature(relabel(switch(g, xs), perm)) == canon
    assert canonical_signature(canon) == canon
    assert is_switching_equivalent(canon, relabel(g, perm))


@st.composite
def embedded_patterns(draw):
    """A host g and a pattern h: some edges of g on some of its vertices,
    relabeled and switched, so h always embeds."""
    g = draw(graphs(max_n=7, max_m=12))
    k = draw(st.integers(1, min(6, g.n)))
    verts = draw(st.lists(st.integers(0, g.n - 1), min_size=k, max_size=k, unique=True))
    index = {v: i for i, v in enumerate(verts)}
    inside = [(index[u], index[v], s) for (u, v, s) in g.edges if u in index and v in index]
    keep = draw(st.lists(st.booleans(), min_size=len(inside), max_size=len(inside)))
    h = SignedMultigraph(k, tuple(e for e, kept in zip(inside, keep) if kept))
    h = switch(h, draw(st.sets(st.integers(0, k - 1))))
    return g, h


def assert_embedding(g, h, found):
    phi, xs = found
    assert len(set(phi)) == h.n
    host = grouped(switch(g, xs))
    for pair, need in grouped(h).items():
        have = host.get((min(phi[pair[0]], phi[pair[1]]), max(phi[pair[0]], phi[pair[1]])), Counter())
        assert all(have[s] >= c for s, c in need.items())


@PROPERTY
@given(embedded_patterns())
def test_contained_pattern_is_found_and_verifies(case):
    g, h = case
    found = contains_switching_subgraph(g, h)
    assert found is not None
    assert_embedding(g, h, found)


@PROPERTY
@given(graphs(max_n=7, max_m=12), graphs(max_n=4, max_m=6))
def test_any_found_embedding_verifies(g, h):
    found = contains_switching_subgraph(g, h)
    if found is not None:
        assert_embedding(g, h, found)


@st.composite
def vertex_pairs(draw):
    n = draw(st.integers(0, 9))
    if n == 0:
        return 0, []
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), max_size=12))


@PROPERTY
@given(vertex_pairs())
def test_components_partition_the_vertices(case):
    n, pairs = case
    comps = components(n, pairs)
    assert sorted(v for comp in comps for v in comp) == list(range(n))
    assert [comp[0] for comp in comps] == sorted(min(comp) for comp in comps)
    # Union-find oracle for "same component".
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for (a, b) in pairs:
        root[find(a)] = find(b)
    where = {v: i for i, comp in enumerate(comps) for v in comp}
    for u, v in itertools.combinations(range(n), 2):
        assert (where[u] == where[v]) == (find(u) == find(v))


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(graph_switch_perm(max_n=5, max_m=7, loops=False), st.sampled_from([(6, 2), (8, 3), (10, 3)]))
def test_colorability_invariant_under_switching_and_relabeling(case, pq):
    g, xs, perm = case
    hom = find_sp_hom(g, pq)
    other = find_sp_hom(relabel(switch(g, xs), perm), pq)
    assert (hom is None) == (other is None)
    for graph, witness in ((g, hom), (relabel(switch(g, xs), perm), other)):
        if witness is not None:
            assert verify_hom(graph, witness)
