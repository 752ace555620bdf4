"""Property tests for switching, canonical signatures, subgraph search,
the component walk, colorability and its monotonicity under subgraphs,
on small random signed multigraphs.

Derandomized, so every run draws the same examples."""

import itertools

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
    is_switching_isomorphic,
    relabel,
    switch,
    switching_set,
)
from sgchrom.solver import Homomorphism, find_sp_hom, verify_hom

from conftest import assert_embedding, oracle_switching_isomorphic

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


@PROPERTY
@given(graph_switch_perm(), st.data())
def test_switching_isomorphism_matches_reference(case, data):
    """A relabelled, switched copy is switching isomorphic; with one edge's
    sign flipped it is iff the all-bijections reference says so, and with
    one edge deleted it never is."""
    g, xs, perm = case
    h = relabel(switch(g, xs), perm)
    assert is_switching_isomorphic(g, h)
    if h.m:
        i = data.draw(st.integers(0, h.m - 1))
        (u, v, s) = h.edges[i]
        flipped = SignedMultigraph(h.n, h.edges[:i] + ((u, v, -s),) + h.edges[i + 1:])
        assert is_switching_isomorphic(g, flipped) == oracle_switching_isomorphic(g, flipped)
        assert not is_switching_isomorphic(g, SignedMultigraph(h.n, h.edges[:i] + h.edges[i + 1:]))


@st.composite
def dense_switch_perm(draw, max_n=8):
    """A simple graph on up to max_n vertices with each pair an edge with
    probability about 3/4, so that triangles of both signs abound, plus a
    switch set and a relabelling."""
    n = draw(st.integers(3, max_n))
    edges = []
    for u, v in itertools.combinations(range(n), 2):
        kind = draw(st.integers(0, 3))  # 0: no edge, 1: positive, 2 and 3: negative
        if kind:
            edges.append((u, v, POS if kind == 1 else NEG))
    xs = draw(st.sets(st.integers(0, n - 1)))
    perm = draw(st.permutations(range(n)))
    return SignedMultigraph(n, tuple(edges)), xs, perm


@PROPERTY
@given(dense_switch_perm(), st.data())
def test_triangle_counts_keep_copies_isomorphic(case, data):
    """Comparing negative triangle counts never rejects a relabelled,
    switched copy, in either argument order; with one edge's sign flipped
    on at most six vertices the answer is the all-bijections reference's."""
    g, xs, perm = case
    h = relabel(switch(g, xs), perm)
    assert is_switching_isomorphic(g, h) and is_switching_isomorphic(h, g)
    if h.m and h.n <= 6:
        i = data.draw(st.integers(0, h.m - 1))
        (u, v, s) = h.edges[i]
        flipped = SignedMultigraph(h.n, h.edges[:i] + ((u, v, -s),) + h.edges[i + 1:])
        want = oracle_switching_isomorphic(g, flipped)
        assert is_switching_isomorphic(g, flipped) == is_switching_isomorphic(flipped, g) == want


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


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(graphs(max_n=6, max_m=9, loops=False), st.sampled_from([(6, 2), (8, 3), (10, 3)]))
def test_colorability_is_monotone_under_subgraphs(g, pq):
    """Deleting one edge or one vertex of a colorable graph leaves a
    colorable graph, and the witness, restricted to what is left,
    colors it."""
    hom = find_sp_hom(g, pq)
    if hom is None:
        return
    for i in range(g.m):
        h = SignedMultigraph(g.n, g.edges[:i] + g.edges[i + 1 :])
        assert find_sp_hom(h, pq) is not None
        assert verify_hom(h, hom)
    for v in range(g.n):
        keep = [u for u in range(g.n) if u != v]
        index = {u: i for i, u in enumerate(keep)}
        h = SignedMultigraph(
            g.n - 1,
            tuple((index[a], index[b], s) for (a, b, s) in g.edges if v not in (a, b)),
        )
        assert find_sp_hom(h, pq) is not None
        assert verify_hom(h, Homomorphism(hom.params, tuple(hom.assignment[u] for u in keep)))
