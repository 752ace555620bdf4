import itertools
from fractions import Fraction

import pytest

from sgchrom.catalog import (
    apply_indicator,
    build,
    golden_colorings,
    hajos_graph,
    indicator,
    names,
    negative_cycle,
)
from sgchrom.clique import CliqueParams, cyclic_distance
from sgchrom.core import (
    NEG,
    POS,
    SignedMultigraph,
    contains_switching_subgraph,
    cycle_sign,
    is_switching_isomorphic,
    make_graph,
)
from sgchrom.criticality import potential
from sgchrom.solver import chi_c, enumerate_homs, is_colorable, verify_hom

P103 = CliqueParams(10, 3)


def underlying_positive(g: SignedMultigraph) -> SignedMultigraph:
    return SignedMultigraph(g.n, tuple((u, v, POS) for (u, v, _) in g.edges))


def girth(g: SignedMultigraph) -> int:
    best = None
    pairs = set(g.pair_signs())
    adj = {v: [] for v in range(g.n)}
    for (a, b) in pairs:
        adj[a].append(b)
        adj[b].append(a)

    def bfs(root):
        nonlocal best
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        while queue:
            u = queue.pop(0)
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:
                    cyc = dist[u] + dist[w] + 1
                    if best is None or cyc < best:
                        best = cyc

    for v in range(g.n):
        bfs(v)
    return best


class TestBuild:
    def test_t_counts_and_potential(self):
        t = build("T")
        assert (t.graph.n, t.graph.m) == (5, 7)
        assert potential(t.graph) == 1

    def test_t_plus_counts(self):
        tp = build("T_PLUS")
        assert (tp.graph.n, tp.graph.m) == (5, 8)

    def test_t_plus_minus_chord_is_t(self):
        tp = build("T_PLUS").graph
        chord_free = SignedMultigraph(tp.n, tp.edges[:-1])
        assert is_switching_isomorphic(chord_free, build("T").graph)

    def test_petersen_structure(self):
        p = build("PETERSEN").graph
        assert (p.n, p.m) == (10, 15)
        assert all(p.degree(v) == 3 for v in range(10))
        assert girth(p) == 5
        k3 = make_graph(3, [(0, 1, NEG), (0, 2, NEG), (1, 2, NEG)])
        assert contains_switching_subgraph(p, k3) is None

    def test_petersen_underlying_is_petersen(self):
        # Standard drawing: outer 5-cycle, inner pentagram, spokes.
        edges = [(i, (i + 1) % 5, POS) for i in range(5)]
        edges += [(5 + i, 5 + (i + 2) % 5, POS) for i in range(5)]
        edges += [(i, 5 + i, POS) for i in range(5)]
        standard = make_graph(10, edges)
        assert is_switching_isomorphic(
            underlying_positive(build("PETERSEN").graph), standard
        )

    def test_eight_vertex_graphs_cubic(self):
        for i in (1, 2, 3, 4):
            g = build(f"EIGHT_V_{i}").graph
            assert (g.n, g.m) == (8, 12)
            assert all(g.degree(v) == 3 for v in range(8))

    def test_cube_underlying(self):
        g = build("CUBE_NEG").graph
        assert (g.n, g.m) == (8, 12)
        assert all(g.degree(v) == 3 for v in range(8))
        assert girth(g) == 4
        # every 4-cycle negative: check all 4-cycles explicitly
        pairs = g.pair_signs()
        count = 0
        for quad in itertools.permutations(range(8), 4):
            if quad[0] != min(quad) or quad[1] > quad[3]:
                continue
            cyc = list(quad)
            if all(
                (min(cyc[i], cyc[(i + 1) % 4]), max(cyc[i], cyc[(i + 1) % 4])) in pairs
                for i in range(4)
            ):
                sign = 1
                for i in range(4):
                    a, b = cyc[i], cyc[(i + 1) % 4]
                    sign *= pairs[(min(a, b), max(a, b))][0]
                assert sign == NEG
                count += 1
        assert count == 6  # the six faces

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build("NOPE")

    @pytest.mark.parametrize("name", ["EIGHT_V_x", "EIGHT_V_5"])
    def test_unknown_eight_vertex_variant(self, name):
        # Not an int() error for a bad suffix, nor a build for a fifth variant.
        with pytest.raises(KeyError, match="unknown catalog name"):
            build(name)

    def test_names_all_buildable(self):
        assert len(names()) == 16
        for name in names():
            build(name)


class TestGoldens:
    def test_all_golden_colorings_verify(self):
        pairs = golden_colorings()
        assert len(pairs) == 12  # T, the six H graphs, CUBE_NEG, EIGHT_V 1..4
        for ng, hom in pairs:
            assert verify_hom(ng.graph, hom), ng.name

    def test_expected_chi_c_cheap_graphs(self):
        for name in ("K4_MINUS", "DIGON", "T"):
            ng = build(name)
            assert chi_c(ng.graph).value == ng.expected_chi_c


class TestNegativeCycle:
    def test_length_two_is_digon(self):
        assert negative_cycle(2) == build("DIGON").graph

    def test_formula_small(self):
        assert chi_c(negative_cycle(3)).value == Fraction(3)
        assert chi_c(negative_cycle(6)).value == Fraction(12, 5)

    def test_cycle_sign_negative(self):
        for length in (3, 5, 8):
            g = negative_cycle(length)
            assert cycle_sign(g, list(range(length))) == NEG

    def test_too_short(self):
        with pytest.raises(ValueError):
            negative_cycle(1)


class TestIndicator:
    def test_shape(self):
        gad = indicator()
        assert gad.graph.n == 5 and gad.graph.m == 6
        assert gad.graph.degree(gad.s) == 2
        assert gad.graph.degree(gad.t) == 1
        assert all(s == NEG for (_, _, s) in gad.graph.edges)

    def test_admits_coloring(self):
        gad = indicator()
        assert is_colorable(gad.graph, P103)

    def test_end_distance_at_least_two_with_equality(self):
        gad = indicator()
        dists = set()
        for h in enumerate_homs(gad.graph, P103):
            dists.add(cyclic_distance(10, h.assignment[gad.s], h.assignment[gad.t]))
        assert min(dists) == 2
        assert all(d >= 2 for d in dists)


class TestHajos:
    def test_k1_is_k6(self):
        g = hajos_graph(1)
        assert (g.n, g.m) == (6, 15)
        assert all(s == POS for (_, _, s) in g.edges)
        assert g.is_simple
        assert all(g.degree(v) == 5 for v in range(6))

    def test_counts(self):
        for k in (2, 3, 4):
            g = hajos_graph(k)
            assert (g.n, g.m) == (5 * k + 1, 14 * k + 1)
            assert g.is_simple

    def test_k6_not_classically_5_colorable(self):
        # Classical circular 5-coloring of K6 = (10, 2)-coloring of the
        # all-negative signature; it must not exist.
        k6_neg = SignedMultigraph(6, tuple((u, v, NEG) for (u, v, _) in hajos_graph(1).edges))
        assert not is_colorable(k6_neg, (10, 2))
        assert is_colorable(k6_neg, (12, 2))

    def test_bad_k(self):
        with pytest.raises(ValueError):
            hajos_graph(0)


def hand_written_apply_indicator(g: SignedMultigraph) -> SignedMultigraph:
    """The gadget replacement with the six indicator edges written out."""
    n = g.n
    edges = []
    for (u, v, _) in g.edges:
        x1, x2, x3 = n, n + 1, n + 2
        n += 3
        edges += [
            (u, x1, NEG), (u, x2, NEG), (x1, x2, NEG),
            (x1, x3, NEG), (x2, x3, NEG), (x3, v, NEG),
        ]
    return make_graph(n, edges)


class TestApplyIndicator:
    def test_edge_order_matches_hand_written_gadget(self):
        # Gadget edges stay in indicator() order, so an edge index names
        # the same gadget edge as before.
        k5 = make_graph(5, [(u, v, POS) for u in range(5) for v in range(u + 1, 5)])
        for g in [k5] + [hajos_graph(k) for k in range(1, 6)]:
            big = apply_indicator(g)
            want = hand_written_apply_indicator(g)
            assert (big.n, big.edges) == (want.n, want.edges)

    def test_k6_counts(self):
        big = apply_indicator(hajos_graph(1))
        assert (big.n, big.m) == (51, 90)

    def test_single_edge_is_the_gadget(self):
        g = apply_indicator(make_graph(2, [(0, 1, POS)]))
        assert (g.n, g.m) == (5, 6)
        assert is_switching_isomorphic(g, indicator().graph)

    def test_hajos_2_counts(self):
        big = apply_indicator(hajos_graph(2))
        assert (big.n, big.m) == (98, 174)

    def test_rejects_loops_and_negative_edges(self):
        with pytest.raises(ValueError):
            apply_indicator(make_graph(1, [(0, 0, POS)]))
        with pytest.raises(ValueError):
            apply_indicator(make_graph(2, [(0, 1, NEG)]))

    def test_k6_family_has_no_k4(self):
        k4 = build("K4_MINUS").graph
        big = apply_indicator(hajos_graph(1))
        assert contains_switching_subgraph(big, k4) is None
