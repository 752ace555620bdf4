import random

import pytest

from sgchrom.catalog import apply_indicator, build, hajos_graph
from sgchrom.clique import CliqueParams
from sgchrom.core import (
    NEG,
    POS,
    SignedMultigraph,
    contains_switching_subgraph,
    is_switching_isomorphic,
    make_graph,
)
from sgchrom.criticality import (
    critical_subgraph,
    density_check,
    is_critical,
    is_two_connected,
    potential,
)
from sgchrom.solver import NegativeLoopError, find_sp_hom, is_colorable, verify_hom

from conftest import oracle_colorable, random_signed_graph

P103 = CliqueParams(10, 3)


class TestPotential:
    def test_named_values(self):
        assert potential(SignedMultigraph(1, ())) == 3
        assert potential(build("K4_MINUS").graph) == 0
        assert potential(build("T").graph) == 1
        assert potential(build("T_PLUS").graph) == -1

    def test_linear_on_cross_edge_free_splits(self):
        rng = random.Random(97)
        trials = 0
        while trials < 200:
            g = random_signed_graph(rng, n_max=7)
            verts = list(range(g.n))
            a = {v for v in verts if rng.random() < 0.6}
            b = {v for v in verts if rng.random() < 0.6}

            def induced(vs):
                keep = sorted(vs)
                remap = {v: i for i, v in enumerate(keep)}
                return SignedMultigraph(
                    len(keep),
                    tuple(
                        (remap[u], remap[v], s)
                        for (u, v, s) in g.edges
                        if u in vs and v in vs
                    ),
                )

            cross = [
                e
                for e in g.edges
                if (e[0] in a - b and e[1] in b - a) or (e[0] in b - a and e[1] in a - b)
            ]
            if cross:
                continue
            trials += 1
            lhs = potential(induced(a | b))
            rhs = potential(induced(a)) + potential(induced(b)) - potential(induced(a & b))
            assert lhs == rhs


class TestIsCritical:
    def test_k4_minus_critical(self):
        assert is_critical(build("K4_MINUS").graph, P103)

    def test_digon_critical(self):
        assert is_critical(build("DIGON").graph, P103)

    def test_t_not_critical_because_colorable(self):
        assert not is_critical(build("T").graph, P103)

    def test_t_plus_not_critical_because_colorable(self):
        # The chord variant of T is (10,3)-colorable, so it cannot be
        # critical; see the exhaustive 5-vertex scan in test_campaigns.
        tp = build("T_PLUS").graph
        assert is_colorable(tp, P103)
        assert not is_critical(tp, P103)
        # No reading of "T plus a chord" is critical either.  T's absent
        # chords are v1v3, v1v4 and v2v5; its reflection v2<->v5, v3<->v4
        # swaps the first two, so up to symmetry there are four one-chord
        # extensions (v1v3 and v2v5, either sign).  All six are checked: each
        # is colorable by the product-space oracle, except the positive v2v5
        # chord, which contains (K4, -) on v2..v5 (switch {v3, v5}).
        t = build("T").graph
        k4 = build("K4_MINUS").graph
        assert SignedMultigraph(5, t.edges + ((0, 2, POS),)) == tp
        non_colorable = []
        for (u, v) in ((0, 2), (0, 3), (1, 4)):
            for s in (POS, NEG):
                g = SignedMultigraph(5, t.edges + ((u, v, s),))
                if not oracle_colorable(g, 10, 3):
                    non_colorable.append((u, v, s))
                    assert contains_switching_subgraph(g, k4) is not None
        assert non_colorable == [(1, 4, POS)]

    def test_isolated_vertex_disqualifies(self):
        digon = build("DIGON").graph
        padded = SignedMultigraph(3, digon.edges)
        assert not is_colorable(padded, P103)
        assert not is_critical(padded, P103)

    def test_negative_loop_rejected(self):
        with pytest.raises(NegativeLoopError):
            is_critical(make_graph(1, [(0, 0, NEG)]), P103)

    def test_k4_minus_with_edge_deleted_colorable(self):
        g = build("K4_MINUS").graph
        for i in range(g.m):
            sub = SignedMultigraph(g.n, g.edges[:i] + g.edges[i + 1 :])
            assert is_colorable(sub, P103)


class TestCriticalSubgraph:
    def test_t_plus_positive_v2v5_chord_gives_k4_class(self):
        t = build("T").graph
        g = SignedMultigraph(5, t.edges + ((1, 4, POS),))
        assert not is_colorable(g, P103)
        sub = critical_subgraph(g, P103)
        assert is_switching_isomorphic(sub, build("K4_MINUS").graph)
        assert is_critical(sub, P103)

    def test_digon_with_pendant(self):
        g = make_graph(3, [(0, 1, POS), (0, 1, NEG), (1, 2, POS)])
        sub = critical_subgraph(g, P103)
        assert sub == build("DIGON").graph

    def test_colorable_input_rejected(self):
        with pytest.raises(ValueError):
            critical_subgraph(build("T").graph, P103)

    def test_output_always_critical(self):
        rng = random.Random(101)
        found = 0
        while found < 15:
            g = random_signed_graph(rng, n_max=6, p_edge=0.8, allow_digons=True)
            if g.has_negative_loop or is_colorable(g, P103):
                continue
            found += 1
            sub = critical_subgraph(g, P103)
            assert not is_colorable(sub, P103)
            assert is_critical(sub, P103)
            assert is_two_connected(sub)


class TestDensityCheck:
    def test_t_plus_equality(self):
        v = density_check(build("T_PLUS").graph)
        assert v.passes and v.lhs == 8 and v.rhs_num == 16

    def test_k4_minus_fails_as_excluded(self):
        assert not density_check(build("K4_MINUS").graph).passes

    def test_indicator_family(self):
        big = apply_indicator(hajos_graph(1))
        v = density_check(big)
        assert v.passes and v.lhs == 90


class TestGadgetFamilyCriticalityEvidence:
    def test_sampled_edge_deletions_colorable(self):
        # A symmetric sample of the 90 deletions; the next test checks
        # them all, the acceptance suite the non-colorability of the whole.
        big = apply_indicator(hajos_graph(1))
        for idx in (0, 2, 5, 47, 89):
            sub = SignedMultigraph(big.n, big.edges[:idx] + big.edges[idx + 1 :])
            assert is_colorable(sub, P103)

    def test_every_edge_deletion_colorable(self):
        # Full criticality evidence: with the whole graph non-colorable
        # (acceptance criterion 11), all 90 single-edge deletions being
        # colorable makes the 51-vertex member (10,3)-critical.
        big = apply_indicator(hajos_graph(1))
        assert big.m == 90
        for idx in range(big.m):
            sub = SignedMultigraph(big.n, big.edges[:idx] + big.edges[idx + 1 :])
            hom = find_sp_hom(sub, P103)
            assert hom is not None and verify_hom(sub, hom), idx


class TestTwoConnected:
    def test_examples(self):
        assert is_two_connected(build("DIGON").graph)
        assert is_two_connected(build("K4_MINUS").graph)
        assert is_two_connected(build("T").graph)
        path = make_graph(3, [(0, 1, POS), (1, 2, POS)])
        assert not is_two_connected(path)
        assert not is_two_connected(SignedMultigraph(1, ()))
