import pytest

from sgchrom.clique import (
    LABEL_CYCLE,
    CliqueParams,
    _neighbor_masks,
    adjacency,
    antipode,
    color_from_label,
    cyclic_distance,
    hat_clique,
    label_from_color,
    neighbor_set,
)
from sgchrom.core import NEG, POS, is_switching_equivalent, is_switching_isomorphic, make_graph

from conftest import oracle_adjacency

P103 = CliqueParams(10, 3)


class TestParams:
    def test_validation(self):
        CliqueParams(10, 3)
        CliqueParams(2, 1)
        with pytest.raises(ValueError):
            CliqueParams(9, 3)  # odd p
        with pytest.raises(ValueError):
            CliqueParams(4, 3)  # p < 2q
        with pytest.raises(ValueError):
            CliqueParams(4, 0)


class TestAdjacency:
    def test_matches_literal_definition_everywhere(self):
        # The cyclic-distance shortcut is the hot path; the raw two-clause
        # form is the oracle.
        for p in range(2, 17, 2):
            for q in range(1, p // 2 + 1):
                for i in range(p):
                    for j in range(p):
                        assert adjacency((p, q), i, j) == oracle_adjacency(p, q, i, j)

    def test_neighbor_masks_match_literal_definition(self):
        # The masks rotate color 0's by each color; the oracle reads every
        # pair, past the uint64 masks of elimination at p > 64.
        for p in range(2, 81, 2):
            for q in range(1, p // 2 + 1):
                pos, neg = _neighbor_masks(CliqueParams(p, q))
                for c in range(p):
                    signs = [oracle_adjacency(p, q, c, j) for j in range(p)]
                    assert pos[c] == sum(1 << j for j, s in enumerate(signs) if POS in s), (p, q, c)
                    assert neg[c] == sum(1 << j for j, s in enumerate(signs) if NEG in s), (p, q, c)

    def test_examples_10_3(self):
        assert adjacency(P103, 0, 3) == frozenset({NEG})
        assert adjacency(P103, 0, 0) == frozenset({POS})

    def test_both_signs_at_4_1(self):
        assert adjacency((4, 1), 0, 1) == frozenset({NEG, POS})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            adjacency(P103, 0, 10)


class TestAntipode:
    def test_example(self):
        assert antipode(P103, 0) == 5

    def test_involution(self):
        for p, q in ((10, 3), (8, 2), (6, 2), (12, 5)):
            for i in range(p):
                assert antipode((p, q), antipode((p, q), i)) == i

    def test_anti_twin_law(self):
        for p, q in ((10, 3), (8, 2), (12, 5), (14, 4)):
            pr = CliqueParams(p, q)
            for i in range(p):
                for j in range(p):
                    if j in (i, antipode(pr, i)):
                        continue
                    a = adjacency(pr, i, j)
                    b = adjacency(pr, antipode(pr, i), j)
                    assert (NEG in a) == (POS in b)
                    assert (POS in a) == (NEG in b)


class TestHatClique:
    def test_10_3_structure(self):
        h = hat_clique(P103)
        assert h.n == 5
        loops = [(u, v, s) for (u, v, s) in h.edges if u == v]
        assert len(loops) == 5 and all(s == POS for (_, _, s) in loops)
        pos = [(u, v) for (u, v, s) in h.edges if u != v and s == POS]
        neg = [(u, v) for (u, v, s) in h.edges if u != v and s == NEG]
        assert len(pos) == 7 and len(neg) == 3
        assert set(neg) == {(0, 3), (1, 4), (0, 4)}

    def test_10_3_is_pentagon_form_up_to_switching(self):
        # Positive 5-cycle plus negative pentagram (the even-color view of
        # the same clique) is the same switching class after relabeling.
        h = hat_clique(P103)
        pent = make_graph(
            5,
            [(i, i, POS) for i in range(5)]
            + [(i, (i + 1) % 5, POS) for i in range(5)]
            + [(i, (i + 2) % 5, NEG) for i in range(5)],
        )
        assert is_switching_isomorphic(h, pent)

    def test_6_2_negative_triangle_class(self):
        h = hat_clique((6, 2))
        assert h.n == 3
        nonloops = [(u, v, s) for (u, v, s) in h.edges if u != v]
        assert len(nonloops) == 3  # underlying K3
        tri = make_graph(3, nonloops)
        assert is_switching_equivalent(
            tri, make_graph(3, [(0, 1, NEG), (0, 2, NEG), (1, 2, NEG)])
        )

    def test_4_2_has_no_pair_edge(self):
        # Distance 1 meets neither adjacency clause at (4, 2): the halved
        # clique is two positive loops and nothing else.
        h = hat_clique((4, 2))
        assert h.n == 2
        assert all(u == v and s == POS for (u, v, s) in h.edges)
        assert len(h.edges) == 2

    def test_digon_inside_half_at_8_2(self):
        h = hat_clique((8, 2))
        assert sorted(h.pair_signs()[(0, 2)]) == [NEG, POS]

    def test_text_emission_with_loops(self):
        from sgchrom.core import format_graph_text, parse_graph_text

        h = hat_clique(P103)
        text = format_graph_text(h)
        assert "0 0 +" in text.splitlines()
        assert parse_graph_text(text) == h


class TestNeighborSets:
    def test_examples(self):
        assert neighbor_set(P103, 0, POS) == frozenset({8, 9, 0, 1, 2})
        assert neighbor_set(P103, 0, NEG) == frozenset({3, 4, 5, 6, 7})

    def test_size_five_interval(self):
        from sgchrom.lists import is_interval

        for c in range(10):
            for s in (POS, NEG):
                ns = neighbor_set(P103, c, s)
                assert len(ns) == 5
                assert is_interval(ns) is not None

    def test_distance_i_union_law(self):
        for x in range(10):
            for y in range(10):
                d = cyclic_distance(10, x, y)
                if not (1 <= d <= 5):
                    continue
                for s in (POS, NEG):
                    union = neighbor_set(P103, x, s) | neighbor_set(P103, y, s)
                    assert len(union) == 5 + d

    def test_union_growth_law_exhaustive(self):
        for s in (POS, NEG):
            for mask in range(1, 1 << 10):
                xs = [c for c in range(10) if mask >> c & 1]
                union = set()
                for c in xs:
                    union |= neighbor_set(P103, c, s)
                assert len(union) >= min(10, len(xs) + 4)


class TestColorLabels:
    def test_round_trip(self):
        for c in range(10):
            assert color_from_label(label_from_color(c)) == c
        for lab in LABEL_CYCLE:
            assert label_from_color(color_from_label(lab)) == lab

    def test_cyclic_order(self):
        assert LABEL_CYCLE == (1, 2, 3, 4, 5, -1, -2, -3, -4, -5)
        assert [label_from_color(c) for c in range(10)] == list(LABEL_CYCLE)

    def test_negation_is_antipode(self):
        for c in range(10):
            assert color_from_label(-label_from_color(c)) == antipode(P103, c)

    def test_invalid(self):
        with pytest.raises(ValueError):
            color_from_label(0)
        with pytest.raises(ValueError):
            label_from_color(10)
