import itertools
import random

import numpy as np
import pytest

from sgchrom.clique import CliqueParams
from sgchrom.core import NEG, POS, SignedMultigraph, make_graph
from sgchrom.lists import (
    FULL,
    Interval,
    ListAssignment,
    classify_neg_tri_exception,
    is_interval,
    list_colorable,
    mask_of,
    mask_of_labels,
    mask_to_labels,
    neg_triangle_colorable,
    residual_list,
    verify_list_lemma,
)
from sgchrom.solver import verify_hom

from conftest import random_signed_graph

NEG_TRI = make_graph(3, [(0, 1, NEG), (0, 2, NEG), (1, 2, NEG)])


def naive_list_colorable(g, masks):
    """Plain product enumeration over the lists."""
    from sgchrom.clique import adjacency

    pr = CliqueParams(10, 3)
    lists = [[c for c in range(10) if m >> c & 1] for m in masks]
    for asg in itertools.product(*lists):
        if all(s in adjacency(pr, asg[u], asg[v]) for (u, v, s) in g.edges):
            return True
    return False


class TestListAssignment:
    def test_f_counts(self):
        la = ListAssignment.from_colors([{0, 1}, set(), range(10)])
        assert la.f == (2, 0, 10)

    def test_label_round_trip(self):
        labels = [3, 4, 5, -1, -2, -3, -4]
        assert set(mask_to_labels(mask_of_labels(labels))) == set(labels)


class TestIsInterval:
    def test_examples(self):
        assert is_interval({8, 9, 0, 1, 2}) == Interval(8, 5)
        assert is_interval({0, 2}) is None
        assert is_interval(set(range(10))) == Interval(0, 10)
        assert is_interval(set()) == Interval(0, 0)

    def test_mask_round_trip(self):
        for start in range(10):
            for length in range(11):
                iv = Interval(start, length)
                got = is_interval(iv.mask())
                assert got is not None and got.length == length


class TestListColorable:
    def test_single_negative_edge_full_neighbor_list(self):
        g = make_graph(2, [(0, 1, NEG)])
        la = ListAssignment.from_colors([{0}, {3, 4, 5, 6, 7}])
        h = list_colorable(g, la)
        assert h is not None and verify_hom(g, h)
        assert h.assignment[1] in {3, 4, 5, 6, 7}

    def test_single_negative_edge_too_close(self):
        g = make_graph(2, [(0, 1, NEG)])
        la = ListAssignment.from_colors([{0}, {0, 1, 2}])
        assert list_colorable(g, la) is None

    def test_empty_list_gives_none(self):
        g = make_graph(2, [(0, 1, NEG)])
        assert list_colorable(g, ListAssignment((0, FULL))) is None

    def test_neg_triangle_six_set_matches_bipartite_family(self):
        # All-equal six-element lists: colorable exactly when the negative
        # pairs inside the set contain a triangle, i.e. when the family-(2)
        # bipartite condition fails.
        x = mask_of_labels([1, 2, 3, 4, 5, -1])
        la = ListAssignment((x, x, x))
        got = list_colorable(NEG_TRI, la)
        fam = classify_neg_tri_exception(x, x, x)
        assert (got is None) == (fam == 2)

    def test_agrees_with_naive_product_enumeration(self):
        rng = random.Random(61)
        for trial in range(10_000):
            g = random_signed_graph(rng, n_max=4, p_edge=0.6)
            masks = tuple(rng.randrange(1 << 10) for _ in range(g.n))
            got = list_colorable(g, ListAssignment(masks))
            assert (got is not None) == naive_list_colorable(g, masks)
            if got is not None:
                assert verify_hom(g, got)
                assert all(masks[v] >> c & 1 for v, c in enumerate(got.assignment))

    def test_monotone_under_list_growth(self):
        rng = random.Random(67)
        for _ in range(500):
            g = random_signed_graph(rng, n_max=4, p_edge=0.6)
            masks = [rng.randrange(1 << 10) for _ in range(g.n)]
            if list_colorable(g, ListAssignment(tuple(masks))) is None:
                continue
            bigger = tuple(m | rng.randrange(1 << 10) for m in masks)
            assert list_colorable(g, ListAssignment(bigger)) is not None

    def test_switching_covariance(self):
        # Negating one vertex's list (color -> antipode) while flipping its
        # incident edge signs preserves list colorability.
        rng = random.Random(71)
        for _ in range(300):
            g = random_signed_graph(rng, n_max=4, p_edge=0.7)
            if g.n < 2:
                continue
            masks = [rng.randrange(1 << 10) for _ in range(g.n)]
            v = rng.randrange(g.n)
            flipped = SignedMultigraph(
                g.n,
                tuple(
                    (a, b, -s if v in (a, b) else s) for (a, b, s) in g.edges
                ),
            )
            neg_mask = ((masks[v] << 5) | (masks[v] >> 5)) & FULL
            new_masks = list(masks)
            new_masks[v] = neg_mask
            before = list_colorable(g, ListAssignment(tuple(masks))) is not None
            after = list_colorable(flipped, ListAssignment(tuple(new_masks))) is not None
            assert before == after


class TestResidualList:
    def test_one_negative_neighbor(self):
        g = make_graph(2, [(0, 1, NEG)])
        assert residual_list(g, {0: 0}, 1) == frozenset({3, 4, 5, 6, 7})

    def test_positive_triangle_corners(self):
        g = make_graph(3, [(0, 1, POS), (1, 2, POS), (0, 2, POS)])
        res = residual_list(g, {0: 0, 2: 2}, 1)  # labels 1 and 3
        assert res == frozenset({0, 1, 2})  # labels {1, 2, 3}

    def test_uncolored_neighbors_full(self):
        g = make_graph(3, [(0, 1, NEG), (1, 2, NEG)])
        assert residual_list(g, {}, 1) == frozenset(range(10))

    def test_digon_neighbor_empty(self):
        g = make_graph(2, [(0, 1, NEG), (0, 1, POS)])
        assert residual_list(g, {0: 0}, 1) == frozenset()

    def test_colored_vertex_rejected(self):
        g = make_graph(2, [(0, 1, NEG)])
        with pytest.raises(ValueError):
            residual_list(g, {1: 0}, 1)


class TestClassifier:
    def test_family_1_empty_list(self):
        assert classify_neg_tri_exception(0, FULL, mask_of(range(8))) == 1

    def test_family_2_example(self):
        x = mask_of_labels([2, 3, 4, -2, -3, -4])
        assert classify_neg_tri_exception(x, x, x) == 2

    def test_family_3_example(self):
        big = mask_of_labels([3, 4, 5, -1, -2, -3, -4])
        small = mask_of_labels([4, 5, -2, -3])
        assert classify_neg_tri_exception(big, big, small) == 3
        assert classify_neg_tri_exception(small, big, big) == 3
        assert not neg_triangle_colorable(big, big, small)

    def test_family_4_example(self):
        big = mask_of_labels([3, 4, 5, -1, -2, -3, -4, -5])
        small = mask_of_labels([5, -3])
        assert classify_neg_tri_exception(big, small, big) == 4
        assert not neg_triangle_colorable(big, big, small)

    def test_family_3_dihedral_orbit_members(self):
        from sgchrom.lists import DIHEDRAL, apply_color_map

        big = mask_of_labels([3, 4, 5, -1, -2, -3, -4])
        small = mask_of_labels([4, 5, -2, -3])
        for cmap in DIHEDRAL:
            b2, s2 = apply_color_map(big, cmap), apply_color_map(small, cmap)
            assert classify_neg_tri_exception(b2, b2, s2) == 3
            assert not neg_triangle_colorable(b2, b2, s2)

    def test_colorable_size6_triples_match_nothing(self):
        rng = random.Random(73)
        found = 0
        while found < 100:
            masks = []
            for _ in range(3):
                cols = rng.sample(range(10), 6)
                masks.append(mask_of(cols))
            if neg_triangle_colorable(*masks):
                found += 1
                assert classify_neg_tri_exception(*masks) is None

    def test_wrong_size_sum_rejected(self):
        with pytest.raises(ValueError):
            classify_neg_tri_exception(FULL, FULL, FULL)


class TestQuickLemmas:
    @pytest.mark.parametrize(
        "lemma_id,cases",
        [
            ("OBS_K2", 20),
            ("TRI_POS", 100),
            ("DIST_I", 180),
            ("UNION_X4", 2046),
            ("TWO_VERTEX", 400),
            ("C4_7755", 10_000),
            ("K23_INTERVALS", 64_000),
            ("K2_SUM7", 154_560),
        ],
    )
    def test_pass_with_expected_case_counts(self, lemma_id, cases):
        rep = verify_list_lemma(lemma_id)
        assert rep.passed, rep.failures[:3]
        assert rep.cases_checked == cases

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            verify_list_lemma("NOPE")

    def test_k2_sum7_superset_spot_check(self):
        # The campaign enumerates the boundary f(u)+f(v) = 7; the >= form
        # follows by monotonicity, spot-checked here on random supersets.
        rng = random.Random(79)
        g = {POS: make_graph(2, [(0, 1, POS)]), NEG: make_graph(2, [(0, 1, NEG)])}
        for _ in range(10_000):
            a = rng.randint(1, 6)
            lu = mask_of(rng.sample(range(10), a))
            lv = mask_of(rng.sample(range(10), 7 - a))
            extra_u = lu | rng.randrange(1 << 10)
            extra_v = lv | rng.randrange(1 << 10)
            s = rng.choice((POS, NEG))
            assert list_colorable(g[s], ListAssignment((extra_u, extra_v))) is not None

    def test_c4_reference_against_solver(self):
        # The 4-cycle feasibility shortcut used by C4_7755, cross-checked
        # against the generic list solver on random interval placements.
        from sgchrom.lists import _c4_colorable

        g = make_graph(
            4, [(0, 1, NEG), (1, 2, NEG), (2, 3, POS), (3, 0, NEG)]
        )
        rng = random.Random(83)
        for _ in range(300):
            l1 = Interval(rng.randrange(10), rng.randint(0, 8)).mask()
            l2 = Interval(rng.randrange(10), rng.randint(0, 8)).mask()
            l3 = Interval(rng.randrange(10), rng.randint(0, 8)).mask()
            l4 = Interval(rng.randrange(10), rng.randint(0, 8)).mask()
            want = list_colorable(g, ListAssignment((l1, l2, l3, l4))) is not None
            assert _c4_colorable(l1, l2, l3, l4) == want


class TestNegTri18Pieces:
    def test_spec_triple_not_colorable_family_3(self):
        lu = mask_of_labels([3, 4, 5, -1, -2, -3, -4])
        lw = mask_of_labels([4, 5, -2, -3])
        la = ListAssignment((lu, lu, lw))
        assert list_colorable(NEG_TRI, la) is None
        assert classify_neg_tri_exception(lu, lu, lw) == 3

    def test_vectorized_colorability_sample_agreement(self):
        rng = random.Random(89)
        from sgchrom.lists import _ACC, _PAT, TRIANGLES

        for _ in range(2000):
            masks = tuple(rng.randrange(1 << 10) for _ in range(3))
            via_profiles = any(
                (_ACC[_PAT[x, masks[0]], _PAT[x, masks[1]]] >> _PAT[x, masks[2]]) & 1
                for x in range(10)
            )
            assert via_profiles == neg_triangle_colorable(*masks)

    def test_triangles_are_the_ten_rotations(self):
        from sgchrom.lists import TRIANGLES
        from sgchrom.clique import cyclic_distance

        assert len(set(map(frozenset, TRIANGLES))) == 10
        for tri in TRIANGLES:
            for a, b in itertools.combinations(tri, 2):
                assert cyclic_distance(10, a, b) >= 3
        # and no other triple qualifies
        count = sum(
            1
            for t in itertools.combinations(range(10), 3)
            if all(cyclic_distance(10, a, b) >= 3 for a, b in itertools.combinations(t, 2))
        )
        assert count == 10


class TestImportTables:
    """The import-time bit tables are built by faster passes than the
    loops that define them; each must equal its defining loop, with the
    same dtype."""

    @staticmethod
    def popcount(m):
        return bin(m).count("1")

    def test_union_tables(self):
        from sgchrom.lists import NBR, NBR_NEG, NBR_POS, NEIGH

        for sign, table in ((POS, NBR_POS), (NEG, NBR_NEG)):
            want = np.zeros(1 << 10, dtype=np.int64)
            for m in range(1 << 10):
                acc = 0
                rest = m
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    acc |= NEIGH[sign][bit.bit_length() - 1]
                want[m] = acc
            assert table.dtype == want.dtype
            assert np.array_equal(table, want)
            assert NBR[sign] is table

    def test_popcount(self):
        from sgchrom.lists import POPCNT

        want = np.array([self.popcount(m) for m in range(1 << 10)], dtype=np.int64)
        assert POPCNT.dtype == want.dtype
        assert np.array_equal(POPCNT, want)

    def test_triangle_patterns(self):
        from sgchrom.lists import _PAT, TRIANGLES

        want = np.zeros((10, 1 << 10), dtype=np.uint8)
        for x, tri in enumerate(TRIANGLES):
            for m in range(1 << 10):
                want[x, m] = sum(((m >> c) & 1) << i for i, c in enumerate(tri))
        assert _PAT.dtype == want.dtype
        assert np.array_equal(_PAT, want)

    def test_acceptance_profiles(self):
        from sgchrom.lists import _PAT, _PROF_HI, _PROF_LO

        for m in range(1 << 10):
            lo = hi = 0
            for x in range(10):
                pat = int(_PAT[x, m])
                if x < 8:
                    lo |= 1 << (x * 8 + pat)
                else:
                    hi |= 1 << ((x - 8) * 8 + pat)
            assert int(_PROF_LO[m]) == lo
            assert int(_PROF_HI[m]) == hi
        assert _PROF_LO.dtype == np.uint64
        assert _PROF_HI.dtype == np.uint16  # x = 8, 9 need 16 bits

    def test_masks_by_size(self):
        from sgchrom.lists import MASKS_BY_SIZE

        assert len(MASKS_BY_SIZE) == 11
        for k, got in enumerate(MASKS_BY_SIZE):
            want = np.array([m for m in range(1 << 10) if self.popcount(m) == k], dtype=np.int64)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
