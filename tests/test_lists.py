import itertools
import math
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

    def test_reach_colorability_sample_agreement(self):
        from sgchrom.lists import _third_colors, _third_list_reach

        rng = random.Random(89)
        third = _third_colors()
        for _ in range(2000):
            lu, lv, lw = (rng.randrange(1 << 10) for _ in range(3))
            reach = int(_third_list_reach(third, np.array([lu]), np.array([lv]))[0, 0])
            assert ((lw & reach) != 0) == neg_triangle_colorable(lu, lv, lw)

    def test_third_colors(self):
        from sgchrom.lists import TRIANGLES, _third_colors

        third = _third_colors()
        assert third.shape == (10, 1 << 10) and third.dtype == np.int64
        for x in range(10):
            for v in range(1 << 10):
                want = 0
                for tri in TRIANGLES:
                    for (a, y, z) in itertools.permutations(tri):
                        if a == x and v >> y & 1:
                            want |= 1 << z
                assert int(third[x, v]) == want, (x, v)

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

    def test_bipartite_neg(self):
        from sgchrom.lists import BIPARTITE_NEG

        want = np.array([reference_neg_graph_bipartite(m) for m in range(1 << 10)], dtype=bool)
        assert BIPARTITE_NEG.dtype == want.dtype
        assert np.array_equal(BIPARTITE_NEG, want)

    def test_masks_by_size(self):
        from sgchrom.lists import MASKS_BY_SIZE

        assert len(MASKS_BY_SIZE) == 11
        for k, got in enumerate(MASKS_BY_SIZE):
            want = np.array([m for m in range(1 << 10) if self.popcount(m) == k], dtype=np.int64)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


# -- the kernels the list-pair folds replaced, kept as references ----------


def reference_neg_graph_bipartite(mask):
    """Is the graph of negative pairs inside the color set bipartite?
    One graph walk per mask."""
    from sgchrom.lists import NEIGH

    verts = [c for c in range(10) if mask >> c & 1]
    colour = {}
    for root in verts:
        if root in colour:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for v in verts:
                if v != u and (NEIGH[NEG][u] >> v & 1):
                    if v not in colour:
                        colour[v] = colour[u] ^ 1
                        stack.append(v)
                    elif colour[v] == colour[u]:
                        return False
    return True


def reference_profile_tables():
    """pat[x, m]: the slots of triangle x that mask m holds (3 bits);
    acc[r1, r2]: the patterns r3 completing a perfect matching of the
    slots against (r1, r2, r3); the acceptance profiles: bit 8x + r3 per
    triangle x, triangles x < 8 in a uint64 low word, x = 8, 9 in a
    uint16 high word."""
    from sgchrom.lists import TRIANGLES

    pat = np.array(
        [
            [(m >> a & 1) | (m >> b & 1) << 1 | (m >> c & 1) << 2 for m in range(1 << 10)]
            for (a, b, c) in TRIANGLES
        ],
        dtype=np.uint8,
    )
    acc = np.zeros((8, 8), dtype=np.uint8)
    for r1 in range(8):
        for r2 in range(8):
            for r3 in range(8):
                if any(
                    (r1 >> i & 1) and (r2 >> j & 1) and (r3 >> k & 1)
                    for (i, j, k) in itertools.permutations(range(3))
                ):
                    acc[r1, r2] |= 1 << r3
    lo = [0] * (1 << 10)
    hi = [0] * (1 << 10)
    for x, pats in enumerate(pat.tolist()):
        if x < 8:
            lo = [w | 1 << (8 * x + r) for w, r in zip(lo, pats)]
        else:
            hi = [w | 1 << (8 * (x - 8) + r) for w, r in zip(hi, pats)]
    return pat, acc, np.array(lo, dtype=np.uint64), np.array(hi, dtype=np.uint16)


PAT, ACC, PROF_LO, PROF_HI = reference_profile_tables()


def reference_colorable(lu, lv, lw):
    """Colorability of every triple of lu x lv x lw through the matching
    profiles of the ten negative triangles: an (A, B, C) bool grid."""
    acc_lo = np.zeros((len(lu), len(lv)), dtype=np.uint64)
    acc_hi = np.zeros((len(lu), len(lv)), dtype=np.uint16)
    for x in range(10):
        acc = ACC[PAT[x, lu][:, None], PAT[x, lv][None, :]]
        if x < 8:
            acc_lo |= acc.astype(np.uint64) << np.uint64(8 * x)
        else:
            acc_hi |= acc.astype(np.uint16) << np.uint16(8 * (x - 8))
    word = acc_lo[:, :, None] & PROF_LO[lw][None, None, :]
    spare = acc_hi[:, :, None] & PROF_HI[lw][None, None, :]
    return (word | spare) != 0


def reference_family_vector(a, b, c, lu, lv, lw):
    """Family membership of one size block, broadcast over (A, B, C)."""
    from sgchrom import lists

    shape = np.broadcast_shapes(lu.shape, lv.shape, lw.shape)
    if 0 in (a, b, c):
        return np.ones(shape, dtype=bool)
    if (a, b, c) == (6, 6, 6):
        return (lu == lv) & (lv == lw) & lists.BIPARTITE_NEG[lu]
    for orbit, big, small in ((lists.FAM3_ORBIT, 7, 4), (lists.FAM4_ORBIT, 8, 2)):
        if sorted((a, b, c)) == sorted((big, big, small)):
            keys = np.fromiter((bm << 10 | sm for (bm, sm) in orbit), dtype=np.int64)
            if a == b == big:
                eq, pair = lu == lv, (lu << 10) | lw
            elif a == c == big:
                eq, pair = lu == lw, (lu << 10) | lv
            else:
                eq, pair = lv == lw, (lv << 10) | lu
            return eq & np.isin(pair, keys)
    return np.zeros(shape, dtype=bool)


def size_blocks():
    for a in range(11):
        for b in range(11):
            if 0 <= 18 - a - b <= 10:
                yield (a, b, 18 - a - b)


def reference_neg_tri_18():
    """The triple-grid NEG_TRI_18 kernel, in chunks of A, uncapped: its
    failures in (lu, lv, lw) order and its case count."""
    from sgchrom import lists
    from sgchrom.lists import MASKS_BY_SIZE, _fail_labels

    failures, total = [], 0
    for (a, b, c) in size_blocks():
        A, B, C = MASKS_BY_SIZE[a], MASKS_BY_SIZE[b], MASKS_BY_SIZE[c]
        chunk = max(1, 500_000 // (len(B) * len(C)))
        for lo in range(0, len(A), chunk):
            asub = A[lo : lo + chunk]
            colorable = reference_colorable(asub, B, C)
            family = reference_family_vector(
                a, b, c, asub[:, None, None], B[None, :, None], C[None, None, :]
            )
            total += colorable.size
            for (i, j, k) in zip(*np.nonzero(colorable == family)):
                triple = (int(asub[i]), int(B[j]), int(C[k]))
                truly = lists.neg_triangle_colorable(*triple)
                fam = lists.classify_neg_tri_exception(*triple)
                if truly == (fam is not None):
                    direction = (
                        "non-colorable without family" if not truly else "colorable but matches family"
                    )
                    failures.append(
                        _fail_labels(
                            direction=direction, Lu=triple[0], Lv=triple[1], Lw=triple[2], family=fam
                        )
                    )
    return failures, total


def reference_k23_intervals():
    """The K_{2,3} interval lemma as nested loops over sign patterns and
    interval starts, one .any() per case: its failures and case count."""
    from sgchrom.lists import NEIGH, _fail_labels

    colors = np.arange(10)
    nbr_pos = np.array([NEIGH[POS][c] for c in range(10)], dtype=np.int64)
    nbr_neg = np.array([NEIGH[NEG][c] for c in range(10)], dtype=np.int64)

    def tri_tensor(s1, s2, s3):
        t1 = (nbr_pos if s1 == POS else nbr_neg)[colors][:, None, None]
        t2 = (nbr_pos if s2 == POS else nbr_neg)[colors][None, :, None]
        t3 = (nbr_pos if s3 == POS else nbr_neg)[colors][None, None, :]
        return (t1 & t2 & t3) != 0

    failures, cases = [], 0
    ival5 = {s: Interval(s, 5).mask() for s in range(10)}
    members = {s: [c for c in range(10) if ival5[s] >> c & 1] for s in range(10)}
    for su in itertools.product((POS, NEG), repeat=3):
        ok_u = tri_tensor(*su)
        for sv in itertools.product((POS, NEG), repeat=3):
            ok = ok_u & tri_tensor(*sv)
            for a1 in range(10):
                sub1 = ok[members[a1], :, :].any(axis=0)
                for a2 in range(10):
                    sub2 = sub1[members[a2], :].any(axis=0)
                    for a3 in range(10):
                        cases += 1
                        if not sub2[members[a3]].any():
                            failures.append(
                                _fail_labels(
                                    signs_u=su, signs_v=sv,
                                    L1=ival5[a1], L2=ival5[a2], L3=ival5[a3],
                                )
                            )
    return failures, cases


def report_body(rep):
    out = rep.to_json()
    del out["elapsed_s"]
    return out


class TestNegTri18Fold:
    """The list-pair fold of NEG_TRI_18 against the triple-grid kernel it
    replaced."""

    BLOCKS = (
        [(6, 6, 6)]
        + sorted(set(itertools.permutations((7, 7, 4))))
        + sorted(set(itertools.permutations((8, 8, 2))))
        + [(0, 9, 9), (5, 5, 8), (3, 7, 8)]
    )

    def test_non_colorable_triples_per_cell(self):
        from sgchrom.lists import MASKS_BY_SIZE, POPCNT, _third_colors, _third_list_reach

        third = _third_colors()
        for (a, b, c) in self.BLOCKS:
            A, B, C = MASKS_BY_SIZE[a], MASKS_BY_SIZE[b], MASKS_BY_SIZE[c]
            reach = _third_list_reach(third, A, B)
            counts = np.array([math.comb(k, c) for k in range(11)])[10 - POPCNT[reach]]
            for lo in range(0, len(A), 20):
                want = ~reference_colorable(A[lo : lo + 20], B, C)
                got = (reach[lo : lo + 20, :, None] & C[None, None, :]) == 0
                assert np.array_equal(got, want), (a, b, c, lo)
                assert np.array_equal(counts[lo : lo + 20], want.sum(axis=2)), (a, b, c, lo)

    def test_totals_are_655(self):
        from sgchrom.lists import MASKS_BY_SIZE, POPCNT, _neg_tri_family, _third_colors, _third_list_reach

        third = _third_colors()
        non_colorable = family = 0
        for (a, b, c) in size_blocks():
            reach = _third_list_reach(third, MASKS_BY_SIZE[a], MASKS_BY_SIZE[b])
            non_colorable += sum(math.comb(10 - int(k), c) for k in POPCNT[reach].ravel())
            family += len(_neg_tri_family(a, b, c))
        assert non_colorable == family == 655

    @staticmethod
    def expected(failures, total, cap):
        """The report a witness cap leaves of an uncapped failure list: the
        first ``cap`` failures, and the cases of every size block up to the
        one the last of them lies in."""
        notes = ["isomorphism group: dihedral (10 rotations x reflection)"]
        if len(failures) < cap:
            return {"cases_checked": total, "failures": failures, "notes": notes}
        last = tuple(len(failures[cap - 1][key]) for key in ("Lu", "Lv", "Lw"))
        cases = 0
        for block in size_blocks():
            cases += math.prod(math.comb(10, k) for k in block)
            if block == last:
                break
        return {"cases_checked": cases, "failures": failures[:cap], "notes": notes + ["witness list truncated"]}

    @staticmethod
    def traded_small_lists(lists):
        """Family (3) with each small list trading its lowest color for the
        lowest color of its big list it lacks: the same big lists, so the
        same (lu, lv) cells and the same family counts, but colorable."""
        def trade(bm, sm):
            return sm ^ (sm & -sm) ^ (bm & ~sm & -(bm & ~sm))

        return frozenset((bm, trade(bm, sm)) for (bm, sm) in lists.FAM3_ORBIT)

    MUTATIONS = {
        "none": {},
        "fam3_orbit": {
            "FAM3_ORBIT": lambda lists: lists._orbit_pairs(lists._FAM3_BIG, mask_of_labels([3, 4, -1, -2]))
        },
        "fam3_small_lists": {"FAM3_ORBIT": lambda lists: TestNegTri18Fold.traded_small_lists(lists)},
        "bipartite_neg": {"BIPARTITE_NEG": lambda lists: ~lists.BIPARTITE_NEG},
        "classifier": {"classify_neg_tri_exception": lambda lists: lambda lu, lv, lw: None},
        "fam3_orbit_and_classifier": {
            "FAM3_ORBIT": lambda lists: lists._orbit_pairs(lists._FAM3_BIG, mask_of_labels([3, 4, -1, -2])),
            "classify_neg_tri_exception": lambda lists: lambda lu, lv, lw: None,
        },
    }

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_reports_match_reference(self, monkeypatch, mutation):
        from sgchrom import lists

        for name, make in self.MUTATIONS[mutation].items():
            monkeypatch.setattr(lists, name, make(lists))
        failures, total = reference_neg_tri_18()
        assert total == 86_493_225
        assert (len(failures) > 10) == (mutation not in ("none", "classifier"))
        for cap in (10, 50, 10**9):
            got = report_body(lists._verify_neg_tri_18(max_witnesses=cap))
            want = self.expected(failures, total, cap)
            assert got == {"id": "NEG_TRI_18", "passed": not want["failures"], **want}, (mutation, cap)


class TestK23Contraction:
    @pytest.mark.parametrize("broken", [False, True])
    def test_report_matches_loop(self, monkeypatch, broken):
        from sgchrom import lists

        if broken:
            # The negative neighborhoods of colors 0..4 shrink to the
            # 3-intervals around their antipodes: 84 failures, not closed
            # under rotating the colors.
            neigh = dict(lists.NEIGH)
            neigh[NEG] = tuple(
                m & ~(1 << (c + 3) % 10 | 1 << (c + 7) % 10) if c < 5 else m
                for c, m in enumerate(neigh[NEG])
            )
            monkeypatch.setattr(lists, "NEIGH", neigh)
        failures, cases = reference_k23_intervals()
        assert cases == 64_000
        assert len(failures) == (84 if broken else 0)
        got = report_body(verify_list_lemma("K23_INTERVALS"))
        assert got == {
            "id": "K23_INTERVALS", "cases_checked": cases, "failures": failures,
            "passed": not failures, "notes": [],
        }
