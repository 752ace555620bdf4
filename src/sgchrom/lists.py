"""List coloring over the (10, 3) clique and exhaustive lemma campaigns.

Lists are 10-bit masks over the colors of the (10, 3) clique.  The
lemma verifiers cover their whole hypothesis spaces.  NEG_TRI_18
(86,493,225 list triples) and P3_SUM13 never materialise a triple: they
work on numpy grids of list pairs, with the third list folded into a
count.  K23_INTERVALS contracts its feasibility tensor with interval
membership.  Every failure NEG_TRI_18 would report is re-checked by a
plain reference loop, so its fast path never has the last word.

"Up to an isomorphism" for list patterns means the dihedral group of
the clique's color circle: 10 rotations times an optional reflection
(20 maps), together with permuting the vertices of the triangle.  That
group is exactly the set of color permutations preserving the signed
adjacency structure.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .clique import CliqueParams, color_from_label, label_from_color, neighbor_mask
from .core import NEG, POS, SignedMultigraph
from .solver import Homomorphism, find_sp_hom

P103 = CliqueParams(10, 3)
FULL = (1 << 10) - 1

def mask_of(colors: Iterable[int]) -> int:
    m = 0
    for c in colors:
        if not (0 <= c < 10):
            raise ValueError(f"color {c} out of range")
        m |= 1 << c
    return m


def mask_of_labels(labels: Iterable[int]) -> int:
    return mask_of(color_from_label(x) for x in labels)


def mask_to_labels(mask: int) -> list[int]:
    return [label_from_color(c) for c in range(10) if mask >> c & 1]


@dataclass(frozen=True)
class ListAssignment:
    """Per-vertex admissible color subsets, stored as 10-bit masks."""

    lists: tuple[int, ...]

    def __post_init__(self):
        for m in self.lists:
            if not (0 <= m <= FULL):
                raise ValueError("list mask out of range")

    @staticmethod
    def from_colors(sets: Sequence[Iterable[int]]) -> "ListAssignment":
        return ListAssignment(tuple(mask_of(s) for s in sets))

    @staticmethod
    def from_labels(sets: Sequence[Iterable[int]]) -> "ListAssignment":
        return ListAssignment(tuple(mask_of_labels(s) for s in sets))

    @property
    def f(self) -> tuple[int, ...]:
        return tuple(bin(m).count("1") for m in self.lists)


@dataclass(frozen=True)
class Interval:
    """Cyclic interval {start, start+1, ...} of the given length in Z_10."""

    start: int
    length: int

    def mask(self) -> int:
        return sum(1 << ((self.start + i) % 10) for i in range(self.length))


def is_interval(colors) -> Optional[Interval]:
    """Classify a color set as a cyclic interval; full and empty count."""
    mask = colors if isinstance(colors, int) else mask_of(colors)
    size = bin(mask).count("1")
    if size == 0:
        return Interval(0, 0)
    if size == 10:
        return Interval(0, 10)
    starts = [c for c in range(10) if (mask >> c & 1) and not (mask >> ((c - 1) % 10) & 1)]
    if len(starts) != 1:
        return None
    start = starts[0]
    if Interval(start, size).mask() == mask:
        return Interval(start, size)
    return None


# -- bit tables ---------------------------------------------------------------
#
# NEIGH, TRIANGLES, DIHEDRAL and the family orbits are plain tuples and
# sets, built at import.  The numpy tables NBR_POS, NBR_NEG, NBR, POPCNT,
# MASKS_BY_SIZE and BIPARTITE_NEG are built on first use by _load_tables,
# which also binds np: importing numpy costs more than the rest of the
# package together, and most processes run no numpy lemma.  The functions
# that callers reach directly and that read np or a numpy table call
# _load_tables at their start (verify_list_lemma, classify_neg_tri_exception,
# _c4_colorable, _third_colors, _neg_tri_family); once the tables are built
# it returns at once.  The module __getattr__ serves the tables to readers
# outside the module.


def _neighborhoods() -> dict[int, tuple[int, ...]]:
    return {s: tuple(neighbor_mask(P103, c, s) for c in range(10)) for s in (POS, NEG)}


NEIGH = _neighborhoods()

# The ten negative triangles of the clique: color triples with pairwise
# cyclic distance >= 3 are exactly the rotations of {0, 3, 6}.
TRIANGLES = tuple((x, (x + 3) % 10, (x + 6) % 10) for x in range(10))


# The numpy tables are built by plain list passes and converted once, so
# building them maps no numpy kernel but array conversion into the process
# (the first use of each kernel maps its code, about 0.5 MB in all).


def _unions(row: Sequence[int]) -> list[int]:
    """Per mask, the union of row[c] over its colors c: the entry of the
    mask without its lowest bit, plus that color's."""
    out = [0] * (1 << 10)
    for m in range(1, 1 << 10):
        low = m & -m
        out[m] = out[m ^ low] | row[low.bit_length() - 1]
    return out


def _masks_by_size() -> tuple[np.ndarray, ...]:
    by_size: list[list[int]] = [[] for _ in range(11)]
    for m, k in enumerate(POPCNT.tolist()):
        by_size[k].append(m)
    return tuple(np.array(ms, dtype=np.int64) for ms in by_size)


def _bipartite_neg() -> np.ndarray:
    """Per mask, is the graph of negative pairs inside the color set
    bipartite?  It is when the mask without its lowest color c is (an
    earlier entry) and c's component has no odd cycle.  That component
    is walked a whole negative neighborhood per step, keeping the colors
    reached from c by walks of even and of odd length apart; it has an
    odd cycle exactly when some color is reached both ways."""
    nbr = NBR_NEG.tolist()
    out = [True] * (1 << 10)
    for m in range(1, 1 << 10):
        low = m & -m
        if not out[m ^ low]:
            out[m] = False
            continue
        even, odd = low, 0
        while True:
            nxt_even, nxt_odd = even | nbr[odd] & m, odd | nbr[even] & m
            if nxt_even == even and nxt_odd == odd:
                break
            even, odd = nxt_even, nxt_odd
        out[m] = not even & odd
    return np.array(out, dtype=bool)


_TABLES = ("NBR_POS", "NBR_NEG", "NBR", "POPCNT", "MASKS_BY_SIZE", "BIPARTITE_NEG")
_tables_built = False


def _load_tables() -> None:
    """Import numpy and build the numpy tables, once per process.  They
    come from the clique itself, not from NEIGH, so a table does not
    depend on when it is first used."""
    global np, NBR_POS, NBR_NEG, NBR, POPCNT, MASKS_BY_SIZE, BIPARTITE_NEG, _tables_built
    if _tables_built:
        return
    import numpy as np

    neigh = _neighborhoods()
    # Per mask, the union of the sign-neighborhoods of its colors.
    NBR_POS = np.array(_unions(neigh[POS]), dtype=np.int64)
    NBR_NEG = np.array(_unions(neigh[NEG]), dtype=np.int64)
    NBR = {POS: NBR_POS, NEG: NBR_NEG}
    POPCNT = np.array([bin(m).count("1") for m in range(1 << 10)], dtype=np.int64)
    MASKS_BY_SIZE = _masks_by_size()
    BIPARTITE_NEG = _bipartite_neg()
    _tables_built = True


def __getattr__(name: str):
    if name in _TABLES:
        _load_tables()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _dihedral_maps() -> list[tuple[int, ...]]:
    maps = []
    for k in range(10):
        maps.append(tuple((i + k) % 10 for i in range(10)))
        maps.append(tuple((k - i) % 10 for i in range(10)))
    return maps


DIHEDRAL = _dihedral_maps()


def apply_color_map(mask: int, cmap: Sequence[int]) -> int:
    out = 0
    for c in range(10):
        if mask >> c & 1:
            out |= 1 << cmap[c]
    return out


# Exceptional families of the size-18 negative-triangle lemma.  Base
# patterns are given in +-[5] labels; orbits are taken under the
# dihedral group.
_FAM3_BIG = mask_of_labels([3, 4, 5, -1, -2, -3, -4])
_FAM3_SMALL = mask_of_labels([4, 5, -2, -3])
_FAM4_BIG = mask_of_labels([3, 4, 5, -1, -2, -3, -4, -5])
_FAM4_SMALL = mask_of_labels([5, -3])


def _orbit_pairs(big: int, small: int) -> frozenset[tuple[int, int]]:
    return frozenset(
        (apply_color_map(big, g), apply_color_map(small, g)) for g in DIHEDRAL
    )


FAM3_ORBIT = _orbit_pairs(_FAM3_BIG, _FAM3_SMALL)
FAM4_ORBIT = _orbit_pairs(_FAM4_BIG, _FAM4_SMALL)


def neg_triangle_colorable(lu: int, lv: int, lw: int) -> bool:
    """Plain-loop reference check: can (u, v, w) be mapped onto a negative
    triangle with colors drawn from the three lists?"""
    for tri in TRIANGLES:
        for (a, b, c) in itertools.permutations(tri):
            if (lu >> a & 1) and (lv >> b & 1) and (lw >> c & 1):
                return True
    return False


def classify_neg_tri_exception(lu: int, lv: int, lw: int) -> Optional[int]:
    """Match a size-18 list triple against the four exceptional families,
    modulo the dihedral color maps and permutation of the vertices."""
    sizes = sorted(bin(m).count("1") for m in (lu, lv, lw))
    if sum(sizes) != 18:
        raise ValueError("family classification expects list sizes summing to 18")
    _load_tables()
    if sizes[0] == 0:
        return 1
    if lu == lv == lw and BIPARTITE_NEG[lu]:
        return 2
    for (orbit, tag, big_size) in ((FAM3_ORBIT, 3, 7), (FAM4_ORBIT, 4, 8)):
        if sizes == sorted((big_size, big_size, 18 - 2 * big_size)):
            for (a, b, c) in itertools.permutations((lu, lv, lw)):
                if a == b and (a, c) in orbit:
                    return tag
    return None


# -- list coloring ---------------------------------------------------------


def list_colorable(g: SignedMultigraph, lists: ListAssignment) -> Optional[Homomorphism]:
    """A homomorphism into the (10, 3) clique with h(v) in L(v), or None.

    Complete search (delegates to the solver with restricted domains);
    an empty list simply yields None.
    """
    if len(lists.lists) != g.n:
        raise ValueError("need one list per vertex")
    return find_sp_hom(g, P103, domains=lists.lists)


def residual_list(g: SignedMultigraph, partial: dict[int, int], v: int) -> frozenset[int]:
    """Colors still available at v given a partial coloring of neighbors:
    the intersection over colored neighbors u of the sign-appropriate
    neighborhood of their colors.  Full color set if none are colored."""
    if v in partial:
        raise ValueError(f"vertex {v} is already colored")
    mask = FULL
    for (a, b, s) in g.edges:
        if a == v and b in partial:
            mask &= NEIGH[s][partial[b]]
        elif b == v and a in partial:
            mask &= NEIGH[s][partial[a]]
    return frozenset(c for c in range(10) if mask >> c & 1)


# -- lemma reports ----------------------------------------------------------


@dataclass
class LemmaReport:
    id: str
    cases_checked: int
    failures: list = field(default_factory=list)
    elapsed_s: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "cases_checked": self.cases_checked,
            "failures": self.failures,
            "passed": self.passed,
            "elapsed_s": round(self.elapsed_s, 3),
            "notes": self.notes,
        }


def _fail_labels(**kwargs) -> dict:
    """Failure record with lists rendered as +-[5] labels for reading."""
    out = {}
    for key, val in kwargs.items():
        if key.startswith("L"):
            out[key] = mask_to_labels(val)
        else:
            out[key] = val
    return out


def _verify_obs_k2() -> LemmaReport:
    rep = LemmaReport("OBS_K2", 0)
    for c in range(10):
        for s in (POS, NEG):
            rep.cases_checked += 1
            mask = NEIGH[s][c]
            iv = is_interval(mask)
            comp = FULL ^ mask
            if iv is None or iv.length != 5 or is_interval(comp) is None or POPCNT[comp] != 5:
                rep.failures.append(_fail_labels(color=c, sign=s, L=mask))
    return rep


def _verify_tri_pos() -> LemmaReport:
    # Positive triangle with two colored corners: the middle list is a
    # cyclic interval of 3, 4 or 5 colors (5 - distance of the corners).
    rep = LemmaReport("TRI_POS", 0)
    for cu in range(10):
        for cw in range(10):
            rep.cases_checked += 1
            if not (NEIGH[POS][cu] >> cw & 1):
                continue  # illegal pair on the positive uw edge
            res = NEIGH[POS][cu] & NEIGH[POS][cw]
            iv = is_interval(res)
            if iv is None or iv.length not in (3, 4, 5):
                rep.failures.append(_fail_labels(cu=cu, cw=cw, L=res))
    return rep


def _verify_dist_i() -> LemmaReport:
    rep = LemmaReport("DIST_I", 0)
    for x in range(10):
        for y in range(10):
            d = min((x - y) % 10, (y - x) % 10)
            if d == 0:
                continue
            for s in (POS, NEG):
                rep.cases_checked += 1
                union = NEIGH[s][x] | NEIGH[s][y]
                if POPCNT[union] != 5 + d:
                    rep.failures.append(_fail_labels(x=x, y=y, sign=s, size=int(POPCNT[union])))
    return rep


def _verify_union_x4() -> LemmaReport:
    rep = LemmaReport("UNION_X4", 0)
    for sign, table in ((POS, NBR_POS), (NEG, NBR_NEG)):
        sizes = POPCNT[table[1:]]
        bound = np.minimum(10, POPCNT[np.arange(1, 1 << 10)] + 4)
        rep.cases_checked += (1 << 10) - 1
        bad = np.nonzero(sizes < bound)[0]
        for idx in bad:
            rep.failures.append(_fail_labels(sign=sign, L=int(idx + 1), size=int(sizes[idx])))
    return rep


def _verify_k2_sum7() -> LemmaReport:
    # Single edge, list sizes >= 1 summing to exactly 7: always colorable.
    # Sizes above the boundary follow by monotonicity (enlarging a list
    # never hurts); that step is spot-checked in the test suite.
    rep = LemmaReport("K2_SUM7", 0)
    rep.notes.append("boundary f(u)+f(v)=7 only; >= 7 follows by monotonicity")
    for a in range(1, 7):
        lu = MASKS_BY_SIZE[a]
        lv = MASKS_BY_SIZE[7 - a]
        for sign, table in ((POS, NBR_POS), (NEG, NBR_NEG)):
            reach = table[lu]  # colors of v compatible with something in L(u)
            ok = (reach[:, None] & lv[None, :]) != 0
            rep.cases_checked += ok.size
            if not ok.all():
                for i, j in zip(*np.nonzero(~ok)):
                    rep.failures.append(
                        _fail_labels(sign=sign, Lu=int(lu[i]), Lv=int(lv[j]))
                    )
    return rep


def _verify_p3_sum13() -> LemmaReport:
    # Path v1 v2 v3; sizes f1+f2, f2+f3 >= 7, all >= 1, total exactly 13.
    # For fixed end lists, every middle list of size b works iff the set
    # of middle colors compatible with both ends has more than 10 - b
    # elements; this folds the middle-list loop into a popcount bound.
    rep = LemmaReport("P3_SUM13", 0)
    rep.notes.append("boundary f1+f2+f3=13 only; >= follows by monotonicity")
    for a in range(1, 7):
        for c in range(1, 7):
            b = 13 - a - c
            if not (1 <= b <= 10):
                continue
            l1 = MASKS_BY_SIZE[a]
            l3 = MASKS_BY_SIZE[c]
            n_mid = len(MASKS_BY_SIZE[b])
            for s1 in (POS, NEG):
                for s2 in (POS, NEG):
                    reach1 = NBR[s1][l1]
                    reach3 = NBR[s2][l3]
                    meet = POPCNT[reach1[:, None] & reach3[None, :]]
                    ok = meet >= 11 - b
                    rep.cases_checked += ok.size * n_mid
                    if not ok.all():
                        for i, j in zip(*np.nonzero(~ok)):
                            bad_mid = FULL ^ int(reach1[i] & reach3[j])
                            witness = 0
                            for _ in range(b):
                                bit = bad_mid & -bad_mid
                                witness |= bit
                                bad_mid ^= bit
                            rep.failures.append(
                                _fail_labels(
                                    s1=s1, s2=s2,
                                    L1=int(l1[i]), L2=witness, L3=int(l3[j]),
                                )
                            )
    return rep


def _c4_colorable(l1: int, l2: int, l3: int, l4: int) -> bool:
    """4-cycle v1 v2 v3 v4 with v3 v4 positive and the rest negative."""
    _load_tables()
    for c4 in range(10):
        if not (l4 >> c4 & 1):
            continue
        m1 = l1 & NEIGH[NEG][c4]
        m3 = l3 & NEIGH[POS][c4]
        if not m1 or not m3:
            continue
        mid = l2 & int(NBR_NEG[m1]) & int(NBR_NEG[m3])
        if mid:
            return True
    return False


def _verify_c4_7755() -> LemmaReport:
    rep = LemmaReport("C4_7755", 0)
    ivals7 = [Interval(s, 7).mask() for s in range(10)]
    ivals5 = [Interval(s, 5).mask() for s in range(10)]
    for l1 in ivals7:
        for l2 in ivals7:
            for l3 in ivals5:
                for l4 in ivals5:
                    rep.cases_checked += 1
                    if not _c4_colorable(l1, l2, l3, l4):
                        rep.failures.append(_fail_labels(L1=l1, L2=l2, L3=l3, L4=l4))
    return rep


def _verify_k23_intervals() -> LemmaReport:
    # K_{2,3}: u, v with full lists; x1, x2, x3 with 5-interval lists;
    # all 64 sign patterns (u's three signs, then v's).  ok[p, c1, c2, c3]
    # says u and v both find a color next to x-colors (c1, c2, c3);
    # contracting each color axis with interval membership counts the
    # feasible color triples inside every choice of intervals at once.
    rep = LemmaReport("K23_INTERVALS", 0)
    patterns = list(itertools.product((POS, NEG), repeat=3))
    nbr = {s: np.array(NEIGH[s], dtype=np.int64) for s in (POS, NEG)}
    one_side = np.stack(
        [
            (nbr[s1][:, None, None] & nbr[s2][None, :, None] & nbr[s3][None, None, :]) != 0
            for (s1, s2, s3) in patterns
        ]
    )
    ok = (one_side[:, None] & one_side[None, :]).reshape((64,) + one_side.shape[1:])
    ival5 = [Interval(s, 5).mask() for s in range(10)]
    member = np.array([[m >> c & 1 for c in range(10)] for m in ival5], dtype=np.int64)
    res = ok.astype(np.int64)
    for _ in range(3):  # each contraction moves the next color axis last
        res = np.tensordot(res, member, axes=(1, 1))
    rep.cases_checked = res.size
    for p, a1, a2, a3 in zip(*np.nonzero(res == 0)):
        rep.failures.append(
            _fail_labels(
                signs_u=patterns[p // 8], signs_v=patterns[p % 8],
                L1=ival5[a1], L2=ival5[a2], L3=ival5[a3],
            )
        )
    return rep


def _verify_two_vertex() -> LemmaReport:
    # Path x - v - y with x, y colored: the middle vertex has no color
    # exactly when the end colors are antipodal with equal edge signs,
    # or equal with opposite edge signs.
    rep = LemmaReport("TWO_VERTEX", 0)
    for cx in range(10):
        for cy in range(10):
            for s1 in (POS, NEG):
                for s2 in (POS, NEG):
                    rep.cases_checked += 1
                    extends = bool(NEIGH[s1][cx] & NEIGH[s2][cy])
                    antipodal = (cx + 5) % 10 == cy
                    expected_blocked = (antipodal and s1 == s2) or (cx == cy and s1 != s2)
                    if extends == expected_blocked:
                        rep.failures.append(
                            _fail_labels(cx=cx, cy=cy, s1=s1, s2=s2, extends=extends)
                        )
    return rep


def _third_colors() -> np.ndarray:
    """third[x, v]: the colors z for which (x, y, z) is an ordered
    transversal of a negative triangle, for some color y in the mask v."""
    _load_tables()
    rows = []
    for x in range(10):
        row = [0] * 10  # row[y]: the third colors of the triangles on x and y
        for tri in TRIANGLES:
            if x in tri:
                for y, z in itertools.permutations(set(tri) - {x}):
                    row[y] |= 1 << z
        rows.append(_unions(row))
    return np.array(rows, dtype=np.int64)


def _third_list_reach(third: np.ndarray, lu: np.ndarray, lv: np.ndarray) -> np.ndarray:
    """reach[i, j]: the colors z for which (x, y, z) is an ordered
    transversal of a negative triangle, for some x in lu[i] and y in
    lv[j]; the union of third[x, lv[j]] over the colors x of lu[i]."""
    reach = np.zeros((len(lu), len(lv)), dtype=np.int64)
    for x in range(10):
        reach |= -(lu[:, None] >> x & 1) & third[x, lv]  # -1: every bit
    return reach


def _neg_tri_family(a: int, b: int, c: int) -> list[tuple[int, int, int]]:
    """The family triples (lu, lv, lw) with list sizes (a, b, c)."""
    _load_tables()
    if 0 in (a, b, c):  # family (1)
        return list(itertools.product(*(MASKS_BY_SIZE[k].tolist() for k in (a, b, c))))
    if (a, b, c) == (6, 6, 6):  # family (2)
        return [(m, m, m) for m in MASKS_BY_SIZE[6].tolist() if BIPARTITE_NEG[m]]
    for orbit, big, small in ((FAM3_ORBIT, 7, 4), (FAM4_ORBIT, 8, 2)):  # (3), (4)
        if sorted((a, b, c)) == sorted((big, big, small)):
            at = (a, b, c).index(small)
            return [tuple(sm if i == at else bm for i in range(3)) for (bm, sm) in orbit]
    return []


def _verify_neg_tri_18(max_witnesses: int = 50) -> LemmaReport:
    """Negative triangle, list sizes summing to 18: non-colorable exactly
    for the four exceptional families.

    Both directions are checked over all C(30, 18) = 86,493,225 list
    triples, one size block (a, b, c) at a time, on the grid of list
    pairs (lu, lv): the third list is folded into a count.  A list lw
    colors the triangle exactly when it meets reach(lu, lv), the colors
    z with (x, y, z) on a negative triangle for some x in lu and y in
    lv, so the cell holds exactly C(10 - |reach|, c) non-colorable lists
    lw: the c-subsets of the complement.  A cell passes when its family
    triples all miss reach and are that many; then they are exactly its
    non-colorable triples.  That is set equality on every triple, so the
    check stays exhaustive.  Only a failing cell evaluates its lists lw,
    in (lu, lv, lw) order, and every counterexample found there is
    re-checked with the reference loop before being reported.  A
    truncated report counts the cases of every block it decided.
    """
    rep = LemmaReport("NEG_TRI_18", 0)
    rep.notes.append("isomorphism group: dihedral (10 rotations x reflection)")
    third = _third_colors()
    for a in range(11):
        for b in range(11):
            c = 18 - a - b
            if not (0 <= c <= 10):
                continue
            A, B, C = MASKS_BY_SIZE[a], MASKS_BY_SIZE[b], MASKS_BY_SIZE[c]
            rep.cases_checked += len(A) * len(B) * len(C)
            reach = _third_list_reach(third, A, B)
            n_noncolorable = np.array([math.comb(k, c) for k in range(11)])[10 - POPCNT[reach]]
            fam = np.array(_neg_tri_family(a, b, c), dtype=np.int64).reshape(-1, 3)
            cell = np.searchsorted(A, fam[:, 0]) * len(B) + np.searchsorted(B, fam[:, 1])
            missed = (fam[:, 2] & reach.ravel()[cell]) == 0
            n_fam = np.bincount(cell, minlength=reach.size).reshape(reach.shape)
            n_fam_missed = np.bincount(cell[missed], minlength=reach.size).reshape(reach.shape)
            bad_cells = (n_noncolorable != n_fam) | (n_fam_missed != n_fam)
            for i, j in zip(*np.nonzero(bad_cells)):
                colorable = (C & reach[i, j]) != 0
                family = np.isin(C, fam[cell == i * len(B) + j, 2])
                for k in np.nonzero(colorable == family)[0]:  # either direction failing
                    triple = (int(A[i]), int(B[j]), int(C[k]))
                    truly = neg_triangle_colorable(*triple)
                    fam_tag = classify_neg_tri_exception(*triple)
                    if truly == (fam_tag is not None):
                        direction = (
                            "non-colorable without family"
                            if not truly
                            else "colorable but matches family"
                        )
                        rep.failures.append(
                            _fail_labels(
                                direction=direction,
                                Lu=triple[0], Lv=triple[1], Lw=triple[2],
                                family=fam_tag,
                            )
                        )
                        if len(rep.failures) >= max_witnesses:
                            rep.notes.append("witness list truncated")
                            return rep
    return rep


_LEMMA_VERIFIERS = {
    "OBS_K2": _verify_obs_k2,
    "TRI_POS": _verify_tri_pos,
    "DIST_I": _verify_dist_i,
    "UNION_X4": _verify_union_x4,
    "K2_SUM7": _verify_k2_sum7,
    "P3_SUM13": _verify_p3_sum13,
    "C4_7755": _verify_c4_7755,
    "K23_INTERVALS": _verify_k23_intervals,
    "NEG_TRI_18": _verify_neg_tri_18,
    "TWO_VERTEX": _verify_two_vertex,
}
LEMMA_IDS = tuple(_LEMMA_VERIFIERS)


def verify_list_lemma(lemma_id: str) -> LemmaReport:
    """Exhaustively check one list lemma; the report's failure list is
    empty iff the lemma held over its whole hypothesis space.

    ``elapsed_s`` times the whole call: when the numpy tables are not
    built yet, it includes importing numpy and building them."""
    if lemma_id not in _LEMMA_VERIFIERS:
        raise KeyError(f"unknown lemma id {lemma_id!r}; known: {', '.join(LEMMA_IDS)}")
    t0 = time.monotonic()
    _load_tables()
    rep = _LEMMA_VERIFIERS[lemma_id]()
    rep.elapsed_s = time.monotonic() - t0
    return rep
