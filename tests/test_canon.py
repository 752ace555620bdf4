"""Canonical labeling against brute force over all vertex permutations, and
the pruned search against the full-leaf search it replaced."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgchrom import _canon
from sgchrom.campaigns import EnumSpec, _underlying_classes
from sgchrom.catalog import build

from conftest import closure


def random_pairs(rng: random.Random, n: int) -> dict:
    pairs = {}
    for p in itertools.combinations(range(n), 2):
        st = rng.randrange(3)
        if st:
            pairs[p] = st
    return pairs


def relabeled(pairs: dict, perm) -> dict:
    return {(min(perm[a], perm[b]), max(perm[a], perm[b])): st for (a, b), st in pairs.items()}


def code_of(n: int, pairs: dict) -> tuple:
    return tuple(pairs.get(p, 0) for p in itertools.combinations(range(n), 2))


def brute_automorphisms(n: int, pairs: dict) -> list:
    return sorted(perm for perm in itertools.permutations(range(n)) if relabeled(pairs, perm) == pairs)


def brute_isomorphic(n: int, g: dict, h: dict) -> bool:
    return any(relabeled(g, perm) == h for perm in itertools.permutations(range(n)))


# -- the full-leaf search that the pruned one replaced -------------------------


def full_refine(nbrs, colors):
    """Color refinement with the nested (color, ((c, st), ...)) signatures."""
    cells = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted((colors[u], st) for u, st in row)))
            for v, row in enumerate(nbrs)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if len(order) == cells:
            return new
        colors, cells = new, len(order)


def full_leaves(n: int, pairs: dict) -> list:
    """Every leaf (code, labeling old -> new) of the individualization
    tree, visiting every branch."""
    if n == 0:
        return [((), [])]
    adj = [[0] * n for _ in range(n)]
    for (a, b), st in pairs.items():
        adj[a][b] = adj[b][a] = st
    nbrs = [[(u, st) for u, st in enumerate(row) if st] for row in adj]
    leaves = []

    def descend(colors):
        colors = full_refine(nbrs, colors)
        cells = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            inv = [0] * n
            for old, new in enumerate(colors):
                inv[new] = old
            leaves.append((tuple(adj[inv[i]][inv[j]] for i in range(n) for j in range(i + 1, n)), colors))
            return
        for v in target:
            nxt = [2 * c for c in colors]
            nxt[v] -= 1
            descend(nxt)

    descend([0] * n)
    return leaves


def full_leaf_canonical_form(n: int, pairs: dict):
    """(code, labelings): the minimal leaf code and every labeling that
    achieves it."""
    leaves = full_leaves(n, pairs)
    best = min(code for code, _ in leaves)
    return best, [lab for code, lab in leaves if code == best]


def full_leaf_automorphisms(labs) -> list:
    """The canonical graph's group from every labeling achieving the code."""
    base = min(labs)
    inv_base = [0] * len(base)
    for old, new in enumerate(base):
        inv_base[new] = old
    return sorted({tuple(lab[old] for old in inv_base) for lab in labs})


def assert_matches_full_leaf(n: int, pairs: dict) -> int:
    """Equal code, a labeling onto it, and generators whose closure is the
    full-leaf group; returns the group order."""
    code, lab, gens = _canon.canonical_form(n, pairs)
    want_code, labs = full_leaf_canonical_form(n, pairs)
    assert code == want_code, pairs
    assert code_of(n, relabeled(pairs, lab)) == code
    assert closure(n, gens) == full_leaf_automorphisms(labs), pairs
    return len(labs)


def graph_pairs(g) -> dict:
    return {(min(a, b), max(a, b)): 1 for (a, b, _) in g.edges}


def cubic_graphs_on_8() -> list:
    return [
        pairs
        for size, reps in _underlying_classes(EnumSpec(n_max=8, connected=True, max_degree=3))
        if size == 8
        for pairs, _ in reps
        if len(pairs) == 12
    ]


# -- brute force ---------------------------------------------------------------

CASES = [(seed, n) for n in range(0, 7) for seed in range(6)]


@pytest.mark.parametrize("seed,n", CASES)
def test_labelings_map_onto_code_and_code_is_invariant(seed, n):
    rng = random.Random(seed * 31 + n)
    pairs = random_pairs(rng, n)
    code, lab, _ = _canon.canonical_form(n, pairs)
    assert sorted(lab) == list(range(n))
    assert code_of(n, relabeled(pairs, lab)) == code
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        assert _canon.canonical_form(n, relabeled(pairs, perm))[0] == code


@pytest.mark.parametrize("seed,n", CASES)
def test_automorphisms_are_all_state_preserving_permutations(seed, n):
    pairs = random_pairs(random.Random(seed * 17 + n), n)
    # Sparse graphs and a symmetric one, so large groups occur too.
    for g in (pairs, {p: st for p, st in pairs.items() if st == 1}, {p: 1 for p in itertools.combinations(range(n), 2)}):
        _, lab, gens = _canon.canonical_form(n, g)
        canon = relabeled(g, lab)
        group = brute_automorphisms(n, canon)
        assert set(gens) <= set(group)
        assert closure(n, gens) == group


@pytest.mark.parametrize("n", range(1, 6))
def test_equal_codes_iff_isomorphic(n):
    rng = random.Random(n)
    graphs = [random_pairs(rng, n) for _ in range(12)]
    # Add relabeled copies so that the iso side of the equivalence is hit.
    for g in graphs[:6]:
        perm = list(range(n))
        rng.shuffle(perm)
        graphs.append(relabeled(g, perm))
    codes = [_canon.canonical_form(n, g)[0] for g in graphs]
    for i, j in itertools.combinations(range(len(graphs)), 2):
        assert (codes[i] == codes[j]) == brute_isomorphic(n, graphs[i], graphs[j])


# -- the pruned search against the full-leaf search ----------------------------


@pytest.mark.parametrize("seed", range(10))
def test_refine_ranks_match_nested_signatures(seed, monkeypatch):
    """In every refinement that ``canonical_form`` runs, the flat
    signatures rank vertices as the nested (color, ((c, st), ...))
    tuples do, so the tree is unchanged."""
    real = _canon._refine
    calls = []

    def checking(nbrs, colors, scale):
        ranks, cells = real(nbrs, colors, scale)
        assert ranks == full_refine(nbrs, colors)
        assert cells == len(set(ranks))
        calls.append(cells)
        return ranks, cells

    monkeypatch.setattr(_canon, "_refine", checking)
    rng = random.Random(seed)
    for _ in range(100):
        n = rng.randrange(2, 10)
        _canon.canonical_form(n, random_pairs(rng, n))
    assert len(calls) > 100


def test_every_underlying_class_to_six_vertices_with_digons():
    checked = 0
    for size, reps in _underlying_classes(EnumSpec(n_max=6, allow_digons=True)):
        for pairs, _ in reps:
            assert_matches_full_leaf(size, pairs)
            checked += 1
    assert checked > 10000


def test_petersen():
    assert assert_matches_full_leaf(10, graph_pairs(build("PETERSEN").graph)) == 120


@pytest.mark.parametrize("n", range(0, 8))
def test_empty_and_complete_graphs(n):
    for pairs in ({}, {p: 1 for p in itertools.combinations(range(n), 2)}):
        assert assert_matches_full_leaf(n, pairs) == math.factorial(n)


def test_cubic_graphs_on_eight_vertices():
    """Three of the five have leaves of several codes, so a later leaf can
    match the best leaf below the first path."""
    graphs = cubic_graphs_on_8()
    assert len(graphs) == 5
    several = 0
    for pairs in graphs:
        assert_matches_full_leaf(8, pairs)
        several += len({code for code, _ in full_leaves(8, pairs)}) > 1
    assert several == 3


def test_best_leaf_match_below_the_first_path():
    """The complement of this cubic graph on 10 vertices (6-regular, a
    group of order 8) has a leaf that matches the best leaf where their
    paths part below the first path, and a better leaf after it in the
    same subtree: going back to the first path there misses that code."""
    cubic = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 7), (2, 4), (2, 8), (3, 5),
             (3, 6), (4, 5), (5, 9), (6, 7), (6, 8), (7, 9), (8, 9)]
    pairs = {p: 1 for p in itertools.combinations(range(10), 2) if p not in cubic}
    assert assert_matches_full_leaf(10, pairs) == 8


@st.composite
def regular_graphs(draw):
    """A random d-regular graph on 8..10 vertices (d = 3, 4, 5; n * d even),
    each edge in state 1 or 2: the pairing model, redrawn until simple."""
    d = draw(st.sampled_from([3, 4, 5]))
    n = draw(st.sampled_from([m for m in (8, 9, 10) if m * d % 2 == 0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    while True:
        points = [v for v in range(n) for _ in range(d)]
        rng.shuffle(points)
        edges = {(min(a, b), max(a, b)) for a, b in zip(points[::2], points[1::2]) if a != b}
        if len(edges) == n * d // 2:
            break
    return n, {p: draw(st.sampled_from([1, 2])) for p in sorted(edges)}


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(regular_graphs())
def test_random_regular_graphs(case):
    n, pairs = case
    assert_matches_full_leaf(n, pairs)


# -- work guards -----------------------------------------------------------------


@pytest.mark.parametrize(
    "n,pairs,calls",
    [
        (10, {}, 55),
        (10, graph_pairs(build("PETERSEN").graph), 15),
    ],
    ids=["empty-10", "petersen"],
)
def test_refine_calls(n, pairs, calls, monkeypatch):
    """Symmetry costs generators, not leaves: without pruning the empty
    graph on 10 vertices takes 10! leaves."""
    real = _canon._refine
    seen = []

    def counting(*args):
        seen.append(1)
        return real(*args)

    monkeypatch.setattr(_canon, "_refine", counting)
    _canon.canonical_form(n, pairs)
    assert len(seen) == calls
