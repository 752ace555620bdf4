"""Canonical labeling against brute force over all vertex permutations."""

import itertools
import random

import pytest

from sgchrom import _canon


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


CASES = [(seed, n) for n in range(0, 7) for seed in range(6)]


@pytest.mark.parametrize("seed,n", CASES)
def test_labelings_map_onto_code_and_code_is_invariant(seed, n):
    rng = random.Random(seed * 31 + n)
    pairs = random_pairs(rng, n)
    code, labs = _canon.canonical_form(n, pairs)
    assert labs
    for lab in labs:
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
        _, labs = _canon.canonical_form(n, g)
        canon = relabeled(g, min(labs))
        assert _canon.automorphisms(labs) == brute_automorphisms(n, canon)


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
