import heapq
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sgchrom.campaigns import EnumSpec, enumerate_signed
from sgchrom.catalog import apply_indicator, build, hajos_graph, negative_cycle
from sgchrom.catalog import names as catalog_names
from sgchrom.clique import CliqueParams, antipode, neighbor_mask
import sgchrom
from sgchrom import solver
from sgchrom.core import NEG, POS, SignedMultigraph, components, make_graph, relabel, switch
from sgchrom.solver import (
    CeilingExhausted,
    EnumerationTruncated,
    Homomorphism,
    NegativeLoopError,
    SearchDeadlineExceeded,
    candidate_params,
    chi_c,
    enumerate_homs,
    find_sp_hom,
    is_colorable,
    verify_hom,
)

from conftest import oracle_colorable, oracle_count_homs, random_signed_graph

P103 = CliqueParams(10, 3)


def negative_complete(n):
    """K_n with every edge negative: its chi_c is the circular chromatic
    number of K_n, which is n."""
    return make_graph(n, [(u, v, NEG) for u in range(n) for v in range(u + 1, n)])


def small_classes(n_max=4, allow_digons=True):
    return list(enumerate_signed(EnumSpec(n_max=n_max, allow_digons=allow_digons)))


class TestVerifyHom:
    def test_h1_golden(self):
        ng = build("H1")
        assert verify_hom(ng.graph, ng.golden_coloring())

    def test_cube_golden(self):
        ng = build("CUBE_NEG")
        assert verify_hom(ng.graph, ng.golden_coloring())

    def test_positive_loop_via_equal_colors(self):
        g = make_graph(2, [(0, 1, POS)])
        assert verify_hom(g, Homomorphism(P103, (0, 0)))

    def test_rejects_bad_edge(self):
        g = make_graph(2, [(0, 1, NEG)])
        assert not verify_hom(g, Homomorphism(P103, (0, 1)))

    def test_rejects_wrong_length_or_range(self):
        g = make_graph(2, [(0, 1, NEG)])
        assert not verify_hom(g, Homomorphism(P103, (0,)))
        assert not verify_hom(g, Homomorphism(P103, (0, 11)))


class TestFindHom:
    def test_k4_minus_at_10_3_none(self):
        assert find_sp_hom(build("K4_MINUS").graph, P103) is None

    def test_k4_minus_at_8_2_found(self):
        g = build("K4_MINUS").graph
        h = find_sp_hom(g, (8, 2))
        assert h is not None and verify_hom(g, h)

    def test_t_hits_all_antipodal_classes(self):
        g = build("T").graph
        h = find_sp_hom(g, P103)
        classes = {min(c, antipode(P103, c)) for c in h.assignment}
        assert len(classes) == 5

    def test_negative_loop_rejected(self):
        with pytest.raises(NegativeLoopError):
            find_sp_hom(make_graph(1, [(0, 0, NEG)]), P103)

    def test_witnesses_always_verify(self):
        rng = random.Random(41)
        for _ in range(300):
            g = random_signed_graph(rng, n_max=5, allow_digons=True)
            h = find_sp_hom(g, (10, 3))
            if h is not None:
                assert verify_hom(g, h)


class TestEnumerateHoms:
    def test_single_vertex(self):
        homs = list(enumerate_homs(SignedMultigraph(1, ()), P103))
        assert len(homs) == 10

    def test_digon_empty(self):
        assert list(enumerate_homs(build("DIGON").graph, P103)) == []

    def test_t_all_surjective_on_classes(self):
        g = build("T").graph
        homs = list(enumerate_homs(g, P103))
        assert len(homs) == 40
        for h in homs:
            assert verify_hom(g, h)
            classes = {min(c, antipode(P103, c)) for c in h.assignment}
            assert len(classes) == 5

    def test_counts_match_oracle(self):
        # Every class with at most four vertices, digons included: the
        # backjumping search misses no coloring and repeats none.
        for g in small_classes(4):
            for (p, q) in ((6, 2), (8, 3), (10, 3)):
                homs = [h.assignment for h in enumerate_homs(g, (p, q))]
                assert homs == sorted(set(homs)), (g, p, q)
                assert len(homs) == oracle_count_homs(g, p, q), (g, p, q)

    def test_no_duplicates_lexicographic(self):
        g = build("T").graph
        homs = [h.assignment for h in enumerate_homs(g, P103)]
        assert homs == sorted(set(homs))

    def test_cap_truncation(self):
        g = SignedMultigraph(3, ())
        with pytest.raises(EnumerationTruncated):
            list(enumerate_homs(g, P103, cap=5))
        assert len(list(enumerate_homs(g, P103, cap=2000))) == 1000


class TestLongPath:
    """No recursion limit: search state is kept per depth, not per call."""

    N = 3000
    PATH = make_graph(N, [(v, v + 1, NEG if v % 3 else POS) for v in range(N - 1)])

    def test_find_sp_hom(self):
        h = find_sp_hom(self.PATH, P103)
        assert h is not None and verify_hom(self.PATH, h)

    def test_first_enumerated_hom(self):
        assert verify_hom(self.PATH, next(enumerate_homs(self.PATH, P103)))

    def test_chi_c(self):
        assert chi_c(self.PATH).value == Fraction(2)


class TestIsColorable:
    def test_c5_minus(self):
        # chi_c of the unbalanced 5-cycle is 5/2, so anything of value
        # >= 5/2 works and anything below does not.
        c5 = negative_cycle(5)
        assert is_colorable(c5, (10, 4))
        assert is_colorable(c5, (6, 2))
        assert not is_colorable(c5, (12, 5))
        assert not is_colorable(c5, (4, 2))

    def test_balanced_k3_at_4_2(self):
        g = make_graph(3, [(0, 1, POS), (0, 2, POS), (1, 2, POS)])
        assert is_colorable(g, (4, 2))

    def test_petersen_at_10_3(self):
        assert is_colorable(build("PETERSEN").graph, P103)


def reference_candidate_params(q_max, ceiling):
    """The eager rule candidate_params replaced: every even p per q, the
    least p kept per value, sorted by value."""
    best = {}
    for q in range(1, q_max + 1):
        p = 2 * q
        while Fraction(p, q) <= ceiling:
            val = Fraction(p, q)
            if val not in best or p < best[val].p:
                best[val] = CliqueParams(p, q)
            p += 2
    return [best[v] for v in sorted(best)]


class TestCandidateParams:
    def test_matches_eager_rule(self):
        ceilings = {Fraction(a, b) for a in range(31) for b in range(1, 6) if a <= 6 * b}
        for q_max in range(16):
            for ceiling in sorted(ceilings):
                got = list(candidate_params(q_max, ceiling))
                assert got == reference_candidate_params(q_max, ceiling), (q_max, ceiling)

    def test_matches_eager_rule_at_large_q_max(self):
        # Values with denominators up to 900 lie as close as 1/900**2.
        for q_max, ceiling in ((200, Fraction(5, 2)), (900, Fraction(21, 10))):
            assert list(candidate_params(q_max, ceiling)) == reference_candidate_params(q_max, ceiling)

    def test_lazy(self):
        # The first candidate comes without building the other ~250,000.
        assert next(candidate_params(900, Fraction(4))) == CliqueParams(2, 1)

    def test_increasing_and_unique(self):
        cands = candidate_params(10, Fraction(4))
        values = [Fraction(c.p, c.q) for c in cands]
        assert values == sorted(values)
        assert len(values) == len(set(values))

    def test_minimal_even_representative(self):
        cands = {Fraction(c.p, c.q): c for c in candidate_params(10, Fraction(4))}
        assert (cands[Fraction(5, 2)].p, cands[Fraction(5, 2)].q) == (10, 4)
        assert (cands[Fraction(10, 3)].p, cands[Fraction(10, 3)].q) == (10, 3)
        assert (cands[Fraction(2, 1)].p, cands[Fraction(2, 1)].q) == (2, 1)

    def test_odd_numerator_needs_doubled_denominator(self):
        values = {Fraction(c.p, c.q) for c in candidate_params(5, Fraction(4))}
        assert Fraction(5, 2) in values     # via (10, 4), q = 4 <= 5
        assert Fraction(22, 7) not in values  # q = 7 > 5
        assert Fraction(11, 5) not in values  # needs q = 10 > 5


class TestChiC:
    def test_named_values(self):
        assert chi_c(build("K4_MINUS").graph).value == Fraction(4)
        assert chi_c(build("DIGON").graph).value == Fraction(4)
        assert chi_c(build("T").graph).value == Fraction(10, 3)

    def test_negative_cycle_formula(self):
        assert chi_c(negative_cycle(4)).value == Fraction(8, 3)
        res5 = chi_c(negative_cycle(5))
        assert res5.value == Fraction(5, 2)
        assert (res5.params.p, res5.params.q) == (10, 4)

    def test_witness_and_rejections_reported(self):
        res = chi_c(build("T").graph)
        assert verify_hom(build("T").graph, res.witness)
        assert (6, 2) in {(c.p, c.q) for c in res.rejected}
        assert res.q_max == 5

    def test_balanced_graphs_are_two(self):
        rng = random.Random(47)
        for _ in range(50):
            n = rng.randint(1, 6)
            edges = [
                (u, v, POS) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
            ]
            g = switch(make_graph(n, edges), {v for v in range(n) if rng.random() < 0.5})
            assert chi_c(g).value == Fraction(2)

    def test_switching_invariance(self):
        rng = random.Random(53)
        for _ in range(25):
            g = random_signed_graph(rng, n_max=5)
            xs = {v for v in range(g.n) if rng.random() < 0.5}
            assert chi_c(g).value == chi_c(switch(g, xs)).value

    def test_negative_loop_and_empty_errors(self):
        with pytest.raises(NegativeLoopError):
            chi_c(make_graph(1, [(0, 0, NEG)]))
        with pytest.raises(ValueError):
            chi_c(SignedMultigraph(0, ()))

    def test_ceiling_exhausted(self):
        with pytest.raises(CeilingExhausted):
            chi_c(build("DIGON").graph, ceiling=Fraction(3))

    @pytest.mark.parametrize("q_max", [0, -1])
    def test_q_max_below_one_rejected(self, q_max):
        with pytest.raises(ValueError, match="q_max"):
            chi_c(build("DIGON").graph, q_max)

    def test_deadline(self):
        # Without a deadline this takes ~2 s (2-core Xeon): its UNSAT
        # proofs below 9 stay on FC-CBJ, since for p >= 8 eliminating K9
        # needs grids of p**7 > 2**20 cells.
        with pytest.raises(SearchDeadlineExceeded):
            chi_c(negative_complete(9), q_max=3, deadline_s=0.05)


class TestOracleEquivalence:
    def test_solver_agrees_with_product_sweep_n4(self):
        # Acceptance criterion: zero disagreements over all classes with
        # n <= 4 and all parameters with p <= 10.
        params = [(p, q) for p in range(2, 11, 2) for q in range(1, p // 2 + 1)]
        checked = 0
        for g in small_classes(4):
            for (p, q) in params:
                assert is_colorable(g, (p, q)) == oracle_colorable(g, p, q), (g, p, q)
                checked += 1
        assert checked >= 1000

    def test_completeness_n5_p12_exhaustive(self):
        # Full desk-scale completeness sweep: every class with at most 5
        # vertices against every parameter pair with p <= 12.
        import numpy as np

        from conftest import oracle_sign_tensors

        tensors = {}
        params = [(p, q) for p in range(2, 13, 2) for q in range(1, p // 2 + 1)]
        for (p, q) in params:
            tensors[(p, q)] = oracle_sign_tensors(p, q)

        def oracle(g, p, q):
            if g.has_negative_loop:
                return False
            ok = tensors[(p, q)]
            feasible = np.ones((p,) * g.n, dtype=bool)
            for (u, v, s) in g.edges:
                shape_u = [1] * g.n
                shape_u[u] = p
                shape_v = [1] * g.n
                shape_v[v] = p
                iu = np.arange(p).reshape(shape_u)
                iv = np.arange(p).reshape(shape_v)
                feasible &= ok[s][iu, iv]
            return bool(feasible.any())

        for g in small_classes(5):
            for (p, q) in params:
                assert is_colorable(g, (p, q)) == oracle(g, p, q), (g, p, q)

    def test_fraction_monotonicity_n4(self):
        params = [(p, q) for p in range(2, 13, 2) for q in range(1, p // 2 + 1)]
        values = sorted({Fraction(p, q) for (p, q) in params})
        by_value = {
            v: min(((p, q) for (p, q) in params if Fraction(p, q) == v))
            for v in values
        }
        for g in small_classes(4):
            feasible = [is_colorable(g, by_value[v]) for v in values]
            first_true = next((i for i, f in enumerate(feasible) if f), len(values))
            assert all(feasible[first_true:]), g


def reference_pair_tables(g, pr):
    """The per-color rule _pair_tables replaced: AND in neighbor_mask for
    every color of every edge direction."""
    full = (1 << pr.p) - 1
    tables = {}
    for (u, v, s) in g.edges:
        if u == v:
            continue
        for (a, b) in ((u, v), (v, u)):
            tab = tables.get((a, b))
            if tab is None:
                tab = [full] * pr.p
                tables[(a, b)] = tab
            for c in range(pr.p):
                tab[c] &= neighbor_mask(pr, c, s)
    return tables


def reference_static_order(g, vertices):
    """The per-step recount _static_order replaced."""
    deg = {v: g.degree(v) for v in vertices}
    nbrs = {v: [u for u in g.neighbors(v) if u in deg] for v in vertices}
    order, placed, rest = [], set(), set(vertices)
    while rest:
        best = max(rest, key=lambda v: (sum(1 for u in nbrs[v] if u in placed), deg[v], -v))
        order.append(best)
        placed.add(best)
        rest.discard(best)
    return order


def density_deletions():
    big = apply_indicator(hajos_graph(1))
    return [SignedMultigraph(big.n, big.edges[:i] + big.edges[i + 1 :]) for i in range(big.m)]


def disjoint_union(*graphs):
    edges, n = [], 0
    for g in graphs:
        edges += [(a + n, b + n, s) for (a, b, s) in g.edges]
        n += g.n
    return SignedMultigraph(n, tuple(edges))


class TestSetUp:
    """_pair_tables and _static_order against the rules they replaced:
    same values and the same key order, which _search, _plan and
    _eliminate iterate."""

    # The catalog, a digon, a same-sign parallel pair and a positive loop.
    GRAPHS = [build(nm).graph for nm in catalog_names()] + [
        make_graph(2, [(0, 1, POS), (0, 1, NEG)]),
        make_graph(3, [(0, 1, NEG), (1, 2, POS), (2, 1, POS)]),
        make_graph(3, [(0, 1, NEG), (1, 2, POS), (2, 2, POS)]),
    ]

    def test_pair_tables_match_per_color_rule(self):
        for pq in ((6, 2), (10, 3), (16, 5), (28, 9)):
            pr = CliqueParams(*pq)
            for g in self.GRAPHS:
                got = solver._pair_tables(g, pr)
                want = reference_pair_tables(g, pr)
                assert list(got) == list(want), (g, pq)
                assert {k: list(t) for k, t in got.items()} == want, (g, pq)

    def test_static_order_matches_recount(self):
        # The whole-graph order is the recount's, and it splits at its
        # roots into one run per component: that component's own order.
        named = [build(nm).graph for nm in catalog_names()]
        graphs = small_classes(5) + self.GRAPHS + [disjoint_union(*named), disjoint_union(*named[::-1])]
        graphs += density_deletions() + [apply_indicator(hajos_graph(5))]
        for g in graphs:
            order, roots = solver._static_order(g.edges, g.n)
            assert order == reference_static_order(g, range(g.n))
            heads = [order.index(r) for r in roots]
            assert heads == sorted(heads) and heads[:1] == [0]
            runs = [order[a:b] for a, b in zip(heads, heads[1:] + [g.n])]
            comps = components(g.n, ((u, v) for (u, v, _) in g.edges))
            assert sorted(map(sorted, runs)) == sorted(map(sorted, comps))
            for run in runs:
                assert run == reference_static_order(g, run)


def reference_find_sp_hom(g, pr):
    """find_sp_hom's pinned path one component at a time: each search sees
    its component's recount order and pair tables only."""
    tables = solver._pair_tables(g, pr)
    doms = [(1 << pr.p) - 1] * g.n
    result = [0] * g.n
    elim_p = pr.p if pr.p <= solver._MAX_ELIMINATION_P else None
    for comp in components(g.n, ((u, v) for (u, v, _) in g.edges)):
        order = reference_static_order(g, comp)
        comp_tables = {(a, b): tab for (a, b), tab in tables.items() if a in comp}
        doms[order[0]] = 1
        sol = next(solver._search(order, doms, comp_tables, solver._Deadline(None), elim_p), None)
        if sol is None:
            return None
        for v, c in zip(order, sol):
            result[v] = c
    return Homomorphism(pr, tuple(result))


MATCHING = SignedMultigraph(3000, tuple((2 * i, 2 * i + 1, (POS, NEG)[i % 2]) for i in range(1500)))


class TestComponentSetUp:
    """find_sp_hom runs one search over all components, with the witness
    of one search per component."""

    def test_witnesses_match_whole_graph_set_up(self):
        graphs = small_classes(5)
        assert len(graphs) == 1407
        assert any(len(components(g.n, ((u, v) for (u, v, _) in g.edges))) > 1 for g in graphs)
        named = [build(nm).graph for nm in catalog_names()]
        graphs += [disjoint_union(a, b) for a, b in zip(named, named[1:] + named[:1])]
        graphs.append(disjoint_union(*named))
        for pq in ((10, 3), (8, 3), (16, 5)):
            pr = CliqueParams(*pq)
            for g in graphs:
                assert find_sp_hom(g, pr) == reference_find_sp_hom(g, pr), (g, pq)

    def test_one_search_sees_every_table(self, monkeypatch):
        seen = []
        search = solver._search

        def recording(order, domains, tables, *args):
            seen.append((len(tables), domains.count(1)))
            return search(order, domains, tables, *args)

        monkeypatch.setattr(solver, "_search", recording)
        h = find_sp_hom(MATCHING, P103)
        assert h is not None and verify_hom(MATCHING, h)
        # All 2m tables, and every component's root pinned to color 0.
        assert seen == [(2 * MATCHING.m, MATCHING.m)]

    def test_deadline_fires_across_components(self):
        # 1,500 two-vertex components, one node per vertex: the clock is
        # read at the 2,048th node of the whole search.
        with pytest.raises(SearchDeadlineExceeded):
            find_sp_hom(MATCHING, P103, deadline_s=1e-9)

    def test_passed_deadline_fires_before_any_node(self, monkeypatch):
        # T's search ends long before the first checkpoint, so only the read
        # on entry can stop it; without a deadline the clock is never read,
        # neither there nor at the checkpoint and in elimination (28/9).
        t = build("T").graph
        with pytest.raises(SearchDeadlineExceeded):
            find_sp_hom(t, P103, deadline_s=-1)
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: pytest.fail("clock read")))
        assert find_sp_hom(t, P103, deadline_s=None) is not None
        assert find_sp_hom(build("PETERSEN").graph, CliqueParams(28, 9)) is None

    @pytest.mark.parametrize("g", [MATCHING, TestLongPath.PATH], ids=["matching", "path"])
    def test_no_wipeout_stays_on_fc_cbj(self, monkeypatch, g):
        # Both pass the first checkpoint without a wipeout, so they are
        # never planned for elimination.
        monkeypatch.setattr(solver, "_plan", lambda *args: pytest.fail("planned"))
        h = find_sp_hom(g, P103)
        assert h is not None and verify_hom(g, h)


def decide_both(g, params):
    """Witnesses of FC-CBJ, run to completion, and of bucket elimination,
    each deciding the whole graph on find_sp_hom's pinned path.  A side
    is None when that decider proves non-colorability."""
    pr = CliqueParams(*params)
    tables = solver._pair_tables(g, pr)
    order, roots = solver._static_order(g.edges, g.n)
    doms = [(1 << pr.p) - 1] * g.n
    for v in roots:
        doms[v] = 1
    parents = solver._plan(order, tables, pr.p)
    assert parents is not None
    found = (
        next(solver._search(order, doms, tables, solver._Deadline(None)), None),
        solver._eliminate(order, tables, parents, pr.p, solver._Deadline(None)),
    )
    return tuple(
        None if colors is None else Homomorphism(pr, tuple(c for _, c in sorted(zip(order, colors))))
        for colors in found
    )


def k5_indicator():
    return apply_indicator(make_graph(5, [(u, v, POS) for u in range(5) for v in range(u + 1, 5)]))


class TestBucketElimination:
    def test_agrees_with_fc_cbj_and_oracle_n5(self):
        # Every class on at most five vertices, digons included, at every
        # (p, q) with p <= 10: same decision as FC-CBJ and the product-space
        # oracle, and the same witness as FC-CBJ.
        params = [(p, q) for p in range(2, 11, 2) for q in range(1, p // 2 + 1)]
        classes = small_classes(5)
        assert len(classes) == 1407
        for g in classes:
            for (p, q) in params:
                fc, be = decide_both(g, (p, q))
                assert fc == be, (g, p, q)
                assert (be is not None) == oracle_colorable(g, p, q), (g, p, q)
                if be is not None:
                    assert verify_hom(g, be)

    def test_switches_on_the_k5_indicator(self, monkeypatch):
        # FC-CBJ passes its first checkpoint on this 35-vertex graph, so the
        # graph is handed to elimination, whose witness is FC-CBJ's own.
        g = k5_indicator()
        calls = []
        real = solver._eliminate

        def spy(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(solver, "_eliminate", spy)
        hom = find_sp_hom(g, P103)
        assert len(calls) == 1
        fc, be = decide_both(g, (10, 3))
        assert hom == fc == be
        assert verify_hom(g, hom)

    def test_agrees_with_fc_cbj_on_disjoint_unions(self):
        # Two K5 indicators and a catalog graph, non-colorable (K4_MINUS)
        # or not: one elimination over every component, each root
        # back-substituted to color 0.
        k5 = k5_indicator()
        for nm in ("K4_MINUS", "T", "PETERSEN"):
            g = disjoint_union(k5, build(nm).graph, k5)
            for pq in ((10, 3), (8, 3)):
                fc, be = decide_both(g, pq)
                assert fc == be, (nm, pq)
                assert fc == find_sp_hom(g, pq), (nm, pq)
                if be is not None:
                    assert verify_hom(g, be)

    def test_plan_over_the_cell_limit_stays_on_fc_cbj(self, monkeypatch):
        # K8 at 14/2 = 7 is an FC-CBJ search of more than 2,048 nodes, and
        # eliminating its last vertex needs a grid of 14**6 cells > 2**20.
        plans = []
        real = solver._plan

        def spy(*args):
            plans.append(real(*args))
            return plans[-1]

        def fail(*args):
            raise AssertionError("elimination ran")

        monkeypatch.setattr(solver, "_plan", spy)
        monkeypatch.setattr(solver, "_eliminate", fail)
        assert find_sp_hom(negative_complete(8), (14, 2)) is None
        assert plans == [None]

    def test_list_domains_stay_on_fc_cbj(self, monkeypatch):
        monkeypatch.setattr(solver, "_plan", lambda *args: pytest.fail("planned"))
        g = k5_indicator()
        hom = find_sp_hom(g, P103, domains=[(1 << 10) - 1] * g.n)
        assert verify_hom(g, hom)

    def test_deadline_fires_inside_elimination(self, monkeypatch):
        # A clock that stands still until elimination starts, then jumps
        # past the deadline: the next read, per chunk of the join grid,
        # must stop the elimination.
        now = [0.0]
        monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: now[0]))
        real = solver._eliminate

        def late(*args):
            now[0] = 10.0
            return real(*args)

        monkeypatch.setattr(solver, "_eliminate", late)
        with pytest.raises(SearchDeadlineExceeded) as info:
            find_sp_hom(k5_indicator(), P103, deadline_s=1.0)
        assert info.traceback[-1].name == "check_clock"
        assert info.traceback[-2].name == "_message"


def reference_message(bucket, scope, p, full, deadline):
    """The join kernel that read every function by indexing with one
    broadcast array per axis and packed each chunk one color at a time."""
    d = len(scope) - 1
    k = d
    while p**k > solver._CHUNK_CELLS:
        k -= 1
    grid = scope[1:]
    lead, block, trail = grid[: max(0, d - k - 1)], grid[d - k - 1 : d - k], grid[d - k :]
    step = min(p, solver._CHUNK_CELLS // p**k) if block else 1
    coord = {scope[0]: 0}
    for a, r in enumerate(trail):
        coord[r] = np.arange(p, dtype=np.uint32).reshape([p if i == a + 1 else 1 for i in range(k + 1)])
    out = np.empty(p ** max(0, d - 1), dtype=np.uint32)
    for i, prefix in enumerate(itertools.product(range(p), repeat=len(lead))):
        coord.update(zip(lead, prefix))
        for lo in range(0, p if block else 1, step):
            deadline.check_clock()
            hi = min(lo + step, p)
            if block:
                coord[block[0]] = np.arange(lo, hi, dtype=np.uint32).reshape((-1,) + (1,) * k)
            joined = np.full((hi - lo,) + (p,) * k, full, dtype=np.uint32)
            for (fscope, tab) in bucket:
                t = coord[fscope[0]]
                val = tab[tuple((coord[r] + p - t) % p for r in fscope[1:])]
                if fscope[0] != scope[0]:
                    val = val << t | val >> (p - t)
                joined &= val
            alive = np.minimum(joined, 1, out=joined).reshape(-1, p if d else 1)
            packed = alive[:, 0].copy()
            for c in range(1, alive.shape[1]):
                packed |= alive[:, c] << c
            at = (i * p + lo) * p ** max(0, k - 1)
            out[at : at + len(packed)] = packed
    return out


def assert_same_message(got, want):
    assert got.dtype == want.dtype == np.uint32
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def function_kind(fscope, scope):
    """How solver._message reads the function over fscope in a bucket over scope."""
    if fscope[0] == scope[0]:
        return "anchored" if len(fscope) > 1 else "constant"
    return "single" if len(fscope) == 1 else "gathered"


class TestJoinKernel:
    """solver._message against reference_message, byte for byte."""

    def checked_messages(self, monkeypatch):
        real, kinds = solver._message, []

        def spy(bucket, scope, p, full, deadline):
            got = real(bucket, scope, p, full, deadline)
            assert_same_message(got, reference_message(bucket, scope, p, full, deadline))
            kinds.extend(function_kind(fscope, scope) for fscope, _ in bucket)
            return got

        monkeypatch.setattr(solver, "_message", spy)
        return kinds

    def test_petersen_chi_c(self, monkeypatch):
        kinds = self.checked_messages(monkeypatch)
        assert chi_c(build("PETERSEN").graph, q_max=10).value == Fraction(10, 3)
        assert {"anchored", "single"} <= set(kinds)

    def test_k5_indicator(self, monkeypatch):
        kinds = self.checked_messages(monkeypatch)
        assert find_sp_hom(k5_indicator(), P103) is not None
        assert set(kinds) == {"constant", "anchored", "single", "gathered"}

    def test_density_family_deletion(self, monkeypatch):
        kinds = self.checked_messages(monkeypatch)
        g = density_deletions()[0]
        assert verify_hom(g, find_sp_hom(g, P103))
        assert set(kinds) == {"constant", "anchored", "single", "gathered"}


# p at and around packbits' byte boundaries, up to the largest p elimination takes.
KERNEL_P = (2, 6, 8, 10, 16, 24, 30, 32)


def random_masks(rng, p, shape, density):
    bits = rng.random(shape + (p,)) < density
    return (bits.astype(np.uint64) << np.arange(p, dtype=np.uint64)).sum(axis=-1).astype(np.uint32)


def random_bucket(p, d, counts, density, seed):
    """A scope of d + 1 positions and a bucket over it with counts[0]
    functions anchored at scope[0] (0-d ones included), counts[1]
    single-vertex functions elsewhere and counts[2] multi-vertex functions
    anchored elsewhere, each over at most four positions."""
    rng = np.random.default_rng(seed)
    scope = sorted(int(r) for r in rng.choice(4 * d + 4, d + 1, replace=False))
    grid = scope[1:]

    def members(lo, hi):
        size = int(rng.integers(lo, min(hi, d) + 1))
        return tuple(sorted(int(r) for r in rng.choice(grid, size, replace=False)))

    fscopes = [(scope[0],) + members(0, 3) for _ in range(counts[0])]
    if d >= 1:
        fscopes += [members(1, 1) for _ in range(counts[1])]
    if d >= 2:
        fscopes += [members(2, 4) for _ in range(counts[2])]
    bucket = [(fs, random_masks(rng, p, (p,) * (len(fs) - 1), density)) for fs in fscopes]
    return [bucket[i] for i in rng.permutation(len(bucket))], scope


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(
    p=st.sampled_from(KERNEL_P),
    d=st.integers(0, 20),
    counts=st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3)),
    density=st.sampled_from((0.3, 0.7, 0.95)),
    seed=st.integers(0, 2**32 - 1),
)
# No grid axes (a single cell), and grids with lead axes, looped over
# outside the chunks, at p = 2, 10 and 32.
@example(p=16, d=0, counts=(3, 3, 3), density=0.7, seed=0)
@example(p=2, d=17, counts=(2, 3, 3), density=0.95, seed=1)
@example(p=10, d=6, counts=(3, 3, 3), density=0.95, seed=2)
@example(p=32, d=4, counts=(3, 3, 3), density=0.95, seed=3)
def test_join_kernel_matches_reference(p, d, counts, density, seed):
    d %= 1 + max(e for e in range(21) if p**e <= solver._MAX_GRID_CELLS)
    bucket, scope = random_bucket(p, d, counts, density, seed)
    full = (1 << p) - 1
    got = solver._message(bucket, scope, p, full, solver._Deadline(None))
    assert_same_message(got, reference_message(bucket, scope, p, full, solver._Deadline(None)))


@st.composite
def connected_graphs(draw, max_n=9):
    """A random spanning tree plus a few extra edges, digons allowed."""
    n = draw(st.integers(1, max_n))
    sign = st.sampled_from((POS, NEG))
    edges = [(draw(st.integers(0, v - 1)), v, draw(sign)) for v in range(1, n)]
    if n > 1:
        vertex = st.integers(0, n - 1)
        extra = st.tuples(vertex, vertex, sign).filter(lambda e: e[0] != e[1])
        edges += draw(st.lists(extra, max_size=n + 3))
    return SignedMultigraph(n, tuple(edges))


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(connected_graphs(), st.sampled_from([(6, 2), (8, 3), (10, 3), (12, 5), (14, 4), (16, 5), (32, 9)]))
def test_elimination_witness_is_fc_cbj_witness(g, pq):
    pr = CliqueParams(*pq)
    order, _ = solver._static_order(g.edges, g.n)
    assume(solver._plan(order, solver._pair_tables(g, pr), pr.p) is not None)
    fc, be = decide_both(g, pq)
    assert fc == be
    if be is not None:
        assert verify_hom(g, be)


def reference_search(order, domains, tables, deadline, elim_p=None):
    """The FC-CBJ loop before its bookkeeping became bitmasks, plain
    callers' path only: pruning and conflict sets are Python sets of
    depths, domains are read and written by vertex, and the hand-off
    comes at node _CHECK_NODES, once a forward check has wiped out a
    domain."""
    n = len(order)
    if not n:
        yield ()
        return
    pos = {v: i for i, v in enumerate(order)}
    later = [[] for _ in range(n)]
    for (a, b), tab in tables.items():
        i, j = pos[a], pos[b]
        if i < j:
            later[i].append((j, b, tab))
    assignment = [-1] * n
    untried = [0] * n
    trails = [[] for _ in range(n)]
    past_fc = [set() for _ in range(n)]
    conf_set = [set() for _ in range(n)]
    nodes = 0
    next_check = solver._CHECK_NODES
    wiped = False
    i = 0
    untried[0] = domains[order[0]]
    while True:
        dom = untried[i]
        while dom:
            bit = dom & -dom
            dom ^= bit
            c = bit.bit_length() - 1
            nodes += 1
            if nodes == next_check:
                next_check += solver._CHECK_NODES
                deadline.check_clock()
                if elim_p is not None and wiped and nodes == solver._CHECK_NODES:
                    static = solver._plan(order, tables, elim_p)
                    if static is None and solver._narrow_refutes(
                        order, tables, static, elim_p, deadline, solver._CallState()
                    ):
                        return
                    if static is not None:
                        sol = solver._eliminate(order, tables, static, elim_p, deadline)
                        if sol is not None:
                            yield sol
                        return
            trail = trails[i] = []
            for (j, w, tab) in later[i]:
                old = domains[w]
                new = old & tab[c]
                if new != old:
                    trail.append((j, w, old))
                    domains[w] = new
                    past_fc[j].add(i)
                    if new == 0:
                        wiped = True
                        conf_set[i] |= past_fc[j] - {i}
                        break
            else:
                assignment[i] = c
                if i + 1 < n:
                    untried[i] = dom
                    i += 1
                    untried[i] = domains[order[i]]
                    break
                yield tuple(assignment)
                conf_set[i] = set(range(i))
            for (j, w, old) in trail:
                domains[w] = old
                past_fc[j].discard(i)
        else:
            conflicts = conf_set[i] | past_fc[i]
            conf_set[i] = set()
            if not conflicts:
                return
            target = max(conflicts)
            while i > target:
                i -= 1
                for (j, w, old) in trails[i]:
                    domains[w] = old
                    past_fc[j].discard(i)
                if i > target:
                    conf_set[i] = set()
            conf_set[target] |= conflicts - {target}


class CountingDeadline(solver._Deadline):
    """No limit; counts its clock reads."""

    def __init__(self):
        super().__init__(None)
        self.reads = 0

    def check_clock(self):
        self.reads += 1


@st.composite
def small_multigraphs(draw, max_n=7):
    """Any signed multigraph on at most max_n vertices: loops of either
    sign, digons and same-sign parallels all occur."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    edge = st.tuples(vertex, vertex, st.sampled_from((POS, NEG)))
    return SignedMultigraph(n, tuple(draw(st.lists(edge, max_size=3 * n))))


# Colorings compared per unpinned stream: enough to pass a checkpoint.
STREAM_CAP = 3000


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(small_multigraphs(), st.sampled_from([(2, 1), (4, 1), (6, 2), (8, 3), (10, 3), (12, 5), (32, 9)]))
def test_search_matches_set_based_reference(g, pq):
    # The same colorings in the same order and the same clock reads, both
    # unpinned in vertex order (enumerate_homs) and pinned in the static
    # order with the hand-off armed (find_sp_hom without chi_c's state).
    # At a checkpoint every 3 nodes the reads count the nodes, and most
    # pinned searches hand off.
    for check in (solver._CHECK_NODES, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_CHECK_NODES", check)
            assert_same_search(g, pq)


def assert_same_search(g, pq):
    pr = CliqueParams(*pq)
    tables = solver._pair_tables(g, pr)
    full = (1 << pr.p) - 1
    order, roots = solver._static_order(g.edges, g.n)
    pinned = [1 if v in roots else full for v in range(g.n)]
    elim_p = pr.p if pr.p <= solver._MAX_ELIMINATION_P else None
    runs = (
        (list(range(g.n)), [full] * g.n, None, STREAM_CAP),
        (order, pinned, elim_p, 1),
    )
    for vertices, doms, p, cap in runs:
        got, want = CountingDeadline(), CountingDeadline()
        stream = list(itertools.islice(solver._search(vertices, list(doms), tables, got, p), cap))
        assert stream == list(itertools.islice(reference_search(vertices, list(doms), tables, want, p), cap))
        assert got.reads == want.reads


def test_embeddings_match_set_based_reference(monkeypatch):
    # core._embed's answer for every ordered pair of classes on at most
    # four vertices, digons included, with the loop it runs on and with
    # the reference.
    from sgchrom import core

    classes = small_classes(4)
    got = [core._embed(g, h) for g in classes for h in classes]
    monkeypatch.setattr(
        solver, "_search", lambda order, domains, tables, deadline, elim_p=None, state=None:
        reference_search(order, domains, tables, deadline, elim_p)
    )
    assert got == [core._embed(g, h) for g in classes for h in classes]
    assert got.count(None) not in (0, len(got))


def test_package_import_leaves_numpy_unloaded():
    # Only bucket elimination uses numpy, and it imports it when it runs,
    # so a process that never eliminates never maps numpy's code.
    src = str(Path(sgchrom.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, sgchrom; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


# -- chi_c's min-fill elimination order ----------------------------------------


def reference_min_fill_order(order, tables):
    """Greedy min-fill by a scan per step: recount every remaining
    vertex's fill, take the least by (fill, not adjacent in the graph to
    the vertex eliminated last, current degree, index), then join its
    neighbors into a clique."""
    nbrs = {v: set() for v in order}
    for (a, b) in tables:
        nbrs[a].add(b)
    adj = {v: set(ws) for v, ws in nbrs.items()}

    def key(v):
        ws = sorted(adj[v])
        fill = sum(1 for x, y in itertools.combinations(ws, 2) if y not in adj[x])
        return (fill, not (eliminated and v in nbrs[eliminated[-1]]), len(ws), v)

    eliminated = []
    while adj:
        v = min(adj, key=key)
        ws = adj.pop(v)
        for x in ws:
            adj[x] |= ws - {x}
            adj[x].discard(v)
        eliminated.append(v)
    return eliminated[::-1]


def largest_scope(order, tables):
    return max(map(len, solver._plan(order, tables, 1)))  # p = 1: no grid is too large


def presentation(g, seed):
    """g relabelled and switched, both drawn from the seed."""
    rng = random.Random(seed)
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(switch(g, {v for v in range(g.n) if rng.random() < 0.5}), perm)


def orders_and_tables(g, pq=(10, 3)):
    tables = solver._pair_tables(g, CliqueParams(*pq))
    order, _ = solver._static_order(g.edges, g.n)
    return order, solver._min_fill_order(order, tables), tables


class TestMinFillOrder:
    def test_matches_per_step_scan(self):
        graphs = small_classes(5) + [build(nm).graph for nm in catalog_names()]
        graphs += [disjoint_union(build("PETERSEN").graph, negative_cycle(5), k5_indicator())]
        graphs += [presentation(build("PETERSEN").graph, seed) for seed in range(20)]
        for g in graphs:
            order, sigma, tables = orders_and_tables(g)
            assert sigma == reference_min_fill_order(order, tables), g
            assert sorted(sigma) == list(range(g.n))

    def test_petersen_width(self):
        # Treewidth 4: min-fill finds it in every presentation, the static
        # order never does.
        petersen = build("PETERSEN").graph
        for seed in range(200):
            order, sigma, tables = orders_and_tables(presentation(petersen, seed))
            assert (largest_scope(sigma, tables), largest_scope(order, tables)) == (4, 5), seed

    @pytest.mark.parametrize(
        "g", [negative_cycle(3000), apply_indicator(hajos_graph(5))], ids=["cycle3000", "density5"]
    )
    def test_no_size_cliff(self, monkeypatch, g):
        # Every pick comes off the heap, and each step pushes only the
        # vertices whose fill or degree it changed: on these sparse graphs
        # at most one entry per vertex and two per edge in all.  A scan of
        # every remaining vertex per step (reference_min_fill_order) takes
        # seconds on the cycle.
        order, _, tables = orders_and_tables(g)
        entries, pops = [], []

        def heapify(h):
            entries.extend(h)
            heapq.heapify(h)

        def heappush(h, x):
            entries.append(x)
            heapq.heappush(h, x)

        def heappop(h):
            pops.append(h[0])
            return heapq.heappop(h)

        counting = SimpleNamespace(heapify=heapify, heappush=heappush, heappop=heappop)
        monkeypatch.setattr(solver, "heapq", counting)
        sigma = solver._min_fill_order(order, tables)
        assert sorted(sigma) == list(range(g.n))
        assert g.n <= len(pops) <= len(entries) <= g.n + len(tables)


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(connected_graphs(), st.sampled_from([(6, 2), (8, 3), (10, 3), (12, 5), (14, 4), (16, 5), (32, 9)]))
def test_min_fill_elimination_decides_as_fc_cbj(g, pq):
    pr = CliqueParams(*pq)
    _, sigma, tables = orders_and_tables(g, pq)
    parents = solver._plan(sigma, tables, pr.p)
    assume(parents is not None)
    colors = solver._eliminate(sigma, tables, parents, pr.p, solver._Deadline(None))
    doms = [(1 << pr.p) - 1] * g.n
    fc = next(solver._search(list(range(g.n)), doms, tables, solver._Deadline(None)), None)
    assert (colors is None) == (fc is None)
    if colors is not None:
        assert verify_hom(g, Homomorphism(pr, tuple(c for _, c in sorted(zip(sigma, colors)))))
    if g.n <= 5:
        assert (colors is not None) == oracle_colorable(g, pr.p, pr.q)


def reference_chi_c(g, q_max=None):
    """chi_c as one find_sp_hom call per candidate, outside chi_c, so that
    every probe decides in the static order."""
    q_max = q_max or g.n
    loopless_deg = [sum(v in (a, b) for (a, b, _) in g.edges if a != b) for v in range(g.n)]
    ceiling = Fraction(2 * max(2, max(loopless_deg)))
    rejected = []
    for cand in candidate_params(q_max, ceiling):
        hom = find_sp_hom(g, cand)
        if hom is not None:
            return Fraction(cand.p, cand.q), cand, hom, rejected
        rejected.append(cand)
    raise AssertionError("no candidate")


class TestChiCNarrowOrder:
    GRAPHS = {nm: build(nm).graph for nm in catalog_names()}
    # Cycles of length 9 to 15 hand off; their last rejections have p <= 32.
    GRAPHS.update({f"negative_cycle({k})": negative_cycle(k) for k in range(2, 16)})

    @pytest.mark.parametrize("q_max", [None, 10])
    def test_answers_match_static_order(self, monkeypatch, q_max):
        want = {name: reference_chi_c(g, q_max) for name, g in self.GRAPHS.items()}
        made, refuted = Counter(), Counter()
        real_order, real_refutes = solver._min_fill_order, solver._narrow_refutes

        def order_spy(order, tables):
            made[name] += 1
            return real_order(order, tables)

        def refutes_spy(*args):
            found = real_refutes(*args)
            refuted[name] += found
            return found

        monkeypatch.setattr(solver, "_min_fill_order", order_spy)
        monkeypatch.setattr(solver, "_narrow_refutes", refutes_spy)
        for name, g in self.GRAPHS.items():
            res = chi_c(g, q_max)
            assert (res.value, res.params, res.witness, res.rejected) == want[name], name
        # The order is made at most once per call.  It proves nine of
        # PETERSEN's rejections: 22/8, the probe in which the call's
        # total reaches _CHECK_NODES nodes, and the eight after it, each
        # asked at its first dead end after that node.
        assert set(made.values()) == {1} and refuted["PETERSEN"] == 9, (made, refuted)

    def test_few_campaign_calls_make_it(self, monkeypatch):
        # The node count is per call: three of BROOKS's 380 chi_c calls
        # spend _CHECK_NODES nodes over several probes and then ask for
        # the refutation, making the order.
        from sgchrom.campaigns import run_campaign

        made = []
        real_order = solver._min_fill_order
        monkeypatch.setattr(solver, "_min_fill_order", lambda *args: made.append(1) or real_order(*args))
        for cid, want in (("BROOKS", 3), ("NEGATIVE_CYCLES", 0)):
            made.clear()
            assert run_campaign(cid).passed, cid
            assert len(made) == want, cid

    def test_other_probes_never_make_it(self, monkeypatch):
        # A colorable probe would pay for the min-fill pass and then the
        # static one, so only chi_c asks for it: a find_sp_hom call of its
        # own reaches the hand-off and eliminates in the static order alone.
        plans = []
        real_plan = solver._plan
        monkeypatch.setattr(solver, "_plan", lambda *args: plans.append(args) or real_plan(*args))
        monkeypatch.setattr(solver, "_min_fill_order", lambda *args: pytest.fail("min-fill order made"))
        assert find_sp_hom(build("PETERSEN").graph, CliqueParams(28, 9)) is None
        assert plans

    @pytest.mark.parametrize("p, q", [(32, 10), (22, 7)])
    def test_refutes_where_static_plan_is_too_large(self, monkeypatch, p, q):
        # The k = 1 DENSITY_FAMILY member: the static plan needs a scope of
        # 6 at p = 32 (32**5 cells, over _MAX_GRID_CELLS), the min-fill plan
        # only 5, so the min-fill order alone proves the fraction out.
        # Both fractions lie below 10/3, so the graph has no coloring.
        calls = []
        real_refutes = solver._narrow_refutes

        def refutes_spy(order, tables, static, *rest):
            found = real_refutes(order, tables, static, *rest)
            calls.append((static is None, found))
            return found

        monkeypatch.setattr(solver, "_narrow_refutes", refutes_spy)
        g = apply_indicator(hajos_graph(1))
        assert find_sp_hom(g, CliqueParams(p, q), _state=solver._CallState()) is None
        assert calls == [(True, True)]

    @pytest.mark.parametrize("p, q", [(32, 10), (22, 7)])
    @pytest.mark.parametrize("decide", ["find_sp_hom", "is_colorable"])
    def test_plain_calls_refute_where_static_plan_is_too_large(self, monkeypatch, decide, p, q):
        # Without chi_c's slot, the hand-off still tries the min-fill order
        # when the static plan does not fit, instead of staying on FC-CBJ.
        calls = []
        real_refutes = solver._narrow_refutes

        def refutes_spy(order, tables, static, *rest):
            found = real_refutes(order, tables, static, *rest)
            calls.append((static is None, found))
            return found

        monkeypatch.setattr(solver, "_narrow_refutes", refutes_spy)
        g = apply_indicator(hajos_graph(1))
        assert not getattr(solver, decide)(g, CliqueParams(p, q))
        assert calls == [(True, True)]

    def test_no_order_made_where_no_plan_can_fit(self, monkeypatch):
        # K8's least degree is 7, so at p = 14 every order's first
        # elimination needs a grid of 14**6 cells > 2**20: the refutation
        # is asked for and declines before making the min-fill order.
        calls = []
        real_refutes = solver._narrow_refutes

        def refutes_spy(order, tables, static, *rest):
            found = real_refutes(order, tables, static, *rest)
            calls.append((static is None, found))
            return found

        monkeypatch.setattr(solver, "_narrow_refutes", refutes_spy)
        monkeypatch.setattr(solver, "_min_fill_order", lambda *args: pytest.fail("min-fill order made"))
        assert find_sp_hom(negative_complete(8), (14, 2)) is None
        assert calls == [(True, False)]


def random_cubic(rng, n):
    """A simple cubic graph on n vertices with random signs: three points
    per vertex paired at random, drawn again until no pair is a loop or
    repeats another."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = {tuple(sorted(points[i : i + 2])) for i in range(0, len(points), 2)}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            return make_graph(n, [(u, v, rng.choice((POS, NEG))) for u, v in sorted(pairs)])


def seeded_cubic_graphs():
    """20 random signings of Petersen, then ten random signed cubic graphs
    on 10 vertices and ten on 12."""
    petersen = build("PETERSEN").graph
    graphs = []
    for seed in range(40):
        rng = random.Random(seed)
        if seed < 20:
            graphs.append(make_graph(10, [(u, v, rng.choice((POS, NEG))) for (u, v, _) in petersen.edges]))
        else:
            graphs.append(random_cubic(rng, 10 if seed < 30 else 12))
    return graphs


class TestChiCHandOff:
    """Each probe of a chi_c call hands off at its own node _CHECK_NODES,
    as a plain search does; the call's node count only decides when a
    probe asks the min-fill refutation: at its first dead end after the
    call's _CHECK_NODES-th node, or at the hand-off."""

    PETERSEN = build("PETERSEN").graph

    def refutations(self, monkeypatch):
        """Records (p, refuted) for each _narrow_refutes call, and
        "checkpoint" for each clock read of _search, which it makes every
        _CHECK_NODES nodes (_message reads the clock too, once per chunk)."""
        calls = []
        real_refutes, real_check = solver._narrow_refutes, solver._Deadline.check_clock

        def refutes_spy(order, tables, static, p, *rest):
            found = real_refutes(order, tables, static, p, *rest)
            calls.append((p, found))
            return found

        def check_spy(deadline):
            if sys._getframe(1).f_code.co_name == "_search":
                calls.append("checkpoint")
            return real_check(deadline)

        monkeypatch.setattr(solver, "_narrow_refutes", refutes_spy)
        monkeypatch.setattr(solver._Deadline, "check_clock", check_spy)
        return calls

    def test_state_is_per_call(self, monkeypatch):
        calls = self.refutations(monkeypatch)
        chi_c(self.PETERSEN, 10)
        first = list(calls)
        calls.clear()
        chi_c(self.PETERSEN, 10)
        # 22/8 and every later rejection are refuted at their first dead
        # end, and 20/6 = 10/3, colorable, meets none and never asks.
        assert calls == first == [
            (22, True), (14, True), (20, True), (26, True), (6, True),
            (28, True), (22, True), (16, True), (26, True),
        ]
        monkeypatch.setattr(solver, "_min_fill_order", lambda *args: pytest.fail("min-fill order made"))
        assert find_sp_hom(self.PETERSEN, CliqueParams(28, 9)) is None

    def test_no_probe_reaches_a_checkpoint(self, monkeypatch):
        # 22/8 passes the call's _CHECK_NODES-th node 424 nodes into its
        # own search and asks at its first dead end after it, so no probe
        # runs _CHECK_NODES nodes of its own.
        calls = self.refutations(monkeypatch)
        assert chi_c(self.PETERSEN, 10).value == Fraction(10, 3)
        assert "checkpoint" not in calls, calls

    def test_matches_static_order_on_cubic_graphs(self, monkeypatch):
        graphs = seeded_cubic_graphs()
        want = [reference_chi_c(g, 10) for g in graphs]
        early = [0] * len(graphs)  # refutations asked once the call's order exists
        real_find = solver.find_sp_hom

        def find_spy(*args, _state=None, **kwargs):
            order_made = _state is not None and _state.min_fill is not None
            asked = len(calls)
            hom = real_find(*args, _state=_state, **kwargs)
            refutations = sum(call != "checkpoint" for call in calls[asked:])
            assert refutations <= 1  # a failed refutation is not asked again
            early[k] += order_made and refutations
            return hom

        calls = self.refutations(monkeypatch)
        monkeypatch.setattr(solver, "find_sp_hom", find_spy)
        for k, g in enumerate(graphs):
            res = chi_c(g, 10)
            assert (res.value, res.params, res.witness, res.rejected) == want[k], k
        assert sum(map(bool, early)) == 24, early

    def test_probes_hand_off_as_plain_searches(self, monkeypatch):
        # With the min-fill refutation failing, each probe runs as a plain
        # find_sp_hom on its fraction: the same clock checkpoints, the
        # same static eliminations and the same answer.
        events = []
        real_find, real_eliminate, real_check = solver.find_sp_hom, solver._eliminate, solver._Deadline.check_clock

        def eliminate_spy(order, tables, parents, p, deadline):
            events.append(("eliminate", p))
            return real_eliminate(order, tables, parents, p, deadline)

        def check_spy(deadline):
            if sys._getframe(1).f_code.co_name == "_search":
                events.append("checkpoint")
            return real_check(deadline)

        def run(*args, **kwargs):
            events.clear()
            hom = real_find(*args, **kwargs)
            return list(events), hom

        def find_spy(g, params, **kwargs):
            probe = run(g, params, **kwargs)
            assert probe == run(g, params), params
            return probe[1]

        monkeypatch.setattr(solver, "_narrow_refutes", lambda *args: False)
        monkeypatch.setattr(solver, "_eliminate", eliminate_spy)
        monkeypatch.setattr(solver._Deadline, "check_clock", check_spy)
        monkeypatch.setattr(solver, "find_sp_hom", find_spy)
        for g in [self.PETERSEN, *seeded_cubic_graphs()]:
            chi_c(g, 10)
