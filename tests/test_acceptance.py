"""Acceptance suite: one test per release criterion, each asserting the
mathematical statement and its time budget, and printing one PASS/FAIL
line (visible with -s / in failure output).

Criterion 5 gates the census of (10,3)-critical classes on at most five
vertices, which finds exactly two: the digon and the all-negative K4.
The chord extension of the five-vertex gadget named T_PLUS in the
catalog is (10,3)-colorable, certified here by a hard-coded witness, so
the SMALL_CRITICAL campaign, whose expected list still names T_PLUS,
reports it as its one missing class.  The solver-free evidence is in
tests/test_campaigns.py (a product-space sweep of all labeled signed
graphs on five vertices) and tests/test_criticality.py (every one-chord
extension of T).
"""

import time
from fractions import Fraction

import pytest

from sgchrom.campaigns import (
    EnumSpec,
    campaign_T_surjective,
    campaign_brooks,
    campaign_density_family,
    campaign_negative_cycles,
    campaign_petersen,
    campaign_small_3colorable,
    enumerate_signed,
    run_campaign,
)
from sgchrom.catalog import apply_indicator, build, golden_colorings, hajos_graph, indicator
from sgchrom.clique import CliqueParams, cyclic_distance
from sgchrom.core import format_graph_text, is_switching_isomorphic, parse_graph_text
from sgchrom.criticality import density_check, is_critical, potential
from sgchrom.lists import verify_list_lemma
from sgchrom.solver import Homomorphism, chi_c, enumerate_homs, is_colorable, verify_hom

from conftest import oracle_adjacency, oracle_colorable

P103 = CliqueParams(10, 3)
T_PLUS_WITNESS = (1, 9, 0, 2, 3)  # colors of v1..v5


def report(number, name, elapsed, budget_s, ok=True):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {number:>2}] {status} {name} ({elapsed:.2f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded budget: {elapsed:.1f}s"


@pytest.fixture(scope="module")
def small_critical_report():
    return run_campaign("SMALL_CRITICAL")  # the runner times the campaign


@pytest.fixture(scope="module")
def small_critical_recount():
    return small_critical_matches()


def test_criterion_01_named_chi_c_values():
    for name, want in [
        ("K4_MINUS", Fraction(4)),
        ("DIGON", Fraction(4)),
        ("T", Fraction(10, 3)),
        ("T_PLUS", Fraction(10, 3)),
    ]:
        t0 = time.monotonic()
        res = chi_c(build(name).graph)
        elapsed = time.monotonic() - t0
        assert res.value == want, (name, res.value)
        assert verify_hom(build(name).graph, res.witness)
        report(1, f"chi_c({name}) = {want}", elapsed, 1.0)


def test_criterion_02_negative_cycle_formula():
    t0 = time.monotonic()
    rep = campaign_negative_cycles(8)
    elapsed = time.monotonic() - t0
    assert rep.passed and rep.cases_checked == 7, rep.failures
    report(2, "chi_c(C_-l) = 2 + 2/(l-1), l = 2..8", elapsed, 5.0)


def test_criterion_03_t_surjective():
    t0 = time.monotonic()
    rep = campaign_T_surjective()
    elapsed = time.monotonic() - t0
    assert rep.passed and rep.cases_checked == 100_000, rep.failures
    report(3, "all homs of T into the halved clique are surjective", elapsed, 1.0)


def test_criterion_04_small_3colorable():
    t0 = time.monotonic()
    rep = campaign_small_3colorable()
    elapsed = time.monotonic() - t0
    assert rep.passed, rep.failures[:3]
    report(4, f"small graphs 3-colorable ({rep.cases_checked} classes)", elapsed, 120.0)


def test_criterion_05_small_critical_list(small_critical_report, small_critical_recount):
    rep = small_critical_report
    # T_PLUS is (10,3)-colorable: v1..v5 -> labels 2, -5, 1, 3, 4.
    t_plus = build("T_PLUS").graph
    witness = Homomorphism(P103, T_PLUS_WITNESS)
    witness_ok = verify_hom(t_plus, witness) and all(
        s in oracle_adjacency(10, 3, witness(u), witness(v)) for (u, v, s) in t_plus.edges
    )
    # The census finds exactly the digon and the all-negative K4; its only
    # failure is the campaign's stale expectation of T_PLUS.
    found = small_critical_recount
    classes_ok = (
        rep.extra["critical_classes_found"] == len(found) == 2
        and sum(is_switching_isomorphic(g, build("DIGON").graph) for g in found) == 1
        and sum(is_switching_isomorphic(g, build("K4_MINUS").graph) for g in found) == 1
    )
    failures_ok = rep.failures == [
        {"graph": format_graph_text(t_plus), "error": "expected critical class not found"}
    ]
    ok = witness_ok and classes_ok and failures_ok
    report(5, "critical classes on <= 5 vertices = {digon, K4-}; T_PLUS colorable",
           rep.elapsed_s, 600.0, ok)
    assert ok, (
        f"T_PLUS witness verifies: {witness_ok}; "
        f"{rep.extra['critical_classes_found']} classes in the census, "
        f"{len(found)} recounted: {[format_graph_text(g) for g in found]}; "
        f"failures: {rep.failures}"
    )


def test_criterion_06_golden_colorings():
    t0 = time.monotonic()
    pairs = golden_colorings()
    names = {ng.name for ng, _ in pairs}
    assert {"H1", "H2", "H2P", "H3", "H4", "H4P", "CUBE_NEG",
            "EIGHT_V_1", "EIGHT_V_2", "EIGHT_V_3", "EIGHT_V_4"} <= names
    for ng, hom in pairs:
        assert verify_hom(ng.graph, hom), ng.name
    elapsed = time.monotonic() - t0
    report(6, f"published colorings verify ({len(pairs)} certificates)", elapsed, 1.0)


def test_criterion_07_list_lemma_suite():
    quick = ("OBS_K2", "TRI_POS", "DIST_I", "UNION_X4", "TWO_VERTEX", "C4_7755", "K23_INTERVALS")
    t0 = time.monotonic()
    for lemma_id in quick:
        rep = verify_list_lemma(lemma_id)
        assert rep.passed, (lemma_id, rep.failures[:3])
    elapsed = time.monotonic() - t0
    report(7, "quick lemma verifiers", elapsed, 60.0)

    t0 = time.monotonic()
    rep = verify_list_lemma("K2_SUM7")
    elapsed = time.monotonic() - t0
    assert rep.passed and rep.cases_checked == 154_560
    report(7, "edge lists with size sum 7", elapsed, 60.0)

    t0 = time.monotonic()
    rep = verify_list_lemma("NEG_TRI_18")
    elapsed = time.monotonic() - t0
    assert rep.passed, rep.failures[:3]
    assert rep.cases_checked == 86_493_225
    report(7, "negative-triangle size-18 lemma, both directions", elapsed, 1800.0)

    t0 = time.monotonic()
    rep = verify_list_lemma("P3_SUM13")
    elapsed = time.monotonic() - t0
    assert rep.passed and rep.cases_checked == 435_541_560
    report(7, "path lists with size sum 13", elapsed, 3600.0)


def test_criterion_08_brooks_subcubic():
    t0 = time.monotonic()
    rep = campaign_brooks(7)
    elapsed = time.monotonic() - t0
    assert rep.passed, rep.failures[:3]
    attains = [parse_graph_text(t) for t in rep.extra["attains_10_3"]]
    t_graph = build("T").graph
    assert any(
        g.n == 5 and g.m == 7 and is_switching_isomorphic(g, t_graph) for g in attains
    )
    report(8, f"subcubic classes <= 7 vertices colorable ({rep.cases_checked} classes, "
              f"{len(attains)} attain 10/3)", elapsed, 1800.0)


def test_criterion_09_petersen():
    t0 = time.monotonic()
    rep = campaign_petersen()
    elapsed = time.monotonic() - t0
    assert rep.passed, rep.failures
    report(9, f"Petersen chi_c = 10/3, {rep.cases_checked - 1} fractions rejected", elapsed, 600.0)


def test_criterion_10_indicator_distance():
    t0 = time.monotonic()
    gad = indicator()
    dists = [
        cyclic_distance(10, h.assignment[gad.s], h.assignment[gad.t])
        for h in enumerate_homs(gad.graph, P103)
    ]
    elapsed = time.monotonic() - t0
    assert dists and min(dists) == 2
    report(10, f"indicator end distance >= 2 over all {len(dists)} homs, 2 attained", elapsed, 10.0)


def test_criterion_11_density_family():
    t0 = time.monotonic()
    rep = campaign_density_family(5)
    elapsed = time.monotonic() - t0
    assert rep.passed, rep.failures
    big = apply_indicator(hajos_graph(1))
    assert density_check(big).passes
    report(11, "density family counts k <= 5; k=1 member non-colorable", elapsed, 1800.0)


def test_criterion_12_oracle_equivalence():
    t0 = time.monotonic()
    params = [(p, q) for p in range(2, 11, 2) for q in range(1, p // 2 + 1)]
    disagreements = 0
    cases = 0
    for g in enumerate_signed(EnumSpec(n_max=4, allow_digons=True)):
        for (p, q) in params:
            cases += 1
            if is_colorable(g, (p, q)) != oracle_colorable(g, p, q):
                disagreements += 1
    elapsed = time.monotonic() - t0
    assert disagreements == 0
    report(12, f"solver vs product-space oracle, {cases} cases", elapsed, 300.0)


def test_criterion_13_potential_values(small_critical_report, small_critical_recount):
    t0 = time.monotonic()
    from sgchrom.core import SignedMultigraph

    assert potential(SignedMultigraph(1, ())) == 3
    assert potential(build("K4_MINUS").graph) == 0
    assert potential(build("T").graph) == 1
    assert potential(build("T_PLUS").graph) == -1
    # Every critical class from the census other than the digon and the
    # all-negative K4 must have potential <= -1 (vacuous if none exist).
    digon = build("DIGON").graph
    k4 = build("K4_MINUS").graph
    found = small_critical_recount
    assert len(found) == small_critical_report.extra["critical_classes_found"]
    others = []
    for g in found:
        if not (is_switching_isomorphic(g, digon) or is_switching_isomorphic(g, k4)):
            others.append(g)
    assert all(potential(g) <= -1 for g in others)
    elapsed = time.monotonic() - t0
    report(13, f"potential values and p <= -1 for {len(others)} non-excluded critical classes",
           elapsed, 600.0)


def small_critical_matches():
    """Critical graphs on <= 5 vertices, recounted with is_critical over the
    census enumeration (the report's extras keep only their number)."""
    out = []
    for g in enumerate_signed(EnumSpec(n_max=5, allow_digons=True)):
        if not g.has_negative_loop and is_critical(g, P103):
            out.append(g)
    return out
