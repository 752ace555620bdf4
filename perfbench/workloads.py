"""The benchmark's workloads: the questions a researcher asks sgchrom, each
paired with a check against the answer the package gave when the
benchmark was defined.

Every call into the package goes through a module attribute
(``solver.chi_c``, not a name imported from it), so a traced run sees it.
The seed only shapes the inputs; the package receives the graphs alone.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

from sgchrom import campaigns, catalog, cli, core, lists, solver
from sgchrom.clique import CliqueParams

P103 = CliqueParams(10, 3)


@dataclass
class Question:
    name: str
    replay: dict  # what rebuilds this input: graph name, relabelling, switch set, deleted edge
    ask: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # None when the answer is right, else what is wrong
    asks: Optional[str] = None  # the question it asks, shared by presentations of one graph; default name


# -- chi-c -------------------------------------------------------------------

# chi_c (default q_max = |V|) of every catalog graph.
CHI_C = {
    "T": Fraction(10, 3),
    "T_PLUS": Fraction(10, 3),
    "H1": Fraction(10, 3),
    "H3": Fraction(10, 3),
    "H4": Fraction(10, 3),
    "H4P": Fraction(10, 3),
    "K4_MINUS": Fraction(4),
    "DIGON": Fraction(4),
    "H2": Fraction(3),
    "H2P": Fraction(3),
    "EIGHT_V_3": Fraction(3),
    "CUBE_NEG": Fraction(16, 5),
    "EIGHT_V_1": Fraction(14, 5),
    "EIGHT_V_2": Fraction(14, 5),
    "EIGHT_V_4": Fraction(8, 3),
    "PETERSEN": Fraction(10, 3),
}
# The PETERSEN proofs at 26/8 and 28/9 dominate (4-6 s each) and their cost
# depends on the presentation, so a pass asks for chi_c(PETERSEN) in two
# presentations (the last through the CLI) and the run pools them as one
# question: the slowest answer does not hang on one draw, and a pass stays
# short enough for a 30 s run to time two or more of them.
PETERSEN_PRESENTATIONS = 2
CYCLE_LENGTHS = range(2, 9)


def candidates_below(value: Fraction, q_max: int) -> list[tuple[int, int]]:
    """Every fraction p/q < value with p even, 2q <= p and q <= q_max, in
    increasing order, each at its smallest (p, q)."""
    best: dict[Fraction, tuple[int, int]] = {}
    for q in range(1, q_max + 1):
        p = 2 * q
        while Fraction(p, q) < value:
            best.setdefault(Fraction(p, q), (p, q))
            p += 2
    return [best[v] for v in sorted(best)]


def _present(g: core.SignedMultigraph, rng: random.Random):
    """A random relabelling plus a random switching of ``g``."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    xs = sorted(v for v in range(g.n) if rng.random() < 0.5)
    return core.switch(core.relabel(g, perm), xs), {"perm": perm, "switch": xs}


def _check_value(g, want: Fraction, q_max: int, value: Fraction, witness, rejected) -> Optional[str]:
    if value != want:
        return f"chi_c {value}, want {want}"
    if Fraction(witness.params.p, witness.params.q) != want:
        return f"witness at {witness.params.p}/{witness.params.q}, want {want}"
    if rejected != candidates_below(want, q_max):
        return "rejected list is not every candidate below the value"
    if not solver.verify_hom(g, witness):
        return "witness fails verify_hom"
    return None


def _chi_c_question(name: str, g, want: Fraction, replay: dict) -> Question:
    def check(res) -> Optional[str]:
        rejected = [(c.p, c.q) for c in res.rejected]
        return _check_value(g, want, g.n, res.value, res.witness, rejected)
    return Question(name, replay, lambda: solver.chi_c(g), check, asks=replay["graph"])


def _cli_question(name: str, g, want: Fraction, replay: dict, path: Path) -> Question:
    q_max = 10
    path.write_text(core.format_graph_text(g), encoding="utf-8")

    def ask():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["chi-c", str(path), "--q-max", str(q_max)])
        return code, out.getvalue()

    def check(answer) -> Optional[str]:
        code, text = answer
        if code != 0:
            return f"cli exit {code}"
        doc = json.loads(text)
        value = Fraction(doc["chi_c"]["num"], doc["chi_c"]["den"])
        params = CliqueParams(doc["params"]["p"], doc["params"]["q"])
        witness = solver.Homomorphism(params, tuple(doc["witness"]))
        rejected = [(c["p"], c["q"]) for c in doc["rejected"]]
        return _check_value(g, want, q_max, value, witness, rejected)

    return Question(name, {**replay, "cli": ["chi-c", "<file>", "--q-max", str(q_max)]}, ask, check,
                    asks=replay["graph"])


def chi_c_questions(rng: random.Random, workdir: Path, tiny: bool) -> list[Question]:
    graphs = [
        (f"NEG_CYCLE_{length}", catalog.negative_cycle(length), Fraction(2) + Fraction(2, length - 1))
        for length in CYCLE_LENGTHS
    ]
    names = [nm for nm in CHI_C if nm != "PETERSEN"]
    names += [] if tiny else ["PETERSEN"] * PETERSEN_PRESENTATIONS
    graphs += [(nm, catalog.build(nm).graph, CHI_C[nm]) for nm in names]
    out = []
    for i, (nm, g0, want) in enumerate(graphs):
        g, replay = _present(g0, rng)
        replay = {"graph": nm, **replay}
        if i == len(graphs) - 1:  # the last presentation is asked through the CLI
            out.append(_cli_question(f"{i}:{nm}:cli", g, want, replay, workdir / "graph.txt"))
        else:
            out.append(_chi_c_question(f"{i}:{nm}", g, want, replay))
    return out


# -- gadget ------------------------------------------------------------------

GADGET_EDGES = 6  # apply_indicator turns each carrier edge into six consecutive edges
SLOW_DELETIONS = (0, 1)


def _colourable_question(name: str, g, replay: dict) -> Question:
    def check(hom) -> Optional[str]:
        if hom is None:
            return "no (10,3)-colouring found"
        if not solver.verify_hom(g, hom):
            return "witness fails verify_hom"
        return None
    return Question(name, replay, lambda: solver.find_sp_hom(g, P103), check)


def gadget_questions(rng: random.Random, tiny: bool) -> list[Question]:
    k5 = core.make_graph(5, [(u, v, core.POS) for u in range(5) for v in range(u + 1, 5)])
    out = [_colourable_question("K5_INDICATOR", catalog.apply_indicator(k5), {"graph": "apply_indicator(K5)"})]
    if tiny:
        return out
    big = catalog.apply_indicator(catalog.hajos_graph(1))  # the DENSITY_FAMILY k=1 member
    # Deleting edge 0 or 1 (the first gadget's two edges at vertex 0, mirror
    # images of each other) takes four to six times as long as any other
    # deletion.  Edge 0 always runs, so every pass meets the slow tail once
    # and its time does not hang on the draw; then the pass's draw picks,
    # for each of the six places in a gadget, one gadget to delete that
    # edge from.
    picks = [SLOW_DELETIONS[0]]
    for place in range(GADGET_EDGES):
        picks.append(rng.choice([i for i in range(place, big.m, GADGET_EDGES) if i not in SLOW_DELETIONS]))
    for i in picks:
        g = core.SignedMultigraph(big.n, big.edges[:i] + big.edges[i + 1:])
        out.append(_colourable_question(f"DENSITY_K1-e{i}", g,
                                        {"graph": "apply_indicator(hajos_graph(1))", "deleted_edge": i}))
    return out


# -- verify ------------------------------------------------------------------

# Case counts of each campaign (threads=1, default sizes) and lemma.
CAMPAIGN_CASES = {
    "T_SURJECTIVE": 100_000,
    "SMALL_3COLORABLE": 91,
    "SMALL_CRITICAL": 1_407,
    "BROOKS": 380,
    "NEGATIVE_CYCLES": 7,
}
T_SURJECTIVE_VALID_HOMS = 40
BROOKS_ATTAINING = 4  # classes on <= 7 vertices attaining 10/3, T among them
LEMMA_CASES = {
    "OBS_K2": 20,
    "TRI_POS": 100,
    "DIST_I": 180,
    "UNION_X4": 2_046,
    "K2_SUM7": 154_560,
    "P3_SUM13": 435_541_560,
    "C4_7755": 10_000,
    "K23_INTERVALS": 64_000,
    "NEG_TRI_18": 86_493_225,
    "TWO_VERTEX": 400,
}
TINY_CAMPAIGNS = ("T_SURJECTIVE", "SMALL_3COLORABLE", "NEGATIVE_CYCLES")


def _campaign_question(cid: str, t_graph, t_plus_text: str) -> Question:
    def check(rep) -> Optional[str]:
        if rep.cases_checked != CAMPAIGN_CASES[cid]:
            return f"{rep.cases_checked} cases, want {CAMPAIGN_CASES[cid]}"
        if cid == "SMALL_CRITICAL":
            # The documented deviation: T_PLUS is colourable, so it is never
            # found critical.  This exact report is the expected answer.
            want = [{"graph": t_plus_text, "error": "expected critical class not found"}]
            if rep.failures != want or rep.extra.get("critical_classes_found") != 2:
                return "SMALL_CRITICAL differs from its documented deviation"
            return None
        if rep.failures:
            return f"{len(rep.failures)} failures"
        if cid == "T_SURJECTIVE" and rep.extra["valid_homomorphisms"] != T_SURJECTIVE_VALID_HOMS:
            return f"{rep.extra['valid_homomorphisms']} valid homomorphisms"
        if cid == "BROOKS":
            attains = [core.parse_graph_text(t) for t in rep.extra["attains_10_3"]]
            if len(attains) != BROOKS_ATTAINING:
                return f"{len(attains)} classes attain 10/3, want {BROOKS_ATTAINING}"
            if not any(g.n == 5 and g.m == 7 and core.is_switching_isomorphic(g, t_graph) for g in attains):
                return "T is not among the classes attaining 10/3"
        return None
    return Question(f"campaign:{cid}", {"campaign": cid, "threads": 1},
                    lambda: campaigns.run_campaign(cid, threads=1), check)


def _lemma_question(lid: str) -> Question:
    def check(rep) -> Optional[str]:
        if rep.cases_checked != LEMMA_CASES[lid]:
            return f"{rep.cases_checked} cases, want {LEMMA_CASES[lid]}"
        if rep.failures:
            return f"{len(rep.failures)} failures"
        return None
    return Question(f"lemma:{lid}", {"lemma": lid}, lambda: lists.verify_list_lemma(lid), check)


def verify_questions(tiny: bool) -> list[Question]:
    t_graph = catalog.build("T").graph
    t_plus_text = core.format_graph_text(catalog.build("T_PLUS").graph)
    cids = TINY_CAMPAIGNS if tiny else tuple(CAMPAIGN_CASES)
    lids = [lid for lid in LEMMA_CASES if not (tiny and lid == "NEG_TRI_18")]
    return [_campaign_question(cid, t_graph, t_plus_text) for cid in cids] + [_lemma_question(lid) for lid in lids]


# -- entry -------------------------------------------------------------------

def build(workload: str, seed: int, passno: int, workdir: Path, tiny: bool = False) -> list[Question]:
    """The workload's questions for pass ``passno`` of a run with ``seed``;
    the same seed and pass give the same inputs.  Each pass draws its own
    presentations and deletions, so a run's figures pool several draws and
    hang less on the seed."""
    rng = random.Random(f"{seed}.{passno}")
    if workload == "chi-c":
        return chi_c_questions(rng, workdir, tiny)
    if workload == "gadget":
        return gadget_questions(rng, tiny)
    if workload == "verify":
        return verify_questions(tiny)
    raise ValueError(f"unknown workload {workload!r}")
