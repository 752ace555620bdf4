import hashlib
import itertools
import random
from types import SimpleNamespace

import numpy as np
import pytest

from sgchrom import _canon, campaigns, core
from sgchrom.campaigns import (
    CAMPAIGN_IDS,
    EnumSpec,
    _signature_classes,
    _underlying_classes,
    campaign_T_surjective,
    campaign_brooks,
    campaign_negative_cycles,
    campaign_small_3colorable,
    campaign_small_critical,
    enumerate_signed,
    run_campaign,
)
from sgchrom.catalog import build
from sgchrom.clique import CliqueParams, hat_clique
from sgchrom.core import (
    NEG,
    POS,
    SignedMultigraph,
    bfs_forest,
    canonical_signature,
    format_graph_text,
    is_switching_isomorphic,
    make_graph,
    parse_graph_text,
    relabel,
)
from sgchrom.solver import enumerate_homs, is_colorable

from conftest import oracle_sign_tensors, random_signed_graph


def census_oracle_direct(n: int, allow_digons: bool) -> int:
    """Same census, implemented as: canonical key = min over perms and
    switchings of the per-pair state vector (0 none, 1 pos, 2 neg, 3 digon)."""
    pairs = list(itertools.combinations(range(n), 2))
    pair_index = {p: i for i, p in enumerate(pairs)}
    perms = list(itertools.permutations(range(n)))
    state_values = (0, 1, 2, 3) if allow_digons else (0, 1, 2)

    def switched(state: int, flip: bool) -> int:
        if not flip or state in (0, 3):
            return state
        return 3 - state  # 1 <-> 2

    classes = set()
    for assignment in itertools.product(state_values, repeat=len(pairs)):
        best = None
        for perm in perms:
            permuted = [0] * len(pairs)
            for (u, v), st in zip(pairs, assignment):
                pu, pv = perm[u], perm[v]
                permuted[pair_index[(min(pu, pv), max(pu, pv))]] = st
            for bits in range(1 << n):
                key = tuple(
                    switched(st, ((bits >> u) & 1) != ((bits >> v) & 1))
                    for (u, v), st in zip(pairs, permuted)
                )
                if best is None or key < best:
                    best = key
        classes.add(best)
    return len(classes)


def signature_classes_by_relabelling(n, pairs, auts):
    """The orbit rule ``_signature_classes`` replaced: build each cotree
    sign vector as a graph, in itertools.product order, and mark an
    orbit by re-normalising every relabelled copy with
    ``canonical_signature``."""
    singles = sorted(p for p, st in pairs.items() if st == 1)
    digons = sorted(p for p, st in pairs.items() if st == 2)
    forest = {(min(u, w), max(u, w)) for (u, w) in bfs_forest(n, singles)}
    cotree = [p for p in singles if p not in forest]
    reps = []
    seen = set()
    for bits in itertools.product((POS, NEG), repeat=len(cotree)):
        sign_of = {p: POS for p in singles}
        for p, s in zip(cotree, bits):
            sign_of[p] = s
        edges = [(a, b, sign_of[(a, b)]) for (a, b) in singles]
        edges += [(a, b, POS) for (a, b) in digons] + [(a, b, NEG) for (a, b) in digons]
        g = SignedMultigraph(n, tuple(sorted(edges)))
        if g._key() in seen:
            continue
        reps.append(g)
        for perm in auts:
            seen.add(canonical_signature(relabel(g, perm))._key())
    return reps


class TestEnumerate:
    def test_small_connected_simple_counts(self):
        got = list(enumerate_signed(EnumSpec(n_max=3, connected=True)))
        # K1; K2 (one class); P3 (one class); K3 (two classes: balanced and not)
        assert len(got) == 5
        triangles = [g for g in got if g.n == 3 and g.m == 3]
        assert len(triangles) == 2
        assert not is_switching_isomorphic(triangles[0], triangles[1])

    def test_c4_has_two_signature_classes(self):
        got = [
            g
            for g in enumerate_signed(EnumSpec(n_max=4, connected=True))
            if g.n == 4 and g.m == 4 and all(g.degree(v) == 2 for v in range(4))
        ]
        assert len(got) == 2

    def test_digon_appears_exactly_once(self):
        got = [
            g
            for g in enumerate_signed(EnumSpec(n_max=2, allow_digons=True))
            if g.m == 2
        ]
        assert len(got) == 1
        assert got[0] == build("DIGON").graph

    def test_census_matches_brute_force(self):
        for n in (2, 3, 4):
            for allow in (False, True):
                mine = sum(
                    1
                    for g in enumerate_signed(EnumSpec(n_max=n, allow_digons=allow))
                    if g.n == n
                )
                assert mine == census_oracle_direct(n, allow), (n, allow)

    def test_no_two_classes_switching_isomorphic(self):
        got = [
            g
            for g in enumerate_signed(EnumSpec(n_max=4, allow_digons=True))
            if g.n == 4
        ]
        for g1, g2 in itertools.combinations(got, 2):
            if g1.n == g2.n and g1.m == g2.m:
                assert not is_switching_isomorphic(g1, g2)

    def test_max_degree_filter(self):
        for g in enumerate_signed(EnumSpec(n_max=5, max_degree=3)):
            assert g.max_degree() <= 3

    def test_n_max_cap(self):
        with pytest.raises(ValueError):
            EnumSpec(n_max=11)

    @pytest.mark.parametrize(
        "spec,count,digest",
        [
            (
                EnumSpec(n_max=5, allow_digons=True),
                1407,
                "066301437c382d0d88bb65463745c8dc214077f6fcd834d6b9e410777b523067",
            ),
            (
                EnumSpec(n_max=5),
                126,
                "3da4bfd34bbe33b17adf77bc38fe9d1ffbaac136121e211c55f0a68eebf3ed28",
            ),
            (
                EnumSpec(n_max=7, connected=True, max_degree=3),
                381,
                "528497670f8bd7789ee089b3d0d2c61db948260ac01c88c7aecf9eb5369d81f4",
            ),
            (
                EnumSpec(n_max=6, allow_digons=True, connected=True, max_degree=4),
                1978,
                "9ac370bdbc07880a09d4131cb8e1570a3f53f22683bc50e8d087040fe48d2045",
            ),
            (
                EnumSpec(n_max=8, connected=True, max_degree=3),
                1331,
                "88a6e55b5ceb24a511ba08b02184c3251dc450a89ee55d381c8778a00bc2c4a2",
            ),
        ],
        ids=["digons-5", "simple-5", "subcubic-connected-7", "digons-connected-6", "subcubic-connected-8"],
    )
    def test_stream_is_pinned(self, spec, count, digest):
        """The representatives, their order and their edge lists are part
        of every campaign report; pin the whole stream."""
        got = list(enumerate_signed(spec))
        text = "".join(format_graph_text(g) for g in got)
        assert len(got) == count
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "spec,calls",
        [
            (EnumSpec(n_max=5), 118),
            (EnumSpec(n_max=5, allow_digons=True), 3318),
            (EnumSpec(n_max=7, connected=True, max_degree=3), 601),
            (EnumSpec(n_max=8, connected=True, max_degree=3), 1992),
        ],
        ids=["simple-5", "digons-5", "subcubic-connected-7", "subcubic-connected-8"],
    )
    def test_canonical_form_calls(self, spec, calls, monkeypatch):
        """Work guard: the orbit rule and the last-level connectivity cut
        leave exactly this many augmentation children to canonical
        labelling (without them: 218, 5,646, 1,973 and 6,416)."""
        real = _canon.canonical_form
        seen = []

        def counting(n, pairs):
            seen.append(n)
            return real(n, pairs)

        monkeypatch.setattr(_canon, "canonical_form", counting)
        for _ in enumerate_signed(spec):
            pass
        assert len(seen) == calls

    def test_no_canonical_signature_calls(self, monkeypatch):
        """Work guard: signature orbits are marked by bit arithmetic, so
        enumeration never builds and re-normalises a relabelled graph."""
        seen = []

        def counting(g):
            seen.append(g)
            return canonical_signature(g)

        monkeypatch.setattr(core, "canonical_signature", counting)
        monkeypatch.setattr(campaigns, "canonical_signature", counting, raising=False)
        for spec in (
            EnumSpec(n_max=5, allow_digons=True),
            EnumSpec(n_max=7, connected=True, max_degree=3),
        ):
            for _ in enumerate_signed(spec):
                pass
        assert seen == []

    @pytest.mark.parametrize(
        "spec",
        [
            EnumSpec(n_max=5, allow_digons=True),
            EnumSpec(n_max=6, allow_digons=True, connected=True, max_degree=4),
        ],
        ids=["digons-5", "digons-connected-6"],
    )
    def test_orbit_maps_match_relabelling(self, spec):
        """The GF(2) orbit maps give the representatives, in the same
        order and with the same edge lists, as the rule they replaced,
        for every underlying class (disconnected ones included)."""
        checked = 0
        for size, reps in _underlying_classes(spec):
            for pairs, auts in reps:
                got = _signature_classes(size, pairs, auts)
                want = signature_classes_by_relabelling(size, pairs, auts)
                assert [g.edges for g in got] == [g.edges for g in want], (size, pairs)
                assert all(g.n == size for g in got)
                checked += 1
        assert checked > 100


def sweep_switched_maps(t: SignedMultigraph):
    """Reference for T_SURJECTIVE, independent of the search: every switch
    set X of t and every map of its vertices into the halved (10, 3)
    clique, checked edge by edge on switch(t, X) with numpy.  Returns the
    valid (X, map) pairs and, in report format, those whose map repeats a
    vertex (on five vertices: is not onto), both switch sets in ascending
    bit order, then maps in lexicographic order."""
    hat = hat_clique(CliqueParams(10, 3))
    half = hat.n
    ok = {POS: np.zeros((half, half), dtype=bool), NEG: np.zeros((half, half), dtype=bool)}
    for (u, v, s) in hat.edges:
        ok[s][u, v] = True
        ok[s][v, u] = True
    maps = np.array(list(itertools.product(range(half), repeat=t.n)), dtype=np.int64)
    valid_pairs, failures = [], []
    for switch_bits in range(1 << t.n):
        xs = {v for v in range(t.n) if switch_bits >> v & 1}
        valid = np.ones(len(maps), dtype=bool)
        for (u, v, s) in t.edges:
            s_eff = -s if ((u in xs) != (v in xs)) else s
            valid &= ok[s_eff][maps[:, u], maps[:, v]]
        sub = maps[valid]
        valid_pairs += [(tuple(sorted(xs)), tuple(row)) for row in sub.tolist()]
        bijective = (np.diff(np.sort(sub, axis=1), axis=1) != 0).all(axis=1)
        for row in sub[~bijective]:
            failures.append({"switch_set": sorted(xs), "map": row.tolist()})
    return valid_pairs, failures


def pairs_from_colorings(t: SignedMultigraph) -> set:
    """The (X, map) pairs of t's colorings into the whole (10, 3) clique:
    X holds the vertices colored 5..9, and the map reduces colors mod 5."""
    return {
        (
            tuple(v for v, c in enumerate(hom.assignment) if c >= 5),
            tuple(c % 5 for c in hom.assignment),
        )
        for hom in enumerate_homs(t, CliqueParams(10, 3))
    }


def random_looped_graph(seed: int) -> SignedMultigraph:
    rng = random.Random(seed)
    g = random_signed_graph(rng, n_max=5, allow_digons=True)
    loops = tuple((v, v, POS) for v in range(g.n) if rng.random() < 0.3)
    return SignedMultigraph(g.n, g.edges + loops)


class TestTSurjective:
    def test_passes(self):
        rep = campaign_T_surjective()
        assert rep.passed
        assert rep.cases_checked == 2**5 * 5**5
        assert rep.extra["valid_homomorphisms"] == 40

    @pytest.mark.parametrize(
        "name, count", [("T", 40), ("T_PLUS", 20), ("K4_MINUS", 0), ("H1", 120)]
    )
    def test_colorings_are_the_switched_maps_on_named_graphs(self, name, count):
        g = build(name).graph
        swept, _ = sweep_switched_maps(g)
        assert len(swept) == len(set(swept)) == count
        assert pairs_from_colorings(g) == set(swept)

    @pytest.mark.parametrize("seed", range(20))
    def test_colorings_are_the_switched_maps_on_random_graphs(self, seed):
        g = random_looped_graph(seed)
        swept, _ = sweep_switched_maps(g)
        assert pairs_from_colorings(g) == set(swept)

    def test_random_graphs_cover_loops_and_both_answers(self):
        graphs = [random_looped_graph(seed) for seed in range(20)]
        assert any(g.has_loop for g in graphs)
        counts = [len(sweep_switched_maps(g)[0]) for g in graphs]
        assert 0 in counts and any(counts)

    def test_failures_keep_the_sweep_format_and_order(self, monkeypatch):
        # T without its first edge has 500 valid pairs, 460 of them not onto.
        t = build("T").graph
        cut = SignedMultigraph(t.n, t.edges[1:])
        monkeypatch.setattr(campaigns, "build", lambda name: SimpleNamespace(graph=cut))
        rep = campaign_T_surjective()
        swept, failures = sweep_switched_maps(cut)
        assert rep.cases_checked == 10**5
        assert rep.extra["valid_homomorphisms"] == len(swept) == 500
        assert len(failures) == 460
        assert rep.failures == failures

    def test_identity_embedding_into_pentagon_form(self):
        # The halved clique drawn on the even colors is a positive 5-cycle
        # with a negative pentagram; T embeds into it vertex-by-vertex.
        pent = make_graph(
            5,
            [(i, i, POS) for i in range(5)]
            + [(i, (i + 1) % 5, POS) for i in range(5)]
            + [(i, (i + 2) % 5, NEG) for i in range(5)],
        )
        t = build("T").graph
        pairs = pent.pair_signs()
        for (u, v, s) in t.edges:
            assert s in pairs[(min(u, v), max(u, v))]
        assert is_switching_isomorphic(hat_clique(CliqueParams(10, 3)), pent)


class TestSmallCampaigns:
    def test_small_3colorable_passes(self):
        rep = campaign_small_3colorable()
        assert rep.passed
        assert rep.cases_checked > 50

    def test_t_itself_fails_6_2(self):
        assert not is_colorable(build("T").graph, (6, 2))

    def test_neg_triangle_colorable_6_2(self):
        k3 = make_graph(3, [(0, 1, NEG), (0, 2, NEG), (1, 2, NEG)])
        assert is_colorable(k3, (6, 2))

    def test_small_critical_finds_digon_and_k4_only(self):
        # The campaign's expected list includes a third class, T_PLUS (the
        # chord variant of T); T_PLUS is colorable, so the campaign reports
        # exactly that graph as missing.  See the solver-free scan below.
        rep = campaign_small_critical()
        assert rep.extra["critical_classes_found"] == 2
        assert rep.failures == [
            {
                "graph": format_graph_text(build("T_PLUS").graph),
                "error": "expected critical class not found",
            }
        ]

    def test_exhaustive_5_vertex_scan_has_no_third_critical_class(self):
        # Independent of the solver and of the enumeration machinery: every
        # labeled simple signed graph on 5 vertices (each of the 10 pairs
        # absent, positive or negative; 3^10 graphs, all edge counts) is
        # swept against every (10, 3)-coloring built from the raw-definition
        # tensors, with vertex 0 pinned to color 0 (valid by rotation
        # symmetry).  Isolated vertices make this cover every n <= 5.  A
        # digon is non-colorable on its own, so a critical graph holding one
        # is the digon itself; simple graphs are all that is left.  Their
        # edge-minimal non-colorable members must be exactly the 40 labeled
        # copies of (K4, -): 5 choices of 4 vertices times 8 switchings.
        ok = oracle_sign_tensors(10, 3)
        pairs = list(itertools.combinations(range(5), 2))
        colorings = np.array([(0,) + c for c in itertools.product(range(10), repeat=4)])

        def satisfied(pair_block):
            # One row per state assignment of pair_block, in itertools.product
            # order; column c is True iff coloring c satisfies it.
            rows = []
            for states in itertools.product((0, 1, 2), repeat=len(pair_block)):
                sat = np.ones(len(colorings), dtype=bool)
                for (u, v), st in zip(pair_block, states):
                    if st:
                        sign = POS if st == 1 else NEG
                        sat &= ok[sign][colorings[:, u], colorings[:, v]]
                rows.append(sat)
            return np.array(rows, dtype=np.float32)

        # Graph i * 3^5 + j (first five pairs in state i, last five in j) is
        # colorable iff some coloring satisfies both halves.
        colorable = (satisfied(pairs[:5]) @ satisfied(pairs[5:]).T > 0).ravel()
        states = np.array(list(itertools.product((0, 1, 2), repeat=len(pairs))))
        weights = 3 ** np.arange(len(pairs) - 1, -1, -1)
        index = np.arange(len(states))
        minimal = ~colorable
        for k in range(len(pairs)):
            deleted = index - states[:, k] * weights[k]
            minimal &= (states[:, k] == 0) | colorable[deleted]
        assert (~colorable).sum() == 2_856

        k4_padded = SignedMultigraph(5, build("K4_MINUS").graph.edges)
        criticals = [
            SignedMultigraph(
                5,
                tuple(
                    (u, v, POS if st == 1 else NEG)
                    for (u, v), st in zip(pairs, states[i])
                    if st
                ),
            )
            for i in np.flatnonzero(minimal)
        ]
        assert len(criticals) == 40
        assert all(is_switching_isomorphic(g, k4_padded) for g in criticals)


class TestBrooks:
    def test_brooks_5(self):
        rep = campaign_brooks(5)
        assert rep.passed
        attains = [parse_graph_text(t) for t in rep.extra["attains_10_3"]]
        assert len(attains) == 1
        assert is_switching_isomorphic(attains[0], build("T").graph)

    def test_brooks_4_excludes_exactly_the_k4_class(self):
        rep = campaign_brooks(4)
        assert rep.passed
        assert rep.extra["excluded_k4_classes"] == 1
        assert rep.extra["attains_10_3"] == []

    def test_cap(self):
        with pytest.raises(ValueError):
            campaign_brooks(9)

    def test_uncolorable_class_is_a_failure(self, monkeypatch):
        # chi_c raises CeilingExhausted on a graph with no fraction up to
        # 10/3; the campaign reports that graph instead of crashing.
        digon = build("DIGON").graph
        monkeypatch.setattr(campaigns, "enumerate_signed", lambda spec: iter([digon]))
        rep = campaign_brooks()
        assert rep.cases_checked == 1
        assert rep.failures == [{"graph": format_graph_text(digon), "error": "not (10,3)-colorable"}]


class TestNegativeCycles:
    def test_formula_small(self):
        rep = campaign_negative_cycles(5)
        assert rep.passed and rep.cases_checked == 4


class TestRunner:
    def test_ids(self):
        assert set(CAMPAIGN_IDS) == {
            "T_SURJECTIVE",
            "SMALL_3COLORABLE",
            "SMALL_CRITICAL",
            "BROOKS",
            "NEGATIVE_CYCLES",
            "PETERSEN",
            "DENSITY_FAMILY",
        }
        with pytest.raises(KeyError):
            run_campaign("NOPE")

    def test_runner_dispatch(self):
        rep = run_campaign("NEGATIVE_CYCLES", n_max=3)
        assert rep.id == "NEGATIVE_CYCLES" and rep.passed

    def test_runner_times_the_campaign(self):
        assert run_campaign("NEGATIVE_CYCLES", n_max=3).elapsed_s > 0
        assert campaign_negative_cycles(3).elapsed_s == 0.0

    def test_threads_give_identical_reports(self):
        serial = campaign_small_3colorable(threads=1)
        parallel = campaign_small_3colorable(threads=2)
        assert serial.cases_checked == parallel.cases_checked
        assert serial.failures == parallel.failures
