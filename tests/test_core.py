import random

import pytest

from sgchrom.core import (
    NEG,
    POS,
    GraphError,
    SignedMultigraph,
    canonical_signature,
    contains_switching_subgraph,
    cycle_sign,
    format_graph_text,
    is_switching_equivalent,
    is_switching_isomorphic,
    make_graph,
    parse_graph_text,
    relabel,
    switch,
    switching_set,
)

from conftest import (
    assert_embedding,
    negative_cycle_fingerprint,
    oracle_embedding,
    oracle_switch_equivalent,
    oracle_switching_isomorphic,
    random_signed_graph,
)


def neg_triangle():
    return make_graph(3, [(0, 1, NEG), (0, 2, NEG), (1, 2, NEG)])


def digon():
    return make_graph(2, [(0, 1, NEG), (0, 1, POS)])


class TestMakeGraph:
    def test_digon(self):
        g = digon()
        assert g.n == 2 and g.m == 2 and not g.is_simple

    def test_single_vertex(self):
        g = make_graph(1, [])
        assert g.n == 1 and g.m == 0 and g.is_simple

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            make_graph(2, [(0, 2, NEG)])

    def test_dedupe_rejects_same_sign_parallel(self):
        make_graph(2, [(0, 1, NEG), (0, 1, NEG)])  # fine without dedupe
        with pytest.raises(GraphError):
            make_graph(2, [(0, 1, NEG), (1, 0, NEG)], dedupe=True)

    def test_negative_loop_flagged(self):
        g = make_graph(1, [(0, 0, NEG)])
        assert g.has_negative_loop
        assert not make_graph(1, [(0, 0, POS)]).has_negative_loop

    def test_bad_sign(self):
        with pytest.raises(GraphError):
            make_graph(2, [(0, 1, 2)])


class TestSwitch:
    def test_digon_invariant(self):
        g = digon()
        assert switch(g, {0}) == g

    def test_all_negative_triangle(self):
        g = neg_triangle()
        s = switch(g, {0})
        assert s == make_graph(3, [(0, 1, POS), (0, 2, POS), (1, 2, NEG)])

    def test_empty_identity(self):
        g = neg_triangle()
        assert switch(g, set()) == g

    def test_loop_unchanged(self):
        g = make_graph(1, [(0, 0, NEG)])
        assert switch(g, {0}) == g

    def test_symmetric_difference_composition(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_signed_graph(rng)
            xs = {v for v in range(g.n) if rng.random() < 0.5}
            ys = {v for v in range(g.n) if rng.random() < 0.5}
            assert switch(switch(g, xs), ys) == switch(g, xs ^ ys)


class TestCycleSign:
    def test_negative_triangle(self):
        assert cycle_sign(neg_triangle(), [0, 1, 2]) == NEG

    def test_digon_two_cycle(self):
        assert cycle_sign(digon(), [0, 1]) == NEG

    def test_not_closed(self):
        g = make_graph(3, [(0, 1, POS), (1, 2, POS)])
        with pytest.raises(GraphError):
            cycle_sign(g, [0, 1])

    def test_bad_index(self):
        with pytest.raises(GraphError):
            cycle_sign(neg_triangle(), [5])

    def test_invariant_under_switching(self):
        rng = random.Random(11)
        g = make_graph(
            4, [(0, 1, NEG), (1, 2, POS), (2, 3, NEG), (3, 0, POS), (0, 2, NEG)]
        )
        walks = [[0, 1, 4], [4, 2, 3], [0, 1, 2, 3]]
        for _ in range(50):
            xs = {v for v in range(4) if rng.random() < 0.5}
            for w in walks:
                assert cycle_sign(switch(g, xs), w) == cycle_sign(g, w)


class TestSwitchingEquivalence:
    def test_one_negative_vs_all_negative_triangle(self):
        one = make_graph(3, [(0, 1, POS), (0, 2, POS), (1, 2, NEG)])
        assert oracle_switch_equivalent(neg_triangle(), one)
        assert is_switching_equivalent(neg_triangle(), one)

    def test_negative_vs_positive_triangle(self):
        pos = make_graph(3, [(0, 1, POS), (0, 2, POS), (1, 2, POS)])
        assert not is_switching_equivalent(neg_triangle(), pos)

    def test_switch_is_equivalent(self):
        rng = random.Random(3)
        for _ in range(200):
            g = random_signed_graph(rng, allow_digons=True)
            xs = {v for v in range(g.n) if rng.random() < 0.5}
            assert is_switching_equivalent(g, switch(g, xs))

    def test_underlying_mismatch_raises(self):
        with pytest.raises(GraphError):
            is_switching_equivalent(digon(), make_graph(2, [(0, 1, NEG)]))

    def test_exhaustive_against_brute_force_n4(self):
        rng = random.Random(5)
        for _ in range(300):
            g1 = random_signed_graph(rng, n_max=4, allow_digons=True)
            flips = [rng.choice((1, -1)) for _ in g1.edges]
            g2 = SignedMultigraph(
                g1.n, tuple((u, v, s * f) for (u, v, s), f in zip(g1.edges, flips))
            )
            assert is_switching_equivalent(g1, g2) == oracle_switch_equivalent(g1, g2)

    def test_negative_cycle_set_criterion_exhaustive_n5(self):
        # Fixed underlying graphs on 5 vertices; equivalence holds exactly
        # when the negative cycle sets coincide.
        bases = [
            make_graph(5, [(0, 1, POS), (1, 2, POS), (2, 3, POS), (3, 4, POS), (4, 0, POS), (1, 3, POS), (2, 4, POS)]),
            make_graph(5, [(0, 1, POS), (0, 2, POS), (0, 3, POS), (0, 4, POS), (1, 2, POS), (3, 4, POS)]),
        ]
        for base in bases:
            sigs = []
            for bits in range(1 << base.m):
                sigs.append(
                    SignedMultigraph(
                        base.n,
                        tuple(
                            (u, v, NEG if bits >> i & 1 else POS)
                            for i, (u, v, s) in enumerate(base.edges)
                        ),
                    )
                )
            prints = [negative_cycle_fingerprint(g) for g in sigs]
            rng = random.Random(9)
            idx = rng.sample(range(len(sigs)), 40)
            for i in idx:
                for j in idx:
                    assert is_switching_equivalent(sigs[i], sigs[j]) == (
                        prints[i] == prints[j]
                    )

    def test_switching_set_is_a_witness(self):
        rng = random.Random(13)
        for _ in range(100):
            g = random_signed_graph(rng, allow_digons=True)
            xs = {v for v in range(g.n) if rng.random() < 0.5}
            h = switch(g, xs)
            found = switching_set(g, h)
            assert found is not None
            assert switch(g, found) == h


def constraint_rule_switching_set(g1, g2):
    """Reference decision rule: each pair whose sign multiset fits only
    one flip of g2's fixes x_u xor x_v, a pair that fits neither flip or
    a loop mismatch refutes, and the constraints are solved by a
    2-colouring that gives each component's lowest vertex 0."""
    if g1.loop_signs() != g2.loop_signs():
        return None
    p2 = g2.pair_signs()
    adj = [[] for _ in range(g1.n)]
    for (u, v), sig in g1.pair_signs().items():
        other = p2[(u, v)]
        keep = sig == other
        flip = sig == tuple(sorted((-s for s in other), reverse=True))
        if not (keep or flip):
            return None
        if keep != flip:
            adj[u].append((v, int(flip)))
            adj[v].append((u, int(flip)))
    colour = [-1] * g1.n
    for root in range(g1.n):
        if colour[root] != -1:
            continue
        colour[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for (v, parity) in adj[u]:
                if colour[v] == -1:
                    colour[v] = colour[u] ^ parity
                    stack.append(v)
                elif colour[v] != colour[u] ^ parity:
                    return None
    return frozenset(v for v in range(g1.n) if colour[v])


def random_multigraph(rng, n_max=6):
    """Up to three parallel edges per pair (digons and same-sign
    parallels alike) and up to two loops per vertex, random signs."""
    n = rng.randint(1, n_max)
    edges = []
    for u in range(n):
        edges += [(u, u, rng.choice((POS, NEG))) for _ in range(rng.choice((0, 0, 0, 1, 2)))]
        for v in range(u + 1, n):
            edges += [(u, v, rng.choice((POS, NEG))) for _ in range(rng.choice((0, 1, 1, 2, 3)))]
    rng.shuffle(edges)
    return SignedMultigraph(n, tuple(edges))


class TestSwitchingSetAgainstConstraintRule:
    """switching_set against the per-pair constraint rule and the 2^n
    brute force, on graphs with loops, same-sign parallels and digons."""

    def check(self, g1, g2):
        want = constraint_rule_switching_set(g1, g2)
        assert switching_set(g1, g2) == want
        assert (want is not None) == oracle_switch_equivalent(g1, g2)
        if want is not None:
            assert switch(g1, want) == g2
        return want is not None

    def test_switchings_and_near_misses(self):
        rng = random.Random(41)
        hits = 0
        for _ in range(600):
            g = random_multigraph(rng)
            h = switch(g, [v for v in range(g.n) if rng.random() < 0.5])
            hits += self.check(g, h)
            if h.m:
                i = rng.randrange(h.m)
                (u, v, s) = h.edges[i]
                self.check(g, SignedMultigraph(h.n, h.edges[:i] + ((u, v, -s),) + h.edges[i + 1:]))
        assert hits == 600

    def test_random_resignings(self):
        rng = random.Random(43)
        hits = 0
        for _ in range(900):
            g = random_multigraph(rng, n_max=5)
            h = SignedMultigraph(g.n, tuple((u, v, s if rng.random() < 0.7 else -s) for (u, v, s) in g.edges))
            hits += self.check(g, h)
        assert 100 < hits < 900


class TestCanonicalSignature:
    def test_positive_tree_fixed(self):
        g = make_graph(4, [(0, 1, POS), (1, 2, POS), (1, 3, POS)])
        assert canonical_signature(g) == g

    def test_one_negative_triangle_normal_form(self):
        # Forest edges forced positive; the lone cotree pair keeps the class.
        g = neg_triangle()
        c = canonical_signature(g)
        assert is_switching_equivalent(g, c)
        signs = sorted(s for (_, _, s) in c.edges)
        assert signs == [NEG, POS, POS]

    def test_idempotent_on_random_graphs(self):
        rng = random.Random(17)
        for _ in range(1000):
            g = random_signed_graph(rng, allow_digons=True)
            c = canonical_signature(g)
            assert canonical_signature(c) == c
            assert is_switching_equivalent(g, c)

    def test_respects_classes(self):
        rng = random.Random(19)
        for _ in range(300):
            g = random_signed_graph(rng, allow_digons=True)
            xs = {v for v in range(g.n) if rng.random() < 0.5}
            assert canonical_signature(g) == canonical_signature(switch(g, xs))


def complete_pair(n):
    """The all-negative K_n and its copy with edge (0, 1) positive."""
    neg = make_graph(n, [(u, v, NEG) for u in range(n) for v in range(u + 1, n)])
    one = make_graph(n, [(u, v, POS if (u, v) == (0, 1) else NEG) for (u, v, _) in neg.edges])
    return neg, one


class TestSwitchingIsomorphism:
    def test_k4_switched(self):
        k4 = make_graph(4, [(u, v, NEG) for u in range(4) for v in range(u + 1, 4)])
        assert is_switching_isomorphic(k4, switch(k4, {2}))

    def test_t_vs_t_plus(self):
        from sgchrom.catalog import build

        assert not is_switching_isomorphic(build("T").graph, build("T_PLUS").graph)

    def test_petersen_round_trip(self):
        from sgchrom.catalog import build

        rng = random.Random(23)
        g = build("PETERSEN").graph
        for _ in range(3):
            perm = list(range(g.n))
            rng.shuffle(perm)
            xs = {v for v in range(g.n) if rng.random() < 0.5}
            h = relabel(switch(g, xs), perm)
            assert is_switching_isomorphic(g, h)

    def test_distinguishes_classes(self):
        one = make_graph(3, [(0, 1, POS), (0, 2, POS), (1, 2, NEG)])
        pos = make_graph(3, [(0, 1, POS), (0, 2, POS), (1, 2, POS)])
        assert is_switching_isomorphic(neg_triangle(), one)
        assert not is_switching_isomorphic(neg_triangle(), pos)

    def test_parity_prunes_partial_maps(self, monkeypatch):
        # The all-negative K8 against its copy with edge (0, 1) positive:
        # no placement of (0, 1) and a third vertex can be switched, so the
        # search stops at depth 2 instead of walking all 8! maps.
        from sgchrom import core

        calls = []
        fits = core._fits

        def counting(*args):
            calls.append(args)
            return fits(*args)

        monkeypatch.setattr(core, "_fits", counting)
        neg, one = complete_pair(8)
        # The search itself: is_switching_isomorphic tells these apart first.
        assert core._embed(neg, one) is None
        assert len(calls) <= 2000

    def test_triangle_counts_decide_first(self, monkeypatch):
        # Searched with the positive edge in g, the mismatch shows only
        # deep in the tree (1.5 s at n = 8); the negative triangle counts
        # tell the graphs apart before any search, in both orders.
        from sgchrom import core

        monkeypatch.setattr(core, "_embed", lambda g, h: pytest.fail("searched"))
        neg, one = complete_pair(8)
        assert not is_switching_isomorphic(one, neg)
        assert not is_switching_isomorphic(neg, one)

    def test_slow_order_work_guard(self, monkeypatch):
        # With the positive edge in g every partial map fits until late;
        # forward checking over the switching graph keeps the proof to a
        # few thousand nodes at n = 7 (3,589), where a search over vertex
        # maps alone walks (n - 2)! of them.  Counted in nodes: with a
        # checkpoint at every node, each node reads the clock once.
        from sgchrom import core, solver

        nodes = []
        monkeypatch.setattr(solver, "_HAND_OFF_NODES", 1)
        monkeypatch.setattr(solver, "_CHECK_NODES", 1)
        monkeypatch.setattr(solver._Deadline, "check_clock", lambda self: nodes.append(1))
        neg, one = complete_pair(7)
        assert core._embed(one, neg) is None
        assert 0 < len(nodes) <= 5000

    def test_size_guard(self):
        g = SignedMultigraph(13, ())
        with pytest.raises(GraphError):
            is_switching_isomorphic(g, g)


class TestSwitchingIsomorphismAgainstReference:
    """Every class with n <= 4 (digons included) against every class with
    as many vertices, and a relabelled, switched copy of each, checked
    against the all-bijections reference."""

    @pytest.fixture(scope="class")
    def classes(self):
        from sgchrom.campaigns import EnumSpec, enumerate_signed

        return list(enumerate_signed(EnumSpec(n_max=4, allow_digons=True)))

    def test_class_pairs(self, classes):
        for i, g in enumerate(classes):
            for j, h in enumerate(classes):
                if g.n != h.n:
                    continue
                want = oracle_switching_isomorphic(g, h)
                assert want == (i == j)  # one representative per class
                assert is_switching_isomorphic(g, h) == want
                if g.m == h.m:
                    assert (contains_switching_subgraph(g, h) is not None) == want

    def test_relabelled_switched_copies(self, classes):
        rng = random.Random(37)
        for g in classes:
            perm = list(range(g.n))
            rng.shuffle(perm)
            xs = {v for v in range(g.n) if rng.random() < 0.5}
            h = relabel(switch(g, xs), perm)
            assert oracle_switching_isomorphic(g, h)
            assert is_switching_isomorphic(g, h) and is_switching_isomorphic(h, g)
            phi, ys = contains_switching_subgraph(g, h)
            assert relabel(switch(g, ys), [phi.index(v) for v in range(g.n)]) == h


class TestContainsSwitchingSubgraph:
    def test_t_plus_contains_t(self):
        from sgchrom.catalog import build

        t = build("T").graph
        tp = build("T_PLUS").graph
        found = contains_switching_subgraph(tp, t)
        assert found is not None
        phi, xs = found
        switched = switch(tp, xs)
        pairs = switched.pair_signs()
        for (u, v, s) in t.edges:
            key = (min(phi[u], phi[v]), max(phi[u], phi[v]))
            assert s in pairs[key]

    def test_positive_c5_has_no_negative_triangle(self):
        c5 = make_graph(5, [(i, (i + 1) % 5, POS) for i in range(5)])
        assert contains_switching_subgraph(c5, neg_triangle()) is None

    def test_petersen_has_no_k4(self):
        from sgchrom.catalog import build

        k4 = make_graph(4, [(u, v, NEG) for u in range(4) for v in range(u + 1, 4)])
        assert contains_switching_subgraph(build("PETERSEN").graph, k4) is None

    def test_found_embeddings_verify(self):
        rng = random.Random(29)
        h = neg_triangle()
        hits = 0
        for _ in range(300):
            g = random_signed_graph(rng, n_max=6, p_edge=0.6)
            found = contains_switching_subgraph(g, h)
            if found is None:
                continue
            hits += 1
            phi, xs = found
            pairs = switch(g, xs).pair_signs()
            for (u, v, s) in h.edges:
                key = (min(phi[u], phi[v]), max(phi[u], phi[v]))
                assert s in pairs[key]
        assert hits > 10


def random_pattern(rng, g):
    """Some edges of g on some of its vertices, relabelled and switched,
    so that it always embeds."""
    verts = rng.sample(range(g.n), rng.randint(1, min(4, g.n)))
    index = {v: i for i, v in enumerate(verts)}
    kept = [(index[u], index[v], s) for (u, v, s) in g.edges if u in index and v in index and rng.random() < 0.7]
    h = SignedMultigraph(len(verts), tuple(kept))
    return switch(h, {v for v in range(h.n) if rng.random() < 0.5})


class TestEmbeddingAgainstReference:
    """contains_switching_subgraph against the all-maps, all-switches
    reference on seeded random multigraphs, g up to 5 vertices and h up
    to 4, with loops, digons and same-sign parallels.  Dense graphs put
    many cycles under each map, so a wrong switch parity shows."""

    def test_random_pairs(self):
        rng = random.Random(41)
        hits = misses = 0
        for _ in range(400):
            g = random_multigraph(rng, n_max=5)
            h = random_multigraph(rng, n_max=4) if rng.random() < 0.5 else random_pattern(rng, g)
            found = contains_switching_subgraph(g, h)
            assert (found is not None) == (oracle_embedding(g, h) is not None)
            if found is None:
                misses += 1
            else:
                hits += 1
                assert_embedding(g, h, found)
        assert hits > 100 and misses > 100

    def test_patterns_embed(self):
        rng = random.Random(43)
        for _ in range(200):
            g = random_multigraph(rng, n_max=5)
            h = random_pattern(rng, g)
            assert_embedding(g, h, contains_switching_subgraph(g, h))


class TestTextFormat:
    def test_round_trip(self):
        rng = random.Random(31)
        for _ in range(50):
            g = random_signed_graph(rng, allow_digons=True)
            assert parse_graph_text(format_graph_text(g)) == g

    def test_comments_and_blanks(self):
        text = "# a comment\n2 1\n\n0 1 -  # inline\n"
        g = parse_graph_text(text)
        assert g.edges == ((0, 1, NEG),)

    def test_error_carries_line_number(self):
        with pytest.raises(GraphError, match="line 3"):
            parse_graph_text("2 2\n0 1 -\n0 1 bad\n")

    def test_wrong_edge_count(self):
        with pytest.raises(GraphError):
            parse_graph_text("2 2\n0 1 -\n")
