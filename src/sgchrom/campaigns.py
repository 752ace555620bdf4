"""Exhaustive enumeration of small signed graphs and the theorem-level
verification campaigns.

Enumeration yields one representative per switching-isomorphism class:
underlying multigraphs are generated by vertex augmentation with
canonical-form deduplication, and per underlying graph the signatures
are cotree sign vectors (spanning forest forced positive) deduplicated
as orbits under automorphisms composed with switching.  A cotree vector
is a bit vector over GF(2) holding the signs of the fundamental cycles,
which fix the switching class (Zaslavsky 1982), so each automorphism
acts on it as a linear map; orbits are marked by XOR-ing precomputed
columns, and a graph object is built only for each representative.
Augmentation skips, before canonical labelling, the children whose class
is already known: those an automorphism of the parent maps onto an
earlier child (the orbit rule), and, in a connected enumeration,
disconnected children on the last level (the connectivity cut).  Neither
rule changes which representatives come out or their order.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, NamedTuple, Optional

from . import _canon
from .catalog import apply_indicator, build, hajos_graph, negative_cycle
from .clique import CliqueParams
from .core import (
    NEG,
    POS,
    SignedMultigraph,
    bfs_forest,
    components,
    contains_switching_subgraph,
    format_graph_text,
    is_switching_isomorphic,
)
from .criticality import density_check, is_critical, is_two_connected
from .solver import CeilingExhausted, chi_c, enumerate_homs, is_colorable, verify_hom

P103 = CliqueParams(10, 3)

@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate.  allow_digons=True extends the per-pair states
    from {none, one signed edge} to {none, single, digon}; loops are
    never generated."""

    n_max: int
    max_degree: Optional[int] = None
    connected: bool = False
    allow_digons: bool = False

    def __post_init__(self):
        if not (1 <= self.n_max <= 10):
            raise ValueError("n_max must be between 1 and 10")


@dataclass
class CampaignReport:
    id: str
    cases_checked: int = 0
    failures: list = field(default_factory=list)
    elapsed_s: float = 0.0
    budget_notes: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

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
            "budget_notes": self.budget_notes,
            "extra": self.extra,
        }


# -- underlying multigraph enumeration --------------------------------------


def _underlying_classes(spec: EnumSpec):
    """Canonical representatives of all multigraphs on exactly
    2..spec.n_max vertices, with per-pair states 0/1 (0/1/2 with digons)
    and degrees within spec.max_degree, grown by vertex augmentation from
    the single-vertex graph.  Each representative is a (pair-state dict,
    automorphism group) couple; one canonical-form search per
    augmentation child gives both.

    Two rules decide children without that search, and neither changes
    the yielded stream:

    - Orbit rule (McKay, Isomorph-free exhaustive generation, 1998): an
      automorphism s of the parent maps the augmentation vector ``vec``
      to ``w`` with w[s(u)] = vec[u], and both give isomorphic children.
      ``vec`` is skipped when some s gives a lexicographically smaller
      ``w``.  The degree filter is invariant under s, and
      ``itertools.product`` visits the least member of an orbit first,
      so every code still enters ``nxt`` at the same position; its value
      (canonical graph, group) is a function of the code.
    - Connectivity cut: with spec.connected, a child on n_max vertices
      whose new vertex misses a component of the parent is disconnected.
      It is never a parent and ``enumerate_signed`` drops it, so it is
      skipped."""
    states = (0, 1, 2) if spec.allow_digons else (0, 1)
    max_degree = spec.max_degree
    reps: list[tuple[_canon.PairStates, list]] = [({}, [(0,)])]  # the 1-vertex graph
    for size in range(2, spec.n_max + 1):
        nxt: dict[tuple, tuple[_canon.PairStates, list]] = {}
        cut = spec.connected and size == spec.n_max
        for parent, auts in reps:
            deg = [0] * (size - 1)
            for (a, b), st in parent.items():
                deg[a] += st
                deg[b] += st
            comps = components(size - 1, parent) if cut else ()
            for vec in itertools.product(states, repeat=size - 1):
                newdeg = sum(vec)
                if max_degree is not None:
                    if newdeg > max_degree:
                        continue
                    if any(deg[u] + vec[u] > max_degree for u in range(size - 1)):
                        continue
                if cut and not all(any(vec[u] for u in comp) for comp in comps):
                    continue
                # The group holds every inverse, so w[i] = vec[s(i)] ranges
                # over the same images as w[s(u)] = vec[u].
                if any(tuple(vec[u] for u in perm) < vec for perm in auts):
                    continue
                pairs = dict(parent)
                for u, st in enumerate(vec):
                    if st:
                        pairs[(u, size - 1)] = st
                code, labs = _canon.canonical_form(size, pairs)
                if code not in nxt:
                    # code lists the canonical graph's states pair by pair.
                    canon = {ij: st for ij, st in zip(itertools.combinations(range(size), 2), code) if st}
                    nxt[code] = (canon, _canon.automorphisms(labs))
        reps = list(nxt.values())
        yield size, reps


def _signature_classes(
    n: int, pairs: _canon.PairStates, auts: list[tuple[int, ...]]
) -> list[SignedMultigraph]:
    """One signed representative per switching-isomorphism class over a
    fixed underlying multigraph: orbits of cotree sign vectors under its
    automorphism group ``auts``.

    Switching makes the BFS forest of the single edges positive, so a
    switching class is a vector x over GF(2) with one bit per cotree
    edge, its sign (NEG = 1); bit k-1-j belongs to ``cotree[j]``, so
    ascending x is ``itertools.product((POS, NEG), repeat=k)`` order.
    By Zaslavsky (Signed graphs, 1982) the class is fixed by its cycle
    signs, and the cotree bits are the signs of the fundamental cycles.
    An automorphism s moves cotree edge e onto s(e): if s(e) is the
    cotree edge d, x's bit e lands on d; if s(e) is a forest edge f, it
    lands on every cotree edge whose fundamental cycle uses f.  Those
    are the columns of a linear map, and the image of x is the XOR of
    the columns of its set bits.  Digons are sign-symmetric and do not
    enter.

    This equals re-normalising the relabelled graph with
    ``canonical_signature``: s keeps the single-edge pairs, bfs_forest
    sorts its neighbour lists, so the relabelled graph has the same
    forest, and switching it positive leaves each cotree edge with the
    sign of its fundamental cycle.  The first x of an orbit in ascending
    order is its representative, as before."""
    singles = sorted(p for p, st in pairs.items() if st == 1)
    digons = sorted(p for p, st in pairs.items() if st == 2)
    forest = bfs_forest(n, singles)
    parent = list(range(n))
    depth = [0] * n
    for (u, w) in forest:
        parent[w] = u
        depth[w] = depth[u] + 1
    # column[e]: the cotree bits that pair e's sign flips.  A cotree
    # edge flips its own bit; a forest edge flips every cotree edge whose
    # fundamental cycle (tree path between its ends) runs through it.
    column = {(min(u, w), max(u, w)): 0 for (u, w) in forest}
    cotree = [p for p in singles if p not in column]
    k = len(cotree)
    bit_of = {p: 1 << (k - 1 - j) for j, p in enumerate(cotree)}
    for (a, b), bit in bit_of.items():
        while a != b:
            if depth[a] < depth[b]:
                a, b = b, a
            column[(min(a, parent[a]), max(a, parent[a]))] |= bit
            a = parent[a]
    column.update(bit_of)
    # maps[i][b]: the image of bit b under auts[i], lowest bit first.
    maps = [
        [column[(min(perm[a], perm[b]), max(perm[a], perm[b]))] for (a, b) in reversed(cotree)]
        for perm in auts
    ]
    digon_edges = [(a, b, POS) for (a, b) in digons] + [(a, b, NEG) for (a, b) in digons]
    reps: list[SignedMultigraph] = []
    seen = bytearray(1 << k)
    for x in range(1 << k):
        if seen[x]:
            continue
        edges = [(a, b, NEG if bit_of.get((a, b), 0) & x else POS) for (a, b) in singles]
        reps.append(SignedMultigraph(n, tuple(sorted(edges + digon_edges))))
        for cols in maps:
            y = 0
            rest = x
            for col in cols:
                if rest & 1:
                    y ^= col
                rest >>= 1
            seen[y] = 1
    return reps


def enumerate_signed(spec: EnumSpec) -> Iterator[SignedMultigraph]:
    """Yield one representative per switching-isomorphism class, for each
    vertex count 1..n_max, in a deterministic order."""
    yield SignedMultigraph(1, ())
    for size, reps in _underlying_classes(spec):
        for pairs, auts in reps:
            if spec.connected and len(components(size, pairs)) > 1:
                continue
            for g in _signature_classes(size, pairs, auts):
                yield g


# -- campaign helpers --------------------------------------------------------


def _pmap(fn, items, threads: int):
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from multiprocessing import Pool  # deferred: a serial run never loads it

    with Pool(processes=threads) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (threads * 4)))


# -- campaigns ----------------------------------------------------------------


def campaign_T_surjective() -> CampaignReport:
    """Every homomorphism of the 5-vertex gadget T (any switching) into
    the halved (10, 3) clique must use all five target vertices.  Colors
    i and i + 5 are anti-twins, so a switch set X with such a map m is
    one coloring c of T into the whole clique, c(v) = m(v) + 5 * [v in X]:
    T's colorings decide all 10 ** 5 pairs (X, m)."""
    t = build("T").graph
    half = P103.half
    rep = CampaignReport("T_SURJECTIVE", cases_checked=P103.p ** t.n)
    colorings = [hom.assignment for hom in enumerate_homs(t, P103)]
    # Switch sets in ascending bit order, then maps in lexicographic order.
    for col in sorted(colorings, key=lambda col: ([c // half for c in col[::-1]], [c % half for c in col])):
        m = [c % half for c in col]
        if len(set(m)) < half:
            rep.failures.append({"switch_set": [v for v, c in enumerate(col) if c >= half], "map": m})
    rep.extra["valid_homomorphisms"] = len(colorings)
    if not colorings:
        rep.failures.append({"error": "no valid homomorphism exists at all"})
    return rep


def _probe_3colorable(g: SignedMultigraph) -> bool:
    return is_colorable(g, CliqueParams(6, 2))


def campaign_small_3colorable(threads: int = 1) -> CampaignReport:
    """Simple signed graphs with at most 5 vertices and 7 edges that are
    not the gadget T and contain no switching copy of the all-negative
    K4 are all circular 3-colorable."""
    rep = CampaignReport("SMALL_3COLORABLE")
    t_graph = build("T").graph
    k4 = build("K4_MINUS").graph
    graphs = []
    for g in enumerate_signed(EnumSpec(n_max=5)):
        if g.m > 7:
            continue
        if g.n == t_graph.n and g.m == t_graph.m and is_switching_isomorphic(g, t_graph):
            continue
        if g.n >= 4 and contains_switching_subgraph(g, k4) is not None:
            continue
        graphs.append(g)
    results = _pmap(_probe_3colorable, graphs, threads)
    rep.cases_checked = len(graphs)
    for g, colorable in zip(graphs, results):
        if not colorable:
            rep.failures.append({"graph": format_graph_text(g)})
    return rep


def _probe_critical(g: SignedMultigraph) -> bool:
    return is_critical(g, P103)


def campaign_small_critical(threads: int = 1) -> CampaignReport:
    """Census of the (10, 3)-critical signed graphs on at most five
    vertices, up to switching isomorphism, against the expected list
    {digon, all-negative K4, T_PLUS}.  Digons are enumerated; same-sign
    parallels are not, since a graph with one is never critical.

    The expected list is wrong in its third member: T_PLUS is
    (10, 3)-colorable, so it is never critical.  The census finds exactly
    the digon and the all-negative K4 and reports T_PLUS as "expected
    critical class not found", so this campaign fails (CLI exit 1).  The
    list is kept so that the report, which the CLI tests and the
    benchmark's verify workload compare exactly, stays as it is;
    correcting it is an open item in ROADMAP.md."""
    rep = CampaignReport("SMALL_CRITICAL")
    graphs = list(enumerate_signed(EnumSpec(n_max=5, allow_digons=True)))
    results = _pmap(_probe_critical, graphs, threads)
    rep.cases_checked = len(graphs)
    criticals = [g for g, crit in zip(graphs, results) if crit]
    expected = [build(nm).graph for nm in ("DIGON", "K4_MINUS", "T_PLUS")]
    matched = {i: None for i in range(len(expected))}
    for g in criticals:
        if not is_two_connected(g):
            rep.failures.append({"graph": format_graph_text(g), "error": "critical but not 2-connected"})
        hit = None
        for i, e in enumerate(expected):
            if g.n == e.n and g.m == e.m and is_switching_isomorphic(g, e):
                hit = i
                break
        if hit is None:
            rep.failures.append({"graph": format_graph_text(g), "error": "unexpected critical class"})
        elif matched[hit] is not None:
            rep.failures.append({"graph": format_graph_text(g), "error": "duplicate critical class"})
        else:
            matched[hit] = g
    for i, e in enumerate(expected):
        if matched[i] is None:
            rep.failures.append({"graph": format_graph_text(e), "error": "expected critical class not found"})
    rep.extra["critical_classes_found"] = len(criticals)
    return rep


def _probe_brooks(g: SignedMultigraph) -> Optional[Fraction]:
    """chi_c of g up to 10/3, or None when g is not (10, 3)-colorable."""
    try:
        return chi_c(g, ceiling=Fraction(10, 3)).value
    except CeilingExhausted:
        return None


def campaign_brooks(n_max: int = 7, threads: int = 1) -> CampaignReport:
    """Connected simple subcubic signed graphs, except the all-negative
    K4 class, are (10, 3)-colorable; the classes attaining 10/3 exactly
    (within denominator budget |V|) are recorded."""
    if n_max > 8:
        raise ValueError("brooks campaign capped at n_max = 8")
    rep = CampaignReport("BROOKS")
    k4 = build("K4_MINUS").graph
    graphs = []
    excluded = 0
    for g in enumerate_signed(EnumSpec(n_max=n_max, connected=True, max_degree=3)):
        if g.n == 4 and g.m == 6 and is_switching_isomorphic(g, k4):
            excluded += 1
            continue
        graphs.append(g)
    attains = []
    rep.cases_checked = len(graphs)
    results = _pmap(_probe_brooks, graphs, threads)
    for g, value in zip(graphs, results):
        if value is None:
            rep.failures.append({"graph": format_graph_text(g), "error": "not (10,3)-colorable"})
        elif value == Fraction(10, 3):
            attains.append(format_graph_text(g))
    rep.extra["excluded_k4_classes"] = excluded
    rep.extra["attains_10_3"] = attains
    rep.budget_notes.append(f"n_max={n_max}")
    return rep


def campaign_negative_cycles(l_max: int = 8) -> CampaignReport:
    """chi_c of the unbalanced cycle of length l is 2 + 2/(l-1), found at
    its minimal even-numerator parameters."""
    rep = CampaignReport("NEGATIVE_CYCLES")
    for length in range(2, l_max + 1):
        rep.cases_checked += 1
        g = negative_cycle(length)
        res = chi_c(g)
        want = Fraction(2) + Fraction(2, length - 1)
        if res.value != want:
            rep.failures.append(
                {"length": length, "got": str(res.value), "want": str(want)}
            )
    return rep


def campaign_petersen() -> CampaignReport:
    """The signed Petersen graph has chi_c exactly 10/3 within the
    denominator budget q <= 10: every smaller candidate fraction is
    rejected by a completed search and the witness at (10, 3) verifies."""
    rep = CampaignReport("PETERSEN")
    g = build("PETERSEN").graph
    res = chi_c(g, q_max=10)
    rep.cases_checked = len(res.rejected) + 1
    if res.value != Fraction(10, 3):
        rep.failures.append({"got": str(res.value)})
    if not verify_hom(g, res.witness):
        rep.failures.append({"error": "witness does not verify"})
    rejected = {(c.p, c.q) for c in res.rejected}
    for must in ((6, 2), (16, 5)):
        if must not in rejected:
            rep.failures.append({"error": f"expected rejection missing: {must}"})
    rep.extra["rejected"] = sorted(rejected)
    rep.extra["witness"] = list(res.witness.assignment)
    return rep


def campaign_density_family(k_max: int = 5) -> CampaignReport:
    """The gadget-replaced Hajos family has 47k+4 vertices and 84k+6
    edges; the k=1 member is non-(10,3)-colorable and meets the density
    bound."""
    rep = CampaignReport("DENSITY_FAMILY")
    for k in range(1, k_max + 1):
        rep.cases_checked += 1
        base = hajos_graph(k)
        if (base.n, base.m) != (5 * k + 1, 14 * k + 1):
            rep.failures.append({"k": k, "error": f"hajos counts {(base.n, base.m)}"})
            continue
        big = apply_indicator(base)
        if (big.n, big.m) != (47 * k + 4, 84 * k + 6):
            rep.failures.append({"k": k, "error": f"family counts {(big.n, big.m)}"})
    big1 = apply_indicator(hajos_graph(1))
    rep.cases_checked += 1
    if is_colorable(big1, P103):
        rep.failures.append({"k": 1, "error": "gadget family member is (10,3)-colorable"})
    if not density_check(big1).passes:
        rep.failures.append({"k": 1, "error": "density bound fails"})
    return rep


class _Campaign(NamedTuple):
    """A campaign runner: ``run(size, threads)``, the size it runs at when
    none is given (None: the campaign takes no size) and the sizes it takes,
    ``low`` up to ``high`` (None: unbounded)."""

    run: Callable[[Optional[int], int], CampaignReport]
    default: Optional[int] = None
    low: int = 1
    high: Optional[int] = None


_CAMPAIGNS = {
    "T_SURJECTIVE": _Campaign(lambda size, threads: campaign_T_surjective()),
    "SMALL_3COLORABLE": _Campaign(lambda size, threads: campaign_small_3colorable(threads=threads)),
    "SMALL_CRITICAL": _Campaign(lambda size, threads: campaign_small_critical(threads=threads)),
    "BROOKS": _Campaign(lambda size, threads: campaign_brooks(n_max=size, threads=threads), 7, high=8),
    "NEGATIVE_CYCLES": _Campaign(lambda size, threads: campaign_negative_cycles(l_max=size), 8, 2),
    "PETERSEN": _Campaign(lambda size, threads: campaign_petersen()),
    "DENSITY_FAMILY": _Campaign(lambda size, threads: campaign_density_family(k_max=size), 5),
}
CAMPAIGN_IDS = tuple(_CAMPAIGNS)


def run_campaign(campaign_id: str, *, n_max: Optional[int] = None, threads: int = 1) -> CampaignReport:
    """Run one campaign at size ``n_max`` (its default when None) and time
    it.  A size out of the campaign's range, a size for a campaign that
    takes none, or threads < 1 raises ValueError."""
    if campaign_id not in _CAMPAIGNS:
        raise KeyError(f"unknown campaign {campaign_id!r}; known: {', '.join(CAMPAIGN_IDS)}")
    c = _CAMPAIGNS[campaign_id]
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if n_max is None:
        n_max = c.default
    elif c.default is None:
        raise ValueError(f"campaign {campaign_id} takes no size, got n_max={n_max}")
    elif n_max < c.low or (c.high is not None and n_max > c.high):
        allowed = f"{c.low}..{c.high}" if c.high is not None else f">= {c.low}"
        raise ValueError(f"campaign {campaign_id} takes n_max {allowed}, got {n_max}")
    t0 = time.monotonic()
    rep = c.run(n_max, threads)
    rep.elapsed_s = time.monotonic() - t0
    return rep
