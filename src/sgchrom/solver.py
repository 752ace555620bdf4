"""Edge-sign-preserving homomorphisms into signed circular cliques.

``find_sp_hom`` decides colorability exactly, one connected component at
a time, with two deciders.  It starts with FC-CBJ: backtracking search
with forward checking and conflict-directed backjumping (Prosser 1993)
along a static maximum-cardinality order.  A search that reaches its
first checkpoint, at 2,048 nodes, where it also reads the clock, hands
the component to bucket elimination (Dechter 1999) in the reverse of
the same order, provided that no list domains are given, p <= 32, and
the elimination's largest join grid has at most 2**20 cells; otherwise
FC-CBJ carries on.  Each elimination function is stored once per
rotation class: rotating every color is an automorphism of the clique,
and only the component's first vertex is pinned, so a function is known
from its values with its first argument at color 0.  That divides the
work and the memory of elimination by p.

Both deciders return the same witness, the lexicographically first
coloring in the static order with the first vertex at color 0: forward
checking and backjumping discard only values and subtrees that contain
no solution, and elimination's back-substitution gives each vertex the
least color that extends to a solution.

``chi_c`` walks candidate fractions p/q in strictly increasing order
and returns the first colorable one together with a witness and the
list of rejected fractions, so the answer is the minimum within the
denominator budget.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

from .clique import CliqueParams, _neighbor_masks, _params, adjacency
from .core import POS, SignedMultigraph, components


class NegativeLoopError(ValueError):
    """Coloring was requested for a graph with a negative loop."""


class SearchDeadlineExceeded(RuntimeError):
    """Cooperative deadline hit before the search finished."""


class EnumerationTruncated(RuntimeError):
    """enumerate_homs hit its cap; the stream is incomplete."""

    def __init__(self, cap: int):
        super().__init__(f"enumeration truncated at cap={cap}")
        self.cap = cap


class CeilingExhausted(RuntimeError):
    """No candidate fraction up to the ceiling was colorable."""

    def __init__(self, ceiling: Fraction, q_max: int):
        super().__init__(f"no colorable fraction <= {ceiling} with q <= {q_max}")
        self.ceiling = ceiling
        self.q_max = q_max


@dataclass(frozen=True)
class Homomorphism:
    """A vertex -> color map into the clique with the given parameters."""

    params: CliqueParams
    assignment: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.assignment[v]


def verify_hom(g: SignedMultigraph, h: Homomorphism) -> bool:
    """Check every edge constraint, loops included."""
    if len(h.assignment) != g.n:
        return False
    if any(not (0 <= c < h.params.p) for c in h.assignment):
        return False
    for (u, v, s) in g.edges:
        if s not in adjacency(h.params, h.assignment[u], h.assignment[v]):
            return False
    return True


# FC-CBJ reads the clock every _CHECK_NODES nodes of a component's search;
# at the first such checkpoint the component may switch to elimination.
_CHECK_NODES = 2048


class _SwitchToElimination(Exception):
    """Raised out of FC-CBJ at a checkpoint when elimination takes over."""

    def __init__(self, parents: list[list[int]]):
        super().__init__()
        self.parents = parents


class _Deadline:
    """Node counter of one find_sp_hom call.  At each checkpoint it reads
    the clock, and at a component's first checkpoint it may switch the
    component to elimination."""

    __slots__ = ("t_end", "nodes", "next_check", "planner")

    def __init__(self, seconds: Optional[float]):
        self.t_end = None if seconds is None else time.monotonic() + seconds
        self.nodes = 0
        self.next_check = _CHECK_NODES
        self.planner = None

    def start(self, planner: Optional[Callable[[], Optional[list[list[int]]]]]):
        """A component's search begins.  ``planner`` is called at its first
        checkpoint; a plan it returns switches the component to elimination."""
        self.next_check = self.nodes + _CHECK_NODES
        self.planner = planner

    def tick(self):
        self.nodes += 1
        if self.nodes == self.next_check:
            self.next_check += _CHECK_NODES
            self.check_clock()
            planner, self.planner = self.planner, None
            if planner is not None:
                parents = planner()
                if parents is not None:
                    raise _SwitchToElimination(parents)

    def check_clock(self):
        if self.t_end is not None and time.monotonic() > self.t_end:
            raise SearchDeadlineExceeded()


def _pair_tables(g: SignedMultigraph, pr: CliqueParams):
    """Per ordered adjacent pair (u, v): color-of-u -> allowed mask for v.

    Clique adjacency is symmetric, so (u, v) and (v, u) share one tuple,
    and a single edge's tuple is its sign's neighbor masks.  Parallel
    edges intersect their constraints, so a digon yields the
    intersection of both sign neighborhoods.  Keys appear in first
    occurrence order, (u, v) before (v, u).  Positive loops are always
    satisfiable and are dropped here (negative loops must be rejected by
    the caller).
    """
    pos, neg = _neighbor_masks(pr)
    tables: dict[tuple[int, int], tuple[int, ...]] = {}
    for (u, v, s) in g.edges:
        if u == v:
            continue
        tab = pos if s == POS else neg
        old = tables.get((u, v))
        if old is not None:
            tab = tuple(x & y for x, y in zip(old, tab))
        tables[(u, v)] = tables[(v, u)] = tab
    return tables


def _static_order(g: SignedMultigraph, vertices: Sequence[int]) -> list[int]:
    """Static search order: start at a maximum-degree vertex, then greedily
    take the vertex with the most already-ordered neighbors (ties: higher
    degree, then lower index).  Deterministic, and it keeps forward
    checking constantly engaged on gadget-like graphs.  Degrees (a loop
    counts 2) and neighbor sets come from one pass over the edges."""
    deg = dict.fromkeys(vertices, 0)
    nbrs: dict[int, set[int]] = {v: set() for v in vertices}
    for (a, b, _) in g.edges:
        if a in deg:
            deg[a] += 1
        if b in deg:
            deg[b] += 1
            if a in deg and a != b:
                nbrs[a].add(b)
                nbrs[b].add(a)
    placed = dict.fromkeys(vertices, 0)  # already-ordered neighbors
    order: list[int] = []
    rest = set(vertices)
    while rest:
        best = max(rest, key=lambda v: (placed[v], deg[v], -v))
        order.append(best)
        rest.discard(best)
        for u in nbrs[best]:
            placed[u] += 1
    return order


def _search(order, domains, tables, deadline, pr) -> Optional[list[int]]:
    """Forward checking with conflict-directed backjumping.

    Plain chronological backtracking re-enumerates the internal solutions
    of already-satisfied private substructures (edge gadgets, pendant
    trees) while a later part of the graph is the real culprit, which is
    exponentially wasteful on gadget-replaced graphs.  Backjumping keeps
    the search complete and deterministic: on a wipeout the conflict is
    charged to the depths that pruned the wiped vertex, and an exhausted
    vertex jumps straight to the deepest depth in its conflict set.

    ``domains`` is mutated during the search.
    """
    n = len(order)
    pos_in_order = {v: i for i, v in enumerate(order)}
    later = [[] for _ in range(n)]
    for i, v in enumerate(order):
        for (a, b) in tables:
            if a == v and pos_in_order[b] > i:
                later[i].append((pos_in_order[b], b, tables[(a, b)]))
    assignment = [-1] * n
    # past_fc[j]: depths whose assignments pruned order[j]'s domain.
    past_fc: list[set[int]] = [set() for _ in range(n)]
    conf_set: list[set[int]] = [set() for _ in range(n)]
    JUMP_DONE = n + 1

    def assign(i: int) -> int:
        """Returns JUMP_DONE on success, else the depth to jump back to."""
        if i == n:
            return JUMP_DONE
        v = order[i]
        dom = domains[v]
        while dom:
            bit = dom & -dom
            dom ^= bit
            c = bit.bit_length() - 1
            deadline.tick()
            trail = []
            wiped = -1
            for (j, w, tab) in later[i]:
                old = domains[w]
                new = old & tab[c]
                if new != old:
                    trail.append((j, w, old))
                    domains[w] = new
                    past_fc[j].add(i)
                    if new == 0:
                        wiped = j
                        break
            if wiped >= 0:
                conf_set[i] |= past_fc[wiped] - {i}
            else:
                assignment[i] = c
                target = assign(i + 1)
                if target == JUMP_DONE:
                    return JUMP_DONE
                assignment[i] = -1
                if target < i:
                    # Being jumped over: undo and reset this level's state.
                    for (j, w, old) in trail:
                        domains[w] = old
                        past_fc[j].discard(i)
                    conf_set[i] = set()
                    return target
            for (j, w, old) in trail:
                domains[w] = old
                past_fc[j].discard(i)
        # Domain exhausted: jump to the deepest depth that constrained us.
        conflicts = conf_set[i] | past_fc[i]
        if not conflicts:
            return -1
        target = max(conflicts)
        conf_set[target] |= conflicts - {target}
        conf_set[i] = set()
        return target

    try:
        result = assign(0)
    finally:
        # assign reaches itself through its closure; emptying that cell
        # frees the search state now rather than at a full collection.
        del assign
    if result == JUMP_DONE:
        return [assignment[i] for i in range(n)]
    return None


# -- bucket elimination ----------------------------------------------------

# Largest join grid (cells, after the rotation quotient) elimination accepts;
# a component whose plan needs more stays on FC-CBJ.
_MAX_GRID_CELLS = 1 << 20
# Masks are uint32, so p <= 32; the bits a rotation shifts past bit 31
# lie at or above p, where the join drops them anyway.
_MAX_ELIMINATION_P = 32
# Cells per chunk of a join grid: 64 KB per temporary.  Larger chunks cost
# resident memory, smaller ones Python loop overhead.
_CHUNK_CELLS = 1 << 14


def _plan(order: Sequence[int], tables, p: int) -> Optional[list[list[int]]]:
    """The scopes of bucket elimination in the reverse of ``order``, or None
    when its largest join grid would exceed _MAX_GRID_CELLS.

    ``parents[j]`` lists, ascending, the earlier positions that the
    functions in position j's bucket range over: its earlier neighbors,
    plus the scope of every message sent to it.  Eliminating j sends the
    bucket of the latest member of ``parents[j]`` a message over the
    others.  The join grid at j has p ** (len(parents[j]) - 1) cells,
    since the first member is held at color 0.
    """
    pos = {v: i for i, v in enumerate(order)}
    parents: list[set[int]] = [set() for _ in order]
    for (a, b) in tables:
        if a in pos and pos[a] < pos[b]:
            parents[pos[b]].add(pos[a])
    for j in range(len(order) - 1, 0, -1):
        if parents[j]:
            u = max(parents[j])
            parents[u] |= parents[j] - {u}
            if p ** (len(parents[j]) - 1) > _MAX_GRID_CELLS:
                return None
    return [sorted(s) for s in parents]


def _eliminate(order, tables, parents, p: int, deadline: _Deadline) -> Optional[list[int]]:
    """Bucket elimination (Dechter 1999) on one component with order[0]
    pinned to color 0: colors of ``order``, or None when there are none.

    A function in position j's bucket has a scope S of earlier positions
    and gives, for colors x_S, the mask of colors of j it allows.  Every
    function commutes with rotating all colors, because the edge tables
    do and the one pinned vertex, the root, is eliminated last.  So a
    function is stored at anchor color 0, as an array ``tab`` with one
    axis per member of S[1:], indexed by colors relative to S[0]:

        f(x_S) = rot(tab[(x_S[1:] - x_S[0]) mod p], x_S[0]).

    An edge (a, b) with a earlier is the function with S = (a,) and the
    0-d ``tab = tables[(a, b)][0]``.  Eliminating j joins its bucket's masks
    with &, keeps the cells where some color of j survives, and packs that
    along the latest member of ``parents[j]``: a message for its bucket.
    Back-substitution then colors the positions in order, each with the
    least color its bucket allows given the earlier ones.  Every allowed
    color extends to a solution and every color that extends is allowed,
    so this is the lexicographically first solution in ``order``, the
    one FC-CBJ returns.
    """
    import numpy as np  # only elimination needs it; most solves never get here

    pos = {v: i for i, v in enumerate(order)}
    full = (1 << p) - 1
    buckets: list[list] = [[] for _ in order]
    for (a, b), tab in tables.items():
        if a in pos and pos[a] < pos[b]:
            buckets[pos[b]].append(((pos[a],), np.array(tab[0], dtype=np.uint32)))
    for j in range(len(order) - 1, 0, -1):
        scope = parents[j]
        if not scope:
            continue
        msg = _message(buckets[j], scope, p, full, deadline)
        if not msg.max():
            return None
        if len(scope) > 1:
            buckets[scope[-1]].append((tuple(scope[:-1]), msg.reshape((p,) * (len(scope) - 2))))
    colors = [0] * len(order)
    for j in range(1, len(order)):
        allowed = full
        for (scope, tab) in buckets[j]:
            t = colors[scope[0]]
            m = int(tab[tuple((colors[r] - t) % p for r in scope[1:])])
            allowed &= (m << t | m >> (p - t)) & full
        colors[j] = (allowed & -allowed).bit_length() - 1
    return colors


def _message(bucket, scope: Sequence[int], p: int, full: int, deadline: _Deadline):
    """Eliminate a bucket whose functions range over ``scope``.

    The join grid has one axis per member of scope[1:], scope[0] held at
    color 0.  Returns, for len(scope) > 1, the message to scope[-1]'s
    bucket: one mask over scope[-1]'s colors per row of the grid, rows in
    row-major order.  For a single-member scope it returns one cell, 1
    when the bucket is satisfiable at all and 0 when it is not.  Functions
    are read by indexing with one broadcast array per axis, so no
    temporary is larger than a chunk.  Few distinct numpy kernels are
    used: each one touched for the first time adds its code pages to the
    resident set.
    """
    import numpy as np

    d = len(scope) - 1
    k = d
    while p**k > _CHUNK_CELLS:
        k -= 1
    # A chunk spans the last k axes of the grid and, when there are more,
    # a block of colors of the axis before them; earlier axes are looped
    # over.
    grid = scope[1:]
    lead, block, trail = grid[: max(0, d - k - 1)], grid[d - k - 1 : d - k], grid[d - k :]
    step = min(p, _CHUNK_CELLS // p**k) if block else 1
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
                    val = val << t | val >> (p - t)  # bits >= p: cleared by the join
                joined &= val
            alive = np.minimum(joined, 1, out=joined).reshape(-1, p if d else 1)
            packed = alive[:, 0].copy()
            for c in range(1, alive.shape[1]):
                packed |= alive[:, c] << c
            at = (i * p + lo) * p ** max(0, k - 1)
            out[at : at + len(packed)] = packed
    return out


def find_sp_hom(
    g: SignedMultigraph,
    params,
    *,
    domains: Optional[Sequence[int]] = None,
    deadline_s: Optional[float] = None,
) -> Optional[Homomorphism]:
    """Find one edge-sign-preserving homomorphism into the clique, or None.

    The search is complete: a None answer is a proof of non-colorability.
    ``domains`` optionally restricts each vertex to a bitmask of allowed
    colors (used by list coloring).  Without that restriction the first
    branched vertex of every connected component is pinned to color 0,
    which is sound because the clique is vertex-transitive under color
    rotation.
    """
    pr = _params(params)
    if g.has_negative_loop:
        raise NegativeLoopError("graph has a negative loop; no circular coloring exists")
    full = (1 << pr.p) - 1
    if domains is None:
        doms = [full] * g.n
        pin = True
    else:
        if len(domains) != g.n:
            raise ValueError("need one domain mask per vertex")
        doms = [int(d) & full for d in domains]
        pin = False
    tables = _pair_tables(g, pr)
    deadline = _Deadline(deadline_s)
    result = [0] * g.n
    switchable = pin and pr.p <= _MAX_ELIMINATION_P
    for comp in components(g.n, ((u, v) for (u, v, _) in g.edges)):
        order = _static_order(g, comp)
        if pin:
            doms[order[0]] = 1  # color 0 only; rotation symmetry
        deadline.start(partial(_plan, order, tables, pr.p) if switchable else None)
        try:
            sol = _search(order, doms, tables, deadline, pr)
        except _SwitchToElimination as switch:
            sol = _eliminate(order, tables, switch.parents, pr.p, deadline)
        if sol is None:
            return None
        for v, c in zip(order, sol):
            result[v] = c
    return Homomorphism(pr, tuple(result))


def is_colorable(g: SignedMultigraph, params, *, deadline_s: Optional[float] = None) -> bool:
    return find_sp_hom(g, params, deadline_s=deadline_s) is not None


def enumerate_homs(
    g: SignedMultigraph, params, *, cap: Optional[int] = None
) -> Iterator[Homomorphism]:
    """Yield every sign-preserving homomorphism exactly once.

    Assignments come out in lexicographic order (vertex 0 first).  No
    symmetry breaking is applied.  If ``cap`` homomorphisms have been
    yielded and more exist, :class:`EnumerationTruncated` is raised.
    """
    pr = _params(params)
    if g.has_negative_loop:
        return
    full = (1 << pr.p) - 1
    tables = _pair_tables(g, pr)
    later = [
        [(w, tables[(v, w)]) for w in range(v + 1, g.n) if (v, w) in tables]
        for v in range(g.n)
    ]
    doms = [full] * g.n
    assignment = [0] * g.n
    count = 0

    def emit(v: int):
        nonlocal count
        if v == g.n:
            if cap is not None and count >= cap:
                raise EnumerationTruncated(cap)
            count += 1
            yield Homomorphism(pr, tuple(assignment))
            return
        dom = doms[v]
        while dom:
            bit = dom & -dom
            dom ^= bit
            c = bit.bit_length() - 1
            trail = []
            dead = False
            for (w, tab) in later[v]:
                old = doms[w]
                new = old & tab[c]
                if new != old:
                    trail.append((w, old))
                    doms[w] = new
                    if new == 0:
                        dead = True
                        break
            if not dead:
                assignment[v] = c
                yield from emit(v + 1)
            for (w, old) in trail:
                doms[w] = old
        return

    yield from emit(0)


# -- exact circular chromatic number ---------------------------------------


def candidate_params(q_max: int, ceiling: Fraction) -> list[CliqueParams]:
    """All candidate cliques with q <= q_max and value <= ceiling, one per
    rational value (the representative with minimal even p), sorted by
    strictly increasing value."""
    best: dict[Fraction, CliqueParams] = {}
    for q in range(1, q_max + 1):
        p = 2 * q
        while Fraction(p, q) <= ceiling:
            val = Fraction(p, q)
            cur = best.get(val)
            if cur is None or p < cur.p:
                best[val] = CliqueParams(p, q)
            p += 2
    return [best[v] for v in sorted(best)]


@dataclass
class ChiCResult:
    """Outcome of a chi_c computation: a claim within the stated budget."""

    value: Fraction
    params: CliqueParams
    witness: Homomorphism
    rejected: list[CliqueParams]
    q_max: int
    ceiling: Fraction
    elapsed_s: float = 0.0

    def to_json(self) -> dict:
        return {
            "chi_c": {"num": self.value.numerator, "den": self.value.denominator},
            "params": {"p": self.params.p, "q": self.params.q},
            "witness": list(self.witness.assignment),
            "rejected": [{"p": c.p, "q": c.q} for c in self.rejected],
            "q_max": self.q_max,
            "ceiling": str(self.ceiling),
            "elapsed_ms": round(self.elapsed_s * 1000.0, 3),
        }


def chi_c(
    g: SignedMultigraph,
    q_max: Optional[int] = None,
    *,
    ceiling: Optional[Fraction] = None,
    deadline_s: Optional[float] = None,
) -> ChiCResult:
    """Minimum colorable fraction p/q with q <= q_max (default |V|).

    Candidates are visited in strictly increasing rational order, each
    value once, so the first success is the minimum within the budget;
    the result records every rejected fraction.  The default ceiling is
    2 * max(2, max degree), loops not counted.
    """
    if g.n == 0:
        raise ValueError("chi_c of the empty graph is undefined")
    if g.has_negative_loop:
        raise NegativeLoopError("graph has a negative loop; chi_c is undefined")
    if q_max is None:
        q_max = g.n
    if ceiling is None:
        loopless_deg = max(
            (sum(1 for (a, b, _) in g.edges if a != b and v in (a, b)) for v in range(g.n)),
            default=0,
        )
        ceiling = Fraction(2 * max(2, loopless_deg))
    t0 = time.monotonic()
    remaining = None if deadline_s is None else deadline_s
    rejected: list[CliqueParams] = []
    for cand in candidate_params(q_max, ceiling):
        if deadline_s is not None:
            remaining = deadline_s - (time.monotonic() - t0)
            if remaining <= 0:
                raise SearchDeadlineExceeded()
        hom = find_sp_hom(g, cand, deadline_s=remaining)
        if hom is not None:
            return ChiCResult(
                value=Fraction(cand.p, cand.q),
                params=cand,
                witness=hom,
                rejected=rejected,
                q_max=q_max,
                ceiling=ceiling,
                elapsed_s=time.monotonic() - t0,
            )
        rejected.append(cand)
    raise CeilingExhausted(ceiling, q_max)
