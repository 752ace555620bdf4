"""Edge-sign-preserving homomorphisms into signed circular cliques.

All search runs in one FC-CBJ loop, ``_search``: backtracking with
forward checking and conflict-directed backjumping (Prosser 1993) along
a static order, an iterative generator with per-depth state (so no
recursion limit) that yields every coloring in lexicographic order; its
pruning and conflict sets are bitmasks over depths.
Pinned searches (the colorings below, ``core._embed``'s switching
embeddings) enter it through ``_first``: it reads the deadline, takes
one static maximum-cardinality order of the whole graph, pins each
component's root and lists the first coloring by vertex.  Backjumping
never crosses components, so they need no set-up of their own.

``find_sp_hom`` decides colorability exactly by taking that first
coloring with each root pinned to color 0.  When no list domains are
given, its search may hand off to bucket elimination (Dechter 1999) in
the reverse of the same order, at any p, provided that the static plan
fits.  A plan is the list of elimination scopes of one order; it
depends only on the graph and the order, not on p.  One width rule,
``_fits``, decides at each p whether a plan's largest join grid has at
most 2**20 cells; a plan too wide even at p = 2 is None.  Each
elimination function is stored once per rotation class:
rotating every color is an automorphism of the clique, and only the
roots are pinned, so a function is known from its values with its first
argument at color 0.  That divides the work and the memory of
elimination by p.  Each message is one join over its whole grid,
which reads a function in one of two ways: one anchored at the grid's
anchor as a broadcast view of its table, any other as a view of its
expansion, made with its anchor's color on a leading axis and its masks
rotated to match.  Every temporary of a message is at most one grid of
at most 2**20 cells.  Masks are held in the narrowest numpy type that
has p bits (uint8 up to p = 8, uint16 up to 16, uint32 up to 32, uint64
up to 64, and past that object arrays of Python ints), and one integer
matrix product packs the grid's surviving colors into the message masks.

Both deciders return the same witness, the lexicographically first
coloring in the static order with every root at color 0: forward
checking and backjumping discard only values and subtrees that contain
no solution, and elimination's back-substitution gives each vertex the
least color that extends to a solution.  ``enumerate_homs`` runs the
same loop to the end in vertex order, without pinning.

``chi_c`` walks candidate fractions p/q in strictly increasing order
and returns the first colorable one together with a witness and the
list of rejected fractions, so the answer is the minimum within the
denominator budget.  Its probes all ask about one graph, so they share
a ``_CallState``: one static order, the FC-CBJ nodes the call has
spent, and two plans, each made at most once per call (a plain search
makes its own state at its hand-off).  One is the static plan.  The
other is a greedy min-fill order (Bodlaender & Koster 2010) with its
plan, kept only when that plan's largest scope is smaller than the
static plan's, or the static plan is None; in it, elimination may
refute a probe at any p where it fits.  On Petersen its grids have
p**3 cells instead of p**4.  The min-fill order stops, with no plan, as
soon as it eliminates a vertex whose scope is too wide even at p = 2,
so a graph of large treewidth costs only the steps up to that vertex.

Two rules hand a search off (``core._embed`` and ``enumerate_homs``
never do):

1. A plain search of ``find_sp_hom`` (one without chi_c's state) hands
   off at its own node _HAND_OFF_NODES (256), a probe of ``chi_c`` at
   its own node _CHECK_NODES (2,048), if a forward check has wiped out
   a domain by then; that node is the search's first clock checkpoint.
   It first tries the min-fill refutation when that is still pending
   (rule 2) or the static plan does not fit at p, then, if it fits,
   returns static elimination's answer.  Otherwise FC-CBJ carries on to the end.  On
   the gadget graphs a plain search wipes out a domain within 32 nodes,
   and FC-CBJ nodes past 256 only delay the same elimination.  A probe
   hands off later: rule 2 already asks the min-fill refutation early,
   and at node 256 the BROOKS campaign's probes would go to elimination
   43 times instead of finishing on FC-CBJ.
2. A probe of ``chi_c`` tries the min-fill refutation at most once: at
   its first dead end (a depth whose domain is exhausted) after its call
   has spent _CHECK_NODES FC-CBJ nodes, or at the hand-off if that comes
   first.  Most probes are rejections, and a colorable one often meets
   no dead end.  A colorable plain search would pay for the min-fill
   pass and then the static one (tried at every plain hand-off, the
   gadget benchmark's mean pass took 28 % longer), so a plain search
   tries the refutation only where the static plan does not fit.

Elimination never reads the pinned domains and every function commutes
with rotation in any order, so an empty message in the min-fill order
is a complete proof of non-colorability.  A colorable answer there is
dropped and the search goes on as if it had not run, so
back-substitution runs only in the static order and every witness stays
the one above.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .clique import CliqueParams, _neighbor_masks, _params, adjacency
from .core import POS, SignedMultigraph


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


# FC-CBJ reads the clock at its hand-off node and every _CHECK_NODES
# nodes after it; the two hand-off rules of the module docstring count
# nodes against these.  A chi_c probe hands off at node _CHECK_NODES,
# every other search at node _HAND_OFF_NODES.
_CHECK_NODES = 2048
_HAND_OFF_NODES = 256


class _Deadline:
    """Wall-clock limit of one call, read at checkpoints."""

    __slots__ = ("t_end",)

    def __init__(self, seconds: Optional[float]):
        if seconds != seconds:  # NaN compares false with every time: it would never expire
            raise ValueError("deadline must be a number of seconds, not NaN")
        self.t_end = None if seconds is None else time.monotonic() + seconds

    def check_clock(self):
        if self.t_end is not None and time.monotonic() > self.t_end:
            raise SearchDeadlineExceeded()

    def left(self) -> Optional[float]:
        """Seconds left (None, unread, without a limit); raises once none are."""
        if self.t_end is None:
            return None
        rest = self.t_end - time.monotonic()
        if rest <= 0:
            raise SearchDeadlineExceeded()
        return rest


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


def _static_order(edges, n: int) -> tuple[list[int], list[int]]:
    """Static search order of the graph on 0..n-1 with ``edges``, and the
    roots: the vertices it takes with no ordered neighbor.

    Start at a maximum-degree vertex, then greedily take the vertex with
    the most already-ordered neighbors (ties: higher degree, then lower
    index).  Deterministic, and it keeps forward checking constantly
    engaged on gadget-like graphs; each component is one run, headed by
    its root.  Degrees (a loop counts 2) and neighbor sets come from one
    pass over the edges; the picks come from a heap of (-placed, -degree,
    v) entries, where an entry whose placed count has since grown is
    stale and skipped."""
    deg = [0] * n
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for (a, b, _) in edges:
        deg[a] += 1
        deg[b] += 1
        if a != b:
            nbrs[a].add(b)
            nbrs[b].add(a)
    placed: list = [0] * n  # already-ordered neighbors; None once ordered
    heap = [(0, -deg[v], v) for v in range(n)]
    heapq.heapify(heap)
    order: list[int] = []
    roots: list[int] = []
    while heap:
        k, _, v = heapq.heappop(heap)
        if placed[v] != -k:
            continue
        if not k:
            roots.append(v)
        order.append(v)
        placed[v] = None
        for u in nbrs[v]:
            if placed[u] is not None:
                placed[u] += 1
                heapq.heappush(heap, (-placed[u], -deg[u], u))
    return order, roots


def _search(order, domains, tables, deadline, elim_p=None, state=None) -> Iterator[Sequence[int]]:
    """Forward checking with conflict-directed backjumping (FC-CBJ).

    Yields every coloring of ``order`` (colors listed in that order), in
    lexicographic order.  It serves colorings into a clique and switching
    embeddings (core._embed), whose colors are the vertices of a
    switching graph; ``tables[(u, v)][c]`` is the mask of v's colors
    allowed beside color c of u.  Plain chronological backtracking
    re-enumerates the internal solutions of already-satisfied private
    substructures (edge gadgets, pendant trees) while a later part of the
    graph is the real culprit, which is exponentially wasteful on
    gadget-replaced graphs.  Backjumping keeps the search complete and deterministic: on
    a wipeout the conflict is charged to the depths that pruned the wiped
    vertex, and an exhausted depth jumps straight to the deepest depth in
    its conflict set.  After a solution the last depth's conflict set
    holds every earlier depth, so the search backs out of that
    solution's subtree one depth at a time and skips no other solution.
    Conflicts are charged only between neighbors, so they never leave a
    component, and an exhausted root ends the search.

    The search state lives in per-depth lists, not on the call stack:
    domains and their trails are read and written by depth, and the
    pruning and conflict sets are bitmasks over depths.  It reads the
    clock at its hand-off node (_CHECK_NODES with ``state``,
    _HAND_OFF_NODES without) and every _CHECK_NODES nodes after it.
    With ``elim_p`` (the clique's p) given, it hands off by the two
    rules of the module docstring, ``state`` being chi_c's _CallState:
    it stops with no coloring when _narrow_refutes proves there is none,
    or yields _eliminate's coloring, if there is one, and stops; that
    needs every root pinned to color 0.

    ``tables`` covers exactly ``order``; ``domains`` is read once.
    """
    n = len(order)
    if not n:
        yield ()
        return
    pos = {v: i for i, v in enumerate(order)}
    later: list[list] = [[] for _ in range(n)]
    for (a, b), tab in tables.items():
        i, j = pos[a], pos[b]
        if i < j:
            later[i].append((j, tab))
    dom = [domains[v] for v in order]
    assignment = [-1] * n
    untried = [0] * n  # colors of order[i] still to try at depth i
    trails: list[list] = [[] for _ in range(n)]  # domains depth i narrowed
    # past_fc[j]: bitmask of the depths whose assignments pruned depth j's domain.
    past_fc = [0] * n
    conf_set = [0] * n
    nodes = 0
    # Rule 1: the node at which the search hands off, its first checkpoint.
    hand_off = _HAND_OFF_NODES if state is None else _CHECK_NODES
    next_check = hand_off
    # Rule 2: a chi_c probe's min-fill refutation is pending until tried,
    # at a dead end from our node refute_at, the call's _CHECK_NODES-th.
    pending = elim_p is not None and state is not None
    refute_at = _CHECK_NODES - state.nodes if pending else 0
    wiped = False
    i = 0
    untried[0] = dom[0]
    try:
        while True:
            d = untried[i]
            me = 1 << i
            while d:
                bit = d & -d
                d ^= bit
                c = bit.bit_length() - 1
                nodes += 1
                if nodes == next_check:
                    next_check = nodes + _CHECK_NODES
                    deadline.check_clock()
                    if nodes == hand_off and wiped and elim_p is not None:  # rule 1
                        plans = state or _CallState()  # a plain search plans once, here
                        static = plans.static_plan(order, tables)
                        if pending or (state is None and not _fits(static, elim_p)):
                            if _narrow_refutes(order, tables, elim_p, deadline, plans):
                                return
                            pending = False
                        if _fits(static, elim_p):
                            sol = _eliminate(order, tables, static, elim_p, deadline)
                            if sol is not None:
                                yield sol
                            return
                trail = trails[i] = []
                for (j, tab) in later[i]:
                    old = dom[j]
                    new = old & tab[c]
                    if new != old:
                        trail.append((j, old))
                        dom[j] = new
                        past_fc[j] |= me
                        if new == 0:
                            wiped = True
                            conf_set[i] |= past_fc[j] ^ me
                            break
                else:  # no wipeout
                    assignment[i] = c
                    if i + 1 < n:  # descend; this depth resumes from untried[i]
                        untried[i] = d
                        i += 1
                        untried[i] = dom[i]
                        break
                    yield tuple(assignment)
                    conf_set[i] = (1 << i) - 1
                for (j, old) in trail:
                    dom[j] = old
                    past_fc[j] ^= me
            else:
                # Domain exhausted: jump to the deepest depth that constrained
                # us, undoing the depths in between and resetting their state.
                conflicts = conf_set[i] | past_fc[i]
                conf_set[i] = 0
                if not conflicts:
                    return
                if pending and nodes >= refute_at:
                    if _narrow_refutes(order, tables, elim_p, deadline, state):
                        return
                    pending = False
                target = conflicts.bit_length() - 1
                while i > target:
                    i -= 1
                    me = 1 << i
                    for (j, old) in trails[i]:
                        dom[j] = old
                        past_fc[j] ^= me
                    if i > target:
                        conf_set[i] = 0
                conf_set[target] |= conflicts ^ (1 << target)
    finally:
        if state is not None:
            state.nodes += nodes


# -- bucket elimination ----------------------------------------------------

# Largest join grid (cells, after the rotation quotient) elimination accepts,
# read by _fits alone; a graph whose plan needs more stays on FC-CBJ.
_MAX_GRID_CELLS = 1 << 20
# _expansion's read-only arrays by (p, k), filled by _message on first use.
_EXPANSIONS: dict[tuple[int, int], tuple] = {}


def _mask_type(p: int):
    """The numpy type of elimination masks at p colors: the narrowest
    unsigned type that holds p bits, up to uint64, and past 64 bits the
    object type, whose cells are Python ints.  A rotation may leave bits
    at or above p (below the top of a wider type, or anywhere in a Python
    int); the join, which starts from the full mask, drops them."""
    import numpy as np

    return np.min_scalar_type((1 << p) - 1)


def _fits(plan, p: int) -> bool:
    """Whether every join grid of ``plan`` (_plan's scopes, or None) has at
    most _MAX_GRID_CELLS cells at p colors: the one place where p meets
    the grid limit.  A scope's grid has p ** (len(scope) - 1) cells, since
    its first member is held at color 0."""
    return plan is not None and p ** (max(map(len, plan)) - 1) <= _MAX_GRID_CELLS


def _plan(order: Sequence[int], tables) -> Optional[list[list[int]]]:
    """The scopes of bucket elimination in the reverse of ``order``, or None
    once a scope is too wide to fit even at p = 2, so at any p.

    ``parents[j]`` lists, ascending, the earlier positions that the
    functions in position j's bucket range over: its earlier neighbors,
    plus the scope of every message sent to it.  Eliminating j sends the
    bucket of the latest member of ``parents[j]`` a message over the
    others.  The scopes depend only on the graph and the order, not on p:
    _fits says at which p they can be eliminated.
    """
    pos = {v: i for i, v in enumerate(order)}
    parents: list[set[int]] = [set() for _ in order]
    for (a, b) in tables:
        i, j = pos[a], pos[b]
        if i < j:
            parents[j].add(i)
    for j in range(len(order) - 1, 0, -1):
        if parents[j]:
            u = max(parents[j])
            parents[u] |= parents[j] - {u}
            if not _fits([parents[j]], 2):
                return None
    return [sorted(s) for s in parents]


def _min_fill_order(order: Sequence[int], tables) -> Optional[list[int]]:
    """The vertices of ``order`` in the reverse of a greedy min-fill
    elimination (Bodlaender & Koster, *Treewidth computations I. Upper
    bounds*, Inf. Comput. 208, 2010) of the graph whose adjacent pairs
    are the keys of ``tables``: ready for _plan and _send_messages,
    which eliminate from the end.  None as soon as it eliminates a vertex
    whose neighbors, its scope in _plan, are too wide to fit even at
    p = 2: _plan would give None in that order, and the steps after it
    could only widen the graph further.

    Each step eliminates a vertex that adds the fewest fill edges (pairs
    of its current neighbors not yet adjacent), which then join its
    neighbors into a clique.  Ties go first to a neighbor in the graph
    of the vertex eliminated last, then to lower current degree, then to
    lower index.  The picks come from a heap of (fill, degree, v)
    entries, an entry being stale once v's fill or degree has changed;
    only the ends of the new fill edges and the vertices adjacent to
    both ends of one change, so a step costs about its fill times the
    degree, and no step scans all vertices.
    """
    nbrs: dict[int, set[int]] = {v: set() for v in order}
    for (a, b) in tables:
        nbrs[a].add(b)
    adj = {v: set(ws) for v, ws in nbrs.items()}

    def fill_of(v):
        ws = adj[v]
        return (len(ws) * (len(ws) - 1) - sum(len(adj[w] & ws) for w in ws)) // 2

    fill = {v: fill_of(v) for v in order}
    heap = [(fill[v], len(adj[v]), v) for v in order]
    heapq.heapify(heap)
    eliminated: list[int] = []
    last = None
    while heap:
        f, d, v = heap[0]
        if v not in adj or fill[v] != f or len(adj[v]) != d:
            heapq.heappop(heap)
            continue
        if last is not None:
            ties = [(len(adj[u]), u) for u in nbrs[last] if u in adj and fill[u] == f]
            if ties:
                v = min(ties)[1]
        ws = adj.pop(v)
        if not _fits([ws], 2):
            return None
        for w in ws:
            adj[w].discard(v)
        changed = set(ws)
        for x, y in itertools.combinations(ws, 2):
            if y not in adj[x]:
                for w in adj[x] & adj[y]:
                    if w not in ws:  # the pair x, y among w's neighbors is no longer missing
                        fill[w] -= 1
                        changed.add(w)
                adj[x].add(y)
                adj[y].add(x)
        for w in changed:
            if w in ws:
                fill[w] = fill_of(w)
            heapq.heappush(heap, (fill[w], len(adj[w]), w))
        eliminated.append(v)
        last = v
    return eliminated[::-1]


class _CallState:
    """What the searches of one graph share: its static order and roots,
    the FC-CBJ nodes they have spent, and its elimination plans.  The
    probes of a chi_c call share one, and a plain search makes its own at
    its hand-off.  Plans do not depend on p, so each is made at most once
    per call or search, on first need, and is False until then:
    ``static``, _plan's scopes in the static order, and ``narrow``, the
    min-fill order and its scopes when those are strictly narrower (a
    smaller largest scope, or the static plan is None), else None."""

    __slots__ = ("order", "roots", "nodes", "static", "narrow")

    def __init__(self):
        self.order: Optional[list[int]] = None
        self.roots: list[int] = []
        self.nodes = 0
        self.static = self.narrow = False

    def static_plan(self, order, tables):
        if self.static is False:
            self.static = _plan(order, tables)
        return self.static


def _narrow_refutes(order, tables, p: int, deadline: _Deadline, state: _CallState) -> bool:
    """True when bucket elimination in the graph's min-fill order proves
    that it has no coloring.  It eliminates only when ``state.narrow``,
    decided here on first use, holds a plan and that plan fits at p, so
    where the static plan is narrower or as narrow, the refutation never
    runs.  False says nothing about colorability.
    """
    if state.narrow is False:
        static, sigma = state.static_plan(order, tables), _min_fill_order(order, tables)
        scopes = None if sigma is None else _plan(sigma, tables)
        narrower = scopes is not None and (static is None or max(map(len, scopes)) < max(map(len, static)))
        state.narrow = (sigma, scopes) if narrower else None
    if state.narrow is None or not _fits(state.narrow[1], p):
        return False
    sigma, scopes = state.narrow
    return _send_messages(sigma, tables, scopes, p, deadline) is None


def _send_messages(order, tables, parents, p: int, deadline: _Deadline) -> Optional[list[list]]:
    """Bucket elimination (Dechter 1999) in the reverse of ``order``: the
    buckets, each with the messages sent to it, or None when a message is
    empty, which proves that the graph has no coloring.

    A function in position j's bucket has a scope S of earlier positions
    and gives, for colors x_S, the mask of colors of j it allows.  Every
    function commutes with rotating all colors, because the edge tables
    do and eliminating a variable from functions that commute with
    rotation gives one that does too.  So a function is stored at anchor
    color 0, as an array ``tab`` with one axis per member of S[1:],
    indexed by colors relative to S[0]:

        f(x_S) = rot(tab[(x_S[1:] - x_S[0]) mod p], x_S[0]).

    An edge (a, b) with a earlier is the function with S = (a,) and the
    0-d ``tab = tables[(a, b)][0]``.  Eliminating j joins its bucket's masks
    with &, keeps the cells where some color of j survives, and packs that
    along the latest member of ``parents[j]``: a message for its bucket.
    Pinned domains are never read, so this holds in any order: a message
    that is empty everywhere means no coloring at all, pinned or not.
    """
    import numpy as np  # only elimination needs it; most solves never get here

    pos = {v: i for i, v in enumerate(order)}
    full = (1 << p) - 1
    mask = _mask_type(p)
    buckets: list[list] = [[] for _ in order]
    for (a, b), tab in tables.items():
        i, j = pos[a], pos[b]
        if i < j:
            buckets[j].append(((i,), np.array(tab[0], dtype=mask)))
    for j in range(len(order) - 1, 0, -1):
        scope = parents[j]
        if not scope:
            continue
        msg = _message(buckets[j], scope, p, full, deadline)
        if not msg.max():
            return None
        if len(scope) > 1:
            buckets[scope[-1]].append((tuple(scope[:-1]), msg.reshape((p,) * (len(scope) - 2))))
    return buckets


def _eliminate(order, tables, parents, p: int, deadline: _Deadline) -> Optional[list[int]]:
    """Bucket elimination with every root pinned to color 0: colors of
    ``order``, or None when there are none.

    After _send_messages, back-substitution colors the positions in
    order, each with the least color its bucket allows given the earlier
    ones (0 for a root, whose bucket stays empty).  Every allowed color
    extends to a solution and every color that extends is allowed, so
    this is the lexicographically first solution in ``order``, the one
    FC-CBJ returns.  Only the static order back-substitutes: the
    min-fill order of _narrow_refutes is used for refutations alone.
    """
    buckets = _send_messages(order, tables, parents, p, deadline)
    if buckets is None:
        return None
    full = (1 << p) - 1
    colors = [0] * len(order)
    for j in range(1, len(order)):
        allowed = full
        for (scope, tab) in buckets[j]:
            t = colors[scope[0]]
            m = int(tab[tuple((colors[r] - t) % p for r in scope[1:])])
            allowed &= (m << t | m >> (p - t)) & full
        colors[j] = (allowed & -allowed).bit_length() - 1
    return colors


def _expansion(p: int, k: int):
    """The index arrays that expand a function over k positions anchored
    off its grid's anchor: ``t``, its anchor's color on the leading axis
    of k, ``p - t``, and the tuple of the other members' colors shifted
    back by t, ``(c + p - t) % p``, one array per member.

    They depend only on p and k, so each is made once, read-only, and
    kept in _EXPANSIONS.  Every array has p cells on at most two axes.
    """
    got = _EXPANSIONS.get((p, k))
    if got is None:
        import numpy as np

        t, *x = np.ix_(*[np.arange(p, dtype=_mask_type(p))] * k)
        back = p - t
        index = tuple(((c + back) % p).astype(np.intp) for c in x)
        for a in (t, back, *index):
            a.flags.writeable = False
        got = _EXPANSIONS[(p, k)] = (t, back, index)
    return got


def _message(bucket, scope: Sequence[int], p: int, full: int, deadline: _Deadline):
    """Eliminate a bucket whose functions range over ``scope``.

    The join grid has one axis per member of scope[1:], scope[0] held at
    color 0.  Returns, for len(scope) > 1, the message to scope[-1]'s
    bucket: one mask over scope[-1]'s colors per row of the grid, rows in
    row-major order.  For a single-member scope it returns one cell, 1
    when the bucket is satisfiable at all and 0 when it is not.  Masks
    are of _mask_type(p) throughout.

    Functions are read in two ways.  One anchored at scope[0] is already
    in grid coordinates, its anchor being at color 0: its table is
    reshaped to a view that broadcasts over the grid (a 0-d one over
    every axis).  Any other, over a scope S, is expanded to one axis per
    member of S, its anchor's color t first: the table read at the other
    members' colors shifted back by t (index arrays from _expansion),
    each mask rotated by t.  That is the join's one mask rotation; the
    expansion is then a view like the first kind, and is freed before
    the next one is made.

    The grid has at most _MAX_GRID_CELLS cells and is joined whole, each
    function &-ed in once.  No temporary is larger than one grid: an
    expansion has p ** |S| cells, the size of the grid of the bucket that
    sent it, and is made beside one temporary of its size.  The cells
    where some color survives are packed by one integer matrix product:
    each row of p flags (one byte each) times the p weights 1 << c, which
    sums to the row's mask in the mask type.  Few distinct numpy kernels
    are used: each one touched for the first time adds its code pages to
    the resident set, and each mask type touches its own set of them.
    """
    import numpy as np

    deadline.check_clock()
    mask = _mask_type(p)
    d = len(scope) - 1
    axis = {r: a for a, r in enumerate(scope[1:])}
    joined = np.full((p,) * d, full, dtype=mask)
    for (fscope, tab) in bucket:
        if fscope[0] == scope[0]:
            over = fscope[1:]
        else:
            # One axis per member of fscope, its anchor's color t first:
            # tab[(x - t) mod p] rotated by t.
            over = fscope
            t, back, index = _expansion(p, len(fscope))
            tab = tab[index]
            high = tab >> back
            tab <<= t
            tab |= high  # bits >= p: cleared by the join
            del high  # so the next expansion is made beside one temporary, not two
        axes = tuple(axis[r] for r in over)
        joined &= tab.reshape([p if a in axes else 1 for a in range(d)])
    width = p if d else 1
    alive = (joined.reshape(-1, width) != 0).view(np.uint8)
    return alive @ (1 << np.arange(width, dtype=mask))


def _first(edges, n: int, domains, tables, pin: int, deadline=None, elim_p=None, state=None) -> Optional[list[int]]:
    """The first coloring _search yields for the graph on 0..n-1 with
    ``edges`` along _static_order's order, each root's domain cut to the
    mask ``pin``, listed by vertex; None when there is none.  ``deadline``
    (seconds, or None) is read once first; ``domains`` is mutated.  A
    ``state`` (chi_c's) keeps the order and roots for its later probes."""
    clock = _Deadline(deadline)
    clock.left()
    if state is None:
        order, roots = _static_order(edges, n)
    else:
        if state.order is None:
            state.order, state.roots = _static_order(edges, n)
        order, roots = state.order, state.roots
    for v in roots:
        domains[v] &= pin
    search = _search(order, domains, tables, clock, elim_p, state)
    sol = next(search, None)
    search.close()  # counts its nodes into ``state``
    return None if sol is None else [c for _, c in sorted(zip(order, sol))]


def find_sp_hom(
    g: SignedMultigraph,
    params,
    *,
    domains: Optional[Sequence[int]] = None,
    deadline_s: Optional[float] = None,
    _state: Optional[_CallState] = None,
) -> Optional[Homomorphism]:
    """Find one edge-sign-preserving homomorphism into the clique, or None.

    The search is complete: a None answer is a proof of non-colorability.
    ``domains`` optionally restricts each vertex to a bitmask of allowed
    colors (used by list coloring).  Without that restriction _first pins
    the root of every connected component to color 0, which is sound
    because the clique is vertex-transitive under color rotation.  A
    ``deadline_s`` that has already passed raises at once.  ``_state``
    is chi_c's alone: the _CallState its probes share.
    """
    pr = _params(params)
    if g.has_negative_loop:
        raise NegativeLoopError("graph has a negative loop; no circular coloring exists")
    full = (1 << pr.p) - 1
    if domains is None:
        doms, pin = [full] * g.n, 1  # roots at color 0 only; rotation symmetry
    else:
        if len(domains) != g.n:
            raise ValueError("need one domain mask per vertex")
        doms, pin = [int(d) & full for d in domains], full
    elim_p = pr.p if domains is None else None
    colors = _first(g.edges, g.n, doms, _pair_tables(g, pr), pin, deadline_s, elim_p, _state)
    return None if colors is None else Homomorphism(pr, tuple(colors))


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
    doms = [(1 << pr.p) - 1] * g.n
    count = 0
    for colors in _search(list(range(g.n)), doms, _pair_tables(g, pr), _Deadline(None)):
        if cap is not None and count >= cap:
            raise EnumerationTruncated(cap)
        count += 1
        yield Homomorphism(pr, colors)


# -- exact circular chromatic number ---------------------------------------


def candidate_params(q_max: int, ceiling: Fraction) -> Iterator[CliqueParams]:
    """All candidate cliques with q <= q_max and value <= ceiling, one per
    rational value (the representative with minimal even p), in strictly
    increasing order of value.

    One stream p = 2q, 2q + 2, ... per denominator is merged through a
    heap keyed (value, p, q), so the first of equal values has the least
    p and the later ones are skipped; candidates are made only as far as
    the caller reads.  The heap compares integers, not fractions: p/q is
    keyed by floor(p * M / q) with M = q_max**2.  Two different values
    with denominators at most q_max differ by at least 1 / q_max**2, so
    their keys differ by at least 1 and keep their order, and equal
    values get equal keys."""
    m = q_max * q_max
    # Each stream starts at value 2; listed by ascending p, that is a heap.
    heap = [(2 * m, 2 * q, q) for q in range(1, q_max + 1)] if ceiling >= 2 else []
    last = None
    while heap:
        key, p, q = heapq.heappop(heap)
        if key != last:
            last = key
            yield CliqueParams(p, q)
        if (p + 2) * ceiling.denominator <= ceiling.numerator * q:
            heapq.heappush(heap, ((p + 2) * m // q, p + 2, q))


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
    """Minimum colorable fraction p/q with q <= q_max (default |V|; a
    q_max below 1 raises ValueError).

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
    if q_max < 1:
        raise ValueError(f"q_max must be at least 1, got {q_max}")
    if ceiling is None:
        loopless_deg = [0] * g.n
        for (a, b, _) in g.edges:
            if a != b:
                loopless_deg[a] += 1
                loopless_deg[b] += 1
        ceiling = Fraction(2 * max(2, max(loopless_deg)))
    t0 = time.monotonic()
    deadline = _Deadline(deadline_s)
    rejected: list[CliqueParams] = []
    state = _CallState()  # shared by this call's probes
    for cand in candidate_params(q_max, ceiling):
        hom = find_sp_hom(g, cand, deadline_s=deadline.left(), _state=state)
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
