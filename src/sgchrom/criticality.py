"""Potential function, criticality tests, and the density bound.

The potential of a signed graph is 3|V| - 2|E|.  A graph is critical
for a clique target when it is not colorable but every proper subgraph
is; for that it suffices to check single-edge deletions and the absence
of isolated vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .clique import _params
from .core import SignedMultigraph, components
from .solver import NegativeLoopError, _Deadline, is_colorable


def potential(g: SignedMultigraph) -> int:
    """3|V| - 2|E|; lower means denser."""
    return 3 * g.n - 2 * g.m


def _without_edge(g: SignedMultigraph, idx: int) -> SignedMultigraph:
    return SignedMultigraph(g.n, g.edges[:idx] + g.edges[idx + 1 :])


def _isolated(g: SignedMultigraph) -> list[int]:
    touched = set()
    for (u, v, _) in g.edges:
        touched.add(u)
        touched.add(v)
    return [v for v in range(g.n) if v not in touched]


def _critical(g: SignedMultigraph, solved: Iterator[bool]) -> bool:
    """The criticality rule: not colorable, but colorable after deleting
    any single edge.

    ``solved`` yields the colorability of g and then of g minus edge i
    for i = 0..m-1; it is consumed lazily, so :func:`is_critical` stops
    solving at the first answer that decides the rule.  Isolated
    vertices disqualify without a solve: dropping one is a proper
    subgraph with the same edges.  Single-edge deletions cover all other
    proper subgraphs because colorability is monotone under taking
    subgraphs.
    """
    if g.has_negative_loop:
        raise NegativeLoopError("criticality is undefined with a negative loop")
    if g.m == 0 or _isolated(g):
        return False
    if next(solved):
        return False
    return all(solved)


def _solves(g: SignedMultigraph, pr, deadline_s: Optional[float]) -> Iterator[bool]:
    """Colorability of g, then of g minus edge i for i = 0..m-1, each
    solved only when asked for, all within one ``deadline_s``."""
    deadline = _Deadline(deadline_s)
    yield is_colorable(g, pr, deadline_s=deadline.left())
    for i in range(g.m):
        yield is_colorable(_without_edge(g, i), pr, deadline_s=deadline.left())


def is_critical(g: SignedMultigraph, params, *, deadline_s: Optional[float] = None) -> bool:
    """Not colorable, but colorable after deleting any single edge."""
    return _critical(g, _solves(g, _params(params), deadline_s))


def critical_check(
    g: SignedMultigraph, params, *, deadline_s: Optional[float] = None
) -> tuple[bool, list[bool], bool]:
    """(colorable, colorable without edge i for every i, critical).

    Unlike :func:`is_critical` this solves every single-edge deletion of
    a non-colorable graph, to report each; a colorable graph gets an
    empty list.  Each graph is solved once.
    """
    solves = _solves(g, _params(params), deadline_s)
    colorable = next(solves)
    per_edge = [] if colorable else list(solves)
    return colorable, per_edge, _critical(g, iter([colorable, *per_edge]))


def critical_subgraph(g: SignedMultigraph, params, *, deadline_s: Optional[float] = None) -> SignedMultigraph:
    """Edge-minimal non-colorable subgraph, isolated vertices dropped.

    Greedy deterministic pass: edges are probed in input order and an
    edge is deleted whenever the remainder is still non-colorable.
    Requires a non-colorable input.
    """
    pr = _params(params)
    deadline = _Deadline(deadline_s)
    if is_colorable(g, pr, deadline_s=deadline.left()):
        raise ValueError("graph is colorable; no critical subgraph exists")
    cur = g
    idx = 0
    while idx < cur.m:
        candidate = _without_edge(cur, idx)
        if not is_colorable(candidate, pr, deadline_s=deadline.left()):
            cur = candidate
        else:
            idx += 1
    iso = set(_isolated(cur))
    if not iso:
        return cur
    keep = [v for v in range(cur.n) if v not in iso]
    remap = {v: i for i, v in enumerate(keep)}
    return SignedMultigraph(
        len(keep), tuple((remap[u], remap[v], s) for (u, v, s) in cur.edges)
    )


@dataclass(frozen=True)
class DensityVerdict:
    passes: bool
    lhs: int           # |E|
    rhs_num: int       # 3|V| + 1, compared as 2|E| >= 3|V| + 1


def density_check(g: SignedMultigraph) -> DensityVerdict:
    """Exact integer check of |E| >= (3|V| + 1) / 2."""
    return DensityVerdict(passes=2 * g.m >= 3 * g.n + 1, lhs=g.m, rhs_num=3 * g.n + 1)


def is_two_connected(g: SignedMultigraph) -> bool:
    """2-connectedness of the underlying multigraph (n >= 2, connected,
    no cut vertex); a digon on two vertices counts as 2-connected."""
    if g.n < 2:
        return False

    def connected_without(skip: Optional[int]) -> bool:
        # Deleting ``skip``'s edges leaves it as one extra component.
        rest = [(u, v) for (u, v, _) in g.edges if skip not in (u, v)]
        return len(components(g.n, rest)) == 1 + (skip is not None)

    if not connected_without(None):
        return False
    return all(connected_without(v) for v in range(g.n))
