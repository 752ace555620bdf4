"""Signed circular cliques and their color structure.

The target of a circular p/q-coloring is the signed clique on colors
0..p-1 (p even, p >= 2q > 0): two colors at cyclic distance d are joined
by a negative edge iff d >= q and by a positive edge iff d <= p/2 - q.
Every color carries a positive loop (d = 0).  Colors i and i + p/2 are
*anti-twins*: their adjacencies to any third color carry opposite signs.

For the main target (p, q) = (10, 3) the ten colors are written
+-1..+-5, with color i <-> label i+1 for i in 0..4 and i <-> -(i-4) for
i in 5..9; negating a label is the same as taking the antipode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import NEG, POS, SignedMultigraph


@dataclass(frozen=True, order=True)
class CliqueParams:
    """Parameters (p, q) of a signed circular clique; p even, p >= 2q > 0."""

    p: int
    q: int

    def __post_init__(self):
        if self.q <= 0 or self.p < 2 * self.q or self.p % 2 != 0:
            raise ValueError(f"need even p >= 2q > 0, got p={self.p}, q={self.q}")

    @property
    def half(self) -> int:
        return self.p // 2


def _params(params) -> CliqueParams:
    if isinstance(params, CliqueParams):
        return params
    return CliqueParams(*params)


def cyclic_distance(p: int, i: int, j: int) -> int:
    d = abs(i - j) % p
    return min(d, p - d)


def _check_color(params: CliqueParams, c: int) -> int:
    if not (0 <= c < params.p):
        raise ValueError(f"color {c} out of range 0..{params.p - 1}")
    return c


def adjacency(params, i: int, j: int) -> frozenset[int]:
    """Set of signs joining colors i and j (possibly empty, possibly both)."""
    pr = _params(params)
    _check_color(pr, i)
    _check_color(pr, j)
    d = cyclic_distance(pr.p, i, j)
    out = set()
    if d >= pr.q:
        out.add(NEG)
    if d <= pr.half - pr.q:
        out.add(POS)
    return frozenset(out)


def antipode(params, i: int) -> int:
    pr = _params(params)
    _check_color(pr, i)
    return (i + pr.half) % pr.p


@lru_cache(maxsize=None)
def _neighbor_masks(pr: CliqueParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(positive, negative) neighbor bitmasks for every color.

    Adjacency depends only on cyclic distance, so color c's masks are
    color 0's rotated by c."""
    p, full = pr.p, (1 << pr.p) - 1
    dist = [cyclic_distance(p, 0, j) for j in range(p)]
    pos = sum(1 << j for j, d in enumerate(dist) if d <= pr.half - pr.q)
    neg = sum(1 << j for j, d in enumerate(dist) if d >= pr.q)
    return tuple(tuple((m << c | m >> (p - c)) & full for c in range(p)) for m in (pos, neg))


def neighbor_mask(params, c: int, s: int) -> int:
    """Bitmask over colors adjacent to c by sign s (self included via loop)."""
    pr = _params(params)
    _check_color(pr, c)
    pos, neg = _neighbor_masks(pr)
    return pos[c] if s == POS else neg[c]


def neighbor_set(params, c: int, s: int) -> frozenset[int]:
    mask = neighbor_mask(params, c, s)
    return frozenset(j for j in range(_params(params).p) if mask >> j & 1)


def hat_clique(params) -> SignedMultigraph:
    """Signed subgraph induced by colors 0..p/2-1, positive loops included.

    Anti-twin identification makes this an equivalent homomorphism
    target for the full clique.  Edge order: per vertex i ascending, the
    loop first, then pairs (i, j) with j > i, positive sign before
    negative when both are present.
    """
    pr = _params(params)
    h = pr.half
    edges = []
    for i in range(h):
        edges.append((i, i, POS))
        for j in range(i + 1, h):
            signs = adjacency(pr, i, j)
            if POS in signs:
                edges.append((i, j, POS))
            if NEG in signs:
                edges.append((i, j, NEG))
    return SignedMultigraph(h, tuple(edges))


# -- the +-[5] labels of the ten colors at (10, 3) -------------------------

LABEL_CYCLE = (1, 2, 3, 4, 5, -1, -2, -3, -4, -5)


def label_from_color(c: int) -> int:
    """Label of a color of the (10, 3) clique: 0..4 -> 1..5, 5..9 -> -1..-5."""
    if not (0 <= c < 10):
        raise ValueError(f"color {c} out of range 0..9")
    return c + 1 if c < 5 else -(c - 4)


def color_from_label(label: int) -> int:
    if 1 <= label <= 5:
        return label - 1
    if -5 <= label <= -1:
        return -label + 4
    raise ValueError(f"label {label} not in +-1..+-5")
