"""Named signed graphs, their published colorings, and the sparse
critical-family constructions.

Every graph here is a literal edge list, reviewed once, with no
generation logic, so a transcription slip is caught by the golden
coloring check rather than silently reproduced.  Colorings are stored
as +-[5] labels of the (10, 3) clique.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .clique import CliqueParams, color_from_label
from .core import NEG, POS, SignedMultigraph, make_graph
from .solver import Homomorphism

P103 = CliqueParams(10, 3)


@dataclass(frozen=True)
class NamedGraph:
    name: str
    graph: SignedMultigraph
    description: str
    expected_chi_c: Optional[Fraction] = None
    golden_labels: Optional[dict[str, int]] = None
    vertex_names: Optional[tuple[str, ...]] = None

    def golden_coloring(self) -> Optional[Homomorphism]:
        if self.golden_labels is None:
            return None
        assignment = tuple(
            color_from_label(self.golden_labels[name]) for name in self.vertex_names
        )
        return Homomorphism(P103, assignment)


def _graph(n, edges):
    return make_graph(n, edges, dedupe=True)


def _k4_minus() -> NamedGraph:
    edges = [(u, v, NEG) for u in range(4) for v in range(u + 1, 4)]
    return NamedGraph(
        "K4_MINUS",
        _graph(4, edges),
        "complete graph on four vertices, all edges negative",
        expected_chi_c=Fraction(4, 1),
    )


def _digon() -> NamedGraph:
    return NamedGraph(
        "DIGON",
        make_graph(2, [(0, 1, POS), (0, 1, NEG)]),
        "two vertices joined by one positive and one negative edge",
        expected_chi_c=Fraction(4, 1),
    )


_T_NAMES = ("v1", "v2", "v3", "v4", "v5")
_T_EDGES = [
    (0, 1, POS), (1, 2, POS), (2, 3, POS), (3, 4, POS), (4, 0, POS),  # rim
    (1, 3, NEG),  # v2 v4
    (2, 4, NEG),  # v3 v5
]


def _t() -> NamedGraph:
    return NamedGraph(
        "T",
        _graph(5, _T_EDGES),
        "positive 5-cycle v1..v5 with negative chords v2v4 and v3v5",
        expected_chi_c=Fraction(10, 3),
        golden_labels={"v1": 1, "v2": 3, "v3": 5, "v4": -2, "v5": -4},
        vertex_names=_T_NAMES,
    )


def _t_plus() -> NamedGraph:
    return NamedGraph(
        "T_PLUS",
        _graph(5, _T_EDGES + [(0, 2, POS)]),
        "T with the positive chord v1v3 added",
        vertex_names=_T_NAMES,
    )


_H6_NAMES = ("u", "v", "w", "up", "vp", "wp")


def _h1() -> NamedGraph:
    edges = [
        (0, 1, POS), (1, 2, POS), (0, 2, POS),          # inner positive triangle uvw
        (5, 1, NEG), (5, 0, POS),                       # wp
        (3, 2, NEG), (3, 1, POS),                       # up
        (4, 0, NEG), (4, 2, POS),                       # vp
    ]
    return NamedGraph(
        "H1",
        _graph(6, edges),
        "positive triangle uvw; each outer vertex joins two triangle "
        "vertices, one negatively and one positively",
        golden_labels={"u": 1, "v": 2, "w": 3, "vp": 4, "up": -5, "wp": -4},
        vertex_names=_H6_NAMES,
    )


def _h2() -> NamedGraph:
    edges = [
        (0, 1, NEG), (1, 2, NEG), (0, 2, NEG),
        (3, 4, NEG), (4, 5, NEG), (3, 5, NEG),
        (0, 3, NEG), (1, 4, NEG), (2, 5, NEG),
    ]
    return NamedGraph(
        "H2",
        _graph(6, edges),
        "two negative triangles joined by an all-negative perfect matching",
        golden_labels={"w": 1, "u": -2, "v": 4, "wp": 5, "up": 1, "vp": -3},
        vertex_names=_H6_NAMES,
    )


def _h2p() -> NamedGraph:
    edges = [
        (0, 1, NEG), (1, 2, NEG), (0, 2, NEG),
        (3, 4, NEG), (4, 5, POS), (3, 5, POS),
        (0, 3, NEG), (1, 4, NEG), (2, 5, NEG),
    ]
    return NamedGraph(
        "H2P",
        _graph(6, edges),
        "H2 with two edges of the second triangle made positive",
        golden_labels={"w": 1, "v": 4, "u": -2, "wp": -3, "vp": -2, "up": -5},
        vertex_names=_H6_NAMES,
    )


_H3_NAMES = ("u", "v", "w", "x", "y", "z")


def _h3() -> NamedGraph:
    edges = [
        (0, 3, NEG), (3, 4, NEG), (4, 5, NEG), (5, 1, NEG), (1, 4, NEG), (3, 5, NEG),
        (2, 0, POS), (2, 1, POS), (0, 1, POS),
    ]
    return NamedGraph(
        "H3",
        _graph(6, edges),
        "negative triangle xyz with tails to u and v, capped by a "
        "positive triangle uvw",
        golden_labels={"w": -5, "u": -5, "v": -3, "x": -2, "y": 1, "z": 4},
        vertex_names=_H3_NAMES,
    )


_H4_NAMES = ("v", "x", "u", "w2", "z", "y")
_H4_CORE = [
    (2, 1, NEG), (1, 3, NEG), (3, 4, NEG), (4, 5, NEG), (5, 3, NEG), (1, 4, NEG),
    (0, 4, POS), (2, 5, POS),
]


def _h4() -> NamedGraph:
    return NamedGraph(
        "H4",
        _graph(6, _H4_CORE + [(0, 2, POS)]),
        "negative triangle-pair core with pendant v joined positively to u and z",
        golden_labels={"v": 2, "x": -2, "u": -5, "w2": 1, "z": 4, "y": -3},
        vertex_names=_H4_NAMES,
    )


def _h4p() -> NamedGraph:
    return NamedGraph(
        "H4P",
        _graph(6, _H4_CORE + [(0, 2, NEG)]),
        "H4 with the vu edge negative instead of positive",
        golden_labels={"v": -1, "x": -2, "u": -5, "w2": 1, "z": 4, "y": -3},
        vertex_names=_H4_NAMES,
    )


_CUBE_NAMES = ("u", "v", "w1", "w2", "w3", "w4", "x", "y")


def _cube_neg() -> NamedGraph:
    edges = [
        (2, 0, NEG), (0, 1, NEG), (1, 5, NEG), (5, 7, NEG),
        (7, 6, NEG), (6, 2, NEG), (3, 0, NEG), (4, 1, NEG),
        (2, 5, POS), (6, 3, POS), (3, 4, POS), (4, 7, POS),
    ]
    return NamedGraph(
        "CUBE_NEG",
        _graph(8, edges),
        "the cube with a signature making every 4-cycle negative",
        golden_labels={"u": 1, "v": 4, "w1": -2, "w2": -3, "w3": -2, "w4": -3, "x": -5, "y": 5},
        vertex_names=_CUBE_NAMES,
    )


_EIGHT_NAMES = ("u", "v", "w1", "w2", "w3", "w4", "x1", "y1")
_EIGHT_CORE = [
    (2, 0, NEG), (0, 1, NEG), (1, 5, NEG), (5, 6, NEG), (6, 2, NEG), (2, 7, NEG),
    (3, 0, NEG), (4, 1, NEG),
    (3, 4, POS), (5, 7, POS),
]


# Per variant: the signs of the x1-w2 and y1-w3 edges, and golden labels.
_EIGHT_VARIANTS = {
    1: (NEG, NEG, {"u": 1, "v": 4, "w1": -2, "w2": -3, "w3": -2, "w4": -3, "x1": 1, "y1": -5}),
    2: (POS, POS, {"u": 1, "v": 4, "w1": 4, "w2": -3, "w3": -2, "w4": -2, "x1": -5, "y1": -4}),
    3: (POS, NEG, {"u": 1, "v": 4, "w1": -2, "w2": 5, "w3": -2, "w4": -3, "x1": 3, "y1": -5}),
    # Variant 4: w1 = -1; the label one step over fails the w1-y1 edge.
    4: (NEG, POS, {"u": 1, "v": 4, "w1": -1, "w2": -3, "w3": -2, "w4": -2, "x1": 2, "y1": -4}),
}


def _eight(idx: int) -> NamedGraph:
    sx, sy, labels = _EIGHT_VARIANTS[idx]
    edges = _EIGHT_CORE + [(6, 3, sx), (7, 4, sy)]
    return NamedGraph(
        f"EIGHT_V_{idx}",
        _graph(8, edges),
        "cubic 8-vertex graph: two adjacent degree-3 centers u,v whose "
        f"outer neighbors close up through x1,y1 (variant {idx})",
        golden_labels=dict(labels),
        vertex_names=_EIGHT_NAMES,
    )


def _petersen() -> NamedGraph:
    edges = [(i, (i + 1) % 9, NEG) for i in range(9)]
    edges += [(9, 0, NEG), (9, 3, NEG), (9, 6, NEG)]
    edges += [(1, 5, POS), (2, 7, POS), (4, 8, POS)]
    return NamedGraph(
        "PETERSEN",
        _graph(10, edges),
        "Petersen graph drawn as a negative 9-cycle plus a hub joined "
        "negatively to every third rim vertex, with three positive chords",
        expected_chi_c=Fraction(10, 3),
    )


_CATALOG_BUILDERS = {
    "K4_MINUS": _k4_minus,
    "DIGON": _digon,
    "T": _t,
    "T_PLUS": _t_plus,
    "H1": _h1,
    "H2": _h2,
    "H2P": _h2p,
    "H3": _h3,
    "H4": _h4,
    "H4P": _h4p,
    "CUBE_NEG": _cube_neg,
    "PETERSEN": _petersen,
    "EIGHT_V_1": lambda: _eight(1),
    "EIGHT_V_2": lambda: _eight(2),
    "EIGHT_V_3": lambda: _eight(3),
    "EIGHT_V_4": lambda: _eight(4),
}


def names() -> list[str]:
    return list(_CATALOG_BUILDERS)


def build(name: str) -> NamedGraph:
    """Named graph by catalog identifier; raises KeyError for unknown names."""
    if name in _CATALOG_BUILDERS:
        return _CATALOG_BUILDERS[name]()
    raise KeyError(f"unknown catalog name {name!r}")


def golden_colorings() -> list[tuple[NamedGraph, Homomorphism]]:
    """Every catalog graph that ships with a coloring, paired with it."""
    out = []
    for name in names():
        ng = build(name)
        hom = ng.golden_coloring()
        if hom is not None:
            out.append((ng, hom))
    return out


def negative_cycle(length: int) -> SignedMultigraph:
    """Cycle of the given length with exactly one negative edge.

    length 2 is the digon.  All members of the switching class of an
    unbalanced cycle look like this after normalization.
    """
    if length < 2:
        raise ValueError("negative cycle needs length >= 2")
    if length == 2:
        return build("DIGON").graph
    edges = [(i, i + 1, POS) for i in range(length - 1)] + [(length - 1, 0, NEG)]
    return make_graph(length, edges)


@dataclass(frozen=True)
class IndicatorGadget:
    """Five-vertex all-negative gadget forcing its ends apart.

    Built from an all-negative K4 by splitting one vertex into s
    (degree 2) and t (degree 1).  In any (10, 3)-coloring the colors of
    s and t are at cyclic distance at least 2, i.e. 2/3 on the circle.
    """

    graph: SignedMultigraph
    s: int
    t: int


def indicator() -> IndicatorGadget:
    edges = [(0, 1, NEG), (0, 2, NEG), (1, 2, NEG), (1, 3, NEG), (2, 3, NEG), (3, 4, NEG)]
    return IndicatorGadget(make_graph(5, edges), s=0, t=4)


def hajos_graph(k: int) -> SignedMultigraph:
    """k-th graph of the iterated Hajos construction, all edges positive.

    Start from K6; each step sums the current graph with a fresh K6:
    delete one edge ab here and one edge cd there, identify a with c,
    join b and d.  The k-th graph has 5k+1 vertices and 14k+1 edges and
    is 6-chromatic in the classical sense.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def k6_edges(offset: int, skip: Optional[tuple[int, int]] = None):
        out = []
        for u in range(6):
            for v in range(u + 1, 6):
                if skip is not None and (u, v) == skip:
                    continue
                out.append((offset + u, offset + v, POS))
        return out

    n = 6
    edges = k6_edges(0)
    for _ in range(k - 1):
        a, b, _s = edges[0]          # delete first edge ab of the current graph
        edges = edges[1:]
        # Fresh K6 on {a} + five new vertices, with its 0-1 edge deleted;
        # K6 vertex 0 is identified with a, vertex 1 becomes d = n.
        fresh = []
        for (u, v, _s2) in k6_edges(0, skip=(0, 1)):
            mu = a if u == 0 else n + (u - 1)
            mv = a if v == 0 else n + (v - 1)
            fresh.append((mu, mv, POS))
        edges = edges + fresh + [(b, n, POS)]
        n += 5
    return make_graph(n, edges)


def apply_indicator(g: SignedMultigraph) -> SignedMultigraph:
    """Replace every edge uv of an all-positive loopless graph with a fresh
    copy of the :func:`indicator` gadget, s identified with u, t with v,
    and the inner vertices numbered after every earlier vertex in order.

    The result has |V| + 3|E| vertices and 6|E| edges, all negative.
    """
    if any(u == v for (u, v, _) in g.edges):
        raise ValueError("apply_indicator requires a loopless graph")
    if any(s != POS for (_, _, s) in g.edges):
        raise ValueError("apply_indicator expects an all-positive carrier graph")
    gad = indicator()
    inner = [w for w in range(gad.graph.n) if w not in (gad.s, gad.t)]
    n = g.n
    edges = []
    for (u, v, _) in g.edges:
        at = {gad.s: u, gad.t: v, **{w: n + i for i, w in enumerate(inner)}}
        n += len(inner)
        edges += [(at[a], at[b], s) for (a, b, s) in gad.graph.edges]
    return make_graph(n, edges)
