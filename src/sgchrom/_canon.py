"""Canonical labeling and automorphisms of small edge-colored multigraphs.

Graphs are given as a vertex count plus a mapping (i, j) -> state for
i < j, where the state is a small positive integer (an edge color; for
plain graphs 1 = edge, for the enumeration here 2 = digon).  Canonical
form is computed by color refinement plus full individualization; the
search explores every branch, so the labelings achieving the minimal
code also yield the complete automorphism group.  Intended for n <= 10.
"""

from __future__ import annotations

PairStates = dict[tuple[int, int], int]


def _refine(nbrs: list[list[tuple[int, int]]], colors: list[int]) -> list[int]:
    """Color refinement to a stable partition; ``nbrs[v]`` lists v's
    neighbours u with the pair state, as (u, state).

    A round only splits cells (a signature starts with the old color).
    When it splits none, the partition is stable and the next round
    would return these same ranks, so it is not run."""
    cells = len(set(colors))
    while True:
        sigs = [
            (colors[v], tuple(sorted((colors[u], st) for u, st in row)))
            for v, row in enumerate(nbrs)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if len(order) == cells:
            return new
        colors, cells = new, len(order)


def canonical_form(n: int, pairs: PairStates):
    """Return (code, labelings) where code is the minimal encoding (the
    upper-triangle state vector of the relabeled graph) and labelings are
    all old->new maps achieving it."""
    if n == 0:
        return ((), [[]])
    adj = [[0] * n for _ in range(n)]
    for (a, b), st in pairs.items():
        adj[a][b] = adj[b][a] = st
    nbrs = [[(u, st) for u, st in enumerate(row) if st] for row in adj]
    leaves: list[tuple[tuple, list[int]]] = []

    def descend(colors: list[int]):
        colors = _refine(nbrs, colors)
        cells: dict[int, list[int]] = {}
        for v, c in enumerate(colors):
            cells.setdefault(c, []).append(v)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = cells[c]
                break
        if target is None:
            # Discrete partition: the colors are the labeling old -> new.
            inv = [0] * n
            for old, new in enumerate(colors):
                inv[new] = old
            code = tuple(adj[inv[i]][inv[j]] for i in range(n) for j in range(i + 1, n))
            leaves.append((code, colors))
            return
        for v in target:
            # Individualized vertex gets a strictly smaller color so the
            # refinement ordering stays deterministic.
            nxt = [2 * c for c in colors]
            nxt[v] -= 1
            descend(nxt)

    descend([0] * n)
    best = min(code for code, _ in leaves)
    labs = [lab for code, lab in leaves if code == best]
    return best, labs


def automorphisms(labs: list[list[int]]) -> list[tuple[int, ...]]:
    """Automorphism group of the canonical graph, the input relabeled by
    min(labs), given the labelings ``canonical_form`` returned for it.

    Every lab sends the input onto the same code, so lab o min(labs)^-1
    fixes the canonical graph; the search visits every leaf, so these
    are all of its automorphisms."""
    base = min(labs)
    inv_base = [0] * len(base)
    for old, new in enumerate(base):
        inv_base[new] = old
    return sorted({tuple(lab[old] for old in inv_base) for lab in labs})
