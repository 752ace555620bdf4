"""Canonical labeling and automorphisms of small edge-colored multigraphs.

Graphs are given as a vertex count plus a mapping (i, j) -> state for
i < j, where the state is a small positive integer (an edge color; for
plain graphs 1 = edge, for the enumeration here 2 = digon).  Canonical
form is computed by color refinement plus individualization, pruned by
the automorphisms the search finds on the way (McKay, Practical graph
isomorphism, 1981): a leaf whose code equals the first or the best
leaf's gives an automorphism, the search returns to where the two paths
part, and on the first path a child in the orbit of an explored child is
skipped.  The automorphisms found generate the whole group.  Intended
for n <= 10.
"""

from __future__ import annotations

import itertools

PairStates = dict[tuple[int, int], int]


def _refine(nbrs: list[list[tuple[int, int]]], colors: list[int], scale: int) -> tuple[list[int], int]:
    """Color refinement to a stable partition, as (ranks, number of
    cells); ``nbrs[v]`` lists v's neighbours u with the pair state, as
    (u, state), and every state is below ``scale``.

    A vertex's signature is its color followed by the sorted numbers
    color(u) * scale + state, which sort as the (color(u), state) pairs
    do, so the ranks are those of the nested (color, ((c, st), ...))
    tuples.  A round only splits cells (a signature starts with the old
    color).  When it splits none, the partition is stable and the next
    round would return these same ranks, so it is not run; a discrete
    partition is stable, and its ranks are those of the colors."""
    cells = len(set(colors))
    if cells == len(colors):
        order = {c: i for i, c in enumerate(sorted(colors))}
        return [order[c] for c in colors], cells
    while True:
        sigs = [
            (colors[v], *sorted([colors[u] * scale + st for u, st in row]))
            for v, row in enumerate(nbrs)
        ]
        order = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if len(order) == cells:
            return new, cells
        colors, cells = new, len(order)


def _inverse(perm: list[int]) -> list[int]:
    inv = [0] * len(perm)
    for old, new in enumerate(perm):
        inv[new] = old
    return inv


def _orbit(seeds: list[int], gens: list[list[int]]) -> set[int]:
    """The points reachable from ``seeds`` under the permutations ``gens``."""
    orbit = set(seeds)
    stack = list(seeds)
    while stack:
        x = stack.pop()
        for g in gens:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                stack.append(y)
    return orbit


def canonical_form(n: int, pairs: PairStates):
    """Return (code, labeling, generators): code is the minimal encoding
    (the upper-triangle state vector of the relabeled graph), labeling
    is one old -> new map achieving it, and generators are permutations
    new -> new of the canonical graph whose closure is its automorphism
    group (an empty list for the trivial group).

    The tree is the full one: refine, individualize each vertex of the
    first non-singleton cell in color order, recurse.  Leaves come in
    depth-first order; the first leaf and the best leaf so far are kept.
    A later leaf with the code of one of them, under labeling lab, gives
    the automorphism gamma = ref_lab^-1 o lab of the input, and gamma
    maps the leaf's path onto the reference's.  So it maps the subtree
    below the deepest common ancestor of the two leaves, on the leaf's
    side, onto an explored one, and the search returns to that ancestor.
    On the first path, a child in the orbit of an explored child under
    the automorphisms found so far is skipped: each was found below the
    node, so it fixes the node's prefix pointwise."""
    if n == 0:
        return (), [], []
    adj = [[0] * n for _ in range(n)]
    for (a, b), st in pairs.items():
        adj[a][b] = adj[b][a] = st
    nbrs = [[(u, st) for u, st in enumerate(row) if st] for row in adj]
    scale = max(pairs.values(), default=0) + 1
    index_pairs = list(itertools.combinations(range(n), 2))
    path: list[int] = []
    # Reference leaves as (code, labeling, path); the first and the best.
    refs: list[tuple[tuple, list[int], list[int]]] = []
    # Automorphisms of the input found so far.
    autos: list[list[int]] = []

    def leaf(lab: list[int]):
        """Record a discrete partition; return the depth to go back to,
        or None to go on."""
        inv = _inverse(lab)
        code = tuple([adj[inv[i]][inv[j]] for i, j in index_pairs])
        if not refs:
            refs[:] = [(code, lab, path[:])] * 2
            return None
        for ref_code, ref_lab, ref_path in refs:
            if code == ref_code:
                inv_ref = _inverse(ref_lab)
                autos.append([inv_ref[new] for new in lab])
                depth = 0
                while path[depth] == ref_path[depth]:
                    depth += 1
                return depth
        if code < refs[1][0]:
            refs[1] = (code, lab, path[:])
        return None

    def descend(colors: list[int], on_first: bool):
        """Search below the node ``path``; return the depth of the node
        the search goes back to, or None when this subtree is done."""
        depth = len(path)
        colors, cells = _refine(nbrs, colors, scale)
        if cells == n:
            # Discrete partition: the colors are the labeling old -> new.
            return leaf(colors)
        counts = [0] * cells
        for c in colors:
            counts[c] += 1
        cell = next(c for c, k in enumerate(counts) if k > 1)
        explored: list[int] = []
        for v in [v for v, c in enumerate(colors) if c == cell]:
            # Every leaf so far lies below this first-path node, so every
            # automorphism found fixes its prefix.
            if on_first and autos and v in _orbit(explored, autos):
                continue
            # Individualized vertex gets a strictly smaller color so the
            # refinement ordering stays deterministic.
            nxt = [2 * c for c in colors]
            nxt[v] -= 1
            path.append(v)
            back = descend(nxt, on_first and not explored)
            path.pop()
            explored.append(v)
            if back is not None and back < depth:
                return back
        return None

    descend([0] * n, True)
    code, lab, _ = refs[1]
    inv = _inverse(lab)
    return code, lab, [tuple([lab[g[inv[i]]] for i in range(n)]) for g in autos]
