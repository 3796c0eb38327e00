"""Shared test utilities: small random graphs, seeded recolourings, vertex
and colour permutations, a bowtie's centre, an edge-list digest, a plain
enumeration of complete colourings, a brute-force packing oracle and the
trivial degree threshold."""

from __future__ import annotations

import hashlib
from typing import Callable, Optional, Sequence

import numpy as np
from hypothesis import strategies as st

from tritile.graphs import Bowtie, ColouredGraph, Triangle, complete_colouring, mask_of


def small_graphs(max_n: int = 7, r: int = 2) -> st.SearchStrategy[ColouredGraph]:
    """Random partial r-colourings on up to ``max_n`` vertices."""

    def build(n: int, code: int, keep: int) -> ColouredGraph:
        g = complete_colouring(n, r, code % (r ** (n * (n - 1) // 2)))
        edges = [e for i, e in enumerate(g.edges()) if (keep >> i) & 1]
        return ColouredGraph(n, r, edges)

    return st.builds(
        build,
        st.integers(min_value=1, max_value=max_n),
        st.integers(min_value=0),
        st.integers(min_value=0),
    )


def recolour(g: ColouredGraph, fraction: float, seed: int) -> ColouredGraph:
    """Flip the colour of ``round(fraction * |E|)`` seeded edges; degrees stay.

    The same recolouring as the benchmark's, so that its hosts can be pinned here.
    """
    edges = g.edges()
    k = max(1, round(len(edges) * fraction))
    flip = set(int(i) for i in np.random.default_rng(seed).choice(len(edges), k, replace=False))
    return ColouredGraph(g.n, g.r, [(u, v, 1 - c if i in flip else c)
                                    for i, (u, v, c) in enumerate(edges)])


def relabelled(g: ColouredGraph, perm: Sequence[int]) -> ColouredGraph:
    """Image of ``g`` under the vertex permutation ``i -> perm[i]``."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    return ColouredGraph(g.n, g.r, [(perm[u], perm[v], c) for u, v, c in g.edges()])


def recoloured(g: ColouredGraph, cperm: Sequence[int]) -> ColouredGraph:
    """Image of ``g`` under the colour permutation ``c -> cperm[c]``."""
    if sorted(cperm) != list(range(g.r)):
        raise ValueError("cperm is not a permutation of the colour set")
    return ColouredGraph(g.n, g.r, [(u, v, cperm[c]) for u, v, c in g.edges()])


def centre(bow: Bowtie) -> int:
    """The one vertex that the two triangles of ``bow`` share."""
    (v,) = set(bow.first.vertices) & set(bow.second.vertices)
    return v


def edge_digest(g: ColouredGraph) -> str:
    """A short fingerprint of the edge list, for pinning which hosts a run builds."""
    return hashlib.sha256(repr(g.edges()).encode()).hexdigest()[:16]


def oracle_max_packing(triangles: list[Triangle]) -> int:
    """Largest disjoint subfamily, by enumerating every disjoint subfamily."""
    masks = [mask_of(t[:3]) for t in triangles]
    best = 0

    def rec(start: int, used: int, count: int) -> None:
        nonlocal best
        if count > best:
            best = count
        for j in range(start, len(triangles)):
            if used & masks[j] == 0:
                rec(j + 1, used | masks[j], count + 1)

    rec(0, 0, 0)
    return best


def enumerate_colourings(n: int, r: int,
                         visitor: Callable[[int, ColouredGraph], None],
                         lo: int = 0, hi: Optional[int] = None) -> int:
    """Call ``visitor(code, graph)`` for every complete colouring in ``[lo, hi)``.

    The plain-python reference enumeration that the vector scans are
    cross-checked against.  Returns the number of colourings visited.
    """
    total = r ** (n * (n - 1) // 2)
    if hi is None:
        hi = total
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"code range [{lo}, {hi}) outside universe 0..{total}")
    for code in range(lo, hi):
        visitor(code, complete_colouring(n, r, code))
    return hi - lo


def trivial_degree_threshold(ramsey_number: int, n: int) -> int:
    """Largest min degree with a trivially triangle-tiling-free colouring.

    Below ``floor(n * (R-2) / (R-1))`` a balanced blow-up of a mono-clique-free
    colouring of K_{R-1} fits the degree budget, so no tiling guarantee can
    start there; ``R`` is the relevant Ramsey number.
    """
    if ramsey_number < 2:
        raise ValueError(f"Ramsey number must be at least 2, got {ramsey_number}")
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return n * (ramsey_number - 2) // (ramsey_number - 1)
