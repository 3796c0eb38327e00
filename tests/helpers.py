"""Shared test utilities: small random graphs, seeded recolourings, vertex
and colour permutations, a bowtie's centre, an edge-list digest, a plain
enumeration of complete colourings, a brute-force packing oracle, the
trivial degree threshold, and the graph-walking doubled-K7 extractor that
the table-driven one is checked against."""

from __future__ import annotations

import hashlib
from typing import Callable, Optional, Sequence

import numpy as np
from hypothesis import strategies as st

from tritile.graphs import (
    AnomalyError,
    Bowtie,
    ColouredGraph,
    MonoClique,
    Triangle,
    complete_colouring,
    first_pair,
    mask_of,
)
from tritile.proofs import _exact_set, _first_mono_triangle, extract_mono_triangle_k6


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


def claim_pair_k7(g: ColouredGraph, vertices: Optional[Sequence[int]] = None
                  ) -> Optional[tuple[MonoClique, MonoClique]]:
    """Lex-first pair of mono triangles sharing at most one vertex in a K7."""
    verts = _exact_set(g, vertices, 7, "claim_pair_k7")
    pair = first_pair(list(g.iter_mono_triangles(mask_of(verts))), 0, 1)
    return None if pair is None else (MonoClique.of(pair[0]), MonoClique.of(pair[1]))


def reference_extract_three_disjoint_k7x2(g: ColouredGraph
                                          ) -> tuple[MonoClique, MonoClique, MonoClique]:
    """The doubled-K7 extractor walking the host graph, one search per step.

    ``tritile.proofs.extract_three_disjoint_k7x2`` runs the same steps by
    table lookup on the canonically relabelled host, so the two agree on
    canonically labelled hosts.
    """
    if g.n != 14 or g.r != 2:
        raise ValueError(f"host must be a 2-coloured doubled K7, got n={g.n}, r={g.r}")
    classes = []
    seen = 0
    for v in range(14):
        if (seen >> v) & 1:
            continue
        missing = ~g.adj[v] & ((1 << 14) - 1) & ~(1 << v)
        if missing.bit_count() != 1:
            raise ValueError(
                f"vertex {v} has {missing.bit_count()} non-neighbours, expected 1")
        classes.append((v, missing.bit_length() - 1))
        seen |= (1 << v) | missing
    lower = [c[0] for c in classes]
    upper = [c[1] for c in classes]
    pair = claim_pair_k7(g, lower)
    if pair is None:
        raise AnomalyError("transversal K7 without a near-disjoint triangle pair",
                           graph=g, detail={"transversal": lower})
    a, b = pair
    shared = set(a.vertices) & set(b.vertices)
    if not shared:
        third = _first_mono_triangle(g, upper)
        if third is None:
            raise AnomalyError("complete 7-set without a monochromatic triangle",
                               graph=g, detail={"vertices": upper})
        return (a, b, MonoClique.of(third))
    (s,) = shared
    label = {v: i for i, v in enumerate(lower)}
    l3 = label[s]
    l12 = sorted(label[v] for v in a.vertices if v != s)
    l45 = sorted(label[v] for v in b.vertices if v != s)
    rest = sorted(set(range(7)) - {l3} - set(l12) - set(l45))
    found = _first_mono_triangle(g, [upper[i] for i in range(7) if i != l3])
    if found is None:
        raise AnomalyError("complete 6-set without a monochromatic triangle",
                           graph=g, detail={"vertices": upper})
    u_tri = MonoClique.of(found)
    used_labels = {label_of for label_of, u in enumerate(upper) if u in u_tri.vertices}
    if len(set(l12) & used_labels) <= 1:
        keep, alt = a, l12
        span = l45 + rest
    else:
        keep, alt = b, l45
        span = l12 + rest
    free = min(i for i in alt if i not in used_labels)
    six = sorted([upper[free], upper[l3]] + [lower[i] for i in span])
    third = extract_mono_triangle_k6(g, six)
    out = (keep, u_tri, third)
    if (keep.mask | u_tri.mask | third.mask).bit_count() != 9:
        raise AnomalyError("extractor produced overlapping triangles",
                           graph=g, detail={"triangles": [t.vertices for t in out]})
    return out
