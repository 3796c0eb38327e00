"""Constructive tiling algorithms extracted from existence arguments.

Every function here mirrors a finite, checkable guarantee: small-clique
extractors that cannot fail on valid input (any 2-coloured K6 has a mono
triangle, any K8 two disjoint ones, any K10 two disjoint ones of the same
colour), bowtie builders that upgrade one structure to another, and the four
degree-driven tiling algorithms built from them.  When a step that the
backing guarantee says must succeed fails anyway, the function raises
AnomalyError carrying the offending graph: such a witness would refute the
guarantee itself, so it is never silently swallowed.

All searches are lexicographic and deterministic.  Preconditions are exact
integer comparisons; violating them is a ValueError, never an anomaly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional, Sequence

from tritile.graphs import (
    BLUE,
    RED,
    AnomalyError,
    Bowtie,
    ColouredGraph,
    MonoClique,
    Tiling,
    Triangle,
    first_pair,
    iter_bits,
    iter_cliques,
    mask_of,
)
from tritile.solvers import (
    clique_tiling_interpolated,
    find_bowtie,
    find_perfect_clique_tiling,
)

# Known exact values, keyed by (colours, clique size); re-derived from
# scratch by the verification module and pinned against these in the tests.
RAMSEY_NUMBERS = {(2, 3): 6}
SPECIAL_RAMSEY_NUMBERS = {(2, 3): 4}


def _complete_set(g: ColouredGraph, vertices: Sequence[int], what: str) -> tuple[int, ...]:
    verts = tuple(sorted(vertices))
    if len(set(verts)) != len(verts):
        raise ValueError(f"{what}: repeated vertices in {vertices}")
    if verts and not (0 <= verts[0] and verts[-1] < g.n):
        raise ValueError(f"{what}: vertices out of range")
    for u, v in combinations(verts, 2):
        if not g.has_edge(u, v):
            raise ValueError(f"{what}: needs a complete set, {u} and {v} are non-adjacent")
    return verts


def _exact_set(g: ColouredGraph, vertices: Optional[Sequence[int]], size: int,
               what: str) -> tuple[int, ...]:
    """``_complete_set`` of exactly ``size`` vertices, ``0..size-1`` by default."""
    verts = _complete_set(g, range(size) if vertices is None else vertices, what)
    if len(verts) != size:
        raise ValueError(f"need exactly {size} vertices, got {len(verts)}")
    return verts


def _mono_triangles_in(g: ColouredGraph, vertices: Sequence[int]) -> list[Triangle]:
    return list(g.iter_mono_triangles(mask_of(vertices)))


def _first_mono_triangle(g: ColouredGraph, vertices: Sequence[int],
                         colour: Optional[int] = None) -> Optional[Triangle]:
    """Lex-first monochromatic triangle within ``vertices``, optionally of ``colour``."""
    return next((t for t in g.iter_mono_triangles(mask_of(vertices))
                 if colour is None or t[3] == colour), None)


# ---------------------------------------------------------------------------
# Clique extractors.

def extract_mono_triangle_k6(g: ColouredGraph,
                             vertices: Optional[Sequence[int]] = None) -> MonoClique:
    """Monochromatic triangle inside a complete set of at least 6 vertices.

    Scans vertex triples lexicographically; with 2 colours a miss on a
    complete 6-set is impossible, so a miss raises AnomalyError.
    """
    verts = _complete_set(g, range(6) if vertices is None else vertices,
                          "extract_mono_triangle_k6")
    if len(verts) < 6:
        raise ValueError(f"need at least 6 vertices, got {len(verts)}")
    tri = _first_mono_triangle(g, verts)
    if tri is None:
        raise AnomalyError("complete 6-set without a monochromatic triangle",
                           graph=g, detail={"vertices": verts})
    return MonoClique.of(tri)


def extract_two_disjoint_k8(g: ColouredGraph,
                            vertices: Optional[Sequence[int]] = None
                            ) -> tuple[MonoClique, MonoClique]:
    """Two disjoint mono triangles (any colours) in a complete 8-set.

    Returns the lex-first disjoint pair of its mono triangles; every
    2-colouring of K8 admits one, so a miss raises AnomalyError.
    """
    verts = _exact_set(g, vertices, 8, "extract_two_disjoint_k8")
    pair = first_pair(_mono_triangles_in(g, verts), 0, 0)
    if pair is None:
        raise AnomalyError("complete 8-set without two disjoint monochromatic triangles",
                           graph=g, detail={"vertices": verts})
    return MonoClique.of(pair[0]), MonoClique.of(pair[1])


def extract_two_disjoint_same_colour_k10(g: ColouredGraph,
                                         vertices: Optional[Sequence[int]] = None
                                         ) -> tuple[MonoClique, MonoClique]:
    """Two disjoint mono triangles of the same colour in a complete 10-set.

    Every 2-colouring of K10 contains a monochromatic pair of disjoint
    triangles; a miss after exhausting all pairs raises AnomalyError.
    """
    verts = _exact_set(g, vertices, 10, "extract_two_disjoint_same_colour_k10")
    pair = first_pair(_mono_triangles_in(g, verts), 0, 0, same_colour=True)
    if pair is None:
        raise AnomalyError(
            "complete 10-set without a same-colour disjoint triangle pair",
            graph=g, detail={"vertices": verts})
    return MonoClique.of(pair[0]), MonoClique.of(pair[1])


# ---------------------------------------------------------------------------
# Bowtie builders.

def bowtie_through_vertex_k6(g: ColouredGraph, v: int,
                             vertices: Optional[Sequence[int]] = None) -> Bowtie:
    """Bowtie through ``v`` in a complete 6-set with a split triangle pair.

    Precondition (ValueError otherwise): the 6 vertices split into two
    disjoint mono triangles of different colours.  ``v`` lies in one of
    them, say the triangle K_v; checking how many edges of the other
    triangle's colour run from v (then from K_v's next vertex) into the
    other triangle either yields a crossing triangle sharing one vertex, or
    leaves two same-coloured edges meeting in the other triangle.  The
    result always contains ``v``.
    """
    verts = _exact_set(g, vertices, 6, "bowtie_through_vertex_k6")
    if v not in verts:
        raise ValueError(f"vertex {v} is not among {verts}")
    split = first_pair(_mono_triangles_in(g, verts), 0, 0, same_colour=False)
    if split is None:
        raise ValueError("the 6-set does not split into two disjoint "
                         "different-coloured monochromatic triangles")
    k_v, k_o = split if v in split[0][:3] else split[::-1]
    other = k_o[3]
    for w in (v, min(u for u in k_v[:3] if u != v)):
        hits = [z for z in k_o[:3] if g.edge_colour(w, z) == other]
        if len(hits) >= 2:
            crossing = MonoClique((w, hits[0], hits[1]), other)
            return Bowtie(MonoClique.of(k_v), crossing)
    # v and its lowest companion each send at most one edge of the other
    # colour across, so each sends at least two of k_v's colour; on three
    # targets those neighbourhoods intersect.
    r2 = min(u for u in k_v[:3] if u != v)
    own = k_v[3]
    for z in k_o[:3]:
        if g.edge_colour(v, z) == own and g.edge_colour(r2, z) == own:
            return Bowtie(MonoClique((v, r2, z), own), MonoClique.of(k_o))
    raise AnomalyError("bowtie construction fell through on a valid split",
                       graph=g, detail={"vertices": verts, "v": v})


def second_bowtie_k7(g: ColouredGraph, known: Bowtie,
                     vertices: Optional[Sequence[int]] = None) -> Bowtie:
    """A bowtie on a different vertex set inside a complete 7-set.

    ``known`` spans five of the seven vertices; with x, y the other two and
    c the colour of xy, either some vertex of the known triangle of the
    other colour extends x, y to a c-triangle (sharing one vertex), or a
    pigeonhole hands one of x, y two like-coloured edges into that triangle
    and the crossing triangle pairs off directly or via the 6-set builder.
    The result always contains x or y.
    """
    verts = _exact_set(g, vertices, 7, "second_bowtie_k7")
    span = known.vertex_set
    if not (span <= set(verts) and known.verify(g)):
        raise ValueError("known bowtie does not verify inside the 7-set")
    x, y = sorted(set(verts) - span)
    c = g.edge_colour(x, y)
    k_notc = known.first if known.first.colour != c else known.second
    for z in k_notc.vertices:
        if g.edge_colour(x, z) == c and g.edge_colour(y, z) == c:
            return Bowtie(MonoClique((x, y, z), c), k_notc)
    cbar = k_notc.colour
    for w in (x, y):
        hits = [z for z in k_notc.vertices if g.edge_colour(w, z) == cbar]
        if len(hits) >= 2:
            crossing = MonoClique((w, hits[0], hits[1]), cbar)
            k_prime = known.first if known.first.colour != cbar else known.second
            shared = set(crossing.vertices) & set(k_prime.vertices)
            if len(shared) == 1:
                return Bowtie(crossing, k_prime)
            if not shared:
                six = sorted(set(crossing.vertices) | set(k_prime.vertices))
                return bowtie_through_vertex_k6(g, w, six)
            raise AnomalyError("crossing triangle meets its partner twice",
                               graph=g, detail={"vertices": verts})
    raise AnomalyError("pigeonhole failed on a complete 7-set",
                       graph=g, detail={"vertices": verts, "known": sorted(span)})


# ---------------------------------------------------------------------------
# The 7-class blow-up extractor.

def claim_pair_k7(g: ColouredGraph, vertices: Optional[Sequence[int]] = None
                  ) -> Optional[tuple[MonoClique, MonoClique]]:
    """Lex-first pair of mono triangles sharing at most one vertex in a K7."""
    verts = _exact_set(g, vertices, 7, "claim_pair_k7")
    pair = first_pair(_mono_triangles_in(g, verts), 0, 1)
    return None if pair is None else (MonoClique.of(pair[0]), MonoClique.of(pair[1]))


def extract_three_disjoint_k7x2(g: ColouredGraph
                                ) -> tuple[MonoClique, MonoClique, MonoClique]:
    """Three disjoint mono triangles in any 2-colouring of the K7 blow-up.

    The host must be K7 with every vertex doubled: 14 vertices whose
    non-edges form a perfect matching.  One transversal V (the lower vertex
    of each class) carries a pair of mono triangles sharing at most one
    vertex; if disjoint, the partner transversal U supplies the third.
    Otherwise the shared class is dodged inside U, a pigeonhole keeps one of
    the two V-triangles intact, and a fresh complete 6-set mixing the two
    transversals yields the third triangle.
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


# ---------------------------------------------------------------------------
# Degree-driven tiling algorithms.

def moon_small(g: ColouredGraph, budget: Optional[int] = None) -> Tiling:
    """``5*delta - 4n`` disjoint mono triangles for 4n/5 <= delta <= 5n/6.

    Interpolated K6 tiling first, then one triangle out of each K6.
    """
    if g.r != 2:
        raise ValueError(f"two colours required, got r={g.r}")
    delta = g.min_degree()
    if not (4 * g.n <= 5 * delta and 6 * delta <= 5 * g.n):
        raise ValueError(
            f"needs 4n/5 <= delta <= 5n/6, got n={g.n}, delta={delta}")
    sixes, _ = clique_tiling_interpolated(g, 6, budget=budget)
    return Tiling(tuple(extract_mono_triangle_k6(g, t.vertices) for t in sixes))


def bes_small(g: ColouredGraph, budget: Optional[int] = None) -> Tiling:
    """Majority colour of :func:`moon_small`: ceil((5*delta - 4n)/2) one-coloured triangles."""
    mixed = moon_small(g, budget=budget)
    reds = [t for t in mixed if t.colour == RED]
    blues = [t for t in mixed if t.colour == BLUE]
    return Tiling(tuple(reds if len(reds) >= len(blues) else blues))


def moon_large(g: ColouredGraph, budget: Optional[int] = None) -> Tiling:
    """``floor((2*delta - n)/3)`` disjoint mono triangles for delta >= 7n/8.

    Close to the band floor, eight times the degree defect many lowest-degree
    vertices induce a host dense enough for a perfect K8 tiling, and each K8
    carries two disjoint triangles.  Higher up, a K6 survives every common
    neighbourhood; its triangle is removed and the loop repeats with the
    degree floor dropped by three.
    """
    if g.r != 2:
        raise ValueError(f"two colours required, got r={g.r}")
    delta_lb = g.min_degree()
    if not (8 * delta_lb >= 7 * g.n and delta_lb <= g.n - 1):
        raise ValueError(f"needs 7n/8 <= delta <= n-1, got n={g.n}, delta={delta_lb}")
    out: list[MonoClique] = []
    mask = (1 << g.n) - 1
    while (2 * delta_lb - mask.bit_count()) // 3 > 0:
        n1 = mask.bit_count()
        if 8 * delta_lb <= 7 * n1 + 2:
            verts = sorted(iter_bits(mask),
                           key=lambda v: ((g.adj[v] & mask).bit_count(), v))
            horizon = verts[:8 * (n1 - delta_lb)]
            sub, back = g.induced(horizon)
            tiling = find_perfect_clique_tiling(sub, 8, budget=budget)
            if tiling is None:
                raise AnomalyError(
                    "dense 8k-set refused a perfect K8 tiling", graph=g,
                    detail={"horizon": horizon, "delta_lb": delta_lb})
            for tile in tiling:
                eight = tuple(back[v] for v in tile.vertices)
                out.extend(extract_two_disjoint_k8(g, eight))
            break
        six = next(iter_cliques(g.adj, mask, 6), None)
        if six is None:
            raise AnomalyError("guaranteed K6 missing above the 7n/8 band",
                               graph=g, detail={"delta_lb": delta_lb, "n": n1})
        tri = extract_mono_triangle_k6(g, six)
        out.append(tri)
        mask &= ~tri.mask
        delta_lb -= 3
    return Tiling(tuple(out))


def bes_large(g: ColouredGraph, budget: Optional[int] = None) -> Tiling:
    """``floor((delta+1)/5)`` one-coloured disjoint triangles for delta >= 65n/66.

    Grows two pools: B, disjoint complete 5-sets each containing a bowtie
    (so each holds a triangle of both colours), and T, disjoint mono
    triangles of one colour.  Each round strictly increases (|B|, |T|)
    lexicographically until |B| + |T| reaches the target, harvesting one
    T-coloured triangle from every member of B at the end.  Every search the
    round relies on is backed by a counting guarantee; a failure outside the
    guaranteed range switches to an augmentation procedure that swaps
    bowties out of B through fresh complete 7-sets, banking one vertex per
    swap until a complete 8-to-10-vertex endgame closes the round.
    """
    if g.r != 2:
        raise ValueError(f"two colours required, got r={g.r}")
    n = g.n
    delta = g.min_degree()
    if not (66 * delta >= 65 * n and delta <= n - 1):
        raise ValueError(f"needs 65n/66 <= delta <= n-1, got n={n}, delta={delta}")
    m = (delta + 1) // 5
    full = (1 << n) - 1
    pool_b: list[tuple[int, ...]] = []
    pool_t: list[MonoClique] = []
    rounds = 0
    while len(pool_b) + len(pool_t) < m:
        rounds += 1
        if rounds > m * (m + 1):
            raise AnomalyError("augmentation failed to make lexicographic progress",
                               graph=g, detail={"b": len(pool_b), "t": len(pool_t)})
        before = (len(pool_b), len(pool_t))
        # With T empty a K6 seeds it; otherwise a K5 in the common
        # neighbourhood of T's first triangle extends that triangle to a K8.
        cand = full & ~_pool_mask(pool_b, pool_t)
        for v in pool_t[0].vertices if pool_t else ():
            cand &= g.adj[v]
        size = 5 if pool_t else 6
        found = next(iter_cliques(g.adj, cand, size), None)
        if found is None:
            if 33 * len(pool_b) < 5 * n:
                raise AnomalyError(f"guaranteed K{size} vanished below the pool bound",
                                   graph=g, detail={"b": len(pool_b), "t": len(pool_t)})
            result = _bes_augment(g, pool_b, pool_t, m)
            if result is not None:
                return result
        elif pool_t:
            _grow_pools(g, pool_b, pool_t, tuple(sorted(pool_t[0].vertices + found)))
        else:
            pool_t.append(extract_mono_triangle_k6(g, found))
        if (len(pool_b), len(pool_t)) <= before and len(pool_b) + len(pool_t) < m:
            raise AnomalyError("round ended without lexicographic progress",
                               graph=g, detail={"before": before})
    return _harvest(g, pool_t, pool_b, pool_t[0].colour if pool_t else RED)


def _pool_mask(pool_b: list[tuple[int, ...]], pool_t: list[MonoClique]) -> int:
    """Vertices held by the B and T pools."""
    return (mask_of(v for five in pool_b for v in five)
            | mask_of(v for t in pool_t for v in t.vertices))


def _grow_pools(g: ColouredGraph, pool_b: list[tuple[int, ...]],
                pool_t: list[MonoClique], base: tuple[int, ...]) -> None:
    """One pool step on ``pool_t[0]`` inside the sorted complete set ``base``.

    A triangle of the other colour in ``base`` pairs with ``pool_t[0]`` into
    a new bowtie 5-set of B, and the T members it touches leave T.  Without
    one, the first eight vertices of ``base`` hold two disjoint triangles,
    both of ``pool_t[0]``'s colour, and they replace it in T.
    """
    t0 = pool_t[0]
    opposite = _first_mono_triangle(g, base, colour=1 - t0.colour)
    if opposite is None:
        t1, t2 = extract_two_disjoint_k8(g, base[:8])
        if t1.colour != t0.colour or t2.colour != t0.colour:
            raise AnomalyError("triangle of a colour just proven absent",
                               graph=g, detail={"base": base})
        pool_t[:] = [t1, t2] + pool_t[1:]
        return
    other = MonoClique.of(opposite)
    overlap = (t0.mask & other.mask).bit_count()
    if overlap > 1:
        raise AnomalyError("different-coloured triangles sharing an edge", graph=g)
    if overlap:
        bow = Bowtie(t0, other)
    else:
        six = sorted(set(t0.vertices) | set(other.vertices))
        bow = bowtie_through_vertex_k6(g, six[0], six)
    pool_b.append(tuple(sorted(bow.vertex_set)))
    pool_t[:] = [t for t in pool_t if not t.mask & bow.vertex_mask]


def _harvest(g: ColouredGraph, kept: Sequence[MonoClique],
             fives: Sequence[tuple[int, ...]], colour: int) -> Tiling:
    """``kept`` plus the first ``colour`` triangle of each bowtie 5-set."""
    out = list(kept)
    for five in fives:
        tri = _first_mono_triangle(g, five, colour=colour)
        if tri is None:
            raise AnomalyError("bowtie 5-set lost its triangle of the tiling colour",
                               graph=g, detail={"five": five, "colour": colour})
        out.append(MonoClique.of(tri))
    return Tiling(tuple(out))


def _bes_augment(g: ColouredGraph, pool_b: list[tuple[int, ...]],
                 pool_t: list[MonoClique], m: int) -> Optional[Tiling]:
    """One augmentation round: bank vertices by swapping bowties, then close.

    Mutates the pools (always strict lexicographic progress on
    (|B|, |T|)); returns a finished Tiling only on the terminal
    K10 endgame, None otherwise.
    """
    full = (1 << g.n) - 1
    tset = pool_t[0].vertices if pool_t else ()
    banked: list[int] = []
    while len(banked) <= 5:
        blocked = _pool_mask(pool_b, pool_t) | mask_of(banked)
        edge = _first_free_edge(g, full & ~blocked)
        if edge is None:
            break
        u, v = edge
        anchor = tuple(sorted(set(tset) | set(banked) | {u, v}))
        idx = _serving_pool_index(g, pool_b, anchor)
        if idx is None:
            raise AnomalyError("no pool 5-set adjacent to the anchor set",
                               graph=g, detail={"anchor": anchor, "b": len(pool_b)})
        five = pool_b[idx]
        sub, back = g.induced(five)
        inner = find_bowtie(sub)
        if inner is None:
            raise AnomalyError("pool 5-set lost its bowtie", graph=g,
                               detail={"five": five})
        known = Bowtie(
            MonoClique(tuple(back[w] for w in inner.first.vertices), inner.first.colour),
            MonoClique(tuple(back[w] for w in inner.second.vertices), inner.second.colour))
        seven = tuple(sorted(five + (u, v)))
        swapped = second_bowtie_k7(g, known, seven)
        new_five = tuple(sorted(swapped.vertex_set))
        if new_five == five:
            raise AnomalyError("swap reproduced the same 5-set", graph=g,
                               detail={"five": five})
        pool_b[idx] = new_five
        banked.append(min(set(five) - set(new_five)))
    group = list(banked)
    if len(group) < 6:
        # The loop ended on a missing free edge, so ``blocked`` is current;
        # it covers T's first triangle and the banked vertices.
        clique_mask = mask_of(set(tset) | set(banked))
        for w in iter_bits(full & ~blocked):
            if g.adj[w] & clique_mask == clique_mask:
                group.append(w)
                break
    if len(group) not in (5, 6):
        raise AnomalyError("augmentation banked too few vertices", graph=g,
                           detail={"banked": banked, "group": group})
    if pool_t:
        _grow_pools(g, pool_b, pool_t, tuple(sorted(set(tset) | set(group))))
        return None
    if len(group) == 6:
        pool_t.append(extract_mono_triangle_k6(g, group))
        return None
    if len(pool_b) != m - 1:
        raise AnomalyError("five banked vertices with an unsaturated pool",
                           graph=g, detail={"b": len(pool_b), "m": m})
    anchor = tuple(sorted(group))
    idx = _serving_pool_index(g, pool_b, anchor)
    if idx is None:
        raise AnomalyError("no pool 5-set adjacent to the banked five",
                           graph=g, detail={"anchor": anchor})
    ten = tuple(sorted(pool_b[idx] + anchor))
    t1, t2 = extract_two_disjoint_same_colour_k10(g, ten)
    return _harvest(g, [t1, t2], pool_b[:idx] + pool_b[idx + 1:], t1.colour)


def _first_free_edge(g: ColouredGraph, allowed: int) -> Optional[tuple[int, int]]:
    for u in iter_bits(allowed):
        row = g.adj[u] & allowed & ~((1 << (u + 1)) - 1)
        if row:
            return (u, (row & -row).bit_length() - 1)
    return None


def _serving_pool_index(g: ColouredGraph, pool_b: list[tuple[int, ...]],
                        anchor: Sequence[int]) -> Optional[int]:
    amask = mask_of(anchor)
    for idx, five in enumerate(pool_b):
        if all(g.adj[b] & amask == amask for b in five):
            return idx
    return None


# ---------------------------------------------------------------------------
# Seeded phased tiling.

@dataclass(frozen=True)
class PhasedResult:
    """Tiling plus the phase guarantees that could not be enforced.

    ``notes`` is empty in strict mode (violations raise instead); in relaxed
    mode each note names the phase whose backing guarantee was unavailable.
    """

    tiling: Tiling
    notes: tuple[str, ...]
    strict: bool


def phased_tiler(g: ColouredGraph, seed_clique: MonoClique) -> PhasedResult:
    """Three-phase tiling of a 2-coloured host around a monochromatic seed clique.

    Phase I removes mono triangles that avoid the seed until none remain;
    phase II absorbs leftover vertices with two seed-coloured edges into the
    seed; phase III pairs each remaining vertex with an untouched seed
    vertex that sends it no seed-coloured edge, exploiting that a vertex
    missing one colour forces a mono triangle in any complete 4-set around
    it.  The seed remainder is finally chopped into seed-coloured triangles.

    Strict mode (when the seed has exactly ``2 * R(K3) = 12`` vertices and
    the host is complete) turns every phase guarantee into an AnomalyError;
    relaxed mode records unavailable guarantees in the notes.
    """
    if g.r != 2:
        raise ValueError(f"host has {g.r} colours, expected 2")
    big_r = RAMSEY_NUMBERS[(2, 3)]
    special = SPECIAL_RAMSEY_NUMBERS[(2, 3)]
    if seed_clique.colour is None or not seed_clique.verify(g):
        raise ValueError("seed must be a monochromatic clique of the host")
    strict = len(seed_clique) == 2 * big_r and g.is_complete()
    notes: list[str] = []
    colour = seed_clique.colour
    outside = sorted(set(range(g.n)) - set(seed_clique.vertices))
    reservoir = list(seed_clique.vertices)
    found: list[MonoClique] = []
    while True:
        tri = _first_mono_triangle(g, outside)
        if tri is None:
            break
        found.append(MonoClique.of(tri))
        outside = [v for v in outside if v not in tri[:3]]
    if len(outside) > big_r - 1 and not strict:
        notes.append(f"phase I left {len(outside)} vertices, above the Ramsey bound")
    if len(outside) > big_r - 1 and strict:
        raise AnomalyError("triangle-free remainder beyond the Ramsey bound",
                           graph=g, detail={"outside": outside})
    changed = True
    while changed:
        changed = False
        for v in list(outside):
            hits = [c for c in reservoir if g.edge_colour(v, c) == colour]
            if len(hits) >= 2:
                x = hits[:2]
                found.append(MonoClique(tuple([v] + x), colour))
                outside.remove(v)
                for w in x:
                    reservoir.remove(w)
                changed = True
    if len(reservoir) < 2 * len(outside):
        if strict:
            raise AnomalyError("seed reservoir dipped below two per vertex",
                               graph=g, detail={"reservoir": len(reservoir),
                                                "outside": len(outside)})
        notes.append("phase II guarantee unavailable: reservoir too small")
    quiet = [c for c in reservoir
             if all(g.edge_colour(v, c) != colour for v in outside)]
    if len(quiet) < len(outside):
        if strict:
            raise AnomalyError("not enough seed vertices without seed-coloured "
                               "edges to the remainder", graph=g,
                               detail={"quiet": len(quiet), "outside": len(outside)})
        notes.append("phase III guarantee unavailable: too few quiet seed vertices")
    quiet = quiet[:len(outside)]
    while len(outside) >= special - 1 and quiet:
        v = quiet.pop(0)
        tri = _first_mono_triangle(g, sorted(outside + [v]))
        if tri is None:
            if strict:
                raise AnomalyError("special-coloured complete set without a "
                                   "monochromatic triangle", graph=g,
                                   detail={"around": v, "outside": outside})
            notes.append("phase III stalled: no triangle in a special set")
            break
        found.append(MonoClique.of(tri))
        outside = [w for w in outside if w not in tri[:3]]
        for w in tri[:3]:
            if w in reservoir:
                reservoir.remove(w)
            if w in quiet:
                quiet.remove(w)
    for i in range(0, len(reservoir) - len(reservoir) % 3, 3):
        found.append(MonoClique(tuple(reservoir[i:i + 3]), colour))
    tiling = Tiling(tuple(found))
    if strict and len(tiling) < (g.n - (special - 2)) // 3:
        raise AnomalyError("strict phased tiling fell short of its target",
                           graph=g, detail={"got": len(tiling),
                                            "target": (g.n - special + 2) // 3})
    return PhasedResult(tiling=tiling, notes=tuple(notes), strict=strict)
