"""Extremal two-colourings for disjoint monochromatic triangle problems.

Each generator takes the host order ``n`` and the exact minimum degree
``delta``, checks admissibility with integer arithmetic (all band boundaries
are rationals, so no floats anywhere), and assembles an edge list over
consecutively laid-out vertex classes.  A companion ``*_layout`` function
exposes the class decomposition so callers (and the CLI sidecar) can name
every vertex.

The recurring ingredient is the badly coloured K5: the unique 2-colouring of
K5 without a monochromatic triangle, red and blue classes both 5-cycles.  The
pattern is pinned once, on class indices 1..5, with the red cycle running
through consecutive indices.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Iterable, Sequence

from tritile.graphs import BLUE, RED, ColouredGraph, blow_up

BADLY_RED_PAIRS = ((1, 2), (2, 3), (3, 4), (4, 5), (1, 5))
BADLY_BLUE_PAIRS = ((1, 3), (1, 4), (2, 4), (2, 5), (3, 5))

_PATTERN_COLOUR = {p: RED for p in BADLY_RED_PAIRS}
_PATTERN_COLOUR.update({p: BLUE for p in BADLY_BLUE_PAIRS})


def badly_coloured_k5() -> ColouredGraph:
    """The triangle-free 2-colouring of K5 (both colour classes 5-cycles)."""
    edges = [(u - 1, v - 1, c) for (u, v), c in _PATTERN_COLOUR.items()]
    return ColouredGraph(5, 2, edges)


def _between(edges: list, a: Iterable[int], b: Sequence[int], colour: int) -> None:
    for u in a:
        for v in b:
            edges.append((u, v, colour) if u < v else (v, u, colour))


def _within(edges: list, a: Iterable[int], colour: int) -> None:
    for u, v in combinations(a, 2):
        edges.append((u, v, colour))


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _pattern_edges(edges: list, classes: dict[int, Sequence[int]]) -> None:
    """Join the given index->vertex-class map along the badly coloured K5."""
    for (i, j), colour in _PATTERN_COLOUR.items():
        _between(edges, classes[i], classes[j], colour)


# ---------------------------------------------------------------------------
# Mixed-colour extremal family: one special class on top of the K5 pattern.

def ex_triangle_layout(n: int, delta: int) -> dict[str, list[int]]:
    _check(4 * n <= 5 * delta and delta <= n - 1,
           f"ex_triangle needs 4n/5 <= delta <= n-1, got n={n}, delta={delta}")
    s = n - delta
    v0 = 5 * delta - 4 * n
    bounds = [0, v0] + [v0 + i * s for i in range(1, 6)]
    names = ["V0", "V1", "V2", "V3", "V4", "V5"]
    return {name: list(range(bounds[k], bounds[k + 1])) for k, name in enumerate(names)}


def ex_triangle(n: int, delta: int) -> ColouredGraph:
    """Construction with no blue triangle and few disjoint red ones.

    ``V1..V5`` blow up the badly coloured K5 with ``V0`` glued onto ``V1``'s
    class; ``V0`` is an internally red clique joined red to ``V1``.  Then
    ``V0`` has full degree, every other vertex has degree exactly ``delta``,
    and every monochromatic triangle is red with at least one vertex in
    ``V0`` and at least two in ``V0 + V1``.
    """
    lay = ex_triangle_layout(n, delta)
    edges: list[tuple[int, int, int]] = []
    _within(edges, lay["V0"], RED)
    _between(edges, lay["V0"], lay["V1"], RED)
    classes = {i: lay["V0"] + lay["V1"] if i == 1 else lay[f"V{i}"] for i in range(1, 6)}
    _pattern_edges(edges, classes)
    return ColouredGraph(n, 2, edges)


def ex_triangle_alt_layout(n: int, delta: int) -> dict[str, list[int]]:
    _check(8 * delta >= 7 * n and delta <= n - 1,
           f"ex_triangle_alt needs 7n/8 <= delta <= n-1, got n={n}, delta={delta}")
    s = n - delta
    return {"S1": list(range(0, s)),
            "S2": list(range(s, 2 * s)),
            "R": list(range(2 * s, n))}


def ex_triangle_alt(n: int, delta: int) -> ColouredGraph:
    """High-degree construction: blue is bipartite, red triangles sit in R.

    Two independent sets of size ``n - delta`` joined red to each other and
    blue to an internally red clique R of size ``2*delta - n``.  Every
    monochromatic triangle lies inside R, so no tiling beats |R|/3.
    """
    lay = ex_triangle_alt_layout(n, delta)
    edges: list[tuple[int, int, int]] = []
    _between(edges, lay["S1"], lay["S2"], RED)
    _between(edges, lay["S1"], lay["R"], BLUE)
    _between(edges, lay["S2"], lay["R"], BLUE)
    _within(edges, lay["R"], RED)
    return ColouredGraph(n, 2, edges)


# ---------------------------------------------------------------------------
# Single-colour extremal family (three constructions, one per degree band).

def ex_bes_1_layout(n: int, delta: int) -> dict[str, list[int]]:
    _check(5 <= delta <= n - 1,
           f"ex_bes_1 needs 5 <= delta <= n-1, got n={n}, delta={delta}")
    s = n - delta
    rsize = 3 * ((delta + 1) // 5) + 2
    bsize = delta - rsize
    return {"R": list(range(0, rsize)),
            "B": list(range(rsize, rsize + bsize)),
            "S": list(range(rsize + bsize, n))}


def ex_bes_1(n: int, delta: int) -> ColouredGraph:
    """Red triangles confined to R, blue ones needing two B vertices.

    R (size ``3*floor((delta+1)/5) + 2``) is an internally red clique, B is
    internally blue, S is independent with red edges to B and blue edges from
    R to everything else.  The best single-colour tiling has exactly
    ``floor((delta+1)/5)`` triangles.
    """
    lay = ex_bes_1_layout(n, delta)
    edges: list[tuple[int, int, int]] = []
    _within(edges, lay["R"], RED)
    _between(edges, lay["S"], lay["B"], RED)
    _within(edges, lay["B"], BLUE)
    _between(edges, lay["R"], lay["B"], BLUE)
    _between(edges, lay["R"], lay["S"], BLUE)
    return ColouredGraph(n, 2, edges)


def ex_bes_2_layout(n: int, delta: int) -> dict[str, list[int]]:
    _check(n >= 25 and 4 * n <= 5 * delta and delta <= n - 1,
           f"ex_bes_2 needs n >= 25 and 4n/5 <= delta <= n-1, got n={n}, delta={delta}")
    s = n - delta
    v1 = 4 * delta - 3 * n
    rsize = 2 * ((4 * delta - 3 * n + 1) // 3) + 1
    bsize = v1 - rsize
    bounds = [0, rsize, v1] + [v1 + i * s for i in range(1, 5)]
    names = ["R", "B", "V2", "V3", "V4", "V5"]
    return {name: list(range(bounds[k], bounds[k + 1])) for k, name in enumerate(names)}


def ex_bes_2(n: int, delta: int) -> ColouredGraph:
    """Mid-band single-colour construction over the K5 pattern.

    The first pattern class is a complete graph R + B (R internally red,
    everything touching B blue); the other four classes are independent.  Red
    triangles use two R vertices, blue ones at least one B vertex, capping a
    single-colour tiling at ``floor((4*delta - 3n + 1)/3)``.
    """
    lay = ex_bes_2_layout(n, delta)
    edges: list[tuple[int, int, int]] = []
    _within(edges, lay["R"], RED)
    _within(edges, lay["B"], BLUE)
    _between(edges, lay["R"], lay["B"], BLUE)
    classes = {1: lay["R"] + lay["B"], 2: lay["V2"], 3: lay["V3"],
               4: lay["V4"], 5: lay["V5"]}
    _pattern_edges(edges, classes)
    return ColouredGraph(n, 2, edges)


def ex_bes_3_layout(n: int, delta: int) -> dict[str, list[int]]:
    _check(4 * n <= 5 * delta and delta <= n - 1,
           f"ex_bes_3 needs 4n/5 <= delta <= n-1, got n={n}, delta={delta}")
    s = n - delta
    rsize = (5 * delta - 4 * n + 1) // 2
    bsize = (5 * delta - 4 * n) // 2
    v1 = 4 * delta - 3 * n
    bounds = [0, rsize, rsize + bsize, v1] + [v1 + i * s for i in range(1, 5)]
    names = ["R", "B", "S", "V2", "V3", "V4", "V5"]
    return {name: list(range(bounds[k], bounds[k + 1])) for k, name in enumerate(names)}


def ex_bes_3(n: int, delta: int) -> ColouredGraph:
    """Low-band single-colour construction over the K5 pattern.

    The first pattern class splits into R (red side), B (blue side) and an
    independent S; edges inside R + S are red, edges from B stay blue.  Every
    red triangle meets R and every blue one meets B, so a single-colour
    tiling never beats ``ceil((5*delta - 4n)/2)``.
    """
    lay = ex_bes_3_layout(n, delta)
    edges: list[tuple[int, int, int]] = []
    _within(edges, lay["R"], RED)
    _between(edges, lay["R"], lay["S"], RED)
    _within(edges, lay["B"], BLUE)
    _between(edges, lay["B"], lay["R"], BLUE)
    _between(edges, lay["B"], lay["S"], BLUE)
    classes = {1: lay["R"] + lay["B"] + lay["S"], 2: lay["V2"], 3: lay["V3"],
               4: lay["V4"], 5: lay["V5"]}
    _pattern_edges(edges, classes)
    return ColouredGraph(n, 2, edges)


# The extremal constructions by name: (builder, layout), both taking (n, delta).
CONSTRUCTIONS = {
    "ex-triangle": (ex_triangle, ex_triangle_layout),
    "ex-triangle-alt": (ex_triangle_alt, ex_triangle_alt_layout),
    "ex-bes-1": (ex_bes_1, ex_bes_1_layout),
    "ex-bes-2": (ex_bes_2, ex_bes_2_layout),
    "ex-bes-3": (ex_bes_3, ex_bes_3_layout),
}


# ---------------------------------------------------------------------------
# Apex blow-up: the colouring where every triangle goes through one class.

def pinned_apex_pattern() -> ColouredGraph:
    """K6 pattern: badly coloured base 1..5 plus an apex red to 1,2 and blue to 3,4,5."""
    edges = [(u, v, c) for (u, v), c in _PATTERN_COLOUR.items()]
    edges += [(0, 1, RED), (0, 2, RED), (0, 3, BLUE), (0, 4, BLUE), (0, 5, BLUE)]
    return ColouredGraph(6, 2, edges)


def pinned_apex_sizes(n: int, delta: int) -> list[int]:
    _check(4 * n < 5 * delta and 6 * delta <= 5 * n and delta <= n - 1,
           f"pinned apex needs 4n/5 < delta <= 5n/6, got n={n}, delta={delta}")
    return [5 * delta - 4 * n] + [n - delta] * 5


def pinned_apex_colouring(sizes: Sequence[int]) -> ColouredGraph:
    """Blow-up of the apex pattern; ``sizes[0]`` is the apex class.

    Every monochromatic triangle meets the apex class: the red ones run
    apex-1-2, the blue ones apex-3-5.
    """
    _check(len(sizes) == 6, f"pinned apex takes 6 class sizes, got {len(sizes)}")
    return blow_up(pinned_apex_pattern(), list(sizes))


def special_blowup(*, t: int | None = None, n: int | None = None,
                   delta: int | None = None) -> ColouredGraph:
    """Sharpness colourings grown from the pinned special witness on K3.

    The stored witness is a triangle v,a,b with ab red and va, vb blue, so v
    misses red.  Blowing v up into a class A whose internal edges take the
    missing colour keeps every monochromatic triangle inside A.

    With ``t``: K_{3t+1} made of A (size 3t-1, internally red) plus a and b;
    the best tiling has t-1 triangles.  With ``n`` and ``delta``
    (n/2 < delta <= n-1): an internally red clique U of size 2*delta - n
    joined blue to two independent classes of size n - delta that are red to
    each other; every monochromatic triangle sits inside U.
    """
    if t is not None:
        _check(n is None and delta is None, "pass either t or (n, delta), not both")
        _check(t >= 1, f"t must be positive, got {t}")
        size_a = 3 * t - 1
        a, b = size_a, size_a + 1
        edges: list[tuple[int, int, int]] = []
        _within(edges, range(size_a), RED)
        _between(edges, range(size_a), [a], BLUE)
        _between(edges, range(size_a), [b], BLUE)
        edges.append((a, b, RED))
        return ColouredGraph(3 * t + 1, 2, edges)
    if n is None or delta is None:
        raise ValueError("pass either t or (n, delta)")
    _check(2 * delta > n and delta <= n - 1,
           f"degree mode needs n/2 < delta <= n-1, got n={n}, delta={delta}")
    u_size = 2 * delta - n
    s = n - delta
    u = list(range(0, u_size))
    aa = list(range(u_size, u_size + s))
    ab = list(range(u_size + s, n))
    edges = []
    _within(edges, u, RED)
    _between(edges, u, aa, BLUE)
    _between(edges, u, ab, BLUE)
    _between(edges, aa, ab, RED)
    return ColouredGraph(n, 2, edges)


# ---------------------------------------------------------------------------
# Random instances with an exact minimum degree.

def random_min_degree_colouring(n: int, delta: int, rng, r: int = 2) -> ColouredGraph:
    """Random ``r``-colouring of a random graph with minimum degree exactly ``delta``.

    Starts from K_n and repeatedly deletes a uniformly random edge whose two
    endpoints both still have degree above ``delta``; when no such edge is
    left the minimum degree equals ``delta`` (deletion never drops a degree
    below it, and if every degree exceeded it some edge would qualify).
    Colours are then drawn uniformly.  ``rng`` is a numpy Generator.

    The candidate edges stay in one sorted list; it is filtered only when a
    deletion brings an endpoint down to ``delta``, the one event that can
    disqualify edges other than the deleted one.
    """
    _check(0 <= delta <= n - 1, f"need 0 <= delta <= n-1, got n={n}, delta={delta}")
    candidates = list(combinations(range(n), 2)) if delta < n - 1 else []
    deleted = set()
    deg = [n - 1] * n
    while candidates:
        u, v = candidates.pop(int(rng.integers(len(candidates))))
        deleted.add((u, v))
        deg[u] -= 1
        deg[v] -= 1
        if deg[u] == delta or deg[v] == delta:
            candidates = [(a, b) for a, b in candidates
                          if deg[a] > delta and deg[b] > delta]
    ordered = [e for e in combinations(range(n), 2) if e not in deleted]
    colours = rng.integers(0, r, size=len(ordered))
    return ColouredGraph(n, r, [(u, v, int(c)) for (u, v), c in zip(ordered, colours)])


# ---------------------------------------------------------------------------
# Guarantee formulas.

@dataclass(frozen=True)
class BoundReport:
    """Piecewise tiling guarantees for a host with min degree ``delta``.

    ``moon_*`` describes the best mixed-colour guarantee, ``bes_*`` the best
    single-colour one.  Piece labels name the degree band (low up to 5n/6,
    high from 7n/8 for mixed and 15n/17 for single).  ``moon_asymptotic``
    marks the mid band whose mixed bound holds only up to o(n) slack;
    ``bes_conjectural`` marks single-colour values not backed by a proof at
    this ``n``.  ``extremal_min`` is the exact optimum of the matching
    construction: min(5d-4n, (4d-3n)/2, (2d-n)/3) rounded down.
    """

    n: int
    delta: int
    moon_bound: int
    moon_piece: str
    moon_asymptotic: bool
    bes_bound: int
    bes_piece: str
    bes_conjectural: bool
    extremal_min: int

    def as_dict(self) -> dict:
        return asdict(self)


def moon_formulas(n: int, delta: int) -> dict[str, int]:
    """Raw mixed-colour piece values by band label; the degree range is not checked."""
    return {"low": 5 * delta - 4 * n, "mid": (4 * delta - 3 * n) // 2,
            "high": (2 * delta - n) // 3}


def bes_formulas(n: int, delta: int) -> dict[str, int]:
    """Raw single-colour piece values by band label; the degree range is not checked.

    The pieces are floor((d+1)/5), floor((4d-3n+1)/3) and ceil((5d-4n)/2).
    """
    return {"high": (delta + 1) // 5, "mid": (4 * delta - 3 * n + 1) // 3,
            "low": (5 * delta - 4 * n + 1) // 2}


def bes_band(n: int, delta: int) -> str:
    """Single-colour band of ``(n, delta)``: high from 15n/17, mid from 6n/7."""
    if 17 * delta >= 15 * n:
        return "high"
    if 7 * delta >= 6 * n:
        return "mid"
    return "low"


def extremal_min_formula(n: int, delta: int) -> int:
    return min(moon_formulas(n, delta).values())


def bound_report(n: int, delta: int) -> BoundReport:
    _check(4 * n <= 5 * delta and delta <= n - 1,
           f"bounds are stated for 4n/5 <= delta <= n-1, got n={n}, delta={delta}")
    moon = moon_formulas(n, delta)
    if 6 * delta <= 5 * n:
        moon_piece = "low"
    elif 8 * delta >= 7 * n:
        moon_piece = "high"
    else:
        moon_piece = "mid"
    bes_piece = bes_band(n, delta)
    proved = {"high": 66 * delta >= 65 * n or n >= 25, "mid": False,
              "low": 6 * delta <= 5 * n or n >= 25}[bes_piece]
    return BoundReport(n=n, delta=delta, moon_bound=moon[moon_piece],
                       moon_piece=moon_piece, moon_asymptotic=moon_piece == "mid",
                       bes_bound=bes_formulas(n, delta)[bes_piece],
                       bes_piece=bes_piece, bes_conjectural=not proved,
                       extremal_min=min(moon.values()))
