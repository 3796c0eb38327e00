"""Extremal two-colourings for disjoint monochromatic triangle problems.

Every construction is a blow-up of a small pattern.  Its vertices fall into
classes, each a one-colour clique or an independent set, and each pair of
classes is joined in one colour or not at all.  The pattern is data: a
symmetric k x k table whose entry ``[i][j]`` colours the joins of classes i
and j, and ``[i][i]`` the inside of class i, None meaning no edges.  A
companion ``*_layout`` function takes the order ``n`` and the exact minimum
degree ``delta``, checks admissibility with integer arithmetic (all band
boundaries are rationals, so no floats anywhere), and names the vertex range
of every class in the pattern's class order, for callers and the CLI
sidecar.  One builder, ``graphs._pattern_blow_up``, makes every host from its
pattern and class sizes.

The recurring ingredient is the badly coloured K5: the unique 2-colouring of
K5 without a monochromatic triangle, red and blue classes both 5-cycles.
Most constructions split its first class into parts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from tritile.graphs import BLUE, RED, ColouredGraph, _pattern_blow_up

# The badly coloured K5: class i is red to classes i +- 1 and blue to i +- 2 (mod 5).
_BADLY_K5 = [[None if i == j else RED if (i - j) % 5 in (1, 4) else BLUE for j in range(5)]
             for i in range(5)]


def _k5_split(first: list[list]) -> list[list]:
    """The badly coloured K5 with its first class split into parts joined by ``first``.

    Each part keeps the first class's joins to the other four classes.
    """
    return ([part + _BADLY_K5[0][1:] for part in first]
            + [[row[0]] * len(first) + row[1:] for row in _BADLY_K5[1:]])


def _layout_blow_up(pattern: list[list], layout: dict[str, list[int]]) -> ColouredGraph:
    """The two-colour blow-up of ``pattern`` whose classes are the layout's, in key order."""
    return _pattern_blow_up(pattern, [len(cls) for cls in layout.values()], 2)


def badly_coloured_k5() -> ColouredGraph:
    """The triangle-free 2-colouring of K5 (both colour classes 5-cycles)."""
    return _pattern_blow_up(_BADLY_K5, [1] * 5, 2)


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _degree_band(n: int) -> range:
    """The minimum degrees 4n/5 <= delta <= n-1 where the paper's bounds are stated."""
    return range(-(-4 * n // 5), n)


# ---------------------------------------------------------------------------
# Mixed-colour extremal family: one special class on top of the K5 pattern.

def ex_triangle_layout(n: int, delta: int) -> dict[str, list[int]]:
    _check(delta in _degree_band(n),
           f"ex_triangle needs 4n/5 <= delta <= n-1, got n={n}, delta={delta}")
    s = n - delta
    v0 = 5 * delta - 4 * n
    bounds = [0, v0] + [v0 + i * s for i in range(1, 6)]
    names = ["V0", "V1", "V2", "V3", "V4", "V5"]
    return {name: list(range(bounds[k], bounds[k + 1])) for k, name in enumerate(names)}


_EX_TRIANGLE = _k5_split([[RED, RED], [RED, None]])


def ex_triangle(n: int, delta: int) -> ColouredGraph:
    """Construction with no blue triangle and few disjoint red ones.

    ``V1..V5`` blow up the badly coloured K5 with ``V0`` glued onto ``V1``'s
    class; ``V0`` is an internally red clique joined red to ``V1``.  Then
    ``V0`` has full degree, every other vertex has degree exactly ``delta``,
    and every monochromatic triangle is red with at least one vertex in
    ``V0`` and at least two in ``V0 + V1``.
    """
    return _layout_blow_up(_EX_TRIANGLE, ex_triangle_layout(n, delta))


def ex_triangle_alt_layout(n: int, delta: int) -> dict[str, list[int]]:
    _check(8 * delta >= 7 * n and delta <= n - 1,
           f"ex_triangle_alt needs 7n/8 <= delta <= n-1, got n={n}, delta={delta}")
    s = n - delta
    return {"S1": list(range(0, s)),
            "S2": list(range(s, 2 * s)),
            "R": list(range(2 * s, n))}


_EX_TRIANGLE_ALT = [[None, RED, BLUE], [RED, None, BLUE], [BLUE, BLUE, RED]]


def ex_triangle_alt(n: int, delta: int) -> ColouredGraph:
    """High-degree construction: blue is bipartite, red triangles sit in R.

    Two independent sets of size ``n - delta`` joined red to each other and
    blue to an internally red clique R of size ``2*delta - n``.  Every
    monochromatic triangle lies inside R, so no tiling beats |R|/3.
    """
    return _layout_blow_up(_EX_TRIANGLE_ALT, ex_triangle_alt_layout(n, delta))


# ---------------------------------------------------------------------------
# Single-colour extremal family (three constructions, one per degree band).

def ex_bes_1_layout(n: int, delta: int) -> dict[str, list[int]]:
    _check(5 <= delta <= n - 1,
           f"ex_bes_1 needs 5 <= delta <= n-1, got n={n}, delta={delta}")
    rsize = 3 * ((delta + 1) // 5) + 2
    bsize = delta - rsize
    return {"R": list(range(0, rsize)),
            "B": list(range(rsize, rsize + bsize)),
            "S": list(range(rsize + bsize, n))}


_EX_BES_1 = [[RED, BLUE, BLUE], [BLUE, BLUE, RED], [BLUE, RED, None]]


def ex_bes_1(n: int, delta: int) -> ColouredGraph:
    """Red triangles confined to R, blue ones needing two B vertices.

    R (size ``3*floor((delta+1)/5) + 2``) is an internally red clique, B is
    internally blue, S is independent with red edges to B and blue edges from
    R to everything else.  The best single-colour tiling has exactly
    ``floor((delta+1)/5)`` triangles.
    """
    return _layout_blow_up(_EX_BES_1, ex_bes_1_layout(n, delta))


def ex_bes_2_layout(n: int, delta: int) -> dict[str, list[int]]:
    _check(n >= 25 and delta in _degree_band(n),
           f"ex_bes_2 needs n >= 25 and 4n/5 <= delta <= n-1, got n={n}, delta={delta}")
    s = n - delta
    v1 = 4 * delta - 3 * n
    rsize = 2 * ((4 * delta - 3 * n + 1) // 3) + 1
    bsize = v1 - rsize
    bounds = [0, rsize, v1] + [v1 + i * s for i in range(1, 5)]
    names = ["R", "B", "V2", "V3", "V4", "V5"]
    return {name: list(range(bounds[k], bounds[k + 1])) for k, name in enumerate(names)}


_EX_BES_2 = _k5_split([[RED, BLUE], [BLUE, BLUE]])


def ex_bes_2(n: int, delta: int) -> ColouredGraph:
    """Mid-band single-colour construction over the K5 pattern.

    The first pattern class is a complete graph R + B (R internally red,
    everything touching B blue); the other four classes are independent.  Red
    triangles use two R vertices, blue ones at least one B vertex, capping a
    single-colour tiling at ``floor((4*delta - 3n + 1)/3)``.
    """
    return _layout_blow_up(_EX_BES_2, ex_bes_2_layout(n, delta))


def ex_bes_3_layout(n: int, delta: int) -> dict[str, list[int]]:
    _check(delta in _degree_band(n),
           f"ex_bes_3 needs 4n/5 <= delta <= n-1, got n={n}, delta={delta}")
    s = n - delta
    rsize = (5 * delta - 4 * n + 1) // 2
    bsize = (5 * delta - 4 * n) // 2
    v1 = 4 * delta - 3 * n
    bounds = [0, rsize, rsize + bsize, v1] + [v1 + i * s for i in range(1, 5)]
    names = ["R", "B", "S", "V2", "V3", "V4", "V5"]
    return {name: list(range(bounds[k], bounds[k + 1])) for k, name in enumerate(names)}


_EX_BES_3 = _k5_split([[RED, BLUE, RED], [BLUE, BLUE, BLUE], [RED, BLUE, None]])


def ex_bes_3(n: int, delta: int) -> ColouredGraph:
    """Low-band single-colour construction over the K5 pattern.

    The first pattern class splits into R (red side), B (blue side) and an
    independent S; edges inside R + S are red, edges from B stay blue.  Every
    red triangle meets R and every blue one meets B, so a single-colour
    tiling never beats ``ceil((5*delta - 4n)/2)``.
    """
    return _layout_blow_up(_EX_BES_3, ex_bes_3_layout(n, delta))


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

# An apex class red to base classes 1, 2 and blue to 3, 4, 5 over the badly coloured K5.
_APEX = [None, RED, RED, BLUE, BLUE, BLUE]
_PINNED_APEX = [_APEX] + [[a] + row for a, row in zip(_APEX[1:], _BADLY_K5)]


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
    _check(all(s > 0 for s in sizes), "class sizes must be positive")
    return _pattern_blow_up(_PINNED_APEX, sizes, 2)


# Classes A, a, b in t-mode and U, S1, S2 in degree mode.
_RED_CLIQUE_OVER_PAIR = [[RED, BLUE, BLUE], [BLUE, None, RED], [BLUE, RED, None]]


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
        return _pattern_blow_up(_RED_CLIQUE_OVER_PAIR, [3 * t - 1, 1, 1], 2)
    if n is None or delta is None:
        raise ValueError("pass either t or (n, delta)")
    _check(2 * delta > n and delta <= n - 1,
           f"degree mode needs n/2 < delta <= n-1, got n={n}, delta={delta}")
    return _pattern_blow_up(_RED_CLIQUE_OVER_PAIR, [2 * delta - n, n - delta, n - delta], 2)


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


def cell_hosts(n: int, delta: int, families: Iterable[str], samples: int, seed: int,
               spawn: tuple[int, ...]) -> list[tuple[str, ColouredGraph]]:
    """The hosts of one ``(n, delta)`` cell, each with its source name.

    First each named construction that exists at ``(n, delta)``, in the
    given order, then ``samples`` random hosts ``random-k``, the k-th seeded
    by ``seed`` with spawn key ``(n, delta, *spawn, k)``.
    """
    hosts = []
    for name in families:
        try:
            hosts.append((name, CONSTRUCTIONS[name][0](n, delta)))
        except ValueError:
            continue
    for k in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n, delta, *spawn, k)))
        hosts.append((f"random-{k}", random_min_degree_colouring(n, delta, rng)))
    return hosts


# ---------------------------------------------------------------------------
# Guarantee formulas.

@dataclass(frozen=True)
class BoundReport:
    """Piecewise tiling guarantees for a host with min degree ``delta``.

    ``moon_*`` describes the best mixed-colour guarantee, ``bes_*`` the best
    single-colour one.  Piece labels name the degree band: mixed low up to
    5n/6 and high from 7n/8, single mid from 6n/7 and high from 15n/17.
    ``moon_asymptotic`` marks the mid band whose mixed bound holds only up to
    o(n) slack; ``bes_conjectural`` marks single-colour values not backed by
    a proof at this ``n``.  ``extremal_min`` is the exact optimum of the matching
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


def extremal_min_formula(n: int, delta: int) -> int:
    return min(moon_formulas(n, delta).values())


def bound_report(n: int, delta: int) -> BoundReport:
    _check(delta in _degree_band(n),
           f"bounds are stated for 4n/5 <= delta <= n-1, got n={n}, delta={delta}")
    moon = moon_formulas(n, delta)
    moon_piece = "low" if 6 * delta <= 5 * n else "high" if 8 * delta >= 7 * n else "mid"
    bes_piece = "high" if 17 * delta >= 15 * n else "mid" if 7 * delta >= 6 * n else "low"
    proved = {"high": 66 * delta >= 65 * n or n >= 25, "mid": False,
              "low": 6 * delta <= 5 * n or n >= 25}[bes_piece]
    return BoundReport(n=n, delta=delta, moon_bound=moon[moon_piece],
                       moon_piece=moon_piece, moon_asymptotic=moon_piece == "mid",
                       bes_bound=bes_formulas(n, delta)[bes_piece],
                       bes_piece=bes_piece, bes_conjectural=not proved,
                       extremal_min=min(moon.values()))
