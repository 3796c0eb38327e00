"""Recompute from scratch the values the benchmark's run-time checks take on trust.

    python3 perfbench/recompute.py

Two values can only be compared against a second, independent computation:

* the number of 2-colourings of K7 without two vertex-disjoint monochromatic
  triangles, which ``scan`` gets from ``verify_lemma_k8(n=7)`` (4662 in the
  literature), recounted here by a numpy predicate over all 2^21 codes that
  walks the 70 disjoint triangle pairs of K7 directly;
* the optima of the recoloured ``solve`` hosts, recomputed here by a
  memoised exact search over vertex subsets that shares no code with the
  package's branch and bound.

Prints one line per value and exits 1 when any differs from the package.
"""

from __future__ import annotations

import os
import sys
from functools import lru_cache
from itertools import combinations

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import tritile as tt  # noqa: E402
import workloads  # noqa: E402


def k7_without_disjoint_pair(chunk: int = 1 << 18) -> int:
    """Count K7 codes with no two vertex-disjoint monochromatic triangles."""
    index = {e: i for i, e in enumerate(checks.complete_edges(7))}
    triangles = list(combinations(range(7), 3))
    edge_bits = [[index[p] for p in combinations(t, 2)] for t in triangles]
    pairs = [(i, j) for i, j in combinations(range(len(triangles)), 2)
             if not set(triangles[i]) & set(triangles[j])]
    count = 0
    for lo in range(0, 1 << 21, chunk):
        codes = np.arange(lo, lo + chunk, dtype=np.uint32)
        bits = [(codes >> np.uint32(k)) & np.uint32(1) for k in range(21)]
        mono = [(bits[a] == bits[b]) & (bits[b] == bits[c]) for a, b, c in edge_bits]
        has_pair = np.zeros(chunk, dtype=bool)
        for i, j in pairs:
            has_pair |= mono[i] & mono[j]
        count += int(chunk - np.count_nonzero(has_pair))
    return count


def max_packing(triangles: list[tuple[int, ...]]) -> int:
    """Largest family of pairwise disjoint triangles, by memoised search."""
    masks = [sum(1 << v for v in t) for t in triangles]

    @lru_cache(maxsize=None)
    def best(free: int) -> int:
        inside = [m for m in masks if m & free == m]
        if not inside:
            return 0
        support = 0
        for m in inside:
            support |= m
        low = support & -support
        result = best(free & ~low)
        for m in inside:
            if m & low:
                result = max(result, 1 + best(free & ~m))
        return result

    return best((1 << (max(max(t) for t in triangles) + 1)) - 1) if triangles else 0


def solve_optima() -> list[tuple[str, int, int]]:
    """(host label and mode, package optimum, recomputed optimum) per solve job."""
    out = []
    solve = workloads.Solve(seed=0)
    for (family, n, d, frac, rseed), g, colour, mode in solve.jobs:
        tris = checks.mono_triangles(colour, n)
        if mode == "mixed":
            mine = max_packing([t for t, _ in tris])
            theirs = tt.max_mixed_tiling(g).optimum
        else:
            mine = max(max_packing([t for t, c in tris if c == col]) for col in (0, 1))
            theirs = tt.max_single_colour_tiling(g).optimum
        how = f"recoloured {frac} seed {rseed}" if frac else "unrecoloured"
        out.append((f"{family}({n},{d}) {how} {mode}", theirs, mine))
    return out


def main() -> int:
    rows = [("K7 colourings without two disjoint mono triangles",
             tt.verify_lemma_k8(n=7, workers=1).violation_count, k7_without_disjoint_pair())]
    rows += solve_optima()
    bad = 0
    for label, theirs, mine in rows:
        ok = theirs == mine
        bad += not ok
        print(f"{'ok  ' if ok else 'DIFF'} {label}: package {theirs}, recomputed {mine}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
