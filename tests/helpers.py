"""Shared test utilities: small random graphs, a plain enumeration of complete
colourings, and a brute-force packing oracle."""

from __future__ import annotations

from typing import Callable, Optional

from hypothesis import strategies as st

from tritile.graphs import ColouredGraph, Triangle, complete_colouring, mask_of


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
