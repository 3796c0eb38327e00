"""Exhaustive, randomized, and adversarial checks for the tiling lemmas.

Complete 2-coloured hosts are scanned as integer edge codes: bit ``i`` of a
code colours edge ``i`` in the lexicographic edge order of
:func:`tritile.graphs.complete_colouring`, so every report's witness codes
round-trip through that function.  Exhaustive scans vectorise the
monochromatic-triangle indicator over numpy chunks and are cut into
fixed-size ranges, so the merged result (counts, capped witness lists, and
the lexicographically first witnesses) is identical for every worker count.
Randomized campaigns derive one rng per fixed-size chunk or restart from the
campaign seed, which keeps them worker-count independent as well.

Every stored witness is re-confirmed by an independent slow-path predicate
before it is reported; a disagreement between the vector kernel and the
slow path raises :class:`AnomalyError` rather than producing a report.
The bowtie sweeps' witnesses (qualifying codes whose extraction failed) are
re-checked the same way, through :func:`lemma_violated`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import asdict, dataclass, field, replace
from functools import lru_cache, partial
from itertools import combinations, product
from typing import Callable, Optional, Sequence

import numpy as np

from tritile.constructions import (
    CONSTRUCTIONS,
    bes_band,
    bes_formulas,
    extremal_min_formula,
    random_min_degree_colouring,
)
from tritile.graphs import (
    AnomalyError,
    ColouredGraph,
    Tiling,
    _digits,
    _undigits,
    complete_colouring,
    first_pair,
    iter_cliques,
    lex_edges,
)
from tritile.proofs import (
    bowtie_through_vertex_k6,
    extract_three_disjoint_k7x2,
    extract_two_disjoint_k8,
    second_bowtie_k7,
)
from tritile.solvers import find_bowtie, max_mixed_tiling, max_single_colour_tiling

WITNESS_CAP = 32
MAX_SCAN_EDGES = 30
DEFAULT_RAMSEY_BUDGET = 1 << 30

MODE_EXHAUSTIVE = "exhaustive"
MODE_RANDOMIZED = "randomized"
MODE_ADVERSARIAL = "adversarial"

_CHUNK = 1 << 20
_TASK_SIZE = 1 << 22
_CHECK_TASK_SIZE = 1 << 12


# --------------------------------------------------------------------------
# reports


class _Record:
    """``as_dict``/``comparable`` of a dataclass record.

    ``_derived`` names the properties ``as_dict`` adds after the fields; tuple
    fields come out as lists.
    """

    _derived: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        out = {k: list(v) if isinstance(v, tuple) else v
               for k, v in asdict(self).items()}
        for name in self._derived:
            out[name] = getattr(self, name)
        return out

    def comparable(self) -> dict:
        """Everything except the wall-clock field, for determinism checks."""
        out = self.as_dict()
        del out["elapsed"]
        return out


@dataclass
class LemmaReport(_Record):
    """Outcome of one verification campaign.

    ``universe_size`` counts the colourings the statement quantifies over,
    ``checked`` the colourings actually examined; for symmetry-reduced scans
    ``checked * reduction_factor == universe_size``.  ``violations`` holds at
    most ``WITNESS_CAP`` witness edge codes in increasing order, while
    ``violation_count`` is always exact.
    """

    lemma_id: str
    n: int
    r: int
    mode: str
    universe_size: int
    checked: int
    reduction_factor: int
    violation_count: int
    violations: tuple[int, ...]
    elapsed: float
    extra: dict = field(default_factory=dict)

    _derived = ("holds",)

    @property
    def holds(self) -> bool:
        return self.violation_count == 0

    def graph(self, code: int) -> ColouredGraph:
        """The host that the witness ``code`` of this report encodes."""
        if self.lemma_id == "k7x2":
            return k7x2_graph(k7x2_bits(code))
        return complete_colouring(self.n, 2, code)


@dataclass
class RamseyResult(_Record):
    """Result of an exhaustive Ramsey-style search.

    ``value`` is the least ``n`` whose whole universe satisfies the clique
    requirement, or None when ``n_max`` (or the code budget) was exhausted
    first.  ``witness_n``/``witness_code`` pin the last violating colouring
    seen, i.e. a sharpness example for ``value - 1`` when resolved.
    """

    kind: str
    ell: int
    r: int
    n_max: int
    value: Optional[int]
    witness_n: Optional[int]
    witness_code: Optional[int]
    checked: dict
    elapsed: float

    _derived = ("resolved",)

    @property
    def resolved(self) -> bool:
        return self.value is not None

    def witness(self) -> Optional[ColouredGraph]:
        if self.witness_n is None or self.witness_code is None:
            return None
        return complete_colouring(self.witness_n, self.r, self.witness_code)


@dataclass
class AuditRow(_Record):
    """One tightness comparison: exact solver optimum vs. closed form."""

    construction: str
    n: int
    delta: int
    mode: str
    optimum: int
    bound: int
    proved_optimal: bool
    nodes_explored: int
    theorem_equality: bool
    elapsed: float

    _derived = ("matches",)

    @property
    def matches(self) -> bool:
        return self.optimum == self.bound


@dataclass
class ProbeRecord:
    """Exact single-colour optimum of one host next to the candidate formulas.

    ``formula_high/mid/low`` are the raw piece values floor((d+1)/5),
    floor((4d-3n+1)/3), and ceil((5d-4n)/2) regardless of band;
    ``applicable_value`` is the piece selected by the degree band of
    ``(n, delta)``.  ``below_formula`` is only set when the optimum is proved,
    so an exhausted budget can never masquerade as a counterexample.
    """

    n: int
    delta: int
    source: str
    optimum: int
    proved_optimal: bool
    formula_high: int
    formula_mid: int
    formula_low: int
    applicable_piece: str
    applicable_value: int
    below_formula: bool

    def as_dict(self) -> dict:
        return asdict(self)


# --------------------------------------------------------------------------
# slow-path predicates (independent of the vector kernels)


def mono_triangle_count(g: ColouredGraph) -> int:
    return len(g.mono_triangles())


def has_mono_pair_sharing_at_most(g: ColouredGraph, shared: int) -> bool:
    """True when two monochromatic triangles overlap in <= ``shared`` vertices."""
    return first_pair(g.mono_triangles(), 0, shared) is not None


def max_disjoint_mono_capped(g: ColouredGraph, cap: int = 3) -> int:
    """Size of a largest vertex-disjoint monochromatic-triangle family, capped."""
    return _max_disjoint_capped([(1 << u) | (1 << v) | (1 << w)
                                 for u, v, w, _ in g.mono_triangles()], cap)


def lemma_violated(lemma: str, g: ColouredGraph, extra: Optional[dict] = None) -> bool:
    """Slow-path check that ``g`` is a counterexample to ``lemma``.

    ``lemma`` is one of the CLI's ``verify --lemma`` names; ``extra`` is the
    report's ``extra`` block, of which fact-k6 reads ``min_triangles``.
    """
    if lemma == "fact-k6":
        return mono_triangle_count(g) < (extra or {}).get("min_triangles", 2)
    if lemma == "claim-k7":
        return not has_mono_pair_sharing_at_most(g, 1)
    if lemma == "lemma-k8":
        return not has_mono_pair_sharing_at_most(g, 0)
    if lemma == "k7x2":
        return max_disjoint_mono_capped(g, 3) < 3
    if lemma == "bowtie":
        # A violation is a qualifying colouring whose extraction failed.
        return not bowtie_extraction_holds(g)
    raise ValueError(f"unknown lemma {lemma!r}")


def _max_disjoint_capped(masks: Sequence[int], cap: int) -> int:
    best = 0
    k = len(masks)

    def rec(i: int, used: int, depth: int) -> None:
        nonlocal best
        if depth > best:
            best = depth
        if best >= cap:
            return
        for j in range(i, k):
            if not masks[j] & used:
                rec(j + 1, used | masks[j], depth + 1)
                if best >= cap:
                    return

    rec(0, 0, 0)
    return best


def enumerate_colourings(n: int, r: int,
                         visitor: Callable[[int, ColouredGraph], None],
                         lo: int = 0, hi: Optional[int] = None) -> int:
    """Call ``visitor(code, graph)`` for every complete colouring in ``[lo, hi)``.

    Plain-python reference enumeration; the vectorised scans below are the
    hot path and are cross-checked against this one in the tests.  Returns
    the number of colourings visited.
    """
    total = r ** _edge_count_or_raise(n)
    if hi is None:
        hi = total
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"code range [{lo}, {hi}) outside universe 0..{total}")
    for code in range(lo, hi):
        visitor(code, complete_colouring(n, r, code))
    return hi - lo


def _confirm(cond: bool, what: str, g: Optional[ColouredGraph] = None) -> None:
    if not cond:
        raise AnomalyError(f"vector scan and slow recheck disagree on {what}",
                           graph=g)


# --------------------------------------------------------------------------
# scan engine over edge codes (r = 2)


@lru_cache(maxsize=None)
def _clique_edge_masks(n: int, ell: int) -> tuple[int, ...]:
    """Edge bitmask of every K_ell, in ``combinations(range(n), ell)`` order."""
    index = {e: i for i, e in enumerate(lex_edges(n))}
    out = []
    for verts in combinations(range(n), ell):
        m = 0
        for u, v in combinations(verts, 2):
            m |= 1 << index[(u, v)]
        out.append(m)
    return tuple(out)


@lru_cache(maxsize=None)
def _overlap_masks(n: int, lo: int, hi: int) -> tuple[int, ...]:
    """For triangle ``t``, the bitmask of the other triangles meeting it in lo..hi vertices.

    Triangles are numbered in ``combinations(range(n), 3)`` order, the bit
    order of :func:`_colour_bits`.
    """
    sets = [frozenset(t) for t in combinations(range(n), 3)]
    out = []
    for a in sets:
        m = 0
        for j, b in enumerate(sets):
            if b != a and lo <= len(a & b) <= hi:
                m |= 1 << j
        out.append(m)
    return tuple(out)


def _colour_bits(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Red and blue triangle bitmaps: bit ``t`` marks triangle ``t`` red (blue).

    Every step writes into a preallocated buffer, so a chunk costs the two
    bitmaps, one scratch word and one flag per code.
    """
    red = np.zeros_like(codes)
    blue = np.zeros_like(codes)
    sub = np.empty_like(codes)
    hit = np.empty(codes.shape, dtype=bool)
    for t, m in enumerate(_clique_edge_masks(n, 3)):
        mm, bit = np.uint64(m), np.uint64(1 << t)
        np.bitwise_and(codes, mm, out=sub)
        np.equal(sub, 0, out=hit)
        np.bitwise_or(red, bit, out=red, where=hit)
        np.equal(sub, mm, out=hit)
        np.bitwise_or(blue, bit, out=blue, where=hit)
    return red, blue


def _mono_bits(codes: np.ndarray, n: int) -> np.ndarray:
    red, blue = _colour_bits(codes, n)
    return np.bitwise_or(red, blue, out=red)


def _pair_hits(first: np.ndarray, second: np.ndarray,
               partners: Sequence[int]) -> np.ndarray:
    """True where some triangle ``t`` of ``first`` has a ``partners[t]`` triangle in ``second``."""
    out = np.zeros(first.shape, dtype=bool)
    scratch = np.empty_like(first)
    has = np.empty(first.shape, dtype=bool)
    meets = np.empty(first.shape, dtype=bool)
    for t, pm in enumerate(partners):
        if not pm:
            continue
        np.bitwise_and(first, np.uint64(1 << t), out=scratch)
        np.not_equal(scratch, 0, out=has)
        np.bitwise_and(second, np.uint64(pm), out=scratch)
        np.not_equal(scratch, 0, out=meets)
        np.logical_and(has, meets, out=has)
        np.logical_or(out, has, out=out)
    return out


# Vector filters: ``filt(codes, n)`` flags codes; extra parameters are bound
# with functools.partial so that scan tasks stay picklable.


def _fewer_mono(codes: np.ndarray, n: int, k: int) -> np.ndarray:
    """Codes with fewer than ``k`` monochromatic triangles."""
    x = _mono_bits(codes, n)
    scratch = np.empty_like(x)
    for _ in range(k - 1):
        # x & (x - 1) clears the lowest set bit; k - 1 clears empty x
        # exactly when fewer than k triangles are monochromatic.
        np.subtract(x, np.uint64(1), out=scratch)
        np.bitwise_and(x, scratch, out=x)
    return x == 0


def _no_mono_pair(codes: np.ndarray, n: int, share: int) -> np.ndarray:
    """Codes without two mono triangles meeting in at most ``share`` vertices."""
    mono = _mono_bits(codes, n)
    return ~_pair_hits(mono, mono, _overlap_masks(n, 0, share))


def _split_pair(codes: np.ndarray, n: int, share: int) -> np.ndarray:
    """Codes with a red and a blue triangle meeting in exactly ``share`` vertices."""
    red, blue = _colour_bits(codes, n)
    return _pair_hits(red, blue, _overlap_masks(n, share, share))


def _code_chunks(lo: int, hi: int, shift: int = 0, low: int = 0):
    """The codes ``(i << shift) | low`` for i in [lo, hi), as increasing numpy chunks."""
    for clo in range(lo, hi, _CHUNK):
        codes = np.arange(clo, min(clo + _CHUNK, hi), dtype=np.uint64)
        np.left_shift(codes, np.uint64(shift), out=codes)
        np.bitwise_or(codes, np.uint64(low), out=codes)
        yield codes


def _scan_task(args: tuple) -> tuple[int, int, int, list[int]]:
    n, filt, check, lo, hi, shift = args
    checked = hits = fails = 0
    found: list[int] = []
    for codes in _code_chunks(lo, hi, shift):
        checked += len(codes)
        bad = np.flatnonzero(filt(codes, n))
        hits += len(bad)
        if check is not None:
            bad = [i for i in bad if not check(complete_colouring(n, 2, int(codes[i])))]
        fails += len(bad)
        found.extend(int(codes[i]) for i in bad[:WITNESS_CAP - len(found)])
    return checked, hits, fails, found


def _resolve_workers(workers: Optional[int]) -> int:
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    return workers


def _map_tasks(fn: Callable, tasks: list, workers: Optional[int]) -> list:
    w = _resolve_workers(workers)
    if w <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with multiprocessing.Pool(min(w, len(tasks))) as pool:
        return pool.map(fn, tasks)


def _run_scan(n: int, filt: Callable, lo: int, hi: int, workers: Optional[int] = 1,
              shift: int = 0, check: Optional[Callable[[ColouredGraph], bool]] = None
              ) -> tuple[int, int, int, list[int]]:
    """Run the vector filter ``filt`` over the codes ``i << shift``, i in [lo, hi).

    Without ``check`` every flagged code is a violation; with it, flagged
    codes are the qualifying ones and a violation is one whose graph fails
    ``check``.  Returns (checked, flagged, violations, the lex-first
    ``WITNESS_CAP`` violation codes).  Fixed task boundaries keep the merged
    result independent of the worker count; tasks that run the scalar check
    are cut finer so that the pool can balance them.
    """
    size = _TASK_SIZE if check is None else _CHECK_TASK_SIZE
    tasks = [(n, filt, check, clo, min(clo + size, hi), shift)
             for clo in range(lo, hi, size)]
    results = _map_tasks(_scan_task, tasks, workers)
    found = [code for r in results for code in r[3]][:WITNESS_CAP]
    return (sum(r[0] for r in results), sum(r[1] for r in results),
            sum(r[2] for r in results), found)


def _edge_count_or_raise(n: int) -> int:
    edges = n * (n - 1) // 2
    if edges > MAX_SCAN_EDGES:
        raise ValueError(f"K_{n} has {edges} edges; exhaustive scans stop at "
                         f"{MAX_SCAN_EDGES}")
    return edges


def _scan_report(lemma_id: str, n: int, filt: Callable, lemma: str,
                 workers: Optional[int], shift: int = 0,
                 extra: Optional[dict] = None,
                 check: Optional[Callable[[ColouredGraph], bool]] = None
                 ) -> LemmaReport:
    """Exhaustive report over the K_n codes whose low ``shift`` bits are zero.

    ``filt`` flags the violations, or with ``check`` the qualifying codes,
    whose count goes into ``extra["qualifying"]`` (see :func:`_run_scan`).
    Every witness is re-confirmed by the slow predicate
    ``lemma_violated(lemma, ...)``.
    """
    start = time.perf_counter()
    universe = 1 << _edge_count_or_raise(n)
    checked, flagged, count, found = _run_scan(n, filt, 0, universe >> shift, workers,
                                               shift=shift, check=check)
    if check is not None:
        extra = {**(extra or {}), "qualifying": flagged}
    report = LemmaReport(lemma_id=lemma_id, n=n, r=2, mode=MODE_EXHAUSTIVE,
                         universe_size=universe, checked=checked,
                         reduction_factor=1 << shift,
                         violation_count=count, violations=tuple(found),
                         elapsed=time.perf_counter() - start, extra=extra or {})
    _confirm_witnesses(report, lemma)
    return report


def _confirm_witnesses(report: LemmaReport, lemma: str) -> None:
    """Re-check every stored witness of ``report`` with the slow predicate."""
    for code in report.violations:
        g = report.graph(code)
        _confirm(lemma_violated(lemma, g, report.extra),
                 f"a {report.lemma_id} witness", g)


# --------------------------------------------------------------------------
# lemma campaigns


def verify_fact_k6(n: int = 6, min_triangles: int = 2,
                   workers: Optional[int] = 1) -> LemmaReport:
    """Scan all 2-colourings of K_n for fewer than ``min_triangles`` mono triangles.

    The default instance is the K6 counting fact (every colouring has at
    least two).  ``n=5, min_triangles=1`` inverts into the classic sharpness
    scan: its 12 violations are exactly the triangle-free colourings of K5.
    """
    if min_triangles < 1:
        raise ValueError(f"min_triangles must be positive, got {min_triangles}")
    lemma_id = "fact-k6" if (n, min_triangles) == (6, 2) else f"mono-count-k{n}"
    return _scan_report(lemma_id, n, partial(_fewer_mono, k=min_triangles),
                        "fact-k6", workers, extra={"min_triangles": min_triangles})


def verify_claim_k7(workers: Optional[int] = 1) -> LemmaReport:
    """Scan all 2-colourings of K7 for a mono-triangle pair sharing <= 1 vertex."""
    return _scan_report("claim-k7", 7, partial(_no_mono_pair, share=1), "claim-k7",
                        workers)


def _extracts(extractor: Callable, g: ColouredGraph) -> bool:
    """True when ``extractor(g)`` returns verified, pairwise disjoint mono cliques."""
    try:
        return Tiling(tuple(extractor(g))).verify(g)
    except (ValueError, AnomalyError):
        return False


def _extract_k8_task(codes: tuple[int, ...]) -> list[int]:
    return [code for code in codes
            if not _extracts(extract_two_disjoint_k8, complete_colouring(8, 2, code))]


def verify_lemma_k8(n: int = 8, workers: Optional[int] = None,
                    extractor_samples: int = 0, seed: int = 0) -> LemmaReport:
    """Scan all 2-colourings of K_n for two vertex-disjoint mono triangles.

    At the default ``n=8`` the scan is halved by the colour swap: fixing the
    first edge red visits one representative per swap orbit, so ``checked``
    times ``reduction_factor == 2`` covers the universe and zero violations
    among representatives means zero overall.  ``n=7`` runs unreduced and is
    expected to surface violations; they are the sharpness witnesses showing
    the disjoint pair genuinely needs eight vertices.

    ``extractor_samples`` additionally runs the constructive K8 extractor on
    that many uniformly sampled codes (n=8 only) and counts its failures.
    """
    if extractor_samples and n != 8:
        raise ValueError("the extractor subset is defined on the K8 universe")
    start = time.perf_counter()
    shift = 1 if n == 8 else 0
    report = _scan_report("lemma-k8" if n == 8 else f"disjoint-pair-k{n}", n,
                          partial(_no_mono_pair, share=0), "lemma-k8",
                          workers, shift=shift)
    if extractor_samples:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        sample = rng.integers(0, report.universe_size, size=extractor_samples,
                              dtype=np.int64)
        step = 10_000
        tasks = [tuple(int(c) for c in sample[i:i + step])
                 for i in range(0, extractor_samples, step)]
        failures = [code for f in _map_tasks(_extract_k8_task, tasks, workers)
                    for code in f]
        report = replace(report, elapsed=time.perf_counter() - start,
                         extra={"extractor_samples": extractor_samples,
                                "extractor_failures": len(failures),
                                "extractor_failure_codes": failures[:WITNESS_CAP],
                                "extractor_seed": seed})
    return report


# --------------------------------------------------------------------------
# bowtie lemma sweeps


def bowtie_extraction_holds(g: ColouredGraph) -> bool:
    """True when the bowtie extractor for a complete K6 or K7 succeeds and verifies.

    On K6 a verified bowtie through each of the six vertices is demanded; on
    K7 a verified second bowtie distinct from the lexicographically first.
    """
    try:
        if g.n == 6:
            for v in range(6):
                bow = bowtie_through_vertex_k6(g, v)
                if not (bow.verify(g) and v in bow.vertex_set):
                    return False
            return True
        known = find_bowtie(g)
        if known is None or not known.verify(g):
            return False
        nxt = second_bowtie_k7(g, known)
        return nxt.verify(g) and nxt != known
    except (ValueError, AnomalyError):
        return False


def _bowtie_sweep(n: int, share: int, workers: Optional[int]) -> LemmaReport:
    """Extract from every code whose red and blue triangles meet in ``share`` vertices."""
    return _scan_report(f"bowtie-k{n}", n, partial(_split_pair, share=share), "bowtie",
                        workers, check=bowtie_extraction_holds)


def verify_bowtie_lemmas(workers: Optional[int] = 1) -> tuple[LemmaReport, LemmaReport]:
    """Exhaust both bowtie extraction lemmas over their full code universes.

    The K6 sweep filters the 2^15 universe down to colourings with two
    vertex-disjoint mono triangles of different colours, then demands a
    verified bowtie through every one of the six vertices.  The K7 sweep
    filters the 2^21 universe down to colourings containing a bowtie at all,
    then demands a verified second bowtie distinct from the lexicographically
    first one.  A violation in either report is an extractor failure, not a
    statistical event, so both are expected to be zero.
    """
    return _bowtie_sweep(6, 0, workers), _bowtie_sweep(7, 1, workers)


# --------------------------------------------------------------------------
# doubled-K7 campaign (randomized + adversarial)


K7X2_N = 14
K7X2_CLASSES = tuple((2 * i, 2 * i + 1) for i in range(7))
_K7X2_NONEDGES = frozenset(K7X2_CLASSES)
K7X2_EDGES = tuple((u, v) for u in range(K7X2_N) for v in range(u + 1, K7X2_N)
                   if (u, v) not in _K7X2_NONEDGES)


@lru_cache(maxsize=None)
def _k7x2_tables() -> tuple[np.ndarray, tuple[int, ...]]:
    """(triangle -> three edge indices) array plus triangle vertex masks."""
    index = {e: i for i, e in enumerate(K7X2_EDGES)}
    rows = []
    vmasks = []
    for a, b, c in combinations(range(K7X2_N), 3):
        if (a, b) in index and (a, c) in index and (b, c) in index:
            rows.append((index[(a, b)], index[(a, c)], index[(b, c)]))
            vmasks.append((1 << a) | (1 << b) | (1 << c))
    return np.array(rows, dtype=np.int64), tuple(vmasks)


def k7x2_code(bits: Sequence[int]) -> int:
    return _undigits(bits, 2)


def k7x2_bits(code: int) -> np.ndarray:
    return np.frombuffer(_digits(code, 2, len(K7X2_EDGES)), dtype=np.uint8).copy()


def k7x2_graph(bits: Sequence[int]) -> ColouredGraph:
    rows = [[0] * K7X2_N for _ in range(2)]
    for k, (u, v) in enumerate(K7X2_EDGES):
        c = int(bits[k])
        rows[c][u] |= 1 << v
        rows[c][v] |= 1 << u
    return ColouredGraph._from_masks(K7X2_N, 2, rows)


def _k7x2_mono_vmasks(bits: np.ndarray) -> list[int]:
    tri_edges, vmasks = _k7x2_tables()
    sums = bits[tri_edges].sum(axis=1)
    return [vmasks[i] for i in np.flatnonzero((sums == 0) | (sums == 3))]


def _k7x2_objective(bits: np.ndarray) -> tuple[int, int]:
    monos = _k7x2_mono_vmasks(bits)
    return _max_disjoint_capped(monos, 3), len(monos)


def _k7x2_sample_task(args: tuple) -> tuple[list[int], list[int]]:
    chunk_index, count, seed = args
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, chunk_index)))
    violations: list[int] = []
    extractor_fails: list[int] = []
    step = 10_000
    done = 0
    while done < count:
        rows = rng.integers(0, 2, size=(min(step, count - done), len(K7X2_EDGES)),
                            dtype=np.uint8)
        for row in rows:
            if not _extracts(extract_three_disjoint_k7x2, k7x2_graph(row)):
                code = k7x2_code(row)
                extractor_fails.append(code)
                # Classify independently: the lemma itself only fails when no
                # three disjoint mono triangles exist at all.
                if _k7x2_objective(row)[0] < 3:
                    violations.append(code)
        done += len(rows)
    return violations, extractor_fails


def _k7x2_adversarial_task(args: tuple) -> tuple[int, int, list[int]]:
    restart_index, seed, max_steps = args
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, restart_index)))
    tri_edges, vmasks = _k7x2_tables()
    m = len(K7X2_EDGES)
    bits = rng.integers(0, 2, size=m, dtype=np.uint8)
    current = _k7x2_objective(bits)
    evaluated = 1
    min_floor = current[0]
    violations: list[int] = []
    if current[0] < 3:
        violations.append(k7x2_code(bits))
    for _ in range(max_steps):
        flips = np.tile(bits, (m, 1))
        flips[np.arange(m), np.arange(m)] ^= 1
        sums = flips[:, tri_edges].sum(axis=2)
        mono = (sums == 0) | (sums == 3)
        mono_counts = mono.sum(axis=1)
        best: Optional[tuple[int, int]] = None
        best_flip = -1
        for f in range(m):
            floor = _max_disjoint_capped(
                [vmasks[i] for i in np.flatnonzero(mono[f])], 3)
            cand = (floor, int(mono_counts[f]))
            if best is None or cand < best:
                best = cand
                best_flip = f
        if best is None or best >= current:
            break
        bits[best_flip] ^= 1
        current = best
        evaluated += 1
        min_floor = min(min_floor, current[0])
        if current[0] < 3:
            violations.append(k7x2_code(bits))
    return evaluated, min_floor, violations


def verify_k7_blowup(samples: int = 1_000_000, adversarial_restarts: int = 1_000,
                     plateau_steps: int = 10_000, seed: int = 0,
                     workers: Optional[int] = 1,
                     chunk_size: int = 100_000) -> LemmaReport:
    """Randomized and adversarial campaign on the doubled K7.

    Every sampled 2-colouring of the 14-vertex host (complete minus the
    doubling matching) must admit three vertex-disjoint mono triangles, and
    the constructive extractor must produce them.  The adversarial phase runs
    steepest-descent restarts over single-edge recolourings, minimising
    (capped disjoint-triangle count, mono-triangle count), and records every
    state whose packing dips below three.  Violations are genuine lemma
    counterexamples, re-confirmed by the slow packing check; extractor
    failures on non-violating states are reported separately in ``extra``.
    """
    if samples < 0 or adversarial_restarts < 0:
        raise ValueError("sample and restart counts must be nonnegative")
    if chunk_size < 1:
        raise ValueError(f"chunk size must be positive, got {chunk_size}")
    start = time.perf_counter()
    tasks = [(index, min(chunk_size, samples - lo), seed)
             for index, lo in enumerate(range(0, samples, chunk_size))]
    checked = samples
    violations: list[int] = []
    extractor_fails: list[int] = []
    for viols, fails in _map_tasks(_k7x2_sample_task, tasks, workers):
        violations.extend(viols)
        extractor_fails.extend(fails)
    adv_tasks = [(i, seed, plateau_steps) for i in range(adversarial_restarts)]
    adv_results = _map_tasks(_k7x2_adversarial_task, adv_tasks, workers)
    min_floor = 3
    for evaluated, floor, viols in adv_results:
        checked += evaluated
        min_floor = min(min_floor, floor)
        violations.extend(viols)
    mode = MODE_ADVERSARIAL if adversarial_restarts else MODE_RANDOMIZED
    report = LemmaReport(lemma_id="k7x2", n=K7X2_N, r=2, mode=mode,
                         universe_size=1 << len(K7X2_EDGES), checked=checked,
                         reduction_factor=1,
                         violation_count=len(violations),
                         violations=tuple(violations[:WITNESS_CAP]),
                         elapsed=time.perf_counter() - start,
                         extra={"samples": samples,
                                "adversarial_restarts": adversarial_restarts,
                                "plateau_steps": plateau_steps,
                                "seed": seed,
                                "extractor_failures": len(extractor_fails),
                                "extractor_failure_codes": extractor_fails[:WITNESS_CAP],
                                "adversarial_min_packing": min_floor})
    _confirm_witnesses(report, "k7x2")
    return report


# --------------------------------------------------------------------------
# Ramsey-style searches


def _first_clique_free_code(n: int, r: int, ell: int, codes) -> Optional[int]:
    """First code of the stream ``codes`` with no monochromatic K_ell, else None.

    For two colours ``codes`` yields numpy chunks, otherwise plain ints.
    """
    if r == 2:
        masks = _clique_edge_masks(n, ell)
        for chunk in codes:
            ok = np.zeros(chunk.shape, dtype=bool)
            for m in masks:
                mm = np.uint64(m)
                sub = chunk & mm
                ok |= (sub == 0) | (sub == mm)
            viol = np.flatnonzero(~ok)
            if viol.size:
                return int(chunk[viol[0]])
        return None
    for code in codes:
        if not _has_mono_clique(complete_colouring(n, r, code), ell):
            return code
    return None


def _has_mono_clique(g: ColouredGraph, ell: int) -> bool:
    full = (1 << g.n) - 1
    return any(next(iter_cliques(rows, full, ell), None) is not None
               for rows in g.colour_adj)


def _ramsey_codes(n: int, r: int, special: bool):
    """(increasing stream, count) of the r-colourings of K_n a search visits.

    With ``special`` these are the colourings in which vertex 0 misses
    colour 0.  The n-1 edges at vertex 0 are the lowest digits of the
    lexicographic edge order, so such a code is a free code of the other
    edges shifted up past an apex whose n-1 digits avoid 0; the classic
    search has an apex of width 0.  For two colours the stream is numpy
    chunks and the one apex is all ones; otherwise it is plain ints.
    """
    apex = n - 1 if special else 0
    rest = r ** (n * (n - 1) // 2 - apex)
    if r == 2:
        return _code_chunks(0, rest, apex, (1 << apex) - 1), rest

    def stream():
        scale = r ** apex
        bases = sorted(sum(d * r ** i for i, d in enumerate(digits))
                       for digits in product(range(1, r), repeat=apex))
        for high in range(rest):
            for base in bases:
                yield high * scale + base

    return stream(), (r - 1) ** apex * rest


def _ramsey_search(ell: int, r: int, n_max: int, budget: int,
                   special: bool) -> RamseyResult:
    """Scan n upward for the first order whose :func:`_ramsey_codes` all hold a mono K_ell."""
    if ell < 2 or r < 2:
        raise ValueError(f"need ell >= 2 and r >= 2, got ell={ell}, r={r}")
    start = time.perf_counter()
    checked: dict = {}
    witness_n, witness_code = (None, None) if special else (ell - 1, 0)
    value = None
    for n in range(1 if special else ell, n_max + 1):
        codes, universe = _ramsey_codes(n, r, special)
        # r > 2 falls back to a plain python loop, so its practical budget
        # is far smaller than the vectorised two-colour path's.
        if universe > (budget if r == 2 else min(budget, 1 << 22)):
            break
        code = _first_clique_free_code(n, r, ell, codes)
        checked[n] = universe
        if code is None:
            value = n
            break
        witness_n, witness_code = n, code
    return RamseyResult(kind="special" if special else "classic", ell=ell, r=r,
                        n_max=n_max, value=value, witness_n=witness_n,
                        witness_code=witness_code, checked=checked,
                        elapsed=time.perf_counter() - start)


def compute_ramsey(ell: int, r: int = 2, n_max: int = 8,
                   budget: int = DEFAULT_RAMSEY_BUDGET) -> RamseyResult:
    """Least ``n`` such that every r-colouring of K_n has a mono K_ell.

    Scans n upward exhaustively; stops unresolved (``value None``) when the
    universe at some n exceeds ``budget`` codes or ``n_max`` is passed.  The
    witness is always the lexicographically first clique-free colouring of
    the last violating order, i.e. a sharpness example once resolved.
    """
    return _ramsey_search(ell, r, n_max, budget, special=False)


def compute_special_ramsey(ell: int, r: int = 2, n_max: int = 6,
                           budget: int = DEFAULT_RAMSEY_BUDGET) -> RamseyResult:
    """Least ``n`` such that every special r-colouring of K_n has a mono K_ell.

    Special means some vertex sees no edge of some colour; by relabelling it
    suffices to scan colourings where vertex 0 misses colour 0.  The scan
    starts at n=1, and witness bookkeeping matches :func:`compute_ramsey`.
    """
    return _ramsey_search(ell, r, n_max, budget, special=True)


# --------------------------------------------------------------------------
# tightness audit


# (construction, n, delta, solver mode, a proved bound covers this band)
AUDIT_INSTANCES = (
    ("ex-triangle", 12, 10, "mixed", True),
    ("ex-triangle", 30, 25, "mixed", True),
    ("ex-triangle-alt", 24, 21, "mixed", True),
    ("ex-bes-1", 9, 8, "single", False),
    ("ex-bes-1", 22, 16, "single", False),
    ("ex-bes-2", 25, 22, "single", False),
    ("ex-bes-3", 24, 20, "single", True),
)


# The single-colour piece each ex-bes construction is extremal for; the
# mixed constructions meet extremal_min_formula.
_BES_PIECES = {"ex-bes-1": "high", "ex-bes-2": "mid", "ex-bes-3": "low"}


def audit_tightness(budget: Optional[int] = None) -> list[AuditRow]:
    """Solve every pinned extremal instance exactly and compare to its bound.

    The solver optimum exceeding the closed-form bound would refute the
    matching upper-bound argument, so that direction raises AnomalyError;
    the rows record whether equality held and whether the search completed.
    """
    rows = []
    for construction, n, delta, mode, in_band in AUDIT_INSTANCES:
        g = CONSTRUCTIONS[construction][0](n, delta)
        start = time.perf_counter()
        if mode == "mixed":
            result = max_mixed_tiling(g, budget=budget)
        else:
            result = max_single_colour_tiling(g, budget=budget)
        piece = _BES_PIECES.get(construction)
        bound = (extremal_min_formula(n, delta) if piece is None
                 else bes_formulas(n, delta)[piece])
        if result.proved_optimal and result.optimum > bound:
            raise AnomalyError(
                f"{construction}({n},{delta}) packs {result.optimum} triangles, "
                f"above its closed-form cap {bound}", graph=g,
                detail={"construction": construction, "n": n, "delta": delta,
                        "optimum": result.optimum, "bound": bound})
        rows.append(AuditRow(construction=construction, n=n, delta=delta,
                             mode=mode, optimum=result.optimum, bound=bound,
                             proved_optimal=result.proved_optimal,
                             nodes_explored=result.nodes_explored,
                             theorem_equality=in_band,
                             elapsed=time.perf_counter() - start))
    return rows


# --------------------------------------------------------------------------
# open-question probe


def probe_question(n_values: Sequence[int] = (25,),
                   delta_values: Optional[Sequence[int]] = None,
                   samples_per_cell: int = 2, perturbed_per_cell: int = 1,
                   seed: int = 0, budget: Optional[int] = None) -> list[ProbeRecord]:
    """Hunt for hosts whose exact single-colour optimum beats the formulas.

    For each (n, delta) cell with n >= 25 and delta >= 4n/5, solves the
    admissible extremal constructions, seeded random minimum-degree hosts,
    and randomly recoloured (degree-preserving) copies of the constructions.
    A record with ``below_formula`` set would be a counterexample to the
    conjectured piecewise optimum; none is expected.
    """
    records: list[ProbeRecord] = []
    for n in n_values:
        if n < 25:
            raise ValueError(f"the probe grid starts at n=25, got n={n}")
        deltas = delta_values if delta_values is not None \
            else range(-(-4 * n // 5), n)
        for delta in deltas:
            if 5 * delta < 4 * n or delta > n - 1:
                raise ValueError(f"delta={delta} outside 4n/5..n-1 for n={n}")
            hosts: list[tuple[str, ColouredGraph]] = []
            for name, (builder, _) in CONSTRUCTIONS.items():
                if name in ("ex-triangle", "ex-triangle-alt"):
                    continue
                try:
                    hosts.append((name, builder(n, delta)))
                except ValueError:
                    continue
            for k in range(samples_per_cell):
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(n, delta, 0, k)))
                hosts.append((f"random-{k}", random_min_degree_colouring(n, delta, rng)))
            base = hosts[0] if hosts and hosts[0][0].startswith("ex-") else None
            for k in range(perturbed_per_cell if base else 0):
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(n, delta, 1, k)))
                hosts.append((f"perturbed-{base[0]}-{k}",
                              _recolour_edges(base[1], rng)))
            formulas = bes_formulas(n, delta)
            piece = bes_band(n, delta)
            for source, g in hosts:
                result = max_single_colour_tiling(g, budget=budget)
                records.append(ProbeRecord(
                    n=n, delta=delta, source=source, optimum=result.optimum,
                    proved_optimal=result.proved_optimal,
                    formula_high=formulas["high"], formula_mid=formulas["mid"],
                    formula_low=formulas["low"],
                    applicable_piece=piece, applicable_value=formulas[piece],
                    below_formula=(result.proved_optimal
                                   and result.optimum < formulas[piece])))
    return records


def _recolour_edges(g: ColouredGraph, rng, fraction: float = 0.1) -> ColouredGraph:
    """Flip the colour of a random edge subset; degrees are untouched."""
    edges = g.edges()
    flips = max(1, int(len(edges) * fraction))
    chosen = set(int(i) for i in rng.choice(len(edges), size=flips, replace=False))
    out = [(u, v, (c + 1) % g.r if i in chosen else c)
           for i, (u, v, c) in enumerate(edges)]
    return ColouredGraph(g.n, g.r, out)
