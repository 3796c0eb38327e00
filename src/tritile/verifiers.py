"""Exhaustive, randomized, and adversarial checks for the tiling lemmas.

Complete r-coloured hosts are scanned as integer edge codes: digit ``i`` of
a base-r code colours edge ``i`` in the lexicographic edge order of
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
from itertools import combinations
from math import comb
from typing import Callable, Optional, Sequence

import numpy as np

from tritile.constructions import (
    CONSTRUCTIONS,
    BoundReport,
    _degree_band,
    bes_formulas,
    bound_report,
    cell_hosts,
    extremal_min_formula,
    moon_formulas,
)
from tritile.graphs import (
    AnomalyError,
    ColouredGraph,
    SearchBudgetExceeded,
    Tiling,
    _digits,
    _undigits,
    complete_colouring,
    first_pair,
    iter_bits,
    lex_edges,
)
from tritile.proofs import (
    K7X2_EDGES,
    K7X2_N,
    _k7x2_extract,
    _k7x2_tables,
    bes_large,
    bes_small,
    bowtie_through_vertex_k6,
    extract_two_disjoint_k8,
    moon_large,
    moon_small,
    second_bowtie_k7,
)
from tritile.solvers import (
    DEFAULT_NODE_BUDGET,
    _PackingSearch,
    _single_colour_search,
    _triangle_table,
    find_bowtie,
)

WITNESS_CAP = 32
MAX_SCAN_EDGES = 30
DEFAULT_RAMSEY_BUDGET = 1 << 30

MODE_EXHAUSTIVE = "exhaustive"
MODE_RANDOMIZED = "randomized"
MODE_ADVERSARIAL = "adversarial"

_CHUNK = 1 << 14
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
        out.pop("elapsed", None)
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


@dataclass(frozen=True)
class GridRow(_Record):
    """One host of an ``(n, delta)`` grid next to the closed forms; see :func:`grid_row`.

    ``optimum`` and ``proved_optimal`` report ``mode``, the first mode solved; a column
    that does not apply is None.  Only a ``below_formula`` row keeps its ``host``, and
    ``as_dict`` holds the ``columns`` of the command that made the row.
    """

    source: str
    n: int
    delta: int
    mode: str
    nodes_explored: int
    below_formula: bool
    status: str
    elapsed: float
    bound: Optional[int]
    report: Optional[BoundReport]
    mixed_optimum: Optional[int] = None
    mixed_proved: Optional[bool] = None
    single_optimum: Optional[int] = None
    single_proved: Optional[bool] = None
    moon_small: Optional[int] = None
    bes_small: Optional[int] = None
    moon_large: Optional[int] = None
    bes_large: Optional[int] = None
    columns: tuple[str, ...] = field(default=(), compare=False, repr=False)
    host: Optional[ColouredGraph] = field(default=None, compare=False, repr=False)

    construction = property(lambda self: self.source)
    optimum = property(lambda self: getattr(self, f"{self.mode}_optimum"))
    proved_optimal = property(lambda self: getattr(self, f"{self.mode}_proved"))
    matches = property(lambda self: self.optimum == self.bound)
    # A proved bound covers the cell in the row's mode.
    theorem_equality = property(lambda self: self.report is not None and not (
        self.report.moon_asymptotic if self.mode == "mixed" else self.report.bes_conjectural))
    applicable_piece = property(lambda self: self.report.bes_piece)
    applicable_value = property(lambda self: self.report.bes_bound)
    formula_high = property(lambda self: bes_formulas(self.n, self.delta)["high"])
    formula_mid = property(lambda self: bes_formulas(self.n, self.delta)["mid"])
    formula_low = property(lambda self: bes_formulas(self.n, self.delta)["low"])

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.columns}


# --------------------------------------------------------------------------
# slow-path predicates (independent of the vector kernels)


def mono_triangle_count(g: ColouredGraph) -> int:
    return len(g.mono_triangles())


def has_mono_pair_sharing_at_most(g: ColouredGraph, shared: int) -> bool:
    """True when two monochromatic triangles overlap in <= ``shared`` vertices."""
    return first_pair(g.mono_triangles(), 0, shared) is not None


def max_disjoint_mono_capped(g: ColouredGraph, cap: int = 3) -> int:
    """Size of a largest vertex-disjoint monochromatic-triangle family, capped."""
    return len(_capped_packing(g.mono_triangles(), cap))


def _capped_packing(triangles: Sequence | np.ndarray, cap: int) -> list[int]:
    """The positions of a largest packing of the ``(u, v, w, c)`` rows, cut off at ``cap``;
    raises :class:`SearchBudgetExceeded` past ``DEFAULT_NODE_BUDGET`` nodes."""
    search = _PackingSearch(triangles, DEFAULT_NODE_BUDGET, cap)
    if not search.run().proved_optimal:
        raise SearchBudgetExceeded(f"capped packing search exceeded {DEFAULT_NODE_BUDGET} nodes")
    return search.best_sel


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


def _confirm(cond: bool, what: str, g: Optional[ColouredGraph] = None,
             detail: Optional[dict] = None) -> None:
    if not cond:
        raise AnomalyError(f"vector scan and slow recheck disagree on {what}",
                           graph=g, detail=detail)


# --------------------------------------------------------------------------
# scan engine over edge codes
#
# Every exhaustive scan walks its codes in blocks.  The lowest ``digits``
# base-r digits of a code are its low digits, the rest its high ones, and a
# block is one value of the high digits together with every low value the
# scan visits: up to _CHUNK of them, or all that the scan's fixed digits
# allow when those alone are more.  A clique has colour c exactly when its
# low edges and its high edges all have colour c, so per 64-bit word of
# cliques the colour-c bitmap of a code is L_c[low] & H_c[high].  L_c marks
# the cliques whose low edges all have colour c, the high digits left free,
# and H_c those whose high edges do, the low digits left free.  One builder
# makes both by comparing digits: the low factor once per scan shape and
# cached, the high words a batch of blocks at a time, so that a search that
# stops early builds few of them.  A block's bitmaps are thus one slice of
# the low factor ANDed with one word per colour and word, with no work per
# code; its few arrays (128 KB per colour and word) and the low factor stay
# in a core's cache between steps.
#
# The pair test works on triangle bitmaps through slice tables.  The
# partner set of a bitmap is the union of its triangles' partner masks: cut
# the bitmap into slices of at most _SLICE_BITS bits, and it is the OR of
# one lookup per slice in tables of partial unions.  Neither the block size
# nor the batch moves a task boundary, so reports do not depend on them.

_SLICE_BITS = 12
_HIGH_BATCH = 256
_FACTOR_ROWS = 1 << 10


def _slices(bits: int) -> tuple[tuple[int, int], ...]:
    """(shift, width) of each slice when ``bits`` bits are cut into near-equal slices.

    There is always at least one slice, of width 0 when ``bits`` is 0.
    """
    out = []
    shift = 0
    for left in range(max(1, -(-bits // _SLICE_BITS)), 0, -1):
        width = -(-(bits - shift) // left)
        out.append((shift, width))
        shift += width
    return tuple(out)


def _pack_words(flags: np.ndarray) -> np.ndarray:
    """Read-only (words, rows) uint64 array whose row bits are the columns of ``flags``.

    The tables are cached and shared by every caller, hence read-only.
    """
    rows, cols = flags.shape
    padded = np.zeros((rows, 64 * max(1, -(-cols // 64))), dtype=bool)
    padded[:, :cols] = flags
    packed = np.packbits(padded, axis=1, bitorder="little").view("<u8")
    out = np.ascontiguousarray(packed.T, dtype=np.uint64)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def _clique_edges(n: int, ell: int) -> np.ndarray:
    """Row j holds the lexicographic edge indices of the j-th K_ell of K_n in
    ``combinations(range(n), ell)`` order."""
    index = {e: i for i, e in enumerate(lex_edges(n))}
    out = np.array([[index[e] for e in combinations(verts, 2)]
                    for verts in combinations(range(n), ell)],
                   dtype=np.intp).reshape(-1, ell * (ell - 1) // 2)
    out.flags.writeable = False
    return out


def _factor(codes: np.ndarray, n: int, r: int, ell: int, lo: int, hi: int) -> np.ndarray:
    """(r, words, len(codes)) K_ell bitmaps of ``codes`` with only the digits in [lo, hi) read.

    Bit j of word w of entry [c, w, i] is clique 64w + j, set when each of
    its edges with a digit in [lo, hi) has colour c in ``codes[i]``; the
    other digits are free.  There is at least one word.  The codes go
    through in pieces of _FACTOR_ROWS, which keeps the temporaries small.
    """
    edges = _clique_edges(n, ell)
    places = np.array([r ** d for d in range(lo, hi)], dtype=np.uint64)
    out = np.empty((r, max(1, -(-len(edges) // 64)), len(codes)), dtype=np.uint64)
    for s in range(0, len(codes), _FACTOR_ROWS):
        part = codes[s:s + _FACTOR_ROWS]
        digits = part[:, None] // places % np.uint64(r)
        same = np.ones((len(part), n * (n - 1) // 2), dtype=bool)
        for c in range(r):
            np.equal(digits, c, out=same[:, lo:hi])
            out[c, :, s:s + len(part)] = _pack_words(same[:, edges].all(axis=2))
    return out


@lru_cache(maxsize=None)
def _low_block(n: int, r: int, ell: int, digits: int, fixed: int, allowed: tuple[int, ...]
               ) -> tuple[np.ndarray, np.ndarray]:
    """The sorted low codes of a block and their factor, both read-only.

    The low codes are those below r^digits whose lowest ``fixed`` digits
    take values in ``allowed``.
    """
    low = np.zeros(1, dtype=np.uint64)
    # Each pass appends a lower digit, so the codes come out sorted.
    for _ in range(fixed):
        low = (low[:, None] * np.uint64(r) + np.array(allowed, dtype=np.uint64)).ravel()
    low = (np.arange(r ** (digits - fixed), dtype=np.uint64)[:, None]
           * np.uint64(r ** fixed) + low).ravel()
    factor = _factor(low, n, r, ell, 0, digits)
    low.flags.writeable = factor.flags.writeable = False
    return low, factor


def _colour_chunks(n: int, r: int, ell: int, lo: int, hi: int, fixed: int = 0,
                   allowed: Sequence[int] = ()):
    """(code, low, bits) per block of the codes i in [lo, hi) of a scan, in increasing order.

    The scan visits, in increasing order, the codes of r-coloured K_n whose
    lowest ``fixed`` digits take values in ``allowed`` and whose other
    digits are free; i counts them from 0.  Entry k of a block is the code
    ``code + low[k]``, and ``bits[c, w, k]`` is word w of its colour-c K_ell
    bitmap; ``bits`` is a fresh array for the caller to overwrite.
    """
    edges = n * (n - 1) // 2
    allowed = tuple(allowed) if fixed else ()
    digits, size = fixed, len(allowed) ** fixed
    while digits < edges and size * r <= _CHUNK:
        digits, size = digits + 1, size * r
    low, factor = _low_block(n, r, ell, digits, fixed, allowed)
    place = r ** digits
    first, last = lo // size, (hi - 1) // size + 1
    for start in range(first, last, _HIGH_BATCH):
        heads = np.arange(start, min(start + _HIGH_BATCH, last), dtype=np.uint64)
        high = _factor(heads * np.uint64(place), n, r, ell, digits, edges)
        for k, h in enumerate(range(start, start + len(heads))):
            a, b = max(lo - h * size, 0), min(hi - h * size, size)
            yield h * place, low[a:b], factor[:, :, a:b] & high[:, :, k, None]


@lru_cache(maxsize=None)
def _partner_tables(n: int, lo: int, hi: int
                    ) -> tuple[tuple[tuple[int, int], ...], tuple[np.ndarray, ...]]:
    """The slices of a K_n triangle bitmap, and per slice its partner unions.

    Triangle t's partners are the other triangles meeting it in lo..hi
    vertices; ``table[x]`` is the union of the partners of the triangles
    ``shift + b`` over the set bits b of x.
    """
    tris = np.array(list(combinations(range(n), 3)), dtype=np.int64).reshape(-1, 3)
    incidence = (tris[:, :, None] == np.arange(n)).sum(axis=1)
    meet = incidence @ incidence.T
    partners = _pack_words((lo <= meet) & (meet <= hi) & ~np.eye(len(tris), dtype=bool))[0]
    slices = _slices(len(tris))
    tables = []
    for shift, width in slices:
        table = np.zeros(1, dtype=np.uint64)
        for p in partners[shift:shift + width]:
            table = np.concatenate([table, table | p])
        table.flags.writeable = False
        tables.append(table)
    return slices, tuple(tables)


def _gather(values: np.ndarray, slices: Sequence[tuple[int, int]],
            tables: Sequence[np.ndarray], out: np.ndarray) -> None:
    """out = the OR over k of ``tables[k][slice k of values]``; slice k holds bits
    shift..shift + width - 1."""
    idx = np.empty_like(values)
    part = np.empty_like(values)
    for k, (shift, width) in enumerate(slices):
        np.right_shift(values, np.uint64(shift), out=idx)
        np.bitwise_and(idx, np.uint64((1 << width) - 1), out=idx)
        # mode="clip" lets take write straight into ``out``; the indices
        # are in range, so it never clips.
        np.take(tables[k], idx.view(np.int64), out=part if k else out, mode="clip")
        if k:
            np.bitwise_or(out, part, out=out)


def _pair_hits(first: np.ndarray, second: np.ndarray, n: int, lo: int, hi: int
               ) -> np.ndarray:
    """True where a triangle of ``first`` meets another of ``second`` in lo..hi vertices."""
    slices, tables = _partner_tables(n, lo, hi)
    partners = np.empty_like(first)
    _gather(first, slices, tables, partners)
    np.bitwise_and(partners, second, out=partners)
    return partners != 0


# Vector filters: ``filt(bits, n)`` flags the codes of a block from its
# clique bitmaps per colour and word (triangles, for the lemma scans),
# which it may overwrite; extra parameters are bound with functools.partial
# so that scan tasks stay picklable.


def _fewer_mono(bits: np.ndarray, n: int, k: int) -> np.ndarray:
    """Codes with fewer than ``k`` monochromatic triangles."""
    red, blue = bits[:, 0]
    x = np.bitwise_or(red, blue, out=red)
    # x & (x - 1) clears the lowest set bit; k - 1 rounds clear x exactly
    # when fewer than k triangles are monochromatic.  K_n has C(n, 3), so
    # no further round clears anything.
    for _ in range(min(k - 1, comb(n, 3))):
        np.subtract(x, np.uint64(1), out=blue)
        np.bitwise_and(x, blue, out=x)
    return x == 0


def _no_mono_pair(bits: np.ndarray, n: int, share: int) -> np.ndarray:
    """Codes without two mono triangles meeting in at most ``share`` vertices."""
    red, blue = bits[:, 0]
    mono = np.bitwise_or(red, blue, out=red)
    return ~_pair_hits(mono, mono, n, 0, share)


def _split_pair(bits: np.ndarray, n: int, share: int) -> np.ndarray:
    """Codes with a red and a blue triangle meeting in exactly ``share`` vertices."""
    return _pair_hits(bits[0, 0], bits[1, 0], n, share, share)


def _clique_free(bits: np.ndarray, n: int) -> np.ndarray:
    """Codes without a monochromatic clique: no bit in any colour's words."""
    return np.bitwise_or.reduce(bits.reshape(-1, bits.shape[-1]), axis=0) == 0


def _scan_task(args: tuple) -> tuple[int, int, int, list[int]]:
    n, filt, check, lo, hi, shift = args
    checked = hits = fails = 0
    found: list[int] = []
    for code, low, bits in _colour_chunks(n, 2, 3, lo, hi, shift, (0,)):
        checked += len(low)
        bad = np.flatnonzero(filt(bits, n))
        hits += len(bad)
        if check is not None:
            bad = [i for i in bad if not check(complete_colouring(n, 2, code + int(low[i])))]
        fails += len(bad)
        found.extend(code + int(low[i]) for i in bad[:WITNESS_CAP - len(found)])
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
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
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


def _extract_k8_task(args: tuple) -> list[int]:
    """The codes among one task's K8 samples on which the extractor fails."""
    index, count, seed = args
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    codes = rng.integers(0, 1 << comb(8, 2), size=count, dtype=np.int64).tolist()
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
    Each task of ``_K8_CHUNK`` codes draws its own, so workers do not change them.
    """
    if extractor_samples < 0:
        raise ValueError(f"extractor sample count must be nonnegative, got {extractor_samples}")
    if extractor_samples and n != 8:
        raise ValueError("the extractor subset is defined on the K8 universe")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    start = time.perf_counter()
    shift = 1 if n == 8 else 0
    report = _scan_report("lemma-k8" if n == 8 else f"disjoint-pair-k{n}", n,
                          partial(_no_mono_pair, share=0), "lemma-k8",
                          workers, shift=shift)
    if extractor_samples:
        tasks = [(index, min(_K8_CHUNK, extractor_samples - lo), seed)
                 for index, lo in enumerate(range(0, extractor_samples, _K8_CHUNK))]
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


def k7x2_code(bits: Sequence[int]) -> int:
    return _undigits(bits, 2)


def k7x2_bits(code: int) -> np.ndarray:
    return np.frombuffer(_digits(code, 2, len(K7X2_EDGES)), dtype=np.uint8).copy()


def _k7x2_colour_rows(rows: np.ndarray) -> np.ndarray:
    """Each 0/1 row's host as (B, 2, 14) neighbourhood masks per colour and vertex.

    One matmul against the (edge, vertex) weights gives the colour-1 masks;
    colour 0 holds the rest of each vertex's neighbourhood.  The matmul runs
    in floats, where numpy's is about ten times faster than in integers; its
    sums of distinct powers of two below 2^14 are exact.
    """
    tab = _k7x2_tables()
    blue = (rows @ tab.weights).astype(np.int64)
    return np.stack([tab.full ^ blue, blue], axis=1)


def _k7x2_packs(colour_rows: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Whether each row's triangles ``tris`` (B, 3) are pairwise disjoint cliques,
    each of one colour in ``colour_rows`` (B, 2, 14); a, b, c are (B, 1, 3)."""
    a, b, c = np.moveaxis(_k7x2_tables().tri_verts[tris][:, None], 3, 0)
    bc = (1 << b) | (1 << c)
    mono = ((np.take_along_axis(colour_rows, a, 2) & bc == bc)
            & (np.take_along_axis(colour_rows, b, 2) >> c & 1 == 1)).any(axis=1)
    m = ((1 << a) | bc)[:, 0]
    return mono.all(axis=1) & (np.bitwise_or.reduce(m, axis=1) == m.sum(axis=1))


def k7x2_graph(bits: Sequence[int]) -> ColouredGraph:
    """The doubled K7 whose edge ``K7X2_EDGES[k]`` has colour ``bits[k]``."""
    row = np.asarray(bits)
    if row.shape != (len(K7X2_EDGES),) or not ((row == 0) | (row == 1)).all():
        raise ValueError(f"a doubled-K7 colouring is {len(K7X2_EDGES)} bits of 0 or 1")
    return ColouredGraph._from_masks(K7X2_N, 2, _k7x2_colour_rows(row[None, :]).tolist()[0])


# The sampling phase runs in tasks of _K7X2_CHUNK colourings, each seeded by
# its index, so the samples depend on it.  A task's colourings are drawn
# _K7X2_DRAW rows per rng call and go through the extractor kernel and the
# check of its triangles _K7X2_HOSTS rows at a time, so that a batch's
# temporaries stay well under 1 MB.  lemma-k8's samples run in tasks of _K8_CHUNK codes.
_K8_CHUNK = 10_000
_K7X2_CHUNK = 100_000
_K7X2_DRAW = 10_000
_K7X2_HOSTS = 256


def _k7x2_sample_task(args: tuple) -> tuple[list[int], list[int]]:
    chunk_index, count, seed = args
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, chunk_index)))
    violations: list[int] = []
    extractor_fails: list[int] = []
    for done in range(0, count, _K7X2_DRAW):
        rows = rng.integers(0, 2, size=(min(_K7X2_DRAW, count - done), len(K7X2_EDGES)),
                            dtype=np.uint8)
        for lo in range(0, len(rows), _K7X2_HOSTS):
            batch = rows[lo:lo + _K7X2_HOSTS]
            tris, codes = _k7x2_extract(batch)
            ok = (codes == 0) & _k7x2_packs(_k7x2_colour_rows(batch), tris)
            for row in batch[~ok]:
                code = k7x2_code(row)
                extractor_fails.append(code)
                # Classify independently: the lemma itself only fails when no
                # three disjoint mono triangles exist at all.
                if max_disjoint_mono_capped(k7x2_graph(row), 3) < 3:
                    violations.append(code)
    return violations, extractor_fails


def _k7x2_third(mono: int, kept: Sequence[int]) -> Optional[int]:
    """The lowest triangle of the bitset ``mono`` disjoint from all of ``kept``, or None."""
    apart = _k7x2_tables().apart
    for t in kept:
        mono &= apart[t]
    return (mono & -mono).bit_length() - 1 if mono else None


def _k7x2_setup(row: np.ndarray) -> tuple[list[int], int, list[int]]:
    """A descent's state for the 0/1 colour row ``row`` of ``K7X2_EDGES``: per edge
    the triangles a flip of it toggles, the mono set, and per edge the change a
    flip makes to the mono count; :func:`verify_k7_blowup` gives the identity.
    """
    tab = _k7x2_tables()
    x, y, z = (int.from_bytes(col, "little") for col in
               np.packbits(row[tab.tri_edges.T], axis=1, bitorder="little"))
    full = (1 << len(tab.tri_edges)) - 1
    e01, e12, e02 = full ^ x ^ y, full ^ y ^ z, full ^ x ^ z
    mono = e01 & e12
    toggles = [s0 & e12 | s1 & e02 | s2 & e01 for s0, s1, s2 in zip(*tab.slots)]
    delta = [tog.bit_count() - 2 * (tog & mono).bit_count() for tog in toggles]
    return toggles, mono, delta


def _k7x2_adversarial_task(args: tuple, cap: int = 3) -> tuple[int, int, list[int]]:
    """One steepest-descent restart; see :func:`verify_k7_blowup` for the argument.

    The floor is the packing size capped at ``cap``; the lemma's cap is 3.
    """
    restart_index, seed, max_steps = args
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, restart_index)))
    tab = _k7x2_tables()
    through, tri_edges = tab.through, tab.tri_edges.tolist()
    m = len(K7X2_EDGES)
    row = rng.integers(0, 2, size=m, dtype=np.uint8)
    bits = row.tolist()
    toggles, mono, delta = _k7x2_setup(row)
    evaluated, min_floor = 0, cap

    def confirm(cond: bool, what: str) -> None:
        if not cond:  # the dump names the state; built on failure only
            _confirm(cond, what, k7x2_graph(bits), {"restart": restart_index, "seed": seed,
                                                    "state": evaluated, "code": k7x2_code(bits)})

    sums = row[tab.tri_edges].sum(axis=1)
    confirm(mono.bit_count() == np.count_nonzero((sums == 0) | (sums == 3)),
            "a descent's first mono set")

    def searched(alive: int) -> list[int]:
        """A largest packing of the mono set ``alive``, capped, from the capped search."""
        tris = list(iter_bits(alive))
        # The search reads the vertices alone; the colour column is a placeholder.
        rows = np.pad(tab.tri_verts[tris], ((0, 0), (0, 1)))
        return [tris[i] for i in _capped_packing(rows, cap)]

    def largest(alive: int, kept: list[int]) -> list[int]:
        """A largest packing of the mono set ``alive``, capped: ``kept``, disjoint triangles
        of it, grown by lowest disjoint ones up to the cap, else a capped search."""
        while len(kept) < cap and (lowest := _k7x2_third(alive, kept)) is not None:
            kept = kept + [lowest]
        return kept if len(kept) == cap else searched(alive)

    # The first packing starts from the lowest mono triangle; the host's K6 makes one.
    packing = largest(mono, [(mono & -mono).bit_length() - 1])
    current = (len(packing), mono.bit_count())
    violations: list[int] = []
    while True:
        # The skipped flips rely on P being mono, the extensions of its kept triangles on
        # it being disjoint, and the counts on delta agreeing with the mono set.
        confirm(mono.bit_count() == current[1] and all(mono >> t & 1 for t in packing)
                and not any(tab.vmasks[s] & tab.vmasks[t] for s, t in combinations(packing, 2)),
                "a descent's mono set and kept packing")
        evaluated += 1
        min_floor = min(min_floor, current[0])
        if current[0] < cap:
            violations.append(k7x2_code(bits))
        if evaluated > max_steps:
            break
        packings: dict[int, list[int]] = {}
        if len(packing) == cap:
            # A flip of an edge of t kills t and no other triangle of P, so only a
            # searched flip can fall below the cap.
            below = []
            for t in packing:
                kept = [s for s in packing if s != t]
                for f in tri_edges[t]:
                    after = mono ^ toggles[f]
                    third = _k7x2_third(after, kept)
                    if third is not None:
                        packings[f] = kept + [third]
                    else:
                        packings[f] = p = searched(after)
                        if len(p) < cap:
                            below.append((len(p), delta[f], f))
        else:
            for f in range(m):
                after = mono ^ toggles[f]
                packings[f] = largest(after, [t for t in packing if after >> t & 1])
            below = [(len(p), delta[f], f) for f, p in packings.items() if len(p) < cap]
        if below:
            floor, change, f = min(below)
        else:
            change = min(delta)
            floor, f = cap, delta.index(change)
        best = (floor, current[1] + change)
        if best >= current:
            break
        mono ^= toggles[f]
        for bit, a, b in through[f]:
            toggles[a] ^= bit
            toggles[b] ^= bit
            delta[a] += 1 if bits[a] == bits[f] else -1
            delta[b] += 1 if bits[b] == bits[f] else -1
        delta[f] = -delta[f]
        bits[f] ^= 1
        packing = packings.get(f, packing)
        current = best
    return evaluated, min_floor, violations


def verify_k7_blowup(samples: int = 1_000_000, adversarial_restarts: int = 1_000,
                     plateau_steps: int = 10_000, seed: int = 0,
                     workers: Optional[int] = 1) -> LemmaReport:
    """Randomized and adversarial campaign on the doubled K7.

    Every sampled 2-colouring of the 14-vertex host (complete minus the
    doubling matching) must admit three vertex-disjoint mono triangles, and
    the constructive extractor must produce them.  The adversarial phase runs
    steepest-descent restarts over single-edge recolourings, minimising
    (capped disjoint-triangle count, mono-triangle count), and records every
    state whose packing dips below three.  Violations are genuine lemma
    counterexamples, re-confirmed by the slow packing check; extractor
    failures on non-violating states are reported separately in ``extra``.
    Each restart takes at most ``plateau_steps`` steps.

    A descent step does not search every flip.  It holds the mono set as a
    280-bit int and keeps a largest capped packing P.  Flipping edge e
    toggles exactly the triangles through e whose other two edges agree, so
    the change delta[e] in the mono count is kept for every edge: flipping f
    negates delta[f] and moves the delta of each other edge of a triangle
    through f by +1 if that edge had f's colour, else by -1.  A restart sets
    these up from bitsets: with e01, e12 and e02 the triangles whose named
    edge slots agree and slot_k[e] the triangles whose k-th edge is e, the
    mono set is e01 & e12 and the toggles of e are
    slot0[e] & e12 | slot1[e] & e02 | slot2[e] & e01.  The triangles of P
    share no edge, so when |P| = cap a flip off P's edges keeps P mono and
    its floor is the cap, and a flip of an edge of P's triangle t kills t,
    which is mono, and keeps the rest of P: the lowest mono triangle
    avoiding all of P but t, one AND of bitsets each, restores the cap.
    When |P| < cap, every flip keeps P's still-mono triangles and adds such
    lowest triangles up to the cap; a restart's first P grows so from its
    lowest mono triangle.  Only where that falls short does the capped
    packing search run.  So every flip gets the (floor, count) of a full
    search, whichever largest P is kept, and the step, the first strict
    minimum in edge order (the least delta when no floor is below the cap),
    is the same.  Each restart's first mono set is confirmed against a count
    over the edge colours, each state's P mono and pairwise disjoint, and
    the mono set's size against the count.
    """
    if samples < 0 or adversarial_restarts < 0:
        raise ValueError("sample and restart counts must be nonnegative")
    if plateau_steps < 0:
        raise ValueError(f"plateau step count must be nonnegative, got {plateau_steps}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    start = time.perf_counter()
    tasks = [(index, min(_K7X2_CHUNK, samples - lo), seed)
             for index, lo in enumerate(range(0, samples, _K7X2_CHUNK))]
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


def _ramsey_search(ell: int, r: int, n_max: int, budget: int,
                   special: bool) -> RamseyResult:
    """Scan n upward for the first order whose colourings all hold a mono K_ell.

    With ``special`` these are the colourings in which vertex 0 misses colour
    0.  The n-1 edges at vertex 0 are the lowest digits of the lexicographic
    edge order, so the scan fixes those digits to 1..r-1.
    """
    if ell < 2 or not 2 <= r <= 8:
        raise ValueError(f"need ell >= 2 and 2 <= r <= 8, got ell={ell}, r={r}")
    if n_max < (first := 1 if special else ell):
        raise ValueError(f"n_max must be at least the first order scanned, {first}, got {n_max}")
    if budget < 0:
        raise ValueError(f"code budget must be nonnegative, got {budget}")
    start = time.perf_counter()
    checked: dict = {}
    witness_n, witness_code = (None, None) if special else (ell - 1, 0)
    value = None
    for n in range(first, n_max + 1):
        edges = n * (n - 1) // 2
        apex = n - 1 if special else 0
        universe = (r - 1) ** apex * r ** (edges - apex)
        # Codes are uint64, so an order whose codes need more bits stops
        # the search as an exhausted budget does.
        if universe > budget or r ** edges > 1 << 64:
            break
        code = None
        for head, low, bits in _colour_chunks(n, r, ell, 0, universe, apex, range(1, r)):
            free = np.flatnonzero(_clique_free(bits, n))
            if free.size:
                code = head + int(low[free[0]])
                break
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
# grid engine: exact optima against the closed forms


# Each construction's mode and closed-form cap: no packing of the
# construction in that mode beats its cap, wherever the construction exists.
CONSTRUCTION_CAPS = {
    "ex-triangle": ("mixed", extremal_min_formula),
    "ex-triangle-alt": ("mixed", extremal_min_formula),
    "ex-bes-1": ("single", lambda n, delta: bes_formulas(n, delta)["high"]),
    "ex-bes-2": ("single", lambda n, delta: bes_formulas(n, delta)["mid"]),
    "ex-bes-3": ("single", lambda n, delta: bes_formulas(n, delta)["low"]),
}

# Each constructive tiler with the formulas and the piece it guarantees
# inside its band; outside it the tiler raises ValueError.
TILERS = {"moon_small": (moon_small, moon_formulas, "low"),
          "bes_small": (bes_small, bes_formulas, "low"),
          "moon_large": (moon_large, moon_formulas, "high"),
          "bes_large": (bes_large, bes_formulas, "high")}


def grid_row(source: str, n: int, delta: int, g: ColouredGraph, modes: Sequence[str],
             budget: Optional[int] = None, tilers: bool = False,
             columns: tuple[str, ...] = ()) -> GridRow:
    """Solve host ``g`` of cell ``(n, delta)`` exactly and hold it to the closed forms.

    ``modes`` names the optima to solve ("mixed", "single") from one triangle
    table; with ``tilers`` every tiler runs too.  ``budget`` caps each search,
    None meaning its default; a ``source`` naming a construction brings in its
    cap.  A proved inequality that fails raises AnomalyError: a tiling fails
    ``verify``, a construction packs more than its cap, a tiler tiles less
    than its guarantee or more than a proved mixed optimum, or a proved
    optimum falls below a ``report`` bound neither asymptotic nor conjectural.
    A proved single-colour optimum below a conjectural one sets ``below_formula``.
    """
    start = time.perf_counter()
    nodes = DEFAULT_NODE_BUDGET if budget is None else budget
    table = _triangle_table(g)
    solved = {mode: _PackingSearch(table, nodes).run() if mode == "mixed"
              else _single_colour_search(table, g.r, nodes) for mode in modes}
    tilings = {mode: res.tiling for mode, res in solved.items()}
    overrun = False
    for name, (tiler, _, _) in TILERS.items() if tilers else ():
        try:
            tilings[name] = tiler(g, budget=budget)
        except ValueError:
            continue
        except SearchBudgetExceeded:
            overrun = True

    def refute(claim: str) -> None:
        raise AnomalyError(f"{source}({n},{delta}) {claim}", graph=g,
                           detail={"source": source, "n": n, "delta": delta})

    for name, tiling in tilings.items():
        if not tiling.verify(g):
            refute(f"{name} produced a tiling that fails re-verification")
    own, cap = CONSTRUCTION_CAPS.get(source, (None, None))
    bound = cap and cap(n, delta)
    if own in solved and solved[own].optimum > bound:
        refute(f"packs {solved[own].optimum} triangles, above its closed-form cap {bound}")
    mixed = solved.get("mixed")
    cells = {name: len(tilings[name]) for name in TILERS if name in tilings}
    for name, count in cells.items():
        _, formulas, piece = TILERS[name]
        floor = formulas(n, delta)[piece]
        if count < floor:
            refute(f"{name} tiles {count}, below its guarantee {floor}")
        if mixed and mixed.proved_optimal and count > mixed.optimum:
            refute(f"{name} tiles {count}, above the proved mixed optimum {mixed.optimum}")
    report = bound_report(n, delta) if delta in _degree_band(n) else None
    below = False
    for mode, floor, open_bound in ((("mixed", report.moon_bound, report.moon_asymptotic),
                                     ("single", report.bes_bound, report.bes_conjectural))
                                    if report else ()):
        res = solved.get(mode)
        if res is not None and res.proved_optimal and res.optimum < floor:
            if not open_bound:
                refute(f"{mode} optimum {res.optimum} is below the proved bound {floor}")
            below = below or mode == "single"
    for mode, res in solved.items():
        cells.update({f"{mode}_optimum": res.optimum, f"{mode}_proved": res.proved_optimal})
    proved = all(res.proved_optimal for res in solved.values())
    return GridRow(source=source, n=n, delta=delta, mode=modes[0],
                   nodes_explored=sum(res.nodes_explored for res in solved.values()),
                   below_formula=below, status="ok" if proved and not overrun else "budget",
                   elapsed=time.perf_counter() - start, bound=bound, report=report,
                   columns=columns, host=g if below else None, **cells)


# (construction, n, delta, solver mode)
AUDIT_INSTANCES = (
    ("ex-triangle", 12, 10, "mixed"),
    ("ex-triangle", 30, 25, "mixed"),
    ("ex-triangle-alt", 24, 21, "mixed"),
    ("ex-bes-1", 9, 8, "single"),
    ("ex-bes-1", 22, 16, "single"),
    ("ex-bes-2", 25, 22, "single"),
    ("ex-bes-3", 24, 20, "single"),
)
AUDIT_COLUMNS = ("construction", "n", "delta", "mode", "optimum", "bound", "proved_optimal",
                 "nodes_explored", "theorem_equality", "elapsed", "matches")
PROBE_COLUMNS = ("n", "delta", "source", "optimum", "proved_optimal", "formula_high",
                 "formula_mid", "formula_low", "applicable_piece", "applicable_value",
                 "below_formula")


def audit_tightness(budget: Optional[int] = None) -> list[GridRow]:
    """Every pinned extremal instance solved exactly in its own mode; see :func:`grid_row`.

    ``matches`` records whether the optimum meets the construction's cap, and
    ``theorem_equality`` whether the cell is in band with a proved bound in
    the instance's mode (not asymptotic for mixed, not conjectural for single).
    """
    return [grid_row(name, n, delta, CONSTRUCTIONS[name][0](n, delta), (mode,), budget,
                     columns=AUDIT_COLUMNS)
            for name, n, delta, mode in AUDIT_INSTANCES]


def probe_question(n_values: Sequence[int] = (25,),
                   delta_values: Optional[Sequence[int]] = None,
                   samples_per_cell: int = 2, perturbed_per_cell: int = 1,
                   seed: int = 0, budget: Optional[int] = None) -> list[GridRow]:
    """Hunt for hosts whose exact single-colour optimum beats the formulas.

    For each (n, delta) cell with n >= 25 and delta >= 4n/5, runs :func:`grid_row` on
    the single-colour constructions, seeded random minimum-degree hosts, and randomly
    recoloured (degree-preserving) copies of the first construction.  A
    ``below_formula`` row would refute the conjectured optimum; none is expected.
    """
    singles = [name for name, (mode, _) in CONSTRUCTION_CAPS.items() if mode == "single"]
    rows: list[GridRow] = []
    for n in n_values:
        if n < 25:
            raise ValueError(f"the probe grid starts at n=25, got n={n}")
        band = _degree_band(n)
        for delta in band if delta_values is None else delta_values:
            if delta not in band:
                raise ValueError(f"delta={delta} outside 4n/5..n-1 for n={n}")
            hosts = cell_hosts(n, delta, singles, samples_per_cell, seed, (0,))
            base = hosts[0] if hosts and hosts[0][0].startswith("ex-") else None
            hosts += [(f"perturbed-{base[0]}-{k}", _recolour_edges(base[1], np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(n, delta, 1, k)))))
                for k in range(perturbed_per_cell if base else 0)]
            rows += [grid_row(source, n, delta, g, ("single",), budget, columns=PROBE_COLUMNS)
                     for source, g in hosts]
    return rows


def _recolour_edges(g: ColouredGraph, rng, fraction: float = 0.1) -> ColouredGraph:
    """Flip the colour of a random edge subset; degrees are untouched."""
    edges = g.edges()
    flips = max(1, int(len(edges) * fraction))
    chosen = set(int(i) for i in rng.choice(len(edges), size=flips, replace=False))
    out = [(u, v, (c + 1) % g.r if i in chosen else c)
           for i, (u, v, c) in enumerate(edges)]
    return ColouredGraph(g.n, g.r, out)
