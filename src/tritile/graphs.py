"""Edge-coloured graphs as per-colour adjacency bitmasks.

Everything in this package runs on one representation: vertices are
``0..n-1``, every present edge carries exactly one colour in ``0..r-1``, and
a missing edge is meaningful (blow-ups of colour patterns leave their classes
internally empty).  Adjacency is stored per colour as one Python integer
bitmask per vertex, so the hot operations (common neighbourhoods, triangle
tests, independence checks) reduce to a few ``&`` and ``bit_count`` calls.

Inside the package a monochromatic triangle is a plain ``(u, v, w, c)``
tuple with ``u < v < w`` and edge colour ``c`` (:data:`Triangle`):
:meth:`ColouredGraph.iter_mono_triangles` yields them and
:func:`first_pair` searches lists of them.  :func:`iter_cliques` yields the
cliques of any size inside a vertex mask, for one colour's rows or for the
whole adjacency.  :class:`MonoClique` is built only for a clique that a
function returns, alone or inside a :class:`Tiling` or :class:`Bowtie`.

The module also fixes the two serialisation formats (a line-oriented text
format and a JSON mirror) and the lexicographic edge-code convention used by
the exhaustive verification scans: the edges of a complete graph are ordered
``(0,1), (0,2), ..., (n-2,n-1)`` and a base-``r`` integer assigns digit ``i``
to edge ``i``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence

# Colour indices of two-coloured hosts; bit 0 of an edge code is red.
RED = 0
BLUE = 1

# A monochromatic triangle ``(u, v, w, c)``: vertices ``u < v < w``, colour ``c``.
Triangle = tuple[int, int, int, int]

# Largest vertex count a graph may declare; rows cost about 50 bytes a vertex,
# so an unchecked count read from a file could exhaust memory.
MAX_VERTICES = 1 << 16


class AnomalyError(RuntimeError):
    """A step that a proven guarantee says cannot fail has failed anyway.

    Reaching this means the input dodged a precondition check or the run
    found a genuine counterexample to a published statement, so the payload
    (graph and a structured detail dict) is kept for the witness dump.
    """

    def __init__(self, message: str, graph: "ColouredGraph | None" = None,
                 detail: dict | None = None):
        super().__init__(message)
        self.graph = graph
        self.detail = detail or {}


class SearchBudgetExceeded(RuntimeError):
    """An exact search exhausted its node budget before deciding."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def iter_cliques(adj: Sequence[int], cand: int, size: int) -> Iterator[tuple[int, ...]]:
    """The ``size``-cliques of the rows ``adj`` inside the mask ``cand``, lazily.

    Yields increasing vertex tuples in lexicographic order; a branch stops
    as soon as fewer than ``size`` candidates are left.
    """
    if size == 0:
        yield ()
        return
    while cand.bit_count() >= size:
        low = cand & -cand
        cand ^= low
        v = low.bit_length() - 1
        for rest in iter_cliques(adj, cand & adj[v], size - 1):
            yield (v, *rest)


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def lex_edges(n: int) -> list[tuple[int, int]]:
    """Edges of the complete graph on ``0..n-1`` in lexicographic order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


class ColouredGraph:
    """Immutable edge-coloured graph on vertices ``0..n-1``.

    Args:
        n: number of vertices (isolated vertices are allowed).
        r: number of colours, ``1 <= r <= 8``.
        edges: iterable of ``(u, v, c)`` triples with ``u != v`` and
            ``0 <= c < r``.  Listing the same pair twice with conflicting
            colours raises ValueError.
    """

    __slots__ = ("n", "r", "colour_adj", "adj", "edge_count", "_hash")

    def __init__(self, n: int, r: int, edges: Iterable[tuple[int, int, int]]):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 0..{MAX_VERTICES}, got {n}")
        if not 1 <= r <= 8:
            raise ValueError(f"colour count must be in 1..8, got {r}")
        rows = [[0] * n for _ in range(r)]
        seen: dict[tuple[int, int], int] = {}
        count = 0
        for u, v, c in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range in edge ({u}, {v})")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not 0 <= c < r:
                raise ValueError(f"colour {c} out of range for r={r}")
            key = (u, v) if u < v else (v, u)
            prev = seen.get(key)
            if prev is not None:
                if prev != c:
                    raise ValueError(f"edge {key} listed with colours {prev} and {c}")
                continue
            seen[key] = c
            rows[c][u] |= 1 << v
            rows[c][v] |= 1 << u
            count += 1
        self.n = n
        self.r = r
        self.colour_adj = tuple(tuple(row) for row in rows)
        self.adj = tuple(
            self._union_row(v) for v in range(n)
        )
        self.edge_count = count
        self._hash = hash((n, r, self.colour_adj))

    def _union_row(self, v: int) -> int:
        m = 0
        for c in range(self.r):
            m |= self.colour_adj[c][v]
        return m

    @classmethod
    def _from_masks(cls, n: int, r: int,
                    colour_adj: Sequence[Sequence[int]]) -> "ColouredGraph":
        """Trusted constructor for hot paths; skips per-edge validation."""
        g = object.__new__(cls)
        g.n = n
        g.r = r
        g.colour_adj = tuple(tuple(row) for row in colour_adj)
        g.adj = tuple(g._union_row(v) for v in range(n))
        g.edge_count = sum(m.bit_count() for m in g.adj) // 2
        g._hash = hash((n, r, g.colour_adj))
        return g

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ColouredGraph)
                and self.n == other.n and self.r == other.r
                and self.colour_adj == other.colour_adj)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ColouredGraph(n={self.n}, r={self.r}, edges={self.edge_count})"

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edge_colour(self, u: int, v: int) -> Optional[int]:
        """Colour of edge ``uv``, or None when the pair is not an edge."""
        for c in range(self.r):
            if (self.colour_adj[c][u] >> v) & 1:
                return c
        return None

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("minimum degree of the empty graph is undefined")
        return min(self.adj[v].bit_count() for v in range(self.n))

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(self.adj[v] == full ^ (1 << v) for v in range(self.n))

    def edges(self) -> list[tuple[int, int, int]]:
        """All edges as sorted ``(u, v, c)`` triples, lexicographic."""
        out = []
        for u in range(self.n):
            for c in range(self.r):
                m = self.colour_adj[c][u] >> (u + 1)
                for off in iter_bits(m):
                    out.append((u, u + 1 + off, c))
        out.sort()
        return out

    def iter_mono_triangles(self, within: int = -1) -> Iterator[Triangle]:
        """Monochromatic triangles inside the vertex mask ``within``, lazily.

        Yields ``(u, v, w, c)`` tuples in lexicographic vertex order without
        sorting: edge ``uv`` has one colour, so for fixed ``u < v`` the third
        vertices ``w`` come out increasing.
        """
        rest = within & ((1 << self.n) - 1)
        cadj = self.colour_adj
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            rest ^= low
            later = self.adj[u] & rest
            while later:
                low = later & -later
                v = low.bit_length() - 1
                later ^= low
                for c, rows in enumerate(cadj):
                    if rows[u] & low:
                        break
                third = rows[u] & rows[v] & later
                while third:
                    low = third & -third
                    third ^= low
                    yield (u, v, low.bit_length() - 1, c)

    def mono_triangles(self) -> list[Triangle]:
        """Every monochromatic triangle as a ``(u, v, w, c)`` tuple, in lexicographic order."""
        return list(self.iter_mono_triangles())

    def relabelled(self, perm: Sequence[int]) -> "ColouredGraph":
        """Image under the vertex permutation ``i -> perm[i]``."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertex set")
        return ColouredGraph(self.n, self.r,
                             [(perm[u], perm[v], c) for u, v, c in self.edges()])

    def recoloured(self, cperm: Sequence[int]) -> "ColouredGraph":
        """Image under the colour permutation ``c -> cperm[c]``."""
        if sorted(cperm) != list(range(self.r)):
            raise ValueError("cperm is not a permutation of the colour set")
        return ColouredGraph(self.n, self.r,
                             [(u, v, cperm[c]) for u, v, c in self.edges()])

    def induced(self, vertices: Iterable[int]) -> tuple["ColouredGraph", tuple[int, ...]]:
        """Induced subgraph on ``vertices`` plus the new-to-old vertex map.

        Vertices are renumbered ``0..k-1`` in increasing original order; the
        returned tuple maps new indices back to the originals.
        """
        verts = tuple(sorted(set(vertices)))
        index = {v: i for i, v in enumerate(verts)}
        edges = []
        for i, u in enumerate(verts):
            for v in verts[i + 1:]:
                c = self.edge_colour(u, v)
                if c is not None:
                    edges.append((index[u], index[v], c))
        return ColouredGraph(len(verts), self.r, edges), verts


@dataclass(frozen=True)
class MonoClique:
    """A clique whose edges all carry ``colour``.

    ``colour`` may be None for cliques found by the colour-blind perfect
    tiling search; ``verify`` then checks adjacency only.
    """

    vertices: tuple[int, ...]
    colour: Optional[int]

    def __post_init__(self):
        verts = tuple(sorted(self.vertices))
        if len(set(verts)) != len(verts):
            raise ValueError(f"repeated vertex in clique {self.vertices}")
        object.__setattr__(self, "vertices", verts)

    @classmethod
    def of(cls, tri: Triangle) -> "MonoClique":
        """The clique of a ``(u, v, w, c)`` triangle tuple."""
        return cls(tri[:3], tri[3])

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def mask(self) -> int:
        return mask_of(self.vertices)

    def verify(self, g: ColouredGraph) -> bool:
        if self.vertices and not (0 <= self.vertices[0] and self.vertices[-1] < g.n):
            return False
        for u, v in combinations(self.vertices, 2):
            c = g.edge_colour(u, v)
            if c is None or (self.colour is not None and c != self.colour):
                return False
        return True


@dataclass(frozen=True)
class Tiling:
    """A family of pairwise vertex-disjoint cliques."""

    cliques: tuple[MonoClique, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.cliques,
                               key=lambda t: (t.vertices, -1 if t.colour is None else t.colour)))
        object.__setattr__(self, "cliques", ordered)

    def __len__(self) -> int:
        return len(self.cliques)

    def __iter__(self):
        return iter(self.cliques)

    @property
    def mask(self) -> int:
        m = 0
        for t in self.cliques:
            m |= t.mask
        return m

    def verify(self, g: ColouredGraph) -> bool:
        used = 0
        for t in self.cliques:
            if not t.verify(g):
                return False
            if used & t.mask:
                return False
            used |= t.mask
        return True


@dataclass(frozen=True)
class Bowtie:
    """Two monochromatic triangles of different colours sharing one vertex."""

    first: MonoClique
    second: MonoClique

    def __post_init__(self):
        a, b = self.first, self.second
        if b.vertices < a.vertices:
            a, b = b, a
        object.__setattr__(self, "first", a)
        object.__setattr__(self, "second", b)

    @property
    def centre(self) -> int:
        common = set(self.first.vertices) & set(self.second.vertices)
        (v,) = common
        return v

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self.first.vertices) | frozenset(self.second.vertices)

    @property
    def vertex_mask(self) -> int:
        return self.first.mask | self.second.mask

    def verify(self, g: ColouredGraph) -> bool:
        if len(self.first) != 3 or len(self.second) != 3:
            return False
        if self.first.colour is None or self.second.colour is None:
            return False
        if self.first.colour == self.second.colour:
            return False
        shared = set(self.first.vertices) & set(self.second.vertices)
        if len(shared) != 1:
            return False
        return self.first.verify(g) and self.second.verify(g)


def first_pair(tris: Sequence[Triangle], lo: int, hi: int,
               same_colour: Optional[bool] = None
               ) -> Optional[tuple[Triangle, Triangle]]:
    """First pair ``(tris[i], tris[j])``, ``i < j``, meeting in ``lo..hi`` vertices.

    ``same_colour`` True asks for equal colours, False for different ones.
    The colour test runs before the overlap, and the second triangle's mask
    is built only for pairs that pass it.
    """
    for i, a in enumerate(tris):
        u, v, w, colour = a
        a_mask = (1 << u) | (1 << v) | (1 << w)
        for b in tris[i + 1:]:
            if same_colour is not None and (colour == b[3]) != same_colour:
                continue
            if lo <= (a_mask & ((1 << b[0]) | (1 << b[1]) | (1 << b[2]))).bit_count() <= hi:
                return a, b
    return None


def blow_up(g: ColouredGraph, sizes: Sequence[int]) -> ColouredGraph:
    """Replace vertex ``i`` of ``g`` by an independent class of ``sizes[i]``.

    Classes occupy consecutive vertex ranges in class order; the pair of
    classes ``(i, j)`` is joined completely in colour ``g.edge_colour(i, j)``
    and left empty when ``ij`` is a non-edge.
    """
    if len(sizes) != g.n:
        raise ValueError(f"need {g.n} class sizes, got {len(sizes)}")
    if any(s <= 0 for s in sizes):
        raise ValueError("class sizes must be positive")
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    edges = []
    for i, j, c in g.edges():
        for u in range(offsets[i], offsets[i + 1]):
            for v in range(offsets[j], offsets[j + 1]):
                edges.append((u, v, c) if u < v else (v, u, c))
    return ColouredGraph(offsets[-1], g.r, edges)


def complete_colouring(n: int, r: int, code: int) -> ColouredGraph:
    """Complete graph on ``n`` vertices coloured by a base-``r`` edge code.

    Digit ``i`` of ``code`` (least significant first) colours edge ``i`` in
    the lexicographic edge order ``(0,1), (0,2), ..., (n-2,n-1)``.
    """
    m = n * (n - 1) // 2
    if not 0 <= code < r ** m:
        raise ValueError(f"code {code} out of range for n={n}, r={r}")
    rows = [[0] * n for _ in range(r)]
    for (u, v), c in zip(lex_edges(n), _digits(code, r, m)):
        rows[c][u] |= 1 << v
        rows[c][v] |= 1 << u
    return ColouredGraph._from_masks(n, r, rows)


_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _digits(code: int, r: int, m: int) -> Sequence[int]:
    """The ``m`` base-``r`` digits of ``code``, least significant first.

    Binary codes are read off their string form; other bases split the code
    in halves by powers of ``r`` down to short runs of ``divmod``, so the
    cost stays near linear in ``m`` rather than quadratic.
    """
    if r == 2:
        return format(code, "b").zfill(m)[::-1].encode().translate(_BINARY_DIGITS)
    if m <= 64:
        out = []
        for _ in range(m):
            code, d = divmod(code, r)
            out.append(d)
        return out
    half = m // 2
    high, low = divmod(code, r ** half)
    return [*_digits(low, r, half), *_digits(high, r, m - half)]


def colouring_code(g: ColouredGraph) -> int:
    """Inverse of :func:`complete_colouring`; requires a complete graph."""
    if not g.is_complete():
        raise ValueError("edge codes are defined for complete graphs only")
    return _undigits([g.edge_colour(u, v) for u, v in lex_edges(g.n)], g.r)


_BINARY_CHARS = bytes.maketrans(b"\0\1", b"01")


def _undigits(digits: Sequence[int], r: int) -> int:
    """Inverse of :func:`_digits`: the integer with base-``r`` ``digits``, least significant first.

    Binary digits are read as a string; other bases join halves by powers
    of ``r``, so the cost stays near linear rather than quadratic.
    """
    if r == 2:
        return int(bytes(digits[::-1]).translate(_BINARY_CHARS) or b"0", 2)
    if len(digits) <= 64:
        code = 0
        for d in reversed(digits):
            code = code * r + d
        return code
    half = len(digits) // 2
    return _undigits(digits[half:], r) * r ** half + _undigits(digits[:half], r)


def write_graph(g: ColouredGraph, path) -> None:
    """Write the text format: a ``n r`` header then one ``u v c`` line per edge."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.n} {g.r}\n")
        for u, v, c in g.edges():
            fh.write(f"{u} {v} {c}\n")


def read_graph(path) -> ColouredGraph:
    """Read a file in the text format."""
    with open(path, "r", encoding="ascii") as fh:
        return parse_graph_text(fh.read())


def parse_graph_text(text: str) -> ColouredGraph:
    """Parse the text format; ``#`` starts a comment, blank lines are skipped."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
    if not rows:
        raise ValueError("empty graph file")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n r', got {rows[0]!r}")
    n, r = int(head[0]), int(head[1])
    edges = []
    for line in rows[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"edge line must be 'u v c', got {line!r}")
        u, v, c = (int(p) for p in parts)
        if not u < v:
            raise ValueError(f"edge lines require u < v, got {line!r}")
        edges.append((u, v, c))
    return ColouredGraph(n, r, edges)


def to_json_dict(g: ColouredGraph) -> dict:
    return {"n": g.n, "r": g.r, "edges": [list(e) for e in g.edges()]}


def from_json_dict(data: dict) -> ColouredGraph:
    """Inverse of :func:`to_json_dict`; malformed input raises ValueError."""
    if not isinstance(data, dict) or not {"n", "r", "edges"} <= data.keys():
        raise ValueError("graph json needs an object with keys n, r, edges")
    n, r, edges = data["n"], data["r"], data["edges"]
    if not (isinstance(n, int) and isinstance(r, int)):
        raise ValueError(f"graph json n and r must be integers, got {n!r} and {r!r}")
    if not isinstance(edges, list):
        raise ValueError("graph json edges must be a list")
    for e in edges:
        if not (isinstance(e, (list, tuple)) and len(e) == 3
                and all(isinstance(x, int) for x in e)):
            raise ValueError(f"graph json edge must be [u, v, c] integers, got {e!r}")
    try:
        return ColouredGraph(n, r, [tuple(e) for e in edges])
    except ValueError as exc:
        raise ValueError(f"graph json: {exc}") from None


def write_graph_json(g: ColouredGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(to_json_dict(g), fh, sort_keys=True)
        fh.write("\n")


def read_graph_json(path) -> ColouredGraph:
    with open(path, "r", encoding="ascii") as fh:
        return from_json_dict(json.load(fh))
