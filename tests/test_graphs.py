"""Representation, serialisation and blow-up tests for the graph core."""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tritile.graphs import (
    MAX_VERTICES,
    Bowtie,
    ColouredGraph,
    MonoClique,
    Tiling,
    blow_up,
    colouring_code,
    complete_colouring,
    first_pair,
    from_json_dict,
    iter_cliques,
    lex_edges,
    read_graph,
    read_graph_json,
    to_json_dict,
    write_graph,
    write_graph_json,
)

BADLY_K5_RED = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]
BADLY_K5_BLUE = [(0, 2), (0, 3), (1, 3), (1, 4), (2, 4)]


def badly_k5() -> ColouredGraph:
    edges = [(u, v, 0) for u, v in BADLY_K5_RED] + [(u, v, 1) for u, v in BADLY_K5_BLUE]
    return ColouredGraph(5, 2, edges)


def oracle_mono_triangles(g: ColouredGraph) -> set[tuple[int, int, int, int]]:
    """Independent route: dict-of-edges lookup over all vertex triples."""
    colour = {}
    for u, v, c in g.edges():
        colour[(u, v)] = c
        colour[(v, u)] = c
    found = set()
    for a, b, c in combinations(range(g.n), 3):
        cols = {colour.get((a, b)), colour.get((a, c)), colour.get((b, c))}
        if len(cols) == 1 and None not in cols:
            found.add((a, b, c, cols.pop()))
    return found


def small_graphs(max_n: int = 7, r: int = 2) -> st.SearchStrategy[ColouredGraph]:
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


class TestConstruction:
    def test_edge_colour_and_absence(self):
        g = ColouredGraph(4, 3, [(0, 1, 2), (2, 3, 0)])
        assert g.edge_colour(0, 1) == 2
        assert g.edge_colour(1, 0) == 2
        assert g.edge_colour(0, 2) is None
        assert g.has_edge(3, 2)
        assert g.edge_count == 2

    def test_duplicate_edge_same_colour_collapses(self):
        g = ColouredGraph(3, 2, [(0, 1, 1), (1, 0, 1)])
        assert g.edge_count == 1

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ColouredGraph(3, 2, [(0, 0, 1)])
        with pytest.raises(ValueError):
            ColouredGraph(3, 2, [(0, 3, 1)])
        with pytest.raises(ValueError):
            ColouredGraph(3, 2, [(0, 1, 2)])
        with pytest.raises(ValueError):
            ColouredGraph(3, 2, [(0, 1, 0), (1, 0, 1)])
        with pytest.raises(ValueError):
            ColouredGraph(3, 0, [])
        with pytest.raises(ValueError):
            ColouredGraph(3, 9, [])

    def test_degrees(self):
        g = ColouredGraph(4, 2, [(0, 1, 0), (0, 2, 1)])
        assert g.degree(0) == 2
        assert g.degree(3) == 0
        assert g.min_degree() == 0
        assert badly_k5().min_degree() == 4

    def test_complete_detection(self):
        assert complete_colouring(5, 2, 17).is_complete()
        assert not ColouredGraph(3, 2, [(0, 1, 0)]).is_complete()


class TestTriangles:
    def test_badly_k5_has_none(self):
        assert badly_k5().mono_triangles() == []

    def test_all_red_k4(self):
        g = complete_colouring(4, 2, 0)
        assert g.mono_triangles() == [(0, 1, 2, 0), (0, 1, 3, 0), (0, 2, 3, 0), (1, 2, 3, 0)]

    def test_blowup_of_red_triangle(self):
        g = blow_up(complete_colouring(3, 2, 0), [2, 1, 1])
        assert g.mono_triangles() == [(0, 2, 3, 0), (1, 2, 3, 0)]

    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_matches_oracle(self, g: ColouredGraph):
        assert set(g.mono_triangles()) == oracle_mono_triangles(g)

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(r=3), st.integers(0, (1 << 7) - 1))
    def test_iter_within_mask_is_lex_ordered_oracle(self, g: ColouredGraph, within: int):
        got = list(g.iter_mono_triangles(within))
        assert got == sorted(got)
        assert set(got) == {t for t in oracle_mono_triangles(g)
                            if all(within >> v & 1 for v in t[:3])}

    def test_iter_is_lazy(self):
        tris = complete_colouring(2000, 2, 0).iter_mono_triangles()
        assert next(tris) == (0, 1, 2, 0)
        assert next(tris) == (0, 1, 3, 0)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_n=6), st.randoms(use_true_random=False))
    def test_relabelling_equivariance(self, g: ColouredGraph, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabelled = {(*sorted(perm[v] for v in t[:3]), t[3]) for t in g.mono_triangles()}
        direct = set(g.relabelled(perm).mono_triangles())
        assert relabelled == direct

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_n=6))
    def test_colour_swap_keeps_vertex_sets(self, g: ColouredGraph):
        swapped = g.recoloured([1, 0])
        assert ({t[:3] for t in g.mono_triangles()}
                == {t[:3] for t in swapped.mono_triangles()})


class TestIterCliques:
    @settings(max_examples=100, deadline=None)
    @given(small_graphs(), st.integers(0, (1 << 7) - 1), st.integers(0, 5))
    def test_matches_combinations_oracle(self, g: ColouredGraph, cand: int, size: int):
        inside = [v for v in range(g.n) if cand >> v & 1]
        want = [vs for vs in combinations(inside, size)
                if all(g.has_edge(u, v) for u, v in combinations(vs, 2))]
        assert list(iter_cliques(g.adj, cand & ((1 << g.n) - 1), size)) == want

    def test_is_lazy(self):
        g = complete_colouring(2000, 2, 0)
        cliques = iter_cliques(g.adj, (1 << 2000) - 1, 5)
        assert next(cliques) == (0, 1, 2, 3, 4)
        assert next(cliques) == (0, 1, 2, 3, 5)


class TestFirstPair:
    RED_A = (0, 1, 2, 0)
    RED_B = (2, 3, 4, 0)
    BLUE_C = (0, 1, 5, 1)
    BLUE_D = (6, 7, 8, 1)

    def test_first_pair_in_list_order(self):
        tris = [self.RED_A, self.RED_B, self.BLUE_C, self.BLUE_D]
        assert first_pair(tris, 0, 1) == (self.RED_A, self.RED_B)
        assert first_pair(tris, 0, 0) == (self.RED_A, self.BLUE_D)
        assert first_pair(tris, 2, 2) == (self.RED_A, self.BLUE_C)
        assert first_pair(tris, 3, 3) is None

    def test_colour_relation(self):
        tris = [self.RED_A, self.RED_B, self.BLUE_C, self.BLUE_D]
        assert first_pair(tris, 0, 0, same_colour=True) == (self.BLUE_C, self.BLUE_D)
        assert first_pair(tris, 1, 1, same_colour=True) == (self.RED_A, self.RED_B)
        assert first_pair(tris, 0, 1, same_colour=False) == (self.RED_A, self.BLUE_D)
        assert first_pair(tris, 0, 0, same_colour=False) == (self.RED_A, self.BLUE_D)
        assert first_pair([], 0, 3) is None

    @settings(max_examples=100, deadline=None)
    @given(small_graphs(max_n=8), st.integers(0, 3), st.integers(0, 3),
           st.sampled_from([None, True, False]))
    def test_matches_all_pairs_oracle(self, g: ColouredGraph, lo: int, hi: int, same):
        tris = g.mono_triangles()
        want = next(((a, b) for i, a in enumerate(tris) for b in tris[i + 1:]
                     if lo <= len(set(a[:3]) & set(b[:3])) <= hi
                     and (same is None or (a[3] == b[3]) == same)), None)
        assert first_pair(tris, lo, hi, same) == want


class TestBlowUp:
    def test_identity_sizes(self):
        g = badly_k5()
        assert blow_up(g, [1] * 5) == g

    def test_badly_k5_blowup(self):
        g = blow_up(badly_k5(), [2] * 5)
        assert g.n == 10
        assert g.min_degree() == 8
        assert g.mono_triangles() == []

    def test_classes_are_independent(self):
        g = blow_up(complete_colouring(3, 2, 0), [3, 1, 1])
        for u, v in combinations(range(3), 2):
            assert not g.has_edge(u, v)

    def test_size_validation(self):
        with pytest.raises(ValueError):
            blow_up(badly_k5(), [2, 2])
        with pytest.raises(ValueError):
            blow_up(badly_k5(), [2, 2, 2, 2, 0])

    @settings(max_examples=40, deadline=None)
    @given(small_graphs(max_n=4),
           st.lists(st.integers(min_value=1, max_value=3), min_size=4, max_size=4))
    def test_contract_recovers_colours(self, g: ColouredGraph, sizes):
        sizes = sizes[:g.n]
        big = blow_up(g, sizes)
        offsets = [0]
        for s in sizes:
            offsets.append(offsets[-1] + s)
        for i in range(g.n):
            for j in range(i + 1, g.n):
                assert big.edge_colour(offsets[i], offsets[j]) == g.edge_colour(i, j)


class TestCodes:
    def test_code_round_trip(self):
        for code in (0, 1, 500, 32767):
            g = complete_colouring(6, 2, code)
            assert colouring_code(g) == code

    def test_code_assigns_lex_digits(self):
        g = complete_colouring(4, 3, 5)  # digits 2,1,0,0,0,0
        order = lex_edges(4)
        assert g.edge_colour(*order[0]) == 2
        assert g.edge_colour(*order[1]) == 1
        assert all(g.edge_colour(u, v) == 0 for u, v in order[2:])

    def test_code_requires_complete(self):
        with pytest.raises(ValueError):
            colouring_code(ColouredGraph(3, 2, [(0, 1, 0)]))
        with pytest.raises(ValueError, match=r"^code 8 out of range for n=3, r=2$"):
            complete_colouring(3, 2, 8)
        with pytest.raises(ValueError, match=r"^code -1 out of range for n=4, r=3$"):
            complete_colouring(4, 3, -1)

    @staticmethod
    def reference_colouring(n: int, r: int, code: int) -> ColouredGraph:
        """One ``divmod`` per edge on the remaining code: quadratic, but plain."""
        edges = []
        for u, v in lex_edges(n):
            code, c = divmod(code, r)
            edges.append((u, v, c))
        return ColouredGraph(n, r, edges)

    def test_matches_the_reference_loop(self):
        for code in range(1 << 15):
            g = complete_colouring(6, 2, code)
            assert g == self.reference_colouring(6, 2, code)
            assert colouring_code(g) == code
        rng = random.Random(11)
        for n in list(range(9)) + [rng.randrange(9, 61) for _ in range(40)]:
            for r in (2, 3):
                code = rng.randrange(r ** (n * (n - 1) // 2))
                g = complete_colouring(n, r, code)
                assert g == self.reference_colouring(n, r, code)
                assert colouring_code(g) == code

    def test_large_order_is_fast(self):
        n = 600
        code = random.Random(5).getrandbits(n * (n - 1) // 2)
        start = time.perf_counter()
        g = complete_colouring(n, 2, code)
        assert time.perf_counter() - start < 1.0
        assert g.edge_count == n * (n - 1) // 2
        edges = lex_edges(n)
        for k in range(0, len(edges), 997):
            assert g.edge_colour(*edges[k]) == (code >> k) & 1
        for r, code in ((2, code), (3, random.Random(6).randrange(3 ** len(edges)))):
            g = complete_colouring(n, r, code)
            start = time.perf_counter()
            assert colouring_code(g) == code
            assert time.perf_counter() - start < 1.0


class TestSerialisation:
    def test_text_round_trip(self, tmp_path):
        g = blow_up(badly_k5(), [2, 1, 1, 1, 1])
        path = tmp_path / "g.cg"
        write_graph(g, path)
        assert read_graph(path) == g

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "g.cg"
        path.write_text("# made by hand\n3 2\n\n0 1 0  # red\n1 2 1\n")
        g = read_graph(path)
        assert g.edge_colour(0, 1) == 0
        assert g.edge_colour(1, 2) == 1

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "bad.cg"
        for text in ("", "3\n", "3 2\n0 1\n", "3 2\n1 0 0\n", "3 2\n0 1 5\n"):
            path.write_text(text)
            with pytest.raises(ValueError):
                read_graph(path)

    def test_json_round_trip(self, tmp_path):
        g = badly_k5()
        path = tmp_path / "g.json"
        write_graph_json(g, path)
        assert read_graph_json(path) == g
        data = json.loads(path.read_text())
        assert set(data) == {"n", "r", "edges"}

    def test_json_dict_mirror(self):
        g = badly_k5()
        assert from_json_dict(to_json_dict(g)) == g
        with pytest.raises(ValueError):
            from_json_dict({"n": 3, "r": 2})

    def test_vertex_count_is_capped(self):
        assert ColouredGraph(MAX_VERTICES, 2, []).n == MAX_VERTICES
        with pytest.raises(ValueError, match="vertex count"):
            ColouredGraph(MAX_VERTICES + 1, 2, [])
        with pytest.raises(ValueError, match="graph json: vertex count"):
            from_json_dict({"n": 1_000_000, "r": 2, "edges": []})

    @settings(max_examples=50, deadline=None)
    @given(small_graphs())
    def test_round_trip_any(self, g: ColouredGraph):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "g.cg")
            write_graph(g, path)
            assert read_graph(path) == g


class TestRecords:
    def test_monoclique_normalises_and_verifies(self):
        t = MonoClique((2, 0, 1), 0)
        assert t.vertices == (0, 1, 2)
        assert t.verify(complete_colouring(3, 2, 0))
        assert not t.verify(complete_colouring(3, 2, 1))
        assert MonoClique((0, 1, 2), None).verify(complete_colouring(3, 2, 1))
        with pytest.raises(ValueError):
            MonoClique((0, 0, 1), 0)

    def test_monoclique_outside_the_host_does_not_verify(self):
        g = complete_colouring(5, 2, 0)
        for verts in ((-1, 0, 1), (2, 3, 5)):
            assert not MonoClique(verts, 0).verify(g)
            assert not Tiling((MonoClique(verts, 0),)).verify(g)

    def test_tiling_disjointness(self):
        g = complete_colouring(6, 2, 0)
        good = Tiling((MonoClique((0, 1, 2), 0), MonoClique((3, 4, 5), 0)))
        overlapping = Tiling((MonoClique((0, 1, 2), 0), MonoClique((2, 3, 4), 0)))
        assert good.verify(g)
        assert not overlapping.verify(g)
        assert len(good) == 2
        assert good.mask == 0b111111

    def test_bowtie(self):
        edges = ([(u, v, 0) for u, v in combinations(range(3), 2)]
                 + [(0, 3, 1), (0, 4, 1), (3, 4, 1)])
        g = ColouredGraph(5, 2, edges)
        bow = Bowtie(MonoClique((0, 3, 4), 1), MonoClique((0, 1, 2), 0))
        assert bow.first.vertices == (0, 1, 2)
        assert bow.centre == 0
        assert bow.vertex_set == frozenset(range(5))
        assert bow.verify(g)
        same_colour = Bowtie(MonoClique((0, 1, 2), 0), MonoClique((0, 3, 4), 0))
        assert not same_colour.verify(g)

    def test_induced_subgraph(self):
        g = blow_up(badly_k5(), [2, 1, 1, 1, 1])
        sub, back = g.induced([0, 2, 3, 5])
        assert back == (0, 2, 3, 5)
        assert sub.n == 4
        for i, u in enumerate(back):
            for j in range(i + 1, 4):
                assert sub.edge_colour(i, j) == g.edge_colour(u, back[j])


def test_permutation_validation():
    g = badly_k5()
    with pytest.raises(ValueError):
        g.relabelled([0, 1, 2, 3, 3])
    with pytest.raises(ValueError):
        g.recoloured([0, 0])
