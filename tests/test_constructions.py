"""Layout, degree and triangle-inventory tests for the extremal generators."""

from __future__ import annotations

import hashlib
from itertools import combinations

import numpy as np
import pytest
from helpers import edge_digest, relabelled, trivial_degree_threshold
from hypothesis import given, settings
from hypothesis import strategies as st

from tritile.constructions import (
    BLUE,
    CONSTRUCTIONS,
    RED,
    badly_coloured_k5,
    bound_report,
    cell_hosts,
    ex_bes_1,
    ex_bes_1_layout,
    ex_bes_2,
    ex_bes_2_layout,
    ex_bes_3,
    ex_bes_3_layout,
    ex_triangle,
    ex_triangle_alt,
    ex_triangle_alt_layout,
    ex_triangle_layout,
    extremal_min_formula,
    pinned_apex_colouring,
    pinned_apex_sizes,
    random_min_degree_colouring,
    special_blowup,
)
from tritile.graphs import ColouredGraph


def triangle_inventory(g: ColouredGraph):
    return [(set(t[:3]), t[3]) for t in g.mono_triangles()]


class TestBadlyK5:
    def test_shape(self):
        g = badly_coloured_k5()
        assert g.n == 5 and g.is_complete()
        for c in (RED, BLUE):
            degs = [g.colour_adj[c][v].bit_count() for v in range(5)]
            assert degs == [2] * 5
        assert g.mono_triangles() == []


class TestExTriangle:
    def test_small_instance(self):
        g = ex_triangle(12, 10)
        lay = ex_triangle_layout(12, 10)
        assert g.n == 12 and g.min_degree() == 10
        assert lay["V0"] == [0, 1] and lay["V5"] == [10, 11]
        assert all(g.degree(v) == 11 for v in lay["V0"])
        tris = triangle_inventory(g)
        assert len(tris) == 22
        v0, v01 = set(lay["V0"]), set(lay["V0"] + lay["V1"])
        for verts, colour in tris:
            assert colour == RED
            assert len(verts & v0) >= 1
            assert len(verts & v01) >= 2

    def test_no_blue_triangles(self):
        g = ex_triangle(30, 25)
        assert g.min_degree() == 25
        assert all(t[3] == RED for t in g.mono_triangles())
        assert len(ex_triangle_layout(30, 25)["V0"]) == 5

    def test_boundary_has_no_triangles(self):
        g = ex_triangle(10, 8)
        assert ex_triangle_layout(10, 8)["V0"] == []
        assert g.min_degree() == 8
        assert g.mono_triangles() == []

    def test_admissibility(self):
        with pytest.raises(ValueError):
            ex_triangle(11, 8)
        with pytest.raises(ValueError):
            ex_triangle(10, 10)


class TestExTriangleAlt:
    def test_layout_and_triangles(self):
        g = ex_triangle_alt(16, 14)
        lay = ex_triangle_alt_layout(16, 14)
        assert len(lay["R"]) == 12
        assert g.min_degree() == 14
        r = set(lay["R"])
        tris = triangle_inventory(g)
        assert len(tris) == 220
        assert all(colour == RED and verts <= r for verts, colour in tris)

    def test_audit_instance_clique_size(self):
        assert len(ex_triangle_alt_layout(24, 21)["R"]) == 18

    def test_admissibility(self):
        with pytest.raises(ValueError):
            ex_triangle_alt(24, 20)


class TestExBes:
    def test_bes_1_is_complete_at_k9(self):
        g = ex_bes_1(9, 8)
        lay = ex_bes_1_layout(9, 8)
        assert g.is_complete()
        assert (len(lay["R"]), len(lay["B"]), len(lay["S"])) == (5, 3, 1)

    def test_bes_1_triangle_split(self):
        g = ex_bes_1(22, 16)
        lay = ex_bes_1_layout(22, 16)
        assert (len(lay["R"]), len(lay["B"]), len(lay["S"])) == (11, 5, 6)
        assert g.min_degree() == 16
        r, b = set(lay["R"]), set(lay["B"])
        reds = [verts for verts, c in triangle_inventory(g) if c == RED]
        blues = [verts for verts, c in triangle_inventory(g) if c == BLUE]
        assert len(reds) == 165 and all(verts <= r for verts in reds)
        assert len(blues) == 120 and all(len(verts & b) >= 2 for verts in blues)

    def test_bes_1_degrees_outside_s(self):
        g = ex_bes_1(22, 16)
        lay = ex_bes_1_layout(22, 16)
        assert all(g.degree(v) == 21 for v in lay["R"] + lay["B"])
        assert all(g.degree(v) == 16 for v in lay["S"])

    def test_bes_2_structure(self):
        g = ex_bes_2(25, 22)
        lay = ex_bes_2_layout(25, 22)
        assert (len(lay["R"]), len(lay["B"])) == (9, 4)
        assert all(len(lay[k]) == 3 for k in ("V2", "V3", "V4", "V5"))
        assert g.min_degree() == 22
        r, b = set(lay["R"]), set(lay["B"])
        x25 = set(lay["R"] + lay["V2"] + lay["V5"])
        for verts, colour in triangle_inventory(g):
            if colour == RED:
                assert len(verts & r) >= 2 and verts <= x25
            else:
                assert len(verts & b) >= 1

    def test_bes_2_needs_host_at_least_25(self):
        with pytest.raises(ValueError):
            ex_bes_2(24, 20)

    def test_bes_3_structure(self):
        g = ex_bes_3(24, 20)
        lay = ex_bes_3_layout(24, 20)
        assert (len(lay["R"]), len(lay["B"]), len(lay["S"])) == (2, 2, 4)
        assert g.min_degree() == 20
        assert all(g.degree(v) == 23 for v in lay["R"] + lay["B"])
        r, b = set(lay["R"]), set(lay["B"])
        for verts, colour in triangle_inventory(g):
            assert len(verts & (r if colour == RED else b)) >= 1

    def test_bes_3_admissibility(self):
        with pytest.raises(ValueError):
            ex_bes_3(24, 19)


class TestPinnedApex:
    def test_sizes_and_degrees(self):
        assert pinned_apex_sizes(18, 15) == [3, 3, 3, 3, 3, 3]
        assert pinned_apex_sizes(12, 10) == [2] * 6
        g = pinned_apex_colouring(pinned_apex_sizes(18, 15))
        assert g.n == 18 and g.min_degree() == 15

    def test_triangles_hit_apex(self):
        g = pinned_apex_colouring([2, 2, 2, 2, 2, 2])
        apex = set(range(2))
        tris = triangle_inventory(g)
        assert tris
        assert all(len(verts & apex) == 1 for verts, _ in tris)

    def test_admissibility(self):
        with pytest.raises(ValueError):
            pinned_apex_sizes(10, 8)
        with pytest.raises(ValueError):
            pinned_apex_sizes(12, 11)
        with pytest.raises(ValueError):
            pinned_apex_colouring([1, 1, 1])


class TestSpecialBlowup:
    def test_ramsey_mode(self):
        g = special_blowup(t=2)
        assert g.n == 7 and g.is_complete()
        a = set(range(5))
        tris = triangle_inventory(g)
        assert len(tris) == 10
        assert all(colour == RED and verts <= a for verts, colour in tris)

    def test_degree_mode(self):
        g = special_blowup(n=20, delta=13)
        assert g.min_degree() == 13
        u = set(range(6))
        assert all(verts <= u for verts, _ in triangle_inventory(g))

    @pytest.mark.parametrize("n, delta", [(16, 14), (24, 21), (40, 36)])
    def test_degree_mode_relabels_ex_triangle_alt(self, n, delta):
        # S1 -> AA, S2 -> AB and R -> U carry one colouring onto the other.
        lay = ex_triangle_alt_layout(n, delta)
        u_size = 2 * delta - n
        perm = [0] * n
        for k, v in enumerate(lay["S1"]):
            perm[v] = u_size + k
        for k, v in enumerate(lay["S2"]):
            perm[v] = delta + k
        for k, v in enumerate(lay["R"]):
            perm[v] = k
        assert relabelled(ex_triangle_alt(n, delta), perm) == special_blowup(n=n, delta=delta)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            special_blowup()
        with pytest.raises(ValueError):
            special_blowup(t=2, n=10, delta=6)
        with pytest.raises(ValueError):
            special_blowup(n=10, delta=5)


def test_every_small_host_is_pinned():
    """Every admissible construction host with n <= 40 at every delta, each
    special_blowup in both modes and each pinned_apex_colouring, digested in
    one fixed order, so that a change to any pattern, layout or to the
    builder shows here."""
    def digest(build) -> list[str]:
        try:
            return [edge_digest(build())]
        except ValueError:
            return []

    digests = []
    for n in range(1, 41):
        for delta in range(n):
            digests += [edge_digest(g) for _, g in cell_hosts(n, delta, CONSTRUCTIONS, 0, 0, ())]
            digests += digest(lambda: special_blowup(n=n, delta=delta))
            digests += digest(lambda: pinned_apex_colouring(pinned_apex_sizes(n, delta)))
    digests += [edge_digest(special_blowup(t=t)) for t in range(1, 14)]
    assert len(digests) == 1528
    assert hashlib.sha256(" ".join(digests).encode()).hexdigest()[:16] == "a98d9d92b6b15b41"


class TestBounds:
    def test_low_band(self):
        rep = bound_report(36, 30)
        assert (rep.moon_bound, rep.moon_piece, rep.moon_asymptotic) == (6, "low", False)
        assert (rep.bes_bound, rep.bes_piece, rep.bes_conjectural) == (3, "low", False)
        assert rep.extremal_min == 6

    def test_piece_boundaries_agree(self):
        rep = bound_report(40, 35)
        assert rep.moon_piece == "high" and rep.moon_bound == 10
        assert rep.extremal_min == 10
        rep36 = bound_report(36, 30)
        assert 5 * 30 - 4 * 36 == (4 * 30 - 3 * 36) // 2 == rep36.moon_bound

    def test_mid_band_is_asymptotic(self):
        rep = bound_report(48, 41)
        assert (rep.moon_bound, rep.moon_piece, rep.moon_asymptotic) == (10, "mid", True)
        assert rep.extremal_min == 10

    def test_bes_high_band(self):
        rep = bound_report(66, 65)
        assert (rep.bes_bound, rep.bes_piece, rep.bes_conjectural) == (13, "high", False)
        assert rep.moon_bound == 21

    def test_bes_mid_band_conjectural(self):
        rep = bound_report(24, 21)
        assert (rep.bes_bound, rep.bes_piece, rep.bes_conjectural) == (4, "mid", True)
        assert rep.moon_bound == 6

    def test_bes_low_band_proved_for_large_hosts(self):
        assert not bound_report(25, 21).bes_conjectural
        assert bound_report(25, 21).bes_bound == 3
        assert not bound_report(24, 20).bes_conjectural

    def test_range_check(self):
        with pytest.raises(ValueError):
            bound_report(10, 7)

    def test_extremal_min_formula(self):
        assert extremal_min_formula(48, 42) == 12
        assert extremal_min_formula(48, 40) == 8

    def test_trivial_threshold(self):
        assert trivial_degree_threshold(6, 10) == 8
        assert trivial_degree_threshold(6, 11) == 8
        assert trivial_degree_threshold(3, 10) == 5
        with pytest.raises(ValueError):
            trivial_degree_threshold(1, 10)


class TestRandomInstances:
    def test_exact_min_degree_and_determinism(self):
        for seed, (n, delta) in enumerate([(12, 7), (15, 11), (20, 16), (9, 3)]):
            g1 = random_min_degree_colouring(n, delta, np.random.default_rng(seed))
            g2 = random_min_degree_colouring(n, delta, np.random.default_rng(seed))
            assert g1 == g2
            assert g1.min_degree() == delta

    @staticmethod
    def reference_colouring(n, delta, rng, r=2):
        """The plain loop: re-sort every qualifying edge after each deletion."""
        present = set(combinations(range(n), 2))
        deg = [n - 1] * n
        while True:
            candidates = sorted((u, v) for u, v in present
                                if deg[u] > delta and deg[v] > delta)
            if not candidates:
                break
            u, v = candidates[int(rng.integers(len(candidates)))]
            present.remove((u, v))
            deg[u] -= 1
            deg[v] -= 1
        ordered = sorted(present)
        colours = rng.integers(0, r, size=len(ordered))
        return ColouredGraph(n, r, [(u, v, int(c)) for (u, v), c in zip(ordered, colours)])

    def test_matches_the_reference_loop(self):
        for n in (1, 2, 5, 9, 14, 20):
            for delta in sorted({0, n // 2, max(0, n - 2), max(0, n - 1)}):
                for seed in range(3):
                    got = random_min_degree_colouring(n, delta, np.random.default_rng(seed))
                    want = self.reference_colouring(n, delta, np.random.default_rng(seed))
                    assert got == want

    def test_large_order_smoke(self):
        g = random_min_degree_colouring(120, 100, np.random.default_rng(0))
        assert (g.n, g.min_degree()) == (120, 100)

    def test_multicolour(self):
        g = random_min_degree_colouring(10, 6, np.random.default_rng(5), r=3)
        assert g.r == 3 and g.min_degree() == 6

    def test_range_check(self):
        with pytest.raises(ValueError):
            random_min_degree_colouring(5, 5, np.random.default_rng(0))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=10, max_value=36), st.data())
def test_generators_hit_exact_min_degree(n: int, data):
    delta = data.draw(st.integers(min_value=-(-4 * n // 5), max_value=n - 1))
    for gen in (ex_triangle, ex_bes_3):
        g = gen(n, delta)
        assert g.n == n and g.min_degree() == delta
    if n >= 25:
        g = ex_bes_2(n, delta)
        assert g.n == n and g.min_degree() == delta
    if 8 * delta >= 7 * n:
        g = ex_triangle_alt(n, delta)
        assert g.n == n and g.min_degree() == delta
    g = ex_bes_1(n, delta)
    assert g.n == n and g.min_degree() == delta


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=10, max_value=40), st.data())
def test_extremal_min_matches_piecewise_choice(n: int, data):
    delta = data.draw(st.integers(min_value=-(-4 * n // 5), max_value=n - 1))
    rep = bound_report(n, delta)
    values = {"low": 5 * delta - 4 * n,
              "mid": (4 * delta - 3 * n) // 2,
              "high": (2 * delta - n) // 3}
    assert rep.moon_bound == values[rep.moon_piece]
    assert rep.extremal_min == min(values.values())
    assert rep.extremal_min <= rep.moon_bound
