from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equifair import geometry
from equifair.geometry import UNIT_SQUARE, argmin_linear, clip_unit_square, convex_hull, halfplanes

from helpers import cross
from oracles import _exact_hull, convex_hull_oracle


def hull_points(points):
    """The CCW hull vertices of distinct integer points, sorted as ``convex_hull`` wants them."""
    pts = sorted(set(points))
    return [pts[i] for i in convex_hull([x for x, _ in pts], [y for _, y in pts])]


def as_set(vertices):
    """The exact points of (X, Y, W) vertices, repeats dropped."""
    return {(Fraction(x, w), Fraction(y, w)) for x, y, w in vertices}


def region(points, sx=1, sy=1):
    """Half-planes of the hull of integer points, scaled by (1/sx, 1/sy)."""
    return halfplanes(hull_points(points), sx, sy)


class TestConvexHull:
    def test_square(self):
        pts = [(0, 0), (1, 0), (1, 1), (0, 1), (2, 2), (1, 2), (2, 0), (0, 2)]
        assert hull_points(pts) == [(0, 0), (2, 0), (2, 2), (0, 2)]

    def test_collinear_points_dropped(self):
        assert hull_points([(0, 0), (1, 1), (2, 2), (0, 2)]) == [(0, 0), (2, 2), (0, 2)]

    def test_degenerate_segment(self):
        assert hull_points([(0, 0), (3, 3), (10, 10)]) == [(0, 0), (10, 10)]
        assert convex_hull([0], [0]) == [0]

    def test_ccw_orientation(self):
        hull = hull_points([(0, 0), (1, 0), (1, 1), (0, 1)])
        area2 = sum(p[0] * q[1] - q[0] * p[1] for p, q in zip(hull, hull[1:] + hull[:1]))
        assert area2 > 0


class TestConvexHullOracle:
    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=40))
    @example([(0, 0), (2, 0), (1, 0)])  # a zero turn
    def test_equals_the_float_chain_on_integer_points(self, points):
        # on small integers the float chain computes each turn exactly, so
        # its tolerance decides nothing and both hulls must agree
        pts = sorted(set(points))
        assert convex_hull([x for x, _ in pts], [y for _, y in pts]) == convex_hull_oracle(np.array(pts, dtype=np.float64))


class TestClipping:
    def test_halfplane_cuts_square(self):
        # keep y >= x
        assert as_set(clip_unit_square([(-1, 1, 0)])) == {(0, 0), (1, 1), (0, 1)}

    def test_triangle_intersection(self):
        above, below = region([(0, 0), (1, 1), (0, 1)]), region([(0, 0), (1, 0), (1, 1)])
        assert as_set(clip_unit_square(above + below)) == {(0, 0), (1, 1)}

    def test_parallelogram_pair(self):
        # two hard regions, in counts over 10 negatives and 10 positives
        p1, p2 = [(0, 0), (8, 1), (10, 10), (2, 9)], [(0, 0), (7, 4), (10, 10), (3, 6)]
        points = as_set(clip_unit_square(region(p1, 10, 10) + region(p2, 10, 10)))
        assert {(0, 0), (1, 1)} <= points
        for poly in (p1, p2):
            ring = [(Fraction(x, 10), Fraction(y, 10)) for x, y in hull_points(poly)]
            assert all(cross(p, q, v) >= 0 for v in points for p, q in zip(ring, ring[1:] + ring[:1]))

    def test_segment_region_forces_diagonal(self):
        segment, triangle = region([(0, 0), (4, 4)], 4, 4), region([(0, 0), (1, 1), (0, 1)])
        assert as_set(clip_unit_square(triangle + segment)) == {(0, 0), (1, 1)}

    def test_every_vertex_is_a_cross_product_of_two_lines_with_positive_w(self):
        planes = region([(0, 0), (3, 7), (10, 10), (7, 3)], 10, 10) + region([(0, 0), (1, 5), (5, 5)], 5, 5)
        vertices = clip_unit_square(planes)
        assert all(w > 0 for _, _, w in vertices)
        lines = [*UNIT_SQUARE, *planes]
        assert all(any(geometry.cross(a, b) == v for a in lines for b in lines) for v in vertices)


@st.composite
def diagonal_regions(draw):
    """1-4 regions, each the half-planes of the hull of random integer points
    in [0, n] x [0, p] with (0, 0) and (n, p), so each holds the diagonal."""
    regions = []
    for _ in range(draw(st.integers(1, 4))):
        n, p = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        inner = draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, p)), max_size=6))
        regions.append(region([(0, 0), (n, p), *inner], n, p))
    return [h for planes in regions for h in planes]


class TestClipOracle:
    @settings(max_examples=300, deadline=None)
    @given(diagonal_regions())
    def test_vertices_are_the_exact_intersection_hull(self, planes):
        # brute force: every crossing of two lines that lies in every half-plane, then its exact hull
        lines = [*UNIT_SQUARE, *planes]
        crossings = [geometry.cross(a, b) for a in lines for b in lines]
        points = {(Fraction(x, w), Fraction(y, w)) for x, y, w in crossings if w}
        feasible = [(x, y) for x, y in points if all(a * x + b * y + c >= 0 for a, b, c in lines)]
        assert as_set(clip_unit_square(planes)) == set(_exact_hull(feasible))


class TestArgminLinear:
    def test_picks_minimizing_vertex(self):
        # minimize x - y: vertex (3/10, 6/10) scores -3/10
        assert argmin_linear([(0, 0, 1), (3, 6, 10), (1, 1, 1)], 1, -1) == (Fraction(3, 10), Fraction(3, 5))

    def test_tie_break_prefers_high_y_then_low_x(self):
        assert argmin_linear([(0, 0, 1), (1, 1, 2), (1, 1, 1)], 1, -1) == (1, 1)  # all tie at 0
        assert argmin_linear([(1, 4, 5), (3, 4, 5)], 0, -1) == (Fraction(1, 5), Fraction(4, 5))

    def test_nearly_equal_vertices_stay_apart(self):
        # 1/3 and the float nearest it differ by 2**-54 / 3: no tolerance may merge them
        near = Fraction(1 / 3)
        vertices = [(1, 1, 3), (near.numerator, near.numerator, near.denominator)]
        assert argmin_linear(vertices, 1, 0) == (min(near, Fraction(1, 3)),) * 2

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            argmin_linear([], 1, 1)
