import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equifair.geometry import (
    argmin_linear,
    clip_polygon_halfplane,
    convex_hull_indices,
    intersect_regions,
)

from helpers import point_in_convex_polygon
from oracles import convex_hull_oracle


def as_set(vertices, nd=9):
    return {(round(float(x), nd), round(float(y), nd)) for x, y in vertices}


class TestConvexHull:
    def test_square(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0.5], [0.2, 0.2]])
        hull = convex_hull_indices(pts)
        assert as_set(pts[hull]) == {(0, 0), (1, 0), (1, 1), (0, 1)}

    def test_collinear_points_dropped(self):
        pts = np.array([[0, 0], [0.5, 0.5], [1, 1], [0, 1]])
        hull = convex_hull_indices(pts)
        assert as_set(pts[hull]) == {(0, 0), (1, 1), (0, 1)}

    def test_degenerate_segment(self):
        pts = np.array([[0, 0], [0.3, 0.3], [1, 1]])
        hull = convex_hull_indices(pts)
        assert as_set(pts[hull]) == {(0, 0), (1, 1)}

    def test_ccw_orientation(self):
        pts = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])
        hull = pts[convex_hull_indices(pts)]
        area2 = sum(
            hull[i, 0] * hull[(i + 1) % len(hull), 1] - hull[(i + 1) % len(hull), 0] * hull[i, 1]
            for i in range(len(hull))
        )
        assert area2 > 0


@st.composite
def point_sets(draw):
    """1-40 points: coordinates from a small pool holding offsets of less
    than EPS (1e-12), exactly EPS and just past it, or grid values nudged
    by such offsets, or arbitrary floats.  Duplicates, near-duplicates,
    turns of exactly EPS and collinear runs are common."""
    offsets = [0.0, 1e-13, -4e-13, 9e-13, 1e-12, 2e-12, -1e-9]
    grid = st.builds(lambda base, nudge: base + nudge, st.sampled_from([0.2, 0.5, 1.0, 3.0]), st.sampled_from(offsets))
    coord = st.one_of(st.sampled_from([*offsets, 0.5, 1.0]), grid, st.floats(-5.0, 5.0))
    return np.array(draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40)), dtype=np.float64)


class TestConvexHullOracle:
    @settings(max_examples=500, deadline=None)
    @given(point_sets())
    @example(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1e-12]]))  # a turn of exactly EPS
    def test_equals_numpy_scalar_chain(self, pts):
        assert convex_hull_indices(pts) == convex_hull_oracle(pts)


class TestClipping:
    def test_halfplane_cuts_square(self):
        square = np.array([[0.0, 0], [1, 0], [1, 1], [0, 1]])
        # keep y >= x
        clipped = clip_polygon_halfplane(square, -1.0, 1.0, 0.0)
        assert as_set(clipped) == {(0, 0), (1, 1), (0, 1)}

    def test_triangle_intersection(self):
        t1 = np.array([[0.0, 0], [1, 1], [0, 1]])  # y >= x
        t2 = np.array([[0.0, 0], [1, 0], [1, 1]])  # y <= x
        region = intersect_regions([t1, t2])
        assert as_set(region) == {(0, 0), (1, 1)}

    def test_parallelogram_pair(self):
        p1 = np.array([[0.0, 0.0], [0.8, 0.1], [1.0, 1.0], [0.2, 0.9]])
        p2 = np.array([[0.0, 0.0], [0.7, 0.4], [1.0, 1.0], [0.3, 0.6]])
        region = intersect_regions([p1, p2])
        # intersection must contain the diagonal endpoints and stay inside both
        assert point_in_convex_polygon((0, 0), region)
        assert point_in_convex_polygon((1, 1), region)
        for v in region:
            assert point_in_convex_polygon(v, p1, tol=1e-9)
            assert point_in_convex_polygon(v, p2, tol=1e-9)

    def test_segment_region_forces_diagonal(self):
        seg = np.array([[0.0, 0.0], [1.0, 1.0]])
        tri = np.array([[0.0, 0], [1, 1], [0, 1]])
        region = intersect_regions([tri, seg])
        assert as_set(region) == {(0, 0), (1, 1)}


class TestArgminLinear:
    def test_picks_minimizing_vertex(self):
        verts = np.array([[0.0, 0.0], [0.3, 0.6], [1.0, 1.0]])
        # minimize x - y: vertex (0.3, 0.6) scores -0.3
        assert argmin_linear(verts, 1.0, -1.0) == (0.3, 0.6)

    def test_tie_break_prefers_high_y_then_low_x(self):
        verts = np.array([[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])
        x, y = argmin_linear(verts, 1.0, -1.0)  # all tie at 0
        assert (x, y) == (1.0, 1.0)
        x2, y2 = argmin_linear(np.array([[0.2, 0.8], [0.6, 0.8]]), 0.0, -1.0)
        assert (x2, y2) == (0.2, 0.8)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            argmin_linear(np.empty((0, 2)), 1.0, 1.0)
