"""Small exact 2D geometry kit: convex hulls, half-plane clipping, and
linear minimization over polygon vertices.

All polygons are vertex lists in counter-clockwise order.  Operating
regions in this package live inside the unit square, so clipping always
starts from it.  Tolerances are absolute; coordinates are O(1).
"""

from __future__ import annotations

import numpy as np

EPS = 1e-12


def cross(o, a, b) -> float:
    """z-component of (a - o) x (b - o); positive for a left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _monotone_chain(pts: np.ndarray, order: list[int]) -> list[int]:
    """Walk ``order``, keeping only strict left turns: the lower hull for
    lexicographic order, the upper hull for its reverse."""
    chain: list[int] = []
    for i in order:
        while len(chain) >= 2 and cross(pts[chain[-2]], pts[chain[-1]], pts[i]) <= EPS:
            chain.pop()
        chain.append(i)
    return chain


def convex_hull_indices(points: np.ndarray) -> list[int]:
    """Monotone-chain hull of (n, 2) points; returns CCW vertex indices.

    The hull starts at the lexicographically smallest point and runs along
    the lower chain to the largest, then back along the upper chain.
    Collinear boundary points are dropped.  Degenerate inputs (all points
    collinear) yield the 2 extreme indices, or 1 for a single point.
    """
    pts = np.asarray(points, dtype=np.float64)
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    uniq: list[int] = []
    for i in order:
        if uniq and abs(pts[i, 0] - pts[uniq[-1], 0]) <= EPS and abs(pts[i, 1] - pts[uniq[-1], 1]) <= EPS:
            continue
        uniq.append(int(i))
    if len(uniq) <= 2:
        return uniq
    hull = _monotone_chain(pts, uniq)[:-1] + _monotone_chain(pts, uniq[::-1])[:-1]
    return hull if len(hull) >= 2 else uniq[:1]


def polygon_edges(vertices: np.ndarray):
    n = len(vertices)
    for i in range(n):
        yield vertices[i], vertices[(i + 1) % n]


def clip_polygon_halfplane(vertices: np.ndarray, a: float, b: float, c: float) -> np.ndarray:
    """Sutherland-Hodgman clip of a convex polygon by a*x + b*y + c >= 0."""
    if len(vertices) == 0:
        return vertices
    out: list[np.ndarray] = []
    n = len(vertices)
    dist = a * vertices[:, 0] + b * vertices[:, 1] + c
    for i in range(n):
        p, q = vertices[i], vertices[(i + 1) % n]
        dp, dq = dist[i], dist[(i + 1) % n]
        if dp >= -EPS:
            out.append(p)
        if (dp > EPS and dq < -EPS) or (dp < -EPS and dq > EPS):
            t = dp / (dp - dq)
            out.append(p + t * (q - p))
    return _dedupe(np.array(out)) if out else np.empty((0, 2))


def _dedupe(vertices: np.ndarray) -> np.ndarray:
    if len(vertices) <= 1:
        return vertices
    keep = [0]
    for i in range(1, len(vertices)):
        if abs(vertices[i, 0] - vertices[keep[-1], 0]) > EPS or abs(vertices[i, 1] - vertices[keep[-1], 1]) > EPS:
            keep.append(i)
    # first and last may also coincide
    if len(keep) > 1 and abs(vertices[keep[0], 0] - vertices[keep[-1], 0]) <= EPS and abs(
        vertices[keep[0], 1] - vertices[keep[-1], 1]
    ) <= EPS:
        keep.pop()
    return vertices[keep]


def halfplanes_of_polygon(vertices: np.ndarray) -> list[tuple[float, float, float]]:
    """Half-planes (a, b, c) with a*x + b*y + c >= 0 inside, for a CCW
    polygon.  A 2-vertex polygon (segment) yields both bordering
    half-planes, so the intersection is the segment's supporting line."""
    planes = []
    verts = np.asarray(vertices, dtype=np.float64)
    if len(verts) == 2:
        pairs = [(verts[0], verts[1]), (verts[1], verts[0])]
    else:
        pairs = list(polygon_edges(verts))
    for p, q in pairs:
        # CCW traversal: the interior is to the left of p->q
        a, b = -(q[1] - p[1]), q[0] - p[0]
        norm = np.hypot(a, b)
        if norm <= EPS:
            continue
        a, b = a / norm, b / norm
        c = -(a * p[0] + b * p[1])
        planes.append((float(a), float(b), float(c)))
    return planes


UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def intersect_regions(polygons: list[np.ndarray]) -> np.ndarray:
    """Vertices of the intersection of convex polygons within [0, 1]^2."""
    region = UNIT_SQUARE.copy()
    for poly in polygons:
        for a, b, c in halfplanes_of_polygon(poly):
            region = clip_polygon_halfplane(region, a, b, c)
            if len(region) == 0:
                return region
    return region


def argmin_linear(vertices: np.ndarray, cx: float, cy: float) -> tuple[float, float]:
    """Vertex minimizing cx*x + cy*y, ties broken by (y descending,
    x ascending).  The tie tolerance scales with the objective size."""
    if len(vertices) == 0:
        raise ValueError("empty polygon")
    tie = 1e-12 * (abs(cx) + abs(cy) + 1.0)
    best = None
    best_obj = np.inf
    for v in vertices:
        obj = cx * v[0] + cy * v[1]
        if best is None or obj < best_obj - tie:
            best, best_obj = v, obj
        elif obj <= best_obj + tie:
            if v[1] > best[1] + 1e-15 or (abs(v[1] - best[1]) <= 1e-15 and v[0] < best[0] - 1e-15):
                best, best_obj = v, min(best_obj, obj)
    return float(best[0]), float(best[1])
