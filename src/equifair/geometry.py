"""Exact 2D geometry in Python integers: convex hulls, half-plane clipping
of the unit square, and linear minimization over polygon vertices.

A point is an integer pair, or an integer triple (X, Y, W) with W > 0
standing for (X / W, Y / W).  A half-plane is an integer triple (a, b, c)
holding the points with a*x + b*y + c >= 0.  The cross product of two
lines is the point on both, so every vertex of a clipped polygon is the
cross product of two of the input lines, and its size stays bounded by
theirs.  Every test is the sign of an integer: no tolerance is needed.
"""

from __future__ import annotations

# the unit square's edges, CCW from the bottom one: y >= 0, x <= 1, y <= 1, x >= 0
UNIT_SQUARE = ((0, 1, 0), (-1, 0, 1), (0, -1, 1), (1, 0, 0))


def cross(u: tuple[int, int, int], v: tuple[int, int, int]) -> tuple[int, int, int]:
    """The cross product of two integer triples: the point on two lines, or
    the line through two points.  For consecutive CCW edge lines the point's
    W is positive."""
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _monotone_chain(xs: list[int], ys: list[int], order) -> list[int]:
    """Walk ``order``, keeping only strict left turns: the lower hull for
    lexicographic order, the upper hull for its reverse.  A turn o -> a ->
    b is the z-component of (a - o) x (b - o), positive to the left."""
    chain: list[int] = []
    for i in order:
        bx, by = xs[i], ys[i]
        while len(chain) >= 2:
            o, a = chain[-2], chain[-1]
            if (xs[a] - xs[o]) * (by - ys[o]) - (ys[a] - ys[o]) * (bx - xs[o]) > 0:
                break
            chain.pop()
        chain.append(i)
    return chain


def convex_hull(xs: list[int], ys: list[int]) -> list[int]:
    """Monotone-chain hull (Andrew 1979) of distinct integer points given in
    lexicographic order; returns CCW vertex indices.

    The hull starts at the first point and runs along the lower chain to
    the last, then back along the upper chain.  Collinear boundary points
    are dropped, so collinear inputs yield their 2 end indices.
    """
    if len(xs) <= 2:
        return list(range(len(xs)))
    order = range(len(xs))
    return _monotone_chain(xs, ys, order)[:-1] + _monotone_chain(xs, ys, reversed(order))[:-1]


def halfplanes(vertices: list[tuple[int, int]], sx: int, sy: int) -> list[tuple[int, int, int]]:
    """Integer half-planes (a, b, c), one per edge, whose intersection is the
    CCW polygon with vertices (x / sx, y / sy) for (x, y) in ``vertices``;
    sx, sy > 0.  A 2-vertex polygon (a segment) yields both of its sides."""
    ring = zip(vertices, vertices[1:] + vertices[:1])
    return [(-(y2 - y1) * sx, (x2 - x1) * sy, (y2 - y1) * x1 - (x2 - x1) * y1) for (x1, y1), (x2, y2) in ring]


def clip_unit_square(planes: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """CCW vertices (X, Y, W), W > 0, of the unit square cut by every
    half-plane of ``planes``, each of which must hold the diagonal from
    (0, 0) to (1, 1).  The result may repeat a vertex.

    The polygon is its CCW list of edge lines, each with its start vertex,
    the cross product of the line before it and itself.  A cut keeps every
    edge with an end on its inner side, its boundary included, and inserts
    its own line after the edge that strictly leaves that side.  An edge
    that only touches the line keeps zero length, so a cut down to the
    diagonal still has non-parallel neighbouring lines.
    """
    polygon = [(line, cross(UNIT_SQUARE[i - 1], line)) for i, line in enumerate(UNIT_SQUARE)]
    for h in planes:
        side = [h[0] * x + h[1] * y + h[2] * w for _, (x, y, w) in polygon]
        if min(side) >= 0:
            continue
        cut = []
        for i, (line, start) in enumerate(polygon):
            inside, ahead = side[i] >= 0, side[(i + 1) % len(polygon)] >= 0
            if inside:
                cut.append((line, start))
                if not ahead:
                    cut.append((h, cross(line, h)))
            elif ahead:
                cut.append((line, cross(h, line)))
        polygon = cut
    return [start for _, start in polygon]


def argmin_linear(vertices: list[tuple[int, int, int]], cx, cy):
    """The exact (x, y), as Fractions, of the vertex least in (cx*x + cy*y,
    -y, x): ties broken by y descending, then x ascending.  ``cx`` and
    ``cy`` are ints or Fractions."""
    from fractions import Fraction  # a fit's alone: importing the CLI does not load it

    points = [(Fraction(x, w), Fraction(y, w)) for x, y, w in vertices]
    return min(points, key=lambda p: (cx * p[0] + cy * p[1], -p[1], p[0]))
