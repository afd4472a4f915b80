"""Geometry and ROC helpers that only the tests use."""

import numpy as np

from equifair import ValidationError
from equifair.geometry import convex_hull_indices, cross, polygon_edges
from equifair.metrics import roc_curve


def point_in_convex_polygon(point, vertices: np.ndarray, tol: float = 1e-9) -> bool:
    verts = np.asarray(vertices, dtype=np.float64)
    if len(verts) == 1:
        return bool(np.hypot(point[0] - verts[0, 0], point[1] - verts[0, 1]) <= tol)
    if len(verts) == 2:
        d = verts[1] - verts[0]
        r = np.array([point[0] - verts[0, 0], point[1] - verts[0, 1]])
        t = np.dot(r, d) / np.dot(d, d)
        proj = verts[0] + np.clip(t, 0.0, 1.0) * d
        return bool(np.hypot(point[0] - proj[0], point[1] - proj[1]) <= tol)
    return all(cross(p, q, point) >= -tol for p, q in polygon_edges(verts))


def group_masks(preds) -> dict[str, np.ndarray]:
    """Row mask of each group present in ``preds``, universe order, read
    off the group codes."""
    masks = {g: preds.group_codes == code for code, g in enumerate(preds.universe)}
    return {g: m for g, m in masks.items() if m.any()}


def soft_regions_of(preds) -> dict[str, np.ndarray]:
    """Convex achievable region (hull vertices) per group, from scores."""
    if preds.scores is None:
        raise ValidationError("scores required")
    out = {}
    for g, m in group_masks(preds).items():
        curve = roc_curve(preds.scores[m], preds.y_true[m])
        pts = np.column_stack((curve.fpr, curve.tpr))
        out[g] = pts[convex_hull_indices(pts)]
    return out


def roc_points(curve) -> list[tuple[float, float, float]]:
    """(fpr, tpr, threshold) triples of a RocCurve."""
    return list(zip(curve.fpr.tolist(), curve.tpr.tolist(), curve.thresholds.tolist()))


def trapezoid_area(curve) -> float:
    return float(np.trapezoid(curve.tpr, curve.fpr))
