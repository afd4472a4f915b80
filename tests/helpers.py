"""Geometry, ROC and report helpers that only the tests use."""

import json
from typing import Mapping

import numpy as np

from equifair import LossSpec, ValidationError, schema
from equifair.eo import expected_loss_of_rates
from equifair.geometry import convex_hull_indices, polygon_edges
from equifair.metrics import FairnessReport, GroupRateEntry, roc_curve


def cross(o, a, b) -> float:
    """z-component of (a - o) x (b - o); positive for a left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


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


def expected_accuracy_of_rates(rates: Mapping[str, GroupRateEntry]) -> float:
    """Expected accuracy under empirical group/class frequencies."""
    return 1.0 - expected_loss_of_rates(rates, LossSpec(1.0, 1.0))


def total_samples(rates: Mapping[str, GroupRateEntry]) -> int:
    return sum(e.n_pos + e.n_neg for e in rates.values())


def group_rates_from_dict(d) -> dict[str, GroupRateEntry]:
    """Group rates from their JSON form."""
    return schema.load(Mapping[str, GroupRateEntry], d, "group rates")


def report_from_json(text: str) -> FairnessReport:
    """FairnessReport from its JSON form, ``schema.dumps(report)``."""
    return schema.load(FairnessReport, json.loads(text), "report")
