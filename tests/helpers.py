"""Geometry, ROC, report and worker-pool helpers that only the tests use."""

import concurrent.futures
import json
import tempfile
import tracemalloc
from contextlib import contextmanager
from typing import Mapping

import numpy as np
import pytest

from equifair import DegenerateInputError, EmbeddingMatrix, LossSpec, ValidationError, pool, schema
from equifair.debias import NEUTRALIZE_EPS
from equifair.ensemble import _loss_grad_p
from equifair.eo import _group_coefficients, expected_loss_of_rates
from equifair.geometry import convex_hull
from equifair.metrics import FairnessReport, GroupRateEntry, _descending, _threshold_counts
from equifair.predictions import readonly


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
    return all(cross(p, q, point) >= -tol for p, q in zip(verts, np.roll(verts, -1, axis=0)))


def squared_distance_to_polygon(point, vertices):
    """Squared distance from ``point`` to the convex polygon of CCW
    ``vertices`` (a segment if two), 0 inside; exact on Fractions."""
    edges = list(zip(vertices, vertices[1:] + vertices[:1]))
    if len(vertices) > 2 and all(cross(p, q, point) >= 0 for p, q in edges):
        return 0

    def to_edge(a, b):
        d, r = (b[0] - a[0], b[1] - a[1]), (point[0] - a[0], point[1] - a[1])
        t = min(max((r[0] * d[0] + r[1] * d[1]) / (d[0] ** 2 + d[1] ** 2), 0), 1)
        return (r[0] - t * d[0]) ** 2 + (r[1] - t * d[1]) ** 2

    return min(to_edge(a, b) for a, b in edges)


def group_masks(preds) -> dict[str, np.ndarray]:
    """Row mask of each group present in ``preds``, universe order, read
    off the group codes."""
    masks = {g: preds.group_codes == code for code, g in enumerate(preds.universe)}
    return {g: m for g, m in masks.items() if m.any()}


def roc_counts(scores, y_true) -> tuple[list[int], list[int]]:
    """The integer (fp, tp) counts of every ROC point of one group, (0, 0) first."""
    s, y = np.asarray(scores, dtype=np.float64), np.asarray(y_true)
    _, tp, fp = _threshold_counts(s, y, _descending(s))
    return [0, *fp.tolist()], [0, *tp.tolist()]


def soft_regions_of(preds) -> dict[str, np.ndarray]:
    """Convex achievable region (hull vertices, as rates) per group, from
    the exact hull of its ROC counts."""
    if preds.scores is None:
        raise ValidationError("scores required")
    out = {}
    for g, m in group_masks(preds).items():
        fp, tp = roc_counts(preds.scores[m], preds.y_true[m])
        out[g] = np.array([(fp[i] / fp[-1], tp[i] / tp[-1]) for i in convex_hull(fp, tp)])
    return out


def roc_points(curve) -> list[tuple[float, float, float]]:
    """(fpr, tpr, threshold) triples of a RocCurve."""
    return list(zip(curve.fpr.tolist(), curve.tpr.tolist(), curve.thresholds.tolist()))


def trapezoid_area(curve) -> float:
    return float(np.trapezoid(curve.tpr, curve.fpr))


def expected_accuracy_of_rates(rates: Mapping[str, GroupRateEntry]) -> float:
    """Expected accuracy under empirical group/class frequencies."""
    return 1.0 - expected_loss_of_rates(rates, LossSpec(1.0, 1.0))


def unconstrained_optimum_loss(rates: Mapping[str, GroupRateEntry], loss: LossSpec, soft_regions: Mapping[str, np.ndarray] | None = None) -> float:
    """Loss of the best per-group derived predictor with no cross-group
    constraint: each group independently picks its optimal achievable
    point.  Lower-bounds every equalized-odds fit on the same data."""
    total = 0.0
    for g, (kf, kn) in _group_coefficients(rates, loss).items():
        f, t = rates[g].fpr, rates[g].tpr
        region = soft_regions[g] if soft_regions is not None else [(0.0, 0.0), (f, t), (1.0, 1.0), (1.0 - f, 1.0 - t)]
        total += min(kf * x + kn * (1.0 - y) for x, y in region)  # a linear loss is least at a vertex
    return total


def total_samples(rates: Mapping[str, GroupRateEntry]) -> int:
    return sum(e.n_pos + e.n_neg for e in rates.values())


def group_rates_from_dict(d) -> dict[str, GroupRateEntry]:
    """Group rates from their JSON form."""
    return schema.load(Mapping[str, GroupRateEntry], d, "group rates")


def report_from_json(text: str) -> FairnessReport:
    """FairnessReport from its JSON form, ``schema.dumps(report)``."""
    return schema.load(FairnessReport, json.loads(text), "report")


def unit_normalized(emb: EmbeddingMatrix) -> EmbeddingMatrix:
    """``emb`` with every vector scaled to unit norm, in a new frozen matrix;
    a zero-norm vector raises."""
    norms = np.linalg.norm(emb.vectors, axis=1, keepdims=True)
    if np.any(norms <= NEUTRALIZE_EPS):
        bad = [emb.tokens[i] for i in np.nonzero(norms.ravel() <= NEUTRALIZE_EPS)[0]]
        raise DegenerateInputError(f"zero-norm vectors for tokens {bad}")
    return EmbeddingMatrix(emb.tokens, readonly(emb.vectors / norms))


def logistic_loss_and_grad(x, y, weights, intercept: float, C: float) -> tuple[float, np.ndarray, float]:
    """The ensemble fit's objective value and its gradient in (weights, intercept)."""
    n = len(x)
    return _loss_grad_p(x, y, weights, intercept, C, np.empty(n), np.empty((2, n)))[:3]


def embedding_file(edits: Mapping[int, str] = {}, n: int = 6, newline: str = "\n") -> bytes:
    """An embedding file of ``n`` words ``w0``, ``w1``, ... of dimension 2,
    its lines numbered from 1 (the header) and those in ``edits`` replaced."""
    lines = [f"{n} 2", *(f"w{i} 0.5 -0.25" for i in range(n))]
    for lineno, text in edits.items():
        lines[lineno - 1] = text
    return (newline.join(lines) + newline).encode()


# 2-dimensional words past the decoder's first 8192-byte chunk
_DEEP_WORDS = 1500
# the line holding the chunk's last byte
_CHUNK_LINE = embedding_file(n=_DEEP_WORDS)[:8192].count(b"\n") + 1
# malformed embedding files; read in blocks of 2 rows, their errors lie in
# the second block or later unless the name says otherwise
MALFORMED_EMBEDDINGS = {
    "count-in-the-third-block": embedding_file({6: "w4 0.5"}),
    "duplicate-of-an-earlier-block": embedding_file({7: "w0 0.5 0.5"}),
    "non-numeric": embedding_file({5: "w3 0.5 x"}),
    "count-error-on-a-duplicate": embedding_file({6: "w0 0.5"}),
    "duplicate-before-a-count-error": embedding_file({6: "w0 0.5 0.5", 7: "w5 0.5"}),
    "non-numeric-after-a-duplicate": embedding_file({4: "w0 0.5 0.5", 5: "w3 x 0.5"}),
    "crlf": embedding_file({6: "w4 0.5"}, newline="\r\n"),
    "bare-cr": embedding_file({6: "w4 0.5"}, newline="\r"),
    "blank-lines": embedding_file({3: "", 4: "", 7: "w5 0.5 0.5 0.5"}, n=7),
    "duplicate-after-a-blank-line-of-its-block": embedding_file({4: "", 5: "w0 0.5 0.5"}),
    "duplicate-in-the-block-after-a-blank-one": embedding_file({4: "", 5: "", 6: "w0 0.5 0.5"}, n=7),
    "word-count": embedding_file({1: "7 2"}),
    "non-finite": embedding_file({5: "w3 0.5 nan"}),
    "not-utf8-deep": embedding_file({_DEEP_WORDS: "w\xe9 0.5 0.5"}, n=_DEEP_WORDS).replace(b"\xc3\xa9", b"\xe9"),
    "bad-line-before-a-bad-byte-in-a-later-chunk": embedding_file(
        {3: "w1 0.5", _DEEP_WORDS: "w\xe9 0.5 0.5"}, n=_DEEP_WORDS
    ).replace(b"\xc3\xa9", b"\xe9"),
    "bad-line-two-lines-before-a-bad-byte-in-a-later-chunk": embedding_file(
        {_CHUNK_LINE - 2: "w1 0.5", _CHUNK_LINE + 2: "w\xe9 0.5 0.5"}, n=_DEEP_WORDS
    ).replace(b"\xc3\xa9", b"\xe9"),
    "bad-line-in-the-chunk-of-a-bad-byte": embedding_file({3: "w1 0.5", 5: "w\xe9 0.5 0.5"}).replace(b"\xc3\xa9", b"\xe9"),
    # headers that lie: a matrix of a trillion rows would not fit in
    # memory, and rows past the header's count are still checked
    "header-declares-a-trillion-words": embedding_file({1: "1000000000000 2"}, n=2),
    "header-declares-fewer-words-before-a-bad-line": embedding_file({1: "3 2", 7: "w5 0.5"}),
    # the header's read decodes the first 8192 bytes: a long line 2 puts
    # line 3's bad byte past them, in the first block
    "not-utf8-in-the-first-block": embedding_file(
        {2: f"w{'a' * 8100} 0.5 0.5", 3: f"w{'b' * 200}\xe9 0.5 0.5"}
    ).replace(b"\xc3\xa9", b"\xe9"),
}


@contextmanager
def recorded_pools(module, floor: int | None = None, **constants):
    """Two usable CPUs, ``module``'s ``_POOL_FLOOR`` set to ``floor`` (if
    given) and its other ``constants`` set.  Yields the list of the process
    pools started."""
    started = []

    class RecordedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", RecordedPool)
        mp.setattr(pool, "_usable_cpus", lambda: 2)
        for name, value in {"_POOL_FLOOR": floor, **constants}.items():
            if value is not None:
                mp.setattr(module, name, value)
        yield started


def traced_peak(fn) -> int:
    """Bytes ``fn()`` holds at its peak, as tracemalloc sees them."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def warm_pipe_copy() -> None:
    """Make and drop one temporary file, so that the traced peak of a later
    pipe read holds none of the one-time allocations of the process's
    first temporary file."""
    tempfile.TemporaryFile().close()
