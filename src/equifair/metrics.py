"""Group-conditional classification metrics and fairness reports.

Rates are computed from exact integer counts.  A group with no positives
(or no negatives) has the corresponding rate flagged as undefined rather
than propagated as NaN, and undefined rates are excluded from gap ranges.

AUC ROC is the trapezoid area under the ROC curve with tied scores grouped,
which equals the rank statistic: ties between a positive and a negative
score contribute one half.  AUC PRC is the step-wise
average-precision sum over distinct score thresholds (no linear
interpolation between operating points).

A score column is sorted once, however many groups or labels it holds: a
stable sort of their integer codes in that order gives each one its rows
in descending-score order, from which its areas and curve are counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .errors import ValidationError
from .predictions import LabeledPredictions, as_binary


@dataclass(frozen=True)
class GroupRateEntry:
    """Confusion rates for one group; a rate is None when its denominator
    (positives for tpr/fnr, negatives for tnr/fpr) is zero."""

    tpr: float | None
    tnr: float | None
    fpr: float | None
    fnr: float | None
    n_pos: int
    n_neg: int


def confusion_rates(preds: LabeledPredictions) -> dict[str, GroupRateEntry]:
    """Exact per-group tpr/tnr/fpr/fnr from hard predictions, keyed by
    group label in universe order.

    Requires ``y_hat``.  Groups from the declared universe with no samples
    appear with zero counts and all rates undefined.
    """
    if preds.y_hat is None:
        raise ValidationError("confusion_rates requires hard predictions (y_hat)")
    cells = preds.group_codes.astype(np.intp) * 4 + 2 * preds.y_true  # one (group, y_true, y_hat) cell a sample
    cells += preds.y_hat
    counts = np.bincount(cells, minlength=4 * len(preds.universe)).reshape(-1, 2, 2).tolist()
    out: dict[str, GroupRateEntry] = {}
    for g, ((tn, fp), (fn, tp)) in zip(preds.universe, counts):
        n_pos, n_neg = tp + fn, tn + fp
        out[g] = GroupRateEntry(
            tpr=tp / n_pos if n_pos else None,
            tnr=tn / n_neg if n_neg else None,
            fpr=fp / n_neg if n_neg else None,
            fnr=fn / n_pos if n_pos else None,
            n_pos=n_pos,
            n_neg=n_neg,
        )
    return out


def gap_ranges(rates: Mapping[str, GroupRateEntry]) -> tuple[float | None, float | None]:
    """Max-minus-min of tpr and tnr over groups where each is defined.

    A component with a single defined group yields 0.0; a component with no
    defined group yields None.  Raises if neither rate is defined anywhere.
    """
    tprs = [e.tpr for e in rates.values() if e.tpr is not None]
    tnrs = [e.tnr for e in rates.values() if e.tnr is not None]
    if not tprs and not tnrs:
        raise ValidationError("no group has a defined rate")
    tpr_range = (max(tprs) - min(tprs)) if tprs else None
    tnr_range = (max(tnrs) - min(tnrs)) if tnrs else None
    return tpr_range, tnr_range


def _check_binary_scores(scores, y_true) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = as_binary(y_true, "labels").ravel()
    if s.shape != y.shape:
        raise ValidationError("scores and labels must have equal length")
    if s.size == 0:
        raise ValidationError("empty input")
    if not np.isfinite(s).all():
        raise ValidationError("scores must be finite")
    return s, y, _descending(s)


def _descending(s: np.ndarray) -> np.ndarray:
    return np.argsort(-s, kind="stable")  # ties in row order


def _threshold_counts(s: np.ndarray, y: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each distinct score of ``rows``, given in descending-score order, as
    a threshold, with the cumulative true and false positives of predicting
    positive at or above it."""
    s, y = s[rows], y[rows]
    # last index of each distinct-score block = the point traced at that threshold
    block_end = np.nonzero(np.append(s[1:] != s[:-1], True))[0]
    tp = np.cumsum(y == 1)[block_end]
    return s[block_end], tp, block_end + 1 - tp


def _counts_by_code(s: np.ndarray, y: np.ndarray, order: np.ndarray, codes: np.ndarray) -> Iterator[tuple[int, tuple]]:
    """(code, ``_threshold_counts``) of each code with rows, ``codes`` one a
    row: a stable sort of the codes in the descending-score ``order`` (radix,
    for 8- and 16-bit codes) keeps each code's rows in that order.  Lazily,
    so a caller need hold one code's counts at a time."""
    by_code = np.split(order[np.argsort(codes[order], kind="stable")], np.cumsum(np.bincount(codes))[:-1])
    return ((code, _threshold_counts(s, y, rows)) for code, rows in enumerate(by_code) if len(rows))


def auc_roc(scores, y_true) -> float:
    """Area under the ROC curve: the trapezoid over the operating points
    of the distinct thresholds, so tied scores form one diagonal segment.

    Equals the rank statistic, P(score of a random positive > score of a
    random negative) plus half the tie probability.  Computed as the
    integer 2U over 2 * n_pos * n_neg, so the result is correctly rounded.
    Requires both classes; refuses labels other than 0 and 1 and scores
    that are not finite (they need not lie in [0, 1])."""
    _, tp, fp = _threshold_counts(*_check_binary_scores(scores, y_true))
    return _trapezoid_auc(tp, fp)


def _trapezoid_auc(tp: np.ndarray, fp: np.ndarray) -> float:
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("auc_roc requires both classes present")
    two_u = int(np.dot(np.diff(fp, prepend=0), tp + np.append(0, tp[:-1])))
    return two_u / (2 * n_pos * n_neg)


def auc_prc(scores, y_true) -> float:
    """Area under the precision-recall curve, step-wise rule.

    Traces one operating point per distinct score threshold (descending)
    and sums precision times recall increment.  Requires >= 1 positive;
    refuses what ``auc_roc`` refuses."""
    _, tp, fp = _threshold_counts(*_check_binary_scores(scores, y_true))
    return _step_prc(tp, fp)


def _step_prc(tp: np.ndarray, fp: np.ndarray) -> float:
    n_pos = int(tp[-1])
    if n_pos == 0:
        raise ValidationError("auc_prc requires at least one positive")
    precision = tp / (tp + fp)
    recall = tp / n_pos
    return float(np.sum(precision * np.diff(recall, prepend=0.0)))


@dataclass(frozen=True)
class RocCurve:
    """Empirical ROC operating points, ordered by descending threshold.

    One point per distinct score threshold, preceded by (0, 0) at
    threshold +inf; the final point is always (1, 1).
    """

    fpr: np.ndarray
    tpr: np.ndarray
    thresholds: np.ndarray


def roc_curve(scores, y_true) -> RocCurve:
    """Exact empirical ROC operating points with their thresholds; refuses
    what ``auc_roc`` refuses."""
    return _roc(*_threshold_counts(*_check_binary_scores(scores, y_true)))


def _roc(thresholds: np.ndarray, tp: np.ndarray, fp: np.ndarray) -> RocCurve:
    n_pos, n_neg = int(tp[-1]), int(fp[-1])
    if n_pos == 0 or n_neg == 0:
        raise ValidationError("roc_curve requires both classes present")
    return RocCurve(
        fpr=np.concatenate(([0.0], fp / n_neg)),
        tpr=np.concatenate(([0.0], tp / n_pos)),
        thresholds=np.concatenate(([np.inf], thresholds)),
    )


@dataclass(frozen=True)
class MultilabelAucResult:
    macro: float
    micro: float
    per_label: tuple[float | None, ...]
    excluded_labels: tuple[int, ...]
    warnings: tuple[str, ...] = ()


def multilabel_auc(scores, y_true) -> MultilabelAucResult:
    """Macro (unweighted per-label mean) and micro (flattened-pair) AUC ROC
    from one sort of the flattened matrix.

    Label columns with a single class are excluded from the macro average
    and reported in ``excluded_labels`` with a warning record.  Refuses a
    label other than 0 and 1 in any column, then a matrix whose every
    column has a single class, then a score that is not finite."""
    s = np.asarray(scores, dtype=np.float64)
    y = as_binary(y_true, "labels")
    if s.ndim != 2 or s.shape != y.shape:
        raise ValidationError("scores and labels must be matrices of equal shape")
    n_labels = s.shape[1]
    if n_labels < 2:
        raise ValidationError("multilabel_auc requires at least 2 labels")
    if not len(s):
        raise ValidationError("empty input")
    two_class = (y.min(axis=0) != y.max(axis=0)).tolist()
    if not any(two_class):
        raise ValidationError("every label column has a single class")
    s, y, order = _check_binary_scores(s, y)  # flattened row by row: element k is label k % n_labels
    _, tp, fp = _threshold_counts(s, y, order)
    micro = _trapezoid_auc(tp, fp)
    by_label = _counts_by_code(s, y, order, (np.arange(s.size) % n_labels).astype(np.min_scalar_type(n_labels - 1)))
    per_label = [_trapezoid_auc(tp, fp) if two else None for two, (_, (_, tp, fp)) in zip(two_class, by_label)]
    excluded = [j for j, two in enumerate(two_class) if not two]
    return MultilabelAucResult(
        macro=float(np.mean([v for v in per_label if v is not None])),
        micro=micro,
        per_label=tuple(per_label),
        excluded_labels=tuple(excluded),
        warnings=tuple(f"label {j} has a single class; excluded from macro AUC" for j in excluded),
    )


@dataclass(frozen=True)
class FairnessReport:
    """Audit summary for one prediction set; ``schema.dumps`` writes its JSON form."""

    group_rates: Mapping[str, GroupRateEntry] | None
    tpr_range: float | None
    tnr_range: float | None
    auc_roc_overall: float | None
    auc_prc_overall: float | None
    auc_roc_per_group: dict[str, float | None]
    metadata: dict = field(default_factory=dict)


def build_report(
    preds: LabeledPredictions,
    task: str = "",
    seed: int | None = None,
    extra_metadata: Mapping | None = None,
) -> FairnessReport:
    """Assemble a fairness report from the metric operations above.

    Group rates are computed from ``y_hat`` when present, and the
    metadata's ``timestamp`` is always null.  Score-based metrics are
    filled when scores are present, all from one sort of the scores;
    per-group AUCs that are undefined (single-class group) are reported
    as null with a warning.
    """
    warnings: list[str] = []
    rates = confusion_rates(preds) if preds.y_hat is not None else None
    tpr_range = tnr_range = None
    if rates is not None:
        tpr_range, tnr_range = gap_ranges(rates)
    auc_overall = prc_overall = None
    per_group: dict[str, float | None] = {}
    if preds.scores is not None:
        order = _descending(preds.scores)  # the column's one sort, for both overall areas and every group's AUC
        _, tp, fp = _threshold_counts(preds.scores, preds.y_true, order)
        auc_overall = _trapezoid_auc(tp, fp)
        prc_overall = _step_prc(tp, fp)
        for code, (_, tp, fp) in _counts_by_code(preds.scores, preds.y_true, order, preds.group_codes):
            g = preds.universe[code]
            try:
                per_group[g] = _trapezoid_auc(tp, fp)
            except ValidationError:
                per_group[g] = None
                warnings.append(f"group {g!r} has a single class; per-group AUC undefined")
    metadata = {
        "task": task,
        "seed": seed,
        "timestamp": None,
        "n_samples": len(preds),
        "overall_auc_averaging": "micro",
        "warnings": warnings,
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return FairnessReport(
        group_rates=rates,
        tpr_range=tpr_range,
        tnr_range=tnr_range,
        auc_roc_overall=auc_overall,
        auc_prc_overall=prc_overall,
        auc_roc_per_group=per_group,
        metadata=metadata,
    )
