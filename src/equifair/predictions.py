"""Labeled prediction records and the prediction CSV interchange format.

A prediction file is UTF-8 CSV with a required header and the columns
``id,group,y_true,score,y_hat``.  ``score`` and ``y_hat`` may each be left
empty, but not both.  Ensemble feature files reuse the same layout with one
extra ``score_<modelname>`` column per constituent model.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import EmptyInputError, FormatError, ValidationError

REQUIRED_COLUMNS = ("id", "y_true", "score", "y_hat")


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LabeledPredictions:
    """Per-sample classifier outputs with ground truth and group membership.

    Parallel arrays of equal length: opaque sample ids, binary ground
    truth, a group label per sample, and at least one of ``scores`` (reals
    in [0, 1]) or ``y_hat`` (binary).  ``universe`` is the declared set of
    admissible group labels; it defaults to the labels present.
    ``group_codes`` holds each sample's group as its index into
    ``universe``, in the narrowest unsigned dtype that fits.
    """

    ids: tuple[str, ...]
    y_true: np.ndarray
    groups: tuple[str, ...]
    scores: np.ndarray | None = None
    y_hat: np.ndarray | None = None
    universe: tuple[str, ...] = ()
    group_codes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = len(self.ids)
        if n == 0:
            raise EmptyInputError("prediction set contains no samples")
        if len(set(self.ids)) != n:
            raise ValidationError("sample ids must be unique")
        y = np.asarray(self.y_true, dtype=np.int8)
        if y.shape != (n,) or len(self.groups) != n:
            raise ValidationError("ids, y_true and groups must have equal length")
        if not np.isin(y, (0, 1)).all():
            raise ValidationError("y_true must be binary")
        object.__setattr__(self, "y_true", _readonly(y))
        if self.scores is None and self.y_hat is None:
            raise ValidationError("at least one of scores / y_hat is required")
        if self.scores is not None:
            s = np.asarray(self.scores, dtype=np.float64)
            if s.shape != (n,):
                raise ValidationError("scores length mismatch")
            if not np.isfinite(s).all() or s.min() < 0.0 or s.max() > 1.0:
                raise ValidationError("scores must be finite reals in [0, 1]")
            object.__setattr__(self, "scores", _readonly(s))
        if self.y_hat is not None:
            h = np.asarray(self.y_hat, dtype=np.int8)
            if h.shape != (n,):
                raise ValidationError("y_hat length mismatch")
            if not np.isin(h, (0, 1)).all():
                raise ValidationError("y_hat must be binary")
            object.__setattr__(self, "y_hat", _readonly(h))
        universe = tuple(self.universe) or tuple(sorted(set(self.groups)))
        index = {g: i for i, g in enumerate(universe)}
        if len(index) != len(universe):
            raise ValidationError("group universe labels must be unique")
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "groups", tuple(self.groups))
        try:
            codes = np.fromiter(
                map(index.__getitem__, self.groups), dtype=np.min_scalar_type(len(universe) - 1), count=n
            )
        except KeyError:
            unknown = set(self.groups) - set(universe)
            raise ValidationError(
                f"group labels outside the declared universe: {sorted(unknown)}"
            ) from None
        object.__setattr__(self, "group_codes", _readonly(codes))

    def __len__(self) -> int:
        return len(self.ids)

    def present_groups(self) -> tuple[str, ...]:
        """Universe members that actually occur in the data, universe order."""
        rows = np.bincount(self.group_codes, minlength=len(self.universe))
        return tuple(g for g, k in zip(self.universe, rows) if k)


@dataclass(frozen=True)
class PredictionFile:
    """A parsed prediction CSV: the core records plus any constituent-model
    ``score_<name>`` columns found in the header."""

    predictions: LabeledPredictions
    constituent_scores: dict[str, np.ndarray] = field(default_factory=dict)

    def feature_matrix(self) -> np.ndarray:
        """Constituent scores stacked as a (n, k) matrix, header order."""
        if not self.constituent_scores:
            raise ValidationError("file has no score_<name> constituent columns")
        return np.column_stack([self.constituent_scores[n] for n in self.constituent_scores])


def _parse_binary(value: str, column: str, line: int) -> int:
    if value in ("0", "1"):
        return int(value)
    raise FormatError(f"line {line}: column {column!r} must be 0 or 1, got {value!r}")


def _parse_score(value: str, column: str, line: int) -> float:
    try:
        x = float(value)
    except ValueError:
        raise FormatError(f"line {line}: column {column!r} is not a number: {value!r}") from None
    if not 0.0 <= x <= 1.0:
        raise FormatError(f"line {line}: column {column!r} must lie in [0, 1], got {value!r}")
    return x


def read_prediction_file(
    path: str | Path,
    group_col: str = "group",
    universe: tuple[str, ...] = (),
) -> PredictionFile:
    """Parse a prediction CSV, including any ``score_<name>`` feature columns."""
    path = Path(path)
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyInputError(f"{path}: file is empty") from None
        missing = [c for c in (*REQUIRED_COLUMNS, group_col) if c not in header]
        if missing:
            raise FormatError(f"{path}: header is missing columns {missing}")
        col = {name: i for i, name in enumerate(header)}
        extra = [name for name in header if name.startswith("score_")]

        ids: list[str] = []
        groups: list[str] = []
        y_true: list[int] = []
        scores: list[float] = []
        y_hat: list[int] = []
        features: dict[str, list[float]] = {name: [] for name in extra}
        score_seen = hat_seen = False
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise FormatError(f"{path}: line {lineno}: expected {len(header)} fields, got {len(row)}")
            ids.append(row[col["id"]])
            groups.append(row[col[group_col]])
            y_true.append(_parse_binary(row[col["y_true"]], "y_true", lineno))
            s_raw, h_raw = row[col["score"]], row[col["y_hat"]]
            if s_raw == "" and h_raw == "":
                raise FormatError(f"{path}: line {lineno}: score and y_hat are both empty")
            if s_raw != "":
                score_seen = True
                scores.append(_parse_score(s_raw, "score", lineno))
            elif score_seen:
                raise FormatError(f"{path}: line {lineno}: score column must be filled for all rows or none")
            if h_raw != "":
                hat_seen = True
                y_hat.append(_parse_binary(h_raw, "y_hat", lineno))
            elif hat_seen:
                raise FormatError(f"{path}: line {lineno}: y_hat column must be filled for all rows or none")
            for name in extra:
                features[name].append(_parse_score(row[col[name]], name, lineno))
        if not ids:
            raise EmptyInputError(f"{path}: no data rows")
        if score_seen and len(scores) != len(ids):
            raise FormatError(f"{path}: score column must be filled for all rows or none")
        if hat_seen and len(y_hat) != len(ids):
            raise FormatError(f"{path}: y_hat column must be filled for all rows or none")

    preds = LabeledPredictions(
        ids=tuple(ids),
        y_true=np.array(y_true, dtype=np.int8),
        groups=tuple(groups),
        scores=np.array(scores) if score_seen else None,
        y_hat=np.array(y_hat, dtype=np.int8) if hat_seen else None,
        universe=universe,
    )
    consts = {
        name.removeprefix("score_"): _readonly(np.array(vals, dtype=np.float64))
        for name, vals in features.items()
    }
    return PredictionFile(predictions=preds, constituent_scores=consts)


def read_predictions(path: str | Path, group_col: str = "group", universe: tuple[str, ...] = ()) -> LabeledPredictions:
    return read_prediction_file(path, group_col=group_col, universe=universe).predictions


def write_predictions(
    preds: LabeledPredictions,
    path: str | Path,
    constituent_scores: dict[str, np.ndarray] | None = None,
) -> None:
    """Write predictions as CSV, deterministically, row by row."""
    consts = constituent_scores or {}
    columns = (
        preds.ids,
        preds.groups,
        map(str, preds.y_true.tolist()),
        map(repr, preds.scores.tolist()) if preds.scores is not None else repeat(""),
        map(str, preds.y_hat.tolist()) if preds.y_hat is not None else repeat(""),
        *(map(repr, np.asarray(v, dtype=np.float64).tolist()) for v in consts.values()),
    )
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "group", "y_true", "score", "y_hat", *(f"score_{n}" for n in consts)])
        writer.writerows(zip(*columns))
