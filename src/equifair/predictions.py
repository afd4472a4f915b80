"""Labeled prediction records and the prediction CSV interchange format.

A prediction file is UTF-8 CSV with a required header and the columns
``id,group,y_true,score,y_hat``.  ``score`` and ``y_hat`` may each be left
empty, but not both.  Ensemble feature files reuse the same layout with one
extra ``score_<modelname>`` column per constituent model.  Fields may be
quoted and lines may end in CRLF, as the csv module's default dialect
allows.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .errors import EmptyInputError, FormatError, ValidationError
from .schema import decode_error

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


# characters read per block of a prediction CSV; the block is then
# completed to a whole line
_BLOCK_CHARS = 1 << 16
_BINARY = frozenset(("0", "1"))


def _csv_tokenise(block: str, fh, width: int):
    """``_tokenise`` by csv.reader; a quoted field left open at the end of
    the block is completed from ``fh``."""
    lines = io.StringIO(block, newline="").readlines()
    reader = csv.reader(chain(lines, fh))
    records = []
    for record in reader:
        records.append(record)
        if reader.line_num >= len(lines):
            break
    kept = [r for r in records if r]
    fields = list(chain.from_iterable(kept)) if all(len(r) == width for r in kept) else None
    return len(records), fields, records


def _tokenise(block: str, fh, width: int):
    """Split a block of whole lines into records exactly as csv.reader
    would.  Returns ``(count, fields, records)``: the number of records,
    blank lines included; the fields of the non-blank records in one flat
    list, or None when one of them does not have ``width`` fields; and the
    records as field lists ([] for a blank line), built lazily, for
    locating a bad row.

    A block with a quote or a carriage return, or with a line longer than
    csv's field size limit, goes through csv.reader.  Any other block is
    split on commas as one string; its line lengths and comma counts come
    from one pass over its bytes."""
    if '"' in block or "\r" in block:
        return _csv_tokenise(block, fh, width)
    text = block.removesuffix("\n")
    data = np.frombuffer((text + "\n").encode(), dtype=np.uint8)
    ends = np.flatnonzero(data == ord("\n"))
    lengths = np.diff(ends, prepend=-1) - 1  # in bytes, so at least the length in characters
    if lengths.max() > csv.field_size_limit():
        return _csv_tokenise(block, fh, width)
    records = (line.split(",") if line else [] for line in text.split("\n"))
    filled = lengths > 0
    commas = np.diff(np.searchsorted(np.flatnonzero(data == ord(",")), ends), prepend=0)
    if not (commas[filled] == width - 1).all():
        return len(ends), None, records
    if not filled.all():
        text = "\n".join(filter(None, text.split("\n")))
    return len(ends), text.replace("\n", ",").split(",") if text else [], records


def _unit_reals(values: list[str]) -> np.ndarray | None:
    """``values`` as float64, or None if one is not a number in [0, 1].
    numpy's str -> float cast accepts and rejects the same strings as
    float(), which the row checks and the tests' oracle use."""
    try:
        x = np.array(values, dtype=np.float64)
    except ValueError:
        return None
    return x if ((x >= 0.0) & (x <= 1.0)).all() else None


def _binary(values: list[str]) -> np.ndarray | None:
    """``values`` as int8, or None if one is not "0" or "1"."""
    if not _BINARY.issuperset(values):
        return None
    return np.frombuffer("".join(values).encode(), dtype=np.int8) - ord("0")


class _Columns:
    """The columns of a prediction CSV, parsed a block at a time.

    Each block's columns are checked with whole-column operations; when a
    check fails, the block's rows are checked one by one to raise the
    message of the first bad row."""

    def __init__(self, path: Path, header: list[str], group_col: str):
        self.path, self.width = path, len(header)
        col = {name: i for i, name in enumerate(header)}
        self.at = {name: col[name] for name in (*REQUIRED_COLUMNS, group_col)}
        self.group_col = group_col
        self.extra = {name: col[name] for name in header if name.startswith("score_")}
        self.ids: list[str] = []
        self.groups: list[str] = []
        self.labels: dict[str, str] = {}  # one string object per group label
        self.parts: dict[str, list[np.ndarray]] = {c: [] for c in ("y_true", "score", "y_hat", *self.extra)}
        self.seen = {"score": False, "y_hat": False}
        self.n_rows = 0

    def add(self, fields: list[str] | None, records, lineno: int) -> None:
        """Parse one block whose first record is line ``lineno``."""
        if fields is None:
            self._raise_first_error(records, lineno)
        column = {name: fields[i :: self.width] for name, i in self.at.items()}
        parsed = {"y_true": _binary(column["y_true"])}
        ok = parsed["y_true"] is not None
        empty = {c: column[c].count("") for c in ("score", "y_hat")}
        # both columns having empty fields means a row with both empty, or
        # one emptied after it was filled
        ok &= not (empty["score"] and empty["y_hat"])
        for c, parse in (("score", _unit_reals), ("y_hat", _binary)):
            values = column[c]
            # empty fields must all precede the column's first filled one
            ok &= not empty[c] or (not self.seen[c] and "" not in values[empty[c] :])
            if empty[c] < len(values):
                parsed[c] = parse(values[empty[c] :])
                ok &= parsed[c] is not None
        for name, i in self.extra.items():
            parsed[name] = _unit_reals(fields[i :: self.width])
            ok &= parsed[name] is not None
        if not ok:
            self._raise_first_error(records, lineno)
        self.ids.extend(column["id"])
        groups = column[self.group_col]
        self.groups.extend(map(self.labels.setdefault, groups, groups))
        for c, values in parsed.items():
            self.parts[c].append(values)
        self.seen = {c: self.seen[c] or c in parsed for c in self.seen}
        self.n_rows += len(groups)

    def _raise_first_error(self, records, lineno: int):
        """Check a block's rows one by one; raises at the first bad one."""
        path, at = self.path, self.at
        score_seen, hat_seen = self.seen["score"], self.seen["y_hat"]
        for k, row in enumerate(records, start=lineno):
            if not row:
                continue
            if len(row) != self.width:
                raise FormatError(f"{path}: line {k}: expected {self.width} fields, got {len(row)}")
            _parse_binary(row[at["y_true"]], "y_true", k)
            s_raw, h_raw = row[at["score"]], row[at["y_hat"]]
            if s_raw == "" and h_raw == "":
                raise FormatError(f"{path}: line {k}: score and y_hat are both empty")
            if s_raw != "":
                score_seen = True
                _parse_score(s_raw, "score", k)
            elif score_seen:
                raise FormatError(f"{path}: line {k}: score column must be filled for all rows or none")
            if h_raw != "":
                hat_seen = True
                _parse_binary(h_raw, "y_hat", k)
            elif hat_seen:
                raise FormatError(f"{path}: line {k}: y_hat column must be filled for all rows or none")
            for name, i in self.extra.items():
                _parse_score(row[i], name, k)
        raise AssertionError("a column check failed but every row passed")

    def result(self, universe: tuple[str, ...]) -> PredictionFile:
        if not self.n_rows:
            raise EmptyInputError(f"{self.path}: no data rows")
        for c in ("score", "y_hat"):
            if self.seen[c] and sum(map(len, self.parts[c])) != self.n_rows:
                raise FormatError(f"{self.path}: {c} column must be filled for all rows or none")
        column = {c: np.concatenate(parts) for c, parts in self.parts.items() if parts}
        preds = LabeledPredictions(
            ids=tuple(self.ids),
            y_true=column["y_true"],
            groups=tuple(self.groups),
            scores=column.get("score"),
            y_hat=column.get("y_hat"),
            universe=universe,
        )
        consts = {name.removeprefix("score_"): _readonly(column[name]) for name in self.extra}
        return PredictionFile(predictions=preds, constituent_scores=consts)


def read_prediction_file(
    path: str | Path,
    group_col: str = "group",
    universe: tuple[str, ...] = (),
) -> PredictionFile:
    """Parse a prediction CSV, including any ``score_<name>`` feature columns.

    The file is read in blocks of about ``_BLOCK_CHARS`` characters and
    parsed by column; a malformed file raises the message of its first bad
    row, which names the row's line (its record number, header = 1), or
    the file offset and physical line of a byte that is not UTF-8."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise EmptyInputError(f"{path}: file is empty") from None
            missing = [c for c in (*REQUIRED_COLUMNS, group_col) if c not in header]
            if missing:
                raise FormatError(f"{path}: header is missing columns {missing}")
            repeated = sorted({c for c in header if header.count(c) > 1})
            if repeated:
                raise FormatError(f"{path}: header repeats columns {repeated}")
            columns = _Columns(path, header, group_col)
            lineno = 2
            while block := fh.read(_BLOCK_CHARS):
                count, fields, records = _tokenise(block + fh.readline(), fh, len(header))
                columns.add(fields, records, lineno)
                lineno += count
    except UnicodeDecodeError:
        raise decode_error(path) from None
    return columns.result(universe)


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
        if "\r" in "".join((*preds.universe, *preds.ids)):  # csv quotes only its line terminator's characters
            writer = csv.writer(SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n")), lineterminator="\r\n")
        writer.writerows(zip(*columns))
