"""Labeled prediction records and the prediction CSV interchange format.

A prediction file is UTF-8 CSV with a required header and the columns
``id,group,y_true,score,y_hat``.  ``score`` and ``y_hat`` may each be left
empty, but not both.  Ensemble feature files reuse the same layout with one
extra ``score_<modelname>`` column per constituent model.  Fields may be
quoted and lines may end in CRLF, as the csv module's default dialect
allows.
"""

from __future__ import annotations

import copy
import csv
import io
import os
import re
import stat
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.dtypes import StringDType

from .errors import EmptyInputError, FormatError, ValidationError, name_groups
from .floatrepr import float_reprs
from .pool import _pooled, _process_pool
from .schema import decode_error

REQUIRED_COLUMNS = ("id", "y_true", "score", "y_hat")


def readonly(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only in place.  Makers of fresh arrays freeze
    them before handing them to a set, which then need not copy them."""
    a.setflags(write=False)
    return a


def _owned(a: np.ndarray, given) -> np.ndarray:
    """``a``, made from a caller's ``given``, read-only: a copy if it is
    ``given`` or a view, unless it is read-only all the way down (no array
    in its chain of bases is writeable, and the chain ends in memory of its
    own or in bytes), so writing to the caller's arrays changes no set."""
    b = a
    while isinstance(b, np.ndarray) and not b.flags.writeable:
        b = b.base
    if (a is given or a.base is not None) and not (b is None or isinstance(b, bytes)):
        a = a.copy()
    return readonly(a)


def as_binary(values, name: str) -> np.ndarray:
    """The binary rule: ``values`` as int8, checked to be 0 or 1 before the
    cast (which makes 0.5 a 0 and 257 a 1).  An int8 array is not copied."""
    x = np.asarray(values)
    if not ((x == 0) | (x == 1)).all():
        raise ValidationError(f"{name} must be binary")
    return x.astype(np.int8, copy=False)


def as_probabilities(values, name: str) -> np.ndarray:
    """The probability rule: ``values`` as float64, checked to be finite
    reals in [0, 1]; NaN fails both bounds.  A float64 array is not copied."""
    x = np.asarray(values, dtype=np.float64)
    if not ((x >= 0.0) & (x <= 1.0)).all():
        raise ValidationError(f"{name} must be finite reals in [0, 1]")
    return x


def _column(rule, values, n: int, name: str) -> np.ndarray:
    """``values`` by ``rule``, checked to be ``n`` long."""
    x = rule(values, name)
    if x.shape != (n,):
        raise ValidationError(f"{name} length mismatch")
    return x


def _outputs(n: int, scores, y_hat) -> tuple[np.ndarray | None, np.ndarray | None]:
    """``scores`` and ``y_hat`` of an ``n``-row set, checked and owned."""
    if scores is None and y_hat is None:
        raise ValidationError("at least one of scores / y_hat is required")
    if scores is not None:
        scores = _owned(_column(as_probabilities, scores, n, "scores"), scores)
    if y_hat is not None:
        y_hat = _owned(_column(as_binary, y_hat, n, "y_hat"), y_hat)
    return scores, y_hat


def _hashes(ids: list[str]) -> np.ndarray:
    return np.fromiter(map(hash, ids), dtype=np.int64, count=len(ids))


_HASH_ROWS = 1 << 12  # ids of a given column turned back into strs at a time


def _require_unique(column: np.ndarray, hashes: np.ndarray | None = None) -> None:
    """Raise unless the ids of ``column`` are distinct.  ``hashes`` are
    their ``hash()`` values, taken where the strs exist, else from the
    column a chunk at a time.  Distinct hashes prove distinct ids; only
    ids whose hashes tie are compared."""
    if hashes is None:
        hashes = np.concatenate([_hashes(column[i : i + _HASH_ROWS].tolist()) for i in range(0, len(column), _HASH_ROWS)])
    ordered = np.sort(hashes)
    ids = column[np.isin(hashes, ordered[1:][ordered[1:] == ordered[:-1]])].tolist()
    if len(set(ids)) != len(ids):
        raise ValidationError("sample ids must be unique")


def as_id_column(ids) -> np.ndarray:
    """``ids`` as a StringDType column, without a copy if it is one."""
    if isinstance(ids, np.ndarray) and isinstance(ids.dtype, StringDType):
        return ids
    try:
        return np.array(ids, dtype=StringDType())
    except UnicodeEncodeError:
        raise ValidationError("sample ids must be encodable as UTF-8") from None


def _intern(labels: dict[str, int], groups: list[str]) -> np.ndarray:
    """Each label's code in ``labels``, where a new label gets the next code."""
    for g in set(groups).difference(labels):
        labels[g] = len(labels)
    return np.fromiter(map(labels.__getitem__, groups), dtype=np.uint32, count=len(groups))


def _recode(labels: dict[str, int], codes: np.ndarray, universe: tuple[str, ...]) -> tuple[tuple[str, ...], np.ndarray]:
    """Codes into ``labels``, all of which occur, as read-only codes into
    the declared ``universe``, or else into the labels sorted."""
    universe = tuple(universe) or tuple(sorted(labels))
    index = {g: i for i, g in enumerate(universe)}
    if unknown := labels.keys() - index.keys():
        raise ValidationError(f"group labels outside the declared universe: {name_groups(sorted(unknown))}")
    return universe, readonly(np.array([index[g] for g in labels], dtype=np.min_scalar_type(len(universe) - 1))[codes])


@dataclass(frozen=True, init=False)
class LabeledPredictions:
    """Per-sample classifier outputs with ground truth and group membership.

    Parallel arrays of equal length: opaque sample ids, binary ground
    truth, a group per sample, and at least one of ``scores`` (reals in
    [0, 1]) or ``y_hat`` (binary).  ``universe`` is the declared set of
    admissible group labels; it defaults to the labels present.  Ids are
    given as strs (``ids``) or as one StringDType array (``id_column``),
    and stored only as ``id_column``; ``ids`` reads them back as a tuple.
    Groups are given as labels (``groups``) or as indices into
    ``universe`` (``group_codes``), and stored only as ``group_codes``, in
    the narrowest unsigned dtype that fits; ``groups`` reads the labels
    back.  Ids and labels must be encodable as UTF-8.  The set's arrays
    are read-only, and an array its caller passed is copied unless it is
    read-only all the way down.
    """

    id_column: np.ndarray
    y_true: np.ndarray
    group_codes: np.ndarray = field(repr=False)
    universe: tuple[str, ...]
    scores: np.ndarray | None = None
    y_hat: np.ndarray | None = None

    def __init__(self, ids=None, y_true=None, groups=None, scores=None, y_hat=None, universe=(), *,
                 group_codes=None, id_column=None, _id_hashes=None):  # the reader passes the hash() of each id it read
        if (ids is None) == (id_column is None):
            raise ValidationError("exactly one of ids / id_column is required")
        if ids is not None:
            ids = tuple(ids)
            if not all(isinstance(i, str) for i in ids):
                raise ValidationError("sample ids must be strings")
            _id_hashes = _hashes(ids)
        column = readonly(as_id_column(ids)) if id_column is None else _owned(as_id_column(id_column), id_column)
        n = len(column)
        if n == 0:
            raise EmptyInputError("prediction set contains no samples")
        if column.ndim != 1:
            raise ValidationError("ids, y_true and groups must have equal length")
        _require_unique(column, _id_hashes)
        if (groups is None) == (group_codes is None):
            raise ValidationError("exactly one of groups / group_codes is required")
        y = _owned(as_binary(y_true, "y_true"), y_true)
        if y.shape != (n,) or (groups is not None and len(groups) != n):
            raise ValidationError("ids, y_true and groups must have equal length")
        scores, y_hat = _outputs(n, scores, y_hat)
        if groups is not None:
            labels: dict[str, int] = {}
            universe, group_codes = _recode(labels, _intern(labels, groups), universe)
        universe, codes = tuple(universe), np.asarray(group_codes)
        if len(set(universe)) != len(universe):
            raise ValidationError("group universe labels must be unique")
        try:
            "".join(universe).encode()
        except UnicodeEncodeError:
            raise ValidationError("group labels must be encodable as UTF-8") from None
        if codes.shape != (n,) or codes.dtype.kind not in "iu" or codes.min() < 0 or codes.max() >= len(universe):
            raise ValidationError(f"group codes must be {n} integers indexing the universe")
        codes = _owned(codes.astype(np.min_scalar_type(len(universe) - 1), copy=False), group_codes)
        self.__dict__.update(id_column=column, y_true=y, group_codes=codes, universe=universe, scores=scores, y_hat=y_hat)

    def __len__(self) -> int:
        return len(self.id_column)

    @property
    def ids(self) -> tuple[str, ...]:
        """Each sample's id, read from ``id_column``."""
        return tuple(self.id_column.tolist())

    @property
    def groups(self) -> tuple[str, ...]:
        """Each sample's group label, read from ``group_codes``."""
        return tuple(np.array(self.universe, dtype=object)[self.group_codes].tolist())

    def with_outputs(self, scores=None, y_hat=None) -> LabeledPredictions:
        """This set with ``scores`` and ``y_hat`` replaced (None leaves a
        column out).  Only the new columns are checked; the ids, ground
        truth and group codes, already checked and read-only, are shared."""
        out = copy.copy(self)
        out.__dict__.update(zip(("scores", "y_hat"), _outputs(len(self), scores, y_hat)))
        return out

    def present_groups(self) -> tuple[str, ...]:
        """Universe members that actually occur in the data, universe order."""
        rows = np.bincount(self.group_codes, minlength=len(self.universe))
        return tuple(g for g, k in zip(self.universe, rows) if k)


class PredictionFile(NamedTuple):
    """A parsed prediction CSV: the core records plus any constituent-model
    ``score_<name>`` columns found in the header."""

    predictions: LabeledPredictions
    constituent_scores: dict[str, np.ndarray]


def _parse_binary(value: str, column: str, where: str) -> int:
    """``value`` as 0 or 1; ``where`` (``<path>: line <k>``) begins the error."""
    if value in ("0", "1"):
        return int(value)
    raise FormatError(f"{where}: column {column!r} must be 0 or 1, got {value!r}")


def _parse_score(value: str, column: str, where: str) -> float:
    """``value`` as a real in [0, 1]; ``where`` begins the error."""
    try:
        x = float(value)
    except ValueError:
        raise FormatError(f"{where}: column {column!r} is not a number: {value!r}") from None
    if not 0.0 <= x <= 1.0:
        raise FormatError(f"{where}: column {column!r} must lie in [0, 1], got {value!r}")
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
    # the lines are split only if a bad row must be located
    records = (line.split(",") if line else [] for whole in (text,) for line in whole.split("\n"))
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
    with suppress(ValueError, ValidationError):
        return as_probabilities(values, "score")


def _binary(values: list[str]) -> np.ndarray | None:
    """``values`` as int8, or None if one is not "0" or "1"."""
    if not _BINARY.issuperset(values):
        return None
    return np.frombuffer("".join(values).encode(), dtype=np.int8) - ord("0")


class _Columns:
    """The columns of a prediction CSV, parsed a block at a time into columns
    of ``capacity`` rows, which grow as ``load_embeddings`` grows its rows.

    Each block's columns are checked with whole-column operations; when a
    check fails, the block's rows are checked one by one to raise the
    message of the first bad row."""

    def __init__(self, path: Path, header: list[str], group_col: str, capacity: int):
        self.path, self.width = path, len(header)
        col = {name: i for i, name in enumerate(header)}
        self.at = {name: col[name] for name in (*REQUIRED_COLUMNS, group_col)}
        self.group_col = group_col
        self.extra = {name: col[name] for name in header if name.startswith("score_")}
        self.labels: dict[str, int] = {}  # group label -> code
        self.capacity = capacity
        self.columns: dict[str, np.ndarray] = {}  # each allocated at its first values
        self.unfilled: set[str] = set()  # score / y_hat, if a field was empty
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
            ok &= not empty[c] or (c not in self.columns and "" not in values[empty[c] :])
            if empty[c] < len(values):
                parsed[c] = parse(values[empty[c] :])
                ok &= parsed[c] is not None
        for name, i in self.extra.items():
            parsed[name] = _unit_reals(fields[i :: self.width])
            ok &= parsed[name] is not None
        if not ok:
            self._raise_first_error(records, lineno)
        ids, groups = column["id"], column[self.group_col]
        parsed.update(id=np.array(ids, dtype=StringDType()), hash=_hashes(ids), code=_intern(self.labels, groups))
        self.n_rows += len(groups)
        if self.n_rows > self.capacity:
            self.capacity = 2 * self.n_rows
            for c, a in self.columns.items():  # each old column freed as its successor is made
                self.columns[c] = np.concatenate((a, np.empty(self.capacity - len(a), a.dtype)))
        for c, values in parsed.items():
            if c not in self.columns:
                self.columns[c] = np.empty(self.capacity, values.dtype)
            self.columns[c][self.n_rows - len(values) : self.n_rows] = values
        self.unfilled.update(c for c, k in empty.items() if k)

    def _raise_first_error(self, records, lineno: int):
        """Check a block's rows one by one; raises at the first bad one."""
        at = self.at
        score_seen, hat_seen = "score" in self.columns, "y_hat" in self.columns
        for k, row in enumerate(records, start=lineno):
            if not row:
                continue
            where = f"{self.path}: line {k}"
            if len(row) != self.width:
                raise FormatError(f"{where}: expected {self.width} fields, got {len(row)}")
            _parse_binary(row[at["y_true"]], "y_true", where)
            s_raw, h_raw = row[at["score"]], row[at["y_hat"]]
            if s_raw == "" and h_raw == "":
                raise FormatError(f"{where}: score and y_hat are both empty")
            if s_raw != "":
                score_seen = True
                _parse_score(s_raw, "score", where)
            elif score_seen:
                raise FormatError(f"{where}: score column must be filled for all rows or none")
            if h_raw != "":
                hat_seen = True
                _parse_binary(h_raw, "y_hat", where)
            elif hat_seen:
                raise FormatError(f"{where}: y_hat column must be filled for all rows or none")
            for name, i in self.extra.items():
                _parse_score(row[i], name, where)
        raise AssertionError("a column check failed but every row passed")

    def result(self, universe: tuple[str, ...]) -> PredictionFile:
        if not self.n_rows:
            raise EmptyInputError(f"{self.path}: no data rows")
        if late := self.unfilled & self.columns.keys():  # at most one: rows leaving it empty fill the other
            raise FormatError(f"{self.path}: {late.pop()} column must be filled for all rows or none")
        column, self.columns = self.columns, {}  # each shared, not copied, unless a pipe's doubling left over 1/8 spare
        for c, a in column.items():
            column[c] = readonly(a[: self.n_rows].copy()) if 8 * self.capacity > 9 * self.n_rows else readonly(a)[: self.n_rows]
        universe, codes = _recode(self.labels, column["code"], universe)
        preds = LabeledPredictions(
            id_column=column["id"],
            _id_hashes=column["hash"],
            y_true=column["y_true"],
            scores=column.get("score"),
            y_hat=column.get("y_hat"),
            universe=universe,
            group_codes=codes,
        )
        consts = {name.removeprefix("score_"): column[name] for name in self.extra}
        return PredictionFile(predictions=preds, constituent_scores=consts)


def _line_feeds(fh) -> int:
    """The line feeds in the regular file ``fh`` reads, counted through one
    reused buffer and its read position kept; 0 for a pipe, read only once."""
    raw = fh.buffer.raw
    if not stat.S_ISREG(os.fstat(raw.fileno()).st_mode):
        return 0
    at, count, buf = raw.tell(), 0, bytearray(_BLOCK_CHARS)
    raw.seek(0)
    while k := raw.readinto(buf):
        count += buf.count(b"\n", 0, k)
    raw.seek(at)
    return count


@contextmanager
def _opened(path: Path, group_col: str):
    """A prediction CSV open after its header, as ``(file, header)``; the
    header must name each required column and ``group_col``, and no
    column twice.  A byte that is not UTF-8 raises ``decode_error``."""
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
            yield fh, header
    except UnicodeDecodeError:
        raise decode_error(path) from None


def read_prediction_header(path: str | Path, group_col: str = "group") -> list[str]:
    """The checked header of a prediction CSV, read without its rows."""
    with _opened(Path(path), group_col) as (_, header):
        return header


def read_prediction_file(
    path: str | Path,
    group_col: str = "group",
    universe: tuple[str, ...] = (),
) -> PredictionFile:
    """Parse a prediction CSV, including any ``score_<name>`` feature columns.

    The file is read in blocks of about ``_BLOCK_CHARS`` characters and
    parsed into columns sized by a count of its line feeds, grown when that
    falls short.  A malformed file raises the error of its first bad row,
    naming its line (record number, header = 1), unless reading up to its
    block met a byte that is not UTF-8: that error names the byte's offset."""
    path = Path(path)
    with _opened(path, group_col) as (fh, header):
        columns = _Columns(path, header, group_col, _line_feeds(fh))
        lineno = 2
        while block := fh.read(_BLOCK_CHARS):
            count, fields, records = _tokenise(block + fh.readline(), fh, len(header))
            columns.add(fields, records, lineno)
            lineno += count
    return columns.result(universe)


def read_predictions(path: str | Path, group_col: str = "group", universe: tuple[str, ...] = ()) -> LabeledPredictions:
    return read_prediction_file(path, group_col=group_col, universe=universe).predictions


# rows of a prediction CSV formatted and written at a time
_WRITE_ROWS = 1 << 13
# real values (rows x real columns) from which the rows are formatted on a
# process pool (see ``pool``); below it, starting the workers costs more
_POOL_FLOOR = 1 << 17
# characters that make csv.writer quote a field; it quotes a carriage
# return only under a terminator that holds one, and these files quote it
_NEEDS_QUOTES = re.compile('[,"\n\r]')
_BITS = np.array(("0", "1"), dtype=object)


def _csv_fields(values: list[str]) -> list[str]:
    """``values`` as csv.writer writes fields, with minimal quoting."""
    if not _NEEDS_QUOTES.search("".join(values)):
        return values
    return ['"' + v.replace('"', '""') + '"' if _NEEDS_QUOTES.search(v) else v for v in values]


def _format_rows(ids, labels, codes, y_true, scores, y_hat, consts) -> str:
    """The CSV lines of a block of rows, each ending in a newline."""
    columns = (
        _csv_fields(ids),
        labels[codes].tolist(),
        _BITS[y_true].tolist(),
        repeat("") if scores is None else float_reprs(scores),
        repeat("") if y_hat is None else _BITS[y_hat].tolist(),
        *map(float_reprs, consts),
    )
    return "\n".join(map(",".join, zip(*columns))) + "\n"


def write_predictions(
    preds: LabeledPredictions,
    path: str | Path,
    constituent_scores: dict[str, np.ndarray] | None = None,
) -> None:
    """Write predictions as CSV, ``_WRITE_ROWS`` rows at a time, each real
    as ``repr`` writes it.  From ``_POOL_FLOOR`` real values on, the
    blocks are formatted on one worker process per usable CPU, with the same
    bytes.  A constituent column that does not hold one finite real in [0, 1]
    per row raises ValidationError naming it, before anything is written."""
    n = len(preds)
    consts = {name: _column(as_probabilities, v, n, f"column 'score_{name}'") for name, v in (constituent_scores or {}).items()}
    labels = np.array(_csv_fields(list(preds.universe)), dtype=object)
    header = ",".join(_csv_fields(["id", "group", "y_true", "score", "y_hat", *(f"score_{c}" for c in consts)])) + "\n"
    try:
        header.encode()
    except UnicodeEncodeError:
        raise ValidationError("constituent names must be encodable as UTF-8") from None
    # a block's ids go as a list, which pickles faster than a StringDType slice
    jobs = (
        (preds.id_column[rows].tolist(), labels, preds.group_codes[rows], preds.y_true[rows],
         None if preds.scores is None else preds.scores[rows], None if preds.y_hat is None else preds.y_hat[rows],
         [values[rows] for values in consts.values()])
        for rows in (slice(lo, lo + _WRITE_ROWS) for lo in range(0, n, _WRITE_ROWS))
    )
    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        fh.write(header)
        with _process_pool(n * ((preds.scores is not None) + len(consts)), _POOL_FLOOR) as executor:
            for _, text in _pooled(executor, _format_rows, jobs):
                fh.write(text)
