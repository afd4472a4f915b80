"""The JSON format of every artifact and input, in both directions.

``dumps`` writes strict JSON: sorted keys, two-space indent, non-ASCII
escaped as ``\\uXXXX``, a dataclass as ``dataclasses.asdict`` and no NaN
or Infinity.  ``read`` parses a file as strict JSON.  ``load`` builds a
value of a type hint, usually a dataclass, from the parsed document: a
dataclass is an object keyed by its field names, fields with defaults may
be omitted, and numbers must be finite.  A malformed file or a missing,
unknown or ill-typed field is a FormatError naming the file or the field's
path, e.g. ``derived predictor: field groups.A.p0 must be a number, got
'x'``.  Value constraints (ranges, sums) stay with the dataclasses
(ValidationError).

``open_input`` opens every input, JSON or not, as a regular file: a pipe
is read from a copy of its bytes, so a reader can size, seek and reread it.
"""

from __future__ import annotations

import io
import json
import os
import reprlib
import shutil
import stat
import sys
import tempfile
from collections.abc import Iterable, Mapping
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields, is_dataclass
from pathlib import Path
from typing import BinaryIO, Literal, get_args, get_origin, get_type_hints

import numpy as np

from .errors import FormatError, ValidationError


_copies: dict[str, str] = {}  # each piped input of the running command -> the file holding its bytes


@contextmanager
def copied_inputs(paths: Iterable[str]):
    """Until the block ends, ``open_input`` reads each of ``paths`` that is
    no regular file (stdin, ``<(...)``, a FIFO) from one copy of its bytes,
    made here in a file under ``TMPDIR`` that is removed on leaving.  A path
    that cannot be opened is skipped, for its reader to report."""
    try:
        for path in paths:
            try:
                if path in _copies or stat.S_ISREG(os.stat(path).st_mode):
                    continue
                src = open(path, "rb", buffering=0)
            except OSError:
                continue
            with src, tempfile.NamedTemporaryFile(prefix="equifair-", delete=False) as copy:
                _copies[path] = copy.name
                shutil.copyfileobj(src, copy, io.DEFAULT_BUFFER_SIZE)
        yield
    finally:
        for copy in _copies.values():
            os.unlink(copy)
        _copies.clear()


def open_input(path: str | Path) -> BinaryIO:
    """``path`` open to read its bytes from a regular file, which a reader
    may size, seek and read again: the file itself, the command's copy of a
    pipe (see ``copied_inputs``), or else an unlinked copy made here."""
    fh = open(_copies.get(str(path), path), "rb")
    if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
        return fh
    with fh, tempfile.TemporaryFile(buffering=0) as copy:  # in small chunks, unbuffered: the read peaks later
        shutil.copyfileobj(fh.raw, copy, io.DEFAULT_BUFFER_SIZE)
        copy.seek(0)
        return open(os.dup(copy.fileno()), "rb")


def decode_error(path: Path) -> FormatError:
    """FormatError naming the byte offset and line of the first byte of
    ``path`` that is not UTF-8 (a stream's decode error only knows its
    position in the decoder's current chunk)."""
    with open_input(path) as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
        return FormatError(f"{path}: not valid utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return FormatError(f"{path}: byte offset {exc.start} (line {line}): not valid utf-8 (0x{data[exc.start]:02x})")


def dumps(value, what: str) -> str:
    """``value`` as strict JSON text ending in a newline; ``what`` names
    the document in the ValidationError raised for a non-finite number."""
    try:
        return json.dumps(value, indent=2, sort_keys=True, allow_nan=False, default=asdict) + "\n"
    except ValueError as exc:
        raise ValidationError(f"{what}: {exc}") from None


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a number in strict JSON")


def read(path: str | Path):
    """The value of a UTF-8 JSON file; the NaN and Infinity constants,
    which json.loads accepts by default, are a FormatError."""
    path = Path(path)
    try:
        with io.TextIOWrapper(open_input(path), encoding="utf-8") as fh:
            return json.loads(fh.read(), parse_constant=_reject_constant)
    except UnicodeDecodeError:
        raise decode_error(path) from None
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


_SCALARS = {  # type -> (what a message calls it, check of a JSON value)
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
}


def _where(path: tuple) -> str:
    return f"field {'.'.join(map(str, path))}" if path else "the document"


def load(hint, v, what: str, path: tuple = ()):
    """``v``, a parsed JSON value, as a value of ``hint``: a dataclass,
    float, int, bool, str, a Literal, ``X | None``, ``Mapping[str, X]``,
    ``tuple[X, ...]`` or ``tuple[X, Y]``.  ``what`` names the document and
    ``path`` the place of ``v`` in it, for error messages."""
    if hint is np.ndarray:  # a vector of numbers; its dataclass converts it
        hint = tuple[float, ...]
    base, null = hint, ""
    if type(None) in get_args(hint):  # X | None
        if v is None:
            return None
        (base,), null = [a for a in get_args(hint) if a is not type(None)], " or null"
    origin, args = get_origin(base), get_args(base)
    if base in _SCALARS:
        noun, ok = _SCALARS[base][0], _SCALARS[base][1](v)
    elif origin is Literal:
        noun, ok = f"one of {list(args)}", v in args
    elif origin is tuple:
        variadic = args[-1] is Ellipsis
        noun = "a list" if variadic else f"a list of {len(args)}"
        ok = isinstance(v, (list, tuple)) and (variadic or len(v) == len(args))
    else:
        noun, ok = "an object", isinstance(v, Mapping) and all(isinstance(k, str) for k in v)
    if not ok:
        raise FormatError(f"{what}: {_where(path)} must be {noun}{null}, got {reprlib.repr(v)}")
    if origin is tuple:
        items = args[:1] * len(v) if variadic else args
        return tuple(load(h, x, what, (*path, i)) for i, (h, x) in enumerate(zip(items, v)))
    if origin is Mapping:
        return {k: load(args[1], x, what, (*path, k)) for k, x in v.items()}
    if not is_dataclass(base):
        return v
    hints, init = get_type_hints(base), {f.name: f for f in fields(base) if f.init}
    for k in v:
        if k not in init:
            raise FormatError(f"{what}: unknown {_where((*path, k))}")
    for k, f in init.items():
        if k not in v and f.default is MISSING and f.default_factory is MISSING:
            raise FormatError(f"{what}: missing {_where((*path, k))}")
    return base(**{k: load(hints[k], x, what, (*path, k)) for k, x in v.items()})
