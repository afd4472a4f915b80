"""Hard debiasing of word embeddings: subspace identification,
neutralization, and equalization.

The bias subspace is identified from equality sets (tuples of
attribute-specific words, e.g. gender pairs or 4-way race tuples): each
set is centered at its mean and the residuals' top principal directions
form an orthonormal basis.  Neutralization removes a vector's component in
that subspace and renormalizes.  Equalization recenters an equality set so
all members share the off-subspace component and unit norm, making them
equidistant to every vector orthogonal to the subspace.

Embedding files are plain UTF-8 text: a ``<vocab_size> <dimension>``
header line, then one ``<token> <v_1> ... <v_d>`` line per word with
single-space separators and round-trip decimal rendering.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, FormatError, ValidationError
from .pool import _pooled, _process_pool
from .schema import decode_error

NEUTRALIZE_EPS = 1e-8


@dataclass(frozen=True)
class EmbeddingMatrix:
    """An ordered vocabulary with one real vector per token."""

    tokens: tuple[str, ...]
    vectors: np.ndarray
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the caller still holds what it passed, so the matrix keeps a copy
        self._freeze(np.array(self.vectors, dtype=np.float64))

    @classmethod
    def _adopt(cls, tokens: tuple[str, ...], vectors: np.ndarray) -> EmbeddingMatrix:
        """A matrix over a float64 array made for it, that no one else
        holds: checked and frozen in place, not copied."""
        emb = object.__new__(cls)
        object.__setattr__(emb, "tokens", tokens)
        emb._freeze(vectors)
        return emb

    def _freeze(self, vecs: np.ndarray) -> None:
        if vecs.ndim != 2 or vecs.shape[0] != len(self.tokens):
            raise ValidationError("vectors must be a (vocab, dim) matrix")
        if not np.isfinite(vecs).all():
            raise ValidationError("vectors must be finite")
        index: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if tok in index:
                raise ValidationError(f"duplicate token {tok!r}")
            index[tok] = i
        vecs.setflags(write=False)
        object.__setattr__(self, "vectors", vecs)
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def get(self, token: str) -> np.ndarray:
        return self.vectors[self.index[token]]

    def _unit_rows(self) -> np.ndarray:
        """The vectors scaled to unit norm, in a new writable array."""
        norms = np.linalg.norm(self.vectors, axis=1, keepdims=True)
        if np.any(norms <= NEUTRALIZE_EPS):
            bad = [self.tokens[i] for i in np.nonzero(norms.ravel() <= NEUTRALIZE_EPS)[0]]
            raise DegenerateInputError(f"zero-norm vectors for tokens {bad}")
        return self.vectors / norms


@dataclass(frozen=True)
class EqualitySets:
    """Word tuples whose mutual differences define the bias subspace."""

    sets: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        sets = tuple(tuple(s) for s in self.sets)
        if not sets:
            raise ValidationError("at least one equality set is required")
        for s in sets:
            if len(s) < 2:
                raise ValidationError(f"equality set {s} has fewer than 2 members")
        object.__setattr__(self, "sets", sets)

    def __iter__(self):
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def all_words(self) -> set[str]:
        return {w for s in self.sets for w in s}

    def resolve(self, emb: EmbeddingMatrix) -> tuple[tuple[tuple[str, ...], ...], tuple[tuple[str, ...], ...]]:
        """(usable sets restricted to known tokens, dropped sets)."""
        usable: list[tuple[str, ...]] = []
        dropped: list[tuple[str, ...]] = []
        for s in self.sets:
            present = tuple(w for w in s if w in emb)
            if len(present) >= 2:
                usable.append(present)
            else:
                dropped.append(s)
        return tuple(usable), tuple(dropped)


@dataclass(frozen=True)
class BiasSubspace:
    """Orthonormal basis of the bias subspace, with the share of residual
    variance captured by each component."""

    basis: np.ndarray  # (k, dim)
    explained_variance: tuple[float, ...] | None = None

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=np.float64)
        if basis.ndim != 2:
            raise ValidationError("basis must be a (k, dim) matrix")
        gram = basis @ basis.T
        if not np.allclose(gram, np.eye(len(basis)), atol=1e-9):
            raise ValidationError("basis vectors must be orthonormal")
        basis = basis.copy()
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


def identify_subspace(emb: EmbeddingMatrix, sets: EqualitySets, k: int) -> BiasSubspace:
    """Top-k principal directions of the within-set residuals.

    Vectors are unit-normalized before centering.  Raises when no set is
    resolvable, when all residuals vanish, or when k exceeds the residual
    rank.
    """
    if not 1 <= k <= emb.dim:
        raise ValidationError(f"k must be in [1, {emb.dim}]")
    usable, _ = sets.resolve(emb)
    if not usable:
        raise ValidationError("no equality set has 2 or more resolvable members")
    residuals = []
    for s in usable:
        vecs = np.stack([emb.get(w) for w in s])
        vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
        residuals.append(vecs - vecs.mean(axis=0))
    stacked = np.vstack(residuals)
    scale = float(np.max(np.abs(stacked), initial=0.0))
    if scale <= 1e-12:
        raise DegenerateInputError("all equality-set residuals are zero")
    _, svals, vt = np.linalg.svd(stacked, full_matrices=False)
    rank = int(np.sum(svals > 1e-10 * svals[0]))
    if k > rank:
        raise DegenerateInputError(f"requested k={k} exceeds residual rank {rank}")
    basis = vt[:k].copy()
    # canonical sign: largest-magnitude coordinate of each direction positive
    for row in range(k):
        j = int(np.argmax(np.abs(basis[row])))
        if basis[row, j] < 0:
            basis[row] = -basis[row]
    total = float(np.sum(svals**2))
    explained = tuple(float(s**2 / total) for s in svals[:k])
    return BiasSubspace(basis=basis, explained_variance=explained)


def project(w: np.ndarray, subspace: BiasSubspace) -> np.ndarray:
    """Component of w inside the subspace: sum_i <w, b_i> b_i."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (subspace.dim,):
        raise ValidationError(f"vector dimension {w.shape} does not match subspace dim {subspace.dim}")
    return (subspace.basis @ w) @ subspace.basis


def neutralize(w: np.ndarray, subspace: BiasSubspace, label: str | None = None) -> np.ndarray:
    """Remove the subspace component and renormalize: (w - w_B)/|w - w_B|."""
    w = np.asarray(w, dtype=np.float64)
    residual = w - project(w, subspace)
    norm = float(np.linalg.norm(residual))
    if norm <= NEUTRALIZE_EPS:
        name = f" {label!r}" if label else ""
        raise DegenerateInputError(f"vector{name} lies entirely inside the bias subspace")
    return residual / norm


def equalize(
    vectors: Sequence[np.ndarray], subspace: BiasSubspace, labels: Sequence[str] | None = None
) -> tuple[np.ndarray, ...]:
    """Recenter an equality set symmetrically about the subspace.

    Each output shares the off-subspace mean component and has unit norm;
    the in-subspace parts are rescaled copies of the members' deviations
    from the mean in-subspace component.  Assumes unit-norm inputs.
    """
    vecs = np.stack([np.asarray(v, dtype=np.float64) for v in vectors])
    if vecs.shape[0] < 2:
        raise ValidationError("equalize requires at least 2 vectors")
    mu = vecs.mean(axis=0)
    mu_b = project(mu, subspace)
    nu = mu - mu_b
    radicand = max(0.0, 1.0 - float(nu @ nu))
    scale = np.sqrt(radicand)
    out = []
    for i, v in enumerate(vecs):
        v_b = project(v, subspace)
        dev = v_b - mu_b
        dev_norm = float(np.linalg.norm(dev))
        if dev_norm <= NEUTRALIZE_EPS:
            name = f" {labels[i]!r}" if labels else ""
            raise DegenerateInputError(
                f"equality-set member{name} has no in-subspace distinction from the set mean"
            )
        out.append(nu + scale * dev / dev_norm)
    return tuple(out)


@dataclass(frozen=True)
class DebiasResult:
    """Output of hard debiasing: the new matrix plus what was skipped."""

    embeddings: EmbeddingMatrix
    subspace: BiasSubspace
    neutralized: tuple[str, ...]
    equalized_sets: tuple[tuple[str, ...], ...]
    skipped_words: tuple[str, ...]
    dropped_sets: tuple[tuple[str, ...], ...]

    def skip_report(self) -> dict:
        return {
            "neutralized": len(self.neutralized),
            "equalized_sets": len(self.equalized_sets),
            "skipped_words": list(self.skipped_words),
            "dropped_sets": [list(s) for s in self.dropped_sets],
            "explained_variance": list(self.subspace.explained_variance or ()),
        }


def hard_debias(
    emb: EmbeddingMatrix,
    sets: EqualitySets,
    neutral_policy: Iterable[str] | None = None,
    k: int | None = None,
) -> DebiasResult:
    """Neutralize and equalize an embedding matrix.

    All vectors are unit-normalized first.  ``neutral_policy`` selects the
    words to neutralize: None (default) selects every vocabulary word not
    in any equality set, and an iterable of tokens selects the vocabulary
    words it lists.  ``k`` defaults to (largest resolvable set size) - 1.
    Words that cannot be processed are collected into the result's skip
    report instead of aborting the batch.  Tokens appearing in several
    equality sets keep the vector from the last set processed.
    """
    # the one new matrix: the subspace comes from a frozen view of it, then
    # each row is rewritten in place, a neutral row read once before it is
    vectors = emb._unit_rows()
    normalized = EmbeddingMatrix._adopt(emb.tokens, vectors.view())
    usable, dropped = sets.resolve(normalized)
    if not usable:
        raise ValidationError("no equality set has 2 or more resolvable members")
    if k is None:
        k = max(len(s) for s in usable) - 1
    subspace = identify_subspace(normalized, sets, k)

    set_words = sets.all_words()
    if neutral_policy is None:
        neutral = [t for t in normalized.tokens if t not in set_words]
    else:
        wanted = set(neutral_policy)
        neutral = [t for t in normalized.tokens if t in wanted]

    skipped: list[str] = []
    done: list[str] = []
    for tok in neutral:
        try:
            vectors[normalized.index[tok]] = neutralize(normalized.get(tok), subspace, label=tok)
            done.append(tok)
        except DegenerateInputError:
            skipped.append(tok)
    equalized: list[tuple[str, ...]] = []
    for s in usable:
        try:
            new_vecs = equalize([vectors[normalized.index[w]] for w in s], subspace, labels=s)
        except DegenerateInputError:
            skipped.extend(s)
            continue
        for w, v in zip(s, new_vecs):
            vectors[normalized.index[w]] = v
        equalized.append(s)
    return DebiasResult(
        embeddings=EmbeddingMatrix._adopt(normalized.tokens, vectors),
        subspace=subspace,
        neutralized=tuple(done),
        equalized_sets=tuple(equalized),
        skipped_words=tuple(skipped),
        dropped_sets=dropped,
    )


# ---------------------------------------------------------------------------
# embedding file I/O
#
# Files are read and written a block of rows at a time.  From
# ``_POOL_FLOOR`` values on, the blocks are parsed or formatted on one
# worker process per usable CPU (see ``pool``); below it, or where no
# process pool can be started, in this process.  The bytes written, and
# the values and errors read, are the same either way.

# values (rows x dimension) from which a file is handled by a process pool;
# below about this size, starting the workers costs what they save
_POOL_FLOOR = 1 << 20
# values in one block of rows
_BLOCK_VALUES = 1 << 16


def _block_rows(dim: int) -> int:
    return max(1, _BLOCK_VALUES // max(dim, 1))


def _parse_block(lines: list[str], dim: int) -> tuple[list[str], np.ndarray] | None:
    """The tokens and the (rows, dim) vectors of a block of lines, blank
    lines skipped; None when a line has the wrong number of fields or a
    value is not a number.  numpy's str -> float cast accepts and rejects
    the same strings as float()."""
    tokens: list[str] = []
    values: list[str] = []
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split(" ")
        if len(fields) != dim + 1:
            return None
        tokens.append(fields[0])
        values += fields[1:]
    try:
        return tokens, np.array(values, dtype=np.float64).reshape(len(tokens), dim)
    except ValueError:
        return None


def _replay_block(path: Path, lines: list[str], lineno: int, dim: int, seen: set[str]) -> tuple[list[str], np.ndarray]:
    """``_parse_block`` line by line, the first line being ``lineno``,
    against the tokens ``seen`` before the block: raises the error of the
    first bad line."""
    tokens: list[str] = []
    rows: list[list[float]] = []
    for k, line in enumerate(lines, start=lineno):
        line = line.rstrip("\n")
        if not line:
            continue
        fields = line.split(" ")
        if len(fields) != dim + 1:
            raise FormatError(f"{path}: line {k}: expected {dim} values, got {len(fields) - 1}")
        tok = fields[0]
        if tok in seen:
            raise FormatError(f"{path}: line {k}: duplicate token {tok!r}")
        seen.add(tok)
        try:
            rows.append([float(v) for v in fields[1:]])
        except ValueError:
            raise FormatError(f"{path}: line {k}: non-numeric vector value") from None
        tokens.append(tok)
    return tokens, np.array(rows, dtype=np.float64).reshape(len(tokens), dim)


def _line_blocks(fh, rows: int, undecodable: list[UnicodeDecodeError]):
    """Lists of ``rows`` lines of ``fh``.  A byte that is not UTF-8 ends
    them: its error goes to ``undecodable``, after the lines before it."""
    block: list[str] = []
    try:
        for line in fh:
            block.append(line)
            if len(block) == rows:
                yield block
                block = []
    except UnicodeDecodeError as exc:
        undecodable.append(exc)
    if block:
        yield block


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Parse a plain-text embedding file.

    A malformed file raises the error of its first bad line, naming the
    line: a wrong field count, then a duplicate token, then a non-numeric
    value.  A byte that is not UTF-8, named by file offset, comes after
    the errors of the lines before it, and a word count other than the
    header's comes last."""
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8") as fh:
            header = fh.readline()
            parts = header.split()
            if len(parts) != 2:
                raise FormatError(f"{path}: line 1: header must be '<vocab_size> <dimension>'")
            try:
                vocab_size, dim = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError(f"{path}: line 1: header fields must be integers") from None
            if vocab_size < 1 or dim < 1:
                raise FormatError(f"{path}: line 1: header values must be positive")
            # a row takes at least 2 * dim + 1 bytes (one less unterminated), so a
            # header that lies allocates no more rows than the file can hold; rows
            # past them are checked, then dropped.  A pipe has no size.
            size = os.fstat(fh.fileno()).st_size
            room = (size - len(header.encode()) + 1) // (2 * dim + 1) if size else vocab_size
            vectors = np.empty((min(vocab_size, room), dim))
            tokens: list[str] = []
            seen: set[str] = set()
            lineno = 2
            undecodable: list[UnicodeDecodeError] = []
            with _process_pool(vectors.size, _POOL_FLOOR) as executor:
                jobs = ((lines, dim) for lines in _line_blocks(fh, _block_rows(dim), undecodable))
                for (lines, _), parsed in _pooled(executor, _parse_block, jobs):
                    if parsed is not None:
                        seen.update(parsed[0])
                    if parsed is None or len(seen) != len(tokens) + len(parsed[0]):
                        parsed = _replay_block(path, lines, lineno, dim, set(tokens))
                        seen.update(parsed[0])
                    rows = vectors[len(tokens) : len(tokens) + len(parsed[0])]
                    rows[:] = parsed[1][: len(rows)]
                    tokens += parsed[0]
                    lineno += len(lines)
            if undecodable:
                raise undecodable[0]
    except UnicodeDecodeError:
        raise decode_error(path) from None
    if len(tokens) != vocab_size:
        raise FormatError(f"{path}: header declares {vocab_size} words, found {len(tokens)}")
    return EmbeddingMatrix._adopt(tuple(tokens), vectors)


def _format_block(tokens: Sequence[str], vectors: np.ndarray) -> str:
    """The file lines of a block of rows, each ending in a newline."""
    return "".join(
        tok + " " + " ".join(map(float.__repr__, row)) + "\n" for tok, row in zip(tokens, vectors.tolist())
    )


def save_embeddings(emb: EmbeddingMatrix, path: str | Path) -> None:
    """Write ``emb`` as a plain-text embedding file; every value is
    rendered by ``float.__repr__``, which round-trips."""
    for tok in emb.tokens:
        if " " in tok or "\n" in tok or "\r" in tok:  # the reader splits lines on \r too
            raise FormatError(f"token {tok!r} contains whitespace; not serializable")
    rows = _block_rows(emb.dim)
    jobs = ((emb.tokens[i : i + rows], emb.vectors[i : i + rows]) for i in range(0, len(emb), rows))
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"{len(emb)} {emb.dim}\n")
        with _process_pool(emb.vectors.size, _POOL_FLOOR) as executor:
            for _, text in _pooled(executor, _format_block, jobs):
                fh.write(text)
