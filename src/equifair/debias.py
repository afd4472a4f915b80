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

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DegenerateInputError, FormatError, ValidationError
from .schema import decode_error

NEUTRALIZE_EPS = 1e-8


@dataclass(frozen=True)
class EmbeddingMatrix:
    """An ordered vocabulary with one real vector per token."""

    tokens: tuple[str, ...]
    vectors: np.ndarray
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        vecs = np.asarray(self.vectors, dtype=np.float64)
        if vecs.ndim != 2 or vecs.shape[0] != len(self.tokens):
            raise ValidationError("vectors must be a (vocab, dim) matrix")
        if not np.isfinite(vecs).all():
            raise ValidationError("vectors must be finite")
        index: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if tok in index:
                raise ValidationError(f"duplicate token {tok!r}")
            index[tok] = i
        vecs = vecs.copy()
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

    def with_vectors(self, vectors: np.ndarray) -> "EmbeddingMatrix":
        return EmbeddingMatrix(tokens=self.tokens, vectors=vectors)

    def unit_normalized(self) -> "EmbeddingMatrix":
        norms = np.linalg.norm(self.vectors, axis=1, keepdims=True)
        if np.any(norms <= NEUTRALIZE_EPS):
            bad = [self.tokens[i] for i in np.nonzero(norms.ravel() <= NEUTRALIZE_EPS)[0]]
            raise DegenerateInputError(f"zero-norm vectors for tokens {bad}")
        return self.with_vectors(self.vectors / norms)


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


NeutralPolicy = Callable[[str], bool] | Iterable[str] | None


def hard_debias(
    emb: EmbeddingMatrix,
    sets: EqualitySets,
    neutral_policy: NeutralPolicy = None,
    k: int | None = None,
) -> DebiasResult:
    """Neutralize and equalize an embedding matrix.

    All vectors are unit-normalized first.  ``neutral_policy`` selects the
    words to neutralize: None (default) selects every vocabulary word not
    in any equality set, an iterable selects listed words, and a callable
    is used as a token predicate.  ``k`` defaults to (largest resolvable
    set size) - 1.  Words that cannot be processed are collected into the
    result's skip report instead of aborting the batch.  Tokens appearing
    in several equality sets keep the vector from the last set processed.
    """
    normalized = emb.unit_normalized()
    usable, dropped = sets.resolve(normalized)
    if not usable:
        raise ValidationError("no equality set has 2 or more resolvable members")
    if k is None:
        k = max(len(s) for s in usable) - 1
    subspace = identify_subspace(normalized, sets, k)

    set_words = sets.all_words()
    if neutral_policy is None:
        neutral = [t for t in normalized.tokens if t not in set_words]
    elif callable(neutral_policy):
        neutral = [t for t in normalized.tokens if neutral_policy(t)]
    else:
        wanted = set(neutral_policy)
        neutral = [t for t in normalized.tokens if t in wanted]

    vectors = normalized.vectors.copy()
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
        embeddings=normalized.with_vectors(vectors),
        subspace=subspace,
        neutralized=tuple(done),
        equalized_sets=tuple(equalized),
        skipped_words=tuple(skipped),
        dropped_sets=dropped,
    )


# ---------------------------------------------------------------------------
# embedding file I/O


def load_embeddings(path: str | Path) -> EmbeddingMatrix:
    """Parse a plain-text embedding file."""
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
            tokens: list[str] = []
            rows: list[list[float]] = []
            seen: set[str] = set()
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                fields = line.split(" ")
                if len(fields) != dim + 1:
                    raise FormatError(
                        f"{path}: line {lineno}: expected {dim} values, got {len(fields) - 1}"
                    )
                tok = fields[0]
                if tok in seen:
                    raise FormatError(f"{path}: line {lineno}: duplicate token {tok!r}")
                seen.add(tok)
                try:
                    rows.append([float(v) for v in fields[1:]])
                except ValueError:
                    raise FormatError(f"{path}: line {lineno}: non-numeric vector value") from None
                tokens.append(tok)
    except UnicodeDecodeError:
        raise decode_error(path) from None
    if len(tokens) != vocab_size:
        raise FormatError(f"{path}: header declares {vocab_size} words, found {len(tokens)}")
    return EmbeddingMatrix(tokens=tuple(tokens), vectors=np.array(rows, dtype=np.float64))


def format_embeddings(emb: EmbeddingMatrix) -> str:
    lines = [f"{len(emb)} {emb.dim}"]
    for i, tok in enumerate(emb.tokens):
        if " " in tok or "\n" in tok or "\r" in tok:  # the reader splits lines on \r too
            raise FormatError(f"token {tok!r} contains whitespace; not serializable")
        lines.append(tok + " " + " ".join(repr(float(v)) for v in emb.vectors[i]))
    return "\n".join(lines) + "\n"


def save_embeddings(emb: EmbeddingMatrix, path: str | Path) -> None:
    Path(path).write_text(format_embeddings(emb), encoding="utf-8")
