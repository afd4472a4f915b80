"""Seeded generators for group-structured prediction data and
planted-bias embeddings.

Cohort scores follow class- and group-conditional Gaussians on the logit
scale, so the generating model's true positive / false positive rates at
threshold 0.5 have the closed form Phi(mu / sigma); these analytic rates
are emitted alongside the data for oracle comparisons.  All generators are
pure functions of their config, including the seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
from numpy.dtypes import StringDType

from .debias import BiasSubspace, EmbeddingMatrix, EqualitySets
from .errors import ValidationError
from .predictions import LabeledPredictions, as_id_column, readonly

# Test-split group shares of the source cohort's sensitive attributes.
SEX_PROPORTIONS: dict[str, float] = {"F": 0.440, "M": 0.560}
ETHNICITY_PROPORTIONS: dict[str, float] = {
    "ASIAN": 0.019,
    "BLACK": 0.089,
    "HISPANIC": 0.033,
    "OTHER": 0.144,
    "WHITE": 0.715,
}
INSURANCE_PROPORTIONS: dict[str, float] = {
    "Government": 0.023,
    "Medicaid": 0.064,
    "Medicare": 0.550,
    "Private": 0.292,
    "Self Pay": 0.010,
    "UNKNOWN": 0.061,
}
GROUP_PRESETS: dict[str, dict[str, float]] = {
    "sex": SEX_PROPORTIONS,
    "ethnicity": ETHNICITY_PROPORTIONS,
    "insurance": INSURANCE_PROPORTIONS,
}
DEFAULT_POSITIVE_RATE = 0.131


def _standard_normal():
    """Phi and its inverse (Wichura 1988, Algorithm AS 241), imported only
    where a run draws or computes rates: ``statistics`` loads ``decimal``."""
    from statistics import NormalDist
    return NormalDist()


@dataclass(frozen=True)
class ScoreModel:
    """Class-conditional logit Gaussians for one group."""

    mu_neg: float = -1.5
    mu_pos: float = 1.5
    sigma_neg: float = 1.0
    sigma_pos: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu_neg, self.mu_pos, self.sigma_neg, self.sigma_pos))):
            raise ValidationError("score-model parameters must be finite")
        if self.sigma_neg <= 0 or self.sigma_pos <= 0:
            raise ValidationError("score-model sigmas must be positive")

    def analytic_tpr(self) -> float:
        # P(logit >= 0 | positive); threshold 0.5 on the score scale
        return _standard_normal().cdf(self.mu_pos / self.sigma_pos)

    def analytic_fpr(self) -> float:
        return _standard_normal().cdf(self.mu_neg / self.sigma_neg)

    def posterior_coefficients(self, positive_rate: float) -> tuple[float, float]:
        """(a, b) such that P(y=1 | logit) = sigmoid(a * logit + b).

        Valid for equal class-conditional sigmas; requires mu_pos > mu_neg.
        """
        if self.sigma_pos != self.sigma_neg:
            raise ValidationError("calibrated scores require equal class sigmas")
        if self.mu_pos <= self.mu_neg:
            raise ValidationError("calibrated scores require mu_pos > mu_neg")
        a = (self.mu_pos - self.mu_neg) / self.sigma_pos**2
        b = math.log(positive_rate / (1.0 - positive_rate)) - a * (self.mu_pos + self.mu_neg) / 2.0
        return a, b

    def calibrated_rates(self, positive_rate: float) -> tuple[float, float]:
        """Analytic (tpr, fpr) of thresholding the posterior at 0.5."""
        a, b = self.posterior_coefficients(positive_rate)
        cutoff = -b / a
        tpr = _standard_normal().cdf((self.mu_pos - cutoff) / self.sigma_pos)
        fpr = _standard_normal().cdf((self.mu_neg - cutoff) / self.sigma_neg)
        return tpr, fpr


def _require_integers(obj, *names: str) -> None:
    """Each named field of ``obj`` is None or a non-negative int or numpy integer, not a bool."""
    for name in names:
        v = getattr(obj, name)
        if v is not None and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
            raise ValidationError(f"{type(obj).__name__}.{name} must be an integer, got {v!r}")
        if v is not None and v < 0:
            raise ValidationError(f"{type(obj).__name__}.{name} must be non-negative, got {v!r}")


@dataclass(frozen=True)
class CohortConfig:
    """Specification of a synthetic prediction cohort.

    ``modality_windows`` gives, per modality, the [lo, hi) fraction of the
    sample index range on which that modality's score is informative;
    outside its window a modality emits class-independent noise logits.

    With ``calibrated`` the emitted score is the true posterior
    P(y=1 | logit) of the generating model rather than the plain sigmoid
    of the logit, so thresholding at 0.5 is the accuracy-optimal rule.
    """

    groups: Mapping[str, float] = field(default_factory=lambda: dict(SEX_PROPORTIONS))
    positive_rate: float = DEFAULT_POSITIVE_RATE
    score_models: Mapping[str, ScoreModel] | None = None
    n_samples: int = 1000
    seed: int = 0
    modality_windows: tuple[tuple[float, float], ...] = ((0.0, 1.0),)
    calibrated: bool = False
    id_prefix: str = "s"

    def __post_init__(self):
        _require_integers(self, "n_samples", "seed")
        groups = dict(self.groups)
        if not groups:
            raise ValidationError("at least one group is required")
        if not (all(p >= 0 for p in groups.values()) and abs(sum(groups.values()) - 1.0) <= 1e-9):
            raise ValidationError("group proportions must be finite, non-negative and sum to 1")
        if not 0.0 < self.positive_rate < 1.0:
            raise ValidationError("positive rate must lie strictly in (0, 1)")
        if self.n_samples < 1:
            raise ValidationError("sample count must be >= 1")
        if not self.modality_windows:
            raise ValidationError("at least one modality is required")
        for lo, hi in self.modality_windows:
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValidationError("modality windows must satisfy 0 <= lo <= hi <= 1")
        models = dict(self.score_models) if self.score_models else {g: ScoreModel() for g in groups}
        missing = set(groups) - set(models)
        if missing:
            raise ValidationError(f"score models missing for groups {sorted(missing)}")
        if self.calibrated:
            for m in models.values():
                m.posterior_coefficients(self.positive_rate)  # validates shape
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "score_models", models)
        object.__setattr__(self, "modality_windows", tuple(tuple(w) for w in self.modality_windows))


@dataclass(frozen=True)
class CohortData:
    """Generated cohort: one prediction set per modality plus the
    generating model's analytic rates at threshold 0.5."""

    modalities: tuple[LabeledPredictions, ...]
    analytic_rates: dict[str, dict[str, float]]
    config: CohortConfig


def gapped_score_models(
    groups: Mapping[str, float],
    tpr_low: float = 0.60,
    tpr_high: float = 0.85,
    fpr: float = 0.15,
) -> dict[str, ScoreModel]:
    """Score models spreading groups' analytic tpr evenly from low to high
    at a common fpr, for planting controllable fairness gaps."""
    if not 0 < tpr_low <= tpr_high < 1 or not 0 < fpr < 1:
        raise ValidationError("rates must lie strictly in (0, 1)")
    last, inv = max(len(groups) - 1, 1), _standard_normal().inv_cdf
    return {g: ScoreModel(mu_neg=inv(fpr), mu_pos=inv(tpr_low + i / last * (tpr_high - tpr_low))) for i, g in enumerate(groups)}


def _cohort_ids(prefix: str, n: int) -> np.ndarray:
    """``f"{prefix}{i:06d}"`` for i in range(n), as one StringDType column;
    the numbers below 10**6 are written as six digit bytes each."""
    digits = np.arange(min(n, 10**6))[:, None] // 10 ** np.arange(5, -1, -1) % 10 + ord("0")
    numbers = (digits.astype(np.uint8).view("S6")[:, 0], np.arange(10**6, max(n, 10**6)))
    return np.strings.add(as_id_column(prefix), np.concatenate([x.astype(StringDType()) for x in numbers]))


def generate_cohort(cfg: CohortConfig) -> CohortData:
    """Draw a cohort deterministically from the config seed."""
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n_samples
    names = list(cfg.groups)
    codes = rng.choice(len(names), size=n, p=[cfg.groups[g] for g in names])  # indices into names
    y = readonly((rng.random(n) < cfg.positive_rate).astype(np.int8))
    ids = readonly(_cohort_ids(cfg.id_prefix, n))
    models = [cfg.score_models[g] for g in names]
    # (group, class) tables of each row's logit mean and scale
    mu, sig = np.array([[(m.mu_neg, m.sigma_neg), (m.mu_pos, m.sigma_pos)] for m in models])[codes, y].T
    if cfg.calibrated:
        post_a, post_b = np.array([m.posterior_coefficients(cfg.positive_rate) for m in models])[codes].T
    idx = np.arange(n)
    modalities = []
    for lo, hi in cfg.modality_windows:
        z = rng.standard_normal(n)
        informative = (idx >= lo * n) & (idx < hi * n)
        logits = np.where(informative, mu + sig * z, z)
        if cfg.calibrated:
            # posterior of the generating model; an uninformative draw
            # carries no evidence, so its posterior is the base rate
            scores = np.where(
                informative,
                1.0 / (1.0 + np.exp(-(post_a * logits + post_b))),
                cfg.positive_rate,
            )
        else:
            scores = 1.0 / (1.0 + np.exp(-logits))
        outputs = {"scores": readonly(scores), "y_hat": readonly((scores >= 0.5).astype(np.int8))}
        modalities.append(
            modalities[0].with_outputs(**outputs)
            if modalities
            else LabeledPredictions(id_column=ids, y_true=y, group_codes=readonly(codes), universe=tuple(names), **outputs)
        )
    analytic = {}
    for g, m in zip(names, models):
        tpr, fpr = m.calibrated_rates(cfg.positive_rate) if cfg.calibrated else (m.analytic_tpr(), m.analytic_fpr())
        analytic[g] = {"tpr": tpr, "fpr": fpr}
    return CohortData(modalities=tuple(modalities), analytic_rates=analytic, config=cfg)


def generate_multilabel(
    n_samples: int,
    n_labels: int = 25,
    seed: int = 0,
    prevalence_start: float = 0.45,
    prevalence_decay: float = 0.90,
    separation: float = 1.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Score/label matrices with geometrically decaying label prevalence.

    Returns (scores, labels) of shape (n_samples, n_labels); label j has
    prevalence ~ prevalence_start * prevalence_decay**j (floored at 1%).
    """
    if n_labels < 2 or n_samples < 1:
        raise ValidationError("need n_labels >= 2 and n_samples >= 1")
    rng = np.random.default_rng(seed)
    prevalence = np.maximum(prevalence_start * prevalence_decay ** np.arange(n_labels), 0.01)
    y = (rng.random((n_samples, n_labels)) < prevalence).astype(np.int8)
    logits = rng.standard_normal((n_samples, n_labels)) + separation * (2.0 * y - 1.0)
    scores = 1.0 / (1.0 + np.exp(-logits))
    return scores, y


@dataclass(frozen=True)
class EmbeddingPlantConfig:
    """Specification of a planted-bias embedding matrix.

    Equality-set words are placed symmetrically about the planted
    directions; all other words are orthogonal to them, up to isotropic
    noise of scale ``noise``.
    """

    equality_sets: tuple[tuple[str, ...], ...]
    vocab_size: int = 50
    dim: int = 25
    n_directions: int | None = None
    noise: float = 0.0
    offset: float = 0.35
    seed: int = 0

    def __post_init__(self):
        _require_integers(self, "vocab_size", "dim", "n_directions", "seed")
        sets = tuple(tuple(s) for s in self.equality_sets)
        if not sets or any(len(s) < 2 for s in sets):
            raise ValidationError("equality sets must be non-empty tuples of >= 2 words")
        k = self.n_directions if self.n_directions is not None else max(len(s) for s in sets) - 1
        if k < 1:
            raise ValidationError("need at least one planted direction")
        if k < max(len(s) for s in sets) - 1:
            raise ValidationError("planting needs >= (largest set size - 1) directions")
        if self.dim < k + 1:
            raise ValidationError("dimension must exceed the number of planted directions")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValidationError("noise scale must be finite and non-negative")
        if not 0.0 < self.offset < 1.0:
            raise ValidationError("offset must lie strictly in (0, 1)")
        words = {w for s in sets for w in s}
        if self.vocab_size < len(words):
            raise ValidationError("vocab_size smaller than the number of equality-set words")
        object.__setattr__(self, "equality_sets", sets)
        object.__setattr__(self, "n_directions", k)


def _simplex_directions(c: int, k: int) -> np.ndarray:
    """c unit vectors in R^k, symmetric with zero mean (c - 1 <= k)."""
    basis = np.eye(c) - np.full((c, c), 1.0 / c)
    # rows of `basis` span a (c-1)-dim space; orthonormalize and embed
    q, _ = np.linalg.qr(basis.T)
    dirs = basis @ q[:, : c - 1]
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    out = np.zeros((c, k))
    out[:, : c - 1] = dirs
    return out


def _word_sharing_components(sets: tuple[tuple[str, ...], ...]) -> list[int]:
    """For each set, a label of its connected component in the graph whose
    edges join sets sharing a word."""
    parent = list(range(len(sets)))

    def root(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    holder: dict[str, int] = {}  # word -> the first set holding it
    for i, s in enumerate(sets):
        for w in s:
            parent[root(holder.setdefault(w, i))] = root(i)
    return [root(i) for i in range(len(sets))]


def generate_embeddings(
    cfg: EmbeddingPlantConfig,
) -> tuple[EmbeddingMatrix, EqualitySets, BiasSubspace]:
    """Draw a planted-bias embedding matrix deterministically.

    Sets joined by shared words share one centre, so the members of every
    set differ only along the planted directions, plus noise."""
    rng = np.random.default_rng(cfg.seed)
    k, d = cfg.n_directions, cfg.dim
    raw = rng.standard_normal((d, k))
    q, r = np.linalg.qr(raw)
    basis = (q * np.sign(np.diag(r))).T  # (k, d), deterministic sign

    def orth_unit() -> np.ndarray:
        v = rng.standard_normal(d)
        v -= (basis @ v) @ basis
        return v / np.linalg.norm(v)

    tokens: list[str] = []
    rows: list[np.ndarray] = []
    center_scale = math.sqrt(1.0 - cfg.offset**2)
    seen: set[str] = set()
    centers: dict[int, np.ndarray] = {}
    for s, component in zip(cfg.equality_sets, _word_sharing_components(cfg.equality_sets)):
        if component not in centers:  # drawn in the order the components first appear
            centers[component] = center_scale * orth_unit()
        dirs = _simplex_directions(len(s), k) @ basis  # (c, d), unit, zero-mean
        for j, w in enumerate(s):
            if w in seen:
                continue
            seen.add(w)
            tokens.append(w)
            rows.append(centers[component] + cfg.offset * dirs[j])
    n_neutral = cfg.vocab_size - len(tokens)
    for i in range(n_neutral):
        tokens.append(f"neutral{i:03d}")
        rows.append(orth_unit())
    vectors = np.stack(rows)
    if cfg.noise > 0:
        vectors = vectors + cfg.noise * rng.standard_normal(vectors.shape)
    vectors /= np.linalg.norm(vectors, axis=1, keepdims=True)
    return (
        EmbeddingMatrix(tokens=tuple(tokens), vectors=readonly(vectors)),
        EqualitySets(cfg.equality_sets),
        BiasSubspace(basis=basis),
    )
