"""Equalized-odds post-processing of classifier outputs.

Both variants force every group's derived predictor onto one common
(fpr, tpr) operating point, chosen to minimize expected weighted
misclassification loss over the intersection of the groups' achievable
regions:

* hard variant: the input is a binary base prediction per sample; each
  group's achievable region is the parallelogram spanned by the constant
  predictors, the base operating point bound to that group, and its
  negation.  The fitted parameters are per-group randomization
  probabilities p0 = P(output 1 | base 0) and p1 = P(output 1 | base 1).

* soft variant: the input is a score per sample; each group's achievable
  region is the convex hull of its empirical ROC operating points together
  with (0, 0) and (1, 1).  The fitted per-group policy mixes two score
  thresholds, and, when the common target lies strictly below the group's
  ROC upper envelope, additionally mixes in a score-independent coin so
  the target is met exactly in expectation.

The optimization is solved exactly: the feasible set is a convex polygon
obtained by half-plane clipping, the objective is linear, and the optimum
is found by a vertex scan with deterministic tie-breaking (tpr descending,
then fpr ascending).

Randomized application derives all per-sample draws from
(seed, sample id), so results are reproducible and order-independent.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, replace
from typing import ClassVar, Literal, Mapping, Sequence

import numpy as np

from . import schema
from .errors import GroupMismatchError, ValidationError
from .geometry import argmin_linear, convex_hull_indices, intersect_regions
from .metrics import GroupRateEntry, _counts_by_code, _descending, _roc, confusion_rates
from .predictions import LabeledPredictions, as_id_column

_DIAG_TOL = 1e-12
# threshold of the ROC point (0, 0): no score in [0, 1] reaches it, and
# unlike +inf it is a finite number in a derived predictor's JSON
_NEVER_POSITIVE = math.nextafter(1.0, math.inf)


def _require_unit(obj, *names: str) -> None:
    """Each named field of ``obj``, a probability or an (fpr, tpr) pair, lies in [0, 1]."""
    for name in names:
        if not all(0.0 <= x <= 1.0 for x in np.ravel(getattr(obj, name))):
            raise ValidationError(f"{type(obj).__name__}.{name} must lie in [0, 1], got {getattr(obj, name)}")


@dataclass(frozen=True)
class LossSpec:
    """Expected-loss objective: cost_fp * P(false positive) + cost_fn *
    P(false negative), with group weights defaulting to empirical group
    frequencies and class shares always empirical."""

    cost_fp: float = 1.0
    cost_fn: float = 1.0
    group_weights: Mapping[str, float] | None = None

    def __post_init__(self):
        if not all(math.isfinite(c) and c >= 0 for c in (self.cost_fp, self.cost_fn)):
            raise ValidationError("loss costs must be finite and non-negative")
        if self.cost_fp == 0 and self.cost_fn == 0:
            raise ValidationError("loss costs must not both be zero")
        if self.group_weights is not None:
            gw = dict(self.group_weights)
            if not all(math.isfinite(w) and w >= 0 for w in gw.values()) or sum(gw.values()) <= 0:
                raise ValidationError("group weights must be finite and non-negative with positive sum")
            object.__setattr__(self, "group_weights", gw)


def _group_coefficients(rates: Mapping[str, GroupRateEntry], loss: LossSpec) -> dict[str, tuple[float, float]]:
    """Per non-empty group, (k_fp, k_fn) such that its operating point
    (x, y) adds k_fp * x + k_fn * (1 - y) to the loss."""
    sizes = {g: e.n_pos + e.n_neg for g, e in rates.items() if e.n_pos + e.n_neg > 0}
    weights = sizes if loss.group_weights is None else loss.group_weights
    missing = [g for g in sizes if g not in weights]
    if missing:
        raise ValidationError(f"group weights missing for groups {missing}")
    total = sum(weights[g] for g in sizes)
    out = {}
    for g, n in sizes.items():
        w = weights[g] / total
        out[g] = (loss.cost_fp * w * (rates[g].n_neg / n), loss.cost_fn * w * (rates[g].n_pos / n))
    return out


def loss_coefficients(rates: Mapping[str, GroupRateEntry], loss: LossSpec) -> tuple[float, float]:
    """(k_fp, k_fn) such that a common operating point (x, y) of every
    non-empty group costs k_fp * x + k_fn * (1 - y)."""
    k_fp = k_fn = 0.0
    for kf, kn in _group_coefficients(rates, loss).values():
        k_fp += kf
        k_fn += kn
    return k_fp, k_fn


def expected_loss_of_rates(rates: Mapping[str, GroupRateEntry], loss: LossSpec) -> float:
    """Expected weighted loss of a predictor whose per-group operating
    points are given by ``rates``.  Groups with an undefined rate
    contribute nothing through that rate (its class share is zero)."""
    total = 0.0
    for g, (kf, kn) in _group_coefficients(rates, loss).items():
        if rates[g].fpr is not None:
            total += kf * rates[g].fpr
        if rates[g].tpr is not None:
            total += kn * (1.0 - rates[g].tpr)
    return total


# ---------------------------------------------------------------------------
# counter-based randomness: one digest per sample id, one key per (seed, purpose, column)

_CHUNK_IDS, _CHUNK_CODE_POINTS = 1 << 12, 1 << 20  # ids digested at once, and the cells their code points may fill


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finaliser (Steele, Lea & Flood 2014) of a uint64 array, in place."""
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift
        z *= factor
    z ^= z >> 31
    return z


def sample_uniforms(seed: int, purpose: str, sample_ids: Sequence[str] | np.ndarray, n: int = 3) -> np.ndarray:
    """A (len(sample_ids), n) array of uniforms in [0, 1).  Row i's digest starts as the length of
    sample_ids[i] and folds in each of its code points c as mix(digest ^ c); column k is the top 53
    bits of mix(digest ^ derive_seed(seed, f"{purpose}\x1f{k}")) over 2**53, so it depends on that id alone."""
    keys = np.array([derive_seed(seed, f"{purpose}\x1f{k}") for k in range(n)], dtype=np.uint64)
    column = as_id_column(sample_ids)
    out, start = np.empty((len(column), n)), 0
    while start < len(column):  # a chunk of ids, cut short where long ones would hold too many code points
        tagged = np.strings.add(column[start : start + _CHUNK_IDS], as_id_column("\x01"))  # str_len skips trailing NULs
        lengths = np.strings.str_len(tagged) - 1
        cells = np.maximum.accumulate(lengths) * np.arange(1, len(lengths) + 1)
        lengths = lengths[: max(1, np.count_nonzero(cells <= _CHUNK_CODE_POINTS))]
        stop, width = start + len(lengths), int(lengths.max()) + 1
        code_points = tagged[: len(lengths)].astype(f"U{width}").view(np.uint32).reshape(-1, width)
        digest = lengths.astype(np.uint64)
        for j in range(width - 1):  # an id folds in its own code points alone, so its chunk does not matter
            digest = np.where(lengths > j, _mix(digest ^ code_points[:, j]), digest)
        np.multiply(_mix(digest[:, None] ^ keys) >> 11, 2.0**-53, out=out[start:stop])
        start = stop
    return out


def apply_draws(variant: str, seed: int, sample_ids) -> np.ndarray:
    """The (n, 1) hard or (n, 3) soft uniforms ``apply_<variant>`` compares for rows of
    ``sample_ids``; a row's depend on its id alone, so they can be drawn before the fit."""
    return sample_uniforms(seed, f"eo-{variant}", sample_ids, n=1 if variant == "hard" else 3)


def derive_seed(seed: int, tag: str) -> int:
    """Stable child seed for a named sub-stream."""
    digest = hashlib.blake2b(f"{seed}\x1f{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


# ---------------------------------------------------------------------------
# hard variant


@dataclass(frozen=True)
class HardGroupPolicy:
    """Randomization probabilities for one group: p0 = P(output 1 | base
    prediction 0), p1 = P(output 1 | base prediction 1)."""

    variant: ClassVar[str] = "hard"
    p0: float
    p1: float

    def __post_init__(self):
        _require_unit(self, "p0", "p1")

    def derived_point(self, base: GroupRateEntry) -> tuple[float, float]:
        """Expected (fpr, tpr) of randomizing a base predictor with ``base``'s rates."""
        if base.fpr is None or base.tpr is None:
            raise GroupMismatchError("a hard policy needs defined base rates (both classes present)")
        return (
            self.p0 * (1.0 - base.fpr) + self.p1 * base.fpr,
            self.p0 * (1.0 - base.tpr) + self.p1 * base.tpr,
        )


def _hard_region(base_fpr: float, base_tpr: float) -> np.ndarray:
    pts = np.array(
        [
            [0.0, 0.0],
            [base_fpr, base_tpr],
            [1.0, 1.0],
            [1.0 - base_fpr, 1.0 - base_tpr],
        ]
    )
    return pts[convex_hull_indices(pts)]


def _policy_table(dp: DerivedPredictor, preds: LabeledPredictions, *names: str) -> np.ndarray:
    """(universe groups, len(names)) array of the named policy fields of
    each group code of ``preds``; every present group must have a policy,
    and a universe group without samples, which no row reads, gets zeros."""
    unknown = set(preds.present_groups()) - set(dp.policies)
    if unknown:
        raise GroupMismatchError(f"groups not covered by the derived predictor: {sorted(unknown)}")
    rows = []
    for g in preds.universe:
        p = dp.policies.get(g)
        rows.append([getattr(p, f) for f in names] if p is not None else [0.0] * len(names))
    return np.array(rows, dtype=np.float64)


def _fit_groups(rates: Mapping[str, GroupRateEntry]) -> tuple[str, ...]:
    """The groups of ``rates`` that have samples: at least 2, each with both classes."""
    groups = tuple(g for g, e in rates.items() if e.n_pos + e.n_neg > 0)
    if len(groups) < 2:
        raise ValidationError("equalized-odds fitting requires at least 2 groups")
    lacking = [g for g in groups if rates[g].n_pos == 0 or rates[g].n_neg == 0]
    if lacking:
        raise ValidationError(f"groups missing a class: {lacking}")
    return groups


def _common_target(rates: Mapping[str, GroupRateEntry], loss: LossSpec, regions: list[np.ndarray]) -> tuple[float, float, float]:
    """The (fpr, tpr) of least expected loss in the achievable region of
    each group of ``_fit_groups(rates)``, in order, and that loss.  Every
    region holds the diagonal, so an intersection too thin to clip falls
    back to it."""
    k_fp, k_fn = loss_coefficients(rates, loss)
    vertices = intersect_regions(regions)
    if len(vertices) == 0:
        vertices = np.array([[0.0, 0.0], [1.0, 1.0]])
    x, y = argmin_linear(vertices, k_fp, -k_fn)
    return x, y, k_fp * x + k_fn * (1.0 - y)


def fit_eo_hard(preds: LabeledPredictions, loss: LossSpec = LossSpec()) -> DerivedPredictor:
    """Fit per-group randomization of hard predictions so that derived
    tpr and fpr are exactly equal across groups, minimizing expected loss."""
    rates = confusion_rates(preds)
    groups = _fit_groups(rates)
    x, y, objective = _common_target(rates, loss, [_hard_region(rates[g].fpr, rates[g].tpr) for g in groups])
    policies: dict[str, HardGroupPolicy] = {}
    for g in groups:
        f, t = rates[g].fpr, rates[g].tpr
        det = f - t
        if abs(det) <= _DIAG_TOL:
            p0 = p1 = min(max(y, 0.0), 1.0) + 0.0
        else:
            p0 = (y * f - t * x) / det
            p1 = ((1.0 - t) * x - (1.0 - f) * y) / det
            p0 = min(max(p0, 0.0), 1.0) + 0.0  # +0.0 folds -0.0 into 0.0
            p1 = min(max(p1, 0.0), 1.0) + 0.0
        policies[g] = HardGroupPolicy(p0=p0, p1=p1)
    return DerivedPredictor(policies=policies, target=(x, y), fit_rates=rates, loss=loss, objective=objective)


def apply_hard(dp: DerivedPredictor, preds: LabeledPredictions, seed: int, *, draws: np.ndarray | None = None) -> np.ndarray:
    """Randomize base hard predictions per the fitted policies.

    Deterministic in (dp, preds, seed); per-sample draws (``apply_draws``,
    or ``draws`` if given) depend on the sample id alone.
    """
    if preds.y_hat is None:
        raise ValidationError("apply_hard requires hard predictions (y_hat)")
    p = _policy_table(dp, preds, "p0", "p1")[preds.group_codes, preds.y_hat]
    u = apply_draws("hard", seed, preds.id_column) if draws is None else draws
    return (u[:, 0] < p).astype(np.int8)


# ---------------------------------------------------------------------------
# soft variant


@dataclass(frozen=True)
class SoftGroupPolicy:
    """Randomized thresholding for one group.

    With probability ``p_coin`` the score is ignored and the output is a
    Bernoulli(coin_rate) draw; otherwise threshold ``t_lo`` is used with
    probability ``lam`` and ``t_hi`` with probability 1 - lam (predict
    positive when score >= threshold).  ``point_lo``/``point_hi`` are the
    (fpr, tpr) operating points of the two thresholds at fit time.  The
    coin is only engaged when the common target lies strictly inside the
    group's achievable region, where no two-threshold mixture can reach it.
    """

    variant: ClassVar[str] = "soft"
    t_lo: float
    t_hi: float
    lam: float
    point_lo: tuple[float, float]
    point_hi: tuple[float, float]
    p_coin: float = 0.0
    coin_rate: float = 0.0

    def __post_init__(self):
        _require_unit(self, "lam", "p_coin", "coin_rate", "point_lo", "point_hi")

    def derived_point(self, base: GroupRateEntry) -> tuple[float, float]:
        """Expected (fpr, tpr): the stored operating points mixed as fitted;
        ``base`` is not needed."""
        x = self.lam * self.point_lo[0] + (1.0 - self.lam) * self.point_hi[0]
        y = self.lam * self.point_lo[1] + (1.0 - self.lam) * self.point_hi[1]
        return (
            (1.0 - self.p_coin) * x + self.p_coin * self.coin_rate,
            (1.0 - self.p_coin) * y + self.p_coin * self.coin_rate,
        )


def _decompose_soft(
    curve_pts: np.ndarray, thresholds: np.ndarray, chain: list[int], x: float, y: float
) -> SoftGroupPolicy:
    """Express the target (x, y) as a mixture the group can realize.

    On the envelope: a two-threshold mixture.  Strictly inside: the
    envelope mixture at the same fpr blended with a Bernoulli(x) coin.
    On the diagonal: a mixture of the all-negative and all-positive
    thresholds.
    """
    if y - x <= _DIAG_TOL:
        i_zero = chain[0]  # (0, 0), never positive
        i_all = int(np.argmin(thresholds))  # (1, 1) at the lowest threshold
        lam = min(max(y, 0.0), 1.0)
        return SoftGroupPolicy(
            t_lo=float(thresholds[i_all]),
            t_hi=float(thresholds[i_zero]),
            lam=lam,
            point_lo=(float(curve_pts[i_all, 0]), float(curve_pts[i_all, 1])),
            point_hi=(float(curve_pts[i_zero, 0]), float(curve_pts[i_zero, 1])),
        )
    # locate the envelope segment covering x, taking the highest attainable y
    best = None
    for a, b in zip(chain, chain[1:]):
        xa, xb = curve_pts[a, 0], curve_pts[b, 0]
        if x < xa - 1e-12 or x > xb + 1e-12:
            continue
        if xb - xa <= 1e-15:
            top = a if curve_pts[a, 1] >= curve_pts[b, 1] else b
            cand = (1.0, top, top, float(curve_pts[top, 1]))
        else:
            lam = (x - xa) / (xb - xa)
            lam = min(max(lam, 0.0), 1.0)
            mix_y = lam * curve_pts[b, 1] + (1.0 - lam) * curve_pts[a, 1]
            cand = (lam, b, a, mix_y)
        if best is None or cand[3] > best[3]:
            best = cand
    if best is None:  # x outside the chain span; clamp to the nearest endpoint
        idx = chain[0] if x <= curve_pts[chain[0], 0] else chain[-1]
        best = (1.0, idx, idx, float(curve_pts[idx, 1]))
    lam, i_lo, i_hi, mix_y = best
    # snap near-degenerate mixtures onto the exact vertex (clipping noise)
    if lam >= 1.0 - 1e-12:
        lam, i_hi, mix_y = 1.0, i_lo, float(curve_pts[i_lo, 1])
    elif lam <= 1e-12:
        lam, i_lo, mix_y = 1.0, i_hi, float(curve_pts[i_hi, 1])
    policy = SoftGroupPolicy(
        t_lo=float(thresholds[i_lo]),
        t_hi=float(thresholds[i_hi]),
        lam=float(lam),
        point_lo=(float(curve_pts[i_lo, 0]), float(curve_pts[i_lo, 1])),
        point_hi=(float(curve_pts[i_hi, 0]), float(curve_pts[i_hi, 1])),
    )
    if mix_y <= y + _DIAG_TOL:
        return policy
    alpha = (y - x) / (mix_y - x)
    alpha = min(max(float(alpha), 0.0), 1.0)
    return replace(policy, p_coin=1.0 - alpha, coin_rate=float(x))


def _upper_envelope(hull: list[int], last: int) -> list[int]:
    """Upper chain of a CCW hull, left to right.  The hull starts at its
    lexicographically smallest point, for an ROC curve (0, 0), runs along
    the lower chain to the largest, ``last`` ((1, 1)), and comes back
    along the upper chain."""
    turn = hull.index(last)
    return [hull[0], *hull[turn:][::-1]]


def _roc_hull(pts: np.ndarray) -> list[int]:
    """CCW hull indices into an ROC curve's (fpr, tpr) points.

    Only the staircase corners go to ``convex_hull_indices``: the two end
    points and every point whose two adjacent steps are not both vertical
    or both horizontal.  A point inside a straight run lies on the segment
    between the run's ends, so it is never a strict hull vertex.  The test
    is exact on floats: equal fp (tp) counts give equal fpr (tpr).  Tied
    scores make diagonal steps, and both end points of one are corners,
    so a point where two diagonal steps of different slope meet is kept.
    The result equals the hull of the whole curve whenever the chain's
    ``EPS`` test decides every turn exactly, which holds while a group's
    n_pos * n_neg stays below about 1e12, where one count unit of turn reaches it.
    """
    moves = np.diff(pts, axis=0) != 0.0  # does each step move in fpr, in tpr
    inner = (moves[:-1] | moves[1:]).all(axis=1)
    corners = np.flatnonzero(np.concatenate(([True], inner, [True])))
    return corners[convex_hull_indices(pts[corners])].tolist()


def fit_eo_soft(preds: LabeledPredictions, loss: LossSpec = LossSpec()) -> DerivedPredictor:
    """Fit per-group randomized thresholds on scores so that derived tpr
    and fpr are exactly equal across groups, minimizing expected loss.

    Each group's achievable region is the convex hull of its ROC curve,
    built from the curve's staircase corners only (``_roc_hull``)."""
    if preds.scores is None:
        raise ValidationError("fit_eo_soft requires scores")
    # the score column's one sort, for every group's counts and curve
    by_code = _counts_by_code(preds.scores, preds.y_true, _descending(preds.scores), preds.group_codes)
    by_group = {preds.universe[code]: c for code, c in by_code}
    counts = {
        g: GroupRateEntry(tpr=None, tnr=None, fpr=None, fnr=None, n_pos=int(tp[-1]), n_neg=int(fp[-1]))
        for g, (_, tp, fp) in by_group.items()
    }
    curves: dict[str, tuple[np.ndarray, np.ndarray, list[int]]] = {}
    for g in _fit_groups(counts):
        curve = _roc(*by_group.pop(g))  # each group's counts or its curve, not both
        pts = np.column_stack((curve.fpr, curve.tpr))
        curves[g] = (pts, np.minimum(curve.thresholds, _NEVER_POSITIVE), _roc_hull(pts))
    x, y, objective = _common_target(counts, loss, [pts[hull] for pts, _, hull in curves.values()])
    policies = {
        g: _decompose_soft(pts, thresholds, _upper_envelope(hull, len(pts) - 1), x, y)
        for g, (pts, thresholds, hull) in curves.items()
    }
    return DerivedPredictor(policies=policies, target=(x, y), fit_rates=counts, loss=loss, objective=objective)


def apply_soft(dp: DerivedPredictor, preds: LabeledPredictions, seed: int, *, draws: np.ndarray | None = None) -> np.ndarray:
    """Apply the fitted randomized-threshold policies to scores.

    Deterministic in (dp, preds, seed); per-sample draws (``apply_draws``,
    or ``draws`` if given) depend on the sample id alone, so row order does
    not matter.  Every row follows one rule: a degenerate single-threshold
    policy (no coin, ``lam`` 0 or 1, or equal thresholds) reads its draws
    and gives plain thresholding, since every draw lies in [0, 1).
    """
    if preds.scores is None:
        raise ValidationError("apply_soft requires scores")
    t_lo, t_hi, lam, p_coin, coin_rate = _policy_table(dp, preds, "t_lo", "t_hi", "lam", "p_coin", "coin_rate").T
    u_sel, u_coin, u_mix = (apply_draws("soft", seed, preds.id_column) if draws is None else draws).T
    g = preds.group_codes
    out = np.where(u_sel < p_coin[g], u_coin < coin_rate[g], preds.scores >= np.where(u_mix < lam[g], t_lo[g], t_hi[g]))
    return out.astype(np.int8)


# ---------------------------------------------------------------------------
# the derived predictor and its JSON form


@dataclass(frozen=True)
class DerivedPredictor:
    """Per-group policies achieving a common (fpr, tpr).  The variant
    follows from the policy type: hard policies randomize base
    predictions, soft ones mix score thresholds."""

    policies: Mapping[str, HardGroupPolicy | SoftGroupPolicy]
    target: tuple[float, float]
    fit_rates: Mapping[str, GroupRateEntry]
    loss: LossSpec
    objective: float

    def __post_init__(self):
        object.__setattr__(self, "policies", dict(self.policies))
        if len({type(p) for p in self.policies.values()}) != 1:
            raise ValidationError("a derived predictor needs policies of exactly one variant")
        _require_unit(self, "target")

    @property
    def groups(self) -> tuple[str, ...]:
        return tuple(self.policies)

    @property
    def variant(self) -> str:
        return next(iter(self.policies.values())).variant

    def to_dict(self) -> dict:
        """The JSON form, as the ``_HardForm`` or ``_SoftForm`` that ``from_dict`` loads."""
        form = _SoftForm if self.variant == "soft" else _HardForm
        return asdict(form(
            variant=self.variant, target=_Target(*self.target), objective=self.objective, loss=self.loss,
            fit_rates=dict(self.fit_rates), groups=dict(sorted(self.policies.items())),
        ))

    @staticmethod
    def from_dict(d: Mapping) -> "DerivedPredictor":
        """Inverse of ``to_dict``.  A missing, unknown or ill-typed field
        raises FormatError naming its path, e.g. ``groups.A.p0``."""
        soft = isinstance(d, Mapping) and d.get("variant") == "soft"
        doc = schema.load(_SoftForm if soft else _HardForm, d, "derived predictor")
        return DerivedPredictor(
            policies=doc.groups,
            target=(doc.target.fpr, doc.target.tpr),
            fit_rates=doc.fit_rates,
            loss=doc.loss,
            objective=doc.objective,
        )


@dataclass(frozen=True)
class _Target:
    fpr: float
    tpr: float


@dataclass(frozen=True)
class _HardForm:
    """The JSON form of a hard DerivedPredictor, key for key."""

    variant: Literal["hard", "soft"]
    target: _Target
    objective: float
    loss: LossSpec
    fit_rates: Mapping[str, GroupRateEntry]
    groups: Mapping[str, HardGroupPolicy]


@dataclass(frozen=True)
class _SoftForm(_HardForm):
    groups: Mapping[str, SoftGroupPolicy]


# ---------------------------------------------------------------------------
# expectations


def expected_rates(
    dp: DerivedPredictor, base_rates: Mapping[str, GroupRateEntry] | None = None
) -> dict[str, GroupRateEntry]:
    """Closed-form expected derived rates per group.

    For a hard predictor the expectation is taken over the given base
    rates (defaulting to the fit-time rates); for a soft predictor it
    follows from the stored operating points, and ``base_rates`` only
    supplies group counts.
    """
    rates = base_rates if base_rates is not None else dp.fit_rates
    missing = [g for g in dp.groups if g not in rates]
    if missing:
        raise GroupMismatchError(f"base rates missing groups: {missing}")
    out: dict[str, GroupRateEntry] = {}
    for g in dp.groups:
        base = rates[g]
        fpr, tpr = dp.policies[g].derived_point(base)
        out[g] = GroupRateEntry(
            tpr=tpr, tnr=1.0 - fpr, fpr=fpr, fnr=1.0 - tpr, n_pos=base.n_pos, n_neg=base.n_neg
        )
    return out


def expected_loss(dp: DerivedPredictor, loss: LossSpec | None = None) -> float:
    """Expected loss of the derived predictor under its fit-time frequencies."""
    return expected_loss_of_rates(expected_rates(dp), loss if loss is not None else dp.loss)

