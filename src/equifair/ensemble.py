"""Score-level ensembling via L2-regularized logistic regression.

Features are the constituent models' predicted probabilities.  The fit
minimizes mean logistic loss plus ||w||^2 / (2*C*n) with the intercept
unpenalized (C is inverse regularization strength, default 1.0), using
damped Newton steps with a gradient-descent fallback, started from zero.
The fit is deterministic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError

GRAD_TOL = 1e-8
MAX_ITER = 100


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@dataclass(frozen=True)
class EnsembleModel:
    """Fitted logistic combiner over constituent probabilities."""

    weights: np.ndarray
    intercept: float
    C: float
    n_iter: int
    grad_norm: float
    converged: bool
    loss_history: tuple[float, ...] = ()

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if not np.isfinite(w).all() or not np.isfinite(self.intercept):
            raise ValidationError("model parameters must be finite")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    def to_dict(self) -> dict:
        """The JSON form: every field but ``loss_history``."""
        d = asdict(self)
        del d["loss_history"]
        return {**d, "weights": self.weights.tolist()}


def _check_features(features, n_expected: int | None = None) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError("features must be a non-empty (n, k) matrix")
    if not np.isfinite(x).all():
        raise ValidationError("features must be finite")
    if n_expected is not None and x.shape[1] != n_expected:
        raise ValidationError(f"expected {n_expected} features, got {x.shape[1]}")
    return x


def logistic_loss_and_grad(
    x: np.ndarray, y: np.ndarray, weights: np.ndarray, intercept: float, C: float
) -> tuple[float, np.ndarray, float]:
    """Objective value and its gradient in (weights, intercept)."""
    n = x.shape[0]
    z = x @ weights + intercept
    p = sigmoid(z)
    # log(1 + e^z) - y*z, computed stably via logaddexp
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z)) + float(weights @ weights) / (2.0 * C * n)
    resid = p - y
    grad_w = x.T @ resid / n + weights / (C * n)
    grad_b = float(np.mean(resid))
    return loss, grad_w, grad_b


def fit_ensemble(features, y_true, C: float = 1.0) -> EnsembleModel:
    """Fit the logistic combiner.

    Features must lie in [0, 1] (they are probabilities) and both classes
    must be present.  Converges to gradient norm <= 1e-8 via damped Newton
    iterations; if a Newton direction fails to decrease the objective, the
    step falls back to backtracked gradient descent.
    """
    x = _check_features(features)
    y = np.asarray(y_true).ravel().astype(np.float64)
    if y.shape[0] != x.shape[0]:
        raise ValidationError("features and labels must have equal length")
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValidationError("labels must be binary")
    if y.min() == y.max():
        raise ValidationError("fit requires both classes present")
    if x.min() < 0.0 or x.max() > 1.0:
        raise ValidationError("features must lie in [0, 1]")
    if not C > 0:
        raise ValidationError("C must be positive")

    n, k = x.shape
    w = np.zeros(k)
    b = 0.0
    loss, grad_w, grad_b = logistic_loss_and_grad(x, y, w, b, C)
    history = [loss]
    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        grad = np.append(grad_w, grad_b)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= GRAD_TOL:
            break
        p = sigmoid(x @ w + b)
        s = p * (1.0 - p)
        xs = x * s[:, None]
        hess = np.empty((k + 1, k + 1))
        hess[:k, :k] = x.T @ xs / n + np.eye(k) / (C * n)
        hess[:k, k] = xs.sum(axis=0) / n
        hess[k, :k] = hess[:k, k]
        hess[k, k] = float(np.mean(s))
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        # damping: halve until the objective decreases, else steepest descent
        for trial in (step, -grad):
            t = 1.0
            accepted = False
            for _ in range(50):
                w_new = w + t * trial[:k]
                b_new = b + t * trial[k]
                loss_new, gw_new, gb_new = logistic_loss_and_grad(x, y, w_new, b_new, C)
                if loss_new < loss:
                    w, b, loss, grad_w, grad_b = w_new, b_new, loss_new, gw_new, gb_new
                    history.append(loss)
                    accepted = True
                    break
                t *= 0.5
            if accepted:
                break
        else:
            break  # no direction makes progress; gradient is numerically flat
    grad_norm = float(np.linalg.norm(np.append(grad_w, grad_b)))
    return EnsembleModel(
        weights=w,
        intercept=b,
        C=C,
        n_iter=n_iter,
        grad_norm=grad_norm,
        converged=grad_norm <= GRAD_TOL,
        loss_history=tuple(history),
    )


def predict_proba(model: EnsembleModel, features) -> np.ndarray:
    """Sigmoid of the fitted affine combination, per sample."""
    x = _check_features(features, n_expected=model.n_features)
    return sigmoid(x @ model.weights + model.intercept)
