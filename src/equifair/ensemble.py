"""Score-level ensembling via L2-regularized logistic regression.

Features are the constituent models' predicted probabilities.  The fit
minimizes mean logistic loss plus ||w||^2 / (2*C*n) with the intercept
unpenalized (C is inverse regularization strength, default 1.0), using
damped Newton steps started from zero; it stops where no step size lowers
the objective.  The fit is deterministic.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ValidationError
from .predictions import _owned, as_binary, as_probabilities

GRAD_TOL = 1e-8
MAX_ITER = 100


def sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Numerically stable logistic function, from one e^-|z| for either
    sign; into ``out`` if given, which may be ``z`` itself."""
    z = np.asarray(z, dtype=np.float64)
    pos = z >= 0
    e = np.abs(z, out=np.empty_like(z) if out is None else out)
    np.exp(np.negative(e, out=e), out=e)
    denom = 1.0 + e
    np.copyto(e, 1.0, where=pos)
    e /= denom
    return e


@dataclass(frozen=True)
class EnsembleModel:
    """Fitted logistic combiner over constituent probabilities.  The
    weights are read-only, and an array its caller passed is copied unless
    it is read-only all the way down."""

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
        object.__setattr__(self, "weights", _owned(w, self.weights))

    @property
    def n_features(self) -> int:
        return self.weights.shape[0]

    def to_dict(self) -> dict:
        """The JSON form: every field but ``loss_history``."""
        d = asdict(self)
        del d["loss_history"]
        return {**d, "weights": self.weights.tolist()}


def _check_features(features, n_expected: int | None = None) -> np.ndarray:
    x = as_probabilities(features, "features")
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValidationError("features must be a non-empty (n, k) matrix")
    if n_expected is not None and x.shape[1] != n_expected:
        raise ValidationError(f"expected {n_expected} features, got {x.shape[1]}")
    return x


def _loss_grad_p(x, y, weights, intercept, C, p, scratch) -> tuple[float, np.ndarray, float, np.ndarray]:
    """Objective value, its gradient in (weights, intercept), and the
    probabilities p computed on the way, into the n-row ``p``, through the
    two n-row ``scratch`` buffers."""
    n = x.shape[0]
    z, r = scratch
    np.matmul(x, weights, out=z)
    z += intercept
    p = sigmoid(z, out=p)
    # log(1 + e^z) - y*z, computed stably via logaddexp
    np.logaddexp(0.0, z, out=r)
    r -= np.multiply(y, z, out=z)
    loss = float(np.mean(r)) + float(weights @ weights) / (2.0 * C * n)
    resid = np.subtract(p, y, out=r)
    grad_w = x.T @ resid / n + weights / (C * n)
    grad_b = float(np.mean(resid))
    return loss, grad_w, grad_b, p


def check_C(C: float) -> None:
    """Raise unless the inverse regularization strength is finite and positive."""
    if not (C > 0 and np.isfinite(C)):
        raise ValidationError(f"C must be finite and positive, got {C}")


def fit_ensemble(features, y_true, C: float = 1.0) -> EnsembleModel:
    """Fit the logistic combiner.

    Refuses features that are not finite reals in [0, 1] (they are
    probabilities), labels other than 0 and 1, and a single class.
    Converges to gradient norm <= 1e-8 via damped Newton iterations, or
    stops, unconverged, where no halving of the step lowers the objective."""
    x = _check_features(features)
    y = as_binary(y_true, "labels").ravel().astype(np.float64)  # the Newton steps take float64 labels
    if y.shape[0] != x.shape[0]:
        raise ValidationError("features and labels must have equal length")
    if y.min() == y.max():
        raise ValidationError("fit requires both classes present")
    check_C(C)

    n, k = x.shape
    w = np.zeros(k)
    b = 0.0
    # n-row buffers: the accepted and the trial step's probabilities, and scratch
    p, p_new, *scratch = np.empty((4, n))
    loss, grad_w, grad_b, p = _loss_grad_p(x, y, w, b, C, p, scratch)
    history = [loss]
    n_iter = 0
    for n_iter in range(1, MAX_ITER + 1):
        grad = np.append(grad_w, grad_b)
        grad_norm = float(np.linalg.norm(grad))
        if grad_norm <= GRAD_TOL:
            break
        s = np.multiply(p, np.subtract(1.0, p, out=scratch[0]), out=scratch[0])  # p of the accepted (w, b)
        xs = x * s[:, None]
        hess = np.empty((k + 1, k + 1))
        hess[:k, :k] = x.T @ xs / n + np.eye(k) / (C * n)
        hess[:k, k] = xs.sum(axis=0) / n
        hess[k, :k] = hess[:k, k]
        hess[k, k] = float(np.mean(s))
        del xs
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            step = -grad
        # damping: halve until the objective decreases
        t = 1.0
        for _ in range(50):
            w_new = w + t * step[:k]
            b_new = b + t * step[k]
            loss_new, gw_new, gb_new, p_new = _loss_grad_p(x, y, w_new, b_new, C, p_new, scratch)
            if loss_new < loss:
                w, b, loss, grad_w, grad_b, p, p_new = w_new, b_new, loss_new, gw_new, gb_new, p_new, p
                history.append(loss)
                break
            t *= 0.5
        else:
            break  # no step size lowers the objective; the gradient is numerically flat
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
    """Sigmoid of the fitted affine combination, per sample; refuses the
    features ``fit_ensemble`` refuses."""
    z = _check_features(features, n_expected=model.n_features) @ model.weights
    z += model.intercept
    return sigmoid(z, out=z)
