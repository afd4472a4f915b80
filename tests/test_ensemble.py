import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from equifair import (
    CohortConfig,
    EnsembleModel,
    ValidationError,
    auc_roc,
    fit_ensemble,
    generate_cohort,
    predict_proba,
)
from equifair import ensemble
from equifair.ensemble import sigmoid

from helpers import logistic_loss_and_grad
from oracles import fit_ensemble_oracle, sigmoid_oracle


def fd_gradient(x, y, w, b, C, h=1e-5):
    """Central finite differences of the objective."""
    grads = []
    for j in range(len(w)):
        wp, wm = w.copy(), w.copy()
        wp[j] += h
        wm[j] -= h
        lp = logistic_loss_and_grad(x, y, wp, b, C)[0]
        lm = logistic_loss_and_grad(x, y, wm, b, C)[0]
        grads.append((lp - lm) / (2 * h))
    lp = logistic_loss_and_grad(x, y, w, b + h, C)[0]
    lm = logistic_loss_and_grad(x, y, w, b - h, C)[0]
    return np.array(grads), (lp - lm) / (2 * h)


class TestFitEnsemble:
    def test_symmetric_separable_data_centers_at_half(self):
        x = np.array([[0.1], [0.2], [0.3], [0.7], [0.8], [0.9]])
        y = np.array([0, 0, 0, 1, 1, 1])
        model = fit_ensemble(x, y, C=1.0)
        assert model.converged
        assert model.weights[0] > 0
        midpoint = -model.intercept / model.weights[0]
        assert midpoint == pytest.approx(0.5, abs=1e-6)
        assert predict_proba(model, np.array([[0.5]]))[0] == pytest.approx(0.5, abs=1e-9)

    def test_gradient_matches_central_finite_differences(self):
        rng = np.random.default_rng(12)
        x = rng.random((60, 2))
        y = (rng.random(60) < 0.5).astype(float)
        w = np.array([0.4, -0.9])
        b = 0.15
        _, gw, gb = logistic_loss_and_grad(x, y, w, b, 1.0)
        fw, fb = fd_gradient(x, y, w, b, 1.0)
        np.testing.assert_allclose(gw, fw, atol=1e-6)
        assert gb == pytest.approx(fb, abs=1e-6)

    def test_default_inverse_regularization_is_one(self):
        import inspect

        assert inspect.signature(fit_ensemble).parameters["C"].default == 1.0

    def test_loss_decreases_monotonically(self):
        cohort = generate_cohort(CohortConfig(n_samples=400, seed=3, positive_rate=0.3))
        preds = cohort.modalities[0]
        model = fit_ensemble(preds.scores[:, None], preds.y_true)
        hist = model.loss_history
        assert all(b < a for a, b in zip(hist, hist[1:]))

    def test_single_class_rejected(self):
        with pytest.raises(ValidationError):
            fit_ensemble(np.array([[0.1], [0.9]]), np.array([1, 1]))

    def test_feature_range_enforced(self):
        with pytest.raises(ValidationError):
            fit_ensemble(np.array([[1.5], [0.2]]), np.array([1, 0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            fit_ensemble(np.array([[np.nan], [0.2]]), np.array([1, 0]))

    @pytest.mark.parametrize("C", [float("nan"), float("inf"), 0.0, -1.0])
    def test_inverse_regularization_must_be_finite_and_positive(self, C):
        with pytest.raises(ValidationError, match="C must be finite and positive"):
            fit_ensemble(np.array([[0.8], [0.2]]), np.array([1, 0]), C=C)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        x = rng.random((100, 3))
        y = (x.sum(axis=1) > 1.4).astype(int)
        m1 = fit_ensemble(x, y)
        m2 = fit_ensemble(x, y)
        np.testing.assert_array_equal(m1.weights, m2.weights)
        assert m1.intercept == m2.intercept

    def test_separable_weights_stay_finite_under_regularization(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([0, 0, 1, 1])
        model = fit_ensemble(x, y, C=1.0)
        assert np.isfinite(model.weights).all()
        assert abs(model.weights[0]) < 1e3


@st.composite
def ensemble_cases(draw):
    """(features, labels, C) of a valid fit: continuous or coarse (tied)
    features, and labels random or separable on the first feature."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, k = draw(st.integers(2, 300)), draw(st.integers(1, 4))
    x = rng.random((n, k))
    if draw(st.booleans()):
        x = np.round(x, 1)
    if draw(st.booleans()):
        y = (x[:, 0] > x[0, 0]).astype(np.int8)
        y[0], y[-1] = 0, 1
        x[-1, 0] = 1.0
    else:
        y = (rng.random(n) < draw(st.floats(0.05, 0.95))).astype(np.int8)
        y[:2] = (0, 1)
    return x, y, draw(st.sampled_from([0.01, 1.0, 100.0]))


class TestFitEnsembleOracle:
    @staticmethod
    def _assert_bit_equal(model, x, y, C):
        weights, intercept, n_iter, grad_norm, history = fit_ensemble_oracle(x, y, C)
        assert model.weights.tobytes() == weights.tobytes()
        assert (model.intercept.hex(), model.n_iter, model.grad_norm.hex()) == (intercept.hex(), n_iter, grad_norm.hex())
        assert [v.hex() for v in model.loss_history] == [v.hex() for v in history]

    @settings(max_examples=200, deadline=None)
    @given(ensemble_cases())
    def test_fit_is_bit_equal_to_the_oracle(self, case):
        # each Newton step reuses the accepted step's probabilities instead
        # of recomputing them; every fitted number keeps its bits
        x, y, C = case
        self._assert_bit_equal(fit_ensemble(x, y, C=C), x, y, C)

    def test_a_damped_step_is_bit_equal_to_the_oracle(self, monkeypatch):
        # nearly separable and weakly regularized: one full Newton step
        # overshoots, and the fit halves it
        x, y, C = np.array([[0.5], [0.51], [0.46]]), np.array([1, 1, 0]), 836.0
        evaluations, loss_grad_p = [], ensemble._loss_grad_p
        monkeypatch.setattr(ensemble, "_loss_grad_p", lambda *args: evaluations.append(args) or loss_grad_p(*args))
        model = fit_ensemble(x, y, C=C)
        # one objective evaluation per accepted step and the start, one more per rejected trial
        assert model.converged and len(evaluations) == len(model.loss_history) + 1
        self._assert_bit_equal(model, x, y, C)


# both zeros, subnormal and tiny values, exp's overflow edge (about 709.8)
# and underflow edge (about -745.1), and far past both
SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 709.0, 710.0, -709.0, -710.0, 745.0, -745.0, 746.0, -746.0, 800.0, -800.0]


class TestSigmoid:
    """``sigmoid`` computes one e^-|z| for both signs; the masked halves it
    replaced are the oracle, bit for bit on every non-NaN input (a NaN,
    which no fitted model or checked feature gives, stays NaN but may
    change its sign bit)."""

    @settings(max_examples=200, deadline=None)
    @given(
        arrays(
            np.float64,
            st.integers(0, 40),
            elements=st.floats(-40, 40) | st.floats(allow_nan=False) | st.sampled_from(SIGMOID_EDGES),
        )
    )
    def test_bit_equal_to_the_oracle(self, z):
        got, want = sigmoid(z), sigmoid_oracle(z)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_edges_and_a_scalar(self):
        z = np.array(SIGMOID_EDGES + [np.inf, -np.inf])
        assert sigmoid(z).tobytes() == sigmoid_oracle(z).tobytes()
        assert sigmoid(2.5).tobytes() == sigmoid_oracle(2.5).tobytes()


class TestPredictProba:
    def test_zero_model_is_half(self):
        model = EnsembleModel(weights=np.zeros(2), intercept=0.0, C=1.0, n_iter=0, grad_norm=0.0, converged=True)
        out = predict_proba(model, np.array([[0.3, 0.9], [0.0, 0.0]]))
        np.testing.assert_allclose(out, 0.5)

    def test_dead_feature_keeps_half(self):
        model = EnsembleModel(weights=np.array([1.0, 0.0]), intercept=0.0, C=1.0, n_iter=0, grad_norm=0.0, converged=True)
        out = predict_proba(model, np.array([[0.0, 0.77], [0.0, 0.11]]))
        np.testing.assert_allclose(out, 0.5)

    def test_strictly_inside_unit_interval(self):
        model = EnsembleModel(weights=np.array([8.0]), intercept=-4.0, C=1.0, n_iter=0, grad_norm=0.0, converged=True)
        out = predict_proba(model, np.linspace(0, 1, 50)[:, None])
        assert (out > 0.0).all() and (out < 1.0).all()

    def test_negation_symmetry(self):
        rng = np.random.default_rng(4)
        x = rng.random((30, 2))
        model = EnsembleModel(weights=np.array([2.0, -1.0]), intercept=0.3, C=1.0, n_iter=0, grad_norm=0.0, converged=True)
        negated = EnsembleModel(weights=-model.weights, intercept=-model.intercept, C=1.0, n_iter=0, grad_norm=0.0, converged=True)
        np.testing.assert_allclose(predict_proba(negated, x), 1.0 - predict_proba(model, x), atol=1e-12)

    def test_monotone_in_positive_weight_feature(self):
        model = EnsembleModel(weights=np.array([3.0]), intercept=-1.0, C=1.0, n_iter=0, grad_norm=0.0, converged=True)
        out = predict_proba(model, np.linspace(0, 1, 20)[:, None])
        assert (np.diff(out) > 0).all()

    def test_arity_mismatch(self):
        model = EnsembleModel(weights=np.array([1.0, 2.0]), intercept=0.0, C=1.0, n_iter=0, grad_norm=0.0, converged=True)
        with pytest.raises(ValidationError):
            predict_proba(model, np.array([[0.5]]))


class TestComplementarySignals:
    def test_ensemble_lift_over_constituents(self):
        cfg = CohortConfig(
            groups={"A": 0.5, "B": 0.5},
            positive_rate=0.4,
            n_samples=3000,
            seed=9,
            modality_windows=((0.0, 0.5), (0.5, 1.0)),
        )
        m0, m1 = generate_cohort(cfg).modalities
        features = np.column_stack([m0.scores, m1.scores])
        model = fit_ensemble(features, m0.y_true, C=1.0)
        combined = predict_proba(model, features)
        auc_each = [auc_roc(m.scores, m.y_true) for m in (m0, m1)]
        assert auc_roc(combined, m0.y_true) >= max(auc_each) + 0.02
