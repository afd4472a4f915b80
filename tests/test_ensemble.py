import numpy as np
import pytest

from equifair import (
    CohortConfig,
    EnsembleModel,
    ValidationError,
    auc_roc,
    fit_ensemble,
    generate_cohort,
    predict_proba,
)
from equifair.ensemble import logistic_loss_and_grad


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
