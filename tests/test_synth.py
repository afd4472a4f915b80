import hashlib
import math
from dataclasses import replace
from statistics import NormalDist

import numpy as np
import pytest

from equifair import (
    CohortConfig,
    EmbeddingPlantConfig,
    ValidationError,
    confusion_rates,
    generate_cohort,
    generate_embeddings,
    identify_subspace,
)
from equifair.synth import (
    ETHNICITY_PROPORTIONS,
    GROUP_PRESETS,
    SEX_PROPORTIONS,
    ScoreModel,
    _cohort_ids,
    gapped_score_models,
)
from equifair.wordsets import GENDER_SETS, RACE_SETS

from oracles import cohort_oracle, format_embeddings_oracle

STANDARD_NORMAL = NormalDist()


class TestCohortConfig:
    def test_defaults(self):
        cfg = CohortConfig()
        assert cfg.groups == {"F": 0.440, "M": 0.560}
        assert cfg.positive_rate == 0.131

    def test_proportions_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            CohortConfig(groups={"a": 0.5, "b": 0.6})

    @pytest.mark.parametrize("share", [float("nan"), float("inf")])
    def test_non_finite_proportion_is_rejected(self, share):
        with pytest.raises(ValidationError, match="finite"):
            CohortConfig(groups={"a": share, "b": 0.5})

    @pytest.mark.parametrize("field", ["mu_neg", "mu_pos", "sigma_neg", "sigma_pos"])
    def test_non_finite_score_model_is_rejected(self, field):
        with pytest.raises(ValidationError, match="finite"):
            ScoreModel(**{field: float("nan")})


class TestGenerateCohort:
    @pytest.mark.parametrize("n", [1, 7, 10**6 + 2])
    def test_ids_are_the_formatted_row_numbers(self, n):
        """The id column equals the f-string ids the cohort used to build,
        past 10**6 too, where the numbers outgrow six digits."""
        assert _cohort_ids("pé", n).tolist() == [f"pé{i:06d}" for i in range(n)]

    def test_prefix_that_utf8_cannot_encode_rejected(self):
        with pytest.raises(ValidationError, match="^sample ids must be encodable as UTF-8$"):
            generate_cohort(CohortConfig(n_samples=10, id_prefix="\ud800"))

    def test_same_seed_identical_output(self):
        cfg = CohortConfig(n_samples=500, seed=11)
        a = generate_cohort(cfg).modalities[0]
        b = generate_cohort(cfg).modalities[0]
        assert a.ids == b.ids and a.groups == b.groups
        np.testing.assert_array_equal(a.scores, b.scores)
        np.testing.assert_array_equal(a.y_true, b.y_true)

    def test_different_seed_differs(self):
        a = generate_cohort(CohortConfig(n_samples=500, seed=1)).modalities[0]
        b = generate_cohort(CohortConfig(n_samples=500, seed=2)).modalities[0]
        assert not np.array_equal(a.scores, b.scores)

    def test_group_proportions_concentrate(self):
        n = 100_000
        cfg = CohortConfig(groups=ETHNICITY_PROPORTIONS, n_samples=n, seed=13)
        preds = generate_cohort(cfg).modalities[0]
        counts = {g: preds.groups.count(g) for g in ETHNICITY_PROPORTIONS}
        for g, p in ETHNICITY_PROPORTIONS.items():
            tol = 3 * np.sqrt(p * (1 - p) / n)
            assert abs(counts[g] / n - p) <= tol

    def test_positive_rate_concentrates(self):
        n = 100_000
        preds = generate_cohort(CohortConfig(n_samples=n, seed=14)).modalities[0]
        rate = preds.y_true.mean()
        assert abs(rate - 0.131) <= 3 * np.sqrt(0.131 * 0.869 / n)

    @pytest.mark.parametrize("windows", [((0.0, 1.0),), ((0.0, 0.6), (0.3, 1.0))], ids=["one-window", "two-windows"])
    @pytest.mark.parametrize("calibrated", [False, True], ids=["plain", "calibrated"])
    @pytest.mark.parametrize("preset", sorted(GROUP_PRESETS))
    def test_equals_the_group_mask_oracle(self, preset, calibrated, windows):
        groups = GROUP_PRESETS[preset]
        models = gapped_score_models(groups)
        if not calibrated:  # class scales that differ by group and class; calibration needs them equal
            models = {g: replace(m, sigma_neg=0.8 + 0.1 * i, sigma_pos=1.3 - 0.1 * i) for i, (g, m) in enumerate(models.items())}
        cfg = CohortConfig(
            groups=groups, score_models=models, n_samples=3000, seed=21, modality_windows=windows, calibrated=calibrated
        )
        modalities = generate_cohort(cfg).modalities
        codes, y, scores = cohort_oracle(cfg)
        assert len(modalities) == len(scores) == len(windows)
        for preds, want in zip(modalities, scores):
            np.testing.assert_array_equal(preds.group_codes, codes)
            np.testing.assert_array_equal(preds.y_true, y)
            np.testing.assert_array_equal(preds.scores.view(np.int64), want.view(np.int64))

    def test_hard_labels_threshold_half(self):
        preds = generate_cohort(CohortConfig(n_samples=300, seed=5)).modalities[0]
        np.testing.assert_array_equal(preds.y_hat, (preds.scores >= 0.5).astype(np.int8))

    def test_empirical_rates_near_analytic(self):
        groups = {"A": 0.5, "B": 0.5}
        cfg = CohortConfig(
            groups=groups,
            positive_rate=0.4,
            score_models=gapped_score_models(groups, 0.6, 0.85, 0.15),
            n_samples=60_000,
            seed=15,
        )
        cohort = generate_cohort(cfg)
        rates = confusion_rates(cohort.modalities[0])
        for g in groups:
            e = rates[g]
            ana = cohort.analytic_rates[g]
            assert abs(e.tpr - ana["tpr"]) <= 3 * np.sqrt(ana["tpr"] * (1 - ana["tpr"]) / e.n_pos)
            assert abs(e.fpr - ana["fpr"]) <= 3 * np.sqrt(ana["fpr"] * (1 - ana["fpr"]) / e.n_neg)

    def test_uninformative_window_has_chance_auc(self):
        from equifair import auc_roc

        cfg = CohortConfig(
            groups={"A": 1.0},
            positive_rate=0.5,
            n_samples=20_000,
            seed=16,
            modality_windows=((0.0, 0.0),),  # never informative
        )
        preds = generate_cohort(cfg).modalities[0]
        assert abs(auc_roc(preds.scores, preds.y_true) - 0.5) < 0.02

    def test_sidecar_contains_analytic_rates(self, tmp_path):
        import json

        from equifair.cli import main

        assert main(["synth", "--n", "50", "--seed", "2", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "analytic_rates.json").read_text())
        assert set(doc["analytic_rates"]) == set(SEX_PROPORTIONS)
        assert doc["config"]["seed"] == 2


class TestScoreModels:
    def test_analytic_rates_are_gaussian_tails(self):
        m = ScoreModel(mu_neg=-1.0, mu_pos=2.0, sigma_neg=2.0, sigma_pos=1.0)
        assert m.analytic_tpr() == pytest.approx(STANDARD_NORMAL.cdf(2.0))
        assert m.analytic_fpr() == pytest.approx(STANDARD_NORMAL.cdf(-0.5))

    def test_analytic_rates_keep_the_erf_expression(self):
        """Phi is computed as it was before NormalDist, bit for bit."""
        for x in np.linspace(-9.0, 9.0, 1001):
            assert STANDARD_NORMAL.cdf(x) == 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    @pytest.mark.parametrize(
        "rates, field, probit",
        [
            # Phi^-1 of the float p, from mpmath at 50 digits
            ({"fpr": 1e-12}, "mu_neg", -7.034483825301132),
            ({"tpr_low": 1 - 1e-6, "tpr_high": 1 - 1e-6}, "mu_pos", 4.753424308817087),
        ],
        ids=["fpr-1e-12", "tpr-1-1e-6"],
    )
    def test_planted_means_are_exact_in_the_tails(self, rates, field, probit):
        """The planted means are Phi^-1 of the rates to within 4 ulps, also
        where a Newton-refined rational start was off by 3.1e-6 (1e-12)
        and 1.2e-11 (1 - 1e-6)."""
        mean = getattr(gapped_score_models({"a": 1.0}, **rates)["a"], field)
        assert abs(mean - probit) <= 4 * math.ulp(probit)

    def test_gapped_models_hit_requested_rates(self):
        models = gapped_score_models({"a": 0.5, "b": 0.5}, tpr_low=0.6, tpr_high=0.85, fpr=0.15)
        assert models["a"].analytic_tpr() == pytest.approx(0.60, abs=1e-9)
        assert models["b"].analytic_tpr() == pytest.approx(0.85, abs=1e-9)
        assert models["a"].analytic_fpr() == pytest.approx(0.15, abs=1e-9)


class TestGenerateEmbeddings:
    def test_noiseless_recovery_is_exact(self):
        cfg = EmbeddingPlantConfig(equality_sets=GENDER_SETS, vocab_size=50, dim=25, noise=0.0, seed=3)
        emb, sets, planted = generate_embeddings(cfg)
        sub = identify_subspace(emb, sets, k=1)
        assert abs(float(sub.basis[0] @ planted.basis[0])) == pytest.approx(1.0, abs=1e-9)

    def test_noisy_recovery(self):
        cfg = EmbeddingPlantConfig(equality_sets=GENDER_SETS, vocab_size=50, dim=25, noise=0.01, seed=4)
        emb, sets, planted = generate_embeddings(cfg)
        sub = identify_subspace(emb, sets, k=1)
        assert abs(float(sub.basis[0] @ planted.basis[0])) >= 0.99

    def test_four_class_three_direction_recovery(self):
        quads = (("q1", "q2", "q3", "q4"), ("q5", "q6", "q7", "q8"), ("q9", "q10", "q11", "q12"))
        cfg = EmbeddingPlantConfig(equality_sets=quads, vocab_size=30, dim=20, noise=0.01, seed=5, n_directions=3)
        emb, sets, planted = generate_embeddings(cfg)
        sub = identify_subspace(emb, sets, k=3)
        principal_cosines = np.linalg.svd(sub.basis @ planted.basis.T, compute_uv=False)
        assert np.prod(principal_cosines) >= 0.98

    @pytest.mark.parametrize("noise, seed, bound", [(0.0, 1, 1e-8), (0.01, 1, 0.15), (0.01, 2, 0.15), (0.01, 3, 0.15)])
    def test_sets_sharing_words_recover_their_subspace(self, noise, seed, bound):
        """The race sets share words, so they share one centre and differ
        only along the planted directions: debiasing recovers them."""
        cfg = EmbeddingPlantConfig(equality_sets=RACE_SETS, vocab_size=50, dim=25, noise=noise, seed=seed)
        emb, sets, planted = generate_embeddings(cfg)
        sub = identify_subspace(emb, sets, k=3)
        # sines of the principal angles, exact for small angles where cosines are not
        sines = np.linalg.svd(sub.basis - (sub.basis @ planted.basis.T) @ planted.basis, compute_uv=False)
        assert np.arcsin(np.clip(sines, 0.0, 1.0)).max() <= bound

    def test_disjoint_sets_keep_their_bytes(self):
        cfg = EmbeddingPlantConfig(equality_sets=GENDER_SETS, vocab_size=50, dim=25, noise=0.01, seed=1)
        text = format_embeddings_oracle(generate_embeddings(cfg)[0])
        assert hashlib.sha256(text.encode()).hexdigest() == "95549e490ef789bef7d25cc1371d43b8b8e2bb166533f6d84667ac7756c3c05b"

    def test_deterministic(self):
        cfg = EmbeddingPlantConfig(equality_sets=GENDER_SETS, vocab_size=40, dim=10, noise=0.02, seed=6)
        a, _, _ = generate_embeddings(cfg)
        b, _, _ = generate_embeddings(cfg)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_vectors_unit_norm(self):
        cfg = EmbeddingPlantConfig(equality_sets=GENDER_SETS, vocab_size=40, dim=10, noise=0.05, seed=7)
        emb, _, _ = generate_embeddings(cfg)
        np.testing.assert_allclose(np.linalg.norm(emb.vectors, axis=1), 1.0, atol=1e-12)

    def test_dimension_must_exceed_directions(self):
        with pytest.raises(ValidationError):
            EmbeddingPlantConfig(equality_sets=(("a", "b", "c", "d"),), vocab_size=10, dim=3)

    def test_vocab_size_must_cover_set_words(self):
        with pytest.raises(ValidationError):
            EmbeddingPlantConfig(equality_sets=GENDER_SETS, vocab_size=5, dim=25)


@pytest.mark.parametrize(
    "config, field, bad, good",
    [
        (CohortConfig, "n_samples", 10.5, np.int64(10)),
        (CohortConfig, "n_samples", True, 10),
        (CohortConfig, "n_samples", float("nan"), 10),
        (CohortConfig, "seed", 3.0, np.int32(3)),
        (EmbeddingPlantConfig, "vocab_size", 60.5, np.int64(60)),
        (EmbeddingPlantConfig, "dim", 10.0, np.int64(10)),
        (EmbeddingPlantConfig, "n_directions", 1.0, np.int64(1)),
        (EmbeddingPlantConfig, "seed", False, np.uint8(3)),
    ],
    ids=lambda v: v.__name__ if isinstance(v, type) else str(v),
)
def test_integer_fields_take_only_integers(config, field, bad, good):
    required = {"equality_sets": GENDER_SETS} if config is EmbeddingPlantConfig else {}
    with pytest.raises(ValidationError, match=f"{config.__name__}.{field} must be an integer"):
        config(**required, **{field: bad})
    assert getattr(config(**required, **{field: good}), field) == good


@pytest.mark.parametrize("config", [CohortConfig, EmbeddingPlantConfig], ids=lambda c: c.__name__)
def test_negative_seed_is_rejected(config):
    required = {"equality_sets": GENDER_SETS} if config is EmbeddingPlantConfig else {}
    with pytest.raises(ValidationError, match=f"{config.__name__}.seed must be non-negative, got -1"):
        config(**required, seed=-1)
    assert config(**required, seed=0).seed == 0
