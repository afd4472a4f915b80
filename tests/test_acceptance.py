"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured margins.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from equifair import (
    CohortConfig,
    LossSpec,
    apply_hard,
    apply_soft,
    auc_roc,
    confusion_rates,
    expected_loss,
    expected_rates,
    fit_ensemble,
    fit_eo_hard,
    fit_eo_soft,
    gap_ranges,
    generate_cohort,
    generate_embeddings,
    generate_multilabel,
    hard_debias,
    identify_subspace,
    multilabel_auc,
    predict_proba,
)
from equifair.eo import expected_loss_of_rates
from equifair.synth import (
    ETHNICITY_PROPORTIONS,
    SEX_PROPORTIONS,
    EmbeddingPlantConfig,
    gapped_score_models,
)
from equifair.wordsets import GENDER_SETS
from helpers import expected_accuracy_of_rates, logistic_loss_and_grad
from oracles import (
    exact_eo_oracle,
    pairwise_auc_oracle,
    preds_from_counts,
    replicate_per_group,
)

ACCEPTANCE_SEED = 2026


def fixed_cohort(groups, n, seed, positive_rate, loss_spread=(0.60, 0.85), fpr=0.15, calibrated=False):
    cfg = CohortConfig(
        groups=groups,
        positive_rate=positive_rate,
        score_models=gapped_score_models(groups, *loss_spread, fpr),
        n_samples=n,
        seed=seed,
        calibrated=calibrated,
    )
    return generate_cohort(cfg).modalities[0]


@pytest.fixture(scope="module")
def audit_cohort():
    """The pinned fit cohort: 5 ethnicity groups at their test-split
    shares, 13.1% positive rate, planted tpr gap 0.25, n = 20,000."""
    return fixed_cohort(ETHNICITY_PROPORTIONS, 20_000, ACCEPTANCE_SEED, 0.131)


def test_criterion_1_eo_exactness_and_empirical_ranges(audit_cohort):
    start = time.monotonic()
    preds = audit_cohort
    base_gap, _ = gap_ranges(confusion_rates(preds))
    assert base_gap >= 0.15, "planted tpr gap must be at least 0.15"

    loss = LossSpec(cost_fp=1.0, cost_fn=3.0)
    dp_hard = fit_eo_hard(preds, loss)
    dp_soft = fit_eo_soft(preds, loss)
    exact = {}
    for name, dp in (("hard", dp_hard), ("soft", dp_soft)):
        tpr_range, tnr_range = gap_ranges(expected_rates(dp))
        fpr_range = tnr_range  # same spread, complementary rate
        assert tpr_range <= 1e-9, f"{name}: expected tpr range {tpr_range}"
        assert fpr_range <= 1e-9, f"{name}: expected fpr range {fpr_range}"
        exact[name] = max(tpr_range, fpr_range)

    # apply at n >= 1e5: whole-copy tiling of each group's fit rows keeps
    # the empirical distributions identical, so only the derived
    # predictor's own randomization remains
    big = replicate_per_group(preds, per_group=20_000)
    assert len(big) >= 100_000
    empirical = {}
    for name, dp, apply_fn in (
        ("hard", dp_hard, apply_hard),
        ("soft", dp_soft, apply_soft),
    ):
        y_tilde = apply_fn(dp, big, seed=ACCEPTANCE_SEED + 1)
        tpr_range, tnr_range = gap_ranges(confusion_rates(replace(big, y_hat=y_tilde)))
        assert tpr_range <= 0.03, f"{name}: empirical tpr range {tpr_range}"
        assert tnr_range <= 0.03, f"{name}: empirical fpr range {tnr_range}"
        empirical[name] = max(tpr_range, tnr_range)

    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 1 took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 1 PASS eo-exactness: expected ranges hard={exact['hard']:.2e} "
        f"soft={exact['soft']:.2e} (<=1e-9); empirical hard={empirical['hard']:.4f} "
        f"soft={empirical['soft']:.4f} (<=0.03) at n={len(big)}; {elapsed:.2f}s (<5s)"
    )


def test_criterion_2_tradeoff_direction(audit_cohort):
    cohorts = [
        ("audit", audit_cohort, LossSpec(1.0, 3.0)),
        ("sex-balancedish", fixed_cohort(SEX_PROPORTIONS, 8_000, 31, 0.3, calibrated=True), LossSpec()),
        ("three-group", fixed_cohort({"A": 0.2, "B": 0.45, "C": 0.35}, 9_000, 77, 0.25, calibrated=True), LossSpec(2.0, 1.0)),
        ("two-group-rare", fixed_cohort({"A": 0.5, "B": 0.5}, 8_000, 55, 0.131, calibrated=True), LossSpec()),
    ]
    acc_margins, loss_margins = [], []
    for name, preds, loss in cohorts:
        base = confusion_rates(preds)
        dp_hard = fit_eo_hard(preds, loss)
        dp_soft = fit_eo_soft(preds, loss)
        base_loss = expected_loss_of_rates(base, loss)
        hard_loss = expected_loss(dp_hard)
        soft_loss = expected_loss(dp_soft)
        # degradation under the optimized objective, on every cohort
        assert hard_loss >= base_loss - 1e-9, name
        assert soft_loss >= base_loss - 1e-9, name
        # accuracy comparison on cohorts whose base is the accuracy-optimal
        # thresholding (calibrated scores)
        if preds is not audit_cohort:
            base_acc = expected_accuracy_of_rates(base)
            for dp in (dp_hard, dp_soft):
                acc = expected_accuracy_of_rates(expected_rates(dp))
                assert acc <= base_acc + 1e-9, name
                acc_margins.append(base_acc - acc)
        # soft never loses to hard on the same data
        assert soft_loss <= hard_loss + 1e-9, name
        loss_margins.append(hard_loss - soft_loss)
    print(
        f"ACCEPTANCE 2 PASS tradeoff-direction: accuracy degradation margins "
        f"{min(acc_margins):.4f}..{max(acc_margins):.4f}; soft-vs-hard slack "
        f"{min(loss_margins):.4f}..{max(loss_margins):.4f} across {len(cohorts)} cohorts"
    )


def test_criterion_3_lp_exact_oracle_equivalence():
    start = time.monotonic()
    # hard: exact-rate two-group instances
    hard_gaps = []
    for spec, loss in (
        ({"A": (10, 9, 10, 2), "B": (10, 6, 10, 3)}, LossSpec()),
        ({"A": (20, 17, 30, 5), "B": (25, 14, 25, 8)}, LossSpec(0.5, 2.0)),
        ({"A": (50, 44, 50, 6), "B": (40, 22, 60, 15)}, LossSpec(1.0, 3.0)),
    ):
        preds = preds_from_counts(spec)
        dp = fit_eo_hard(preds, loss)
        exact, _ = exact_eo_oracle(preds, loss, "hard")
        hard_gaps.append(abs(dp.objective - exact))
        assert hard_gaps[-1] <= 1e-12

    # soft: two-group cohorts, against the exact optimum over their ROC hulls
    soft_gaps = []
    for seed, loss in ((21, LossSpec()), (22, LossSpec(1.0, 2.0))):
        preds = fixed_cohort({"A": 0.5, "B": 0.5}, 500, seed, 0.4, loss_spread=(0.55, 0.9))
        dp = fit_eo_soft(preds, loss)
        exact, _ = exact_eo_oracle(preds, loss, "soft")
        soft_gaps.append(abs(dp.objective - exact))
        assert soft_gaps[-1] <= 1e-12

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 3 PASS lp-oracle-equivalence: hard gaps max={float(max(hard_gaps)):.2e}, "
        f"soft gaps max={float(max(soft_gaps)):.2e} (<=1e-12, exact oracle); {elapsed:.2f}s (<60s)"
    )


def test_criterion_4_debias_invariants():
    start = time.monotonic()
    cfg = EmbeddingPlantConfig(
        equality_sets=GENDER_SETS, vocab_size=50, dim=25, noise=0.01, seed=ACCEPTANCE_SEED
    )
    emb, sets, planted = generate_embeddings(cfg)

    sub = identify_subspace(emb, sets, k=1)
    recovery = abs(float(sub.basis[0] @ planted.basis[0]))
    assert recovery >= 0.99

    result = hard_debias(emb, sets)
    neutral = [t for t in result.embeddings.tokens if t.startswith("neutral")]
    mat = np.stack([result.embeddings.get(t) for t in neutral])
    max_dot = float(np.abs(mat @ result.subspace.basis.T).max())
    assert max_dot <= 1e-9

    norms = np.linalg.norm(result.embeddings.vectors, axis=1)
    max_norm_dev = float(np.abs(norms - 1.0).max())
    assert max_norm_dev <= 1e-9

    rng = np.random.default_rng(0)
    basis = result.subspace.basis
    worst_equidistance = 0.0
    for _ in range(100):
        probe = rng.standard_normal(emb.dim)
        probe -= (basis @ probe) @ basis
        probe /= np.linalg.norm(probe)
        for s in result.equalized_sets:
            dots = [float(result.embeddings.get(w) @ probe) for w in s]
            worst_equidistance = max(worst_equidistance, max(dots) - min(dots))
    assert worst_equidistance <= 1e-9

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 4 took {elapsed:.2f}s"
    print(
        f"ACCEPTANCE 4 PASS debias-invariants: recovery |cos|={recovery:.4f} (>=0.99), "
        f"neutral dot={max_dot:.2e}, norm dev={max_norm_dev:.2e}, "
        f"equidistance={worst_equidistance:.2e} (<=1e-9); {elapsed:.2f}s (<1s)"
    )


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(ACCEPTANCE_SEED)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        scores = rng.choice(np.linspace(0, 1, 21), n) if rng.random() < 0.5 else rng.random(n)
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[rng.integers(0, n)] = 1 - labels[0]
        worst = max(worst, abs(auc_roc(scores, labels) - pairwise_auc_oracle(scores, labels)))
    assert worst <= 1e-12

    scores, y = generate_multilabel(300, n_labels=25, seed=ACCEPTANCE_SEED)
    res = multilabel_auc(scores, y)
    per_label = [
        pairwise_auc_oracle(scores[:, j], y[:, j])
        for j in range(y.shape[1])
        if y[:, j].min() != y[:, j].max()
    ]
    macro_gap = abs(res.macro - float(np.mean(per_label)))
    micro_gap = abs(res.micro - pairwise_auc_oracle(scores.ravel(), y.ravel()))
    assert macro_gap <= 1e-12 and micro_gap <= 1e-12
    print(
        f"ACCEPTANCE 5 PASS metric-oracles: worst rank-vs-pairwise gap {worst:.2e} over "
        f"1000 trials; multilabel macro gap {macro_gap:.2e}, micro gap {micro_gap:.2e} (<=1e-12)"
    )


def test_criterion_6_ensemble_lift_and_gradient():
    cfg = CohortConfig(
        groups={"A": 0.5, "B": 0.5},
        positive_rate=0.4,
        n_samples=3_000,
        seed=ACCEPTANCE_SEED,
        modality_windows=((0.0, 0.5), (0.5, 1.0)),
    )
    m0, m1 = generate_cohort(cfg).modalities
    features = np.column_stack([m0.scores, m1.scores])
    model = fit_ensemble(features, m0.y_true, C=1.0)
    combined_auc = auc_roc(predict_proba(model, features), m0.y_true)
    best_constituent = max(auc_roc(m.scores, m.y_true) for m in (m0, m1))
    lift = combined_auc - best_constituent
    assert lift >= 0.02

    rng = np.random.default_rng(1)
    x = rng.random((80, 2))
    y = (rng.random(80) < 0.5).astype(float)
    w, b, h = np.array([0.4, -0.9]), 0.15, 1e-5
    _, grad_w, grad_b = logistic_loss_and_grad(x, y, w, b, 1.0)
    fd = []
    for j in range(2):
        wp, wm = w.copy(), w.copy()
        wp[j] += h
        wm[j] -= h
        fd.append(
            (logistic_loss_and_grad(x, y, wp, b, 1.0)[0] - logistic_loss_and_grad(x, y, wm, b, 1.0)[0])
            / (2 * h)
        )
    fd_b = (
        logistic_loss_and_grad(x, y, w, b + h, 1.0)[0] - logistic_loss_and_grad(x, y, w, b - h, 1.0)[0]
    ) / (2 * h)
    grad_gap = float(max(np.abs(np.array(fd) - grad_w).max(), abs(fd_b - grad_b)))
    assert grad_gap <= 1e-6
    print(
        f"ACCEPTANCE 6 PASS ensemble-lift: lift {lift:.4f} (>=0.02, ensemble "
        f"{combined_auc:.4f} vs best constituent {best_constituent:.4f}); "
        f"gradient-vs-finite-differences gap {grad_gap:.2e} (<=1e-6)"
    )


def test_criterion_7_pipeline_determinism(tmp_path):
    args = [
        sys.executable, "-m", "equifair", "pipeline",
        "--intervention", "eo-soft", "--preset", "ethnicity",
        "--n", "3000", "--positive-rate", "0.3", "--seed", str(ACCEPTANCE_SEED),
    ]
    runs = []
    for name in ("one", "two"):
        out = tmp_path / name
        res = subprocess.run([*args, "--out", str(out)], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        runs.append(out)
    compared = []
    for artifact in ("base_report.json", "post_report.json", "derived_predictor.json", "postprocessed.csv", "plot_data.csv"):
        a = (runs[0] / artifact).read_bytes()
        b = (runs[1] / artifact).read_bytes()
        assert a == b, f"{artifact} differs between identical runs"
        compared.append(artifact)

    # debiased embedding files are byte-identical across reruns too
    from equifair.debias import save_embeddings

    emb, _, _ = generate_embeddings(
        EmbeddingPlantConfig(equality_sets=GENDER_SETS, vocab_size=40, dim=20, noise=0.01, seed=4)
    )
    emb_path = tmp_path / "emb.txt"
    save_embeddings(emb, emb_path)
    outs = []
    for name in ("d1", "d2"):
        res = subprocess.run(
            [
                sys.executable, "-m", "equifair", "debias", "--embeddings", str(emb_path),
                "--equality-sets", "gender", "--out", str(tmp_path / name),
            ],
            capture_output=True,
            text=True,
        )
        assert res.returncode == 0, res.stderr
        outs.append((tmp_path / name / "debiased_embeddings.txt").read_bytes())
    assert outs[0] == outs[1], "debiased embeddings differ between identical runs"
    compared.append("debiased_embeddings.txt")
    print(
        f"ACCEPTANCE 7 PASS determinism: byte-identical reruns for {', '.join(compared)}"
    )
