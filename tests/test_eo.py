import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equifair import (
    GroupMismatchError,
    LabeledPredictions,
    LossSpec,
    ValidationError,
    apply_hard,
    apply_soft,
    confusion_rates,
    expected_loss,
    expected_rates,
    fit_eo_hard,
    fit_eo_soft,
    gap_ranges,
    roc_curve,
)
from equifair import eo, schema
from equifair.eo import (
    _NEVER_POSITIVE,
    DerivedPredictor,
    HardGroupPolicy,
    SoftGroupPolicy,
    _roc_hull,
    _upper_envelope,
    expected_loss_of_rates,
    sample_uniforms,
)
from equifair.geometry import convex_hull_indices
from equifair.synth import CohortConfig, gapped_score_models, generate_cohort

from helpers import point_in_convex_polygon, soft_regions_of, squared_distance_to_polygon, unconstrained_optimum_loss
from oracles import (
    apply_hard_oracle,
    apply_soft_oracle,
    derived_predictor_dict_oracle,
    exact_eo_oracle,
    preds_from_counts,
    roc_hull_oracle,
    sample_uniforms_oracle,
    upper_chain_oracle,
)

# ---------------------------------------------------------------------------
# construction helpers


def scored_preds(seed=0, n=600, groups=("A", "B"), spread=(0.55, 0.9), positive_rate=0.4):
    props = {g: 1.0 / len(groups) for g in groups}
    cfg = CohortConfig(
        groups=props,
        positive_rate=positive_rate,
        score_models=gapped_score_models(props, spread[0], spread[1], 0.15),
        n_samples=n,
        seed=seed,
    )
    return generate_cohort(cfg).modalities[0]


# ---------------------------------------------------------------------------
# hard variant


class TestFitHard:
    def test_equal_base_rates_identity_fixed_point(self):
        preds = preds_from_counts({"A": (10, 8, 10, 2), "B": (10, 8, 10, 2)})
        dp = fit_eo_hard(preds)
        for g in ("A", "B"):
            assert dp.policies[g].p0 == pytest.approx(0.0, abs=1e-12)
            assert dp.policies[g].p1 == pytest.approx(1.0, abs=1e-12)
        er = expected_rates(dp)
        tpr_range, tnr_range = gap_ranges(er)
        assert tpr_range <= 1e-9 and tnr_range <= 1e-9
        base = confusion_rates(preds)
        for g in ("A", "B"):  # identity policy: expected rates = base rates
            assert er[g].tpr == pytest.approx(base[g].tpr, abs=1e-12)
            assert er[g].fpr == pytest.approx(base[g].fpr, abs=1e-12)
        assert expected_loss(dp) == pytest.approx(expected_loss_of_rates(base, dp.loss), abs=1e-12)

    def test_duplicated_group_identity(self):
        preds = preds_from_counts({"A": (10, 8, 10, 2), "A2": (10, 8, 10, 2)})
        dp = fit_eo_hard(preds)
        assert dp.policies["A"].p0 == dp.policies["A2"].p0
        assert dp.policies["A"].p1 == dp.policies["A2"].p1 == pytest.approx(1.0)
        tpr_range, _ = gap_ranges(expected_rates(dp))
        assert tpr_range <= 1e-9

    @pytest.mark.parametrize(
        "spec, loss",
        [
            # base (tpr, fpr) = (0.9, 0.2) and (0.6, 0.3)
            ({"A": (10, 9, 10, 2), "B": (10, 6, 10, 3)}, LossSpec()),
            ({"A": (20, 17, 30, 5), "B": (25, 14, 25, 8)}, LossSpec(cost_fp=0.5, cost_fn=2.0)),
        ],
        ids=["unit-costs", "skewed-costs"],
    )
    def test_two_group_objective_matches_exact_oracle(self, spec, loss):
        preds = preds_from_counts(spec)
        dp = fit_eo_hard(preds, loss)
        exact, _ = exact_eo_oracle(preds, loss, "hard")
        assert abs(dp.objective - exact) <= 1e-12
        # substituting the solved policies into the closed form reproduces
        # one common operating point for both groups
        er = expected_rates(dp)
        assert abs(er["A"].tpr - er["B"].tpr) <= 1e-9
        assert abs(er["A"].fpr - er["B"].fpr) <= 1e-9

    def test_exactness_on_three_groups(self):
        preds = preds_from_counts(
            {"A": (40, 35, 60, 9), "B": (30, 19, 70, 21), "C": (50, 31, 50, 5)}
        )
        dp = fit_eo_hard(preds)
        tpr_range, tnr_range = gap_ranges(expected_rates(dp))
        assert tpr_range <= 1e-9 and tnr_range <= 1e-9

    def test_degenerate_group_forces_diagonal(self):
        # group B has tpr == fpr: its region is the diagonal
        preds = preds_from_counts({"A": (10, 9, 10, 2), "B": (10, 5, 10, 5)})
        dp = fit_eo_hard(preds)
        x, y = dp.target
        assert abs(x - y) <= 1e-9

    def test_requires_two_groups(self):
        with pytest.raises(ValidationError):
            fit_eo_hard(preds_from_counts({"A": (10, 8, 10, 2)}))

    def test_undefined_base_rates_error(self):
        preds = LabeledPredictions(
            ids=("a", "b", "c"),
            y_true=np.array([1, 1, 0]),
            groups=("A", "A", "B"),
            y_hat=np.array([1, 0, 0]),
        )
        with pytest.raises(ValidationError):
            fit_eo_hard(preds)


class TestApplyHard:
    def test_identity_returns_input(self):
        preds = preds_from_counts({"A": (10, 8, 10, 2), "B": (10, 8, 10, 2)})
        dp = fit_eo_hard(preds)
        np.testing.assert_array_equal(apply_hard(dp, preds, seed=1), preds.y_hat)

    def test_all_ones_policy(self):
        from equifair.eo import DerivedPredictor, HardGroupPolicy

        preds = preds_from_counts({"A": (5, 4, 5, 1), "B": (5, 3, 5, 2)})
        base = confusion_rates(preds)
        dp = DerivedPredictor(
            policies={"A": HardGroupPolicy(1.0, 1.0), "B": HardGroupPolicy(1.0, 1.0)},
            target=(1.0, 1.0),
            fit_rates=base,
            loss=LossSpec(),
            objective=0.0,
        )
        assert apply_hard(dp, preds, seed=3).all()
        er = expected_rates(dp)
        assert er["A"].tpr == 1.0 and er["A"].fpr == 1.0

    def test_deterministic_and_order_independent(self):
        preds = preds_from_counts({"A": (20, 12, 20, 6), "B": (20, 15, 20, 3)})
        dp = fit_eo_hard(preds)
        out1 = apply_hard(dp, preds, seed=9)
        out2 = apply_hard(dp, preds, seed=9)
        np.testing.assert_array_equal(out1, out2)
        perm = np.random.default_rng(0).permutation(len(preds))
        shuffled = LabeledPredictions(
            ids=tuple(preds.ids[i] for i in perm),
            y_true=preds.y_true[perm],
            groups=tuple(preds.groups[i] for i in perm),
            y_hat=preds.y_hat[perm],
        )
        out3 = apply_hard(dp, shuffled, seed=9)
        lookup = dict(zip(shuffled.ids, out3))
        assert all(lookup[preds.ids[i]] == out1[i] for i in range(len(preds)))

    def test_unknown_group_rejected(self):
        preds = preds_from_counts({"A": (10, 8, 10, 2), "B": (10, 6, 10, 3)})
        dp = fit_eo_hard(preds)
        other = preds_from_counts({"C": (5, 3, 5, 1), "A": (5, 4, 5, 1)})
        with pytest.raises(GroupMismatchError):
            apply_hard(dp, other, seed=0)

    def test_empirical_rates_concentrate_on_expectation(self):
        preds = preds_from_counts({"A": (10, 9, 10, 2), "B": (10, 6, 10, 3)})
        dp = fit_eo_hard(preds)
        reps = 2500  # 25,000 positives and negatives per group
        big = LabeledPredictions(
            ids=tuple(f"{i}#{r}" for r in range(reps) for i in preds.ids),
            y_true=np.tile(preds.y_true, reps),
            groups=tuple(preds.groups) * reps,
            y_hat=np.tile(preds.y_hat, reps),
        )
        out = apply_hard(dp, big, seed=17)
        derived = confusion_rates(replace(big, y_hat=out))
        expect = expected_rates(dp)
        for g in ("A", "B"):
            n_pos, n_neg = derived[g].n_pos, derived[g].n_neg
            tol_t = 3 * np.sqrt(expect[g].tpr * (1 - expect[g].tpr) / n_pos)
            tol_f = 3 * np.sqrt(expect[g].fpr * (1 - expect[g].fpr) / n_neg)
            assert abs(derived[g].tpr - expect[g].tpr) <= tol_t
            assert abs(derived[g].fpr - expect[g].fpr) <= tol_f


# ---------------------------------------------------------------------------
# soft variant


class TestFitSoft:
    def test_identical_groups_single_threshold_vertex(self):
        rng = np.random.default_rng(2)
        n = 200
        y = rng.integers(0, 2, n)
        scores = np.clip(0.5 + 0.25 * (2 * y - 1) + 0.15 * rng.standard_normal(n), 0, 1)
        preds = LabeledPredictions(
            ids=tuple(f"a{i}" for i in range(2 * n)),
            y_true=np.tile(y, 2),
            groups=("A",) * n + ("B",) * n,
            scores=np.tile(scores, 2),
        )
        dp = fit_eo_soft(preds)
        for g in ("A", "B"):
            pol = dp.policies[g]
            assert pol.p_coin == 0.0
            assert pol.lam == 1.0 or pol.t_lo == pol.t_hi
        tpr_range, tnr_range = gap_ranges(expected_rates(dp))
        assert tpr_range <= 1e-9 and tnr_range <= 1e-9

    def test_uninformative_group_forces_diagonal(self):
        rng = np.random.default_rng(3)
        n = 100
        y = rng.integers(0, 2, n)
        informative = np.clip(0.5 + 0.3 * (2 * y - 1), 0, 1)
        preds = LabeledPredictions(
            ids=tuple(f"b{i}" for i in range(2 * n)),
            y_true=np.tile(y, 2),
            groups=("A",) * n + ("B",) * n,
            scores=np.concatenate([informative, np.full(n, 0.5)]),
        )
        dp = fit_eo_soft(preds)
        x, y_t = dp.target
        assert abs(x - y_t) <= 1e-9

    def test_two_group_objective_matches_exact_oracle(self):
        preds = scored_preds(seed=21, n=400)
        loss = LossSpec()
        dp = fit_eo_soft(preds, loss)
        exact, _ = exact_eo_oracle(preds, loss, "soft")
        assert abs(dp.objective - exact) <= 1e-12

    def test_exactness_many_groups(self):
        preds = scored_preds(seed=5, n=900, groups=("A", "B", "C", "D"))
        dp = fit_eo_soft(preds)
        tpr_range, tnr_range = gap_ranges(expected_rates(dp))
        assert tpr_range <= 1e-9 and tnr_range <= 1e-9
        # every decomposition reproduces the common target
        for g, pol in dp.policies.items():
            fpr, tpr = pol.derived_point(dp.fit_rates[g])
            assert fpr == pytest.approx(dp.target[0], abs=1e-9)
            assert tpr == pytest.approx(dp.target[1], abs=1e-9)

    def test_target_inside_every_region(self):
        preds = scored_preds(seed=6, n=500, groups=("A", "B", "C"))
        dp = fit_eo_soft(preds)
        for region in soft_regions_of(preds).values():
            assert point_in_convex_polygon(dp.target, region, tol=1e-9)

    def test_requires_scores(self):
        preds = preds_from_counts({"A": (10, 8, 10, 2), "B": (10, 6, 10, 3)})
        with pytest.raises(ValidationError):
            fit_eo_soft(preds)

    def test_serialization_round_trip(self):
        import json

        from equifair.eo import DerivedPredictor

        dp = fit_eo_soft(scored_preds(seed=8))
        back = DerivedPredictor.from_dict(json.loads(json.dumps(dp.to_dict())))
        assert back.target == dp.target
        assert back.policies == dp.policies

    def test_all_negative_target_is_strict_json(self):
        import json

        preds = LabeledPredictions(
            ids=tuple("abcdefgh"),
            y_true=np.array([0, 1, 0, 1, 1, 0, 1, 0]),
            groups=tuple("AAAABBBB"),
            scores=np.array([0.9, 0.8, 0.3, 0.2] * 2),
        )
        dp = fit_eo_soft(preds, LossSpec(cost_fp=50))
        assert dp.target == (0.0, 0.0)

        def reject(constant):
            raise AssertionError(f"non-standard JSON constant {constant}")

        doc = json.loads(json.dumps(dp.to_dict()), parse_constant=reject)
        assert all(doc["groups"][g]["t_hi"] > 1.0 for g in ("A", "B"))
        assert not apply_soft(dp, preds, seed=0).any()


class TestApplySoft:
    def test_threshold_zero_always_positive(self):
        from equifair.eo import DerivedPredictor, SoftGroupPolicy

        preds = scored_preds(seed=9, n=50)
        pol = SoftGroupPolicy(
            t_lo=0.0, t_hi=0.0, lam=1.0, point_lo=(1.0, 1.0), point_hi=(1.0, 1.0)
        )
        dp = DerivedPredictor(
            policies={"A": pol, "B": pol},
            target=(1.0, 1.0),
            fit_rates=confusion_rates(preds),
            loss=LossSpec(),
            objective=0.0,
        )
        assert apply_soft(dp, preds, seed=0).all()

    def test_degenerate_single_threshold_is_plain_thresholding(self):
        from equifair.eo import DerivedPredictor, SoftGroupPolicy

        preds = scored_preds(seed=10, n=80)
        pol = SoftGroupPolicy(
            t_lo=0.5, t_hi=0.5, lam=1.0, point_lo=(0.2, 0.7), point_hi=(0.2, 0.7)
        )
        dp = DerivedPredictor(
            policies={"A": pol, "B": pol},
            target=(0.2, 0.7),
            fit_rates=confusion_rates(preds),
            loss=LossSpec(),
            objective=0.0,
        )
        out = apply_soft(dp, preds, seed=4)
        np.testing.assert_array_equal(out, (preds.scores >= 0.5).astype(np.int8))

    def test_empirical_rates_concentrate_on_target(self):
        preds = scored_preds(seed=11, n=500, groups=("A", "B", "C"))
        dp = fit_eo_soft(preds)
        reps = 100  # replicate the fit set so expectations transfer exactly
        big = LabeledPredictions(
            ids=tuple(f"{i}#{r}" for r in range(reps) for i in preds.ids),
            y_true=np.tile(preds.y_true, reps),
            groups=tuple(preds.groups) * reps,
            scores=np.tile(preds.scores, reps),
        )
        out = apply_soft(dp, big, seed=13)
        derived = confusion_rates(
            LabeledPredictions(
                ids=big.ids, y_true=big.y_true, groups=big.groups, y_hat=out
            )
        )
        x, y = dp.target
        for g in ("A", "B", "C"):
            n_pos, n_neg = derived[g].n_pos, derived[g].n_neg
            assert abs(derived[g].tpr - y) <= 3 * np.sqrt(y * (1 - y) / n_pos) + 1e-9
            assert abs(derived[g].fpr - x) <= 3 * np.sqrt(x * (1 - x) / n_neg) + 1e-9


# ---------------------------------------------------------------------------
# cross-variant properties


class TestLossProperties:
    def test_soft_dominates_hard_on_thresholded_scores(self):
        for seed in range(6):
            preds = scored_preds(seed=seed, n=400)
            loss = LossSpec()
            hard_loss = expected_loss(fit_eo_hard(preds, loss))
            soft_loss = expected_loss(fit_eo_soft(preds, loss))
            assert soft_loss <= hard_loss + 1e-9

    def test_eo_never_beats_unconstrained_derived(self):
        for seed in range(6):
            preds = scored_preds(seed=100 + seed, n=300)
            loss = LossSpec(cost_fp=0.7, cost_fn=1.3)
            rates = confusion_rates(preds)
            dp_h = fit_eo_hard(preds, loss)
            assert expected_loss(dp_h) >= unconstrained_optimum_loss(rates, loss) - 1e-9
            dp_s = fit_eo_soft(preds, loss)
            regions = soft_regions_of(preds)
            counts = dp_s.fit_rates
            assert expected_loss(dp_s) >= unconstrained_optimum_loss(counts, loss, regions) - 1e-9

    def test_no_free_lunch_on_calibrated_cohorts(self):
        # threshold-0.5 hard labels on calibrated scores are loss-optimal,
        # so the constrained common point cannot win
        for seed in range(4):
            preds = scored_preds(seed=200 + seed, n=800, positive_rate=0.3)
            loss = LossSpec()
            base_loss = expected_loss_of_rates(confusion_rates(preds), loss)
            assert expected_loss(fit_eo_hard(preds, loss)) >= base_loss - 1e-9
            assert expected_loss(fit_eo_soft(preds, loss)) >= base_loss - 1e-9

    def test_group_renaming_leaves_objective_unchanged(self):
        preds = scored_preds(seed=31, n=300)
        renamed = LabeledPredictions(
            ids=preds.ids,
            y_true=preds.y_true,
            groups=tuple({"A": "ZZZ", "B": "MMM"}[g] for g in preds.groups),
            scores=preds.scores,
            y_hat=preds.y_hat,
        )
        for fit in (fit_eo_hard, fit_eo_soft):
            dp1, dp2 = fit(preds), fit(renamed)
            assert dp2.objective == pytest.approx(dp1.objective, abs=1e-9)
            assert dp2.target[0] == pytest.approx(dp1.target[0], abs=1e-9)
            assert dp2.target[1] == pytest.approx(dp1.target[1], abs=1e-9)
        # parameters permute with the names
        h1, h2 = fit_eo_hard(preds), fit_eo_hard(renamed)
        for old, new in (("A", "ZZZ"), ("B", "MMM")):
            assert h2.policies[new].p0 == pytest.approx(h1.policies[old].p0, abs=1e-9)
            assert h2.policies[new].p1 == pytest.approx(h1.policies[old].p1, abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**31 - 1), st.integers(2, 6), st.none() | st.integers(0, 5))
    @example(seed=0, n_groups=6, one_class=None)
    @example(seed=1, n_groups=3, one_class=4)
    def test_exactness_property(self, seed, n_groups, one_class):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 40))
        names = [f"g{j}" for j in range(n_groups)]
        lacking = None if one_class is None else one_class % n_groups  # the group left with one class
        ids, y, g, s = [], [], [], []
        for j, name in enumerate(names):
            labels = rng.integers(0, 2, n)
            labels[0], labels[1] = 0, 1  # both classes per group
            if j == lacking:
                labels[:] = rng.integers(0, 2)
            scores = rng.choice([0.05, 0.2, 0.35, 0.5, 0.65, 0.8, 0.95], n)
            ids.extend(f"{name}-{i}" for i in range(n))
            y.extend(labels.tolist())
            g.extend([name] * n)
            s.extend(scores.tolist())
        preds = LabeledPredictions(
            ids=tuple(ids),
            y_true=np.array(y),
            groups=tuple(g),
            scores=np.array(s),
            y_hat=(np.array(s) >= 0.5).astype(np.int8),
        )
        loss = LossSpec(cost_fp=float(rng.uniform(0.1, 2)), cost_fn=float(rng.uniform(0.1, 2)))
        for fit in (fit_eo_hard, fit_eo_soft):
            if lacking is not None:
                with pytest.raises(ValidationError, match=rf"^groups missing a class: \['g{lacking}'\]$"):
                    fit(preds, loss)
                continue
            dp = fit(preds, loss)
            tpr_range, tnr_range = gap_ranges(expected_rates(dp))
            assert tpr_range <= 1e-9
            assert tnr_range <= 1e-9


# ---------------------------------------------------------------------------
# both fits against the exact rational oracle

TIED_SCORES = (0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)


@st.composite
def exact_oracle_cases(draw):
    """2-4 groups of 2-14 rows, each holding both classes, with scores
    that often tie, base predictions, costs and optional group weights."""
    labels, groups = [], []
    n_groups = draw(st.integers(2, 4))
    for j in range(n_groups):
        n = draw(st.integers(2, 14))
        labels += [0, 1] + draw(st.lists(st.integers(0, 1), min_size=n - 2, max_size=n - 2))
        groups += [f"g{j}"] * n
    rows = st.lists(st.sampled_from(TIED_SCORES) | st.floats(0.0, 1.0), min_size=len(labels), max_size=len(labels))
    y_hat = st.lists(st.integers(0, 1), min_size=len(labels), max_size=len(labels))
    preds = LabeledPredictions(
        ids=[f"r{i}" for i in range(len(labels))], y_true=np.array(labels), groups=groups,
        scores=np.array(draw(rows)), y_hat=np.array(draw(y_hat), dtype=np.int8),
    )
    costs = st.sampled_from([0.5, 1.0, 2.0, 3.0])
    weights = st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]), min_size=n_groups, max_size=n_groups).filter(any)
    weights = draw(st.none() | weights.map(lambda ws: {f"g{j}": w for j, w in enumerate(ws)}))
    return preds, LossSpec(cost_fp=draw(costs), cost_fn=draw(costs), group_weights=weights)


def exact_policy_rates(dp, preds):
    """Each group's expected (fpr, tpr) under its fitted policy, in
    Fraction and from the rows: a hard policy randomizes the group's
    exact base rates, a soft one mixes the operating points of its two
    thresholds, counted from the scores at or above each, with its coin.
    A soft policy's stored points must be those counted points."""
    out = {}
    for code, g in enumerate(preds.universe):
        m, pol = preds.group_codes == code, dp.policies[g]
        y = preds.y_true[m]

        def point(values, threshold):
            return tuple(Fraction(int((y[values >= threshold] == c).sum()), int((y == c).sum())) for c in (0, 1))

        if dp.variant == "hard":
            (f, t), p0, p1 = point(preds.y_hat[m], 1), Fraction(pol.p0), Fraction(pol.p1)
            out[g] = (p0 * (1 - f) + p1 * f, p0 * (1 - t) + p1 * t)
        else:
            lo, hi = point(preds.scores[m], pol.t_lo), point(preds.scores[m], pol.t_hi)
            assert (pol.point_lo, pol.point_hi) == (tuple(map(float, lo)), tuple(map(float, hi)))
            lam, p_coin, coin = Fraction(pol.lam), Fraction(pol.p_coin), Fraction(pol.coin_rate)
            out[g] = tuple((1 - p_coin) * (lam * a + (1 - lam) * b) + p_coin * coin for a, b in zip(lo, hi))
    return out


class TestExactOracle:
    @pytest.mark.parametrize("variant", ["hard", "soft"])
    @settings(deadline=None)
    @given(exact_oracle_cases())
    def test_fit_matches_exact_oracle(self, variant, case):
        preds, loss = case
        dp = (fit_eo_hard if variant == "hard" else fit_eo_soft)(preds, loss)
        exact, polygon = exact_eo_oracle(preds, loss, variant)
        assert abs(dp.objective - exact) <= 1e-12
        rates = exact_policy_rates(dp, preds).values()
        for axis in (0, 1):
            assert max(r[axis] for r in rates) - min(r[axis] for r in rates) <= 1e-9
        assert squared_distance_to_polygon(tuple(map(Fraction, dp.target)), polygon) <= Fraction(1e-12) ** 2


class TestLossSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cost_fp": float("nan")},
            {"cost_fn": float("inf")},
            {"group_weights": {"A": float("nan"), "B": 1.0}},
            {"group_weights": {"A": float("inf"), "B": 1.0}},
        ],
    )
    def test_rejects_non_finite(self, kwargs):
        with pytest.raises(ValidationError):
            LossSpec(**kwargs)


class TestGroupWeights:
    @pytest.mark.parametrize("scale", [1, 7])
    @pytest.mark.parametrize("fit", [fit_eo_hard, fit_eo_soft], ids=["hard", "soft"])
    def test_weights_in_proportion_to_group_sizes_give_the_default_fit(self, fit, scale):
        preds = scored_preds(seed=31, n=900, groups=("A", "B", "C"))
        default = fit(preds, LossSpec(cost_fn=3.0))
        sizes = {g: float(scale * (e.n_pos + e.n_neg)) for g, e in default.fit_rates.items()}
        weighted = fit(preds, LossSpec(cost_fn=3.0, group_weights=sizes))
        assert weighted.target == default.target
        assert weighted.policies == default.policies
        assert weighted.objective == default.objective

    def test_a_group_missing_from_the_weights_is_rejected(self):
        preds = scored_preds(seed=31, n=900, groups=("A", "B", "C"))
        with pytest.raises(ValidationError, match=r"^group weights missing for groups \['C'\]$"):
            fit_eo_hard(preds, LossSpec(group_weights={"A": 1.0, "B": 2.0}))


class TestDerivedPredictor:
    @pytest.mark.parametrize("weights", [None, {"A": 2.0, "B": 1.0, "C": 0.5}], ids=["unweighted", "weighted"])
    @pytest.mark.parametrize("fit", [fit_eo_hard, fit_eo_soft], ids=["hard", "soft"])
    def test_to_dict_equals_the_key_by_key_oracle(self, fit, weights):
        dp = fit(scored_preds(seed=32, n=900, groups=("C", "A", "B")), LossSpec(cost_fn=3.0, group_weights=weights))
        assert schema.dumps(dp.to_dict(), "derived predictor") == schema.dumps(derived_predictor_dict_oracle(dp), "derived predictor")

    def test_variant_follows_policy_type(self):
        preds = scored_preds(seed=12, n=300)
        assert fit_eo_hard(preds).variant == "hard"
        assert fit_eo_soft(preds).variant == "soft"

    def test_mixed_policies_rejected(self):
        from equifair.eo import DerivedPredictor

        hard, soft = fit_eo_hard(scored_preds(seed=13, n=300)), fit_eo_soft(scored_preds(seed=13, n=300))
        with pytest.raises(ValidationError):
            DerivedPredictor(
                policies={"A": hard.policies["A"], "B": soft.policies["B"]},
                target=hard.target,
                fit_rates=hard.fit_rates,
                loss=hard.loss,
                objective=hard.objective,
            )

    @pytest.mark.parametrize(
        "policy, field",
        [
            (lambda: HardGroupPolicy(p0=2.0, p1=0.5), "p0"),
            (lambda: HardGroupPolicy(p0=0.5, p1=float("nan")), "p1"),
            (lambda: SoftGroupPolicy(0.4, 0.6, lam=5.0, point_lo=(0.3, 0.8), point_hi=(0.1, 0.5)), "lam"),
            (lambda: SoftGroupPolicy(0.4, 0.6, 0.5, (0.3, 0.8), (0.1, 0.5), p_coin=-0.1), "p_coin"),
            (lambda: SoftGroupPolicy(0.4, 0.6, 0.5, (0.3, 0.8), (0.1, 0.5), coin_rate=1.5), "coin_rate"),
            (lambda: SoftGroupPolicy(0.4, 0.6, 0.5, (0.3, 1.2), (0.1, 0.5)), "point_lo"),
            (lambda: SoftGroupPolicy(0.4, 0.6, 0.5, (0.3, 0.8), (-0.1, 0.5)), "point_hi"),
        ],
    )
    def test_policy_probabilities_lie_in_unit_interval(self, policy, field):
        with pytest.raises(ValidationError, match=f"{field} must lie in"):
            policy()

    @pytest.mark.parametrize("target", [(0.5, 1.5), (float("nan"), 0.5)])
    def test_target_lies_in_unit_square(self, target):
        dp = fit_eo_hard(preds_from_counts({"A": (10, 9, 10, 2), "B": (10, 6, 10, 3)}))
        with pytest.raises(ValidationError, match="target must lie in"):
            replace(dp, target=target)


class TestSampleUniforms:
    def test_deterministic(self):
        assert np.array_equal(sample_uniforms(5, "x", ["id1"]), sample_uniforms(5, "x", ["id1"]))

    def test_varies_with_inputs(self):
        base = sample_uniforms(5, "x", ["id1"])
        assert not (base == sample_uniforms(6, "x", ["id1"])).any()
        assert not (base == sample_uniforms(5, "y", ["id1"])).any()
        assert not (base == sample_uniforms(5, "x", ["id2"])).any()

    def test_range(self):
        u = sample_uniforms(1, "p", ["q", "r"], n=3)
        assert u.shape == (2, 3)
        assert ((0.0 <= u) & (u < 1.0)).all()

    def test_a_saturated_digest_stays_below_one(self, monkeypatch):
        # every finaliser output all ones: the top 53 bits over 2**53 are 1 - 2**-53
        monkeypatch.setattr(eo, "_mix", lambda z: np.full_like(z, 2**64 - 1))
        u = sample_uniforms(1, "eo-hard", ["a", "b"], n=3)
        assert u.shape == (2, 3) and (u == 1.0 - 2.0**-53).all()
        preds = preds_from_counts({"A": (5, 4, 5, 1), "B": (5, 3, 5, 2)})
        dp = DerivedPredictor(
            policies={"A": HardGroupPolicy(0.0, 1.0), "B": HardGroupPolicy(0.0, 1.0)},
            target=(0.5, 0.5), fit_rates={}, loss=LossSpec(), objective=0.0,
        )
        assert apply_hard(dp, preds, seed=3).tobytes() == preds.y_hat.tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    def test_batch_equals_per_id_oracle_across_chunks(self, n, monkeypatch):
        monkeypatch.setattr(eo, "_CHUNK_IDS", 7)
        monkeypatch.setattr(eo, "_CHUNK_CODE_POINTS", 24)  # the long id is a chunk of its own
        ids = [f"id{i}" for i in range(30)] + ["", "é,\"x\"", "\x00", "x" * 40, "a\x00\x00"]
        u = sample_uniforms(12, "eo-soft", ids, n=n)
        expected = np.array([sample_uniforms_oracle(12, "eo-soft", i, n=n) for i in ids])
        assert u.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.text(alphabet="a\x00é\U0001d11e\U0001d11f\U0010ffff", max_size=5), min_size=1, max_size=30),
        st.integers(1, 9), st.integers(1, 12), st.integers(0, 2**64 - 1),
    )
    def test_distinct_ids_draw_distinct_rows_in_any_chunks(self, texts, chunk_ids, chunk_code_points, seed):
        # ids that differ only in trailing NULs, in one non-BMP character or in length
        ids = sorted({t + tail for t in texts for tail in ("", "\x00", "\x00\x00", "\U0001d11e")})
        whole = sample_uniforms(seed, "eo-soft", ids, n=3)
        assert len({row.tobytes() for row in whole}) == len(ids)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eo, "_CHUNK_IDS", chunk_ids)
            mp.setattr(eo, "_CHUNK_CODE_POINTS", chunk_code_points)
            chunked = sample_uniforms(seed, "eo-soft", ids, n=3)
        assert chunked.tobytes() == whole.tobytes()
        assert whole.tolist() == [list(sample_uniforms_oracle(seed, "eo-soft", i, n=3)) for i in ids]

    @pytest.mark.parametrize("purpose, n", [("eo-hard", 1), ("eo-soft", 3)])
    def test_each_column_is_uniform_by_kolmogorov_smirnov(self, purpose, n):
        # fixed seed and ids, so the check is deterministic; 1.36 / sqrt(m) is its 5% critical value
        m = 100_000
        u = sample_uniforms(20, purpose, [f"e{i:06d}" for i in range(m)], n=n)
        edges = np.arange(m + 1) / m
        for column in np.sort(u, axis=0).T:
            assert max((edges[1:] - column).max(), (column - edges[:-1]).max()) <= 1.36 / np.sqrt(m)

    PINNED = {  # sample_uniforms(7, purpose, ids) as float.hex, one list per id
        "eo-hard": {
            "": ["0x1.d2f17f5f8176cp-3"],
            "a": ["0x1.81a9ab1efc4b0p-5"],
            "a\x00": ["0x1.5f37a51bd8122p-2"],
            "\U0001d11e": ["0x1.b155e45434ae8p-1"],
            "e000001": ["0x1.d78fc7676f762p-2"],
        },
        "eo-soft": {
            "": ["0x1.bce538f437d36p-1", "0x1.4a6c63d2fb164p-2", "0x1.f0950fab6af4cp-3"],
            "a": ["0x1.77d2b71fe5516p-2", "0x1.948daac81dca8p-2", "0x1.d7a06974f5f04p-2"],
            "a\x00": ["0x1.d9c3bff61108ep-1", "0x1.56ff65ea559a0p-4", "0x1.5c309ea44db2ap-1"],
            "\U0001d11e": ["0x1.393c5da7a7645p-1", "0x1.79284e54168b4p-2", "0x1.00075e49bfda1p-1"],
            "e000001": ["0x1.95bd553b4bdf4p-2", "0x1.ddf70caf19d34p-3", "0x1.0059062682e44p-2"],
        },
    }

    @pytest.mark.parametrize("purpose", list(PINNED))
    def test_pinned_draws(self, purpose):
        table = self.PINNED[purpose]
        u = sample_uniforms(7, purpose, list(table), n=len(table[""]))
        assert [[x.hex() for x in row] for row in u.tolist()] == list(table.values())
        assert [list(sample_uniforms_oracle(7, purpose, i, n=len(table[""]))) for i in table] == u.tolist()

    def test_no_warning_at_the_widest_seed_and_code_points(self):
        # numpy warns on a uint64 scalar that overflows, never on an array
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = sample_uniforms(2**64 - 1, "eo-soft", ["\U0010ffff" * 9, "", "\x00", "e000001"], n=3)
        assert ((0.0 <= u) & (u < 1.0)).all()


# ---------------------------------------------------------------------------
# the batched apply against the per-row oracles

_LEVELS = (0.0, 0.25, 0.5, 0.75, 1.0)  # scores and thresholds share these, so ties occur
_PROBS = st.one_of(st.sampled_from((0.0, 1.0, 0.5)), st.floats(0.0, 1.0))


@st.composite
def apply_cases(draw):
    """A derived predictor with random policies (every universe group,
    including those without rows, gets one) and a prediction set whose
    universe may hold groups without rows."""
    universe = tuple(draw(st.permutations([f"g{i}" for i in range(draw(st.integers(1, 5)))])))
    n = draw(st.integers(1, 50))
    present = universe[: draw(st.integers(1, len(universe)))]
    groups = draw(st.lists(st.sampled_from(present), min_size=n, max_size=n))
    ids = draw(st.lists(st.text(max_size=4), min_size=n, max_size=n, unique=True))
    scores = draw(st.lists(st.one_of(st.sampled_from(_LEVELS), st.floats(0.0, 1.0)), min_size=n, max_size=n))
    preds = LabeledPredictions(
        ids=tuple(ids),
        y_true=np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))),
        groups=tuple(groups),
        scores=np.array(scores),
        y_hat=np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))),
        universe=universe,
    )
    if draw(st.booleans()):
        policies = {g: HardGroupPolicy(p0=draw(_PROBS), p1=draw(_PROBS)) for g in universe}
    else:
        policies = {}
        for g in universe:
            t_lo = draw(st.sampled_from(_LEVELS))
            t_hi = t_lo if draw(st.booleans()) else draw(st.sampled_from(_LEVELS + (_NEVER_POSITIVE,)))
            coin = draw(st.booleans())
            policies[g] = SoftGroupPolicy(
                t_lo=t_lo, t_hi=t_hi, lam=draw(_PROBS), point_lo=(0.0, 0.0), point_hi=(1.0, 1.0),
                p_coin=draw(_PROBS) if coin else 0.0, coin_rate=draw(_PROBS) if coin else 0.0,
            )
    dp = DerivedPredictor(policies=policies, target=(0.5, 0.5), fit_rates={}, loss=LossSpec(), objective=0.0)
    return dp, preds, draw(st.integers(0, 2**40))


class TestBatchedApply:
    @settings(max_examples=300, deadline=None)
    @given(apply_cases(), st.randoms(use_true_random=False))
    def test_equals_row_oracle_and_ignores_row_order(self, case, rnd):
        dp, preds, seed = case
        apply, oracle = (apply_hard, apply_hard_oracle) if dp.variant == "hard" else (apply_soft, apply_soft_oracle)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eo, "_CHUNK_IDS", 3)  # several chunks per call
            out = apply(dp, preds, seed)
        expected = oracle(dp, preds, seed)
        assert out.dtype == np.int8 and out.tobytes() == expected.tobytes()
        perm = list(range(len(preds)))
        rnd.shuffle(perm)
        shuffled = LabeledPredictions(
            ids=tuple(preds.ids[i] for i in perm),
            y_true=preds.y_true[perm],
            groups=tuple(preds.groups[i] for i in perm),
            scores=preds.scores[perm],
            y_hat=preds.y_hat[perm],
            universe=preds.universe[::-1],
        )
        assert apply(dp, shuffled, seed).tobytes() == out[perm].tobytes()


# ---------------------------------------------------------------------------
# the soft fit's upper envelope, read off the convex hull


@st.composite
def roc_inputs(draw):
    """Scores and labels with both classes: heavy ties (few score levels),
    a single distinct score, curves below the diagonal and 2-row groups."""
    n = draw(st.integers(2, 60))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda y: 0 < sum(y) < n))
    levels = draw(st.sampled_from([1, 2, 3, 5, 0]))  # 0: continuous scores
    if levels:
        scores = [draw(st.integers(0, levels - 1)) / levels for _ in range(n)]
    else:
        scores = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    if draw(st.booleans()):  # informative scores, optionally inverted below the diagonal
        invert = draw(st.booleans())
        scores = [min(1.0, 0.5 * s + 0.5 * (y != invert)) for s, y in zip(scores, labels)]
    return np.array(scores), np.array(labels)


class TestUpperEnvelope:
    @settings(max_examples=300, deadline=None)
    @given(roc_inputs())
    @example((np.array([0.9, 0.1]), np.array([0, 1])))
    @example((np.array([0.5, 0.5, 0.5]), np.array([0, 1, 1])))
    @example((np.array([0.2, 0.8]), np.array([0, 1])))
    def test_hull_envelope_equals_oracle(self, data):
        scores, labels = data
        curve = roc_curve(scores, labels)
        pts = np.column_stack((curve.fpr, curve.tpr))
        envelope = _upper_envelope(convex_hull_indices(pts), len(pts) - 1)
        assert envelope == upper_chain_oracle(pts)


# ---------------------------------------------------------------------------
# the soft fit's hull, built from the ROC staircase corners only


@st.composite
def pooled_roc_inputs(draw):
    """Scores drawn from a pool of one to six distinct values, so ties of
    every size make diagonal steps; labels with both classes.  The scores
    may follow the labels, above the diagonal or below it."""
    pool = sorted(draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=6, unique=True)))
    n = draw(st.integers(2, 80))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(lambda y: 0 < sum(y) < n))
    lean = draw(st.sampled_from([None, 1, 0]))  # the label whose scores sit in the upper half
    high, low = pool[len(pool) // 2:], pool[: (len(pool) + 1) // 2]
    scores = [
        draw(st.sampled_from(pool if lean is None else high if y == lean else low)) for y in labels
    ]
    return np.array(scores), np.array(labels)


class TestRocHull:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(pooled_roc_inputs(), roc_inputs()))
    @example((np.array([0.9, 0.1]), np.array([0, 1])))
    @example((np.array([0.5, 0.5]), np.array([0, 1])))
    # two diagonal steps of different slope meet in a strict hull vertex
    @example((np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), np.array([1, 1, 0, 1, 0, 0])))
    def test_corner_hull_equals_full_curve_oracle(self, data):
        scores, labels = data
        pts, hull = roc_hull_oracle(scores, labels)
        assert _roc_hull(pts) == hull

    def test_only_corners_reach_the_hull(self, monkeypatch):
        seen = []

        def spy(pts):
            seen.append(pts.tolist())
            return convex_hull_indices(pts)

        monkeypatch.setattr(eo, "convex_hull_indices", spy)
        # (0,0) (0,1/3) (0,2/3) (0,1) (1/2,1) (1,1): a vertical run, then a horizontal one
        curve = roc_curve([0.9, 0.8, 0.7, 0.2, 0.1], [1, 1, 1, 0, 0])
        assert _roc_hull(np.column_stack((curve.fpr, curve.tpr))) == [0, 5, 3]
        assert seen == [[[0.0, 0.0], [0.0, 1.0], [1.0, 1.0]]]
