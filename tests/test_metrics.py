from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from equifair import (
    LabeledPredictions,
    ValidationError,
    auc_prc,
    auc_roc,
    build_report,
    confusion_rates,
    gap_ranges,
    multilabel_auc,
    roc_curve,
    schema,
)
from equifair.synth import generate_multilabel

from helpers import group_masks, group_rates_from_dict, report_from_json, roc_points, total_samples, trapezoid_area
from oracles import (
    pairwise_auc_oracle,
    prc_enumeration_oracle,
    roc_sweep_oracle,
    tally_rates_oracle,
)

# ---------------------------------------------------------------------------
# confusion rates


class TestConfusionRates:
    def test_perfect_predictor(self):
        y = np.array([1, 0, 1, 0, 1, 0])
        preds = LabeledPredictions(
            ids=tuple("abcdef"), y_true=y, groups=("g1",) * 3 + ("g2",) * 3, y_hat=y.copy()
        )
        rates = confusion_rates(preds)
        for g in ("g1", "g2"):
            assert rates[g].tpr == 1.0 and rates[g].tnr == 1.0

    def test_constant_zero_predictor(self):
        y = np.array([1, 0, 1, 0])
        preds = LabeledPredictions(
            ids=tuple("abcd"), y_true=y, groups=("g1", "g1", "g2", "g2"), y_hat=np.zeros(4)
        )
        rates = confusion_rates(preds)
        for g in ("g1", "g2"):
            assert rates[g].tpr == 0.0 and rates[g].tnr == 1.0

    def test_eight_sample_mixed_table_matches_tally_oracle(self):
        ids = tuple(f"s{i}" for i in range(8))
        y_true = [1, 1, 0, 0, 1, 0, 1, 0]
        groups = ["g1", "g1", "g1", "g1", "g2", "g2", "g2", "g2"]
        y_hat = [1, 0, 1, 0, 1, 1, 1, 0]
        expected = tally_rates_oracle(ids, y_true, groups, y_hat)
        rates = confusion_rates(
            LabeledPredictions(ids=ids, y_true=np.array(y_true), groups=tuple(groups), y_hat=np.array(y_hat))
        )
        for g, e in expected.items():
            assert rates[g].tpr == e["tpr"]
            assert rates[g].tnr == e["tnr"]
            assert rates[g].n_pos == e["n_pos"]
            assert rates[g].n_neg == e["n_neg"]

    def test_empty_universe_group_matches_tally_oracle(self):
        ids = tuple(f"s{i}" for i in range(6))
        y_true = [1, 0, 0, 1, 1, 0]
        groups = ["g3", "g1", "g3", "g1", "g3", "g3"]
        y_hat = [1, 1, 0, 0, 1, 1]
        universe = ("g3", "g2", "g1")  # g2 has no rows; not in sorted order
        expected = tally_rates_oracle(ids, y_true, groups, y_hat, universe=universe)
        rates = confusion_rates(
            LabeledPredictions(
                ids=ids, y_true=np.array(y_true), groups=tuple(groups), y_hat=np.array(y_hat), universe=universe
            )
        )
        assert tuple(rates) == universe
        for g, e in expected.items():
            assert (rates[g].tpr, rates[g].tnr, rates[g].n_pos, rates[g].n_neg) == (e["tpr"], e["tnr"], e["n_pos"], e["n_neg"])
        assert rates["g2"].fpr is None and rates["g2"].fnr is None

    def test_single_class_group_flagged_undefined(self):
        preds = LabeledPredictions(
            ids=("a", "b", "c"),
            y_true=np.array([1, 1, 0]),
            groups=("g1", "g1", "g2"),
            y_hat=np.array([1, 0, 0]),
        )
        rates = confusion_rates(preds)
        assert rates["g1"].tnr is None and rates["g1"].fpr is None
        assert rates["g2"].tpr is None and rates["g2"].tpr is None
        assert rates["g1"].tpr == 0.5

    def test_requires_y_hat(self):
        preds = LabeledPredictions(
            ids=("a", "b"), y_true=np.array([1, 0]), groups=("g", "g"), scores=np.array([0.6, 0.4])
        )
        with pytest.raises(ValidationError):
            confusion_rates(preds)

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(0)
        n = 200
        preds = LabeledPredictions(
            ids=tuple(f"i{k}" for k in range(n)),
            y_true=rng.integers(0, 2, n),
            groups=tuple(rng.choice(["a", "b", "c"], n)),
            y_hat=rng.integers(0, 2, n),
        )
        rates = confusion_rates(preds)
        assert total_samples(rates) == n


class TestGapRanges:
    def _rates(self, tprs, tnrs):
        return group_rates_from_dict(
            {
                f"g{i}": {
                    "tpr": t,
                    "tnr": n,
                    "fpr": None if n is None else 1 - n,
                    "fnr": None if t is None else 1 - t,
                    "n_pos": 0 if t is None else 10,
                    "n_neg": 0 if n is None else 10,
                }
                for i, (t, n) in enumerate(zip(tprs, tnrs))
            }
        )

    def test_single_group_is_zero(self):
        assert gap_ranges(self._rates([0.7], [0.6])) == (0.0, 0.0)

    def test_identical_rates_zero(self):
        assert gap_ranges(self._rates([0.7, 0.7], [0.6, 0.6])) == (0.0, 0.0)

    def test_max_minus_min(self):
        tpr_range, _ = gap_ranges(self._rates([0.6, 0.8, 0.9], [0.5, 0.5, 0.5]))
        assert tpr_range == pytest.approx(0.3, abs=1e-15)

    def test_undefined_rates_excluded(self):
        tpr_range, tnr_range = gap_ranges(self._rates([0.6, None, 0.9], [0.5, 0.7, 0.5]))
        assert tpr_range == pytest.approx(0.3, abs=1e-15)
        assert tnr_range == pytest.approx(0.2, abs=1e-15)

    def test_nothing_defined_raises(self):
        with pytest.raises(ValidationError):
            gap_ranges(self._rates([None], [None]))

    def test_relabeling_invariance(self):
        r1 = self._rates([0.6, 0.9], [0.5, 0.7])
        permuted = {"z": r1["g0"], "a": r1["g1"]}
        assert gap_ranges(r1) == gap_ranges(permuted)


# ---------------------------------------------------------------------------
# AUCs


class TestAucRoc:
    def test_perfect_separation(self):
        assert auc_roc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties(self):
        assert auc_roc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5

    def test_known_mixed_case(self):
        # pairwise oracle over the 4 pos/neg pairs: 3 wins of 4
        scores, labels = [0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]
        assert auc_roc(scores, labels) == 0.75
        assert auc_roc(scores, labels) == pairwise_auc_oracle(scores, labels)

    def test_single_class_raises(self):
        with pytest.raises(ValidationError):
            auc_roc([0.3, 0.4], [1, 1])

    @given(
        st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.75, 1.0]), min_size=1, max_size=6, unique=True),
        st.data(),
    )
    def test_matches_pairwise_oracle(self, pool, data):
        # a pool of one to six distinct scores: heavy ties, down to a single score
        scores = data.draw(st.lists(st.sampled_from(pool), min_size=2, max_size=60))
        labels = data.draw(
            st.lists(st.sampled_from([0, 1]), min_size=len(scores), max_size=len(scores))
        )
        if len(set(labels)) < 2:
            labels[0], labels[-1] = 0, 1
        # the trapezoid's exact 2U and the oracle's pair count give the same rational
        assert auc_roc(scores, labels) == pairwise_auc_oracle(scores, labels)

    @given(st.integers(0, 2**32 - 1))
    def test_label_flip_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(20)
        labels = rng.integers(0, 2, 20)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auc_roc(scores, 1 - labels) == pytest.approx(1.0 - auc_roc(scores, labels), abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(30)
        labels = rng.integers(0, 2, 30)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        squashed = scores**3 / 2.0  # strictly increasing into [0, 0.5]
        assert auc_roc(squashed, labels) == pytest.approx(auc_roc(scores, labels), abs=1e-12)


class TestAucPrc:
    def test_perfect_separation(self):
        assert auc_prc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_three_sample_case_matches_enumeration_oracle(self):
        scores, labels = [0.9, 0.8, 0.7], [1, 0, 1]
        expected = prc_enumeration_oracle(scores, labels)
        assert expected == pytest.approx(5.0 / 6.0, abs=1e-15)
        assert auc_prc(scores, labels) == pytest.approx(expected, abs=1e-15)

    def test_single_positive_ranked_last_equals_base_rate(self):
        scores, labels = [0.9, 0.8, 0.7, 0.6], [0, 0, 0, 1]
        expected = prc_enumeration_oracle(scores, labels)
        assert expected == pytest.approx(0.25, abs=1e-15)  # the base rate 1/4
        assert auc_prc(scores, labels) == pytest.approx(expected, abs=1e-15)

    def test_positives_ranked_last_matches_enumeration_oracle(self):
        scores = [0.9, 0.8, 0.7, 0.6, 0.5]
        labels = [0, 0, 0, 1, 1]
        assert auc_prc(scores, labels) == pytest.approx(prc_enumeration_oracle(scores, labels), abs=1e-15)

    def test_no_positive_raises(self):
        with pytest.raises(ValidationError):
            auc_prc([0.2, 0.4], [0, 0])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 40))
    def test_matches_enumeration_oracle(self, seed, n):
        rng = np.random.default_rng(seed)
        scores = rng.choice([0.0, 0.2, 0.4, 0.6, 0.8, 1.0], n).tolist()
        labels = rng.integers(0, 2, n).tolist()
        if sum(labels) == 0:
            labels[0] = 1
        assert auc_prc(scores, labels) == pytest.approx(prc_enumeration_oracle(scores, labels), abs=1e-12)


class TestRocCurve:
    def test_perfect_separator_contains_corners(self):
        curve = roc_curve([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1])
        pts = {(f, t) for f, t, _ in roc_points(curve)}
        assert {(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)} <= pts

    def test_all_ties_two_points(self):
        curve = roc_curve([0.5] * 4, [0, 1, 0, 1])
        assert roc_points(curve) == [(0.0, 0.0, np.inf), (1.0, 1.0, 0.5)]

    def test_six_sample_case_matches_sweep_oracle(self):
        scores = [0.9, 0.8, 0.8, 0.4, 0.3, 0.1]
        labels = [1, 0, 1, 1, 0, 0]
        curve = roc_curve(scores, labels)
        assert {(f, t) for f, t, _ in roc_points(curve)} == roc_sweep_oracle(scores, labels)

    def test_monotone(self):
        rng = np.random.default_rng(3)
        scores = rng.random(50)
        labels = rng.integers(0, 2, 50)
        labels[:2] = [0, 1]
        curve = roc_curve(scores, labels)
        assert (np.diff(curve.fpr) >= 0).all()
        assert (np.diff(curve.tpr) >= 0).all()

    @given(st.integers(0, 2**32 - 1))
    def test_trapezoid_area_equals_auc(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.choice([0.0, 0.25, 0.5, 0.5, 0.75, 1.0], 30)
        labels = rng.integers(0, 2, 30)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        curve = roc_curve(scores, labels)
        assert trapezoid_area(curve) == pytest.approx(auc_roc(scores, labels), abs=1e-12)


class TestMultilabelAuc:
    def test_perfect_labels(self):
        y = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
        res = multilabel_auc(y.astype(float), y)
        assert res.macro == 1.0 and res.micro == 1.0

    def test_macro_is_mean_of_per_label(self):
        scores = np.array([[0.9, 0.9], [0.8, 0.1], [0.7, 0.8], [0.1, 0.2]])
        y = np.array([[1, 0], [0, 1], [1, 1], [0, 0]])
        res = multilabel_auc(scores, y)
        a0 = auc_roc(scores[:, 0], y[:, 0])
        a1 = auc_roc(scores[:, 1], y[:, 1])
        assert res.macro == pytest.approx((a0 + a1) / 2, abs=1e-15)

    def test_known_macro_value(self):
        # per-label AUCs 0.6 and 0.8 (pairwise win counts 15/25 and 20/25)
        y0 = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        s0 = np.array([0.9, 0.85, 0.5, 0.4, 0.07, 0.8, 0.7, 0.6, 0.1, 0.05])
        y1 = np.array([1, 1, 1, 1, 1, 0, 0, 0, 0, 0])
        s1 = np.array([0.9, 0.85, 0.75, 0.5, 0.4, 0.8, 0.7, 0.2, 0.1, 0.05])
        assert auc_roc(s0, y0) == pytest.approx(0.6)
        assert auc_roc(s1, y1) == pytest.approx(0.8)
        res = multilabel_auc(np.column_stack([s0, s1]), np.column_stack([y0, y1]))
        assert res.macro == pytest.approx(0.7, abs=1e-12)

    def test_twenty_five_label_matrix_matches_oracles(self):
        scores, y = generate_multilabel(150, n_labels=25, seed=7)
        res = multilabel_auc(scores, y)
        per_label = [
            pairwise_auc_oracle(scores[:, j], y[:, j])
            for j in range(25)
            if y[:, j].min() != y[:, j].max()
        ]
        assert res.macro == pytest.approx(np.mean(per_label), abs=1e-12)
        assert res.micro == pytest.approx(auc_roc(scores.ravel(), y.ravel()), abs=1e-15)

    def test_single_class_column_excluded_with_warning(self):
        scores = np.array([[0.9, 0.9], [0.8, 0.1], [0.7, 0.8], [0.1, 0.2]])
        y = np.array([[1, 1], [0, 1], [1, 1], [0, 1]])
        res = multilabel_auc(scores, y)
        assert res.excluded_labels == (1,)
        assert res.per_label[1] is None
        assert res.warnings

    def test_requires_two_labels(self):
        with pytest.raises(ValidationError):
            multilabel_auc(np.array([[0.5], [0.4]]), np.array([[1], [0]]))


# ---------------------------------------------------------------------------
# report assembly


class TestBuildReport:
    def _preds(self):
        rng = np.random.default_rng(5)
        n = 120
        y = rng.integers(0, 2, n)
        scores = np.clip(0.5 + 0.3 * (2 * y - 1) + 0.2 * rng.standard_normal(n), 0, 1)
        return LabeledPredictions(
            ids=tuple(f"r{i}" for i in range(n)),
            y_true=y,
            groups=tuple(rng.choice(["a", "b"], n)),
            scores=scores,
            y_hat=(scores >= 0.5).astype(int),
        )

    def test_perfect_predictor_report(self):
        y = np.array([1, 0, 1, 0])
        preds = LabeledPredictions(
            ids=("a", "b", "c", "d"),
            y_true=y,
            groups=("g1", "g1", "g2", "g2"),
            scores=np.array([0.9, 0.1, 0.8, 0.2]),
            y_hat=y.copy(),
        )
        report = build_report(preds, task="t")
        assert report.tpr_range == 0.0 and report.tnr_range == 0.0
        assert report.auc_roc_overall == 1.0

    def test_fields_match_independent_recomputation(self):
        preds = self._preds()
        report = build_report(preds)
        rates = confusion_rates(preds)
        tpr_range, tnr_range = gap_ranges(rates)
        assert report.tpr_range == tpr_range and report.tnr_range == tnr_range
        assert report.auc_roc_overall == auc_roc(preds.scores, preds.y_true)
        assert report.auc_prc_overall == auc_prc(preds.scores, preds.y_true)
        for g, m in group_masks(preds).items():
            assert report.auc_roc_per_group[g] == auc_roc(preds.scores[m], preds.y_true[m])

    def test_empty_metadata_still_valid(self):
        report = build_report(self._preds())
        assert report.metadata["task"] == ""
        assert report.metadata["seed"] is None

    def test_json_round_trip(self):
        report = build_report(self._preds(), task="x", seed=3)
        back = report_from_json(schema.dumps(report, "report"))
        assert asdict(back) == asdict(report)
