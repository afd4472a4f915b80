import concurrent.futures
import csv
import io
import math
import multiprocessing
import os
import re
import signal
import subprocess
import tracemalloc

import numpy as np
import pytest
from numpy.dtypes import StringDType
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from equifair import (
    BiasSubspace,
    CohortConfig,
    EmbeddingMatrix,
    EmptyInputError,
    EnsembleModel,
    FormatError,
    LabeledPredictions,
    ValidationError,
    apply_hard,
    auc_prc,
    auc_roc,
    eo,
    fit_eo_hard,
    fit_ensemble,
    generate_cohort,
    multilabel_auc,
    predict_proba,
    predictions,
    roc_curve,
)
from equifair.eo import sample_uniforms
from equifair.predictions import (
    as_binary,
    as_probabilities,
    read_prediction_file,
    read_predictions,
    write_predictions,
)

from helpers import recorded_pools, traced_peak
from oracles import read_prediction_file_oracle, sample_uniforms_oracle, write_predictions_oracle


def small_preds(**kwargs):
    defaults = dict(
        ids=("a", "b", "c", "d"),
        y_true=np.array([1, 0, 1, 0]),
        groups=("g1", "g1", "g2", "g2"),
        scores=np.array([0.9, 0.2, 0.6, 0.4]),
        y_hat=np.array([1, 0, 1, 0]),
    )
    defaults.update(kwargs)
    return LabeledPredictions(**defaults)


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            LabeledPredictions(ids=(), y_true=np.array([]), groups=())

    def test_scores_or_y_hat_required(self):
        with pytest.raises(ValidationError):
            small_preds(scores=None, y_hat=None)

    def test_score_range_enforced(self):
        with pytest.raises(ValidationError):
            small_preds(scores=np.array([1.2, 0.2, 0.6, 0.4]))

    def test_binary_labels_enforced(self):
        with pytest.raises(ValidationError):
            small_preds(y_true=np.array([1, 0, 2, 0]))

    def test_group_outside_universe_rejected(self):
        with pytest.raises(ValidationError):
            small_preds(universe=("g1",))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            small_preds(ids=("a", "a", "c", "d"))

    def test_default_universe_is_sorted_present_groups(self):
        assert small_preds().universe == ("g1", "g2")

    def test_duplicate_universe_labels_rejected(self):
        with pytest.raises(ValidationError):
            small_preds(universe=("g1", "g2", "g1"))

    def test_group_codes_index_the_universe(self):
        preds = small_preds(universe=("g2", "g0", "g1"))
        assert preds.group_codes.dtype == np.uint8
        assert [preds.universe[c] for c in preds.group_codes] == list(preds.groups)
        assert preds.present_groups() == ("g2", "g1")

    def test_group_codes_are_read_only(self):
        preds = small_preds()
        with pytest.raises(ValueError):
            preds.group_codes[0] = 1

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            small_preds(groups=("g1", "g1", "g2"))

    def test_codes_are_the_stored_group_form(self):
        preds = small_preds()
        assert "groups" not in vars(preds)
        assert preds.groups == ("g1", "g1", "g2", "g2")

    def test_group_codes_input(self):
        preds = small_preds(groups=None, group_codes=np.array([2, 2, 0, 2]), universe=("g2", "g0", "g1"))
        assert preds.group_codes.dtype == np.uint8 and preds.group_codes.tolist() == [2, 2, 0, 2]
        assert preds.groups == ("g1", "g1", "g2", "g1")

    @pytest.mark.parametrize("codes", [[0, 1, 2, 0], [0, -1, 1, 0], [0.0, 1.0, 1.0, 0.0], [0, 1, 1]])
    def test_group_codes_must_index_the_universe(self, codes):
        with pytest.raises(ValidationError):
            small_preds(groups=None, group_codes=np.array(codes), universe=("g1", "g2"))

    @pytest.mark.parametrize("codes", [None, np.array([0, 0, 1, 1])])
    def test_exactly_one_group_form(self, codes):
        with pytest.raises(ValidationError, match="^exactly one of groups / group_codes is required$"):
            small_preds(groups=None if codes is None else ("g1", "g1", "g2", "g2"), group_codes=codes)


class _TiedHash(str):
    """A str whose hash is the same for every value."""

    def __hash__(self):
        return 7


# strs that print alike or spell equal numbers, some with every hash tied
TRICKY_IDS = ["1", "1.0", "True", "0", "-0.0", "", "\x00", "a\x00", "é", "e\u0301", *map(_TiedHash, ("1", "a", ""))]


# the value that makes the second of a legal 4-row column bad; 257 comes
# in an int64 array, which a cast to int8 wraps to 1, and 256 in a list,
# which such a cast refuses with OverflowError
BAD_VALUES = {"0.5": 0.5, "257": 257, "256": 256, "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "1.5": 1.5, "-0.1": -0.1}
LABELS, SCORES = [1, 0, 1, 0], [0.9, 0.2, 0.6, 0.4]
MODEL = EnsembleModel(weights=np.array([2.0]), intercept=-1.0, C=1.0, n_iter=0, grad_norm=0.0, converged=True)
# entry point: (its rule, the name the rule's message gives, its call with a column of that rule and a path)
RULE_SITES = {
    "constructor-y_true": ("binary", "y_true", lambda v, path: small_preds(y_true=v)),
    "constructor-y_hat": ("binary", "y_hat", lambda v, path: small_preds(y_hat=v)),
    "constructor-scores": ("probability", "scores", lambda v, path: small_preds(scores=v)),
    "with_outputs-y_hat": ("binary", "y_hat", lambda v, path: small_preds().with_outputs(y_hat=v)),
    "with_outputs-scores": ("probability", "scores", lambda v, path: small_preds().with_outputs(scores=v)),
    "write_predictions-constituent": (
        "probability", "column 'score_m'", lambda v, path: write_predictions(small_preds(), path, {"m": v}),
    ),
    "auc_roc-labels": ("binary", "labels", lambda v, path: auc_roc(SCORES, v)),
    "auc_roc-scores": ("finite", "scores", lambda v, path: auc_roc(v, LABELS)),
    "auc_prc-labels": ("binary", "labels", lambda v, path: auc_prc(SCORES, v)),
    "auc_prc-scores": ("finite", "scores", lambda v, path: auc_prc(v, LABELS)),
    "roc_curve-labels": ("binary", "labels", lambda v, path: roc_curve(SCORES, v)),
    "roc_curve-scores": ("finite", "scores", lambda v, path: roc_curve(v, LABELS)),
    "multilabel_auc-labels": (
        "binary", "labels", lambda v, path: multilabel_auc(np.column_stack([SCORES, SCORES]), np.column_stack([LABELS, v])),
    ),
    "multilabel_auc-scores": (
        "finite", "scores", lambda v, path: multilabel_auc(np.column_stack([SCORES, v]), np.column_stack([LABELS, LABELS])),
    ),
    "fit_ensemble-labels": ("binary", "labels", lambda v, path: fit_ensemble(np.array(SCORES)[:, None], v)),
    "fit_ensemble-features": ("probability", "features", lambda v, path: fit_ensemble(v, LABELS)),
    "predict_proba-features": ("probability", "features", lambda v, path: predict_proba(MODEL, v)),
}
# what each rule refuses: a probability may be 0.5, and a metric's score
# need only be finite, so an AUC of logits stays legal
REFUSED = {
    "binary": (set(BAD_VALUES), "{} must be binary"),
    "probability": (set(BAD_VALUES) - {"0.5"}, "{} must be finite reals in [0, 1]"),
    "finite": ({"nan", "inf", "-inf"}, "{} must be finite"),
}


@st.composite
def number_arrays(draw):
    """Arrays of one to two dimensions, of bools, int8s, int64s or
    float64s, rich in 0 and 1, in reals of [0, 1] and in non-finite floats."""
    dtype, elements = draw(st.sampled_from([
        (np.bool_, st.booleans()),
        (np.int8, st.sampled_from([0, 1]) | st.integers(-128, 127)),
        (np.int64, st.sampled_from([0, 1, 256, 257]) | st.integers(-(2**40), 2**40)),
        (np.float64, st.sampled_from([0.0, -0.0, 1.0]) | st.floats(0.0, 1.0) | st.floats()),
    ]))
    return draw(arrays(dtype, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5), elements=elements))


class TestValueRules:
    """One binary rule and one probability rule (``predictions.as_binary``
    and ``as_probabilities``) for every entry point that takes labels or
    probabilities; a metric's scores are checked only to be finite."""

    @pytest.mark.parametrize("site, bad", [
        (site, bad) for site, (rule, _, _) in RULE_SITES.items() for bad in BAD_VALUES if bad in REFUSED[rule][0]
    ])
    def test_each_entry_point_refuses_a_bad_value_with_its_rules_message(self, site, bad, tmp_path):
        rule, name, call = RULE_SITES[site]
        legal = SCORES if rule == "probability" else LABELS
        column = [legal[0], BAD_VALUES[bad], *legal[2:]]
        if bad == "257":
            column = np.array(column)
        with pytest.raises(ValidationError, match="^" + re.escape(REFUSED[rule][1].format(name)) + "$"):
            call(column, tmp_path / "p.csv")
        assert not (tmp_path / "p.csv").exists()

    @settings(max_examples=300, deadline=None)
    @given(number_arrays())
    def test_the_binary_rule_takes_exactly_zeros_and_ones_unchanged(self, x):
        if set(x.ravel().tolist()) <= {0, 1}:
            got = as_binary(x, "v")
            assert got.dtype == np.int8 and got.shape == x.shape and (got == x).all()
            assert (got is x) == (x.dtype == np.int8)
        else:
            with pytest.raises(ValidationError, match=r"^v must be binary$"):
                as_binary(x, "v")

    @settings(max_examples=300, deadline=None)
    @given(number_arrays())
    def test_the_probability_rule_takes_exactly_finite_reals_in_the_unit_interval_unchanged(self, x):
        if all(0.0 <= v <= 1.0 for v in x.ravel().tolist()):
            got = as_probabilities(x, "v")
            assert got.dtype == np.float64 and got.shape == x.shape and (got == x).all()
            assert (got is x) == (x.dtype == np.float64)
        else:
            with pytest.raises(ValidationError, match=r"^v must be finite reals in \[0, 1\]$"):
                as_probabilities(x, "v")


class TestUniqueIds:
    """Sorted hashes prove ids distinct; a tie falls back to a set."""

    def test_distinct_ids_with_tied_hashes_accepted(self):
        ids = tuple(map(_TiedHash, "abcd"))
        assert small_preds(ids=ids).ids == ids

    def test_repeated_id_with_tied_hashes_rejected(self):
        with pytest.raises(ValidationError, match="^sample ids must be unique$"):
            small_preds(ids=tuple(map(_TiedHash, "abca")))

    @pytest.mark.parametrize("ids, hashes", [
        ("abcd", [0, 0, 0, 0]),
        ("abca", [0, 0, 0, 0]),
        ("abcd", [0, 1, 0, 1]),
        ("abcb", [0, 1, 0, 1]),
        ("abcde", [2, 1, 1, 0, 0]),
        ("abcdb", [2, 1, 1, 0, 1]),
    ])
    def test_a_tie_is_settled_by_the_strings(self, ids, hashes):
        check = lambda: predictions._require_unique(np.array(list(ids), dtype=StringDType()), np.array(hashes, dtype=np.int64))
        if len(set(ids)) == len(ids):
            check()
        else:
            with pytest.raises(ValidationError, match="^sample ids must be unique$"):
                check()

    @pytest.mark.parametrize("rows", [3, predictions._HASH_ROWS + 1])
    def test_a_given_column_is_checked(self, rows):
        ids = [f"r{i}" for i in range(rows)]
        build = lambda column: LabeledPredictions(id_column=column, y_true=np.zeros(rows), groups=("g",) * rows, y_hat=np.zeros(rows))
        assert build(np.array(ids, dtype=StringDType())).ids == tuple(ids)
        with pytest.raises(ValidationError, match="^sample ids must be unique$"):
            build(np.array([*ids[:-1], ids[0]], dtype=StringDType()))

    @pytest.mark.parametrize("bad", [1, 1.0, None, b"a"])
    def test_ids_that_are_not_strings_rejected(self, bad):
        with pytest.raises(ValidationError, match="^sample ids must be strings$"):
            small_preds(ids=("a", "b", "c", bad))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(TRICKY_IDS), st.text(max_size=2)), min_size=1, max_size=12))
    def test_agrees_with_a_set(self, ids):
        n = len(ids)
        build = lambda: LabeledPredictions(ids=ids, y_true=np.zeros(n), groups=("g",) * n, y_hat=np.zeros(n))
        if len(set(ids)) == n:
            assert build().ids == tuple(ids)
        else:
            with pytest.raises(ValidationError, match="^sample ids must be unique$"):
                build()


class TestGroupCodes:
    LABELS = ("b", "a", "c", "a", "b", "b")

    @pytest.mark.parametrize("universe", [(), ("c", "b", "a", "d")])
    def test_reader_and_groups_give_the_same_codes(self, tmp_path, universe):
        built = LabeledPredictions(
            ids=tuple("uvwxyz"), y_true=np.zeros(6), groups=self.LABELS, y_hat=np.ones(6), universe=universe
        )
        write_predictions(built, tmp_path / "p.csv")
        read = read_predictions(tmp_path / "p.csv", universe=universe)
        for preds in (built, read):
            assert preds.universe == (universe or ("a", "b", "c"))
            assert preds.groups == self.LABELS
        assert read.group_codes.dtype == built.group_codes.dtype == np.uint8
        assert read.group_codes.tobytes() == built.group_codes.tobytes()

    def test_cohort_gives_the_codes_of_its_labels(self, tmp_path):
        cohort = generate_cohort(CohortConfig(groups={"b": 0.3, "a": 0.5, "d": 0.0, "c": 0.2}, n_samples=400, seed=3))
        drawn = cohort.modalities[0]
        assert drawn.universe == ("b", "a", "d", "c")
        built = LabeledPredictions(ids=drawn.ids, y_true=drawn.y_true, groups=drawn.groups, y_hat=drawn.y_hat, universe=drawn.universe)
        write_predictions(drawn, tmp_path / "p.csv")
        read = read_predictions(tmp_path / "p.csv", universe=drawn.universe)
        for preds in (built, read):
            assert preds.universe == drawn.universe and preds.groups == drawn.groups
            assert preds.group_codes.dtype == drawn.group_codes.dtype
            assert preds.group_codes.tobytes() == drawn.group_codes.tobytes()


class TestWithOutputs:
    def test_replaces_the_outputs_and_shares_the_rest(self):
        preds = small_preds()
        derived = preds.with_outputs(y_hat=[0, 0, 1, 1])
        assert derived.scores is None and derived.y_hat.tolist() == [0, 0, 1, 1]
        assert not derived.y_hat.flags.writeable
        for name in ("id_column", "y_true", "group_codes", "universe"):
            assert getattr(derived, name) is getattr(preds, name), name
        assert preds.y_hat.tolist() == [1, 0, 1, 0] and preds.scores is not None

    @pytest.mark.parametrize("outputs, message", [
        ({"y_hat": [1, 0, 2, 0]}, r"^y_hat must be binary$"),
        ({"scores": [0.5, 1.5, 0.5, 0.5]}, r"^scores must be finite reals in \[0, 1\]$"),
        ({"scores": [0.5, math.nan, 0.5, 0.5]}, r"^scores must be finite reals in \[0, 1\]$"),
        ({"scores": [0.5, 0.5]}, r"^scores length mismatch$"),
        ({}, r"^at least one of scores / y_hat is required$"),
    ])
    def test_checks_the_new_columns(self, outputs, message):
        with pytest.raises(ValidationError, match=message):
            small_preds().with_outputs(**outputs)


def _predictions(**given):
    preds = LabeledPredictions(universe=("g1", "g2"), **given)
    return preds, preds.with_outputs(scores=given["scores"], y_hat=given["y_hat"])


# each value type: a maker of the arrays a caller passes it, by field name,
# and the values it builds from them
VALUE_TYPES = {
    "LabeledPredictions": (
        lambda: {
            "id_column": np.array(["a", "b", "c", "d"], dtype=StringDType()),
            "y_true": np.array([1, 0, 1, 0], dtype=np.int8),
            "group_codes": np.array([0, 0, 1, 1], dtype=np.uint8),
            "scores": np.array([0.9, 0.2, 0.6, 0.4]),
            "y_hat": np.array([1, 0, 1, 0], dtype=np.int8),
        },
        _predictions,
    ),
    "EmbeddingMatrix": (
        lambda: {"vectors": np.array([[3.0, 4.0], [0.0, 2.0], [1.0, -1.0]])},
        lambda **given: (EmbeddingMatrix(tokens=("a", "b", "c"), **given),),
    ),
    "BiasSubspace": (
        lambda: {"basis": np.array([[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])},
        lambda **given: (BiasSubspace(**given),),
    ),
    "EnsembleModel": (
        lambda: {"weights": np.array([2.0, -1.0])},
        lambda **given: (EnsembleModel(intercept=0.3, C=1.0, n_iter=0, grad_norm=0.0, converged=True, **given),),
    ),
}


@pytest.mark.parametrize("columns, build", VALUE_TYPES.values(), ids=VALUE_TYPES)
class TestArrayOwnership:
    """One rule for every value type (``predictions._owned``): its arrays
    are read-only and its own, and an array its caller passed is copied
    unless it is read-only all the way down."""

    @staticmethod
    def _overwrite(arrays):
        for a in arrays.values():
            a[...] = "z" if a.dtype.kind == "T" else 0

    @staticmethod
    def _assert_kept(values, expected):
        for value in values:
            for name, want in expected.items():
                got = getattr(value, name)
                assert not got.flags.writeable and np.array_equal(got, want), name

    def test_the_callers_arrays_stay_writeable_and_apart(self, columns, build):
        given, expected = columns(), columns()
        values = build(**given)
        assert all(a.flags.writeable for a in given.values())
        self._overwrite(given)
        self._assert_kept(values, expected)

    def test_arrays_read_only_all_the_way_down_are_shared(self, columns, build):
        fresh = {name: predictions.readonly(a) for name, a in columns().items()}
        # the numeric arrays as views of immutable bytes
        in_bytes = {name: a if a.dtype.kind == "T" else np.frombuffer(a.tobytes(), a.dtype).reshape(a.shape)
                    for name, a in fresh.items()}
        for given in (fresh, in_bytes):
            for value in build(**given):
                for name, a in given.items():
                    assert getattr(value, name) is a, name

    def test_read_only_views_of_writeable_memory_are_copied(self, columns, build):
        bases, expected = columns(), columns()
        of_arrays = {name: predictions.readonly(a[...]) for name, a in bases.items()}
        # the numeric arrays as read-only views of read-only arrays over a bytearray
        buffers = {name: bytearray(a.tobytes()) for name, a in bases.items() if a.dtype.kind != "T"}
        of_bytearrays = {**of_arrays, **{
            name: predictions.readonly(np.frombuffer(buf, bases[name].dtype)).reshape(bases[name].shape)
            for name, buf in buffers.items()}}
        values = (*build(**of_arrays), *build(**of_bytearrays))
        self._overwrite(bases)
        for buf in buffers.values():
            np.frombuffer(buf, np.uint8)[:] = 0
        self._assert_kept(values, expected)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        preds = small_preds()
        path = tmp_path / "preds.csv"
        write_predictions(preds, path)
        back = read_predictions(path)
        assert back.ids == preds.ids
        assert back.groups == preds.groups
        np.testing.assert_array_equal(back.y_true, preds.y_true)
        np.testing.assert_array_equal(back.y_hat, preds.y_hat)
        np.testing.assert_array_equal(back.scores, preds.scores)

    def test_round_trip_bytes_identical(self, tmp_path):
        preds = small_preds(scores=np.array([0.1, 0.30000000000000004, 1.0, 0.0]))
        path, again = tmp_path / "a.csv", tmp_path / "b.csv"
        write_predictions(preds, path)
        write_predictions(read_predictions(path), again)
        assert again.read_bytes() == path.read_bytes()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), block_chars=st.integers(1, 200))
    def test_save_load_save_is_byte_identical(self, csv_path, data, block_chars):
        preds, consts = data.draw(labeled_predictions())
        again = csv_path.with_name("again.csv")
        write_predictions(preds, csv_path, consts)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(predictions, "_BLOCK_CHARS", block_chars)
            back = read_prediction_file(csv_path)
        write_predictions(back.predictions, again, back.constituent_scores)
        assert again.read_bytes() == csv_path.read_bytes()

    def _check_row_oracle(self, csv_path, data, write_rows, pooled):
        n = data.draw(st.sampled_from([write_rows - 1, write_rows, write_rows + 1, 2 * write_rows + 1]).filter(bool))
        preds, consts = data.draw(labeled_predictions(st.just(n)))
        expected = csv_path.with_name("oracle.csv")
        write_predictions_oracle(preds, expected, consts)
        with prediction_io(pooled, write_rows) as started:
            write_predictions(preds, csv_path, consts)
        assert len(started) == pooled
        assert csv_path.read_bytes() == expected.read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), write_rows=st.integers(1, 5))
    def test_equals_row_oracle(self, csv_path, data, write_rows):
        self._check_row_oracle(csv_path, data, write_rows, pooled=False)

    @settings(max_examples=8, deadline=None)
    @given(data=st.data(), write_rows=st.integers(1, 5))
    def test_pooled_equals_row_oracle(self, csv_path, data, write_rows):
        self._check_row_oracle(csv_path, data, write_rows, pooled=True)

    def _check_chunk_boundary(self, tmp_path, pooled):
        n = predictions._WRITE_ROWS + 1
        rng = np.random.default_rng(0)
        preds = LabeledPredictions(
            ids=tuple(f'r{i}' if i % 7 else f'"r,{i}"' for i in range(n)),
            y_true=rng.integers(0, 2, n),
            groups=tuple(rng.choice(["x", "y\r\nz", "é"], n)),
            scores=rng.random(n),
        )
        consts = {"m": rng.random(n)}
        with prediction_io(pooled) as started:
            write_predictions(preds, tmp_path / "a.csv", consts)
        write_predictions_oracle(preds, tmp_path / "b.csv", consts)
        assert len(started) == pooled
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_equals_row_oracle_across_a_chunk_boundary(self, tmp_path):
        self._check_chunk_boundary(tmp_path, pooled=False)

    def test_pooled_equals_row_oracle_across_a_chunk_boundary(self, tmp_path):
        self._check_chunk_boundary(tmp_path, pooled=True)

    def test_short_constituent_column_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        with pytest.raises(ValidationError, match=r"^column 'score_m0' length mismatch$"):
            write_predictions(small_preds(), path, {"m0": np.array([0.1, 0.2])})
        assert not path.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.0, 1.5, -0.5])
    def test_constituent_value_outside_unit_interval_rejected(self, tmp_path, bad):
        # refused before the file is opened or a worker started, from 0 real values on
        path = tmp_path / "p.csv"
        with prediction_io(pooled=True) as started, pytest.raises(ValidationError, match=r"^column 'score_m1' must be finite reals in \[0, 1\]$"):
            write_predictions(small_preds(), path, {"m0": [0.1, 0.2, 0.3, 0.4], "m1": [0.1, bad, 0.3, 0.4]})
        assert started == [] and not path.exists()

    def test_score_only_file(self, tmp_path):
        preds = small_preds(y_hat=None)
        path = tmp_path / "p.csv"
        write_predictions(preds, path)
        back = read_predictions(path)
        assert back.y_hat is None and back.scores is not None

    def test_missing_header_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,group,y_true,score\n1,g,1,0.5\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_predictions(path)

    def test_both_fields_empty_is_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,group,y_true,score,y_hat\n1,g,1,,\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_predictions(path)

    def test_header_only_file_is_empty_input(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("id,group,y_true,score,y_hat\n", encoding="utf-8")
        with pytest.raises(EmptyInputError):
            read_predictions(path)

    def test_constituent_columns(self, tmp_path):
        path = tmp_path / "feat.csv"
        path.write_text(
            "id,group,y_true,score,y_hat,score_text,score_tab\n"
            "1,g,1,0.5,,0.9,0.7\n"
            "2,g,0,0.4,,0.1,0.3\n",
            encoding="utf-8",
        )
        pfile = read_prediction_file(path)
        assert tuple(pfile.constituent_scores) == ("text", "tab")
        mat = np.column_stack(list(pfile.constituent_scores.values()))
        np.testing.assert_allclose(mat, [[0.9, 0.7], [0.1, 0.3]])

    def test_custom_group_column(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(
            "id,group,ethnicity,y_true,score,y_hat\n1,x,E1,1,0.5,\n2,x,E2,0,0.4,\n",
            encoding="utf-8",
        )
        preds = read_predictions(path, group_col="ethnicity")
        assert preds.groups == ("E1", "E2")

    def test_bad_score_value(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,group,y_true,score,y_hat\n1,g,1,1.5,\n", encoding="utf-8")
        with pytest.raises(FormatError):
            read_predictions(path)


# ---------------------------------------------------------------------------
# the column-wise reader against the row-by-row oracle

# bad values one row may carry: (column, value)
_CORRUPTIONS = st.sampled_from([
    ("y_true", "2"), ("y_true", ""), ("y_true", " 1"), ("y_true", "1\x00"), ("y_hat", "x"), ("y_hat", ""),
    ("score", "1.5"), ("score", "nan"), ("score", "-0.1"), ("score", "abc"), ("score", ""), ("score", "0x1p-1"),
    ("score", " 0.5"), ("score", "1_0"), ("score", "1e-3"), ("score_m", "inf"), ("score_m", ""), (None, "extra"),
    (None, "short"),
])


def _read_both(path, block_chars):
    """(result or exception) of the library reader with blocks of
    ``block_chars`` characters, and of the oracle."""
    out = []
    for read in (predictions.read_prediction_file, read_prediction_file_oracle):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(predictions, "_BLOCK_CHARS", block_chars)
            try:
                out.append(read(path))
            except Exception as exc:  # compared below, type and message
                out.append(exc)
    return out


def _assert_same(got, expected):
    if isinstance(expected, Exception):
        assert type(got) is type(expected) and str(got) == str(expected)
        return
    assert not isinstance(got, Exception), got
    p, q = got.predictions, expected.predictions
    assert p.ids == q.ids and p.groups == q.groups and p.universe == q.universe
    assert len({id(g) for g in p.groups}) == len(set(p.groups))  # one object per label
    for name in ("y_true", "scores", "y_hat", "group_codes"):
        a, b = getattr(p, name), getattr(q, name)
        assert (a is None) == (b is None), name
        assert a is None or (a.dtype == b.dtype and a.tobytes() == b.tobytes()), name
    assert list(got.constituent_scores) == list(expected.constituent_scores)
    for name, a in got.constituent_scores.items():
        assert a.tobytes() == expected.constituent_scores[name].tobytes(), name


@st.composite
def labeled_predictions(draw, sizes=st.integers(1, 12)):
    """A prediction set whose ids and group labels hold commas, quotes,
    line breaks and NULs, with its constituent scores."""
    n = draw(sizes)
    text = st.text(alphabet='ab ,"\n\r\x00é', max_size=5)
    labels = draw(st.lists(text, min_size=1, max_size=3))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(np.array)
    reals = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n).map(np.array)
    filled = draw(st.sampled_from([("scores",), ("y_hat",), ("scores", "y_hat")]))
    preds = LabeledPredictions(
        ids=tuple(draw(st.lists(text, min_size=n, max_size=n, unique=True))),
        y_true=draw(bits),
        groups=tuple(draw(st.lists(st.sampled_from(labels), min_size=n, max_size=n))),
        scores=draw(reals) if "scores" in filled else None,
        y_hat=draw(bits) if "y_hat" in filled else None,
    )
    return preds, draw(st.dictionaries(st.sampled_from(["m0", "m1", 'm,"2']), reals))


@st.composite
def prediction_csvs(draw):
    """CSV text with quoted fields holding commas, quotes and line breaks,
    CRLF or LF line ends, blank lines, empty score or y_hat columns,
    score_<name> columns and, sometimes, one bad value."""
    columns = ["id", "group", "y_true", "score", "y_hat"] + (["score_m"] if draw(st.booleans()) else [])
    columns = draw(st.permutations(columns))
    n = draw(st.integers(1, 12))
    text = st.text(alphabet=draw(st.sampled_from(["ab \x00é", 'ab ,"\n\r\x00é'])), max_size=5)
    ids = draw(st.lists(text, min_size=n, max_size=n, unique=True))
    labels = draw(st.lists(text, min_size=1, max_size=3))
    empty = draw(st.sampled_from([None, "score", "y_hat"]))
    reals = st.one_of(st.sampled_from(["0", "1", "0.5", "1.0", "-0"]), st.floats(0.0, 1.0).map(repr))
    rows = []
    for i in range(n):
        row = {
            "id": ids[i], "group": draw(st.sampled_from(labels)), "y_true": draw(st.sampled_from("01")),
            "score": draw(reals), "y_hat": draw(st.sampled_from("01")), "score_m": draw(reals),
        }
        if empty:
            row[empty] = ""
        rows.append([row[c] for c in columns])
    if draw(st.booleans()):
        column, value = draw(_CORRUPTIONS)
        r = rows[draw(st.integers(0, n - 1))]
        if value == "extra":
            r.append("0")
        elif value == "short":
            r.pop()
        elif column in columns:
            r[columns.index(column)] = value
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"])))
    writer.writerow(columns)
    for r in rows:
        writer.writerow(r)
        if draw(st.integers(0, 4)) == 0:
            buf.write("\n")  # a blank line
    return buf.getvalue()


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    """One file that every generated example overwrites."""
    return tmp_path_factory.mktemp("reader") / "p.csv"


class TestColumnReader:
    @settings(max_examples=400, deadline=None)
    @given(prediction_csvs(), st.integers(1, 200))
    @example('id,group,y_true,score,y_hat\n"a,1",g,1,0.5,\r\n"b""",g,0,0.25,\n', 1)
    @example('id,group,y_true,score,y_hat\n"a\n,b",g,1,,1\n\nc,g,0,,0\nd,g,0,,2\n', 3)
    def test_equals_row_oracle(self, csv_path, text, block_chars):
        csv_path.write_bytes(text.encode("utf-8"))
        _assert_same(*_read_both(csv_path, block_chars))

    def test_repeated_header_column_rejected(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("id,group,y_true,score,y_hat,score_m,score_m\n1,g,1,0.5,,0.1,0.2\n", encoding="utf-8")
        with pytest.raises(FormatError, match=r"repeats columns \['score_m'\]"):
            read_prediction_file(path)


class TestColumnCapacity:
    """A read sizes its columns by a count of the file's line feeds, and
    grows them when its records outnumber those."""

    @pytest.mark.parametrize("block_chars", [4, 1 << 16])
    @pytest.mark.parametrize("text", [
        "id,group,y_true,score,y_hat\na,A,0,,1\nb,B,1,,0\n",
        "id,group,y_true,score,y_hat,score_m\n"
        + "".join(f"r{i},{'AB'[i % 2]},{i % 3 % 2},0.{i},{i % 2},0.{i}5\n" for i in range(50)),
    ], ids=["shortest", "fifty-rows"])
    def test_lone_carriage_returns_read_as_line_feeds(self, tmp_path, text, block_chars):
        lf, cr = tmp_path / "lf.csv", tmp_path / "cr.csv"
        lf.write_bytes(text.encode())
        cr.write_bytes(text.replace("\n", "\r").encode())
        got, expected = _read_both(cr, block_chars)
        _assert_same(got, expected)
        _assert_same(got, read_prediction_file(lf))

    @pytest.mark.parametrize("block_chars", [4, 1 << 16])
    def test_quoted_line_feeds_read_as_written(self, tmp_path, block_chars):
        preds = LabeledPredictions(
            ids=("a\n\nb", "c\n", "d", "\n"), y_true=[0, 1, 0, 1], groups=("x\ny", "x\ny", "z", "z"), y_hat=[1, 0, 1, 1],
        )
        path = tmp_path / "p.csv"
        write_predictions(preds, path)
        got, expected = _read_both(path, block_chars)
        _assert_same(got, expected)
        assert got.predictions.ids == preds.ids and got.predictions.groups == preds.groups
        assert got.predictions.y_hat.tolist() == [1, 0, 1, 1]


HEADER = "id,group,y_true,score,y_hat\n"
MALFORMED_FILES = {
    "empty-file": "",
    "header-only": HEADER,
    "blank-lines-only": HEADER + "\n\n\n",
    "missing-column": "id,group,y_true,score\n1,g,1,0.5\n",
    "too-many-fields": HEADER + "1,g,1,0.5,\n2,g,0,0.5,,9\n",
    "too-few-fields": HEADER + "1,g,1,0.5,\n2,g,0,0.5\n",
    "one-field-line": HEADER + "1,g,1,0.5,\n  \n",
    "y-true-not-binary": HEADER + "1,g,1,0.5,\n2,g,2,0.5,\n",
    "y-true-empty": HEADER + "1,g,,0.5,\n",
    "y-true-nul-suffix": HEADER + "1,g,1\x00,0.5,\n",
    "y-hat-not-binary": HEADER + "1,g,1,,1\n2,g,0,,yes\n",
    "score-not-a-number": HEADER + "1,g,1,0.5,\n2,g,0,half,\n",
    "score-hex": HEADER + "1,g,1,0x1p-1,\n",
    "score-above-one": HEADER + "1,g,1,1.5,\n",
    "score-nan": HEADER + "1,g,1,nan,\n",
    "score-negative": HEADER + "1,g,1,-0.1,\n",
    "both-empty": HEADER + "1,g,1,0.5,1\n2,g,0,,\n",
    "score-emptied": HEADER + "1,g,1,0.5,1\n2,g,0,,1\n",
    "score-filled-late": HEADER + "1,g,1,,1\n2,g,0,0.5,1\n",
    "y-hat-emptied": HEADER + "1,g,1,0.5,1\n2,g,0,0.5,\n",
    "y-hat-filled-late": HEADER + "1,g,1,0.5,\n2,g,0,0.5,1\n",
    "filled-late-then-bad-row": HEADER + "1,g,1,,1\n2,g,0,0.5,1\n3,g,7,0.5,1\n",
    "constituent-out-of-range": "id,group,y_true,score,y_hat,score_m\n1,g,1,0.5,,0.2\n2,g,0,0.5,,2\n",
    "constituent-empty": "id,group,y_true,score,y_hat,score_m\n1,g,1,0.5,,\n",
    "bad-row-after-blank-lines": HEADER + "1,g,1,0.5,\n\n\n2,g,0,0.5,\n3,g,x,0.5,\n",
    "bad-row-after-quoted-line-break": HEADER + '"1\n2",g,1,0.5,\n3,g,0,1.5,\n',
    "bad-row-crlf": HEADER.replace("\n", "\r\n") + "1,g,1,0.5,\r\n2,g,0,0.5,2\r\n",
    "unclosed-quote": HEADER + '1,g,1,0.5,\n"2,g,0,0.5,\n3,g,0,0.5,\n',
    "field-over-csv-limit": HEADER + "x" * (csv.field_size_limit() + 1) + ",g,1,0.5,\n",
}


# a character of each UTF-8 length, the characters csv quotes, and a NUL
_ID_CHARS = 'aé€𝄞,"\n\r\x00'


@st.composite
def id_csvs(draw):
    """A y_hat-only prediction CSV whose ids are non-ASCII, need quoting,
    hold a NUL, lie on either side of StringDType's 15-byte inline limit,
    and may repeat."""
    ids = st.one_of(
        st.text(alphabet=_ID_CHARS, max_size=4),
        st.text(alphabet=_ID_CHARS, min_size=4, max_size=12),  # 4 to 48 bytes
        st.sampled_from(["x" * 15, "x" * 16, "é" * 7 + "x", "é" * 8]),
    )
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"])))
    writer.writerow(["id", "group", "y_true", "score", "y_hat"])
    writer.writerows([i, "g", "1", "", "0"] for i in draw(st.lists(ids, min_size=1, max_size=12)))
    return buf.getvalue()


class TestIdColumn:
    @settings(max_examples=300, deadline=None)
    @given(id_csvs(), st.integers(1, 200), st.integers(1, 5), st.integers(0, 2**64 - 1))
    def test_ids_errors_and_draws_equal_the_oracles(self, csv_path, text, block_chars, chunk_ids, seed):
        csv_path.write_bytes(text.encode("utf-8"))
        got, expected = _read_both(csv_path, block_chars)
        _assert_same(got, expected)
        if isinstance(expected, Exception):
            return
        column = got.predictions.id_column
        assert isinstance(column.dtype, StringDType) and not column.flags.writeable
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eo, "_CHUNK_IDS", chunk_ids)
            draws = sample_uniforms(seed, "eo-soft", column, n=3)
        assert draws.tolist() == [list(sample_uniforms_oracle(seed, "eo-soft", i, n=3)) for i in expected.predictions.ids]

    def test_exactly_one_id_form(self):
        with pytest.raises(ValidationError, match="^exactly one of ids / id_column is required$"):
            small_preds(id_column=np.array(("a", "b", "c", "d"), dtype=StringDType()))
        with pytest.raises(ValidationError, match="^exactly one of ids / id_column is required$"):
            small_preds(ids=None)

    def test_ids_read_back_from_the_column(self):
        preds = small_preds(ids=["a", "bé", "c" * 20, "\x00"])
        assert preds.ids == ("a", "bé", "c" * 20, "\x00") and preds.id_column.tolist() == list(preds.ids)


class TestUtf8:
    """Ids and labels that UTF-8 cannot encode (a lone surrogate) are
    refused when the set is built, so no writer or draw meets them."""

    @pytest.mark.parametrize("bad, message", [
        ({"ids": ("a", "b\ud800", "c", "d")}, "sample ids"),
        ({"id_column": np.array(["a", "b", "\udcff", "d"], dtype=object), "ids": None}, "sample ids"),
        ({"groups": ("g1", "g1", "g\ud800", "g2")}, "group labels"),
        ({"universe": ("g1", "g2", "\ud800")}, "group labels"),
    ])
    def test_constructor_rejects(self, bad, message):
        with pytest.raises(ValidationError, match=f"^{message} must be encodable as UTF-8$"):
            small_preds(**bad)

    def test_writer_rejects_a_constituent_name_and_writes_nothing(self, tmp_path):
        path = tmp_path / "p.csv"
        with prediction_io(pooled=True) as started, pytest.raises(ValidationError, match="^constituent names must be encodable as UTF-8$"):
            write_predictions(small_preds(), path, {"m\ud800": np.full(4, 0.5)})
        assert started == [] and not path.exists()

    def test_sample_uniforms_rejects(self):
        with pytest.raises(ValidationError, match="^sample ids must be encodable as UTF-8$"):
            sample_uniforms(1, "eo-hard", ("a", "\ud800"))


class TestIdMemory:
    """A read keeps its ids as one StringDType column, 16 bytes a short id,
    and apply_hard digests them a small chunk at a time (with a tuple of
    strs and chunks of 2**16 ids, the code kept 67 bytes a row and
    apply_hard peaked at 154)."""

    N = 1 << 16

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        cohort = generate_cohort(CohortConfig(groups={"a": 0.5, "b": 0.5}, n_samples=self.N, seed=1)).modalities[0]
        path = tmp_path_factory.mktemp("memory") / "p.csv"
        write_predictions(cohort.with_outputs(y_hat=cohort.y_hat), path)
        return path

    def test_a_read_keeps_at_most_24_bytes_a_row(self, path):
        tracemalloc.start()
        try:
            preds = read_predictions(path)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(preds) == self.N and kept <= 24 * self.N

    def test_a_read_peaks_at_most_48_bytes_a_row(self, path, monkeypatch):
        # small blocks, so that the columns dominate: filling columns sized
        # by a count of line feeds peaked at 40 bytes a row, and keeping
        # each block's arrays to concatenate at the end at 63
        monkeypatch.setattr(predictions, "_BLOCK_CHARS", 1 << 12)
        tracemalloc.start()
        try:
            preds = read_predictions(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(preds) == self.N and peak <= 48 * self.N

    @pytest.mark.parametrize("rows", [N, 47_000])  # the columns' last doubling leaves room for 2x and 1.3x the rows
    def test_a_pipe_read_keeps_what_a_file_read_keeps(self, path, rows, tmp_path):
        # a pipe's line feeds go uncounted, so its columns double as they
        # fill: the rows are copied out of them, each old column freed as
        # its successor is made.  The rows alone are 19.1 bytes a row; the
        # code before kept 37.1 and 24.5 and peaked at 105.8 and 77.8
        part = tmp_path / "part.csv"
        part.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[: rows + 1]))
        with subprocess.Popen(["cat", str(part)], stdout=subprocess.PIPE) as cat:
            tracemalloc.start()
            try:
                preds = read_predictions(f"/dev/fd/{cat.stdout.fileno()}")
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert preds.id_column.tolist() == read_predictions(part).id_column.tolist()
        assert kept <= 20 * rows and peak <= 100 * rows

    def test_apply_hard_peaks_at_most_40_bytes_a_row(self, path):
        preds = read_predictions(path)
        dp = fit_eo_hard(preds)
        tracemalloc.start()
        try:
            apply_hard(dp, preds, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40 * self.N


def prediction_io(pooled: bool, write_rows: int | None = None):
    """Prediction writes in blocks of ``write_rows`` rows (if given), on a
    pool of 2 workers from 0 real values on, or always in this process.
    Yields the list of the pools started."""
    return recorded_pools(predictions, 0 if pooled else 1 << 62, _WRITE_ROWS=write_rows)


_format_rows = predictions._format_rows


def _format_rows_or_die(ids, *columns):
    """``_format_rows``, except that a pool worker given the row of ``r2`` dies."""
    if multiprocessing.parent_process() is not None and ids[0] == "r2":
        os.kill(os.getpid(), signal.SIGKILL)
    return _format_rows(ids, *columns)


class TestPooledWrite:
    """A write whose pool cannot start, or whose worker dies, formats those
    rows in this process: the bytes are the oracle's either way."""

    N = 8

    @pytest.fixture
    def data(self):
        rng = np.random.default_rng(0)
        preds = LabeledPredictions(
            ids=tuple(f"r{i}" for i in range(self.N)), y_true=rng.integers(0, 2, self.N),
            groups=tuple(rng.choice(["a", "b,c"], self.N)), scores=rng.random(self.N), y_hat=rng.integers(0, 2, self.N),
        )
        return preds, {"m0": rng.random(self.N), "m1": rng.random(self.N)}

    def _check(self, tmp_path, preds, consts):
        write_predictions_oracle(preds, tmp_path / "oracle.csv", consts)
        assert (tmp_path / "p.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("error", [OSError, NotImplementedError])
    def test_no_pool_falls_back_to_this_process(self, error, data, tmp_path):
        def unavailable(*args, **kwargs):
            raise error("no pool here")

        preds, consts = data
        with prediction_io(True, write_rows=2), pytest.MonkeyPatch.context() as mp:
            mp.setattr(concurrent.futures, "ProcessPoolExecutor", unavailable)
            write_predictions(preds, tmp_path / "p.csv", consts)
        self._check(tmp_path, preds, consts)

    def test_a_dead_worker_leaves_its_jobs_to_this_process(self, data, tmp_path):
        preds, consts = data
        with prediction_io(True, write_rows=2) as started, pytest.MonkeyPatch.context() as mp:
            mp.setattr(predictions, "_format_rows", _format_rows_or_die)
            write_predictions(preds, tmp_path / "p.csv", consts)
        assert len(started) == 1
        with pytest.raises(concurrent.futures.process.BrokenProcessPool):
            started[0].submit(int)
        self._check(tmp_path, preds, consts)


class TestWriteMemory:
    """A write holds a few blocks of 2**13 rows: in this process one, on a
    pool the blocks in flight, as their ids and their text."""

    N = 1 << 16

    @pytest.fixture(scope="class")
    def cohort(self):
        return generate_cohort(CohortConfig(groups={"a": 0.5, "b": 0.5}, n_samples=self.N, seed=1, modality_windows=((0, 0.6), (0.4, 1))))

    def test_a_write_without_real_columns_stays_in_process_and_peaks_at_most_3_mb(self, cohort, tmp_path):
        # with blocks of 2**15 rows the peak was 6.0 MB
        preds = cohort.modalities[0].with_outputs(y_hat=cohort.modalities[0].y_hat)
        with recorded_pools(predictions) as started:
            peak = traced_peak(lambda: write_predictions(preds, tmp_path / "p.csv"))
        assert started == [] and peak <= 3e6

    def test_a_pooled_write_of_three_real_columns_peaks_at_most_8_mb(self, cohort, tmp_path):
        consts = {f"m{j}": m.scores for j, m in enumerate(cohort.modalities)}
        with recorded_pools(predictions) as started:
            peak = traced_peak(lambda: write_predictions(cohort.modalities[0], tmp_path / "p.csv", consts))
        assert len(started) == 1 and peak <= 8e6


class TestMalformedFiles:
    @pytest.mark.parametrize("block_chars", [4, 1 << 18])
    @pytest.mark.parametrize("name", list(MALFORMED_FILES))
    def test_same_error_as_row_oracle(self, name, block_chars, tmp_path):
        path = tmp_path / "p.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(MALFORMED_FILES[name])
        got, expected = _read_both(path, block_chars)
        assert isinstance(expected, Exception), expected
        _assert_same(got, expected)
