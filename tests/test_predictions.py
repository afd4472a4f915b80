import numpy as np
import pytest

from equifair import EmptyInputError, FormatError, LabeledPredictions, ValidationError
from equifair.predictions import (
    read_prediction_file,
    read_predictions,
    write_predictions,
)


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
        mat = pfile.feature_matrix()
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
