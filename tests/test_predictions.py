import csv
import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from equifair import EmptyInputError, FormatError, LabeledPredictions, ValidationError, predictions
from equifair.predictions import (
    read_prediction_file,
    read_predictions,
    write_predictions,
)

from oracles import read_prediction_file_oracle


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
def labeled_predictions(draw):
    """A prediction set whose ids and group labels hold commas, quotes,
    line breaks and NULs, with its constituent scores."""
    n = draw(st.integers(1, 12))
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
    return preds, draw(st.dictionaries(st.sampled_from(["m0", "m1"]), reals))


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
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
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
