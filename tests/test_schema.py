import json
from dataclasses import asdict
from typing import Literal, Mapping

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from equifair import FormatError, ValidationError, schema
from equifair.ensemble import EnsembleModel
from equifair.eo import DerivedPredictor, HardGroupPolicy, LossSpec, SoftGroupPolicy
from equifair.metrics import GroupRateEntry
from equifair.synth import CohortConfig, ScoreModel

finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0)
weight = st.floats(0.0, 1e6)
names = st.text(max_size=8)
points = st.tuples(unit, unit)

loss_specs = st.builds(
    LossSpec,
    cost_fp=weight,
    cost_fn=st.floats(1e-6, 1e6),
    group_weights=st.none() | st.dictionaries(names, st.floats(1e-6, 1e6), min_size=1),
)
hard_policies = st.builds(HardGroupPolicy, p0=unit, p1=unit)
soft_policies = st.builds(
    SoftGroupPolicy, t_lo=finite, t_hi=finite, lam=unit, point_lo=points, point_hi=points, p_coin=unit, coin_rate=unit,
)
rate_entries = st.builds(
    GroupRateEntry,
    tpr=st.none() | unit, tnr=st.none() | unit, fpr=st.none() | unit, fnr=st.none() | unit,
    n_pos=st.integers(0, 10**12), n_neg=st.integers(0, 10**12),
)
score_models = st.builds(
    ScoreModel, mu_neg=finite, mu_pos=finite, sigma_neg=st.floats(1e-6, 1e6), sigma_pos=st.floats(1e-6, 1e6),
)


@st.composite
def cohort_configs(draw):
    shares = draw(st.dictionaries(names, st.integers(1, 1000), min_size=1, max_size=6))
    total = sum(shares.values())
    groups = {g: k / total for g, k in shares.items()}
    calibrated = draw(st.booleans())
    if calibrated:  # equal class sigmas and mu_pos > mu_neg
        models = {
            g: ScoreModel(mu_neg=mu, mu_pos=mu + gap, sigma_neg=sigma, sigma_pos=sigma)
            for g, (mu, gap, sigma) in zip(groups, draw(st.lists(
                st.tuples(st.floats(-5, 5), st.floats(0.1, 5), st.floats(0.1, 5)), min_size=len(groups), max_size=len(groups),
            )))
        }
    else:
        models = draw(st.none() | st.fixed_dictionaries({g: score_models for g in groups}))
    windows = draw(st.lists(points.map(sorted).map(tuple), min_size=1, max_size=3))
    return CohortConfig(
        groups=groups,
        positive_rate=draw(st.floats(0.01, 0.99)),
        score_models=models,
        n_samples=draw(st.integers(1, 10**9)),
        seed=draw(st.integers(-(2**63), 2**63)),
        modality_windows=tuple(windows),
        calibrated=calibrated,
        id_prefix=draw(names),
    )


ensemble_models = st.builds(
    EnsembleModel,
    weights=st.lists(finite, min_size=1, max_size=5).map(np.array),
    intercept=finite,
    C=st.floats(1e-6, 1e6),
    n_iter=st.integers(0, 100),
    grad_norm=st.floats(0.0, 1e6),
    converged=st.booleans(),
)


@st.composite
def derived_predictors(draw):
    groups = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    policy = draw(st.sampled_from([hard_policies, soft_policies]))
    return DerivedPredictor(
        policies={g: draw(policy) for g in groups},
        target=draw(points),
        fit_rates={g: draw(rate_entries) for g in groups},
        loss=draw(loss_specs),
        objective=draw(finite),
    )


# class -> (random valid values, its JSON form, its loader)
ARTIFACTS = {
    LossSpec: (loss_specs, asdict, None),
    HardGroupPolicy: (hard_policies, asdict, None),
    SoftGroupPolicy: (soft_policies, asdict, None),
    GroupRateEntry: (rate_entries, asdict, None),
    ScoreModel: (score_models, asdict, None),
    CohortConfig: (cohort_configs(), asdict, None),
    EnsembleModel: (ensemble_models, EnsembleModel.to_dict, None),
    DerivedPredictor: (derived_predictors(), DerivedPredictor.to_dict, DerivedPredictor.from_dict),
}


class TestRoundTrip:
    @pytest.mark.parametrize("cls", list(ARTIFACTS), ids=lambda cls: cls.__name__)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_load_inverts_the_json_form(self, cls, data):
        values, json_form, loader = ARTIFACTS[cls]
        value = data.draw(values)
        doc = json.loads(json.dumps(json_form(value), allow_nan=False))
        back = loader(doc) if loader else schema.load(cls, doc, cls.__name__)
        if cls is EnsembleModel:  # its weights are an array, which == compares elementwise
            assert back.to_dict() == value.to_dict()
        else:
            assert back == value


class TestLoad:
    def test_field_path_is_named(self):
        with pytest.raises(FormatError, match=r"^x: field a\.k\.1 must be a number, got 'y'$"):
            schema.load(Mapping[str, Mapping[str, tuple[float, float]]], {"a": {"k": [1, "y"]}}, "x")

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
    def test_number_handed_from_python_must_be_finite(self, value):
        doc = {
            "variant": "hard", "target": {"fpr": 0.5, "tpr": 0.5}, "objective": 0.0,
            "loss": {"cost_fp": 1.0, "cost_fn": 1.0, "group_weights": None}, "fit_rates": {},
            "groups": {"A": {"p0": value, "p1": 0.5}},
        }
        with pytest.raises(FormatError, match=r"^derived predictor: field groups\.A\.p0 must be a number"):
            DerivedPredictor.from_dict(doc)

    @pytest.mark.parametrize(
        "hint, value, problem",
        [
            (int, 10.5, "an integer"),
            (int, True, "an integer"),
            (float, False, "a number"),
            (bool, "false", "true or false"),
            (str, 3, "a string"),
            (tuple[str, ...], "m0", "a list"),
            (tuple[float, float], [0.5], "a list of 2"),
            (Literal["hard", "soft"], "medium", "one of ['hard', 'soft']"),
            (float | None, "x", "a number or null"),
            (Mapping[str, float], [], "an object"),
        ],
    )
    def test_ill_typed_value(self, hint, value, problem):
        with pytest.raises(FormatError) as info:
            schema.load(hint, value, "x")
        assert str(info.value) == f"x: the document must be {problem}, got {value!r}"

    def test_unknown_and_missing_fields(self):
        with pytest.raises(FormatError, match="^x: unknown field bogus$"):
            schema.load(ScoreModel, {"bogus": 1}, "x")
        with pytest.raises(FormatError, match="^x: missing field p1$"):
            schema.load(HardGroupPolicy, {"p0": 0.5}, "x")

    def test_omitted_fields_take_their_defaults(self):
        assert schema.load(CohortConfig, {}, "x") == CohortConfig()


class TestRead:
    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constants_are_format_errors(self, constant, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(f'{{"a": [1, {constant}]}}', encoding="utf-8")
        with pytest.raises(FormatError, match=f"doc.json: {constant} is not a number"):
            schema.read(path)

    def test_invalid_utf8_names_offset_and_line(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b'{\n  "a": "\xff"\n}\n')
        with pytest.raises(FormatError, match=r"doc.json: byte offset 10 \(line 2\): not valid utf-8 \(0xff\)"):
            schema.read(path)

    def test_syntax_error_names_the_file(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(FormatError, match="doc.json: Expecting"):
            schema.read(path)


class TestDumps:
    def test_sorted_ascii_dataclasses_and_a_trailing_newline(self):
        text = schema.dumps({"b": LossSpec(), "a": "\u00e9"}, "doc")
        assert text == '{\n  "a": "\\u00e9",\n  "b": {\n    "cost_fn": 1.0,\n    "cost_fp": 1.0,\n    "group_weights": null\n  }\n}\n'
        assert json.loads(text)["a"] == "\u00e9"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_number_is_invalid_input(self, bad):
        with pytest.raises(ValidationError, match="^doc: Out of range float"):
            schema.dumps({"x": [bad]}, "doc")
