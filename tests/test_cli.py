import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

from equifair import (
    confusion_rates,
    fit_eo_hard,
    gap_ranges,
)
from equifair.cli import main
from equifair.debias import save_embeddings
from equifair.metrics import FairnessReport
from equifair.predictions import read_predictions, write_predictions
from equifair.synth import EmbeddingPlantConfig, generate_embeddings
from equifair.wordsets import GENDER_SETS

from oracles import preds_from_counts


def run_cli(*args, env=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "equifair", *map(str, args)],
        capture_output=True,
        text=True,
        env=full_env,
    )


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    res = run_cli(
        "synth", "--preset", "ethnicity", "--n", "4000", "--seed", "7",
        "--positive-rate", "0.3", "--out", out,
    )
    assert res.returncode == 0, res.stderr
    return out / "modality_0.csv"


class TestSynthCommand:
    def test_writes_modalities_sidecar_manifest(self, tmp_path):
        res = run_cli(
            "synth", "--preset", "sex", "--n", "200", "--seed", "3",
            "--modality-windows", "0:0.5,0.5:1", "--out", tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "modality_0.csv").exists()
        assert (tmp_path / "modality_1.csv").exists()
        assert (tmp_path / "analytic_rates.json").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert set(manifest["outputs"]) >= {
            str(tmp_path / "modality_0.csv"),
            str(tmp_path / "analytic_rates.json"),
        }

    def test_env_seed_fallback(self, tmp_path):
        r1 = run_cli("synth", "--n", "100", "--out", tmp_path / "a", env={"EQUIFAIR_SEED": "99"})
        r2 = run_cli("synth", "--n", "100", "--seed", "99", "--out", tmp_path / "b")
        assert r1.returncode == r2.returncode == 0
        assert (tmp_path / "a/modality_0.csv").read_bytes() == (tmp_path / "b/modality_0.csv").read_bytes()

    def test_plant_embeddings(self, tmp_path):
        res = run_cli(
            "synth", "--plant-embeddings", "--equality-sets", "gender",
            "--vocab", "40", "--dim", "20", "--noise", "0.01", "--seed", "4",
            "--out", tmp_path,
        )
        assert res.returncode == 0, res.stderr
        from equifair.debias import load_embeddings

        emb = load_embeddings(tmp_path / "embeddings.txt")
        assert len(emb) == 40 and emb.dim == 20
        planted = json.loads((tmp_path / "planted_subspace.json").read_text())
        assert len(planted["basis"]) == 1


class TestMetricsCommand:
    def test_prints_report_json_to_stdout(self, cohort_csv):
        res = run_cli("metrics", "--input", cohort_csv, "--task", "quick")
        assert res.returncode == 0, res.stderr
        doc = json.loads(res.stdout)
        assert doc["metadata"]["task"] == "quick"
        assert set(doc["group_rates"]) == {"ASIAN", "BLACK", "HISPANIC", "OTHER", "WHITE"}
        assert 0.0 <= doc["auc_roc_overall"] <= 1.0


class TestReportCommand:
    def test_report_matches_library_recomputation(self, cohort_csv, tmp_path):
        res = run_cli("report", "--input", cohort_csv, "--task", "t", "--out", tmp_path)
        assert res.returncode == 0, res.stderr
        report = FairnessReport.from_json((tmp_path / "report.json").read_text())
        preds = read_predictions(cohort_csv)
        tpr_range, tnr_range = gap_ranges(confusion_rates(preds))
        assert report.tpr_range == tpr_range
        assert report.tnr_range == tnr_range
        plot = (tmp_path / "plot_data.csv").read_text().splitlines()
        assert plot[0] == "classifier,group,metric,value"
        assert len(plot) > 5

    def test_empty_input_exit_code_and_category(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("id,group,y_true,score,y_hat\n", encoding="utf-8")
        res = run_cli("report", "--input", empty, "--out", tmp_path / "r")
        assert res.returncode == 5
        assert res.stderr.startswith("empty-input:")

    def test_missing_file_exit_code(self, tmp_path):
        res = run_cli("report", "--input", tmp_path / "nope.csv", "--out", tmp_path / "r")
        assert res.returncode == 3
        assert res.stderr.startswith("missing-file:")

    def test_format_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,y_true\n1,1\n", encoding="utf-8")
        res = run_cli("report", "--input", bad, "--out", tmp_path / "r")
        assert res.returncode == 4
        assert res.stderr.startswith("format-error:")


class TestEoCommands:
    def test_fit_apply_shrinks_gaps(self, cohort_csv, tmp_path):
        fit = run_cli("eo-fit", "--input", cohort_csv, "--variant", "hard", "--out", tmp_path / "fit")
        assert fit.returncode == 0, fit.stderr
        apply_res = run_cli(
            "eo-apply", "--input", cohort_csv, "--predictor", tmp_path / "fit/derived_predictor.json",
            "--seed", "21", "--out", tmp_path / "ap",
        )
        assert apply_res.returncode == 0, apply_res.stderr
        base = read_predictions(cohort_csv)
        post = read_predictions(tmp_path / "ap/postprocessed.csv")
        base_range = gap_ranges(confusion_rates(base))[0]
        post_range = gap_ranges(confusion_rates(post))[0]
        assert post_range < base_range

    def test_soft_fit_writes_predictor(self, cohort_csv, tmp_path):
        res = run_cli("eo-fit", "--input", cohort_csv, "--variant", "soft", "--out", tmp_path)
        assert res.returncode == 0, res.stderr
        doc = json.loads((tmp_path / "derived_predictor.json").read_text())
        assert doc["variant"] == "soft"
        assert set(doc["groups"]) == {"ASIAN", "BLACK", "HISPANIC", "OTHER", "WHITE"}

    def test_apply_unknown_group_exit_code(self, cohort_csv, tmp_path):
        fit = run_cli("eo-fit", "--input", cohort_csv, "--variant", "hard", "--out", tmp_path / "f")
        assert fit.returncode == 0
        other = tmp_path / "other.csv"
        other.write_text(
            "id,group,y_true,score,y_hat\n1,NEWGROUP,1,,1\n2,NEWGROUP,0,,0\n", encoding="utf-8"
        )
        res = run_cli(
            "eo-apply", "--input", other, "--predictor", tmp_path / "f/derived_predictor.json",
            "--seed", "1", "--out", tmp_path / "a",
        )
        assert res.returncode == 8
        assert res.stderr.startswith("group-mismatch:")


class TestDebiasCommand:
    def test_debias_writes_embeddings_and_report(self, tmp_path):
        emb, _, _ = generate_embeddings(
            EmbeddingPlantConfig(equality_sets=GENDER_SETS, vocab_size=50, dim=25, noise=0.01, seed=2)
        )
        emb_path = tmp_path / "emb.txt"
        save_embeddings(emb, emb_path)
        res = run_cli("debias", "--embeddings", emb_path, "--equality-sets", "gender", "--out", tmp_path / "d")
        assert res.returncode == 0, res.stderr
        report = json.loads((tmp_path / "d/debias_report.json").read_text())
        assert report["equalized_sets"] == 7
        assert (tmp_path / "d/debiased_embeddings.txt").exists()


class TestEnsembleCommands:
    def _features_csv(self, tmp_path):
        rng = np.random.default_rng(5)
        n = 400
        y = rng.integers(0, 2, n)
        s1 = np.clip(0.5 + 0.3 * (2 * y - 1) + 0.2 * rng.standard_normal(n), 0, 1)
        s2 = np.clip(0.5 + 0.2 * (2 * y - 1) + 0.3 * rng.standard_normal(n), 0, 1)
        lines = ["id,group,y_true,score,y_hat,score_text,score_tab"]
        for i in range(n):
            lines.append(f"r{i},g,{y[i]},,{int(s1[i] >= 0.5)},{float(s1[i])!r},{float(s2[i])!r}")
        path = tmp_path / "features.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_fit_then_predict(self, tmp_path):
        feats = self._features_csv(tmp_path)
        fit = run_cli("ensemble-fit", "--input", feats, "--C", "1.0", "--out", tmp_path / "m")
        assert fit.returncode == 0, fit.stderr
        doc = json.loads((tmp_path / "m/ensemble_model.json").read_text())
        assert doc["constituents"] == ["text", "tab"]
        pred = run_cli(
            "ensemble-predict", "--input", feats, "--model", tmp_path / "m/ensemble_model.json",
            "--out", tmp_path / "p",
        )
        assert pred.returncode == 0, pred.stderr
        combined = read_predictions(tmp_path / "p/ensemble_predictions.csv")
        assert combined.scores is not None and combined.y_hat is not None

    def test_non_finite_threshold_is_invalid_input(self, tmp_path, capsys):
        feats = self._features_csv(tmp_path)
        assert main(["ensemble-fit", "--input", str(feats), "--out", str(tmp_path / "m")]) == 0
        argv = [
            "ensemble-predict", "--input", feats, "--model", tmp_path / "m/ensemble_model.json",
            "--threshold", "nan", "--out", tmp_path / "p",
        ]
        assert main([str(a) for a in argv]) == 6
        err = capsys.readouterr().err
        assert err == "invalid-input: --threshold must be finite, got nan\n", err
        assert not (tmp_path / "p/ensemble_predictions.csv").exists()


class TestPipeline:
    def test_none_intervention_pure_metrics(self, tmp_path):
        res = run_cli(
            "pipeline", "--intervention", "none", "--preset", "sex", "--n", "500",
            "--seed", "4", "--out", tmp_path,
        )
        assert res.returncode == 0, res.stderr
        report = FairnessReport.from_json((tmp_path / "base_report.json").read_text())
        assert report.metadata["interventions"] == ["none"]
        assert not (tmp_path / "post_report.json").exists()
        # recomputation oracle: rebuild the eval cohort and recompute the range
        from equifair.eo import derive_seed
        from equifair.synth import SEX_PROPORTIONS, gapped_score_models
        from equifair import CohortConfig, generate_cohort

        cfg = CohortConfig(
            groups=SEX_PROPORTIONS,
            positive_rate=0.131,
            score_models=gapped_score_models(SEX_PROPORTIONS, 0.60, 0.85, 0.15),
            n_samples=500,
            seed=derive_seed(4, "eval"),
        )
        eval_preds = generate_cohort(cfg).modalities[0]
        expected_range = gap_ranges(confusion_rates(eval_preds))[0]
        assert report.tpr_range == expected_range

    def test_eo_pipeline_reduces_expected_gaps(self, tmp_path):
        res = run_cli(
            "pipeline", "--intervention", "eo-soft", "--preset", "ethnicity", "--n", "4000",
            "--positive-rate", "0.3", "--seed", "11", "--out", tmp_path,
        )
        assert res.returncode == 0, res.stderr
        base = FairnessReport.from_json((tmp_path / "base_report.json").read_text())
        post = FairnessReport.from_json((tmp_path / "post_report.json").read_text())
        expected = post.metadata["expected_rates"]
        tprs = [e["tpr"] for e in expected.values()]
        assert max(tprs) - min(tprs) <= 1e-9
        assert post.tpr_range < base.tpr_range

    def test_double_intervention_needs_flag(self, tmp_path):
        res = run_cli(
            "pipeline", "--intervention", "eo-hard+debias", "--n", "200", "--seed", "1",
            "--out", tmp_path,
        )
        assert res.returncode == 6
        assert res.stderr.startswith("invalid-input:")

    def test_byte_identical_reruns(self, tmp_path):
        args = (
            "pipeline", "--intervention", "eo-hard", "--preset", "ethnicity", "--n", "2000",
            "--positive-rate", "0.3", "--seed", "5",
        )
        r1 = run_cli(*args, "--out", tmp_path / "run1")
        r2 = run_cli(*args, "--out", tmp_path / "run2")
        assert r1.returncode == r2.returncode == 0, r1.stderr + r2.stderr
        for name in ("base_report.json", "post_report.json", "derived_predictor.json", "postprocessed.csv", "plot_data.csv"):
            a = (tmp_path / "run1" / name).read_bytes()
            b = (tmp_path / "run2" / name).read_bytes()
            assert a == b, f"{name} differs between reruns"

    def test_reports_do_not_depend_on_input_paths(self, tmp_path):
        fit = preds_from_counts({"A": (10, 8, 10, 2), "B": (10, 6, 10, 3)})
        ev = preds_from_counts({"A": (12, 9, 8, 2), "B": (9, 5, 11, 4)})
        for where in ("a", "b/deeper"):
            (tmp_path / where).mkdir(parents=True)
            write_predictions(fit, tmp_path / where / "fit.csv")
            write_predictions(ev, tmp_path / where / "eval.csv")
            argv = [
                "pipeline", "--intervention", "eo-hard", "--seed", "3",
                "--fit-input", tmp_path / where / "fit.csv", "--input", tmp_path / where / "eval.csv",
                "--out", tmp_path / where / "out",
            ]
            assert main([str(a) for a in argv]) == 0
        for name in ("base_report.json", "post_report.json", "plot_data.csv"):
            assert (tmp_path / "a/out" / name).read_bytes() == (tmp_path / "b/deeper/out" / name).read_bytes(), name

    def test_multimodal_pipeline_fits_ensemble(self, tmp_path):
        res = run_cli(
            "pipeline", "--intervention", "none", "--preset", "sex", "--n", "600",
            "--modality-windows", "0:0.5,0.5:1", "--seed", "8", "--out", tmp_path,
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "ensemble_model.json").exists()
        report = FairnessReport.from_json((tmp_path / "base_report.json").read_text())
        assert report.metadata["ensemble"]["constituents"] == ["m0", "m1"]

    def test_debias_intervention_in_pipeline(self, tmp_path):
        emb, _, _ = generate_embeddings(
            EmbeddingPlantConfig(equality_sets=GENDER_SETS, vocab_size=40, dim=20, noise=0.01, seed=3)
        )
        emb_path = tmp_path / "emb.txt"
        save_embeddings(emb, emb_path)
        res = run_cli(
            "pipeline", "--intervention", "debias", "--embeddings", emb_path,
            "--equality-sets", "gender", "--n", "300", "--seed", "2", "--out", tmp_path / "out",
        )
        assert res.returncode == 0, res.stderr
        assert (tmp_path / "out/debiased_embeddings.txt").exists()
        report = FairnessReport.from_json((tmp_path / "out/base_report.json").read_text())
        assert report.metadata["debias"]["k"] == 1


class TestPinnedArtifacts:
    """sha256 of the EO artifacts and reports of small seeded synthetic
    pipelines, as written before the two derived-predictor classes became
    one (reports: before group codes and the one-sort AUC), and of a
    pipeline on a quoted CRLF input file, as written before the reader
    parsed by column and the draws were batched; any change to reading,
    fitting, metrics, serialisation or the realised draws shows here."""

    PINS = {
        ("eo-hard",): {
            "derived_predictor.json": "95e68f04b3ea7a1e3edeb13fbd4b7ca9b1a16e5cf8c545bad412b0e63652278e",
            "postprocessed.csv": "cb0dc86a904bcf529bb3f8ba87d83506c2ebfc260fcfb0effd3f2429b8153f03",
            "base_report.json": "a7f138c78377f6f1e154e13f88dc287f7409f3cba0a1e5e141914ba7e81404be",
            "post_report.json": "5aadb68f2cdd977c1d951fa27fa9a2c19c69314891ffc8f266c62042ec83968e",
        },
        ("eo-soft", "--modality-windows", "0:0.5,0.5:1"): {
            "derived_predictor.json": "50da32f885c15f58a7c2a7b73a558644bf0971664a3fba6d7d1b2124aa03fdfe",
            "postprocessed.csv": "60fd79bd0dfe6249c561fbee65379713025f71bb74c38120d4ef34a236adaccb",
            "base_report.json": "7e501643ccd896bb00c879f9821a4d16d5a13dab92762a0dc17d85f1730e41e3",
            "post_report.json": "3f03018e0429c40e8902355cdaa2b94fa4955960237c472c4e690a63b899b0af",
        },
    }

    @pytest.mark.parametrize("variant", list(PINS), ids=lambda v: v[0])
    def test_artifact_hashes(self, variant, tmp_path):
        res = run_cli(
            "pipeline", "--intervention", *variant, "--preset", "ethnicity", "--n", "3000",
            "--seed", "11", "--cost-fn", "3", "--out", tmp_path,
        )
        assert res.returncode == 0, res.stderr
        for name, digest in self.PINS[variant].items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    QUOTED_PINS = {
        "eo-hard": {
            "derived_predictor.json": "9d8cf45edc0ef4401021a93c8d0a18861c299ddf6900437101225886efb262c3",
            "postprocessed.csv": "fddd65ee9814fc94291187c4869f0a8f50f5a5eb4799c7e0ee8681d3f0824284",
            "base_report.json": "7c940c7377b992b18db07f0e935d7abb9e3329823cd846d23d55864dcf564606",
            "post_report.json": "f9ac126c19d01e673c016972aa67151f919569eafcdab2110cd618873306d74f",
        },
        "eo-soft": {
            "derived_predictor.json": "a4998da06d914b09dfaebee461156fd8eb2bb0b12a41f9701dd0db5d859eed00",
            "postprocessed.csv": "38d59a52d9e2a61ba59755d155efb8003f587d22dcd466c948000dd215224046",
            "base_report.json": "3388a6a25e6c8aadc711514fc06d8d003a1c556825c5c161d399f965575acad6",
            "post_report.json": "52baaeefb2a71652e7897b5e4cb65b0bace99e722b36e74c340e1a716771a4dd",
        },
    }

    @staticmethod
    def _quoted_crlf_csv(path, split):
        """CRLF prediction CSV whose ids are quoted, with a comma and a
        doubled quote inside; scores and labels follow from the row number."""
        lines = ["id,group,y_true,score,y_hat"]
        for i in range(600):
            y = int((i * 37 + split) % 11 < 4)
            score = ((i * 7919 + split) % 1000 + 600 * y) / 1600
            group = "A" if i % 5 == 0 else "B" if i % 3 else "C"
            lines.append(f'"{split},{i} ""x""",{group},{y},{score!r},{int(score >= 0.5)}')
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode())

    @pytest.mark.parametrize("variant", list(QUOTED_PINS))
    def test_quoted_crlf_input_hashes(self, variant, tmp_path):
        self._quoted_crlf_csv(tmp_path / "fit.csv", 0)
        self._quoted_crlf_csv(tmp_path / "eval.csv", 1)
        res = run_cli(
            "pipeline", "--intervention", variant, "--fit-input", tmp_path / "fit.csv",
            "--input", tmp_path / "eval.csv", "--seed", "3", "--cost-fn", "2", "--out", tmp_path / "out",
        )
        assert res.returncode == 0, res.stderr
        for name, digest in self.QUOTED_PINS[variant].items():
            assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name


def _without(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


def _with(key, value):
    return lambda d: {**d, key: value}


# case: (command, predictor edit or extra flags or input kind, exit code, category, text in the message)
MALFORMED = {
    "predictor-without-groups": ("eo-apply", _without("groups"), 4, "format-error", "groups"),
    "predictor-without-variant": ("eo-apply", _without("variant"), 4, "format-error", "variant"),
    "predictor-unknown-variant": ("eo-apply", _with("variant", "medium"), 4, "format-error", "variant"),
    "predictor-ill-typed-policy": ("eo-apply", _with("groups", {"A": {"p0": "x", "p1": 1.0}}), 4, "format-error", "groups.A.p0"),
    "predictor-missing-policy-field": ("eo-apply", _with("groups", {"A": {"p0": 0.5}}), 4, "format-error", "groups.A.p1"),
    "predictor-ill-typed-target": ("eo-apply", _with("target", {"fpr": 0.1, "tpr": None}), 4, "format-error", "target.tpr"),
    "predictor-ill-typed-fit-rates": ("eo-apply", _with("fit_rates", {"A": {"tpr": 0.5}}), 4, "format-error", "fit_rates.A"),
    "predictor-ill-typed-objective": ("eo-apply", _with("objective", [0.1]), 4, "format-error", "objective"),
    "predictor-not-an-object": ("eo-apply", lambda d: [d], 4, "format-error", "object"),
    "predictor-nan-group-weight": (
        "eo-apply", lambda d: {**d, "loss": {**d["loss"], "group_weights": {"A": float("nan"), "B": 1.0}}},
        6, "invalid-input", "finite",
    ),
    "predictor-is-a-directory": ("eo-apply", "dir", 3, "missing-file", "dp.json"),
    "cost-fp-nan": ("eo-fit", ["--cost-fp", "nan"], 6, "invalid-input", "finite"),
    "cost-fn-inf": ("eo-fit", ["--cost-fn", "inf"], 6, "invalid-input", "finite"),
    "pipeline-cost-fp-nan": ("pipeline", ["--cost-fp", "nan"], 6, "invalid-input", "finite"),
    "input-is-a-directory": ("metrics", "dir", 3, "missing-file", "Is a directory"),
    "input-not-utf8": ("metrics", "latin-1", 4, "format-error", "utf-8"),
    "synth-noise-nan": ("synth", ["--plant-embeddings", "--noise", "nan"], 6, "invalid-input", "finite"),
}


class TestMalformedInputs:
    """Each malformed input gives exactly one ``<category>: <message>``
    line on stderr and the category's exit code, never a traceback."""

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_one_line_and_exit_code(self, case, tmp_path, capsys):
        command, arg, code, category, needle = MALFORMED[case]
        preds = preds_from_counts({"A": (10, 8, 10, 2), "B": (10, 6, 10, 3)})
        csv_path = tmp_path / "preds.csv"
        write_predictions(preds, csv_path)
        out = tmp_path / "out"
        if command == "eo-apply":
            predictor = tmp_path / "dp.json"
            if arg == "dir":
                predictor.mkdir()
            else:
                predictor.write_text(json.dumps(arg(fit_eo_hard(preds).to_dict())), encoding="utf-8")
            argv = ["eo-apply", "--input", csv_path, "--predictor", predictor, "--out", out]
        elif command == "eo-fit":
            argv = ["eo-fit", "--input", csv_path, "--variant", "hard", *arg, "--out", out]
        elif command == "pipeline":
            argv = ["pipeline", "--intervention", "eo-hard", "--n", "200", *arg, "--out", out]
        elif command == "synth":
            argv = ["synth", *arg, "--out", out]
        elif arg == "dir":
            argv = ["metrics", "--input", tmp_path]
        else:
            latin = tmp_path / "latin.csv"
            latin.write_bytes("id,group,y_true,score,y_hat\n1,Zoë,1,,1\n".encode("latin-1"))
            argv = ["metrics", "--input", latin]
        assert main([str(a) for a in argv]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"{category}: "), err
        assert needle in err
