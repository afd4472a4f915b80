import csv
import hashlib
import json
import os
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from equifair import (
    LabeledPredictions,
    LossSpec,
    ValidationError,
    apply_hard,
    cli,
    confusion_rates,
    debias,
    expected_rates,
    fit_eo_hard,
    gap_ranges,
    pool,
    predictions,
    schema,
)
from equifair.cli import COHORT_DEFAULTS, EMBEDDING_DEFAULTS, _sha256, main
from equifair.debias import save_embeddings
from equifair.predictions import read_predictions, write_predictions
from equifair.synth import GROUP_PRESETS, CohortConfig, EmbeddingPlantConfig, generate_cohort, generate_embeddings
from equifair.wordsets import GENDER_SETS

from helpers import MALFORMED_EMBEDDINGS, recorded_pools, report_from_json
from oracles import (
    exact_eo_oracle,
    once_rounded_policies,
    preds_from_counts,
    sample_uniforms_blake2b_oracle,
    write_predictions_oracle,
)


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

    # sha256 of the modality files, as written since 0.3.0 planted the
    # score means with NormalDist().inv_cdf
    MODALITY_PINS = {
        (): ("14b3a4018938f258435eb7db1738622f0f797d56833811fd880d9823c8388e85",),
        ("--modality-windows", "0:0.6,0.4:1"): (
            "884c6d4fb0832cbf5a326b617b0c8789ec715d7759c114d15a27a120a7deda11",
            "2bf176439f4f24519e7f0ab52fd46894bd8a6400cb6850da9781de1954681de5",
        ),
    }
    # the --preset insurance score models before 0.3.0, whose means a
    # Newton-refined rational approximation of Phi^-1 planted
    OLD_MEANS = {
        "Government": 0.2533471031357999, "Medicaid": 0.38532046640756756, "Medicare": 0.5244005127080409,
        "Private": 0.674489750196082, "Self Pay": 0.8416212335729147, "UNKNOWN": 1.0364333894937896,
    }

    @pytest.mark.parametrize("windows", list(MODALITY_PINS), ids=["one-modality", "two-modalities"])
    def test_modality_bytes_pinned(self, tmp_path, windows):
        res = run_cli("synth", "--preset", "insurance", "--n", "5000", "--seed", "7", *windows, "--out", tmp_path)
        assert res.returncode == 0, res.stderr
        for i, digest in enumerate(self.MODALITY_PINS[windows]):
            assert hashlib.sha256((tmp_path / f"modality_{i}.csv").read_bytes()).hexdigest() == digest, i
        assert not (tmp_path / f"modality_{len(self.MODALITY_PINS[windows])}.csv").exists()

    def test_old_means_give_the_old_bytes(self, tmp_path):
        """The generator is unchanged: a config holding the old means, drawn
        under --seed 7, writes the one-modality file pinned before 0.3.0."""
        models = {g: {"mu_neg": -1.0364333894937896, "mu_pos": mu} for g, mu in self.OLD_MEANS.items()}
        config = tmp_path / "cohort.json"
        config.write_text(json.dumps({"groups": GROUP_PRESETS["insurance"], "score_models": models, "n_samples": 5000}))
        assert main(["synth", "--synth-config", str(config), "--seed", "7", "--out", str(tmp_path / "out")]) == 0
        digest = hashlib.sha256((tmp_path / "out/modality_0.csv").read_bytes()).hexdigest()
        assert digest == "8e95237f8d8a20c07ec6a522504fc4c41553e456833cd0d3ca6e2291a4a83d71"

    def test_modality_files_above_the_pool_floor_equal_the_oracle(self, tmp_path):
        # one real column a row: each file of 2**17 rows is formatted on a pool
        doc = {"n_samples": predictions._POOL_FLOOR, "modality_windows": [[0, 0.6], [0.4, 1]]}
        (tmp_path / "cohort.json").write_text(json.dumps(doc))
        with recorded_pools(predictions) as started:
            assert main(["synth", "--synth-config", str(tmp_path / "cohort.json"), "--seed", "5", "--out", str(tmp_path / "out")]) == 0
        assert len(started) == 2
        outputs = json.loads((tmp_path / "out/manifest.json").read_text())["outputs"]
        cohort = generate_cohort(replace(schema.load(CohortConfig, doc, "cohort config"), seed=5))
        for m, preds in enumerate(cohort.modalities):
            path = tmp_path / f"out/modality_{m}.csv"
            write_predictions_oracle(preds, tmp_path / "oracle.csv")
            assert path.read_bytes() == (tmp_path / "oracle.csv").read_bytes(), m
            assert outputs[str(path)] == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("command", ["synth", "pipeline"])
    def test_synth_config_draws_under_the_seed_flag(self, command, tmp_path, monkeypatch):
        """A cohort config sets no seed: --seed, else EQUIFAIR_SEED, draws it."""
        config = tmp_path / "cohort.json"
        config.write_text(json.dumps({"n_samples": 300, "modality_windows": [[0, 0.5], [0.5, 1]]}))
        artifact = "modality_0.csv" if command == "synth" else "base_report.json"
        runs = {"1": ["--seed", "1"], "2": ["--seed", "2"], "env-2": []}
        monkeypatch.setenv("EQUIFAIR_SEED", "2")
        data = {}
        for run, seed in runs.items():
            out = tmp_path / run
            assert main([command, "--synth-config", str(config), *seed, "--out", str(out)]) == 0
            data[run] = (out / artifact).read_bytes()
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["seed"] == int(run[-1])
            assert not set(COHORT_DEFAULTS).difference(["synth_config"]) & set(manifest["arguments"])
        assert data["1"] != data["2"] == data["env-2"]

    def test_env_seed_fallback(self, tmp_path):
        r1 = run_cli("synth", "--n", "100", "--out", tmp_path / "a", env={"EQUIFAIR_SEED": "99"})
        r2 = run_cli("synth", "--n", "100", "--seed", "99", "--out", tmp_path / "b")
        assert r1.returncode == r2.returncode == 0
        assert (tmp_path / "a/modality_0.csv").read_bytes() == (tmp_path / "b/modality_0.csv").read_bytes()

    @pytest.mark.parametrize("env", ["-2", "seven"])
    def test_bad_env_seed_is_invalid_input(self, tmp_path, env):
        res = run_cli("synth", "--n", "100", "--out", tmp_path, env={"EQUIFAIR_SEED": env})
        assert res.returncode == 6
        assert res.stderr == f"invalid-input: EQUIFAIR_SEED must be a non-negative integer, got {env!r}\n"
        assert not any(tmp_path.iterdir())

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

    def test_input_from_a_pipe_reads_as_from_its_file(self, cohort_csv):
        # a pipe cannot be counted before it is read: the columns grow as
        # its blocks come (the file is about two and a half blocks)
        argv = [sys.executable, "-m", "equifair", "metrics", "--input", "/dev/stdin"]
        piped = subprocess.run(argv, input=cohort_csv.read_bytes(), capture_output=True)
        assert piped.returncode == 0, piped.stderr
        assert piped.stdout.decode() == run_cli("metrics", "--input", cohort_csv).stdout

    def test_non_ascii_group_under_an_ascii_stdout(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text(HEADER + "1,\u00e9,1,,1\n2,\u00e9,0,,0\n3,e,1,,0\n4,e,0,,1\n", encoding="utf-8")
        res = run_cli("metrics", "--input", path, env={"PYTHONIOENCODING": "ascii"})
        assert res.returncode == 0, res.stderr
        assert set(json.loads(res.stdout)["group_rates"]) == {"\u00e9", "e"}


class TestReportCommand:
    def test_report_matches_library_recomputation(self, cohort_csv, tmp_path):
        res = run_cli("report", "--input", cohort_csv, "--task", "t", "--out", tmp_path)
        assert res.returncode == 0, res.stderr
        report = report_from_json((tmp_path / "report.json").read_text())
        preds = read_predictions(cohort_csv)
        tpr_range, tnr_range = gap_ranges(confusion_rates(preds))
        assert report.tpr_range == tpr_range
        assert report.tnr_range == tnr_range
        plot = (tmp_path / "plot_data.csv").read_text().splitlines()
        assert plot[0] == "classifier,group,metric,value"
        assert len(plot) > 5

    def test_plot_data_quotes_labels(self, tmp_path):
        labels = ["a,b", 'q"r']
        path = tmp_path / "preds.csv"
        write_predictions(preds_from_counts({g: (3, 2, 3, 1) for g in labels}), path)
        assert main(["report", "--input", str(path), "--task", 'x, "y"', "--out", str(tmp_path / "r")]) == 0
        with open(tmp_path / "r/plot_data.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["classifier", "group", "metric", "value"]
        assert len(rows) > 1 and all(len(r) == 4 for r in rows)
        assert {r[0] for r in rows[1:]} == {'x, "y"'} and {r[1] for r in rows[1:]} == set(labels)

    def test_non_ascii_out_under_an_ascii_stdout(self, cohort_csv, tmp_path):
        out = tmp_path / "out\u00e9"
        res = run_cli("report", "--input", cohort_csv, "--out", out, env={"PYTHONIOENCODING": "ascii"})
        assert (res.returncode, res.stderr) == (0, "")
        assert res.stdout == "wrote " + str(out / "report.json").replace("\u00e9", "\\xe9") + "\n"
        assert (out / "report.json").exists()

    def test_stdout_errors_restored_after_main(self, cohort_csv, tmp_path, capsys):
        before = sys.stdout.errors
        assert main(["report", "--input", str(cohort_csv), "--out", str(tmp_path / "r")]) == 0
        assert sys.stdout.errors == before
        with pytest.raises(SystemExit):
            main(["report", "--no-such-flag"])
        assert sys.stdout.errors == before != "backslashreplace"

    def test_seed_from_the_environment(self, cohort_csv, tmp_path, monkeypatch, capsys):
        """``--seed``, else ``EQUIFAIR_SEED``, is checked and recorded; with
        neither the seed stays null."""

        def seeds(out):
            report = json.loads((out / "report.json").read_text())
            return report["metadata"]["seed"], json.loads((out / "manifest.json").read_text())["seed"]

        argv = ["report", "--input", str(cohort_csv), "--out"]
        monkeypatch.setenv("EQUIFAIR_SEED", "5")
        assert main([*argv, str(tmp_path / "env")]) == 0
        assert seeds(tmp_path / "env") == (5, 5)
        monkeypatch.setenv("EQUIFAIR_SEED", "-2")
        assert main([*argv, str(tmp_path / "flag"), "--seed", "3"]) == 0
        assert seeds(tmp_path / "flag") == (3, 3)
        capsys.readouterr()
        assert main([*argv, str(tmp_path / "bad")]) == 6
        assert capsys.readouterr().err == "invalid-input: EQUIFAIR_SEED must be a non-negative integer, got '-2'\n"
        assert not (tmp_path / "bad").exists()
        monkeypatch.delenv("EQUIFAIR_SEED")
        assert main([*argv, str(tmp_path / "none")]) == 0
        assert seeds(tmp_path / "none") == (None, None)

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


class TestManifest:
    @pytest.mark.parametrize("size", [0, 1, (1 << 20) - 1, 1 << 20, (5 << 19) + 7])
    def test_sha256_equals_hashlib_over_the_whole_file(self, size, tmp_path):
        data = np.random.default_rng(size).bytes(size)
        (tmp_path / "f").write_bytes(data)
        assert _sha256(tmp_path / "f") == hashlib.sha256(data).hexdigest()

    def test_manifest_hashes_every_input_and_output(self, cohort_csv, tmp_path):
        assert main(["report", "--input", str(cohort_csv), "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        hashed = {**manifest["inputs"], **manifest["outputs"]}
        assert set(hashed) == {str(cohort_csv), str(tmp_path / "report.json"), str(tmp_path / "plot_data.csv")}
        for path, digest in hashed.items():
            assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()



def _doc(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


# case: (its flags but --out, given the inputs' directory; its status line, given --out)
FINISHES = {
    "synth": (lambda d: ["synth", "--n", "200", "--modality-windows", "0:0.5,0.5:1"],
              lambda out: f"wrote 2 modality file(s) to {out}"),
    "synth-plant-embeddings": (lambda d: ["synth", "--plant-embeddings", "--vocab", "30", "--dim", "8"],
                               lambda out: f"wrote planted embeddings (30 words, dim 8) to {out}"),
    "report": (lambda d: ["report", "--input", d / "preds.csv"], lambda out: f"wrote {out / 'report.json'}"),
    "eo-fit": (lambda d: ["eo-fit", "--input", d / "preds.csv", "--variant", "soft"],
               lambda out: "wrote {} (target fpr={fpr:.6f} tpr={tpr:.6f})".format(
                   out / "derived_predictor.json", **_doc(out / "derived_predictor.json")["target"])),
    "eo-apply": (lambda d: ["eo-apply", "--input", d / "preds.csv", "--predictor", d / "eo-fit" / "derived_predictor.json"],
                 lambda out: f"wrote {out / 'postprocessed.csv'}"),
    "debias": (lambda d: ["debias", "--embeddings", d / "synth-plant-embeddings" / "embeddings.txt"],
               lambda out: "wrote {} ({neutralized} neutralized, {equalized_sets} sets equalized)".format(
                   out / "debiased_embeddings.txt", **_doc(out / "debias_report.json"))),
    "ensemble-fit": (lambda d: ["ensemble-fit", "--input", d / "preds.csv"],
                     lambda out: "wrote {} (converged={converged}, iterations={n_iter})".format(
                         out / "ensemble_model.json", **_doc(out / "ensemble_model.json"))),
    "ensemble-predict": (lambda d: ["ensemble-predict", "--input", d / "preds.csv", "--model", d / "ensemble-fit" / "ensemble_model.json"],
                         lambda out: f"wrote {out / 'ensemble_predictions.csv'}"),
    "pipeline": (lambda d: ["pipeline", "--intervention", "eo-soft", "--input", d / "preds.csv"],
                 lambda out: f"pipeline complete: 6 artifact(s) in {out}"),
    "pipeline-synthetic": (lambda d: ["pipeline", "--n", "300"], lambda out: f"pipeline complete: 2 artifact(s) in {out}"),
}


@pytest.fixture(scope="module")
def finish_inputs(tmp_path_factory):
    """preds.csv, with constituents m0 and m1, and the outputs of the
    eo-fit, ensemble-fit and synth-plant-embeddings cases, each in the
    directory of its name."""
    d = tmp_path_factory.mktemp("inputs")
    cohort = generate_cohort(CohortConfig(groups=GROUP_PRESETS["sex"], n_samples=400, seed=1,
                                          modality_windows=((0.0, 0.5), (0.5, 1.0))))
    scores = {f"m{j}": m.scores for j, m in enumerate(cohort.modalities)}
    write_predictions(cohort.modalities[0], d / "preds.csv", constituent_scores=scores)
    for case in ("eo-fit", "ensemble-fit", "synth-plant-embeddings"):
        assert main([str(a) for a in [*FINISHES[case][0](d), "--out", d / case]]) == 0
    return d


class TestFinish:
    """Every writing command ends the same way: --out holds exactly the
    files its manifest lists, and stdout holds its one status line."""

    @pytest.mark.parametrize("case", list(FINISHES))
    def test_outputs_and_status_line(self, case, finish_inputs, tmp_path, capsys):
        flags, status = FINISHES[case]
        out = tmp_path / "out"
        capsys.readouterr()
        assert main([str(a) for a in [*flags(finish_inputs), "--out", out]]) == 0
        manifest = _doc(out / "manifest.json")
        written = [p for p in out.iterdir() if p.name != "manifest.json"]
        assert manifest["outputs"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
        assert manifest["command"] == flags(finish_inputs)[0]
        assert capsys.readouterr() == (status(out) + "\n", "")

    @pytest.mark.parametrize("below", ["", "sub"], ids=["at-a-file", "under-a-file"])
    @pytest.mark.parametrize("case", list(FINISHES))
    def test_an_out_at_or_under_a_file_is_missing_file(self, case, below, finish_inputs, tmp_path, capsys):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        capsys.readouterr()
        assert main([str(a) for a in [*FINISHES[case][0](finish_inputs), "--out", afile / below]]) == 3
        out, err = capsys.readouterr()
        assert (out, err.count("\n"), err.startswith("missing-file: ")) == ("", 1, True), err
        assert afile.read_text() == "kept\n"

    @pytest.mark.parametrize("case", list(FINISHES))
    def test_an_out_with_an_over_long_component_is_missing_file(self, case, finish_inputs, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        # --out's parents "o" and "o/p" do not exist: the failed mkdir must not leave them made
        assert main([str(a) for a in [*FINISHES[case][0](finish_inputs), "--out", Path("o/p") / ("a" * 300)]]) == 3
        out, err = capsys.readouterr()
        assert (out, err.count("\n"), err.startswith("missing-file: ")) == ("", 1, True), err
        assert "File name too long" in err
        assert list(tmp_path.iterdir()) == []

    def test_an_input_the_command_overwrites_is_digested_as_read(self, cohort_csv, tmp_path):
        o = tmp_path / "o"
        runs = [
            ["eo-fit", "--input", cohort_csv, "--variant", "hard"],
            ["eo-apply", "--input", cohort_csv, "--predictor", o / "derived_predictor.json"],
        ]
        for argv in runs:
            assert main([str(a) for a in [*argv, "--out", o]]) == 0
        post = o / "postprocessed.csv"
        read = post.read_bytes()
        argv = ["eo-apply", "--input", post, "--predictor", o / "derived_predictor.json", "--seed", "1", "--out", o]
        assert main([str(a) for a in argv]) == 0
        written = post.read_bytes()
        assert written != read
        manifest = _doc(o / "manifest.json")
        assert manifest["inputs"][str(post)] == hashlib.sha256(read).hexdigest()
        assert manifest["outputs"][str(post)] == hashlib.sha256(written).hexdigest()

class TestClosedStdout:
    """A command whose stdout has no reader left ends as SIGPIPE would end
    it, with exit status 141, and prints nothing, at exit either."""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("case", ["metrics", "synth"])
    def test_a_closed_stdout_ends_quietly_with_status_141(self, case, unbuffered, finish_inputs, tmp_path):
        argv = {
            "metrics": ["metrics", "--input", finish_inputs / "preds.csv"],
            "synth": ["synth", "--n", "100", "--out", tmp_path / "d"],
        }[case]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        read, write = os.pipe()
        os.close(read)
        try:
            res = subprocess.run([sys.executable, "-m", "equifair", *map(str, argv)], stdout=write, stderr=subprocess.PIPE,
                                 env={**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env)
        finally:
            os.close(write)
        assert (res.returncode, res.stderr) == (141, b"")
        if case == "synth":  # the status line is all that is lost
            assert sorted(p.name for p in (tmp_path / "d").iterdir()) == ["analytic_rates.json", "manifest.json", "modality_0.csv"]


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

    @pytest.mark.parametrize("header, message", [
        ("100000000000000 300", "/dev/stdin: line 2: expected 300 values, got 1"),
        ("100000000000000 1", "/dev/stdin: header declares 100000000000000 words, found 1"),
    ])
    def test_a_header_read_from_a_pipe_allocates_only_the_rows_it_delivers(self, header, message, tmp_path):
        argv = [sys.executable, "-m", "equifair", "debias", "--embeddings", "/dev/stdin", "--out", tmp_path / "o"]
        res = subprocess.run(argv, input=f"{header}\nw 1\n", capture_output=True, text=True)
        assert (res.returncode, res.stderr) == (4, f"format-error: {message}\n")
        assert not (tmp_path / "o").exists()


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
        report = report_from_json((tmp_path / "base_report.json").read_text())
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
        base = report_from_json((tmp_path / "base_report.json").read_text())
        post = report_from_json((tmp_path / "post_report.json").read_text())
        expected = post.metadata["expected_rates"]
        tprs = [e["tpr"] for e in expected.values()]
        assert max(tprs) - min(tprs) <= 1e-9
        assert post.tpr_range < base.tpr_range

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
        report = report_from_json((tmp_path / "base_report.json").read_text())
        assert report.metadata["ensemble"]["constituents"] == ["m0", "m1"]

    @pytest.mark.parametrize("constituents", [False, True])
    def test_fit_split_is_dropped_before_the_eval_split_is_read(self, constituents, tmp_path, monkeypatch):
        """The fit split is read, fitted and collected (with the ensemble's
        scored copy of it) before the eval file's rows are read."""
        preds = preds_from_counts({"A": (10, 8, 10, 2), "B": (10, 6, 10, 3)})
        rng = np.random.default_rng(0)
        for name in ("fit.csv", "eval.csv"):
            scores = {f"m{j}": rng.random(len(preds)) for j in range(2)} if constituents else None
            write_predictions(preds, tmp_path / name, constituent_scores=scores)
        read, fit_refs, names = cli.read_prediction_file, [], []

        def reading(path, **kwargs):
            names.append(Path(path).name)
            if names[-1] == "eval.csv":
                assert [ref() for ref in fit_refs] == [None, None]
            pfile = read(path, **kwargs)
            if names[-1] == "fit.csv":
                fit_refs.extend((weakref.ref(pfile.predictions), weakref.ref(pfile.predictions.y_true)))
            return pfile

        monkeypatch.setattr(cli, "read_prediction_file", reading)
        argv = [
            "pipeline", "--intervention", "eo-hard", "--seed", "3", "--fit-input", tmp_path / "fit.csv",
            "--input", tmp_path / "eval.csv", "--out", tmp_path / "out",
        ]
        assert main([str(a) for a in argv]) == 0
        assert names == ["fit.csv", "eval.csv"]
        assert (tmp_path / "out/ensemble_model.json").exists() == constituents

    @pytest.mark.parametrize("command", ["synth", "pipeline"])
    def test_manifest_records_the_cohort_flags_used(self, command, tmp_path):
        res = run_cli(command, "--n", "300", "--preset", "insurance", "--seed", "2", "--out", tmp_path)
        assert res.returncode == 0, res.stderr
        arguments = json.loads((tmp_path / "manifest.json").read_text())["arguments"]
        assert {k: arguments[k] for k in COHORT_DEFAULTS} == {**COHORT_DEFAULTS, "n": 300, "preset": "insurance"}

    def test_manifests_of_synth_record_only_the_flags_of_their_mode(self, tmp_path):
        res = run_cli("synth", "--n", "300", "--seed", "2", "--out", tmp_path / "cohort")
        assert res.returncode == 0, res.stderr
        arguments = json.loads((tmp_path / "cohort/manifest.json").read_text())["arguments"]
        assert set(COHORT_DEFAULTS) <= set(arguments) and not set(EMBEDDING_DEFAULTS) & set(arguments)
        res = run_cli("synth", "--plant-embeddings", "--vocab", "40", "--seed", "2", "--out", tmp_path / "plant")
        assert res.returncode == 0, res.stderr
        arguments = json.loads((tmp_path / "plant/manifest.json").read_text())["arguments"]
        assert {k: arguments[k] for k in EMBEDDING_DEFAULTS} == {**EMBEDDING_DEFAULTS, "vocab": 40}
        assert not set(COHORT_DEFAULTS) & set(arguments)

    def test_manifest_of_a_run_on_input_records_no_cohort_flag(self, cohort_csv, tmp_path):
        res = run_cli("pipeline", "--input", cohort_csv, "--out", tmp_path)
        assert res.returncode == 0, res.stderr
        arguments = json.loads((tmp_path / "manifest.json").read_text())["arguments"]
        assert arguments["input"] == str(cohort_csv) and not set(COHORT_DEFAULTS) & set(arguments)

    @pytest.mark.parametrize("intervention", ["eo-hard", "eo-soft"])
    def test_no_stage_builds_the_ids_tuple(self, intervention, tmp_path, monkeypatch):
        """Every stage reads ids from ``id_column``: synth and a pipeline on
        files and on a synthetic cohort of two modalities, run in process."""

        def refuse(preds):
            raise AssertionError("LabeledPredictions.ids was built")

        monkeypatch.setattr(cli.LabeledPredictions, "ids", property(refuse))
        self._run_every_stage(intervention, tmp_path)

    @pytest.mark.parametrize("intervention", ["eo-hard", "eo-soft"])
    def test_no_stage_copies_a_column(self, intervention, tmp_path, monkeypatch):
        """The reader, synth, the ensemble and the EO apply stage hand their
        fresh arrays over read-only, so a set copies none of them."""
        owned = predictions._owned

        def refuse_copies(a, given):
            kept = owned(a, given)
            assert kept is a, f"a {a.dtype} column was copied"
            return kept

        monkeypatch.setattr(predictions, "_owned", refuse_copies)
        self._run_every_stage(intervention, tmp_path)

    @staticmethod
    def _run_every_stage(intervention, tmp_path):
        """synth, then a pipeline on files and on a synthetic cohort of two
        modalities, run in process."""
        for split, seed in (("fit", "1"), ("eval", "2")):
            assert main(["synth", "--n", "400", "--seed", seed, "--out", str(tmp_path / split)]) == 0
        files = ["--fit-input", tmp_path / "fit/modality_0.csv", "--input", tmp_path / "eval/modality_0.csv"]
        for run, given in (("files", files), ("cohort", ["--n", "400", "--modality-windows", "0:0.5,0.5:1"])):
            argv = ["pipeline", "--intervention", intervention, *given, "--seed", "3", "--out", tmp_path / run]
            assert main([str(a) for a in argv]) == 0
            assert (tmp_path / run / "postprocessed.csv").exists()

    def test_help_lists_no_embedding_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["pipeline", "--help"])
        help_text = capsys.readouterr().out
        assert "--intervention" in help_text
        for flag in ("--embeddings", "--equality-sets", "--k "):
            assert flag not in help_text, flag


class TestPinnedArtifacts:
    """sha256 of the EO artifacts and reports of small seeded synthetic
    pipelines, as written before the two derived-predictor classes became
    one (reports: before group codes and the one-sort AUC), and of a
    pipeline on a quoted CRLF input file, as written before the reader
    parsed by column and the draws were batched; any change to reading,
    fitting, metrics, serialisation or the realised draws shows here.
    The eo-soft predictor was re-pinned in 0.3.0: its thresholds are
    ensemble scores of a cohort whose planted means moved in their last
    bits.  postprocessed.csv and post_report.json were re-pinned in 0.4.0,
    whose draws fold each id's code points through SplitMix64 instead of
    hashing it with blake2b; DRAWN_0_3 keeps their 0.3.0 hashes.
    derived_predictor.json and post_report.json were re-pinned in 0.5.0,
    whose fit rounds its target, objective and policy probabilities once
    from the exact optimum; FIT_0_4 keeps 0.4.0's float values of those
    numbers, and FITTED_0_4 the hashes they gave."""

    PINS = {
        ("eo-hard",): {
            "derived_predictor.json": "fb7a6bb92f85c6755682304790692c8818289b06e391ea15f41818fa9e684239",
            "postprocessed.csv": "e19f1227948d2e522a1408756436099489e97dad0b5499d3378cdbdc96535ad3",
            "base_report.json": "a7f138c78377f6f1e154e13f88dc287f7409f3cba0a1e5e141914ba7e81404be",
            "post_report.json": "a4a2a911fca7e1e1c04b7b13a2841053b6233ec2c8529715ecfb1372b7887acd",
        },
        ("eo-soft", "--modality-windows", "0:0.5,0.5:1"): {
            "derived_predictor.json": "4b5d0a56df3d94d120057aa4d41ad36564453c0998b94efb5402a0b944345c4a",
            "postprocessed.csv": "109af5ea3fbac0fa1b8253845aa6c36cabd3e9fe6969f91350b90e9bbe34a7e9",
            "base_report.json": "7e501643ccd896bb00c879f9821a4d16d5a13dab92762a0dc17d85f1730e41e3",
            "post_report.json": "ddb32cbfb5a766d6e6481304a8cf99ff3f9e74a5cae3cae5e1c272c1600971d2",
        },
    }

    @staticmethod
    def _pinned_argv(variant, tmp_path):
        """The pipeline of a ``PINS`` variant, or of a ``QUOTED_PINS`` one on
        the quoted CRLF files it writes into ``tmp_path``; it writes to ``tmp_path / "out"``."""
        if isinstance(variant, tuple):
            return ["pipeline", "--intervention", *variant, "--preset", "ethnicity", "--n", "3000",
                    "--seed", "11", "--cost-fn", "3", "--out", tmp_path / "out"]
        TestPinnedArtifacts._quoted_crlf_csv(tmp_path / "fit.csv", 0)
        TestPinnedArtifacts._quoted_crlf_csv(tmp_path / "eval.csv", 1)
        return ["pipeline", "--intervention", variant, "--fit-input", tmp_path / "fit.csv",
                "--input", tmp_path / "eval.csv", "--seed", "3", "--cost-fn", "2", "--out", tmp_path / "out"]

    @pytest.mark.parametrize("variant", list(PINS), ids=lambda v: v[0])
    def test_artifact_hashes(self, variant, tmp_path):
        res = run_cli(*self._pinned_argv(variant, tmp_path))
        assert res.returncode == 0, res.stderr
        for name, digest in self.PINS[variant].items():
            assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name

    QUOTED_PINS = {
        "eo-hard": {
            "derived_predictor.json": "591b51e47e4dca63260fc2f7fa925cc3556b00ee1dc30d433db93bd26f2eb6cc",
            "postprocessed.csv": "203bdb44e0786caad46c4271b71ebf0a54d9749b480c8bf1ebc8a93de1cff8c8",
            "base_report.json": "7c940c7377b992b18db07f0e935d7abb9e3329823cd846d23d55864dcf564606",
            "post_report.json": "83ba9e44ef199180ecfeb64f52f90e9d75fced19bf0224f8b48c029f9b7964bc",
        },
        "eo-soft": {
            "derived_predictor.json": "c1c3cf9549cd2dfe5c5dc07435324dde64c7d36fb5de66e254196a435909a6a9",
            "postprocessed.csv": "ffd869dd7ceb1b067a52cc048aae1136341da0b099528de6f4a10e62c9c30d03",
            "base_report.json": "3388a6a25e6c8aadc711514fc06d8d003a1c556825c5c161d399f965575acad6",
            "post_report.json": "e34f7c3c1a69bee59b333de0696c4880011c72e6d2ab610ed5f4d5ec31a35957",
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
        res = run_cli(*self._pinned_argv(variant, tmp_path))
        assert res.returncode == 0, res.stderr
        for name, digest in self.QUOTED_PINS[variant].items():
            assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name

    # the text files whose every value is a rendered float64, as written
    # while each value went through float.__repr__ one at a time
    TEXT_PINS = {
        "emb/embeddings.txt": "42872e0109d1545d1e1b4f238cfe4afc0dc2773c17a1e32e2cf58ffe3d9f295b",
        "deb/debiased_embeddings.txt": "959bb7bf7f0918c9a9b2f4dd3cd9c2200623cb706d86e025672e7d5e77441ead",
        "syn/modality_0.csv": "9961e4d43be6275f8bcbefefa401aaaaa56d24186c7dd59a94ccb557a68bdbfa",
    }

    def test_rendered_text_hashes(self, tmp_path):
        out = tmp_path / "out"
        for argv in (["synth", "--plant-embeddings", "--vocab", "300", "--dim", "20", "--noise", "0.05", "--seed", "4", "--out", out / "emb"],
                     ["debias", "--embeddings", out / "emb/embeddings.txt", "--out", out / "deb"],
                     ["synth", "--preset", "insurance", "--n", "4000", "--seed", "9", "--modality-windows", "0:0.6,0.4:1", "--out", out / "syn"]):
            assert main([str(a) for a in argv]) == 0
        for name, digest in self.TEXT_PINS.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name

    FIT_0_4 = {  # the numbers the 0.5.0 fit moved, as 0.4.0's float fit gave them
        ("eo-hard",): {
            "target": (0.16326530612244894, 0.4999999999999999), "objective": 0.3539727891156463,
            "groups": {
                "ASIAN": {"p0": 0.0, "p1": 0.9999999999999997},
                "BLACK": {"p0": 0.04061464585834334, "p1": 0.6766866746698678},
                "HISPANIC": {"p0": 0.049640347942455657, "p1": 0.5818835731013715},
                "OTHER": {"p0": 0.08247946481497158, "p1": 0.6098738250486917},
                "WHITE": {"p0": 0.08635941980097821, "p1": 0.55662000337325},
            },
        },
        ("eo-soft", "--modality-windows", "0:0.5,0.5:1"): {
            "target": (0.015690153272517687, 0.18169505837258842), "objective": 0.3636862064221707,
            "groups": {
                "ASIAN": {"lam": 0.3844087551766834, "p_coin": 0.1918443109796668, "coin_rate": 0.015690153272517687},
                "BLACK": {"lam": 0.8329680599238148, "p_coin": 0.3433559949106576, "coin_rate": 0.015690153272517687},
                "HISPANIC": {"lam": 0.05171939412052126, "p_coin": 0.0, "coin_rate": 0.0},
                "OTHER": {"lam": 0.7755418617558743, "p_coin": 0.0, "coin_rate": 0.0},
                "WHITE": {"lam": 0.3631067926622744, "p_coin": 0.28557015595717605, "coin_rate": 0.015690153272517687},
            },
        },
        "eo-hard": {
            "target": (0.20779220779220775, 0.7674418604651163), "objective": 0.30128662035638776,
            "groups": {
                "A": {"p0": 0.0, "p1": 1.0},
                "B": {"p0": 0.012269037997621971, "p1": 0.9666083191378619},
                "C": {"p0": 0.04250707721005342, "p1": 0.9124288171161291},
            },
        },
        "eo-soft": {
            "target": (0.3951219512195123, 0.991304347826087), "objective": 0.2578798161894663,
            "groups": {
                "A": {"lam": 0.9794425087108017, "p_coin": 0.0017520139311654193, "coin_rate": 0.3951219512195123},
                "B": {"lam": 1.0, "p_coin": 0.0, "coin_rate": 0.0},
                "C": {"lam": 0.03987611304684496, "p_coin": 0.014375876577840008, "coin_rate": 0.3951219512195123},
            },
        },
    }
    FITTED_0_4 = {  # the artifacts the 0.5.0 fit re-pinned, as 0.4.0 wrote them
        ("eo-hard",): {
            "derived_predictor.json": "95e68f04b3ea7a1e3edeb13fbd4b7ca9b1a16e5cf8c545bad412b0e63652278e",
            "post_report.json": "142432d9bd985ac2bf47a35f2b3eb2543cd5d6139ae3757be4d72fd7bc1863c0",
        },
        ("eo-soft", "--modality-windows", "0:0.5,0.5:1"): {
            "derived_predictor.json": "75cee5a745fd907fc1a0944bc2bb48388d4395f31e9deba4cb827d5a8df1fab3",
            "post_report.json": "e163a82658dc81195c3d3f7ea1987132893f8b8f46f2148ca6988134bd5b69ca",
        },
        "eo-hard": {
            "derived_predictor.json": "9d8cf45edc0ef4401021a93c8d0a18861c299ddf6900437101225886efb262c3",
            "post_report.json": "eb64f5f8a48f2cc31e1c48f9cb410891bc2c5f8dc93c97258cf70c8dcedd4923",
        },
        "eo-soft": {
            "derived_predictor.json": "a4998da06d914b09dfaebee461156fd8eb2bb0b12a41f9701dd0db5d859eed00",
            "post_report.json": "7c662b3663bd1becbb7724d33bdfd32772566cd8bfa54c540e48a2a4581b4a18",
        },
    }

    @staticmethod
    def _fit_as_in_0_4(monkeypatch, variant):
        """The pipeline's EO fit hands over 0.4.0's target, objective and
        policy probabilities for ``variant``, and its own values of all else."""
        numbers = TestPinnedArtifacts.FIT_0_4[variant]
        for name in ("fit_eo_hard", "fit_eo_soft"):
            def as_in_0_4(preds, loss, fit=getattr(cli, name)):
                dp = fit(preds, loss)
                policies = {g: replace(p, **numbers["groups"][g]) for g, p in dp.policies.items()}
                return replace(dp, target=numbers["target"], objective=numbers["objective"], policies=policies)

            monkeypatch.setattr(cli, name, as_in_0_4)

    @pytest.mark.parametrize("variant", list(FIT_0_4), ids=lambda v: f"quoted-{v}" if isinstance(v, str) else v[0])
    def test_0_4_fit_numbers_give_back_every_0_4_artifact(self, variant, tmp_path, monkeypatch):
        # the 0.5.0 re-pin comes from those numbers alone: handed 0.4.0's
        # values of them, the pipeline writes 0.4.0's bytes
        self._fit_as_in_0_4(monkeypatch, variant)
        assert main([str(a) for a in self._pinned_argv(variant, tmp_path)]) == 0
        pins = {**(self.PINS if isinstance(variant, tuple) else self.QUOTED_PINS)[variant], **self.FITTED_0_4[variant]}
        for name, digest in pins.items():
            assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("variant", list(FIT_0_4), ids=lambda v: f"quoted-{v}" if isinstance(v, str) else v[0])
    def test_moved_numbers_are_the_exact_optimum_rounded_once(self, variant, tmp_path, monkeypatch):
        fits = []
        for name in ("fit_eo_hard", "fit_eo_soft"):
            def recorded(preds, loss, fit=getattr(cli, name)):
                fits.append((preds, loss, fit(preds, loss)))
                return fits[-1][2]

            monkeypatch.setattr(cli, name, recorded)
        assert main([str(a) for a in self._pinned_argv(variant, tmp_path)]) == 0
        (preds, loss, dp), = fits
        exact, _, target = exact_eo_oracle(preds, loss, dp.variant)
        assert dp.target == (float(target[0]), float(target[1])) and dp.objective == float(exact)
        expected = once_rounded_policies(dp, preds, target)
        assert {g: {f: getattr(dp.policies[g], f) for f in fields} for g, fields in expected.items()} == expected
        assert dp.target != self.FIT_0_4[variant]["target"]  # 0.4.0's float clip missed it in the last bits

    DRAWN_0_3 = {  # the artifacts the 0.4.0 draws re-pinned, as 0.3.0 wrote them
        ("eo-hard",): {
            "postprocessed.csv": "cb0dc86a904bcf529bb3f8ba87d83506c2ebfc260fcfb0effd3f2429b8153f03",
            "post_report.json": "5aadb68f2cdd977c1d951fa27fa9a2c19c69314891ffc8f266c62042ec83968e",
        },
        ("eo-soft", "--modality-windows", "0:0.5,0.5:1"): {
            "postprocessed.csv": "60fd79bd0dfe6249c561fbee65379713025f71bb74c38120d4ef34a236adaccb",
            "post_report.json": "3f03018e0429c40e8902355cdaa2b94fa4955960237c472c4e690a63b899b0af",
        },
        "eo-hard": {
            "postprocessed.csv": "fddd65ee9814fc94291187c4869f0a8f50f5a5eb4799c7e0ee8681d3f0824284",
            "post_report.json": "f9ac126c19d01e673c016972aa67151f919569eafcdab2110cd618873306d74f",
        },
        "eo-soft": {
            "postprocessed.csv": "38d59a52d9e2a61ba59755d155efb8003f587d22dcd466c948000dd215224046",
            "post_report.json": "52baaeefb2a71652e7897b5e4cb65b0bace99e722b36e74c340e1a716771a4dd",
        },
    }

    @pytest.mark.parametrize("variant", list(DRAWN_0_3), ids=lambda v: f"quoted-{v}" if isinstance(v, str) else v[0])
    def test_blake2b_draws_give_back_every_0_3_artifact(self, variant, tmp_path, monkeypatch):
        # the 0.4.0 re-pin comes from the draws alone: handed 0.3.0's draws
        # through draws=, and the fit numbers 0.3.0 and 0.4.0 shared,
        # apply_hard and apply_soft write 0.3.0's bytes
        apply_stage = cli._eo_apply_stage

        def blake2b_drawn(dp, preds, seed, draws=None):
            n = 1 if dp.variant == "hard" else 3
            ids = preds.id_column.tolist()
            draws = np.array([sample_uniforms_blake2b_oracle(seed, f"eo-{dp.variant}", i, n) for i in ids]).reshape(-1, n)
            return apply_stage(dp, preds, seed, draws)

        monkeypatch.setattr(cli, "_eo_apply_stage", blake2b_drawn)
        self._fit_as_in_0_4(monkeypatch, variant)
        assert main([str(a) for a in self._pinned_argv(variant, tmp_path)]) == 0
        pins = {
            **(self.PINS if isinstance(variant, tuple) else self.QUOTED_PINS)[variant],
            **self.FITTED_0_4[variant],
            **self.DRAWN_0_3[variant],
        }
        for name, digest in pins.items():
            assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest, name


def _without(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


def _with(key, value):
    return lambda d: {**d, key: value}


def _policies(**edit):
    return lambda d: {**d, "groups": {g: {**p, **edit} for g, p in d["groups"].items()}}


SOFT_POLICY = {"t_lo": 0.4, "t_hi": 0.6, "lam": 0.5, "point_lo": [0.3, 0.8], "point_hi": [0.1, 0.5]}


def _soft(**edit):
    return lambda d: {**d, "variant": "soft", "groups": {g: {**SOFT_POLICY, **edit} for g in d["groups"]}}


HEADER = "id,group,y_true,score,y_hat\n"
# a bad byte in the second block the prediction reader decodes
DEEP = HEADER + "".join(f"r{i},A,1,,1\n" for i in range(8000))
# an embedding file whose bad byte lies past the decoder's first chunk
EMBEDDINGS = "2001 1\n" + "".join(f"w{i} 0.5\n" for i in range(2000))
ENSEMBLE_MODEL = {
    "weights": [1.0, -0.5], "intercept": 0.1, "C": 1.0, "n_iter": 3, "grad_norm": 1e-9, "converged": True,
    "constituents": ["m0", "m1"],
}

# pipeline inputs: fit.csv and eval.csv (None: a good file)
ROWS = "a1,A,1,,1\na2,A,0,,0\nb1,B,1,,1\nb2,B,0,,1\n"
BAD_Y_TRUE = HEADER + "a1,A,1,,1\na2,A,2,,0\n"  # line 3
BAD_Y_HAT = HEADER + "a1,A,1,,x\n"  # line 2

# case: (command, predictor edit or extra flags or input bytes, exit code, category, text in the message)
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
        4, "format-error", "NaN",
    ),
    "predictor-negative-group-weight": (
        "eo-apply", lambda d: {**d, "loss": {**d["loss"], "group_weights": {"A": -1.0, "B": 1.0}}},
        6, "invalid-input", "finite",
    ),
    "predictor-nan-p0": ("eo-apply", _policies(p0=float("nan")), 4, "format-error", "NaN"),
    "predictor-p0-above-one": ("eo-apply", _policies(p0=2.0), 6, "invalid-input", "p0"),
    "predictor-soft-lam-above-one": ("eo-apply", _soft(lam=5.0), 6, "invalid-input", "lam"),
    "predictor-soft-nan-t-lo": ("eo-apply", _soft(t_lo=float("nan")), 4, "format-error", "NaN"),
    "predictor-infinite-target": ("eo-apply", _with("target", {"fpr": float("inf"), "tpr": 0.5}), 4, "format-error", "Infinity"),
    "predictor-nan-objective": ("eo-apply", _with("objective", float("nan")), 4, "format-error", "NaN"),
    "predictor-unknown-field": ("eo-apply", _with("bogus", 1), 4, "format-error", "unknown field bogus"),
    # a key or a path that holds a line break is written escaped, on the one line
    "predictor-key-with-a-line-feed": ("eo-apply", _with("a\nb", 1), 4, "format-error", "unknown field a\\nb"),
    "predictor-key-with-a-line-separator": ("eo-apply", _with("a\u2028b", 1), 4, "format-error", "unknown field a\\u2028b"),
    "input-name-with-a-line-feed": (
        "metrics-named", ("bad\nname.csv", b"id,y_true\n"), 4, "format-error", "bad\\nname.csv: header is missing columns",
    ),
    "predictor-not-utf8": ("eo-apply", b'{"variant": "h\xe9rd"}', 4, "format-error", "byte offset 14 (line 1)"),
    "synth-config-groups-not-an-object": ("synth-config", '{"groups": 3}', 4, "format-error", "field groups"),
    "synth-config-fractional-n-samples": ("synth-config", '{"n_samples": 10.5}', 4, "format-error", "n_samples"),
    "synth-config-unknown-field": ("synth-config", '{"bogus": 1}', 4, "format-error", "unknown field bogus"),
    "synth-config-not-an-object": ("synth-config", "[]", 4, "format-error", "object"),
    "synth-config-negative-seed": ("synth-config", '{"seed": -1}', 6, "invalid-input", "CohortConfig.seed must be non-negative"),
    "synth-config-nan-proportion": ("synth-config", '{"groups": {"A": NaN, "B": 0.5}}', 4, "format-error", "NaN"),
    # the seed of a cohort config comes from --seed or EQUIFAIR_SEED
    **{
        f"{command}-sets-seed": (command, '{"n_samples": 50, "seed": 3}', 6, "invalid-input", "cohort config: field seed is refused")
        for command in ("synth-config", "pipeline-synth-config")
    },
    "model-weights-not-a-list": ("ensemble-predict", _with("weights", "x"), 4, "format-error", "field weights"),
    "model-not-an-object": ("ensemble-predict", lambda d: [], 4, "format-error", "object"),
    "model-null-c": ("ensemble-predict", _with("C", None), 4, "format-error", "field C"),
    "model-without-grad-norm": ("ensemble-predict", _without("grad_norm"), 4, "format-error", "grad_norm"),
    "model-converged-a-string": ("ensemble-predict", _with("converged", "false"), 4, "format-error", "converged"),
    "model-constituents-a-string": ("ensemble-predict", _with("constituents", "m0"), 4, "format-error", "constituents"),
    "model-without-constituents": ("ensemble-predict", _without("constituents"), 4, "format-error", "missing field constituents"),
    "model-empty-constituents": ("ensemble-predict", _with("constituents", []), 6, "invalid-input", "constituents"),
    "equality-set-number": ("debias", '[["he", "she"], ["his", 3]]', 4, "format-error", "field 1.1"),
    "embeddings-not-utf8": (
        "debias-embeddings", f"{EMBEDDINGS}sh\xe9 0.5\n".encode("latin-1"), 4, "format-error",
        f"emb.txt: byte offset {len(EMBEDDINGS) + 2} (line 2002)",
    ),
    **{
        f"embeddings-{case}": ("debias-embeddings", MALFORMED_EMBEDDINGS[case], code, category, needle)
        for case, code, category, needle in (
            ("count-in-the-third-block", 4, "format-error", "emb.txt: line 6: expected 2 values, got 1"),
            ("duplicate-of-an-earlier-block", 4, "format-error", "emb.txt: line 7: duplicate token 'w0'"),
            ("non-numeric", 4, "format-error", "emb.txt: line 5: non-numeric vector value"),
            ("count-error-on-a-duplicate", 4, "format-error", "emb.txt: line 6: expected 2 values, got 1"),
            ("duplicate-before-a-count-error", 4, "format-error", "emb.txt: line 6: duplicate token 'w0'"),
            ("non-numeric-after-a-duplicate", 4, "format-error", "emb.txt: line 4: duplicate token 'w0'"),
            ("crlf", 4, "format-error", "emb.txt: line 6: expected 2 values, got 1"),
            ("bare-cr", 4, "format-error", "emb.txt: line 6: expected 2 values, got 1"),
            ("blank-lines", 4, "format-error", "emb.txt: line 7: expected 2 values, got 3"),
            ("word-count", 4, "format-error", "emb.txt: header declares 7 words, found 6"),
            ("non-finite", 6, "invalid-input", "vectors must be finite"),
            ("not-utf8-deep", 4, "format-error", "emb.txt: byte offset 22866 (line 1500): not valid utf-8 (0xe9)"),
            ("bad-line-before-a-bad-byte-in-a-later-chunk", 4, "format-error", "emb.txt: line 3: expected 2 values"),
            ("bad-line-two-lines-before-a-bad-byte-in-a-later-chunk", 4, "format-error", "emb.txt: line 553: expected"),
            ("bad-line-in-the-chunk-of-a-bad-byte", 4, "format-error", "emb.txt: byte offset 38 (line 5)"),
            ("header-declares-a-trillion-words", 4, "format-error", "emb.txt: header declares 1000000000000 words, found 2"),
            ("header-declares-fewer-words-before-a-bad-line", 4, "format-error", "emb.txt: line 7: expected 2 values, got 1"),
        )
    },
    "predictor-is-a-directory": ("eo-apply", "dir", 3, "missing-file", "dp.json"),
    # paths the OS refuses
    "report-input-name-too-long": ("report-path", "a" * 300 + ".csv", 3, "missing-file", "File name too long"),
    "metrics-input-a-symlink-loop": ("metrics-path", "loop1", 3, "missing-file", "Too many levels of symbolic links"),
    # inputs that fail once read; "missing.csv" stands for a file that does not exist
    "eo-fit-input-missing": ("eo-fit", ["--input", "missing.csv"], 3, "missing-file", "missing.csv"),
    "pipeline-input-missing": ("pipeline", ["--input", "missing.csv"], 3, "missing-file", "missing.csv"),
    "pipeline-fit-input-missing": (
        "pipeline", ["--input", "preds.csv", "--fit-input", "missing.csv"], 3, "missing-file", "missing.csv",
    ),
    "ensemble-fit-without-constituents": ("ensemble-fit", [], 6, "invalid-input", "needs score_<name> constituent columns"),
    "cost-fp-nan": ("eo-fit", ["--cost-fp", "nan"], 6, "invalid-input", "finite"),
    "cost-fn-inf": ("eo-fit", ["--cost-fn", "inf"], 6, "invalid-input", "finite"),
    "pipeline-cost-fp-nan": ("pipeline", ["--cost-fp", "nan"], 6, "invalid-input", "finite"),
    "input-is-a-directory": ("metrics", "dir", 3, "missing-file", "Is a directory"),
    "input-not-utf8": ("metrics", f"{HEADER}1,Zoë,1,,1\n".encode("latin-1"), 4, "format-error", "utf-8"),
    "input-not-utf8-past-first-block": (
        "metrics", f"{DEEP}x,Zoë,1,,1\n".encode("latin-1"), 4, "format-error", f"byte offset {len(DEEP) + 4} (line 8002)",
    ),
    "input-field-over-csv-limit": (
        "metrics", f"{HEADER}{'x' * (csv.field_size_limit() + 1)},A,1,,1\n".encode(), 4, "format-error", "field limit",
    ),
    "synth-noise-nan": ("synth", ["--plant-embeddings", "--noise", "nan"], 6, "invalid-input", "finite"),
    "synth-cohort-noise-nan": ("synth", ["--noise", "nan"], 6, "invalid-input", "--noise must be finite, got nan"),
    "synth-seed-negative": ("synth", ["--seed", "-1"], 6, "invalid-input", "--seed must be a non-negative integer, got -1"),
    "synth-plant-embeddings-seed-negative": (
        "synth", ["--plant-embeddings", "--seed", "-1"], 6, "invalid-input", "--seed must be a non-negative integer",
    ),
    "pipeline-c-nan": ("pipeline", ["--C", "nan"], 6, "invalid-input", "--C must be finite, got nan"),
    # --C is checked whether or not an ensemble stage runs
    "pipeline-c-negative-one-modality": ("pipeline", ["--C", "-1"], 6, "invalid-input", "C must be finite and positive, got -1.0"),
    "pipeline-c-negative-two-modalities": (
        "pipeline", ["--C", "-1", "--modality-windows", "0:0.5,0.5:1"], 6, "invalid-input", "C must be finite and positive, got -1.0",
    ),
    "pipeline-c-zero-on-files": ("pipeline", ["--input", "preds.csv", "--C", "0"], 6, "invalid-input", "C must be finite and positive, got 0.0"),
    "ensemble-fit-c-negative": ("ensemble-fit", ["--C", "-2"], 6, "invalid-input", "C must be finite and positive, got -2.0"),
    "synth-window-not-a-number": ("synth", ["--modality-windows", "abc"], 6, "invalid-input", "'abc'"),
    "synth-window-one-bound": ("synth", ["--modality-windows", "0:0.5,0.5"], 6, "invalid-input", "'0.5'"),
    "pipeline-intervention-pair": (
        "pipeline", ["--intervention", "eo-hard+eo-soft"], 6, "invalid-input", "unknown intervention 'eo-hard+eo-soft'",
    ),
    "pipeline-intervention-debias": (
        "pipeline", ["--intervention", "debias"], 6, "invalid-input", "unknown intervention 'debias'",
    ),
    "pipeline-intervention-eo-hard+debias": (
        "pipeline", ["--intervention", "eo-hard+debias"], 6, "invalid-input", "unknown intervention 'eo-hard+debias'",
    ),
    "pipeline-window-three-bounds": ("pipeline", ["--modality-windows", "0:0.5:1"], 6, "invalid-input", "'0:0.5:1'"),
    # flags a run would ignore; "preds.csv" stands for a good prediction file
    "pipeline-fit-input-without-input": ("pipeline", ["--fit-input", "preds.csv"], 6, "invalid-input", "--fit-input needs --input"),
    "pipeline-synth-config-with-input": (
        "pipeline", ["--input", "preds.csv", "--synth-config", "cohort.json"], 6, "invalid-input",
        "--synth-config applies only without --input",
    ),
    **{
        f"pipeline{flag}-with-input": ("pipeline", ["--input", "preds.csv", flag, value], 6, "invalid-input", f"{flag} applies only without --input")
        for flag, value in (
            ("--n", "50"), ("--preset", "insurance"), ("--positive-rate", "0.9"), ("--tpr-low", "0.6"),
            ("--tpr-high", "0.85"), ("--fpr", "0.15"), ("--modality-windows", "0:1"),
        )
    },
    # a cohort config replaces the other cohort flags
    **{
        f"{command}{flag}-with-synth-config": (
            command, ["--synth-config", "cohort.json", flag, value], 6, "invalid-input", f"{flag} applies only without --synth-config",
        )
        for command in ("synth", "pipeline")
        for flag, value in (
            ("--n", "7"), ("--preset", "insurance"), ("--positive-rate", "0.9"), ("--tpr-low", "0.6"),
            ("--tpr-high", "0.85"), ("--fpr", "0.15"), ("--modality-windows", "0:1"),
        )
    },
    **{
        f"{command}-cohort-flags-with-synth-config": (
            command, ["--synth-config", "cohort.json", "--n", "7", "--preset", "insurance"], 6, "invalid-input",
            "--preset, --n apply only without --synth-config",
        )
        for command in ("synth", "pipeline")
    },
    "pipeline-cohort-flags-with-input": (
        "pipeline", ["--input", "preds.csv", "--n", "50", "--preset", "insurance", "--positive-rate", "0.9"], 6,
        "invalid-input", "--preset, --n, --positive-rate apply only without --input",
    ),
    # synth refuses the flags of the mode it does not run
    **{
        f"synth{flag}-without-plant-embeddings": ("synth", [flag, value], 6, "invalid-input", f"{flag} applies only with --plant-embeddings")
        for flag, value in (("--equality-sets", "race"), ("--vocab", "10"), ("--dim", "3"), ("--noise", "0.5"))
    },
    "synth-embedding-flags-without-plant-embeddings": (
        "synth", ["--n", "300", "--vocab", "10", "--dim", "3", "--noise", "0.5", "--equality-sets", "race"], 6,
        "invalid-input", "--equality-sets, --vocab, --dim, --noise apply only with --plant-embeddings",
    ),
    **{
        f"synth{flag}-with-plant-embeddings": (
            "synth", ["--plant-embeddings", flag, value], 6, "invalid-input", f"{flag} applies only without --plant-embeddings",
        )
        for flag, value in (
            ("--n", "50"), ("--preset", "insurance"), ("--positive-rate", "0.9"), ("--tpr-low", "0.6"),
            ("--tpr-high", "0.85"), ("--fpr", "0.15"), ("--modality-windows", "0:1"), ("--synth-config", "cohort.json"),
        )
    },
    "synth-cohort-flags-with-plant-embeddings": (
        "synth", ["--plant-embeddings", "--n", "50", "--preset", "insurance", "--positive-rate", "0.9"], 6,
        "invalid-input", "--preset, --n, --positive-rate apply only without --plant-embeddings",
    ),
    "report-seed-negative": ("report", ["--seed", "-1"], 6, "invalid-input", "--seed must be a non-negative integer, got -1"),
    "pipeline-eval-malformed": (
        "pipeline-files", (None, BAD_Y_HAT), 4, "format-error", "eval.csv: line 2: column 'y_hat' must be 0 or 1, got 'x'",
    ),
    "pipeline-fit-malformed": (
        "pipeline-files", (BAD_Y_TRUE, None), 4, "format-error", "fit.csv: line 3: column 'y_true' must be 0 or 1, got '2'",
    ),
    "pipeline-fit-group-lacks-a-class": (
        "pipeline-files", (HEADER + ROWS + "c1,C,1,,1\n", None), 6, "invalid-input", "groups missing a class: ['C']",
    ),
    "pipeline-eval-group-not-fitted": (
        "pipeline-files", (None, HEADER + ROWS + "c1,C,1,,1\n"), 8, "group-mismatch", "not covered by the derived predictor: ['C']",
    ),
    # several bad inputs: the eval header, then the fit side, then the eval rows
    "pipeline-both-malformed": (
        "pipeline-files", (BAD_Y_TRUE, BAD_Y_HAT), 4, "format-error", "fit.csv: line 3: column 'y_true' must be 0 or 1, got '2'",
    ),
    "pipeline-eval-header-and-fit-malformed": (
        "pipeline-files", (BAD_Y_TRUE, "id,y_true\n"), 4, "format-error", "eval.csv: header is missing columns",
    ),
}


class TestMalformedInputs:
    """Each malformed input gives exactly one ``<category>: <message>``
    line on stderr and the category's exit code, never a traceback, and
    does not make ``--out``."""

    @pytest.mark.parametrize("case", list(MALFORMED))
    def test_one_line_and_exit_code(self, case, tmp_path, capsys, monkeypatch):
        command, arg, code, category, needle = MALFORMED[case]
        preds = preds_from_counts({"A": (10, 8, 10, 2), "B": (10, 6, 10, 3)})
        csv_path = tmp_path / "preds.csv"
        write_predictions(preds, csv_path)
        out = tmp_path / "out"
        if command == "eo-apply":
            predictor = tmp_path / "dp.json"
            if arg == "dir":
                predictor.mkdir()
            elif isinstance(arg, bytes):
                predictor.write_bytes(arg)
            else:
                predictor.write_text(json.dumps(arg(fit_eo_hard(preds).to_dict())), encoding="utf-8")
            argv = ["eo-apply", "--input", csv_path, "--predictor", predictor, "--out", out]
        elif command == "eo-fit":
            argv = ["eo-fit", "--input", csv_path, "--variant", "hard", *arg, "--out", out]
        elif command == "pipeline":
            small = [] if "--input" in arg or "--synth-config" in arg else ["--n", "200"]  # a synthetic cohort of 200 rows
            argv = ["pipeline", "--intervention", "eo-hard", *small, *(csv_path if a == "preds.csv" else a for a in arg), "--out", out]
        elif command == "pipeline-files":
            for name, text in zip(("fit.csv", "eval.csv"), arg):
                (tmp_path / name).write_bytes(csv_path.read_bytes() if text is None else text.encode())
            argv = [
                "pipeline", "--intervention", "eo-hard", "--fit-input", tmp_path / "fit.csv",
                "--input", tmp_path / "eval.csv", "--out", out,
            ]
        elif command == "report":
            argv = ["report", "--input", csv_path, *arg, "--out", out]
        elif command == "synth":
            argv = ["synth", *arg, "--out", out]
        elif command.endswith("synth-config"):
            (tmp_path / "cohort.json").write_text(arg, encoding="utf-8")
            argv = [command.split("-")[0], "--synth-config", tmp_path / "cohort.json", "--out", out]
        elif command == "ensemble-fit":
            argv = ["ensemble-fit", "--input", csv_path, *arg, "--out", out]
        elif command == "ensemble-predict":
            (tmp_path / "model.json").write_text(json.dumps(arg(ENSEMBLE_MODEL)), encoding="utf-8")
            argv = ["ensemble-predict", "--input", csv_path, "--model", tmp_path / "model.json", "--out", out]
        elif command == "debias":
            emb, _, _ = generate_embeddings(
                EmbeddingPlantConfig(equality_sets=GENDER_SETS, vocab_size=20, dim=8, noise=0.01, seed=1)
            )
            save_embeddings(emb, tmp_path / "emb.txt")
            (tmp_path / "sets.json").write_text(arg, encoding="utf-8")
            argv = ["debias", "--embeddings", tmp_path / "emb.txt", "--equality-sets", tmp_path / "sets.json", "--out", out]
        elif command == "debias-embeddings":
            # read on a pool of 2 workers, in blocks of 4 values
            monkeypatch.setattr(debias, "_POOL_FLOOR", 0)
            monkeypatch.setattr(pool, "_usable_cpus", lambda: 2)
            monkeypatch.setattr(debias, "_BLOCK_VALUES", 4)
            (tmp_path / "emb.txt").write_bytes(arg)
            argv = ["debias", "--embeddings", tmp_path / "emb.txt", "--out", out]
        elif command.endswith("-path"):
            (tmp_path / "loop1").symlink_to(tmp_path / "loop1")
            argv = [command.removesuffix("-path"), "--input", tmp_path / arg, *(["--out", out] if command == "report-path" else [])]
        elif arg == "dir":
            argv = ["metrics", "--input", tmp_path]
        else:
            name, arg = arg if command == "metrics-named" else ("bad.csv", arg)
            bad = tmp_path / name
            bad.write_bytes(arg)
            argv = ["metrics", "--input", bad]
        argv = [tmp_path / a if a == "missing.csv" else a for a in argv]
        assert main([str(a) for a in argv]) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.endswith("\n") and err.startswith(f"{category}: "), err
        assert needle in err
        assert not out.exists()


class TestGroupListsInErrors:
    """An error line that lists groups names at most five of them, then
    how many more there are; five or fewer keep the whole list."""

    def test_twenty_thousand_groups_missing_a_class_give_one_short_line(self, tmp_path, capsys):
        lacking = "".join(f"c{i},G{i:05d},1,,1\n" for i in range(20_000))
        (tmp_path / "fit.csv").write_text(HEADER + ROWS + lacking, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["eo-fit", "--input", str(tmp_path / "fit.csv"), "--variant", "hard", "--out", str(out)]) == 6
        err = capsys.readouterr().err
        assert err == "invalid-input: groups missing a class: ['G00000', 'G00001', 'G00002', 'G00003', 'G00004'] and 19995 more\n"
        assert len(err.encode()) < 200 and not out.exists()

    @pytest.mark.parametrize("n", [5, 7])
    def test_every_message_that_lists_groups(self, n):
        names = [f"g{i}" for i in range(n)]
        listed = str(names) if n <= 5 else f"{names[:5]} and {n - 5} more"
        base = preds_from_counts({"A": (10, 8, 10, 2), "B": (10, 6, 10, 3)})
        dp = fit_eo_hard(base)
        others = preds_from_counts({g: (2, 1, 2, 1) for g in names})
        cases = {
            "groups missing a class:": lambda: fit_eo_hard(preds_from_counts({"A": (2, 1, 2, 1), **{g: (2, 1, 0, 0) for g in names}})),
            "group weights missing for groups": lambda: fit_eo_hard(others, LossSpec(group_weights={"A": 1.0})),
            "groups not covered by the derived predictor:": lambda: apply_hard(dp, others, seed=0),
            "base rates missing groups:": lambda: expected_rates(replace(dp, policies={g: dp.policies["A"] for g in names}), {}),
            "group labels outside the declared universe:": lambda: LabeledPredictions(
                ids=names, y_true=np.zeros(n), groups=names, y_hat=np.zeros(n), universe=("A",)
            ),
        }
        for message, call in cases.items():
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == f"{message} {listed}"


class TestGroupRenaming:
    @pytest.mark.parametrize("variant", ["eo-hard", "eo-soft"])
    def test_pipeline_derived_predictor_follows_a_renaming(self, variant, tmp_path):
        """Renaming the groups so that their sorted order reverses renames
        the entries of ``derived_predictor.json`` and changes none of its
        numbers, bit for bit."""
        renaming = {"A": "Z", "B": "Y", "C": "X"}
        docs = []
        for run, names in (("given", {g: g for g in renaming}), ("renamed", renaming)):
            (tmp_path / run).mkdir()
            for split, name in enumerate(("fit.csv", "eval.csv")):
                path = tmp_path / run / name
                TestPinnedArtifacts._quoted_crlf_csv(path, split)
                text = path.read_bytes()
                for old, new in names.items():  # each id ends in a quote, so this is the group field
                    text = text.replace(f'",{old},'.encode(), f'",{new},'.encode())
                path.write_bytes(text)
            argv = ["pipeline", "--intervention", variant, "--fit-input", tmp_path / run / "fit.csv",
                    "--input", tmp_path / run / "eval.csv", "--seed", "3", "--cost-fn", "2", "--out", tmp_path / run / "out"]
            assert main([str(a) for a in argv]) == 0
            docs.append(json.loads((tmp_path / run / "out" / "derived_predictor.json").read_text(encoding="utf-8")))
        given, renamed = docs
        assert renamed["groups"] == {renaming[g]: p for g, p in given["groups"].items()}
        assert renamed["fit_rates"] == {renaming[g]: r for g, r in given["fit_rates"].items()}
        assert json.dumps({**renamed, "groups": {}, "fit_rates": {}}) == json.dumps({**given, "groups": {}, "fit_rates": {}})
