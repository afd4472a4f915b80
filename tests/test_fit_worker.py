"""``pipeline`` with two input files reads and fits the fit file on one
worker process while it reads the eval file, draws the apply uniforms of
its rows and digests both inputs.  Forced here with the floor at 0 and two
usable CPUs, the worker path must write the same bytes, and report the
same error, as the in-process path; a worker that dies or cannot start
leaves the fit to the calling process, and no worker outlives ``main``."""

import errno
import hashlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from equifair import DerivedPredictor, LabeledPredictions, cli, pool, read_predictions
from equifair.cli import main
from equifair.eo import derive_seed
from equifair.predictions import write_predictions
from equifair.synth import GROUP_PRESETS, CohortConfig, generate_cohort

from oracles import apply_soft_oracle, preds_from_counts

SRC = Path(cli.__file__).resolve().parents[1]
HEADER = "id,group,y_true,score,y_hat\n"
BAD_Y_TRUE = HEADER + "a1,A,1,,1\na2,A,2,,0\n"  # line 3
BAD_Y_HAT = HEADER + "a1,A,1,,x\n"  # line 2
SCORES_ONLY = HEADER + "a1,A,1,0.9,\na2,A,0,0.2,\nb1,B,1,0.8,\nb2,B,0,0.4,\n"


def write_splits(tmp_path: Path, constituents: bool) -> None:
    """fit.csv and eval.csv: ethnicity cohorts of two modalities, with
    their score_m0 / score_m1 columns or without."""
    for part, seed in (("fit", 1), ("eval", 2)):
        cohort = generate_cohort(CohortConfig(
            groups=GROUP_PRESETS["ethnicity"], n_samples=1500, seed=seed,
            modality_windows=((0.0, 0.5), (0.5, 1.0)), id_prefix=part[0],
        ))
        scores = {f"m{j}": m.scores for j, m in enumerate(cohort.modalities)} if constituents else None
        write_predictions(cohort.modalities[0], tmp_path / f"{part}.csv", constituent_scores=scores)


@pytest.fixture
def read_here(monkeypatch):
    """The names of the prediction files this process reads; a forked
    worker records its reads in its own copy."""
    names, read = [], cli.read_prediction_file

    def reading(path, **kwargs):
        names.append(Path(path).name)
        return read(path, **kwargs)

    monkeypatch.setattr(cli, "read_prediction_file", reading)
    return names


def on_worker(monkeypatch, floor: int = 0, cpus: int = 2) -> None:
    monkeypatch.setattr(cli, "_FIT_WORKER_FLOOR", floor)
    monkeypatch.setattr(pool, "_usable_cpus", lambda: cpus)


def run_pipeline(tmp_path: Path, out: str, intervention: str, capsys):
    """(exit code, stderr, data artifacts or None when --out was not made)."""
    argv = [
        "pipeline", "--intervention", intervention, "--seed", "3", "--cost-fn", "2",
        "--fit-input", tmp_path / "fit.csv", "--input", tmp_path / "eval.csv", "--out", tmp_path / out,
    ]
    code = main([str(a) for a in argv])
    assert multiprocessing.active_children() == []
    artifacts = None
    if (tmp_path / out).exists():
        artifacts = {p.name: p.read_bytes() for p in (tmp_path / out).iterdir() if p.name != "manifest.json"}
    return code, capsys.readouterr().err, artifacts


# where the fit runs in process: a small eval file, or one usable CPU
IN_PROCESS = {"below-the-floor": {"floor": cli._FIT_WORKER_FLOOR}, "one-cpu": {"cpus": 1}}


@pytest.mark.parametrize("here", list(IN_PROCESS))
@pytest.mark.parametrize("constituents", [False, True], ids=["no-constituents", "constituents"])
@pytest.mark.parametrize("intervention", ["none", "eo-hard", "eo-soft"])
def test_worker_writes_the_bytes_of_the_in_process_fit(intervention, constituents, here, tmp_path, read_here, monkeypatch, capsys):
    write_splits(tmp_path, constituents)
    on_worker(monkeypatch, **IN_PROCESS[here])
    in_process = run_pipeline(tmp_path, "here", intervention, capsys)
    assert read_here == ["fit.csv", "eval.csv"]
    read_here.clear()
    on_worker(monkeypatch)
    on_a_worker = run_pipeline(tmp_path, "worker", intervention, capsys)
    assert read_here == ["eval.csv"]
    assert in_process[:2] == (0, "")
    assert on_a_worker == in_process
    assert ("ensemble_model.json" in in_process[2]) == constituents
    assert ("derived_predictor.json" in in_process[2]) == (intervention != "none")


def _constituent_files(tmp_path: Path) -> None:
    preds = preds_from_counts({"A": (10, 8, 10, 2), "B": (10, 6, 10, 3)})
    rng = np.random.default_rng(0)
    for part, name in (("fit", "m0"), ("eval", "m1")):
        write_predictions(preds, tmp_path / f"{part}.csv", constituent_scores={name: rng.random(len(preds))})


# case: (fit.csv, eval.csv) as text (None: a good file, "missing": none), exit code, stderr
ERRORS = {
    "bad-fit-file": ((BAD_Y_TRUE, None), 4, "format-error: {fit}: line 3: column 'y_true' must be 0 or 1, got '2'"),
    "bad-eval-file": ((None, BAD_Y_HAT), 4, "format-error: {eval}: line 2: column 'y_hat' must be 0 or 1, got 'x'"),
    "both-bad": ((BAD_Y_TRUE, BAD_Y_HAT), 4, "format-error: {fit}: line 3: column 'y_true' must be 0 or 1, got '2'"),
    "missing-fit-file": (("missing", None), 3, "missing-file: [Errno 2] No such file or directory: '{fit}'"),
    "missing-fit-file-bad-eval-file": (("missing", BAD_Y_HAT), 3, "missing-file: [Errno 2] No such file or directory: '{fit}'"),
    "non-overlapping-constituents": (_constituent_files, 6, "invalid-input: fit and eval constituent columns do not overlap"),
    "eo-hard-without-y-hat": ((SCORES_ONLY, None), 6, "invalid-input: eo-hard requires hard predictions in the fit split"),
}


@pytest.mark.parametrize("case", list(ERRORS))
def test_errors_are_those_of_the_in_process_fit(case, tmp_path, monkeypatch, capsys):
    files, code, line = ERRORS[case]
    if callable(files):
        files(tmp_path)
    else:
        good = preds_from_counts({"A": (10, 8, 10, 2), "B": (10, 6, 10, 3)})
        for part, text in zip(("fit", "eval"), files):
            if text is None:
                write_predictions(good, tmp_path / f"{part}.csv")
            elif text != "missing":
                (tmp_path / f"{part}.csv").write_text(text, encoding="utf-8")
    want = (code, line.format(fit=tmp_path / "fit.csv", eval=tmp_path / "eval.csv") + "\n", None)
    assert run_pipeline(tmp_path, "here", "eo-hard", capsys) == want
    on_worker(monkeypatch)
    assert run_pipeline(tmp_path, "worker", "eo-hard", capsys) == want


_fit_eo_hard = cli.fit_eo_hard


def _fit_eo_hard_or_die(preds, loss):
    """``fit_eo_hard``, except on a worker process, which it kills."""
    if multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)
    return _fit_eo_hard(preds, loss)


def _no_fork():
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


# how the worker fails: (module, name, replacement), and the files this
# process then reads, in order
FAILURES = {
    "killed-mid-fit": ((cli, "fit_eo_hard", _fit_eo_hard_or_die), ["eval.csv", "fit.csv"]),
    "cannot-fork": ((os, "fork", _no_fork), ["fit.csv", "eval.csv"]),
}


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork", reason="the worker inherits the patch")
@pytest.mark.parametrize("failure", list(FAILURES))
def test_a_failed_worker_leaves_the_fit_to_this_process(failure, tmp_path, read_here, monkeypatch, capsys):
    (module, name, replacement), reads = FAILURES[failure]
    write_splits(tmp_path, True)
    in_process = run_pipeline(tmp_path, "here", "eo-hard", capsys)
    read_here.clear()
    on_worker(monkeypatch)
    monkeypatch.setattr(module, name, replacement)
    assert run_pipeline(tmp_path, "worker", "eo-hard", capsys) == in_process
    assert read_here == reads


SCRIPT = """
import multiprocessing, sys
from pathlib import Path
from equifair import cli, pool

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    pool._usable_cpus = lambda: 2
    cli._FIT_WORKER_FLOOR = 0
    read, names = cli.read_prediction_file, []

    def reading(path, **kwargs):
        names.append(Path(path).name)
        return read(path, **kwargs)

    cli.read_prediction_file = reading
    code = cli.main(sys.argv[2:])
    print(code, names, multiprocessing.active_children())
"""


@pytest.mark.parametrize("method", [m for m in ("spawn", "forkserver") if m in multiprocessing.get_all_start_methods()])
def test_a_fresh_interpreter_worker_writes_the_same_bytes(method, tmp_path, capsys):
    # the fit function and its arguments pickle and import in a worker
    # that starts from a fresh interpreter (Python 3.14 uses forkserver)
    write_splits(tmp_path, True)
    in_process = run_pipeline(tmp_path, "here", "eo-soft", capsys)
    (tmp_path / "script.py").write_text(SCRIPT, encoding="utf-8")
    argv = [
        "pipeline", "--intervention", "eo-soft", "--seed", "3", "--cost-fn", "2",
        "--fit-input", tmp_path / "fit.csv", "--input", tmp_path / "eval.csv", "--out", tmp_path / "worker",
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    res = subprocess.run(
        [sys.executable, tmp_path / "script.py", method, *map(str, argv)], capture_output=True, text=True, env=env, timeout=300,
    )
    assert (res.returncode, res.stderr, res.stdout.splitlines()[-1]) == (0, "", "0 ['eval.csv'] []")
    artifacts = {p.name: p.read_bytes() for p in (tmp_path / "worker").iterdir() if p.name != "manifest.json"}
    assert artifacts == in_process[2]


# ---------------------------------------------------------------------------
# the work done while the fit runs: the apply draws and the input digests

WHERE = {"in-process": IN_PROCESS["below-the-floor"], "worker": {}}


def _scored_split(prefix: str, seed: int, n: int = 200) -> LabeledPredictions:
    """Scores of group A on a coarse grid, whose soft EO policy is one
    threshold, and of group B separable, whose policy mixes two."""
    rng = np.random.default_rng(seed)
    y = np.tile(np.arange(n) % 2, 2)
    weak = np.round(np.clip(0.35 * y[:n] + 0.65 * rng.random(n), 0.0, 1.0), 1)
    separable = np.where(y[n:] == 1, 0.6 + 0.4 * rng.random(n), 0.4 * rng.random(n))
    return LabeledPredictions(
        ids=[f"{prefix}{g}{i}" for g in "AB" for i in range(n)], y_true=y,
        groups=["A"] * n + ["B"] * n, scores=np.concatenate([weak, separable]),
    )


@pytest.mark.parametrize("where", list(WHERE))
def test_a_degenerate_soft_policy_leaves_every_row_its_draws(where, tmp_path, monkeypatch, capsys):
    # every eval row is drawn for ahead and reads its draws: the one-threshold
    # group's give plain thresholding, and the others get the bits they drew alone
    for part, seed in (("fit", 1), ("eval", 2)):
        write_predictions(_scored_split(part[0], seed), tmp_path / f"{part}.csv")
    on_worker(monkeypatch, **WHERE[where])
    code, err, artifacts = run_pipeline(tmp_path, "out", "eo-soft", capsys)
    assert (code, err) == (0, "")
    dp = DerivedPredictor.from_dict(json.loads(artifacts["derived_predictor.json"]))
    assert {g: p.p_coin == 0.0 and p.lam in (0.0, 1.0) for g, p in dp.policies.items()} == {"A": True, "B": False}
    apply_seed = derive_seed(3, "apply")
    want = apply_soft_oracle(dp, read_predictions(tmp_path / "eval.csv"), apply_seed)
    assert read_predictions(tmp_path / "out" / "postprocessed.csv").y_hat.tobytes() == want.tobytes()
    # eo-apply draws for every row itself, and writes the same file
    argv = ["eo-apply", "--input", tmp_path / "eval.csv", "--predictor", tmp_path / "out" / "derived_predictor.json",
            "--seed", apply_seed, "--out", tmp_path / "apply"]
    assert main([str(a) for a in argv]) == 0
    assert (tmp_path / "apply" / "postprocessed.csv").read_bytes() == artifacts["postprocessed.csv"]


@pytest.mark.parametrize("where", list(WHERE))
@pytest.mark.parametrize("intervention", ["none", "eo-hard", "eo-soft"])
def test_draws_and_digests_come_before_the_fit_is_awaited(intervention, where, tmp_path, monkeypatch, capsys):
    write_splits(tmp_path, True)
    on_worker(monkeypatch, **WHERE[where])
    events = []

    def spy(name):
        fn = getattr(cli, name)

        def spied(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, spied)

    for name in ("read_prediction_file", "apply_draws", "_input_digests", "apply_soft", "apply_hard"):
        spy(name)
    beside = cli._beside

    @contextmanager
    def awaited(*args):
        with beside(*args) as fitted:
            yield lambda: events.append("fitted") or fitted()

    monkeypatch.setattr(cli, "_beside", awaited)
    assert run_pipeline(tmp_path, "out", intervention, capsys)[0] == 0
    fit_read = ["read_prediction_file"] if where == "in-process" else []  # a worker records its read in its own copy
    drawn = ["apply_draws"] if intervention != "none" else []
    applied = [f"apply_{intervention[3:]}"] if intervention != "none" else []
    assert events == fit_read + ["read_prediction_file", *drawn, "_input_digests", "fitted", *applied]


def test_each_manifest_records_the_digests_of_what_it_read(tmp_path, monkeypatch):
    write_splits(tmp_path, True)
    fit, ev = tmp_path / "fit.csv", tmp_path / "eval.csv"
    config, sets, emb = tmp_path / "cohort.json", tmp_path / "sets.json", tmp_path / "synth" / "embeddings.txt"
    config.write_text(json.dumps({"n_samples": 300}), encoding="utf-8")
    sets.write_text(json.dumps([["he", "she"], ["his", "hers"]]), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    Path("gender").write_text("a file named as a preset is not read\n", encoding="utf-8")
    runs = {  # name: (argv, the inputs it reads)
        "synth": (["synth", "--plant-embeddings", "--seed", "1"], []),
        "synth-config": (["synth", "--synth-config", config], [config]),
        "synth-sets-file": (["synth", "--plant-embeddings", "--equality-sets", sets], [sets]),
        "report": (["report", "--input", ev], [ev]),
        "eo-fit": (["eo-fit", "--input", fit, "--variant", "soft"], [fit]),
        "eo-apply": (["eo-apply", "--input", ev, "--predictor", tmp_path / "eo-fit" / "derived_predictor.json"],
                     [ev, tmp_path / "eo-fit" / "derived_predictor.json"]),
        "debias": (["debias", "--embeddings", emb], [emb]),
        "debias-preset": (["debias", "--embeddings", emb, "--equality-sets", "gender"], [emb]),
        "debias-sets-file": (["debias", "--embeddings", emb, "--equality-sets", sets], [emb, sets]),
        "ensemble-fit": (["ensemble-fit", "--input", fit], [fit]),
        "ensemble-predict": (["ensemble-predict", "--input", ev, "--model", tmp_path / "ensemble-fit" / "ensemble_model.json"],
                             [ev, tmp_path / "ensemble-fit" / "ensemble_model.json"]),
        "pipeline-here": (["pipeline", "--intervention", "eo-soft", "--fit-input", fit, "--input", ev], [ev, fit]),
        "pipeline-single": (["pipeline", "--intervention", "eo-hard", "--input", ev], [ev]),
        "pipeline-synthetic": (["pipeline", "--intervention", "eo-soft", "--n", "500"], []),
        "pipeline-synth-config": (["pipeline", "--intervention", "eo-soft", "--synth-config", config], [config]),
        "pipeline-worker": (["pipeline", "--intervention", "eo-soft", "--fit-input", fit, "--input", ev], [ev, fit]),
    }
    for name, (argv, inputs) in runs.items():
        if name == "pipeline-worker":
            on_worker(monkeypatch)
        assert main([str(a) for a in [*argv, "--out", tmp_path / name]]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["inputs"] == {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs}, name


GOOD_FIT = HEADER + "a1,A,1,0.9,1\na2,A,0,0.2,0\na3,A,1,0.6,0\na4,A,0,0.7,1\nb1,B,1,0.8,1\nb2,B,0,0.4,0\nb3,B,1,0.3,0\nb4,B,0,0.6,1\n"
# eval.csv: exit code, stderr; an eval file that fails both the base
# report and the apply reports the base report's error
REPORT_OR_APPLY = {
    "fails-the-report": (HEADER + "e1,A,0,0.9,1\ne2,B,0,0.2,0\n", 6, "invalid-input: auc_roc requires both classes present"),
    "fails-the-apply": (HEADER + "e1,A,0,0.9,1\ne2,B,1,0.2,0\ne3,C,0,0.6,1\n", 8,
                        "group-mismatch: groups not covered by the derived predictor: ['C']"),
    "fails-both": (HEADER + "e1,A,0,0.9,1\ne2,B,0,0.2,0\ne3,C,0,0.6,1\n", 6, "invalid-input: auc_roc requires both classes present"),
}


@pytest.mark.parametrize("where", list(WHERE))
@pytest.mark.parametrize("intervention", ["eo-hard", "eo-soft"])
@pytest.mark.parametrize("case", list(REPORT_OR_APPLY))
def test_the_base_report_error_comes_before_the_apply_error(case, intervention, where, tmp_path, monkeypatch, capsys):
    text, code, line = REPORT_OR_APPLY[case]
    (tmp_path / "fit.csv").write_text(GOOD_FIT, encoding="utf-8")
    (tmp_path / "eval.csv").write_text(text, encoding="utf-8")
    on_worker(monkeypatch, **WHERE[where])
    assert run_pipeline(tmp_path, "out", intervention, capsys) == (code, line + "\n", None)
