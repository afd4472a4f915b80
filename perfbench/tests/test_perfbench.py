"""Tests of the benchmark itself, at small sizes.

    python -m pytest perfbench/tests -q

Every workload runs end to end and traced, with all of its checks; each
check family must fail on a corrupted artifact.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from run import END_TO_END_UNITS, Run  # noqa: E402
from tracer import PER_LAYER_UNITS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL = {"soft-audit": 4000, "hard-audit": 4000, "debias-vocab": 300}


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def small_run(request, tmp_path_factory):
    """One end-to-end run of a workload at a small size: (run, result)."""
    name = request.param
    run = Run(name, seed=3, seconds=0, size=SMALL[name], work=tmp_path_factory.mktemp(name))
    return run, run.result(trace=False)


def test_end_to_end_run_is_correct(small_run):
    run, result = small_run
    assert result["correct"], run.errors
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert set(result["metrics"]) == set(END_TO_END_UNITS)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == END_TO_END_UNITS[name]
        assert metric["value"] > 0


def test_traced_run_is_correct(small_run, tmp_path):
    name = small_run[0].w.name
    run = Run(name, seed=4, seconds=0, size=SMALL[name], work=tmp_path)
    result = run.result(trace=True)
    assert result["correct"], run.errors
    assert (result["attempted"], result["failed"]) == (4, 0)
    assert set(result["metrics"]) == set(PER_LAYER_UNITS)
    read_rows = result["metrics"]["predictions.read_rows"]["value"]
    words = result["metrics"]["debias.load_words"]["value"]
    assert (read_rows, words) == ((2 * SMALL[name], 0) if run.w.kind == "audit" else (0, SMALL[name]))


def corrupted(run, tmp_path) -> Path:
    """A copy of the run's out directory to corrupt."""
    out = tmp_path / "out"
    shutil.copytree(run.work / "out", out)
    return out


def rewrite_line(path: Path, line_no: int, edit) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[line_no] = edit(lines[line_no])
    path.write_text("\n".join(lines), encoding="utf-8")


def flip_y_hat(line: str) -> str:
    fields = line.split(",")
    fields[4] = "1" if fields[4] == "0" else "0"
    return ",".join(fields)


def test_untouched_copy_passes(small_run, tmp_path):
    run, _ = small_run
    assert checks.check(run.w, run.work, corrupted(run, tmp_path)) == []


@pytest.mark.parametrize("small_run", ["soft-audit", "hard-audit"], indirect=True)
def test_one_flipped_output_y_hat_fails(small_run, tmp_path):
    run, _ = small_run
    out = corrupted(run, tmp_path)
    rewrite_line(out / "postprocessed.csv", 10, flip_y_hat)
    errors = checks.check(run.w, run.work, out)
    assert any(e.startswith("post_report:") for e in errors), errors


# only on hard-audit does the base report read y_hat from the input
@pytest.mark.parametrize("small_run", ["hard-audit"], indirect=True)
def test_one_flipped_input_y_hat_fails(small_run, tmp_path):
    run, _ = small_run
    work = tmp_path / "work"
    shutil.copytree(run.work, work)
    rewrite_line(work / "eval.csv", 10, flip_y_hat)
    errors = checks.check(run.w, work, work / "out")
    assert any(e.startswith("base_report:") for e in errors), errors


@pytest.mark.parametrize("small_run", ["debias-vocab"], indirect=True)
def test_perturbed_neutral_vector_fails(small_run, tmp_path):
    run, _ = small_run
    out = corrupted(run, tmp_path)
    path = out / "debiased_embeddings.txt"
    neutral_line = next(
        i for i, line in enumerate(path.read_text().split("\n")) if line.startswith("neutral")
    )

    def perturb(line: str) -> str:
        token, *values = line.split(" ")
        v = np.array(values, dtype=np.float64)
        v[0] += 1e-6
        return " ".join([token, *(repr(float(x)) for x in v / np.linalg.norm(v))])

    rewrite_line(path, neutral_line, perturb)
    errors = checks.check(run.w, run.work, out)
    assert any("neutral" in e for e in errors), errors


def test_self_time_subtracts_nested_spans():
    spans = [
        {"name": "cli.main", "parent": None, "start": 0.0, "end": 10.0},
        {"name": "eo.fit_soft", "parent": 0, "start": 1.0, "end": 5.0},
        {"name": "geometry.hull", "parent": 1, "start": 2.0, "end": 3.5,
         "counts": {"geometry.hull_points": 7, "geometry.hull_vertices": 4}},
        {"name": "predictions.read", "parent": 0, "start": 6.0, "end": 8.0,
         "counts": {"predictions.read_rows": 100}},
    ]
    m = layer_metrics({"import_s": 0.25, "spans": spans})
    assert m["eo.fit_soft_s"] == 2.5
    assert m["geometry.hull_s"] == 1.5
    assert m["cli.self_s"] == 4.0
    assert (m["geometry.hull_points"], m["predictions.read_rows"], m["cli.import_s"]) == (7, 100, 0.25)


def test_benchmark_json_names_what_run_prints():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER_UNITS


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns(".work", "__pycache__", "tests"))
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "hard-audit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
