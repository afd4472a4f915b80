"""Every input flag reads a pipe as it reads the file of the same bytes.

Each flag's input is sent through ``/dev/stdin``, through a FIFO where
``os.mkfifo`` exists, and through a ``/dev/fd/<n>`` path, as a shell's
``<(...)`` names it.  Each run must write the file run's data artifacts
byte for byte, record the sha256 of the bytes sent in its manifest's
``inputs``, report a byte that is not UTF-8 by the same offset and line,
and leave nothing under ``TMPDIR``."""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from equifair import cli
from equifair.cli import main
from equifair.debias import save_embeddings
from equifair.predictions import write_predictions
from equifair.synth import GROUP_PRESETS, CohortConfig, EmbeddingPlantConfig, generate_cohort, generate_embeddings
from equifair.wordsets import GENDER_SETS

from helpers import recorded_pools


def _features(path: Path, n: int, seed: int) -> None:
    """An ethnicity cohort of two modalities, with its score_m0 / score_m1 columns."""
    cohort = generate_cohort(CohortConfig(
        groups=GROUP_PRESETS["ethnicity"], n_samples=n, seed=seed, modality_windows=((0.0, 0.5), (0.5, 1.0)),
    ))
    write_predictions(cohort.modalities[0], path, constituent_scores={f"m{j}": m.scores for j, m in enumerate(cohort.modalities)})


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("inputs")
    _features(d / "feats.csv", 1500, 1)
    _features(d / "fit.csv", 1500, 2)
    _features(d / "big.csv", 16_000, 3)  # over the fit worker's floor
    assert (d / "big.csv").stat().st_size >= cli._FIT_WORKER_FLOOR
    emb, _, _ = generate_embeddings(EmbeddingPlantConfig(equality_sets=GENDER_SETS, vocab_size=60, dim=10, noise=0.01, seed=2))
    save_embeddings(emb, d / "emb.txt")
    (d / "sets.json").write_text(json.dumps([["he", "she"], ["his", "hers"], ["boy", "girl"]], indent=1))
    (d / "cohort.json").write_text(json.dumps({"n_samples": 300, "positive_rate": 0.4}, indent=1))
    for argv in (["eo-fit", "--variant", "soft", "--input", d / "feats.csv", "--out", d / "eo"],
                 ["ensemble-fit", "--input", d / "feats.csv", "--out", d / "ens"]):
        assert main([str(a) for a in argv]) == 0
    return d


# flag -> (its input, the command reading it from {}, with the other inputs' names)
CASES = {
    "input": ("feats.csv", ["report", "--input", "{}", "--seed", "1"]),
    "input-eval-split": ("feats.csv", ["pipeline", "--intervention", "eo-soft", "--fit-input", "fit.csv", "--input", "{}", "--seed", "3"]),
    "fit-input": ("fit.csv", ["pipeline", "--intervention", "eo-soft", "--fit-input", "{}", "--input", "big.csv", "--seed", "3"]),
    "input-eval-split-over-the-floor": ("big.csv", ["pipeline", "--intervention", "eo-soft", "--fit-input", "fit.csv", "--input", "{}", "--seed", "3"]),
    "predictor": ("eo/derived_predictor.json", ["eo-apply", "--input", "feats.csv", "--predictor", "{}", "--seed", "1"]),
    "model": ("ens/ensemble_model.json", ["ensemble-predict", "--input", "feats.csv", "--model", "{}"]),
    "embeddings": ("emb.txt", ["debias", "--embeddings", "{}"]),
    "synth-config": ("cohort.json", ["synth", "--synth-config", "{}", "--seed", "1"]),
    "equality-sets": ("sets.json", ["debias", "--embeddings", "emb.txt", "--equality-sets", "{}"]),
}
MODES = ["stdin", "fifo", "fd"]


def _argv(inputs: Path, case: str, path: str, out: Path) -> list[str]:
    return [a.format(path) if a == "{}" else str(inputs / a) if "." in a else a for a in CASES[case][1]] + ["--out", str(out)]


def _bad(data: bytes) -> bytes:
    """``data`` with a byte that is not UTF-8 at the start of its line 3."""
    at = data.index(b"\n", data.index(b"\n") + 1) + 1
    return data[:at] + b"\xff" + data[at:]


# writes the file argv[1] into the FIFO argv[2], or as much of it as its
# reader takes; each later reader of the FIFO then reads nothing, not waiting
FIFO_WRITER = """
import shutil, sys
from contextlib import suppress
with open(sys.argv[1], "rb") as source, suppress(BrokenPipeError), open(sys.argv[2], "wb") as fifo:
    shutil.copyfileobj(source, fifo)
while True:
    open(sys.argv[2], "wb").close()
"""


def _run(argv: list[str], mode: str, data: bytes, tmp: Path, capsys) -> tuple[int, str, str]:
    """(exit code, stderr, the path read) of ``argv`` reading ``data``
    through a pipe of ``mode``, with ``TMPDIR`` at ``tmp``."""
    if mode == "stdin":
        res = subprocess.run([sys.executable, "-m", "equifair", *[a.replace("{}", "/dev/stdin") for a in argv]],
                             input=data, capture_output=True, env={**os.environ, "TMPDIR": str(tmp)})
        return res.returncode, res.stderr.decode(), "/dev/stdin"
    source = tmp.parent / "source"
    source.write_bytes(data)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tempfile, "tempdir", str(tmp))
        if mode == "fd":
            with subprocess.Popen(["cat", str(source)], stdout=subprocess.PIPE) as cat:
                path = f"/dev/fd/{cat.stdout.fileno()}"
                code = main([a.replace("{}", path) for a in argv])
        else:
            path = str(tmp.parent / "input.fifo")
            os.mkfifo(path)
            writer = subprocess.Popen([sys.executable, "-c", FIFO_WRITER, source, path])
            try:
                code = main([a.replace("{}", path) for a in argv])
            finally:
                writer.kill()
                writer.wait(timeout=60)
            os.unlink(path)
    return code, capsys.readouterr().err, path


def _artifacts(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", list(CASES))
def test_a_pipe_reads_as_its_file(case, mode, inputs, tmp_path, capsys):
    if mode == "fifo" and not hasattr(os, "mkfifo"):
        pytest.skip("needs a named pipe")
    if mode == "fd" and not Path("/dev/fd").exists():
        pytest.skip("opens a pipe by its /dev/fd path")
    name, _ = CASES[case]
    data = (inputs / name).read_bytes()
    (tmp_path / "tmp").mkdir()
    assert main(_argv(inputs, case, str(inputs / name), tmp_path / "file")) == 0
    with recorded_pools(cli) as started:
        code, err, path = _run(_argv(inputs, case, "{}", tmp_path / "pipe"), mode, data, tmp_path / "tmp", capsys)
    assert (code, err) == (0, "")
    assert _artifacts(tmp_path / "pipe") == _artifacts(tmp_path / "file")
    file_inputs = json.loads((tmp_path / "file/manifest.json").read_text())["inputs"]
    pipe_inputs = json.loads((tmp_path / "pipe/manifest.json").read_text())["inputs"]
    assert file_inputs.pop(str(inputs / name)) == hashlib.sha256(data).hexdigest()
    assert pipe_inputs == {**file_inputs, path: hashlib.sha256(data).hexdigest()}
    if case in ("fit-input", "input-eval-split-over-the-floor") and mode != "stdin":
        # the fit ran on the fit worker: a piped eval split is sized by the command's copy
        assert len(started) == 1
    assert list((tmp_path / "tmp").iterdir()) == []


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("case", list(CASES))
def test_a_bad_byte_in_a_pipe_is_named_as_in_its_file(case, mode, inputs, tmp_path, capsys):
    if mode == "fifo" and not hasattr(os, "mkfifo"):
        pytest.skip("needs a named pipe")
    if mode == "fd" and not Path("/dev/fd").exists():
        pytest.skip("opens a pipe by its /dev/fd path")
    name, _ = CASES[case]
    data = _bad((inputs / name).read_bytes())
    (tmp_path / "bad").write_bytes(data)
    (tmp_path / "tmp").mkdir()
    want = (main(_argv(inputs, case, str(tmp_path / "bad"), tmp_path / "file")), capsys.readouterr().err)
    assert want[0] == 4 and f"{tmp_path / 'bad'}: byte offset" in want[1] and "(line 3): not valid utf-8 (0xff)" in want[1]
    code, err, path = _run(_argv(inputs, case, "{}", tmp_path / "pipe"), mode, data, tmp_path / "tmp", capsys)
    assert (code, err) == (4, want[1].replace(str(tmp_path / "bad"), path))
    assert not (tmp_path / "pipe").exists()
    assert list((tmp_path / "tmp").iterdir()) == []


def test_two_commands_reading_the_same_pipe_path_each_read_their_own_bytes(inputs, tmp_path, capsys):
    """A command's copies are its own: a later pipe at the same /dev/fd path is read afresh."""
    if not Path("/dev/fd").exists():
        pytest.skip("opens a pipe by its /dev/fd path")
    paths = set()
    for run, rows in (("first", 30), ("second", 40)):
        data = b"".join((inputs / "feats.csv").read_bytes().splitlines(keepends=True)[: rows + 1])
        code, err, path = _run(_argv(inputs, "input", "{}", tmp_path / run), "fd", data, tmp_path, capsys)
        assert (code, err) == (0, "")
        paths.add(path)
        manifest = json.loads((tmp_path / run / "manifest.json").read_text())
        assert manifest["inputs"] == {path: hashlib.sha256(data).hexdigest()}
        rates = json.loads((tmp_path / run / "report.json").read_text())["group_rates"].values()
        assert sum(e["n_pos"] + e["n_neg"] for e in rates) == rows
    assert len(paths) == 1, "the pipes should meet at one path"


def test_a_failed_command_leaves_no_copy(inputs, tmp_path):
    """The copy is removed when the command fails after reading it, too."""
    (tmp_path / "tmp").mkdir()
    argv = [sys.executable, "-m", "equifair", "eo-apply", "--input", "/dev/stdin",
            "--predictor", str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")]
    res = subprocess.run(argv, input=(inputs / "feats.csv").read_bytes(), capture_output=True,
                         env={**os.environ, "TMPDIR": str(tmp_path / "tmp")})
    assert res.returncode == 3 and b"missing.json" in res.stderr
    assert list((tmp_path / "tmp").iterdir()) == []
