#!/usr/bin/env python3
"""Benchmark of the equifair CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload soft-audit --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  The run builds the workload's inputs
from the seed (three times, each in a fresh process), then for --seconds
runs the real CLI command (``python -m equifair ...``) in fresh child
processes, one at a time, and checks the artifacts it writes.

With --trace 0 it reports the end-to-end metrics: wall_s, rows_per_s,
peak_rss_mb and setup_s.  With --trace 1 it alternates an untraced run with
a traced one (traced_child.py) and reports the per-layer metrics.  Every
child gets one BLAS/OpenMP thread; see README.md.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from tracer import COUNT_UNITS, PER_LAYER_UNITS, layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150.0
ONE_THREAD = {
    name: "1"
    for name in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
END_TO_END_UNITS = {"wall_s": "s", "rows_per_s": "rows/s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    """The environment of every child: the checkout's sources, one BLAS
    thread, a fixed hash seed, bytecode caching on (as for an installed
    package), and no EQUIFAIR_* settings of the caller."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("EQUIFAIR_") and k != "PYTHONDONTWRITEBYTECODE"}
    env.update(ONE_THREAD, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def spawn(argv: list[str], env: dict[str, str], cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run a child to its end: (exit code, wall seconds from spawn to exit,
    peak resident memory in MB)."""
    with log.open("wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=fh, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def digest(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(paths)}


def artifacts(out: Path) -> dict[str, str]:
    """Hashes of a run's data artifacts; the manifest records wall-clock
    time and paths, so it is left out."""
    return digest(p for p in out.iterdir() if p.name != "manifest.json")


class Run:
    """One benchmark run of one workload."""

    def __init__(self, name: str, seed: int, seconds: float, size: int | None = None, work: Path | None = None):
        self.w = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.size = size or self.w.size
        self.work = work or HERE / ".work" / name
        self.env = child_env()
        self.errors: list[str] = []
        self.attempted = self.failed = 0
        self.reference: dict[str, str] | None = None

    def log(self, message: str) -> None:
        print(f"[{self.w.name}] {message}", file=sys.stderr, flush=True)

    def set_up(self) -> list[dict]:
        """Build the inputs SETUP_REPS times; every build must write the
        same bytes.  Returns each build's generator and writer seconds."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        builds, hashes = [], []
        for i in range(SETUP_REPS):
            log = self.work / f"setup{i}.log"
            argv = [sys.executable, str(HERE / "setup_child.py"), self.w.name, str(self.seed), str(self.work), str(self.size)]
            code, _, _ = spawn(argv, self.env, self.work, log)
            if code != 0:
                raise BenchError(f"set-up exited with {code}:\n{log.read_text(errors='replace')[-3000:]}")
            builds.append(json.loads(log.read_text().splitlines()[-1]))
            hashes.append(digest(self.w.inputs(self.work).values()))
        if any(h != hashes[0] for h in hashes):
            self.errors.append("set-up: the same seed wrote different inputs")
        self.log(f"set-up {[round(b['generate_s'] + b['write_s'], 3) for b in builds]} s")
        return builds

    def cli(self, traced: bool) -> tuple[float, float, dict | None] | None:
        """One CLI run with its checks; None when the command failed."""
        out = self.work / ("out_traced" if traced else "out")
        shutil.rmtree(out, ignore_errors=True)
        args = self.w.cli_args(self.work, out, self.seed)
        spans = self.work / "spans.json"
        if traced:
            argv = [sys.executable, str(HERE / "traced_child.py"), str(spans), *args]
        else:
            argv = [sys.executable, "-m", "equifair", *args]
        log = self.work / ("traced.log" if traced else "cli.log")
        self.attempted += 1
        code, wall, peak = spawn(argv, self.env, self.work, log)
        if code != 0:
            self.failed += 1
            self.log(f"command exited with {code}: {log.read_text(errors='replace')[-2000:]}")
            return None
        found = artifacts(out)
        if self.reference is None:
            self.reference = found
            errors = self.check(out)
            self.errors += errors
            self.log("checks " + ("passed" if not errors else "FAILED:\n  " + "\n  ".join(errors)))
        elif found != self.reference:
            self.errors.append(f"{'traced' if traced else 'untraced'} run {self.attempted}: artifacts differ from the first run's")
        doc = json.loads(spans.read_text()) if traced else None
        return wall, peak, doc

    def check(self, out: Path) -> list[str]:
        log = self.work / "checks.log"
        argv = [sys.executable, str(HERE / "checks.py"), self.w.name, str(self.work), str(out)]
        code, _, _ = spawn(argv, self.env, self.work, log)
        text = log.read_text(errors="replace")
        if code != 0:
            return [f"checks exited with {code}: {text[-2000:]}"]
        return json.loads(text.splitlines()[-1])

    def rounds(self, one_round) -> None:
        """Repeat whole rounds until --seconds have passed (at least MIN_ROUNDS)."""
        start = time.perf_counter()
        done = 0
        while done < MIN_ROUNDS or time.perf_counter() - start < self.seconds:
            one_round()
            done += 1

    def end_to_end(self) -> dict[str, float]:
        builds = self.set_up()
        walls: list[float] = []
        peaks: list[float] = []

        def one_round():
            result = self.cli(traced=False)
            if result is not None:
                walls.append(result[0])
                peaks.append(result[1])

        self.rounds(one_round)
        if not walls:
            raise BenchError("no CLI run succeeded")
        wall = statistics.median(walls)
        self.log(f"wall_s {[round(x, 3) for x in walls]}")
        return {
            "wall_s": wall,
            "rows_per_s": self.w.rows_read(self.size) / wall,
            "peak_rss_mb": statistics.median(peaks),
            "setup_s": statistics.median(b["generate_s"] + b["write_s"] for b in builds),
        }

    def per_layer(self) -> dict[str, float]:
        builds = self.set_up()
        layers: list[dict[str, float]] = []
        overheads: list[float] = []

        def one_round():
            plain = self.cli(traced=False)
            traced = self.cli(traced=True)
            if plain is not None and traced is not None:
                layers.append(layer_metrics(traced[2]))
                overheads.append(traced[0] - plain[0])

        self.rounds(one_round)
        if not layers:
            raise BenchError("no traced CLI run succeeded")
        out = {m: statistics.median(run[m] for run in layers) for m in layers[0]}
        out["synth.generate_s"] = statistics.median(b["generate_s"] for b in builds)
        out["trace.overhead_s"] = statistics.median(overheads)
        return out

    def result(self, trace: bool) -> dict:
        values = self.per_layer() if trace else self.end_to_end()
        units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
        return {
            "correct": not self.errors,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                m: {"value": round(v) if m in COUNT_UNITS else v, "unit": units[m]}
                for m, v in values.items()
            },
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # stopping the benchmark stops its running child too (see spawn)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "equifair" / "cli.py").is_file():
        print(f"error: no equifair sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    try:
        result = run.result(trace=bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
