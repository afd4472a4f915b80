"""Package guards: every public name resolves, the runtime imports
nothing outside the standard library and numpy, only the schema module
parses or writes JSON, only the pool module starts processes, the
version has one source, both equalized-odds fits share one solver, the
CLI sets its BLAS thread defaults before numpy loads, and importing it
loads neither ``statistics`` nor ``multiprocessing``."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import equifair

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "equifair"}


def test_public_names_resolve():
    assert [name for name in equifair.__all__ if not hasattr(equifair, name)] == []


def test_imports_only_stdlib_and_numpy():
    foreign = []
    for path in sorted(Path(equifair.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {m}" for m in modules if m.split(".")[0] not in ALLOWED]
    assert foreign == []


JSON_CALLS = ("load", "loads", "dump", "dumps")


def test_json_is_parsed_only_by_the_schema_module():
    """Every JSON input goes through ``schema.read`` and ``schema.load``,
    and every JSON artifact through ``schema.dumps``."""
    sites = []
    for path in sorted(Path(equifair.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in JSON_CALLS and getattr(node.value, "id", None) == "json":
                sites.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                sites += [f"{path.name}:{node.lineno}" for a in node.names if a.name in JSON_CALLS]
    assert sites and all(p.startswith("schema.py:") for p in sites), sites


def test_processes_are_started_only_by_the_pool_module():
    sites = []
    for path in sorted(Path(equifair.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                if any(n.split(".")[0] in ("multiprocessing", "concurrent") for n in names):
                    sites.append(f"{path.name}:{node.lineno}")
    assert sites and all(p.startswith("pool.py:") for p in sites), sites


def test_cli_import_loads_no_statistics_or_process_machinery():
    """``statistics`` (with ``decimal`` and ``fractions``) loads only where
    synth draws, and the process pool only where one starts."""
    src = str(Path(equifair.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, equifair.cli; print(sorted(m for m in ('statistics', 'decimal', 'fractions', 'multiprocessing', 'concurrent.futures') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_version_has_one_source():
    """pyproject.toml reads the version from ``equifair.__version__``."""
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in config["project"] and "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "equifair.__version__"}


def test_one_equalized_odds_solver():
    """Both EO fits find their common operating point through
    ``eo._common_target``, the one caller of ``clip_unit_square``."""
    sites = []
    for path in sorted(Path(equifair.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            if isinstance(node, ast.Call) and "clip_unit_square" in (getattr(func, "id", None), getattr(func, "attr", None)):
                inner = [d for d in defs if d.lineno <= node.lineno <= d.end_lineno]
                where = max(inner, key=lambda d: d.lineno).name if inner else "<module>"
                sites.append(f"{path.stem}.{where}")
    assert sites == ["eo._common_target"], sites


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# runs the package as ``python -m equifair --help`` does (runpy) and prints
# the thread variables as they stood when numpy was first imported
SPY = f"""
import json, os, runpy, sys

class Spy:
    seen = None

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and Spy.seen is None:
            Spy.seen = {{v: os.environ.get(v) for v in {THREAD_VARS!r}}}

sys.meta_path.insert(0, Spy())
sys.argv = ["equifair", "--help"]
try:
    runpy.run_module("equifair", run_name="__main__", alter_sys=True)
except SystemExit:
    pass
print(json.dumps(Spy.seen))
"""


def _threads_at_numpy_import(**user) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    src = str(Path(equifair.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", SPY], env={**env, **user}, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_defaults_blas_threads_to_one_before_numpy_loads():
    assert _threads_at_numpy_import() == dict.fromkeys(THREAD_VARS, "1")


def test_cli_keeps_a_thread_count_the_user_set():
    assert _threads_at_numpy_import(OPENBLAS_NUM_THREADS="2") == {
        "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
    }
