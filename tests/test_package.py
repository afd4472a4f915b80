"""Package guards: every public name resolves, and the runtime imports
nothing outside the standard library and numpy."""

import ast
import sys
from pathlib import Path

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
