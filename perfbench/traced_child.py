"""Run one equifair CLI command with layer spans recorded.

    python perfbench/traced_child.py <spans.json> <equifair arguments...>

Imports ``equifair.cli`` (timed as ``import_s``), wraps the traced
functions (see tracer.py), calls ``equifair.cli.main(argv)`` inside a root
span ``cli.main``, writes ``{"import_s", "spans"}`` to the spans file and
exits with the command's exit code.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from tracer import Tracer


def main(argv: list[str]) -> int:
    spans_path, cli_argv = Path(argv[0]), argv[1:]
    t0 = time.perf_counter()
    import equifair.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    code = tracer.wrap(equifair.cli.main, "cli.main")(cli_argv)
    spans_path.write_text(json.dumps({"import_s": import_s, "spans": tracer.spans}), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
