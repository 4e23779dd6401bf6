"""Rewrite the golden reports under tests/golden/ through ``etau.cli.main``.

``tests/golden/commands.json`` maps each report file to the command line whose
stdout it holds.  The tier-1 test ``tests/test_golden.py`` runs the same
commands and compares their reports with these files.  A changed file is a
moved report: say which reports moved and why.

Usage: PYTHONPATH=src python3 scripts/update_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from etau import cli

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"


def main() -> None:
    commands = json.loads((GOLDEN / "commands.json").read_text())
    for name, argv in commands.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        (GOLDEN / name).write_text(out.getvalue())
        print(f"{name}: exit {code}, {len(out.getvalue())} bytes")


if __name__ == "__main__":
    main()
