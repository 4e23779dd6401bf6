"""Rewrite the golden reports under tests/golden/ through ``etau.cli.main``.

``tests/golden/commands.json`` maps each report file to the command line
(``argv``) whose stdout it holds and to that command's exit code (``exit``).
The tier-1 test ``tests/test_golden.py`` runs the same commands and compares
their exit codes and reports with these.  A changed file is a moved report:
say which reports moved and why.  A command that exits otherwise than its
entry says is reported, and its file is not written.

Usage: PYTHONPATH=src python3 scripts/update_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from etau import cli

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"


def main() -> int:
    commands = json.loads((GOLDEN / "commands.json").read_text())
    failed = 0
    for name, entry in commands.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(entry["argv"])
        if code != entry["exit"]:
            print(f"{name}: exit {code}, expected {entry['exit']}; not written")
            failed += 1
            continue
        (GOLDEN / name).write_text(out.getvalue())
        print(f"{name}: exit {code}, {len(out.getvalue())} bytes")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
