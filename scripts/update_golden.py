"""Rewrite the golden reports under tests/golden/ through ``etau.cli.main``.

``tests/golden/commands.json`` maps each report file to the command line
(``argv``) whose stdout it holds and to that command's exit code (``exit``).
``tests/golden/meshes.json`` maps each ``surface`` command line, run with
``--out`` in a temporary directory, to the SHA-256 of its OBJ (``obj_sha256``)
and of its ``_nu.csv`` sidecar (``nu_sha256``); the megabyte files themselves
are not kept.  The tier-1 test ``tests/test_golden.py`` runs the same commands
and compares their exit codes, reports and hashes with these.  A changed file
or hash is a moved report: say which reports moved and why.  A command that
exits otherwise than its entry says is reported, and its file or hashes are
not written.

Usage: PYTHONPATH=src python3 scripts/update_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from etau import cli, meshio

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
    meshes = json.loads((GOLDEN / "meshes.json").read_text())
    for name, entry in meshes.items():
        with tempfile.TemporaryDirectory() as tmp:
            obj = Path(tmp) / "mesh.obj"
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(entry["argv"] + ["--out", str(obj)])
            if code != entry["exit"]:
                print(f"{name}: exit {code}, expected {entry['exit']}; hashes not written")
                failed += 1
                continue
            entry["obj_sha256"] = hashlib.sha256(obj.read_bytes()).hexdigest()
            entry["nu_sha256"] = hashlib.sha256(meshio.nu_sidecar_path(obj).read_bytes()).hexdigest()
        print(f"{name}: exit {code}, obj {entry['obj_sha256'][:16]}, nu {entry['nu_sha256'][:16]}")
    lines = [f"  {json.dumps(name)}: {json.dumps(entry)}" for name, entry in meshes.items()]
    (GOLDEN / "meshes.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
