"""Rewrite the golden reports under tests/golden/ through ``etau.cli.main``.

``tests/golden/commands.json`` maps each report file to the command line
(``argv``) whose stdout it holds and to that command's exit code (``exit``).
``tests/golden/meshes.json`` maps each ``surface`` command line, run with
``--out`` in a temporary directory, to the SHA-256 of its OBJ (``obj_sha256``)
and of its ``_nu.csv`` sidecar (``nu_sha256``); ``tests/golden/graph_csv.json``
maps each ``solve`` command line, run with ``--csv-out``, to the SHA-256 of
its graph CSV (``csv_sha256``).  The files themselves are not kept.  The
tier-1 test ``tests/test_golden.py`` runs the same commands and compares
their exit codes, reports and hashes with these.  A changed file
or hash is a moved report: say which reports moved and why.  A command that
exits otherwise than its entry says is reported, and its file or hashes are
not written.

The last bits of many reports depend on which SIMD loops numpy dispatches
to on the CPU at hand, so ``tests/golden/runtime.json`` records the numpy
version and the "found" SIMD extensions of ``numpy.show_runtime()`` the
files were written under; a failing golden test names both when they differ
from the running ones.

Usage: PYTHONPATH=src python3 scripts/update_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from etau import cli, meshio

GOLDEN = Path(__file__).resolve().parents[1] / "tests" / "golden"
# golden file -> (output flag, output file name, {hash key: hashed file of the output path})
PINNED_FILES = {
    "meshes.json": ("--out", "mesh.obj", {"obj_sha256": Path, "nu_sha256": meshio.nu_sidecar_path}),
    "graph_csv.json": ("--csv-out", "graph.csv", {"csv_sha256": Path}),
}


def numpy_runtime() -> dict:
    """The numpy version and the SIMD extensions numpy.show_runtime() lists
    as found: the dispatch targets this CPU supports and the environment
    (NPY_DISABLE_CPU_FEATURES) leaves enabled."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return {"numpy": np.__version__, "simd_found": [f for f in __cpu_dispatch__ if __cpu_features__[f]]}


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
    for golden, (flag, out_name, hashed) in PINNED_FILES.items():
        entries = json.loads((GOLDEN / golden).read_text())
        for name, entry in entries.items():
            with tempfile.TemporaryDirectory() as tmp:
                out = Path(tmp) / out_name
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(entry["argv"] + [flag, str(out)])
                if code != entry["exit"]:
                    print(f"{name}: exit {code}, expected {entry['exit']}; hashes not written")
                    failed += 1
                    continue
                for key, path in hashed.items():
                    entry[key] = hashlib.sha256(path(out).read_bytes()).hexdigest()
            print(f"{name}: exit {code}, " + ", ".join(f"{key} {entry[key][:16]}" for key in hashed))
        lines = [f"  {json.dumps(name)}: {json.dumps(entry)}" for name, entry in entries.items()]
        (GOLDEN / golden).write_text("{\n" + ",\n".join(lines) + "\n}\n")
    runtime = numpy_runtime()
    (GOLDEN / "runtime.json").write_text(json.dumps(runtime, indent=2) + "\n")
    print(f"runtime.json: numpy {runtime['numpy']}, SIMD found {runtime['simd_found']}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
