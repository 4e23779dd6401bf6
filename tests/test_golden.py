"""The CLI reports pinned under tests/golden/ (rewritten by scripts/update_golden.py).

Each command must exit with its entry's code, and each report must keep its
structure, verdicts, strings and integers exactly, and its floats within
1e-12 relative: a change that moves a report shows up here and as a diff of
the golden file.  Surface meshes are pinned by the SHA-256 of their OBJ and
``_nu.csv`` bytes, graph CSV dumps by the SHA-256 of their bytes.

Many reports move in their last bits with the SIMD loops numpy dispatches
to, so ``runtime.json`` holds the numpy version and SIMD extensions the
files were written under, and a failure says when the running ones differ.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from etau.cli import main
from etau.meshio import nu_sidecar_path

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())
MESHES = json.loads((GOLDEN / "meshes.json").read_text())
GRAPH_CSVS = json.loads((GOLDEN / "graph_csv.json").read_text())
RUNTIME = json.loads((GOLDEN / "runtime.json").read_text())
_RTOL = 1e-12

_spec = importlib.util.spec_from_file_location("update_golden", GOLDEN.parents[1] / "scripts" / "update_golden.py")
update_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(update_golden)


def _dispatch_note(recorded: dict, running: dict) -> str:
    """Why a golden value may differ: the numpy runtime that wrote the
    golden files, when it is not the running one ("" when it is)."""
    if running == recorded:
        return ""
    return (
        f" (the golden files were written under numpy {recorded['numpy']} with SIMD {recorded['simd_found']};"
        f" this run has numpy {running['numpy']} with SIMD {running['simd_found']}, whose loops may round"
        " differently: compare on the recorded dispatch before reading this as a moved report)"
    )


def _explain(mismatches: list[str]) -> str:
    return "; ".join(mismatches) + _dispatch_note(RUNTIME, update_golden.numpy_runtime())


def _mismatches(got, want, path: str = "$") -> list[str]:
    """Where two parsed reports differ beyond the golden tolerance."""
    if isinstance(want, float) and type(got) is float:
        return [] if abs(got - want) <= _RTOL * abs(want) else [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want):
        return [f"{path}: {type(got).__name__} != {type(want).__name__}"]
    if isinstance(want, dict):
        if list(got) != list(want):
            return [f"{path}: keys {list(got)} != {list(want)}"]
        return [m for key in want for m in _mismatches(got[key], want[key], f"{path}.{key}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}[{i}]")]
    return [] if got == want else [f"{path}: {got!r} != {want!r}"]


def test_mismatches_tell_floats_from_integers_and_verdicts() -> None:
    assert _mismatches({"a": 1.0, "b": [True, 3]}, {"a": 1.0 + 1e-13, "b": [True, 3]}) == []
    assert _mismatches({"a": 1.0}, {"a": 1.0 + 1e-11}) != []
    assert _mismatches({"a": 1}, {"a": 1.0}) != []
    assert _mismatches({"a": True}, {"a": 1}) != []
    assert _mismatches({"a": 1, "b": 2}, {"b": 2, "a": 1}) != []


def test_dispatch_note_names_both_runtimes_only_when_they_differ() -> None:
    running = update_golden.numpy_runtime()
    assert set(running) == set(RUNTIME) == {"numpy", "simd_found"}
    assert _dispatch_note(running, running) == ""
    other = {"numpy": running["numpy"], "simd_found": running["simd_found"] + ["AVX9000"]}
    note = _dispatch_note(other, running)
    assert str(other["simd_found"]) in note and str(running["simd_found"]) in note


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_its_golden_file(name: str, capsys) -> None:
    code = main(COMMANDS[name]["argv"])
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / name).read_text())
    assert code == COMMANDS[name]["exit"]
    mismatches = _mismatches(got, want)
    assert not mismatches, _explain(mismatches)


@pytest.mark.parametrize("name", sorted(MESHES))
def test_mesh_files_match_their_golden_hashes(name: str, tmp_path, capsys) -> None:
    obj = tmp_path / "mesh.obj"
    code = main(MESHES[name]["argv"] + ["--out", str(obj)])
    capsys.readouterr()
    assert code == MESHES[name]["exit"]
    got = {
        "obj_sha256": hashlib.sha256(obj.read_bytes()).hexdigest(),
        "nu_sha256": hashlib.sha256(nu_sidecar_path(obj).read_bytes()).hexdigest(),
    }
    mismatches = [f"{key} {got[key]} != {MESHES[name][key]}" for key in got if got[key] != MESHES[name][key]]
    assert not mismatches, _explain(mismatches)


@pytest.mark.parametrize("name", sorted(GRAPH_CSVS))
def test_graph_csv_matches_its_golden_hash(name: str, tmp_path, capsys) -> None:
    path = tmp_path / "graph.csv"
    code = main(GRAPH_CSVS[name]["argv"] + ["--csv-out", str(path)])
    capsys.readouterr()
    assert code == GRAPH_CSVS[name]["exit"]
    got = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == GRAPH_CSVS[name]["csv_sha256"], _explain([f"csv_sha256 {got} != {GRAPH_CSVS[name]['csv_sha256']}"])
