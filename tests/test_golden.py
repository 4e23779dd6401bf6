"""The CLI reports pinned under tests/golden/ (rewritten by scripts/update_golden.py).

Each command must exit with its entry's code, and each report must keep its
structure, verdicts, strings and integers exactly, and its floats within
1e-12 relative: a change that moves a report shows up here and as a diff of
the golden file.  Surface meshes are pinned by the SHA-256 of their OBJ and
``_nu.csv`` bytes, graph CSV dumps by the SHA-256 of their bytes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from etau.cli import main
from etau.meshio import nu_sidecar_path

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = json.loads((GOLDEN / "commands.json").read_text())
MESHES = json.loads((GOLDEN / "meshes.json").read_text())
GRAPH_CSVS = json.loads((GOLDEN / "graph_csv.json").read_text())
_RTOL = 1e-12


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


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_report_matches_its_golden_file(name: str, capsys) -> None:
    code = main(COMMANDS[name]["argv"])
    got = json.loads(capsys.readouterr().out)
    want = json.loads((GOLDEN / name).read_text())
    assert code == COMMANDS[name]["exit"]
    assert _mismatches(got, want) == []


@pytest.mark.parametrize("name", sorted(MESHES))
def test_mesh_files_match_their_golden_hashes(name: str, tmp_path, capsys) -> None:
    obj = tmp_path / "mesh.obj"
    code = main(MESHES[name]["argv"] + ["--out", str(obj)])
    capsys.readouterr()
    assert code == MESHES[name]["exit"]
    assert hashlib.sha256(obj.read_bytes()).hexdigest() == MESHES[name]["obj_sha256"]
    assert hashlib.sha256(nu_sidecar_path(obj).read_bytes()).hexdigest() == MESHES[name]["nu_sha256"]


@pytest.mark.parametrize("name", sorted(GRAPH_CSVS))
def test_graph_csv_matches_its_golden_hash(name: str, tmp_path, capsys) -> None:
    path = tmp_path / "graph.csv"
    code = main(GRAPH_CSVS[name]["argv"] + ["--csv-out", str(path)])
    capsys.readouterr()
    assert code == GRAPH_CSVS[name]["exit"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GRAPH_CSVS[name]["csv_sha256"]
