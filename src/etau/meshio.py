"""Serialization: OBJ meshes, CSV curves and grids, JSON reports.

Formats are deliberately plain so that external tools can consume them:
OBJ uses only ``v``/``f`` records, every CSV carries a header row, and
graph grids prepend a single ``#``-prefixed JSON line with the chart
metadata needed to rebuild the domain.  An OBJ and its per-vertex sidecar
CSV are written in one pass from the same formatted values.  JSON reports
embed a schema version and are serialized with sorted keys so identical
inputs yield byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .core import ParameterError
from .graphs import Chart, GraphDomain, GraphFunction
from .lifts import LiftedCurve
from .surfaces import SurfaceMesh

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "write_surface",
    "nu_sidecar_path",
    "write_profile_csv",
    "write_lift_csv",
    "write_graph_csv",
    "read_graph_csv",
    "json_report",
    "write_json_report",
]


# Rows per block: memory stays bounded by one block whatever the row count.
# A block's formatted values stay alive until every file has its rows; at
# 4096 rows a surface write peaked about 2.5 MB higher in RSS than at 1024.
_BLOCK_ROWS = 1024


def _write_blocks(sinks, *columns) -> None:
    """Write the rows of the equal-length 1-D columns to every sink, block by block.

    Each block's values are formatted once, by ``repr`` of their Python int or
    float (``.tolist()``), so a float prints its shortest round-trip repr.  A
    sink ``(fh, template, picks)`` writes ``template.format(*row)`` for the
    row's values in the columns numbered by ``picks``.
    """
    columns = [np.asarray(c).reshape(-1) for c in columns]
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        text = [list(map(repr, c[start : start + _BLOCK_ROWS].tolist())) for c in columns]
        for fh, template, picks in sinks:
            fh.write("".join(map(template.format, *(text[k] for k in picks))))


def _csv_sink(fh, header: list[str], columns: int):
    """Write the header row and return a sink for one row per entry of the columns.

    Ints print as ints and floats by repr, so no field needs quoting; rows end
    in CRLF, as in the csv module's default dialect, which writes the header.
    """
    csv.writer(fh).writerow(header)
    return fh, ",".join(["{}"] * columns) + "\r\n", range(columns)


def _write_csv(path: str | Path, header: list[str], *columns, comment: str = "") -> Path:
    """CSV with a header row and one row per entry of the columns."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(comment)
        _write_blocks([_csv_sink(fh, header, len(columns))], *columns)
    return path


def nu_sidecar_path(obj_path: str | Path) -> Path:
    obj_path = Path(obj_path)
    return obj_path.with_name(obj_path.stem + "_nu.csv")


def write_surface(path: str | Path, mesh: SurfaceMesh) -> tuple[Path, Path]:
    """Write a triangulated mesh as ASCII OBJ (v/f records only) and its sidecar.

    The sidecar, at ``nu_sidecar_path(path)``, is a CSV of the per-vertex angle
    function with the OBJ's 1-based vertex indices.  Both files are written in
    one pass, so each vertex coordinate is formatted once; face records take
    one %-format per block.
    """
    path = Path(path)
    sidecar = nu_sidecar_path(path)
    vertices = np.asarray(mesh.vertices, float)
    index = np.arange(1, len(vertices) + 1)
    with path.open("w") as obj, sidecar.open("w", newline="") as nu:
        sinks = [(obj, "v {} {} {}\n", (1, 2, 3)), _csv_sink(nu, ["vertex", "x", "y", "t", "nu"], 5)]
        _write_blocks(sinks, index, *vertices.T, np.asarray(mesh.nu, float))
        faces = np.asarray(mesh.triangles, int) + 1
        for start in range(0, len(faces), _BLOCK_ROWS):
            block = faces[start : start + _BLOCK_ROWS]
            obj.write(("f %d %d %d\n" * len(block)) % tuple(block.ravel().tolist()))
    return path, sidecar


def write_profile_csv(path: str | Path, parameter_label: str, parameter, values) -> Path:
    parameter = np.asarray(parameter, float)
    values = np.asarray(values, float)
    if parameter.shape != values.shape:
        raise ParameterError("profile parameter and values must have matching shapes")
    return _write_csv(path, [parameter_label, "value"], parameter, values)


def write_lift_csv(path: str | Path, lifted: LiftedCurve) -> Path:
    coords = np.asarray(lifted.coords(), float)
    params = np.asarray(lifted.curve.params, float)
    return _write_csv(path, ["parameter", "x", "y", "t"], params, *coords.T)


def write_graph_csv(path: str | Path, gf: GraphFunction) -> Path:
    """Grid dump with one node per row; a JSON comment line carries the domain."""
    dom = gf.domain
    header = {
        "model": dom.model.value,
        "chart": dom.chart.value,
        "bounds": [list(map(float, b)) for b in dom.bounds],
        "shape": list(dom.shape),
        "axis_foot": float(dom.axis_foot),
        "tau": float(gf.tau),
    }
    q1, q2 = dom.node_grids()
    i, j = np.indices(dom.shape)
    return _write_csv(
        path,
        ["i", "j", "q1", "q2", "value", "active"],
        i,
        j,
        np.asarray(q1, float),
        np.asarray(q2, float),
        np.asarray(gf.values, float),
        dom.active_mask().astype(int),
        comment="# " + json.dumps(header, sort_keys=True) + "\n",
    )


def read_graph_csv(path: str | Path) -> GraphFunction:
    path = Path(path)
    with path.open() as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ParameterError(f"{path} is missing the JSON metadata line")
        header = json.loads(first[1:])
        rows = list(csv.DictReader(fh))
    shape = tuple(int(n) for n in header["shape"])
    values = np.full(shape, math.nan)
    mask = np.zeros(shape, dtype=bool)
    for row in rows:
        i, j = int(row["i"]), int(row["j"])
        values[i, j] = float(row["value"])
        mask[i, j] = bool(int(row["active"]))
    if np.any(np.isnan(values)):
        raise ParameterError(f"{path} does not cover the full {shape} grid")
    domain = GraphDomain(
        chart=Chart(header["chart"]),
        bounds=tuple(tuple(b) for b in header["bounds"]),
        shape=shape,
        axis_foot=float(header.get("axis_foot", 1.0)),
        mask=None if mask.all() else mask,
    )
    return GraphFunction(domain, values, float(header["tau"]))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def json_report(payload: dict) -> str:
    """Serialize a report with the schema version; keys sorted for stable bytes.

    The output is strict JSON: a NaN or infinity raises ValueError.
    """
    body = {"schema_version": SCHEMA_VERSION}
    body.update(_jsonable(payload))
    return json.dumps(body, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json_report(payload: dict, path: str | Path | None = None) -> str:
    text = json_report(payload)
    if path is not None:
        Path(path).write_text(text)
    return text
