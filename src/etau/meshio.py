"""Serialization: OBJ meshes, CSV curves and grids, JSON reports.

Formats are deliberately plain so that external tools can consume them:
OBJ uses only ``v``/``f`` records, every CSV carries a header row, and
graph grids prepend a single ``#``-prefixed JSON line with the chart
metadata needed to rebuild the domain.  JSON reports embed a schema
version and are serialized with sorted keys so identical inputs yield
byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from itertools import starmap
from pathlib import Path

import numpy as np

from .core import ParameterError
from .graphs import Chart, GraphDomain, GraphFunction
from .lifts import LiftedCurve
from .surfaces import SurfaceMesh

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "write_obj",
    "write_nu_csv",
    "nu_sidecar_path",
    "write_profile_csv",
    "write_lift_csv",
    "write_graph_csv",
    "read_graph_csv",
    "json_report",
    "write_json_report",
]


# Rows per fh.write: memory stays bounded by one block whatever the row count.
_BLOCK_ROWS = 4096


def _write_rows(fh, template: str, *columns) -> None:
    """Write template.format(*row) for every row of the equal-length 1-D columns.

    Values reach the template as Python ints and floats (``.tolist()``), so
    ``{!r}`` prints a float's shortest round-trip repr.
    """
    columns = [np.asarray(c).reshape(-1) for c in columns]
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        rows = zip(*(c[start : start + _BLOCK_ROWS].tolist() for c in columns))
        fh.write("".join(starmap(template.format, rows)))


def _write_csv(path: str | Path, header: list[str], *columns, comment: str = "") -> Path:
    """CSV with a header row and one row per entry of the columns.

    Ints print as ints and floats by repr, so no field needs quoting; rows end
    in CRLF, as in the csv module's default dialect, which writes the header.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(comment)
        csv.writer(fh).writerow(header)
        _write_rows(fh, ",".join(["{!r}"] * len(columns)) + "\r\n", *columns)
    return path


def write_obj(path: str | Path, mesh: SurfaceMesh) -> Path:
    """Write a triangulated mesh as ASCII OBJ (v/f records only)."""
    path = Path(path)
    with path.open("w") as fh:
        _write_rows(fh, "v {!r} {!r} {!r}\n", *np.asarray(mesh.vertices, float).T)
        _write_rows(fh, "f {} {} {}\n", *(np.asarray(mesh.triangles, int) + 1).T)
    return path


def nu_sidecar_path(obj_path: str | Path) -> Path:
    obj_path = Path(obj_path)
    return obj_path.with_name(obj_path.stem + "_nu.csv")


def write_nu_csv(path: str | Path, mesh: SurfaceMesh) -> Path:
    """Per-vertex angle function; vertex indices match the OBJ (1-based)."""
    vertices = np.asarray(mesh.vertices, float)
    index = np.arange(1, len(vertices) + 1)
    return _write_csv(
        path, ["vertex", "x", "y", "t", "nu"], index, *vertices.T, np.asarray(mesh.nu, float)
    )


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
    """Serialize a report with the schema version; keys sorted for stable bytes."""
    body = {"schema_version": SCHEMA_VERSION}
    body.update(_jsonable(payload))
    return json.dumps(body, indent=2, sort_keys=True) + "\n"


def write_json_report(payload: dict, path: str | Path | None = None) -> str:
    text = json_report(payload)
    if path is not None:
        Path(path).write_text(text)
    return text
