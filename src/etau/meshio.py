"""Serialization: OBJ meshes, CSV curves and grids, JSON reports.

Formats are deliberately plain so that external tools can consume them:
OBJ uses only ``v``/``f`` records, every CSV carries a header row, and
graph grids prepend a single ``#``-prefixed JSON line with the chart
metadata needed to rebuild the domain.  An OBJ and its per-vertex sidecar
CSV are written in one pass from the same formatted values, and a float
column is formatted with one ``repr`` per distinct bit pattern, however often
the value repeats.  JSON reports
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


def _repeats(column: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """Which rows of a 1-D float column share a value, keyed by its bit pattern.

    Keying by bits keeps -0.0 apart from 0.0, and NaNs with different
    payloads apart, where a float-keyed dict would merge them.  Returns None
    when no value occurs twice; otherwise ``ids`` (int32: the value's index
    among the values that occur more than once, -1 for a value that occurs
    once) and the bool masks ``first`` and ``last`` of the rows where a
    repeated value occurs first and last.
    """
    n = len(column)
    bits = column.view(f"u{column.itemsize}")
    order = np.argsort(bits, kind="stable")
    sorted_bits = bits[order]
    # bounds[k]: sorted position k starts a new value; bounds[n] ends the last.
    bounds = np.ones(n + 1, bool)
    np.not_equal(sorted_bits[1:], sorted_bits[:-1], out=bounds[1:n])
    del sorted_bits
    once = bounds[:n] & bounds[1:]
    if once.all():
        return None
    starts = bounds[:n] & ~once
    rank = np.cumsum(starts, dtype=np.int32)
    rank -= 1
    rank[once] = -1
    ids = np.empty(n, np.int32)
    ids[order] = rank
    first = np.empty(n, bool)
    first[order] = starts
    last = np.empty(n, bool)
    last[order] = bounds[1:] & ~once
    return ids, first, last


def _write_blocks(sinks, *columns) -> None:
    """Write the rows of the equal-length 1-D columns to every sink, block by block.

    Values print by ``repr`` of their Python int or float (``.tolist()``), so
    a float prints its shortest round-trip repr.  A float column is formatted
    once per distinct bit pattern: a value that occurs once in its block, a
    repeated value at its first row, and its text is kept until the block that
    holds its last row is written.  A sink ``(fh, template, picks)`` writes
    ``template.format(*row)`` for the row's values in the columns numbered by
    ``picks``.
    """
    columns = [np.asarray(c).reshape(-1) for c in columns]
    plans = [_repeats(c) if c.dtype.kind == "f" else None for c in columns]
    # A slot per repeated value, and a spare last slot, never written, that ids of -1 read.
    memos = [None if plan is None else np.empty(int(plan[0].max()) + 2, object) for plan in plans]
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        text = []
        for column, plan, memo in zip(columns, plans, memos):
            values = column[rows]
            if plan is None:
                text.append(list(map(repr, values.tolist())))
                continue
            ids, first, last = plan[0][rows], plan[1][rows], plan[2][rows]
            memo[ids[first]] = list(map(repr, values[first].tolist()))
            block = memo[ids]
            once = ids < 0
            block[once] = list(map(repr, values[once].tolist()))
            text.append(block.tolist())
            memo[ids[last]] = None
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
        _write_faces(obj, np.asarray(mesh.triangles))
    return path, sidecar


def _write_faces(fh, triangles: np.ndarray) -> None:
    """OBJ face records of (n, 3) 0-based vertex indices, one %-format per
    block; the 1-based indices are formed per block, in the array's own int
    dtype, so no copy of the whole array is made."""
    for start in range(0, len(triangles), _BLOCK_ROWS):
        block = triangles[start : start + _BLOCK_ROWS] + 1
        fh.write(("f %d %d %d\n" * len(block)) % tuple(block.ravel().tolist()))


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
