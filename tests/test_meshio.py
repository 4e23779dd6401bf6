"""Tests for mesh, profile, and report serialization."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

from etau import meshio
from etau.core import GeometryError, Model
from etau.graphs import Chart, GraphDomain, GraphFunction
from etau.lifts import lift_geodesic_semicircle
from etau.meshio import (
    SCHEMA_VERSION,
    json_report,
    nu_sidecar_path,
    read_graph_csv,
    write_graph_csv,
    write_json_report,
    write_lift_csv,
    write_nu_csv,
    write_obj,
    write_profile_csv,
)
from etau.surfaces import CatenoidSpec, SurfaceMesh, mesh_catenoid


@pytest.fixture(scope="module")
def small_mesh():
    return mesh_catenoid(CatenoidSpec(0.5, 1.2), rho_max=3.0, resolution=(9, 8))


def test_obj_has_all_vertices_and_faces(tmp_path, small_mesh) -> None:
    path = write_obj(tmp_path / "mesh.obj", small_mesh)
    lines = path.read_text().splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == small_mesh.vertices.shape[0]
    assert len(f_lines) == small_mesh.triangles.shape[0]


def test_obj_faces_are_one_indexed(tmp_path, small_mesh) -> None:
    path = write_obj(tmp_path / "mesh.obj", small_mesh)
    indices = [
        int(tok)
        for line in path.read_text().splitlines()
        if line.startswith("f ")
        for tok in line.split()[1:]
    ]
    assert min(indices) >= 1
    assert max(indices) <= small_mesh.vertices.shape[0]


def test_obj_vertices_round_trip_exactly(tmp_path, small_mesh) -> None:
    path = write_obj(tmp_path / "mesh.obj", small_mesh)
    rows = [
        [float(tok) for tok in line.split()[1:]]
        for line in path.read_text().splitlines()
        if line.startswith("v ")
    ]
    assert np.array_equal(np.array(rows), small_mesh.vertices)


def test_nu_sidecar_naming_and_rows(tmp_path, small_mesh) -> None:
    obj = tmp_path / "surface.obj"
    sidecar = nu_sidecar_path(obj)
    assert sidecar.name == "surface_nu.csv"
    path = write_nu_csv(sidecar, small_mesh)
    lines = path.read_text().splitlines()
    assert lines[0] == "vertex,x,y,t,nu"
    assert len(lines) == 1 + small_mesh.vertices.shape[0]
    first = lines[1].split(",")
    assert int(first[0]) == 1
    assert float(first[4]) == pytest.approx(float(small_mesh.nu[0]), rel=1e-15)


# Row-by-row writers the block writers must match byte for byte.


def _reference_obj(path, mesh) -> None:
    lines = [f"v {float(x)!r} {float(y)!r} {float(t)!r}" for x, y, t in np.asarray(mesh.vertices, float)]
    for a, b, c in np.asarray(mesh.triangles, int):
        lines.append(f"f {a + 1} {b + 1} {c + 1}")
    path.write_text("\n".join(lines) + "\n")


def _reference_csv(path, header, rows, comment="") -> None:
    with path.open("w", newline="") as fh:
        fh.write(comment)
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)


@pytest.fixture(scope="module")
def awkward_mesh():
    """More rows than one write block, with values whose reprs are unusual."""
    n = meshio._BLOCK_ROWS + 37
    rng = np.random.default_rng(3)
    vertices = rng.normal(size=(n, 3)) * 10.0 ** rng.integers(-8, 8, size=(n, 3))
    specials = [-0.0, 1e-05, 0.1, 1e16, 5e-324]
    vertices[: len(specials)] = np.array(specials)[:, None]
    vertices[-len(specials):, 2] = specials
    nu = np.tanh(rng.normal(size=n))
    nu[-len(specials):] = specials
    triangles = rng.integers(0, n, size=(n + 11, 3)).astype(np.int32)
    return SurfaceMesh(Model.CYLINDER, 0.5, vertices, triangles, vertices, nu, (n, 1), False)


def test_obj_bytes_match_row_writer(tmp_path, awkward_mesh) -> None:
    _reference_obj(tmp_path / "ref.obj", awkward_mesh)
    write_obj(tmp_path / "new.obj", awkward_mesh)
    assert (tmp_path / "new.obj").read_bytes() == (tmp_path / "ref.obj").read_bytes()


def test_nu_csv_bytes_match_row_writer(tmp_path, awkward_mesh) -> None:
    rows = [
        [i, repr(float(x)), repr(float(y)), repr(float(t)), repr(float(nu))]
        for i, ((x, y, t), nu) in enumerate(zip(awkward_mesh.vertices, awkward_mesh.nu), start=1)
    ]
    _reference_csv(tmp_path / "ref.csv", ["vertex", "x", "y", "t", "nu"], rows)
    write_nu_csv(tmp_path / "new.csv", awkward_mesh)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "ref.csv").read_bytes()
    assert new.count(b"\r\n") == len(rows) + 1


def test_curve_csv_bytes_match_row_writer(tmp_path, awkward_mesh) -> None:
    x, y, t = awkward_mesh.vertices.T
    rows = [[repr(float(p)), repr(float(v))] for p, v in zip(x, t)]
    _reference_csv(tmp_path / "ref.csv", ["a,b", "value"], rows)
    write_profile_csv(tmp_path / "new.csv", "a,b", x, t)  # a label with a comma is quoted
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    lift = lift_geodesic_semicircle(0.0, 1.0, 0.4, 2.7, 0.5, samples=9)
    rows = [[repr(float(p)), *map(repr, map(float, c))] for p, c in zip(lift.curve.params, lift.coords())]
    _reference_csv(tmp_path / "ref_lift.csv", ["parameter", "x", "y", "t"], rows)
    write_lift_csv(tmp_path / "new_lift.csv", lift)
    assert (tmp_path / "new_lift.csv").read_bytes() == (tmp_path / "ref_lift.csv").read_bytes()


def test_graph_csv_bytes_match_row_writer(tmp_path) -> None:
    axis = np.linspace(-0.8, 0.8, 9)
    q1, q2 = np.meshgrid(axis, axis, indexing="ij")
    dom = GraphDomain(Chart.DISC_XY, ((-0.8, 0.8), (-0.8, 0.8)), (9, 9), mask=q1 * q1 + q2 * q2 < 0.81)
    gf = GraphFunction.from_base_callable(dom, 0.5, lambda x, y: x * y - 0.0)
    write_graph_csv(tmp_path / "new.csv", gf)
    first = (tmp_path / "new.csv").read_text().splitlines()[0]
    n1, q1, q2, active = dom.shape[0], *dom.node_grids(), dom.active_mask()
    rows = [
        [i, j, repr(float(q1[i, j])), repr(float(q2[i, j])), repr(float(gf.values[i, j])), int(active[i, j])]
        for i in range(n1)
        for j in range(dom.shape[1])
    ]
    header = ["i", "j", "q1", "q2", "value", "active"]
    _reference_csv(tmp_path / "ref.csv", header, rows, comment=first + "\n")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_profile_csv(tmp_path) -> None:
    path = write_profile_csv(tmp_path / "p.csv", "rho", [1.0, 2.0], [0.5, 0.75])
    lines = path.read_text().splitlines()
    assert lines[0] == "rho,value"
    assert lines[1] == "1.0,0.5"


def test_lift_csv(tmp_path) -> None:
    lift = lift_geodesic_semicircle(0.0, 1.0, 0.4, 2.7, 0.5, samples=5)
    path = write_lift_csv(tmp_path / "lift.csv", lift)
    lines = path.read_text().splitlines()
    assert lines[0] == "parameter,x,y,t"
    assert len(lines) == 6
    row = lines[1].split(",")
    assert float(row[0]) == pytest.approx(0.4, rel=1e-15)
    assert float(row[3]) == 0.0


def test_graph_csv_round_trip_with_mask(tmp_path) -> None:
    axis = np.linspace(-0.8, 0.8, 9)
    q1, q2 = np.meshgrid(axis, axis, indexing="ij")
    mask = q1 * q1 + q2 * q2 < 0.81  # corners of this window leave the disc
    dom = GraphDomain(Chart.DISC_XY, ((-0.8, 0.8), (-0.8, 0.8)), (9, 9), mask=mask)
    gf = GraphFunction.from_base_callable(dom, 0.5, lambda x, y: x * y + 0.1)
    assert dom.mask is not None
    path = write_graph_csv(tmp_path / "g.csv", gf)
    back = read_graph_csv(path)
    assert back.domain.chart is dom.chart
    assert back.domain.shape == dom.shape
    assert back.domain.bounds == dom.bounds
    assert back.tau == gf.tau
    assert np.array_equal(back.domain.active_mask(), dom.active_mask())
    active = dom.active_mask()
    assert np.allclose(back.values[active], gf.values[active], rtol=0, atol=0)


def test_graph_csv_round_trip_unmasked(tmp_path) -> None:
    dom = GraphDomain(Chart.HALFPLANE_XY, ((-1.0, 1.0), (0.5, 1.5)), (7, 7))
    gf = GraphFunction.from_base_callable(dom, 0.0, lambda x, y: x + y)
    back = read_graph_csv(write_graph_csv(tmp_path / "g.csv", gf))
    assert back.domain.mask is None
    assert np.array_equal(back.values, gf.values)


def test_graph_csv_metadata_line(tmp_path) -> None:
    dom = GraphDomain(Chart.HALFPLANE_XY, ((-1.0, 1.0), (0.5, 1.5)), (7, 7))
    gf = GraphFunction.constant(dom, 0.5, 0.0)
    path = write_graph_csv(tmp_path / "g.csv", gf)
    head = path.read_text().splitlines()[0]
    assert head.startswith("# ")
    meta = json.loads(head[2:])
    assert meta["chart"] == "halfplane_xy"
    assert meta["tau"] == 0.5
    assert meta["shape"] == [7, 7]


def test_read_graph_csv_requires_metadata(tmp_path) -> None:
    bad = tmp_path / "bad.csv"
    bad.write_text("i,j,q1,q2,value,active\n0,0,0.0,0.5,1.0,1\n")
    with pytest.raises(GeometryError):
        read_graph_csv(bad)


def test_read_graph_csv_rejects_incomplete_grid(tmp_path) -> None:
    dom = GraphDomain(Chart.HALFPLANE_XY, ((-1.0, 1.0), (0.5, 1.5)), (7, 7))
    gf = GraphFunction.constant(dom, 0.5, 0.0)
    path = write_graph_csv(tmp_path / "g.csv", gf)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(GeometryError):
        read_graph_csv(path)


def test_json_report_is_deterministic_and_versioned() -> None:
    payload = {"b": np.float64(2.0), "a": [np.int64(1), {"z": True}]}
    text1 = json_report(payload)
    text2 = json_report({"a": [1, {"z": True}], "b": 2.0})
    assert text1 == text2
    data = json.loads(text1)
    assert data["schema_version"] == SCHEMA_VERSION
    assert text1.endswith("\n")
    assert list(data.keys()) == sorted(data.keys())


def test_write_json_report_to_file(tmp_path) -> None:
    out = tmp_path / "report.json"
    text = write_json_report({"x": 1.5}, out)
    assert out.read_text() == text
    assert json.loads(text)["x"] == 1.5


def test_json_report_handles_numpy_arrays() -> None:
    data = json.loads(json_report({"arr": np.arange(3.0), "pi": np.pi}))
    assert data["arr"] == [0.0, 1.0, 2.0]
    assert data["pi"] == pytest.approx(math.pi)


def test_nu_values_match_mesh_model(small_mesh) -> None:
    assert small_mesh.model is Model.CYLINDER
    assert small_mesh.nu.shape == (small_mesh.vertices.shape[0],)
