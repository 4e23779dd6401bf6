"""End-to-end tests for the command line interface.

Exit-code contract: 0 success, 1 invalid input, 2 computational failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import etau
from etau import cli, graphs, surfaces, verify
from etau.cli import main
from etau.slabs import check_annulus_family


def _reject_constant(name: str):
    raise ValueError(f"report holds {name}, which is not strict JSON")


def run(capsys, *argv: str) -> tuple[int, dict | None]:
    """Exit code and parsed stdout report; argparse usage errors exit through SystemExit.

    The report must be strict JSON: NaN and infinities fail the parse.
    """
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    return code, json.loads(out, parse_constant=_reject_constant) if out else None


# -- package import ---------------------------------------------------------------


def _package_env(**extra: str) -> dict:
    """Environment of a fresh interpreter that imports this etau package."""
    src = os.path.dirname(os.path.dirname(etau.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


def test_package_import_loads_no_scipy() -> None:
    # a fresh interpreter: this one has loaded scipy modules for other tests
    check = (
        "import sys, etau, etau.cli; "
        "bad = [m for m in sys.modules if m.startswith('scipy')]; assert not bad, bad"
    )
    subprocess.run([sys.executable, "-c", check], env=_package_env(), check=True)


def test_package_import_loads_no_numpy_polynomial() -> None:
    # the quadrature table is pinned, so no process builds it with leggauss
    check = (
        "import sys, etau, etau.cli; "
        "bad = [m for m in sys.modules if m.startswith('numpy.polynomial')]; assert not bad, bad"
    )
    subprocess.run([sys.executable, "-c", check], env=_package_env(), check=True)


# -- surface -----------------------------------------------------------------------


def test_surface_catenoid_writes_obj_and_sidecar(tmp_path, capsys) -> None:
    obj = tmp_path / "cat.obj"
    code, report = run(
        capsys,
        "surface", "catenoid",
        "--tau", "0.5", "--d", "1.2", "--rho-max", "3.0",
        "--rows", "17", "--cols", "16",
        "--out", str(obj),
    )
    assert code == 0
    assert report["vertices"] == 17 * 16
    assert report["triangles"] == 2 * 16 * 16
    assert 0.0 <= report["nu_range"][0] <= report["nu_range"][1] < 1.0
    assert obj.exists()
    assert (tmp_path / "cat_nu.csv").exists()
    assert report["schema_version"] == 1


def test_surface_catenoid_boundary_on_the_ideal_boundary_exits_one(tmp_path, capsys) -> None:
    # tanh(20) rounds to 1, so the boundary circles would sit on the unit circle
    code, report = run(
        capsys, "surface", "catenoid", "--tau", "0.5", "--d", "1.2", "--rho-max", "40",
        "--out", str(tmp_path / "cat.obj"),
    )
    assert code == 1
    assert report["status"] == "invalid_input"
    assert "ideal boundary" in report["message"]
    assert not (tmp_path / "cat.obj").exists()


def test_surface_requires_d(tmp_path, capsys) -> None:
    code, report = run(capsys, "surface", "catenoid", "--out", str(tmp_path / "a.obj"))
    assert code == 1
    assert report["status"] == "invalid_input"


def test_surface_invalid_d_exits_one(tmp_path, capsys) -> None:
    code, report = run(
        capsys, "surface", "invariant", "--d", "0.9", "--out", str(tmp_path / "inv.obj")
    )
    assert code == 1
    assert "d > 1" in report["message"]


def test_surface_leaf(tmp_path, capsys) -> None:
    code, report = run(
        capsys,
        "surface", "leaf",
        "--d", "1.4", "--scale", "2.0", "--rows", "9", "--cols", "11",
        "--out", str(tmp_path / "leaf.obj"),
    )
    assert code == 0
    assert report["kind"] == "leaf"
    assert report["parameters"]["scale"] == 2.0


@pytest.mark.parametrize("kind", ["invariant", "leaf"])
@pytest.mark.parametrize("span", ["0", "710"])
def test_surface_unusable_phi_span_exits_one_and_writes_nothing(tmp_path, capsys, kind: str, span: str) -> None:
    # a zero-width mesh, and one whose exp(phi) overflows
    code, report = run(
        capsys, "surface", kind, "--tau", "0.5", "--d", "1.2", "--phi-span", span, "--out", str(tmp_path / "m.obj")
    )
    assert code == 1
    assert report["status"] == "invalid_input"
    assert "phi_span" in report["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.filterwarnings("error")
def test_surface_leaf_off_the_half_plane_is_invalid_input_without_warnings(tmp_path, capsys) -> None:
    # exp(+-700) is finite, but the axis translation puts leaf vertices at y <= 0
    code, report = run(
        capsys, "surface", "leaf", "--tau", "0.5", "--d", "1.2", "--phi-span", "700", "--out", str(tmp_path / "m.obj")
    )
    assert code == 1
    assert report["status"] == "invalid_input"
    assert "half plane" in report["message"]
    assert not list(tmp_path.iterdir())


def test_surface_with_a_non_finite_nu_writes_nothing(tmp_path, capsys, monkeypatch) -> None:
    # a NaN frame component gives the mesh builder a NaN normal, hence a NaN nu
    frame = surfaces.frame_components_arrays

    def with_nan(*args):
        first, *rest = frame(*args)
        first = first.copy()
        first.flat[0] = np.nan
        return (first, *rest)

    monkeypatch.setattr(surfaces, "frame_components_arrays", with_nan)
    code, report = run(capsys, "surface", "invariant", "--d", "1.2", "--rows", "9", "--out", str(tmp_path / "m.obj"))
    assert code == 1
    assert report["status"] == "invalid_input"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "invariant", "--d", "1e153"],
        ["surface", "leaf", "--d", "1e153"],
        ["surface", "invariant", "--d", "1.4e154"],
        ["surface", "leaf", "--d", "1.4e154"],
        ["verify", "foliation", "--d", "1.4e154", "--points", "3"],
        ["solve", "--boundary", "catenoid", "--d", "1e145", "--n", "9"],
        ["verify", "minimality", "--surface", "catenoid", "--d", "1e145"],
    ],
    ids=lambda argv: "-".join(a for a in argv if not a.startswith("--")),
)
def test_parameters_past_the_float_range_are_invalid_input_without_warnings(tmp_path, capsys, argv) -> None:
    out = ["--out", str(tmp_path / "m.obj")] if argv[0] == "surface" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, report = run(capsys, *argv, "--tau", "0.5", *out)
    assert code == 1
    assert report["status"] == "invalid_input"
    assert "float range" in report["message"]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize(
    ("argv", "named"),
    [
        pytest.param(
            ["slab", "example2", "--grid", "3", "--points", "0", "--alpha", "1e300"], "alpha = 1e+300", id="alpha"
        ),
        pytest.param(
            ["solve", "--n", "9", "--max-newton", "0", "--d", "1e300", "--tau", "1e300"], "tau = 1e+300", id="solve-tau"
        ),
        pytest.param(
            ["verify", "foliation", "--points", "3", "--d", "0.5", "--s", "1e300", "--seed", "7"],
            "axis foot 1e+300",
            id="foliation-s",
        ),
        pytest.param(["verify", "isometries", "--points", "1", "--tau", "1e300"], "tau = 1e+300", id="isometries-tau"),
        pytest.param(["surface", "leaf", "--d", "1.2", "--scale", "1e-200"], "scale factor 1e-200", id="leaf-scale"),
        # 2 tau overflows at the largest float
        pytest.param(
            ["verify", "lifts", "--tau", "1.7976931348623157e308"], "tau = 1.7976931348623157e+308", id="lifts-tau"
        ),
        pytest.param(
            ["verify", "foliation", "--points", "3", "--tau", "1.7976931348623157e308"],
            "tau = 1.7976931348623157e+308",
            id="foliation-tau",
        ),
    ],
)
def test_inputs_past_the_float_range_are_invalid_input_naming_the_value(tmp_path, capsys, argv, named) -> None:
    # each of these ended in a RuntimeWarning traceback (or, for the scale, a
    # "singular" message that did not name it) before its check
    out = ["--out", str(tmp_path / "m.obj")] if argv[0] == "surface" else []
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, report = run(capsys, *argv, *out)
    assert code == 1
    assert report["status"] == "invalid_input"
    assert "float" in report["message"] and named in report["message"]
    assert not list(tmp_path.iterdir())


# -- verify ------------------------------------------------------------------------


def test_verify_limits_passes(capsys) -> None:
    code, report = run(capsys, "verify", "limits")
    assert code == 0
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert "substitution_route" in names
    assert all(c["pass"] for c in report["checks"])


def test_verify_lifts_passes_with_tau(capsys) -> None:
    code, report = run(capsys, "verify", "lifts", "--tau", "0.5")
    assert code == 0
    assert report["parameters"]["tau"] == 0.5
    assert report["passed"] is True


def test_verify_writes_report_to_file(tmp_path, capsys) -> None:
    out = tmp_path / "report.json"
    code = main(["verify", "lifts", "--tau", "0.5", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["passed"] is True


def test_verify_transversality_overflowing_tau_is_invalid_input(capsys) -> None:
    code, report = run(capsys, "verify", "transversality", "--tau", "60")
    assert code == 1
    assert report["status"] == "invalid_input"
    assert "overflows" in report["message"]


def test_verify_transversality_at_the_largest_float_is_invalid_input(capsys) -> None:
    # there the exponent 2 (h0 + 2 |tau| pi) itself overflows, and exp(inf) raises nothing
    code, report = run(capsys, "verify", "transversality", "--tau", "1.7976931348623157e308")
    assert code == 1
    assert report["status"] == "invalid_input"
    assert "overflows" in report["message"]


def test_verify_unknown_suite_is_invalid_input(capsys) -> None:
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nosuchsuite"])
    assert exc.value.code == 1
    err = capsys.readouterr()
    assert json.loads(err.out)["status"] == "invalid_input"


# -- solve -------------------------------------------------------------------------


def test_solve_zero_boundary(capsys) -> None:
    code, report = run(capsys, "solve")
    assert code == 0
    assert report["converged"] is True
    assert report["iterations"] == 1
    assert report["sup_error_vs_exact"] == 0.0


def test_solve_catenoid_with_csv(tmp_path, capsys) -> None:
    csv = tmp_path / "solution.csv"
    code, report = run(
        capsys,
        "solve", "--boundary", "catenoid", "--tau", "0.5", "--n", "17",
        "--csv-out", str(csv),
    )
    assert code == 0
    assert report["sup_error_vs_exact"] < 1e-3
    assert csv.exists()
    assert report["csv"] == str(csv)


def test_solve_wild_boundary_fails_with_code_two(capsys) -> None:
    code, report = run(capsys, "solve", "--boundary", "wild", "--n", "17")
    assert code == 2
    assert report["converged"] is False
    assert report["iterations"] == 6


def test_solve_singular_jacobian_exits_two(monkeypatch, capsys) -> None:
    jacobian = graphs._FluxForm.jacobian

    def singular(self, values):
        jac = jacobian(self, values)
        i, j = np.argwhere(self.domain.interior_mask())[0]
        jac[:, :, i, j] = 0.0
        return jac

    monkeypatch.setattr(graphs._FluxForm, "jacobian", singular)
    code, report = run(capsys, "solve", "--boundary", "catenoid", "--tau", "0.5", "--n", "17")
    assert code == 2
    assert report["converged"] is False
    assert report["factorizations"] == 0


def test_solve_report_is_independent_of_the_blas_thread_count() -> None:
    # the 127-node top separator is eliminated as a chain of capped pivot blocks
    argv = ["-m", "etau.cli", "solve", "--boundary", "catenoid", "--tau", "0.5", "--n", "129"]
    outs = [
        subprocess.run(
            [sys.executable, *argv],
            env=_package_env(OPENBLAS_NUM_THREADS=threads),
            check=True,
            capture_output=True,
        ).stdout
        for threads in ("1", "2")
    ]
    assert json.loads(outs[0])["converged"] is True
    assert outs[0] == outs[1]


# -- slab --------------------------------------------------------------------------


def test_slab_example2_passes(capsys) -> None:
    code, report = run(capsys, "slab", "example2", "--points", "2", "--grid", "65")
    assert code == 0
    assert report["report"]["pass"] is True
    assert report["spec"]["generator"]["kind"] == "translated_catenoid"
    assert len(report["report"]["annulus_checks"]) == 2


def test_slab_example1_near_the_ideal_boundary_passes(capsys) -> None:
    # eps = 1e-6 truncates the catenoid at rho about 23.7, where a float64
    # placement's form coefficient C is 1 only to about 2e-10; the form is
    # still a disc isometry's, so the congruence certificate reads 0.0
    code, report = run(capsys, "slab", "example1", "--eps", "1e-6", "--points", "2")
    assert code == 0
    audit = report["report"]
    assert audit["pass"] is True
    assert audit["spectra_deviation"] == 0.0
    assert len(audit["annulus_checks"]) == 2
    assert all(c["contains_point"] for c in audit["annulus_checks"])


def test_slab_annulus_on_the_ideal_boundary_exits_one(capsys) -> None:
    # eps = 1e-9 asks for a catenoid boundary at rho about 34
    code, report = run(capsys, "slab", "example1", "--eps", "1e-9", "--points", "2")
    assert code == 1
    assert report["status"] == "invalid_input"
    assert "ideal boundary" in report["message"]


def test_slab_infeasible_parameters_exit_one(capsys) -> None:
    code, report = run(
        capsys, "slab", "example2", "--C", "0.25", "--points", "2", "--grid", "65"
    )
    assert code == 1
    assert "need 2 C r < h" in report["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["slab", "example1", "--grid", "-1"],
        ["slab", "example2", "--grid", "-1"],
        ["slab", "example2", "--grid", "2"],
        ["slab", "example1", "--window-radius", "1e300", "--grid", "2"],
        ["slab", "example2", "--graph", "si"],
        ["slab", "example2", "--r", "1e6"],
    ],
    ids=["disc-grid", "example2-grid", "empty-window", "ideal-boundary", "si-graph", "huge-r"],
)
def test_slab_windows_and_douglas_bounds_are_checked(capsys, argv) -> None:
    code, report = run(capsys, *argv)
    assert code == 1
    assert report["status"] == "invalid_input"


def test_non_finite_report_is_a_computational_failure(tmp_path, capsys, monkeypatch) -> None:
    # a NaN fiber margin in the audit, which strict JSON cannot hold
    def audit_with_nan_margin(slab, points, seed=0):
        report = check_annulus_family(slab, points, seed)
        first = replace(report.annulus_checks[0], above_margin=float("nan"))
        return replace(report, annulus_checks=(first, *report.annulus_checks[1:]))

    monkeypatch.setattr(cli, "check_annulus_family", audit_with_nan_margin)
    argv = ["slab", "example1", "--grid", "9", "--points", "1"]
    code, report = run(capsys, *argv)
    assert code == 2
    assert report["status"] == "computational_failure"
    assert "JSON" in report["message"]
    out = tmp_path / "report.json"
    assert run(capsys, *argv, "--out", str(out)) == (2, None)
    assert json.loads(out.read_text()) == report


def test_an_unallocatable_grid_is_a_computational_failure(capsys, monkeypatch) -> None:
    # as numpy raises for a grid such as --n 10000000, without asking for the memory
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 728. TiB")

    monkeypatch.setattr(cli, "solve_dirichlet", out_of_memory)
    code, report = run(capsys, "solve", "--n", "9")
    assert code == 2
    assert report["status"] == "computational_failure"
    assert "728. TiB" in report["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "limits", "--out", "missing/x.json"],
        ["surface", "catenoid", "--d", "1.2", "--rows", "5", "--cols", "8", "--out", "missing/cat.obj"],
        ["solve", "--n", "5", "--csv-out", "missing/g.csv"],
    ],
    ids=["verify-out", "surface-out", "solve-csv-out"],
)
def test_an_unwritable_output_is_invalid_input(tmp_path, capsys, argv) -> None:
    # the directory "missing" does not exist, so the report goes to stdout
    argv = [str(tmp_path / a) if a.startswith("missing/") else a for a in argv]
    code, report = run(capsys, *argv)
    assert code == 1
    assert report["status"] == "invalid_input"
    assert "No such file or directory" in report["message"]
    assert not (tmp_path / "missing").exists()


# -- config handling -----------------------------------------------------------------


def test_config_file_gives_the_bytes_of_the_same_flags(tmp_path, capsys) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 0.5, "points": 50, "d": None}))
    assert main(["verify", "lifts", "--config", str(cfg)]) == 0
    from_config = capsys.readouterr().out
    assert main(["verify", "lifts", "--tau", "0.5", "--points", "50"]) == 0
    assert from_config == capsys.readouterr().out


def test_config_value_may_start_with_a_dash(tmp_path, capsys, monkeypatch) -> None:
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(json.dumps({"out": "-x.json", "tau": -0.5}))
    assert run(capsys, "verify", "lifts", "--config", "cfg.json") == (0, None)
    assert json.loads((tmp_path / "-x.json").read_text())["parameters"]["tau"] == -0.5


def test_config_file_sets_parameters(tmp_path, capsys) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 0.5, "points": 50}))
    code, report = run(capsys, "verify", "lifts", "--config", str(cfg))
    assert code == 0
    assert report["parameters"]["tau"] == 0.5
    assert report["parameters"]["points"] == 50


def test_flags_override_config(tmp_path, capsys) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tau": 0.25}))
    code, report = run(capsys, "verify", "lifts", "--config", str(cfg), "--tau", "0.5")
    assert code == 0
    assert report["parameters"]["tau"] == 0.5


def test_unknown_config_key_is_invalid_input(tmp_path, capsys) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    code, report = run(capsys, "verify", "lifts", "--config", str(cfg))
    assert code == 1
    assert "no_such_option" in report["message"]


@pytest.mark.parametrize("key", ["kind", "suite", "example", "command", "config", "help"])
def test_only_option_destinations_are_config_keys(tmp_path, capsys, key) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: "leaf"}))
    code, report = run(
        capsys, "surface", "catenoid", "--d", "1.2", "--out", str(tmp_path / "a.obj"), "--config", str(cfg)
    )
    assert code == 1
    assert report["message"] == f"unknown config key {key!r} for command 'surface'"
    assert not (tmp_path / "a.obj").exists()


@pytest.mark.parametrize(
    "content",
    [b"[1, 2]", b'"tau"', b"null", b'{"tau": 0.5', b'\xff{"tau": 0.5}', b""],
    ids=["list", "string", "null", "truncated", "not-utf-8", "empty"],
)
def test_config_file_must_be_one_json_object(tmp_path, capsys, content) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    code, report = run(capsys, "verify", "lifts", "--config", str(cfg))
    assert code == 1
    assert report["status"] == "invalid_input"
    assert str(cfg) in report["message"]


def test_missing_config_file_is_invalid_input(capsys) -> None:
    code, report = run(capsys, "verify", "lifts", "--config", "/nonexistent/cfg.json")
    assert code == 1
    assert report["status"] == "invalid_input"


@pytest.mark.parametrize(
    ("argv", "config", "message"),
    [
        (["verify", "limits", "--tau", "nan"], None, "argument --tau: must be finite, got nan"),
        (["solve", "--tau", "inf"], None, "argument --tau: must be finite, got inf"),
        (["verify", "limits", "--tau", "abc"], None, "argument --tau: invalid float value: 'abc'"),
        (["verify", "lifts"], {"points": "abc"}, "argument --points: invalid int value: 'abc'"),
        (["solve"], {"boundary": "bogus"}, None),
        (["verify", "isometries", "--seed", "-1"], None, "argument --seed: must be non-negative, got -1"),
        (["verify", "isometries"], {"seed": -1}, "argument --seed: must be non-negative, got -1"),
        (["verify", "isometries"], {"seed": 1.5}, "argument --seed: invalid int value: '1.5'"),
        (["solve", "--max-newton", "-2"], None, "argument --max-newton: must be non-negative, got -2"),
        (["verify", "foliation", "--points", "0"], None, "points must be at least 1, got 0"),
        (["verify", "isometries"], {"points": -5}, "points must be at least 1, got -5"),
        (["slab", "example1", "--eps", "nan"], None, "argument --eps: must be finite, got nan"),
        (["slab", "example3"], None, None),
    ],
    ids=[
        "nan-flag",
        "inf-flag",
        "non-numeric-flag",
        "non-numeric-config-value",
        "config-value-outside-choices",
        "negative-seed-flag",
        "negative-seed-config",
        "non-integer-seed-config",
        "negative-max-newton",
        "zero-points-flag",
        "negative-points-config",
        "nan-slab-flag",
        "usage-error",
    ],
)
def test_bad_values_are_invalid_input(tmp_path, capsys, argv, config, message) -> None:
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, report = run(capsys, *argv)
    assert code == 1
    assert report["status"] == "invalid_input"
    assert report["schema_version"] == 1
    if message is not None:
        assert report["message"] == message


# -- determinism ------------------------------------------------------------------------


def test_repeated_runs_are_byte_identical(capsys) -> None:
    main(["verify", "lifts", "--tau", "0.5"])
    first = capsys.readouterr().out
    main(["verify", "lifts", "--tau", "0.5"])
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")


def test_reports_have_sorted_keys(capsys) -> None:
    main(["verify", "limits"])
    out = capsys.readouterr().out
    data = json.loads(out)
    assert list(data.keys()) == sorted(data.keys())


# -- fuzzing ----------------------------------------------------------------------------

# Values the parser accepts, which the library may still reject, and values
# the parser rejects; a draw swaps in at most one of the latter.
_REALS = st.sampled_from(
    (
        "0", "0.1", "0.5", "1", "1.2", "2", "-0.7", "-0.0", "1e-300", "1e300",
        # past the square root of the float range, and its subnormal, smallest normal and largest values
        "1e154", "1e-154", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
    )
)
_SEEDS = st.sampled_from(("0", "1", "7"))
_JUNK = ("nan", "inf", "-inf", "-1", "1.5", "abc", "")


def _sizes(*values: int) -> st.SearchStrategy[str]:
    return st.sampled_from(tuple(map(str, values)))


# Output paths, relative to a temporary directory whose subdirectory "missing"
# does not exist.  A report written to a file leaves stdout empty, so the
# report-file draws (--out of verify, solve and slab) always miss.
_PATHS = ("out", "csv_out")
_MISSING_REPORT = st.just("missing/r.json")

# command -> (positional choices, options always drawn, other options drawn as a subset);
# the sizes stay small so each run is quick, and surface's --out is set so that it
# writes into the temporary directory or misses it
_FUZZ = {
    "surface": (
        ("catenoid", "invariant", "leaf"),
        {
            "rows": _sizes(2, 3, 17),
            "cols": _sizes(2, 3, 17),
            "out": st.sampled_from(("s.obj", "missing/s.obj")),
        },
        {k: _REALS for k in ("tau", "d", "s", "scale", "rho_max", "phi_span")} | {"seed": _SEEDS},
    ),
    "verify": (
        verify.SUITES,
        {"points": _sizes(0, 1, 2, 3)},
        {k: _REALS for k in ("tau", "d", "s")}
        | {"surface": st.sampled_from(("catenoid", "invariant", "torus")), "seed": _SEEDS, "out": _MISSING_REPORT},
    ),
    "solve": (
        (),
        {"n": _sizes(0, 2, 3, 5, 9, 17), "max_newton": _sizes(0, 1, 8)},
        {k: _REALS for k in ("tau", "d", "s")}
        | {"boundary": st.sampled_from(("zero", "catenoid", "invariant", "wild", "x")), "seed": _SEEDS}
        | {"out": _MISSING_REPORT, "csv_out": st.sampled_from(("g.csv", "missing/g.csv"))},
    ),
    "slab": (
        ("example1", "example2"),
        {"grid": _sizes(0, 2, 3, 9, 17), "points": _sizes(0, 1, 2, 3)},
        {k: _REALS for k in ("tau", "eps", "r", "grad_cap", "h", "alpha", "beta", "window_radius")}
        | {"graph": st.sampled_from(("linear", "si", "x")), "seed": _SEEDS, "out": _MISSING_REPORT},
    ),
}

# How a draw passes its options: as flags (None), as a config file, or as a
# config file that is malformed and must end in invalid_input.
_BAD_CONFIGS = ("list", "truncated", "not-utf-8", "unknown-key", "positional-key")


def _flag(dest: str) -> str:
    return "--C" if dest == "grad_cap" else "--" + dest.replace("_", "-")


def _json_value(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return text


@st.composite
def _invocations(draw) -> tuple[list[str], dict[str, str], str | None]:
    command = draw(st.sampled_from(sorted(_FUZZ)))
    positionals, sizes, others = _FUZZ[command]
    head = [command, draw(st.sampled_from(positionals))] if positionals else [command]
    options = {dest: draw(values) for dest, values in sizes.items()}
    for dest in draw(st.lists(st.sampled_from(sorted(others)), unique=True, max_size=4)):
        options[dest] = draw(others[dest])
    if draw(st.booleans()):
        options[draw(st.sampled_from(sorted(set(options) - set(_PATHS))))] = draw(st.sampled_from(_JUNK))
    mode = draw(st.sampled_from((None, "object")))
    if mode is not None and draw(st.integers(0, 3)) == 0:
        mode = draw(st.sampled_from(_BAD_CONFIGS))
    return head, options, mode


def _config_bytes(head: list[str], options: dict[str, str], mode: str) -> bytes:
    entries = {dest: _json_value(value) for dest, value in options.items()}
    if mode == "unknown-key":
        entries["no_such_option"] = 1
    elif mode == "positional-key":
        entries[{"surface": "kind", "verify": "suite", "slab": "example"}.get(head[0], "command")] = head[-1]
    text = json.dumps([1, 2] if mode == "list" else entries)
    if mode == "truncated":
        text = text[:-1]
    return (b"\xff" if mode == "not-utf-8" else b"") + text.encode()


def _false_verdict(report: dict) -> bool:
    return (
        report.get("passed") is False
        or report.get("converged") is False
        or report.get("report", {}).get("pass") is False
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_invocations())
@example((["slab", "example1"], {"grid": "-1"}, None))
@example((["slab", "example2"], {"grid": "-1"}, None))
@example((["slab", "example2"], {"grid": "2"}, None))
@example((["slab", "example1"], {"window_radius": "1e300", "grid": "2"}, None))
@example((["slab", "example2"], {"graph": "si"}, None))
@example((["slab", "example2"], {"r": "1e6"}, None))
@example((["slab", "example1"], {"window_radius": "1e-300", "grid": "9", "points": "1"}, None))
@example((["verify", "limits"], {"points": "1", "out": "missing/r.json"}, None))
@example((["surface", "catenoid"], {"rows": "5", "cols": "8", "out": "missing/s.obj", "d": "1.2"}, None))
@example((["solve"], {"n": "5", "max_newton": "1", "csv_out": "missing/g.csv"}, "object"))
@example((["verify", "lifts"], {"points": "3"}, "list"))
@example((["verify", "lifts"], {"points": "3"}, "not-utf-8"))
@example((["slab", "example2"], {"grid": "3", "points": "0", "alpha": "1e300"}, None))
@example((["solve"], {"n": "9", "max_newton": "0", "d": "1e300", "tau": "1e300"}, None))
@example((["verify", "foliation"], {"points": "3", "d": "0.5", "s": "1e300", "seed": "7"}, None))
def test_every_invocation_ends_in_a_strict_json_report(case) -> None:
    """Any command line or config file ends in a result, invalid_input (exit 1)
    or a computational failure or failed check (exit 2), with strict JSON on stdout.

    A RuntimeWarning is an error, as in CI, where every step runs with
    PYTHONWARNINGS=error::RuntimeWarning: an input whose arithmetic overflows
    must be rejected with a report, not end in a traceback.
    """
    head, options, mode = case
    with tempfile.TemporaryDirectory() as tmp:
        options = options | {dest: os.path.join(tmp, options[dest]) for dest in _PATHS if dest in options}
        if mode is None:
            argv = [*head, *(token for dest, value in options.items() for token in (_flag(dest), value))]
        else:
            config = Path(tmp) / "cfg.json"
            config.write_bytes(_config_bytes(head, options, mode))
            argv = [*head, "--config", str(config)]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        seconds = time.perf_counter() - start
    assert seconds < 10.0, argv
    assert code in (0, 1, 2), argv
    report = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert (code == 1) == (report.get("status") == "invalid_input"), (argv, report)
    if code == 0:
        assert "status" not in report, (argv, report)
    if code == 2:
        assert report.get("status") == "computational_failure" or _false_verdict(report), (argv, report)
    if mode in _BAD_CONFIGS:
        assert code == 1, (argv, report)
