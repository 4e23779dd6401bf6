"""End-to-end tests for the command line interface.

Exit-code contract: 0 success, 1 invalid input, 2 computational failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import etau
from etau import graphs
from etau.cli import main


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
    jacobian = graphs._jacobian

    def singular(gf):
        jac = jacobian(gf)
        i, j = np.argwhere(gf.domain.interior_mask())[0]
        jac[:, :, i, j] = 0.0
        return jac

    monkeypatch.setattr(graphs, "_jacobian", singular)
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


# -- config handling -----------------------------------------------------------------


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


def test_missing_config_file_is_invalid_input(capsys) -> None:
    code, report = run(capsys, "verify", "lifts", "--config", "/nonexistent/cfg.json")
    assert code == 1
    assert report["status"] == "invalid_input"


@pytest.mark.parametrize(
    ("argv", "config"),
    [
        (["verify", "limits", "--tau", "nan"], None),
        (["solve", "--tau", "inf"], None),
        (["verify", "lifts"], {"points": "abc"}),
        (["solve"], {"boundary": "bogus"}),
        (["verify", "isometries", "--seed", "-1"], None),
        (["verify", "isometries"], {"seed": -1}),
        (["solve", "--max-newton", "-2"], None),
        (["verify", "foliation", "--points", "0"], None),
        (["verify", "isometries"], {"points": -5}),
        (["slab", "example1", "--eps", "nan"], None),
        (["slab", "example3"], None),
    ],
    ids=[
        "nan-flag",
        "inf-flag",
        "non-numeric-config-value",
        "config-value-outside-choices",
        "negative-seed-flag",
        "negative-seed-config",
        "negative-max-newton",
        "zero-points-flag",
        "negative-points-config",
        "nan-slab-flag",
        "usage-error",
    ],
)
def test_bad_values_are_invalid_input(tmp_path, capsys, argv, config) -> None:
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = [*argv, "--config", str(path)]
    code, report = run(capsys, *argv)
    assert code == 1
    assert report["status"] == "invalid_input"
    assert report["schema_version"] == 1


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
