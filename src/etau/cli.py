"""Command-line front end: surfaces, verification suites, solver runs, slab audits.

Exit codes: 0 = all checks pass, 1 = invalid input, 2 = computational
failure or a failed check.  Every command emits a machine-readable JSON
report (stdout by default); reports carry no timestamps and all sampling
is seeded, so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import meshio, verify
from .core import ConvergenceError, GeometryError, Model, SpaceParams
from .graphs import reference_problem, solve_dirichlet
from .slabs import (
    build_example1,
    build_example2,
    check_annulus_family,
    sample_interior_points,
    slab_report_to_json,
    slab_spec_descriptor,
)
from .surfaces import (
    CatenoidSpec,
    InvariantSurfaceSpec,
    LeafSpec,
    catenoid_neck_radius,
    catenoid_profile,  # noqa: F401 -- the benchmark's tracer test checks it is rebound here
    leaf_mesh,
    mesh_catenoid,
    mesh_invariant_surface,
)


class _Parser(argparse.ArgumentParser):
    """Parser whose usage errors follow the exit-code contract (1, not 2)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        _emit({"status": "invalid_input", "message": message})
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
    common.add_argument("--config", type=str, default=None, help="JSON config file; flags override")
    common.add_argument("--out", type=str, default=None, help="output path (JSON report, or OBJ for surface)")

    parser = _Parser(prog="etau", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_surface = sub.add_parser("surface", parents=[common], allow_abbrev=False)
    p_surface.add_argument("kind", choices=("catenoid", "invariant", "leaf"))
    p_surface.add_argument("--tau", type=float, default=None)
    p_surface.add_argument("--d", type=float, default=None)
    p_surface.add_argument("--s", type=float, default=None)
    p_surface.add_argument("--scale", type=float, default=None)
    p_surface.add_argument("--rho-max", type=float, default=None)
    p_surface.add_argument("--phi-span", type=float, default=None)
    p_surface.add_argument("--rows", type=int, default=None)
    p_surface.add_argument("--cols", type=int, default=None)

    p_verify = sub.add_parser("verify", parents=[common], allow_abbrev=False)
    p_verify.add_argument("suite", choices=verify.SUITES)
    p_verify.add_argument("--tau", type=float, default=None)
    p_verify.add_argument("--d", type=float, default=None)
    p_verify.add_argument("--s", type=float, default=None)
    p_verify.add_argument("--surface", choices=("catenoid", "invariant"), default=None)
    p_verify.add_argument("--points", type=int, default=None)

    p_solve = sub.add_parser("solve", parents=[common], allow_abbrev=False)
    p_solve.add_argument("--boundary", choices=("zero", "catenoid", "invariant", "wild"), default=None)
    p_solve.add_argument("--tau", type=float, default=None)
    p_solve.add_argument("--d", type=float, default=None)
    p_solve.add_argument("--s", type=float, default=None)
    p_solve.add_argument("--n", type=int, default=None)
    p_solve.add_argument("--max-newton", type=int, default=None)
    p_solve.add_argument("--csv-out", type=str, default=None)

    p_slab = sub.add_parser("slab", parents=[common], allow_abbrev=False)
    p_slab.add_argument("example", choices=("example1", "example2"))
    p_slab.add_argument("--tau", type=float, default=None)
    p_slab.add_argument("--eps", type=float, default=None)
    p_slab.add_argument("--r", type=float, default=None)
    p_slab.add_argument("--C", dest="grad_cap", type=float, default=None)
    p_slab.add_argument("--h", dest="h", type=float, default=None)
    p_slab.add_argument("--graph", choices=("linear", "si"), default=None)
    p_slab.add_argument("--alpha", type=float, default=None)
    p_slab.add_argument("--beta", type=float, default=None)
    p_slab.add_argument("--points", type=int, default=None)
    p_slab.add_argument("--window-radius", type=float, default=None)
    p_slab.add_argument("--grid", type=int, default=None)
    return parser


_DEFAULTS: dict[str, dict] = {
    "surface": {
        "seed": 0, "out": None, "tau": 0.0, "d": None, "s": 1.0, "scale": 1.0,
        "rho_max": None, "phi_span": 2.0, "rows": 129, "cols": 128,
    },
    "verify": {
        "seed": 0, "out": None, "tau": 0.0, "d": 1.5, "s": 1.0,
        "surface": "catenoid", "points": 200,
    },
    "solve": {
        "seed": 0, "out": None, "boundary": "zero", "tau": 0.0, "d": 2.0, "s": 1.0,
        "n": 33, "max_newton": None, "csv_out": None,
    },
    "slab": {
        "seed": 0, "out": None, "tau": 0.0, "eps": 0.1, "r": 1.0, "grad_cap": 0.2,
        "h": 0.45, "graph": "linear", "alpha": 0.4, "beta": 0.0, "points": 8,
        "window_radius": 10.0, "grid": 129,
    },
}


def _options(parser: argparse.ArgumentParser, command: str) -> dict[str, argparse.Action]:
    """The command's argparse actions, keyed by destination."""
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in subparsers.choices[command]._actions}


def _config_value(action: argparse.Action, key: str, value):
    """Convert and check a config value as argparse would the same flag."""
    if action.type is not None:
        try:
            value = action.type(str(value))
        except ValueError as exc:
            raise GeometryError(f"config key {key!r}: invalid value {value!r}") from exc
    if action.choices is not None and value not in action.choices:
        raise GeometryError(f"config key {key!r}: {value!r} is not one of {sorted(action.choices)}")
    return value


def merge_config(ns: argparse.Namespace, parser: argparse.ArgumentParser) -> dict:
    """Layer hard defaults, then the JSON config file, then explicit flags.

    Config values go through the converter and choices of the matching
    option, as if given on the command line; a null value leaves the default
    in place.  Every float, from a flag or from the file, must be finite, and
    the seed must be non-negative.
    """
    cfg = dict(_DEFAULTS[ns.command])
    fixed = {"command", "kind", "suite", "example", "boundary", "config"}
    if ns.config is not None:
        loaded = json.loads(Path(ns.config).read_text())
        options = _options(parser, ns.command)
        for key, value in loaded.items():
            if key not in cfg and key not in fixed:
                raise GeometryError(f"unknown config key {key!r} for command {ns.command!r}")
            if value is None:
                continue
            cfg[key] = _config_value(options[key], key, value) if key in options else value
    for key, value in vars(ns).items():
        if key in ("config",):
            continue
        if key in cfg:
            if value is not None:
                cfg[key] = value
        else:
            cfg[key] = value
    for key, value in cfg.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise GeometryError(f"{key} must be finite, got {value}")
    if cfg["seed"] < 0:
        raise GeometryError(f"seed must be non-negative, got {cfg['seed']}")
    return cfg


# -- surface ------------------------------------------------------------------


def cmd_surface(cfg: dict) -> tuple[dict, int]:
    kind = cfg["kind"]
    tau = float(cfg["tau"])
    if cfg["d"] is None:
        raise GeometryError("surface generation requires --d")
    d = float(cfg["d"])
    resolution = (int(cfg["rows"]), int(cfg["cols"]))
    if kind == "catenoid":
        spec = CatenoidSpec(tau, d)
        rho_max = cfg["rho_max"]
        rho_max = catenoid_neck_radius(spec) + 2.5 if rho_max is None else float(rho_max)
        mesh = mesh_catenoid(spec, rho_max, resolution)
    elif kind == "invariant":
        span = float(cfg["phi_span"])
        mesh = mesh_invariant_surface(
            InvariantSurfaceSpec(tau, d, float(cfg["s"])), (-span, span), resolution
        )
    else:
        span = float(cfg["phi_span"])
        mesh = leaf_mesh(
            LeafSpec(tau, d, float(cfg["s"]), float(cfg["scale"])), (-span, span), resolution
        )
    out, sidecar = meshio.write_surface(cfg["out"] if cfg["out"] is not None else f"{kind}.obj", mesh)
    report = {
        "command": "surface",
        "kind": kind,
        "parameters": {k: cfg[k] for k in ("tau", "d", "s", "scale") if cfg[k] is not None},
        "files": [str(out), str(sidecar)],
        "vertices": int(len(mesh.vertices)),
        "triangles": int(len(mesh.triangles)),
        "nu_range": [float(np.min(mesh.nu)), float(np.max(mesh.nu))],
    }
    return report, 0


# -- verify -------------------------------------------------------------------


def cmd_verify(cfg: dict) -> tuple[dict, int]:
    checks = verify.run(
        cfg["suite"],
        tau=float(cfg["tau"]),
        d=float(cfg["d"]),
        s=float(cfg["s"]),
        surface=cfg["surface"],
        seed=int(cfg["seed"]),
        points=int(cfg["points"]),
    )
    passed = all(c["pass"] for c in checks)
    report = {
        "command": "verify",
        "suite": cfg["suite"],
        "parameters": {k: cfg[k] for k in ("tau", "d", "s", "surface", "seed", "points")},
        "checks": checks,
        "passed": passed,
    }
    return report, 0 if passed else 2


# -- solve --------------------------------------------------------------------


def cmd_solve(cfg: dict) -> tuple[dict, int]:
    kind, tau = cfg["boundary"], float(cfg["tau"])
    problem = reference_problem(kind, tau, float(cfg["d"]), float(cfg["s"]), int(cfg["n"]))
    max_newton = cfg["max_newton"]
    if max_newton is None:
        max_newton = 6 if kind == "wild" else 30
    elif max_newton < 0:
        raise GeometryError(f"max_newton must be non-negative, got {max_newton}")
    result = solve_dirichlet(problem.domain, tau, problem.values, max_newton=int(max_newton))
    report = {"command": "solve", "boundary": kind, "n": int(cfg["n"])}
    report.update(result.report)
    if kind != "wild":  # the wild data are boundary values only, not a solution
        report["sup_error_vs_exact"] = float(np.max(np.abs(result.graph.values - problem.values)))
    csv_out = cfg["csv_out"]
    if csv_out is not None:
        meshio.write_graph_csv(csv_out, result.graph)
        report["csv"] = str(csv_out)
    return report, 0 if result.report["converged"] else 2


# -- slab ---------------------------------------------------------------------


def cmd_slab(cfg: dict) -> tuple[dict, int]:
    sp = SpaceParams(float(cfg["tau"]), Model.CYLINDER)
    if cfg["example"] == "example1":
        slab = build_example1(
            sp, float(cfg["eps"]), window_radius=float(cfg["window_radius"]), grid=int(cfg["grid"])
        )
    else:
        slab = build_example2(
            sp,
            cfg["graph"],
            r=float(cfg["r"]),
            h=float(cfg["h"]),
            C=float(cfg["grad_cap"]),
            alpha=float(cfg["alpha"]),
            beta=float(cfg["beta"]),
            window_radius=float(cfg["window_radius"]),
            grid=int(cfg["grid"]),
        )
    points = sample_interior_points(slab, int(cfg["points"]), seed=int(cfg["seed"]))
    audit = check_annulus_family(slab, points, seed=int(cfg["seed"]))
    report = {
        "command": "slab",
        "example": cfg["example"],
        "spec": slab_spec_descriptor(slab),
        "report": slab_report_to_json(audit),
    }
    return report, 0 if audit.passed else 2


# -- entry point ----------------------------------------------------------------


_HANDLERS = {
    "surface": cmd_surface,
    "verify": cmd_verify,
    "solve": cmd_solve,
    "slab": cmd_slab,
}


def _emit(payload: dict, path: str | None = None) -> None:
    """Write the JSON report to path, or to stdout when path is None."""
    text = meshio.write_json_report(payload, path)
    if path is None:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        cfg = merge_config(ns, parser)
    except (GeometryError, OSError, json.JSONDecodeError) as exc:
        _emit({"status": "invalid_input", "message": str(exc)})
        return 1
    out = cfg["out"] if ns.command != "surface" else None
    try:
        report, code = _HANDLERS[ns.command](cfg)
    except ConvergenceError as exc:
        _emit({"status": "computational_failure", "message": str(exc)}, out)
        return 2
    except GeometryError as exc:
        _emit({"status": "invalid_input", "message": str(exc)}, out)
        return 1
    _emit(report, out)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
