"""Command-line front end: surfaces, verification suites, solver runs, slab audits.

Exit codes: 0 = all checks pass, 1 = invalid input, 2 = computational
failure or a failed check.  Every command emits a machine-readable JSON
report (stdout by default); reports carry no timestamps and all sampling
is seeded, so identical invocations produce byte-identical output.  An
output file that cannot be written is invalid input, reported on stdout; a
grid too large to allocate is a computational failure.
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


def _finite_float(text: str) -> float:
    """argparse type: a finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_non_negative_int, default=0, help="RNG seed (default 0)")
    common.add_argument("--config", type=str, default=None, help="JSON config file; flags override")
    common.add_argument("--out", type=str, default=None, help="output path (JSON report, or OBJ for surface)")

    parser = _Parser(prog="etau", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_surface = sub.add_parser("surface", parents=[common], allow_abbrev=False)
    p_surface.add_argument("kind", choices=("catenoid", "invariant", "leaf"))
    p_surface.add_argument("--tau", type=_finite_float, default=0.0)
    p_surface.add_argument("--d", type=_finite_float, default=None)
    p_surface.add_argument("--s", type=_finite_float, default=1.0)
    p_surface.add_argument("--scale", type=_finite_float, default=1.0)
    p_surface.add_argument("--rho-max", type=_finite_float, default=None)
    p_surface.add_argument("--phi-span", type=_finite_float, default=2.0)
    p_surface.add_argument("--rows", type=int, default=129)
    p_surface.add_argument("--cols", type=int, default=128)

    p_verify = sub.add_parser("verify", parents=[common], allow_abbrev=False)
    p_verify.add_argument("suite", choices=verify.SUITES)
    p_verify.add_argument("--tau", type=_finite_float, default=0.0)
    p_verify.add_argument("--d", type=_finite_float, default=1.5)
    p_verify.add_argument("--s", type=_finite_float, default=1.0)
    p_verify.add_argument("--surface", choices=("catenoid", "invariant"), default="catenoid")
    p_verify.add_argument("--points", type=int, default=200)

    p_solve = sub.add_parser("solve", parents=[common], allow_abbrev=False)
    p_solve.add_argument("--boundary", choices=("zero", "catenoid", "invariant", "wild"), default="zero")
    p_solve.add_argument("--tau", type=_finite_float, default=0.0)
    p_solve.add_argument("--d", type=_finite_float, default=2.0)
    p_solve.add_argument("--s", type=_finite_float, default=1.0)
    p_solve.add_argument("--n", type=int, default=33)
    p_solve.add_argument("--max-newton", type=_non_negative_int, default=None)
    p_solve.add_argument("--csv-out", type=str, default=None)

    p_slab = sub.add_parser("slab", parents=[common], allow_abbrev=False)
    p_slab.add_argument("example", choices=("example1", "example2"))
    p_slab.add_argument("--tau", type=_finite_float, default=0.0)
    p_slab.add_argument("--eps", type=_finite_float, default=0.1)
    p_slab.add_argument("--r", type=_finite_float, default=1.0)
    p_slab.add_argument("--C", dest="grad_cap", type=_finite_float, default=0.2)
    p_slab.add_argument("--h", dest="h", type=_finite_float, default=0.45)
    p_slab.add_argument("--graph", choices=("linear",), default="linear")
    p_slab.add_argument("--alpha", type=_finite_float, default=0.4)
    p_slab.add_argument("--beta", type=_finite_float, default=0.0)
    p_slab.add_argument("--points", type=int, default=8)
    p_slab.add_argument("--window-radius", type=_finite_float, default=10.0)
    p_slab.add_argument("--grid", type=int, default=129)
    return parser


def _config_tokens(parser: argparse.ArgumentParser, command: str, path: str) -> list[str]:
    """The config file's entries as --flag=value tokens of the command's parser.

    Keys are option destinations; a null value leaves the default.  A file
    that cannot be read as UTF-8, is not one JSON object, or names anything
    but an option is a usage error.
    """
    (subparsers,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {
        a.dest: a.option_strings[0]
        for a in subparsers.choices[command]._actions
        if a.option_strings and a.dest not in ("help", "config")
    }
    try:
        loaded = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        parser.error(f"config file {path!r}: {exc}")
    if not isinstance(loaded, dict):
        parser.error(f"config file {path!r} must hold one JSON object")
    for key in loaded:
        if key not in flags:
            parser.error(f"unknown config key {key!r} for command {command!r}")
    return [f"{flags[key]}={value}" for key, value in loaded.items() if value is not None]


# -- surface ------------------------------------------------------------------


def cmd_surface(args: argparse.Namespace) -> tuple[dict, int]:
    kind, tau, d = args.kind, args.tau, args.d
    if d is None:
        raise GeometryError("surface generation requires --d")
    resolution = (args.rows, args.cols)
    if kind == "catenoid":
        spec = CatenoidSpec(tau, d)
        rho_max = catenoid_neck_radius(spec) + 2.5 if args.rho_max is None else args.rho_max
        mesh = mesh_catenoid(spec, rho_max, resolution)
    elif kind == "invariant":
        span = args.phi_span
        mesh = mesh_invariant_surface(InvariantSurfaceSpec(tau, d, args.s), (-span, span), resolution)
    else:
        span = args.phi_span
        mesh = leaf_mesh(LeafSpec(tau, d, args.s, args.scale), (-span, span), resolution)
    out, sidecar = meshio.write_surface(args.out if args.out is not None else f"{kind}.obj", mesh)
    report = {
        "command": "surface",
        "kind": kind,
        "parameters": {"tau": tau, "d": d, "s": args.s, "scale": args.scale},
        "files": [str(out), str(sidecar)],
        "vertices": int(len(mesh.vertices)),
        "triangles": int(len(mesh.triangles)),
        "nu_range": [float(np.min(mesh.nu)), float(np.max(mesh.nu))],
    }
    return report, 0


# -- verify -------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    parameters = {k: getattr(args, k) for k in ("tau", "d", "s", "surface", "seed", "points")}
    checks = verify.run(args.suite, **parameters)
    passed = all(c["pass"] for c in checks)
    report = {
        "command": "verify",
        "suite": args.suite,
        "parameters": parameters,
        "checks": checks,
        "passed": passed,
    }
    return report, 0 if passed else 2


# -- solve --------------------------------------------------------------------


def cmd_solve(args: argparse.Namespace) -> tuple[dict, int]:
    kind, tau = args.boundary, args.tau
    problem = reference_problem(kind, tau, args.d, args.s, args.n)
    max_newton = args.max_newton
    if max_newton is None:
        max_newton = 6 if kind == "wild" else 30
    result = solve_dirichlet(problem.domain, tau, problem.values, max_newton=max_newton)
    report = {"command": "solve", "boundary": kind, "n": args.n}
    report.update(result.report)
    if kind != "wild":  # the wild data are boundary values only, not a solution
        report["sup_error_vs_exact"] = float(np.max(np.abs(result.graph.values - problem.values)))
    if args.csv_out is not None:
        meshio.write_graph_csv(args.csv_out, result.graph)
        report["csv"] = args.csv_out
    return report, 0 if result.report["converged"] else 2


# -- slab ---------------------------------------------------------------------


def cmd_slab(args: argparse.Namespace) -> tuple[dict, int]:
    sp = SpaceParams(args.tau, Model.CYLINDER)
    if args.example == "example1":
        slab = build_example1(sp, args.eps, window_radius=args.window_radius, grid=args.grid)
    else:
        slab = build_example2(
            sp,
            args.graph,
            r=args.r,
            h=args.h,
            C=args.grad_cap,
            alpha=args.alpha,
            beta=args.beta,
            window_radius=args.window_radius,
            grid=args.grid,
        )
    points = sample_interior_points(slab, args.points, seed=args.seed)
    audit = check_annulus_family(slab, points)
    report = {
        "command": "slab",
        "example": args.example,
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
    """Run one command.  Config-file entries go in right after the subcommand,
    so explicit flags, parsed later, override them."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config is not None:
        at = argv.index(args.command) + 1
        argv[at:at] = _config_tokens(parser, args.command, args.config)
        args = parser.parse_args(argv)
    out = args.out if args.command != "surface" else None
    try:
        try:
            report, code = _HANDLERS[args.command](args)
        except ConvergenceError as exc:
            report, code = {"status": "computational_failure", "message": str(exc)}, 2
        except GeometryError as exc:
            report, code = {"status": "invalid_input", "message": str(exc)}, 1
        except MemoryError as exc:  # a grid too large to allocate
            report, code = {"status": "computational_failure", "message": f"out of memory: {exc}"}, 2
        try:
            _emit(report, out)
        except ValueError as exc:  # a non-finite value in the report: not strict JSON
            _emit({"status": "computational_failure", "message": str(exc)}, out)
            return 2
    except OSError as exc:  # an output file cannot be written, so the report goes to stdout
        _emit({"status": "invalid_input", "message": str(exc)})
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
