"""Workload operations and their correctness gates.

Each operation runs in its own child interpreter (see ``child.py``) and
returns an outcome dict: ``errors`` (empty when every gate holds),
``sha256`` of the CLI report for CLI operations, and ``accuracy`` values.
Nothing here imports etau at module level, so the parent process that
schedules the operations never loads the package.

Why these workloads:

- ``slab-audit`` is the criterion-11 sequence, the slowest path in the
  repository.  Its time goes to ``slabs``, ``isometries.apply_to_coords`` and
  ``core.metric_arrays`` (edge spectra) and to profile inversions in a
  thread pool.  It never calls the graph solver.
- ``graph-solve`` is two CLI solver runs.  Most of the time is in ``graphs``;
  ``slabs`` and ``isometries`` do no work and ``quadrature`` little, so it is
  the workload on which quadrature and slab changes should show no change.
- ``surface-verify`` runs the verification suites and surface meshing through
  the CLI.  It uses ``quadrature`` as scalar adaptive calls and ``core`` as
  many scalar ``chord_length`` calls, unlike ``slab-audit``'s large arrays,
  so per-call overhead shows here.  It also carries the ``meshio`` writes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

SLAB_POINTS = 20
TAU = 0.5

# verify suite -> {check name: bound}.  A float bound means value < bound; a
# pair means lo <= value <= hi.  The values are the CLI's own bounds at
# tau = 0.5, pinned so that a loosened bound fails the gate.
PINNED_CHECKS: dict[str, dict[str, float | tuple[float, float]]] = {
    "limits": {
        "elliptic_oracle_d_1.1": 1e-8,
        "elliptic_oracle_d_2": 1e-8,
        "elliptic_oracle_d_10": 1e-8,
        "elliptic_oracle_d_100": 1e-8,
        "invariant_height_limit": 1e-3,
        "catenoid_height_limit": 5e-2,
        "substitution_route": 1e-8,
    },
    "minimality": {
        "residual_sup_fine": 1e-3,
        "convergence_order_0": (1.7, 2.3),
        "convergence_order_1": (1.7, 2.3),
    },
    "foliation": {"leaf_find_residual": 1e-6, "scale_equivariance": 1e-6},
    "isometries": {
        "conversion_pullback": 1e-9,
        **{
            f"{family}_{kind}": bound
            for family in ("scale", "axis_translation", "disc_point", "halfplane_graph")
            for kind, bound in (("pullback", 1e-9), ("fiber", 1e-12))
        },
    },
    "lifts": {
        "semicircle_closed_form_vs_quadrature": 1e-10,
        "lift_variation_bound": 2.0 * TAU * math.pi + 1e-12,
        "tau_zero_constant": 1e-15,
    },
    "transversality": {
        "closed_form_margin_eps_0.5_h0_1_tau_0": 0.25,
        "closed_form_margin_eps_0.5_h0_1_tau_0.5": 0.25,
        "window_sup_eps_0.5_h0_1_tau_0": 0.5,
        "window_sup_eps_0.5_h0_1_tau_0.5": 0.5,
    },
}

CATENOID_SUP_ERROR_TOL = 1e-3  # criterion-9 tolerance


def _run_cli(argv: list[str]) -> tuple[int, str]:
    from etau import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_outcome(argv: list[str], gate) -> dict:
    code, text = _run_cli(argv)
    errors: list[str] = []
    accuracy: dict[str, float] = {}
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        report = None
        errors.append("stdout is not a JSON report")
    if code != 0:
        errors.append(f"exit code {code}")
    if isinstance(report, dict):
        gate(report, errors, accuracy)
    return {
        "errors": errors,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "accuracy": accuracy,
    }


def _verify_gate(suite: str):
    pinned = PINNED_CHECKS[suite]

    def gate(report: dict, errors: list[str], accuracy: dict) -> None:
        if report.get("passed") is not True:
            errors.append(f"verify {suite} reports passed={report.get('passed')!r}")
        checks = {c.get("name"): c for c in report.get("checks", [])}
        if set(checks) != set(pinned):
            errors.append(f"verify {suite} checks {sorted(checks)} differ from {sorted(pinned)}")
        for name, bound in pinned.items():
            value = checks.get(name, {}).get("value")
            if not isinstance(value, (int, float)):
                errors.append(f"{name}: no value")
            elif isinstance(bound, tuple) and not bound[0] <= value <= bound[1]:
                errors.append(f"{name}: {value} outside {bound}")
            elif not isinstance(bound, tuple) and not value < bound:
                errors.append(f"{name}: {value} >= {bound}")

    return gate


def _solve_gate(exact: bool):
    def gate(report: dict, errors: list[str], accuracy: dict) -> None:
        if report.get("converged") is not True:
            errors.append("solver did not converge")
        if exact:
            err = report.get("sup_error_vs_exact")
            if not isinstance(err, (int, float)) or not err < CATENOID_SUP_ERROR_TOL:
                errors.append(f"sup_error_vs_exact {err!r} not below {CATENOID_SUP_ERROR_TOL}")
            else:
                accuracy["graphs.sup_error_vs_exact"] = float(err)

    return gate


def _count_prefixed(path: Path, prefixes: tuple[str, ...]) -> list[int]:
    counts = [0] * len(prefixes)
    with path.open() as fh:
        for line in fh:
            for k, prefix in enumerate(prefixes):
                if line.startswith(prefix):
                    counts[k] += 1
    return counts


def _surface_gate(report: dict, errors: list[str], accuracy: dict) -> None:
    files = [Path(f) for f in report.get("files", [])]
    if len(files) != 2 or not all(f.is_file() for f in files):
        errors.append(f"surface files missing: {files}")
        return
    vertices, triangles = report.get("vertices"), report.get("triangles")
    if [vertices, triangles] != _count_prefixed(files[0], ("v ", "f ")):
        errors.append("OBJ record counts differ from the report")
    if _count_prefixed(files[1], ("",))[0] != (vertices or 0) + 1:
        errors.append("nu CSV row count differs from the vertex count")
    lo, hi = report.get("nu_range", [math.nan, math.nan])
    if not -1.0 - 1e-12 <= lo <= hi <= 1.0 + 1e-12:
        errors.append(f"nu range {lo}, {hi} outside [-1, 1]")


def _verify(suite: str, *extra: str):
    def op(seed: int) -> dict:
        argv = ["verify", suite, "--tau", str(TAU), "--seed", str(seed), *extra]
        return _cli_outcome(argv, _verify_gate(suite))

    return op


def _surface(kind: str):
    def op(seed: int) -> dict:
        argv = ["surface", kind, "--tau", str(TAU), "--d", "1.2", "--seed", str(seed), "--out", f"{kind}.obj"]
        return _cli_outcome(argv, _surface_gate)

    return op


def _solve(boundary: str, n: int, *extra: str):
    # No random inputs: the seed is recorded by the runner, not passed.
    def op(seed: int) -> dict:
        argv = ["solve", "--boundary", boundary, "--tau", str(TAU), "--n", str(n), *extra]
        return _cli_outcome(argv, _solve_gate(exact=boundary == "catenoid"))

    return op


def spectra_seed(seed: int, instances: int) -> int:
    """First seed >= ``seed`` whose two spectra pairs share no instance.

    ``check_annulus_family`` draws two random instance pairs and computes
    each distinct instance's spectrum once, so a seed whose pairs overlap
    does three spectra instead of four.  Fixing the count at four keeps the
    work of a run independent of the seed.
    """
    import numpy as np

    while True:
        rng = np.random.default_rng(seed)
        first = set(rng.choice(instances, size=2, replace=False).tolist())
        second = set(rng.choice(instances, size=2, replace=False).tolist())
        if not first & second:
            return seed
        seed += 1


def _slab_example(example: int):
    def op(seed: int) -> dict:
        import etau

        flat = etau.SpaceParams(0.0)
        if example == 1:
            slab = etau.build_example1(flat, 0.1)
        else:
            slab = etau.build_example2(flat, "linear", 1.0, 0.45, 0.2)
        points = etau.sample_interior_points(slab, SLAB_POINTS, seed=seed)
        pairs = spectra_seed(seed, len(points))
        report = etau.check_annulus_family(slab, points, seed=pairs)
        if example == 1:
            control = etau.check_annulus_family(etau.with_shrunken_annuli(slab, 0.5), points, seed=pairs)
        else:
            control = etau.check_annulus_family(etau.with_overlapping_graphs(slab), points, seed=pairs)
        errors = []
        if not report.passed:
            errors.append(f"example{example} audit did not pass")
        if len(report.annulus_checks) != SLAB_POINTS:
            errors.append(f"example{example} audited {len(report.annulus_checks)} points")
        if example == 1 and not all(c.contains_point for c in report.annulus_checks):
            errors.append("an example1 annulus misses its point")
        if control.passed:
            errors.append(f"example{example} negative control passed")
        accuracy = {
            "slabs.spectra_deviation_max": report.spectra_deviation,
            "slabs.distance_max": max(c.distance for c in report.annulus_checks),
        }
        return {"errors": errors, "sha256": None, "accuracy": accuracy}

    return op


WORKLOADS: dict[str, dict] = {
    "slab-audit": {
        "slab-example1": _slab_example(1),
        "slab-example2": _slab_example(2),
    },
    "graph-solve": {
        "solve-wild": _solve("wild", 97, "--max-newton", "60"),
        "solve-catenoid": _solve("catenoid", 129),
    },
    "surface-verify": {
        "verify-limits": _verify("limits"),
        "verify-minimality-catenoid": _verify("minimality", "--surface", "catenoid", "--d", "2.0"),
        "verify-minimality-invariant": _verify("minimality", "--surface", "invariant", "--d", "1.2"),
        "verify-foliation": _verify("foliation", "--d", "1.2", "--points", "40"),
        "verify-isometries": _verify("isometries", "--points", "500"),
        "verify-lifts": _verify("lifts"),
        "verify-transversality": _verify("transversality"),
        "surface-catenoid": _surface("catenoid"),
        "surface-invariant": _surface("invariant"),
        "surface-leaf": _surface("leaf"),
    },
}

OPS = {name: op for ops in WORKLOADS.values() for name, op in ops.items()}
