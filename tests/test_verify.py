"""Library-level tests of the verification suites and the solver's Dirichlet problems."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from etau import verify
from etau.cli import main
from etau.core import ParameterError
from etau.graphs import Chart, reference_problem

_PARAMS = {"tau": 0.5, "d": 1.2, "s": 1.0, "surface": "catenoid", "seed": 0, "points": 5}

_NAMES = {
    "limits": [
        "elliptic_oracle_d_1.1",
        "elliptic_oracle_d_2",
        "elliptic_oracle_d_10",
        "elliptic_oracle_d_100",
        "invariant_height_limit",
        "catenoid_height_limit",
        "substitution_route",
    ],
    "isometries": [
        "conversion_pullback",
        *(
            f"{family}_{kind}"
            for family in ("scale", "axis_translation", "disc_point", "halfplane_graph")
            for kind in ("pullback", "fiber")
        ),
    ],
    "minimality": ["residual_sup_fine", "convergence_order_0", "convergence_order_1"],
    "lifts": ["semicircle_closed_form_vs_quadrature", "lift_variation_bound", "tau_zero_constant"],
    "transversality": [
        f"{check}_eps_0.5_h0_1_tau_{tau}"
        for tau in ("0", "0.5")
        for check in ("closed_form_margin", "window_sup")
    ],
    "foliation": ["leaf_find_residual", "scale_equivariance"],
}


@pytest.mark.parametrize("suite", verify.SUITES)
def test_suite_checks_and_passes(suite) -> None:
    checks = verify.run(suite, **_PARAMS)
    assert [c["name"] for c in checks] == _NAMES[suite]
    assert all(c["pass"] for c in checks)


@pytest.mark.parametrize("suite", ["isometries", "foliation"])
def test_sampling_suites_repeat_under_one_seed(suite) -> None:
    assert verify.run(suite, **_PARAMS) == verify.run(suite, **_PARAMS)


@pytest.mark.parametrize("suite", ["isometries", "foliation"])
@pytest.mark.parametrize("points", [0, -3])
def test_sampling_suites_need_a_point(suite, points) -> None:
    with pytest.raises(ParameterError, match="points must be at least 1"):
        verify.run(suite, **{**_PARAMS, "points": points})


@pytest.mark.parametrize("tau, labels", [(0.0, ["0"]), (0.9, ["0", "0.9"])])
def test_transversality_checks_tau_zero_and_the_given_tau(tau, labels) -> None:
    checks = verify.run("transversality", **{**_PARAMS, "tau": tau})
    assert [c["name"] for c in checks] == [
        f"{check}_eps_0.5_h0_1_tau_{label}"
        for label in labels
        for check in ("closed_form_margin", "window_sup")
    ]
    assert all(c["pass"] for c in checks)


def test_transversality_rejects_a_tau_beyond_float64_resolution() -> None:
    # At tau = 3, delta = 8.2e-19, so 1 + delta/2 rounds to 1.
    with pytest.raises(ParameterError, match=r"delta = 8\.2e-19 is below float64 resolution"):
        verify.run("transversality", **{**_PARAMS, "tau": 3.0})


def test_transversality_at_tau_two_still_passes() -> None:
    checks = verify.run("transversality", **{**_PARAMS, "tau": 2.0})
    assert len(checks) == 4
    assert all(c["pass"] for c in checks)


def test_foliation_checks_every_requested_point(monkeypatch) -> None:
    calls = []

    def leaf_find_arrays(coords, d, s, tau):
        calls.append(coords)
        n = len(coords)
        return np.ones(n), np.arange(n) * 1e-9, np.zeros(n, dtype=int)

    monkeypatch.setattr(verify, "foliation_leaf_find_arrays", leaf_find_arrays)
    records = {}
    for points in (100, 101):
        calls.clear()
        records[points] = verify.run("foliation", **{**_PARAMS, "points": points})
        assert [c.shape for c in calls] == [(2 * points, 3)]  # the points and their scaled images
    assert records[101] != records[100]



@pytest.mark.parametrize(
    "suite, target, failing",
    [
        ("isometries", "pullback_residuals", [n for n in _NAMES["isometries"][1:] if n.endswith("_pullback")]),
        ("isometries", "conversion_pullback_residuals", ["conversion_pullback"]),
        ("limits", "invariant_height_substituted", ["substitution_route"]),
    ],
)
def test_a_nan_value_fails_its_check_and_the_command(monkeypatch, capsys, suite, target, failing) -> None:
    # Python's max(0.0, nan) is 0.0: a fold that drops NaN would report 0.0 and pass.
    real = getattr(verify, target)
    monkeypatch.setattr(verify, target, lambda *args: np.full_like(real(*args), math.nan))
    checks = verify.run(suite, **_PARAMS)
    assert [c["name"] for c in checks if math.isnan(c["value"])] == failing
    assert not any(c["pass"] for c in checks if c["name"] in failing)
    assert main(["verify", suite, "--tau", "0.5"]) == 2
    assert json.loads(capsys.readouterr().out)["status"] == "computational_failure"

def test_unknown_suite_is_rejected() -> None:
    with pytest.raises(ParameterError):
        verify.run("nosuchsuite", **_PARAMS)


def test_zero_problem_is_the_flat_disc_graph() -> None:
    gf = reference_problem("zero", 0.5, 2.0, 1.0, 9)
    assert gf.domain.chart is Chart.DISC_XY
    assert gf.domain.bounds == ((-0.4, 0.4), (-0.4, 0.4))
    assert gf.domain.shape == (9, 9)
    assert np.array_equal(gf.values, np.zeros((9, 9)))


def test_wild_problem_boundary_values() -> None:
    gf = reference_problem("wild", 0.5, 2.0, 1.0, 9)
    assert gf.domain.chart is Chart.HALFPLANE_XY
    assert gf.domain.bounds == ((-1.0, 1.0), (0.5, 1.5))
    x, y = np.meshgrid(np.linspace(-1.0, 1.0, 9), np.linspace(0.5, 1.5, 9), indexing="ij")
    assert np.array_equal(gf.values, 50.0 * np.sin(9.0 * x) / y)
