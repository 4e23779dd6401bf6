"""Composite Gauss–Legendre kernel, AGM elliptic integral."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipk

from etau.core import ConvergenceError, ParameterError
from etau.quadrature import _NODES, _WEIGHTS, PANEL_NODES, composite_gauss, cumulative_integral, elliptic_k
from spectra_reference import unit_panel


def integral(f, a: float, b: float) -> float:
    return float(cumulative_integral(f, [a, b])[-1])


def test_unit_panel_is_composite_gauss_on_the_unit_interval():
    nodes, weights = unit_panel()
    assert nodes.shape == weights.shape == (PANEL_NODES,)
    assert not nodes.flags.writeable and not weights.flags.writeable
    # edges with different integrands, reduced on the row-major (edges, 1, PANEL_NODES) layout
    scale = np.linspace(0.5, 3.0, 7)[:, None, None]
    f = lambda s: np.exp(-scale * s) * np.cos(s)
    values = f(nodes)
    assert values.shape == (7, 1, PANEL_NODES)
    np.testing.assert_array_equal(0.5 * (values @ weights)[:, 0], composite_gauss(f, np.zeros(7), np.ones(7), 1))


def test_pinned_table_is_leggauss_bit_for_bit():
    nodes, weights = np.polynomial.legendre.leggauss(PANEL_NODES)
    for pinned, computed in ((_NODES, nodes), (_WEIGHTS, weights)):
        assert pinned.dtype == computed.dtype and pinned.shape == computed.shape
        np.testing.assert_array_equal(pinned.view(np.int64), computed.view(np.int64))
        assert not pinned.flags.writeable


class TestCumulativeIntegral:
    def test_polynomial_exact(self):
        assert integral(lambda x: 3.0 * x * x, 0.0, 2.0) == pytest.approx(8.0, abs=1e-12)

    def test_oscillatory(self):
        assert integral(np.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-11)

    def test_empty_interval(self):
        assert integral(np.sin, 1.0, 1.0) == 0.0

    def test_decreasing_interval_is_negated(self):
        f = lambda x: np.exp(-x) * np.cos(2.0 * x)
        assert integral(f, 2.0, 0.5) == pytest.approx(-integral(f, 0.5, 2.0), abs=1e-15)

    def test_nan_integrand_raises(self):
        with pytest.raises(ConvergenceError):
            integral(lambda x: np.full_like(x, np.nan), 0.0, 1.0)

    def test_integrable_endpoint_blowup_exhausts_budget(self):
        # Fixed-order panels cannot resolve 1/sqrt(x) at 0; no library
        # integrand has such a singularity after the sigma substitution.
        with pytest.raises(ConvergenceError):
            integral(lambda x: 1.0 / np.sqrt(x), 1e-14, 1.0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(0.1, 3.0), st.integers(0, 5))
    def test_monomials_match_closed_form(self, a, width, power):
        b = a + width
        exact = (b ** (power + 1) - a ** (power + 1)) / (power + 1)
        assert integral(lambda x: x ** power, a, b) == pytest.approx(exact, abs=1e-10, rel=1e-10)


class TestEllipticK:
    def test_zero_modulus(self):
        assert elliptic_k(0.0) == pytest.approx(math.pi / 2.0, rel=1e-15)

    @pytest.mark.parametrize("k", [1.0 / 1.1, 0.5, 0.1, 0.01, 0.999])
    def test_against_scipy(self, k):
        assert elliptic_k(k) == pytest.approx(float(ellipk(k * k)), rel=1e-14)

    def test_modulus_domain(self):
        with pytest.raises(ParameterError):
            elliptic_k(1.0)
        with pytest.raises(ParameterError):
            elliptic_k(-0.2)


class TestCumulativeTable:
    def test_matches_antiderivative(self):
        xs = np.linspace(0.0, 2.0, 201)
        assert np.max(np.abs(cumulative_integral(np.cos, xs) - np.sin(xs))) < 1e-11

    def test_monotone_for_positive_integrand(self):
        table = cumulative_integral(lambda x: 1.0 + x * x, np.linspace(0.0, 1.0, 17))
        assert np.all(np.diff(table) > 0.0)

    def test_final_value_matches_adaptive(self):
        f = lambda x: np.exp(-x) * np.sin(3.0 * x)
        table = cumulative_integral(f, np.linspace(0.0, 2.0, 401))
        assert table[-1] == pytest.approx(integral(f, 0.0, 2.0), abs=1e-10)
