"""Vertical graphs over orthogonal charts of the base, their mean curvature,
areas, and a damped Newton solver for the minimal graph equation.

A graph t = u(q1, q2) over an orthogonal chart with base metric
g1 dq1^2 + g2 dq2^2 and connection form w1 dq1 + w2 dq2 has horizontal
coefficients

    a = -(u_1 + w1) / sqrt(g1),   b = -(u_2 + w2) / sqrt(g2),
    W = sqrt(1 + a^2 + b^2),      nu = 1 / W,

and mean curvature

    2 H = (1 / sqrt(g1 g2)) [ d/dq1 ( sqrt(g2) a / W ) + d/dq2 ( sqrt(g1) b / W ) ].

The discrete operator is the compact conservative form: fluxes live on edge
midpoints with centered transverse averages, so the scheme is second order
and is exactly the one the solver drives to zero.  The solver's Newton
Jacobian is the closed-form derivative of this flux form.  It and the
harmonic seed's chart Laplacian are written as one 3x3 coefficient field per
node, and both systems are factored by the numpy nested-dissection solver of
``etau.dissection``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    BOUNDARY_MARGIN,
    GeometryError,
    InvalidPointError,
    Model,
    ParameterError,
    metric_data_arrays,
    require_finite,
    require_nodes_in_model,
)
from .dissection import NestedDissection
from .surfaces import (
    CatenoidSpec,
    InvariantSurfaceSpec,
    Sheet,
    catenoid_neck_radius,
    catenoid_profile,
    invariant_angle_max,
    invariant_profile,
)

_EDGE_KEEPOUT = 1e-9
_SOLVE_TOL = 1e-10  # sup |H| at which the Newton iteration stops
# Chord (Shamanskii) reuse of the Newton factor: a full step from a factor, fresh
# or reused, keeps that factor only while it cuts the residual norm below
# _CONTRACTION times the old one.  With 0.5, the invariant n = 33 solve took 20
# passes, not 9.
_CONTRACTION = 0.25


class Chart(Enum):
    HALFPLANE_XY = "halfplane_xy"
    DISC_XY = "disc_xy"
    DISC_POLAR = "disc_polar"
    HALFPLANE_IDEAL_POLAR = "halfplane_ideal_polar"


_CHART_MODEL = {
    Chart.HALFPLANE_XY: Model.HALF_SPACE,
    Chart.DISC_XY: Model.CYLINDER,
    Chart.DISC_POLAR: Model.CYLINDER,
    Chart.HALFPLANE_IDEAL_POLAR: Model.HALF_SPACE,
}


def chart_coefficients(chart: Chart, axis_foot: float, tau: float, q1, q2):
    """Base metric coefficients (g1, g2) and connection components (w1, w2)."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    if chart in (Chart.HALFPLANE_XY, Chart.DISC_XY):
        lam, w1, w2 = metric_data_arrays(_CHART_MODEL[chart], tau, q1, q2)
        g = lam * lam
        return g, g, w1, w2
    if chart is Chart.DISC_POLAR:
        g2 = np.sinh(q1) ** 2
        w2 = -4.0 * tau * np.sinh(0.5 * q1) ** 2
        return np.ones_like(g2), g2, np.zeros_like(g2), w2
    # ideal polar: q1 = log radius along the axis at axis_foot, q2 = wedge angle
    g = 1.0 / np.sin(q2) ** 2
    w1 = -2.0 * tau / np.tan(q2)
    w2 = np.full_like(g, 2.0 * tau)
    return g, g, w1, w2


def chart_to_base(chart: Chart, axis_foot: float, q1, q2):
    """Model coordinates (x, y) of chart nodes."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    if chart in (Chart.HALFPLANE_XY, Chart.DISC_XY):
        return q1, q2
    if chart is Chart.DISC_POLAR:
        r = np.tanh(0.5 * q1)
        return r * np.cos(q2), r * np.sin(q2)
    r = np.exp(q1)
    return r * np.cos(q2) + axis_foot, r * np.sin(q2)


@dataclass(frozen=True)
class GraphDomain:
    """Rectangular chart window with optional node mask.

    bounds = ((q1_lo, q1_hi), (q2_lo, q2_hi)); shape = (n1, n2) node counts.
    The mask marks nodes that belong to the domain (default: all of them).
    """

    chart: Chart
    bounds: tuple[tuple[float, float], tuple[float, float]]
    shape: tuple[int, int]
    axis_foot: float = 1.0
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        (a1, b1), (a2, b2) = self.bounds
        require_finite("graph domain", q1_lo=a1, q1_hi=b1, q2_lo=a2, q2_hi=b2, axis_foot=self.axis_foot)
        n1, n2 = self.shape
        if n1 < 2 or n2 < 2:
            raise ParameterError("domain needs at least 2 nodes per direction")
        if not (b1 > a1 and b2 > a2):
            raise ParameterError("domain bounds must be increasing")
        if self.chart is Chart.HALFPLANE_XY and a2 <= BOUNDARY_MARGIN:
            raise InvalidPointError("half-plane window must stay above y = 0")
        if self.chart is Chart.DISC_POLAR and a1 <= _EDGE_KEEPOUT:
            raise InvalidPointError("polar window must exclude the coordinate center")
        if self.chart is Chart.HALFPLANE_IDEAL_POLAR and not (
            a2 > _EDGE_KEEPOUT and b2 < math.pi - _EDGE_KEEPOUT
        ):
            raise InvalidPointError("wedge angles must lie strictly inside (0, pi)")
        if self.mask is not None:
            m = np.asarray(self.mask, dtype=bool)
            if m.shape != (n1, n2):
                raise ParameterError("mask shape must match the node grid")
            object.__setattr__(self, "mask", m)
        if self.chart is Chart.DISC_XY:  # masked nodes may lie off the disc
            require_nodes_in_model(self.model, *self.axes(), self.mask)

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        (a1, b1), (a2, b2) = self.bounds
        return np.linspace(a1, b1, self.shape[0]), np.linspace(a2, b2, self.shape[1])

    def steps(self) -> tuple[float, float]:
        (a1, b1), (a2, b2) = self.bounds
        return (b1 - a1) / (self.shape[0] - 1), (b2 - a2) / (self.shape[1] - 1)

    def node_grids(self) -> tuple[np.ndarray, np.ndarray]:
        q1, q2 = self.axes()
        return np.meshgrid(q1, q2, indexing="ij")

    def active_mask(self) -> np.ndarray:
        if self.mask is None:
            return np.ones(self.shape, dtype=bool)
        return self.mask

    def interior_mask(self) -> np.ndarray:
        """Nodes whose full 3x3 stencil neighborhood is active."""
        act = self.active_mask()
        interior = np.zeros_like(act)
        block = (
            act[:-2, :-2] & act[:-2, 1:-1] & act[:-2, 2:]
            & act[1:-1, :-2] & act[1:-1, 1:-1] & act[1:-1, 2:]
            & act[2:, :-2] & act[2:, 1:-1] & act[2:, 2:]
        )
        interior[1:-1, 1:-1] = block
        return interior

    @property
    def model(self) -> Model:
        return _CHART_MODEL[self.chart]

    def base_grids(self) -> tuple[np.ndarray, np.ndarray]:
        g1, g2 = self.node_grids()
        return chart_to_base(self.chart, self.axis_foot, g1, g2)


@dataclass(frozen=True)
class GraphFunction:
    """Node values of a vertical graph over a chart window."""

    domain: GraphDomain
    values: np.ndarray
    tau: float

    def __post_init__(self) -> None:
        require_finite("graph", tau=self.tau)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.domain.shape:
            raise ParameterError("value grid shape must match the domain")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_base_callable(
        cls, domain: GraphDomain, tau: float, f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ) -> "GraphFunction":
        x, y = domain.base_grids()
        return cls(domain, np.asarray(f(x, y), dtype=float), tau)

    @classmethod
    def constant(cls, domain: GraphDomain, tau: float, value: float) -> "GraphFunction":
        return cls(domain, np.full(domain.shape, float(value)), tau)


def reference_problem(kind: str, tau: float, d: float, s: float, n: int) -> GraphFunction:
    """Chart window and node values of a Dirichlet problem on an n x n grid.

    The values are an exact minimal graph for "zero", "catenoid" and
    "invariant"; "wild" gives boundary data only, the steep 50 sin(9x) / y
    on a half-plane window.
    """
    if kind == "zero":
        domain = GraphDomain(Chart.DISC_XY, ((-0.4, 0.4), (-0.4, 0.4)), (n, n))
        return GraphFunction.constant(domain, tau, 0.0)
    if kind == "wild":
        domain = GraphDomain(Chart.HALFPLANE_XY, ((-1.0, 1.0), (0.5, 1.5)), (n, n))
        x, y = domain.node_grids()
        return GraphFunction(domain, 50.0 * np.sin(9.0 * x) / y, tau)
    if kind == "catenoid":
        spec = CatenoidSpec(tau, d)
        rmin = catenoid_neck_radius(spec)
        domain = GraphDomain(Chart.DISC_POLAR, ((rmin + 0.3, rmin + 1.3), (0.2, 1.2)), (n, n))
        axis_rho, _ = domain.axes()
        profile = catenoid_profile(spec, axis_rho)
        return GraphFunction(domain, np.tile(profile[:, None], (1, n)), tau)
    if kind == "invariant":
        spec = InvariantSurfaceSpec(tau, d, s)
        theta_hi = invariant_angle_max(d) - 0.25
        domain = GraphDomain(
            Chart.HALFPLANE_IDEAL_POLAR, ((-0.5, 0.5), (0.15, theta_hi)), (n, n), axis_foot=s
        )
        _, axis_theta = domain.axes()
        profile = invariant_profile(spec, Sheet.PLUS, axis_theta)
        return GraphFunction(domain, np.tile(profile[None, :], (n, 1)), tau)
    raise GeometryError(f"no reference problem named {kind!r}")


@dataclass
class CurvatureField:
    domain: GraphDomain
    values: np.ndarray
    interior_mask: np.ndarray

    def sup(self) -> float:
        if not np.any(self.interior_mask):
            raise ParameterError("no interior nodes; domain is thinner than the stencil")
        return float(np.max(np.abs(self.values[self.interior_mask])))


@dataclass(frozen=True)
class AreaReport:
    value: float
    cells: int


@dataclass(frozen=True)
class DouglasReport:
    radius: float
    half_height: float
    cylinder_area: float
    disc_competitor_area: float
    threshold_half_height: float
    annulus_wins: bool


def _node_gradients(values: np.ndarray, h1: float, h2: float) -> tuple[np.ndarray, np.ndarray]:
    u1 = np.gradient(values, h1, axis=0)
    u2 = np.gradient(values, h2, axis=1)
    return u1, u2


def _tilt(root_g1, root_g2, w1, w2, u1, u2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Horizontal coefficients (a, b, W) from the roots sqrt(g1), sqrt(g2) of the
    chart metric, its connection components and the gradient (u1, u2)."""
    a = -(u1 + w1) / root_g1
    b = -(u2 + w2) / root_g2
    return a, b, np.sqrt(1.0 + a * a + b * b)


def horizontal_coefficients(gf: GraphFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Node arrays (a, b, W); gradients are centered inside, one-sided at edges."""
    dom = gf.domain
    h1, h2 = dom.steps()
    q1, q2 = dom.node_grids()
    g1, g2, w1, w2 = chart_coefficients(dom.chart, dom.axis_foot, gf.tau, q1, q2)
    return _tilt(np.sqrt(g1), np.sqrt(g2), w1, w2, *_node_gradients(gf.values, h1, h2))


def graph_nu(gf: GraphFunction) -> np.ndarray:
    """Vertical component of the upward unit normal at the nodes."""
    _, _, w = horizontal_coefficients(gf)
    return 1.0 / w


def hyperbolic_gradient_norm(gf: GraphFunction) -> np.ndarray:
    """Pointwise base-metric norm of the graph's differential."""
    dom = gf.domain
    h1, h2 = dom.steps()
    q1, q2 = dom.node_grids()
    g1, g2, _, _ = chart_coefficients(dom.chart, dom.axis_foot, gf.tau, q1, q2)
    u1, u2 = _node_gradients(gf.values, h1, h2)
    return np.sqrt(u1 * u1 / g1 + u2 * u2 / g2)


def variation(gf: GraphFunction) -> float:
    """Oscillation max u - min u over the active nodes."""
    act = gf.domain.active_mask()
    vals = gf.values[act]
    return float(np.max(vals) - np.min(vals))


class _Family(NamedTuple):
    """One half-edge family of a ``_FluxForm``, on the flat half-edges
    lo..lo + len(root_n)."""

    s_n: int  # flat node step across the edge
    s_t: int  # and along it
    h_n: float
    h_t: float
    lo: int
    root_n: np.ndarray  # sqrt(g_n)
    root_t: np.ndarray  # sqrt(g_t)
    neg_ratio: np.ndarray  # -sqrt(g_t / g_n)
    w_n: np.ndarray
    w_t: np.ndarray


class _FluxForm:
    """The discrete flux form on one chart window and tau.

    Fluxes live on two half-edge families, the vertical one (i+1/2, j) and the
    horizontal one (i, j+1/2).  Both are laid out on the flat row-major node
    index: half-edge e of a family joins nodes e and e + s_n, and runs between
    the nodes e - s_t and e + s_t along it (s_n = n2 and s_t = 1 for the
    vertical family, the other way round for the horizontal one), so one code
    serves both, and every array operation is on contiguous 1-D slices (numpy
    buffers strided 2-D operands).  A family is computed over the flat range
    of half-edges that the rows of the inner box read.  In the boundary
    columns that range wraps from one row to the next, so the half-edges there
    come out as junk, and the residual and Jacobian entries they reach, which
    lie off the inner box, are set to 0.  Half-edges of masked nodes, where the
    chart may blow up (a masked disc window can put a midpoint on the unit
    circle), reach no interior row, so the floating-point warnings are
    silenced.

    A solve builds one form.  It holds each family's chart terms, which the
    window and tau fix: w_n, w_t and the roots sqrt(g_n), sqrt(g_t) and
    -sqrt(g_t / g_n) that the tilt, the flux and the Jacobian read.  It also
    holds the Jacobian field, which every Jacobian overwrites: a fresh field
    per call would be faulted in again each time, since glibc gives blocks of
    64 KiB or more back to the system.  Everything else is a new array per
    call, made one family at a time (``_flux``, ``_add_derivatives``), so the
    arrays of only one family are alive at once.
    """

    @np.errstate(divide="ignore", invalid="ignore")
    def __init__(self, domain: GraphDomain, tau: float) -> None:
        require_finite("flux form", tau=tau)
        # In every chart the connection terms are at most 2 |tau| against the
        # metric root, so flat data tilts by W <= sqrt(1 + 8 tau^2); the
        # Jacobian cubes W.
        tilt = math.sqrt(1.0 + 8.0 * tau * tau)
        if not math.isfinite(tilt * tilt * tilt):
            raise ParameterError(f"flux form at tau = {tau} leaves the float range: its tilt overflows when cubed")
        self.domain = domain
        h1, h2 = domain.steps()
        q1, q2 = domain.axes()
        m1, m2 = 0.5 * (q1[:-1] + q1[1:]), 0.5 * (q2[:-1] + q2[1:])
        vert = chart_coefficients(domain.chart, domain.axis_foot, tau, m1[:, None], q2[None, :])
        g1, g2, w1, w2 = chart_coefficients(domain.chart, domain.axis_foot, tau, q1[:, None], m2[None, :])
        n1, n2 = domain.shape
        size = n1 * n2
        # the inner box's rows, as one flat range of nodes
        self._rows = (n2 + 1, size - n2 - 1)
        self._families: list[_Family] = []
        for (gn, gt, wn, wt), s_n, s_t, hn, ht, block in (
            (vert, n2, 1, h1, h2, np.s_[:-1, :]),
            ((g2, g1, w2, w1), 1, n2, h2, h1, np.s_[:, :-1]),
        ):
            lo, hi = s_t, size - s_n - s_t
            terms = []
            for v, pad in ((np.sqrt(gn), 1.0), (np.sqrt(gt), 1.0), (-np.sqrt(gt / gn), -1.0), (wn, 0.0), (wt, 0.0)):
                full = np.full((n1, n2), pad)  # the padding is the horizontal family's last column
                full[block] = v
                terms.append(full.reshape(-1)[lo:hi])
            self._families.append(_Family(s_n, s_t, hn, ht, lo, *terms))
        self._coef = np.empty((3, 3, n1, n2))

    @staticmethod
    def _half_edges(f: _Family, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The tilt (a_n, a_t, W) of a family from flat node values u, with a
        one-sided gradient across each edge and a centered one along it."""
        count = f.root_n.size

        def shifted(offset: int) -> np.ndarray:  # u at the half-edges' first node plus offset
            return u[f.lo + offset : f.lo + offset + count]

        u_n = (shifted(f.s_n) - shifted(0)) / f.h_n
        u_t = (shifted(f.s_n + f.s_t) + shifted(f.s_t) - shifted(f.s_n - f.s_t) - shifted(-f.s_t)) / (4.0 * f.h_t)
        return _tilt(f.root_n, f.root_t, f.w_n, f.w_t, u_n, u_t)

    @staticmethod
    def _flux(f: _Family, u: np.ndarray) -> np.ndarray:
        """The flux F = sqrt(g_t) a_n / W across a family's half-edges."""
        a_n, _, w = _FluxForm._half_edges(f, u)
        return f.root_t * a_n / w

    @np.errstate(divide="ignore", invalid="ignore")
    def residual(self, values: np.ndarray) -> np.ndarray:
        """Conservative flux divergence of node values: 2 sqrt(g1 g2) H at
        interior nodes, 0 off the inner box."""
        res = np.zeros(self.domain.shape)
        k0, k1 = self._rows
        rows = res.reshape(-1)[k0:k1]
        for f in self._families:
            flux = self._flux(f, np.ravel(values))
            rows += (flux[k0 - f.lo : k1 - f.lo] - flux[k0 - f.s_n - f.lo : k1 - f.s_n - f.lo]) / f.h_n
        res[:, 0] = res[:, -1] = 0.0
        return res

    @np.errstate(divide="ignore", invalid="ignore")
    def jacobian(self, values: np.ndarray) -> np.ndarray:
        """Exact Jacobian of the divergence residual as a (3, 3, n1, n2) coefficient
        field: entry [di + 1, dj + 1, i, j] is d res[i, j] / d u[i + di, j + dj].

        On a half-edge, dF/d(du_n) = -sqrt(g_t / g_n) (1 + a_t^2) / W^3 and
        dF/d(du_t) = a_n a_t / W^3.  The horizontal family fills the transposed
        view of the coefficient field, so one scatter serves both.  The field is
        the form's: valid until its next Jacobian.
        """
        coef = self._coef
        coef.fill(0.0)
        flat = coef.reshape(3, 3, -1)
        for f, view in zip(self._families, (flat, flat.transpose(1, 0, 2))):
            self._add_derivatives(f, np.ravel(values), view)
        coef[..., 0] = coef[..., -1] = 0.0
        return coef

    def _add_derivatives(self, f: _Family, u: np.ndarray, view: np.ndarray) -> None:
        """Add the derivatives of a family's fluxes to the inner box's rows of
        a flat coefficient field (or of its transposed view)."""
        a_n, a_t, w = self._half_edges(f, u)
        w3 = w * w * w
        # d res / d u of the four nodes along the edge (kt) and of the two across it (kn)
        kt = a_n * a_t / (w3 * 4.0 * f.h_n * f.h_t)
        kn = f.neg_ratio * (1.0 + a_t * a_t) / (w3 * f.h_n * f.h_n)
        k0, k1 = self._rows
        below, above = slice(k0 - f.s_n - f.lo, k1 - f.s_n - f.lo), slice(k0 - f.lo, k1 - f.lo)
        n_lo, n_hi, t_lo, t_hi = kn[below], kn[above], kt[below], kt[above]
        t_diff = t_lo - t_hi
        inner = view[:, :, k0:k1]
        inner[0, 1] += n_lo
        inner[1, 1] += -n_lo - n_hi
        inner[2, 1] += n_hi
        inner[0, 0] += t_lo
        inner[1, 0] += t_diff
        inner[2, 0] -= t_hi
        inner[0, 2] -= t_lo
        inner[1, 2] -= t_diff
        inner[2, 2] += t_hi


def _curvature_scale(dom: GraphDomain, tau: float, interior: np.ndarray) -> np.ndarray:
    """2 sqrt(g1 g2) at the interior nodes: the divergence residual there
    divided by this is the mean curvature."""
    q1, q2 = dom.node_grids()
    g1, g2, _, _ = chart_coefficients(dom.chart, dom.axis_foot, tau, q1[interior], q2[interior])
    return 2.0 * np.sqrt(g1 * g2)


def mean_curvature(gf: GraphFunction) -> CurvatureField:
    """Mean curvature of the graph at stencil-interior nodes (NaN elsewhere).

    Exactly zero residual here is the solver's convergence criterion; the two
    share one discrete operator by construction.
    """
    dom = gf.domain
    interior = dom.interior_mask()
    if not np.any(interior):
        raise ParameterError("no interior nodes; domain is thinner than the stencil")
    values = np.full(dom.shape, np.nan)
    res = _FluxForm(dom, gf.tau).residual(gf.values)
    values[interior] = res[interior] / _curvature_scale(dom, gf.tau, interior)
    return CurvatureField(dom, values, interior)


def graph_area(gf: GraphFunction) -> AreaReport:
    """Area of the graph by the midpoint rule over fully active cells."""
    dom = gf.domain
    u = gf.values
    h1, h2 = dom.steps()
    q1_axis, q2_axis = dom.axes()
    c1 = 0.5 * (q1_axis[:-1] + q1_axis[1:])[:, None]
    c2 = 0.5 * (q2_axis[:-1] + q2_axis[1:])[None, :]
    g1, g2, w1, w2 = chart_coefficients(dom.chart, dom.axis_foot, gf.tau, c1, c2)
    u1 = (u[1:, :-1] + u[1:, 1:] - u[:-1, :-1] - u[:-1, 1:]) / (2.0 * h1)
    u2 = (u[:-1, 1:] + u[1:, 1:] - u[:-1, :-1] - u[1:, :-1]) / (2.0 * h2)
    _, _, w = _tilt(np.sqrt(g1), np.sqrt(g2), w1, w2, u1, u2)
    act = dom.active_mask()
    cells = act[:-1, :-1] & act[1:, :-1] & act[:-1, 1:] & act[1:, 1:]
    total = float(np.sum((w * np.sqrt(g1 * g2))[cells]) * h1 * h2)
    return AreaReport(total, int(np.count_nonzero(cells)))


def _area(what: str, area: Callable[[], float], **values: float) -> float:
    """area() of finite, positive values, or ParameterError: also where cosh
    or sinh overflows (OverflowError) or a product rounds to inf."""
    require_finite(what, **values)
    if not all(value > 0.0 for value in values.values()):
        raise ParameterError(f"{what} {' and '.join(values)} must be positive, got {values}")
    try:
        total = area()
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ParameterError(f"{what} area overflows at {values}")
    return total


def disc_area(radius: float) -> float:
    """Hyperbolic area of a disc of hyperbolic radius r: 2 pi (cosh r - 1)."""
    return _area("disc", lambda: 2.0 * math.pi * (math.cosh(radius) - 1.0), radius=radius)


def cylinder_area(radius: float, height: float) -> float:
    """Area of the vertical cylinder over a circle of hyperbolic radius r.

    The fiber direction has unit length and the twisted terms cancel in the
    induced area element, so the area is height * circumference for any tau.
    """
    return _area("cylinder", lambda: 2.0 * math.pi * math.sinh(radius) * height, radius=radius, height=height)


def douglas_check(radius: float, half_height: float) -> DouglasReport:
    """Compare the boundary cylinder of the slab |t| <= half_height with two discs.

    The connected annular competitor beats the pair of horizontal discs
    exactly when half_height < tanh(radius / 2).  Non-finite inputs and
    overflowing areas raise ParameterError (cylinder_area, disc_area).
    """
    cyl = cylinder_area(radius, 2.0 * half_height)
    discs = _area("disc pair", lambda: 2.0 * disc_area(radius), radius=radius)
    # decided by the closed form: at the threshold the two areas agree only up to rounding
    threshold = math.tanh(0.5 * radius)
    return DouglasReport(
        radius=radius,
        half_height=half_height,
        cylinder_area=cyl,
        disc_competitor_area=discs,
        threshold_half_height=threshold,
        annulus_wins=half_height < threshold,
    )


# -- Dirichlet solver ----------------------------------------------------------


@dataclass
class SolveResult:
    graph: GraphFunction
    report: dict


def _harmonic_init(dom: GraphDomain, boundary: np.ndarray, solver: NestedDissection) -> np.ndarray:
    """Chart-Laplacian harmonic extension of the boundary data (solver seed)."""
    (h1, h2), (n1, n2) = dom.steps(), dom.shape
    interior = solver.interior
    lap = np.zeros((3, 3, n1, n2))
    lap[(0, 2), 1], lap[1, (0, 2)] = 1.0 / (h1 * h1), 1.0 / (h2 * h2)
    lap[1, 1] = -2.0 / (h1 * h1) - 2.0 / (h2 * h2)
    out = boundary.copy()
    out[interior] = 0.0
    # the Laplacian of the boundary data alone moves to the right-hand side
    known = sum(
        lap[di, dj, 1:-1, 1:-1] * out[di : n1 - 2 + di, dj : n2 - 2 + dj]
        for di in range(3)
        for dj in range(3)
    )
    out[interior] = solver.factor(lap).solve(-known[interior[1:-1, 1:-1]])
    return out


def solve_dirichlet(
    domain: GraphDomain,
    tau: float,
    boundary_values: np.ndarray,
    max_newton: int = 30,
) -> SolveResult:
    """Solve the minimal graph equation with Dirichlet data on the domain ring.

    Drives the same compact divergence residual that mean_curvature reports
    to zero with a damped Newton iteration that reuses LU factors in its
    local phase (the chord, or Shamanskii, method).  Each Jacobian is the
    closed-form derivative of the flux form, written as a coefficient field
    like the harmonic seed's chart Laplacian, and both are factored by one
    nested-dissection solver whose symbolic phase the solve builds once.  A
    full step (alpha = 1) from a factor keeps it only while it cuts the
    residual norm below _CONTRACTION times the old one; the next pass then
    first tries a full chord step with it.  A rejected chord step drops the factor, and
    the same pass takes a fresh damped Newton step from the same iterate.
    Damped steps never keep their factor.

    The solve builds a ``_FluxForm`` on (domain, tau), which holds the
    half-edge chart terms and the Jacobian field, and the nested-dissection
    solver, whose arena holds the factor.  The iterate, its residual and each
    ``Factor.solve`` step are plain node arrays: a line-search trial copies the
    iterate, moves its interior nodes and takes a new residual, and an
    accepted trial becomes the iterate.

    The report counts loop passes as ``iterations`` (chord steps included,
    bounded by max_newton) and LU factorizations as ``factorizations``.  A
    converged run also counts the pass that found the residual below the
    tolerance, so data that is already minimal reports one iteration after
    no step.  On failure, including a Jacobian with a singular pivot block,
    the result carries converged = False and the residual history instead of
    raising.
    """
    boundary = np.asarray(boundary_values, dtype=float)
    if boundary.shape != domain.shape:
        raise ParameterError("boundary value grid shape must match the domain")
    interior = domain.interior_mask()
    if not np.any(interior):
        raise ParameterError("no interior nodes; domain is thinner than the stencil")

    form = _FluxForm(domain, tau)
    solver = NestedDissection(interior)
    scale = _curvature_scale(domain, tau, interior)

    def trial(values: np.ndarray, delta: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray, float]:
        """The iterate values + alpha delta, its residual and the residual's interior norm."""
        moved = values.copy()
        moved[interior] += alpha * delta
        res = form.residual(moved)
        return moved, res, float(np.linalg.norm(res[interior]))

    # res is always the residual of the current iterate's node values
    values = _harmonic_init(domain, boundary, solver)
    res = form.residual(values)
    history = [float(np.max(np.abs(res[interior] / scale)))]

    factor = None  # a Newton factor, held only while chord steps are enabled
    factorizations = 0
    iterations = 0
    for iterations in range(1, max_newton + 1):
        if history[-1] < _SOLVE_TOL:
            break
        rhs = -res[interior]
        rnorm = float(np.linalg.norm(rhs))
        if factor is not None:
            trial_values, trial_res, tnorm = trial(values, factor.solve(rhs), 1.0)
            if tnorm < _CONTRACTION * rnorm:
                values, res = trial_values, trial_res
                history.append(float(np.max(np.abs(res[interior] / scale))))
                continue
            factor = None  # released before the fresh factor is built
        try:
            factor = solver.factor(form.jacobian(values))
        except np.linalg.LinAlgError:  # a singular pivot block
            break
        factorizations += 1
        delta = factor.solve(rhs)
        if not np.all(np.isfinite(delta)):
            break
        alpha = 1.0
        for _ in range(20):
            trial_values, trial_res, tnorm = trial(values, delta, alpha)
            if tnorm < (1.0 - 1e-4 * alpha) * rnorm:
                values, res = trial_values, trial_res
                break
            alpha *= 0.5
        else:  # no step length reduced the residual norm
            break
        if alpha < 1.0 or tnorm >= _CONTRACTION * rnorm:
            factor = None
        history.append(float(np.max(np.abs(res[interior] / scale))))

    report = {
        "converged": history[-1] < _SOLVE_TOL,
        "factorizations": factorizations,
        "iterations": iterations,
        "max_mean_curvature": history[-1],
        "residual_history": history,
        "tolerance": _SOLVE_TOL,
    }
    return SolveResult(GraphFunction(domain, values, tau), report)
