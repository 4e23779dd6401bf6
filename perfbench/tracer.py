"""Thread-aware span recorder that times etau's layers from outside the package.

Each wrapped function is rebound in every namespace where a caller looks the
name up: a function defined in one etau module and imported by others is
replaced in all of them, a method through its class attribute, and a
third-party function (scipy's ``spsolve``, ``minimize``) only in the etau
module that calls it.  Wrapping the defining module alone would miss every
call made through another module's import.

Spans are kept per thread.  Every span records wall time and
``time.thread_time``; its self time is its duration minus what its child
spans on the same thread cover.  Spans on worker threads are never added to
the calling thread's wall time: the per-layer wall decomposition uses the
operation's main thread only, while calls, CPU and wait figures sum over all
threads.  Totals are kept in memory and read once, when the operation ends.

A name that a commit no longer has is reported as missing instead of failing
the run.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import threading
from dataclasses import dataclass
from time import perf_counter, thread_time
from typing import Any, Callable

LAYERS = ("quadrature", "surfaces", "core", "isometries", "lifts", "graphs", "slabs", "meshio", "cli")

# Workload names, as the runner knows them.
SLAB, GRAPH, SURFACE = "slab-audit", "graph-solve", "surface-verify"


# -- counter hooks ---------------------------------------------------------------
#
# A hook receives the calling thread's counter dict.
# ``before`` hooks may replace the call's arguments; ``after`` hooks read the
# result.  Hooks tolerate results of another shape, so an API change in the
# package shows up as a zero counter, not as a crashed run.


def _count_integrand(sums, args, kwargs):
    key = "quadrature.integrand_evals"
    if args:
        f, rest = args[0], args[1:]
    elif "f" in kwargs:
        f, rest = kwargs.pop("f"), ()
    else:
        return args, kwargs

    def counted(x):
        sums[key] = sums.get(key, 0) + 1
        return f(x)

    return (counted, *rest), kwargs


def _count_points(key: str, index: int, axis_len: bool):
    def before(sums, args, kwargs):
        if len(args) > index:
            shape = getattr(args[index], "shape", ())
            n = (shape[0] if shape else 1) if axis_len else math.prod(shape)
            sums[key] = sums.get(key, 0) + n
        return args, kwargs

    return before


def _nfev(key: str):
    def after(sums, args, kwargs, result):
        sums[key] = sums.get(key, 0) + int(getattr(result, "nfev", 0))

    return after


def _newton_iterations(sums, args, kwargs, result):
    report = getattr(result, "report", None)
    if isinstance(report, dict):
        sums["graphs.newton_iterations"] = sums.get("graphs.newton_iterations", 0) + int(
            report.get("iterations", 0)
        )


def _bytes_written(sums, args, kwargs, result):
    if isinstance(result, (str, os.PathLike)) and os.path.isfile(result):
        sums["meshio.bytes_written"] = sums.get("meshio.bytes_written", 0) + os.path.getsize(result)


# -- wrapped names ---------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One wrapped name.

    ``span`` names the timing record (its first part is the layer); several
    targets may share a span.  ``scope`` says where the name is rebound:
    ``package`` in every etau module that binds the same object, ``class``
    on the class named by the dotted ``attr``, ``module`` only in ``module``.
    A target with ``timed`` false records no span and only feeds the counter
    named by ``span``.  ``used_by`` lists the workloads on which the target
    must record at least one call.
    """

    span: str
    module: str
    attr: str
    scope: str = "package"
    used_by: tuple[str, ...] = ()
    timed: bool = True
    before: Callable | None = None
    after: Callable | None = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.attr}"

    @property
    def evidence(self) -> str:
        """The summary value that is nonzero once the target was called."""
        return f"{self.span}.calls" if self.timed else self.span


TARGETS: tuple[Target, ...] = (
    Target("quadrature.adaptive_simpson", "etau.quadrature", "adaptive_simpson",
           used_by=(SURFACE, SLAB), before=_count_integrand),
    Target("quadrature.cumulative_simpson_table", "etau.quadrature", "cumulative_simpson_table",
           used_by=(SURFACE, SLAB)),
    Target("surfaces.catenoid_profile", "etau.surfaces", "catenoid_profile", used_by=(SURFACE, GRAPH, SLAB)),
    Target("surfaces.catenoid_profile_inverse", "etau.surfaces", "catenoid_profile_inverse", used_by=(SLAB,)),
    Target("surfaces.catenoid_height", "etau.surfaces", "catenoid_height", used_by=(SLAB, SURFACE)),
    Target("surfaces.invariant_profile", "etau.surfaces", "invariant_profile", used_by=(SURFACE,)),
    Target("surfaces.invariant_height", "etau.surfaces", "invariant_height", used_by=(SURFACE,)),
    Target("surfaces.foliation_leaf_find", "etau.surfaces", "foliation_leaf_find", used_by=(SURFACE,)),
    Target("surfaces.leaf_search.nfev", "etau.surfaces", "minimize", scope="module", used_by=(SURFACE,),
           timed=False, after=_nfev("surfaces.leaf_search.nfev")),
    Target("surfaces.mesh", "etau.surfaces", "mesh_catenoid", used_by=(SURFACE, SLAB)),
    Target("surfaces.mesh", "etau.surfaces", "mesh_invariant_surface", used_by=(SURFACE,)),
    Target("surfaces.mesh", "etau.surfaces", "leaf_mesh", used_by=(SURFACE,)),
    Target("core.metric_arrays", "etau.core", "metric_arrays", used_by=(SLAB, SURFACE),
           before=_count_points("core.metric_arrays.points", 2, axis_len=False)),
    Target("core.chord_length", "etau.core", "chord_length", used_by=(SURFACE, SLAB)),
    Target("isometries.apply_to_coords", "etau.isometries", "apply_to_coords", used_by=(SLAB,),
           before=_count_points("isometries.apply_to_coords.points", 1, axis_len=True)),
    Target("isometries.pullback_residual", "etau.isometries", "pullback_residual", used_by=(SURFACE,)),
    Target("lifts.horizontal_lift", "etau.lifts", "horizontal_lift", used_by=(SURFACE,)),
    Target("graphs.solve_dirichlet", "etau.graphs", "solve_dirichlet", used_by=(GRAPH,),
           after=_newton_iterations),
    Target("graphs.spsolve", "etau.graphs", "spsolve", scope="module", used_by=(GRAPH,)),
    Target("graphs.mean_curvature", "etau.graphs", "mean_curvature", used_by=(SURFACE, GRAPH)),
    Target("slabs.build", "etau.slabs", "build_example1", used_by=(SLAB,)),
    Target("slabs.build", "etau.slabs", "build_example2", used_by=(SLAB,)),
    Target("slabs.sample_interior_points", "etau.slabs", "sample_interior_points", used_by=(SLAB,)),
    Target("slabs.controls", "etau.slabs", "with_shrunken_annuli", used_by=(SLAB,)),
    Target("slabs.controls", "etau.slabs", "with_overlapping_graphs", used_by=(SLAB,)),
    Target("slabs.placement", "etau.slabs", "CatenoidAnnulusGenerator.__call__", scope="class", used_by=(SLAB,)),
    Target("slabs.distance_to", "etau.slabs", "AnnulusInstance.distance_to", scope="class", used_by=(SLAB,)),
    Target("slabs.distance_to.nfev", "etau.slabs", "minimize", scope="module", used_by=(SLAB,),
           timed=False, after=_nfev("slabs.distance_to.nfev")),
    Target("slabs.edge_length_spectrum", "etau.slabs", "edge_length_spectrum", used_by=(SLAB,)),
    Target("slabs.boundary_coords", "etau.slabs", "AnnulusInstance.boundary_coords", scope="class",
           used_by=(SLAB,)),
    Target("slabs.check_annulus_family", "etau.slabs", "check_annulus_family", used_by=(SLAB,)),
    Target("meshio.write_obj", "etau.meshio", "write_obj", used_by=(SURFACE,), after=_bytes_written),
    Target("meshio.write_nu_csv", "etau.meshio", "write_nu_csv", used_by=(SURFACE,), after=_bytes_written),
    Target("meshio.write_json_report", "etau.meshio", "write_json_report", used_by=(SURFACE, GRAPH)),
    Target("cli.main", "etau.cli", "main", used_by=(SURFACE, GRAPH)),
)

# Per-layer metrics, in the order BENCHMARK.json lists them: (name, unit, better).
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("quadrature.adaptive_simpson.calls", "count", "lower"),
    ("quadrature.integrand_evals", "count", "lower"),
    ("quadrature.adaptive_simpson.cpu_s", "s", "lower"),
    ("quadrature.cumulative_simpson_table.calls", "count", "lower"),
    ("quadrature.cumulative_simpson_table.cpu_s", "s", "lower"),
    ("surfaces.catenoid_profile.calls", "count", "lower"),
    ("surfaces.catenoid_profile.cpu_s", "s", "lower"),
    ("surfaces.catenoid_profile_inverse.calls", "count", "lower"),
    ("surfaces.catenoid_profile_inverse.cpu_s", "s", "lower"),
    ("surfaces.catenoid_profile_inverse.wait_s", "s", "lower"),
    ("surfaces.catenoid_height.calls", "count", "lower"),
    ("surfaces.catenoid_height.cpu_s", "s", "lower"),
    ("surfaces.invariant_profile.calls", "count", "lower"),
    ("surfaces.invariant_profile.cpu_s", "s", "lower"),
    ("surfaces.invariant_height.calls", "count", "lower"),
    ("surfaces.invariant_height.cpu_s", "s", "lower"),
    ("surfaces.foliation_leaf_find.calls", "count", "lower"),
    ("surfaces.foliation_leaf_find.cpu_s", "s", "lower"),
    ("surfaces.leaf_search.nfev", "count", "lower"),
    ("surfaces.mesh.cpu_s", "s", "lower"),
    ("core.metric_arrays.calls", "count", "lower"),
    ("core.metric_arrays.points", "count", "lower"),
    ("core.metric_arrays.cpu_s", "s", "lower"),
    ("core.chord_length.calls", "count", "lower"),
    ("core.chord_length.cpu_s", "s", "lower"),
    ("isometries.apply_to_coords.calls", "count", "lower"),
    ("isometries.apply_to_coords.points", "count", "lower"),
    ("isometries.apply_to_coords.cpu_s", "s", "lower"),
    ("isometries.pullback_residual.calls", "count", "lower"),
    ("isometries.pullback_residual.cpu_s", "s", "lower"),
    ("lifts.horizontal_lift.calls", "count", "lower"),
    ("lifts.horizontal_lift.cpu_s", "s", "lower"),
    ("graphs.solve_dirichlet.cpu_s", "s", "lower"),
    ("graphs.newton_iterations", "count", "lower"),
    ("graphs.spsolve.calls", "count", "lower"),
    ("graphs.spsolve.cpu_s", "s", "lower"),
    ("graphs.mean_curvature.calls", "count", "lower"),
    ("graphs.mean_curvature.cpu_s", "s", "lower"),
    ("slabs.build.cpu_s", "s", "lower"),
    ("slabs.placement.calls", "count", "lower"),
    ("slabs.placement.cpu_s", "s", "lower"),
    ("slabs.placement.wait_s", "s", "lower"),
    ("slabs.distance_to.calls", "count", "lower"),
    ("slabs.distance_to.cpu_s", "s", "lower"),
    ("slabs.distance_to.wait_s", "s", "lower"),
    ("slabs.distance_to.nfev", "count", "lower"),
    ("slabs.edge_length_spectrum.calls", "count", "lower"),
    ("slabs.edge_length_spectrum.cpu_s", "s", "lower"),
    ("slabs.boundary_coords.cpu_s", "s", "lower"),
    ("slabs.check_annulus_family.s", "s", "lower"),
    ("slabs.spectra_deviation_max", "length", "lower"),
    ("slabs.distance_max", "length", "lower"),
    ("graphs.sup_error_vs_exact", "length", "lower"),
    ("meshio.write_obj.cpu_s", "s", "lower"),
    ("meshio.write_nu_csv.cpu_s", "s", "lower"),
    ("meshio.bytes_written", "bytes", "lower"),
    ("meshio.write_json_report.cpu_s", "s", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.missing", "count", "lower"),
)


# -- recorder --------------------------------------------------------------------


class _ThreadState:
    __slots__ = ("main", "stack", "spans", "sums", "top_wall")

    def __init__(self, main: bool) -> None:
        self.main = main
        self.stack: list[list[float]] = []  # per open span: [child wall, child cpu]
        self.spans: dict[str, list[float]] = {}  # span -> [calls, wall, cpu, self wall, self cpu]
        self.sums: dict[str, float] = {}
        self.top_wall = 0.0  # wall time of outermost spans (main thread decomposition)


class Recorder:
    """Collects spans and counters of one process; install() wraps the targets."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.missing: list[str] = []
        self.installed: list[Target] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._main_ident = threading.get_ident()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = _ThreadState(threading.get_ident() == self._main_ident)
            self._local.state = st
            with self._lock:
                self._states.append(st)
        return st

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        span, before, after, timed = target.span, target.before, target.after, target.timed
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st = state()
            if before is not None:
                args, kwargs = before(st.sums, args, kwargs)
            if not timed:
                result = fn(*args, **kwargs)
            else:
                frame = [0.0, 0.0]
                st.stack.append(frame)
                w0, c0 = perf_counter(), thread_time()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    wall, cpu = perf_counter() - w0, thread_time() - c0
                    st.stack.pop()
                    if st.stack:
                        parent = st.stack[-1]
                        parent[0] += wall
                        parent[1] += cpu
                    else:
                        st.top_wall += wall
                    rec = st.spans.get(span)
                    if rec is None:
                        rec = st.spans[span] = [0, 0.0, 0.0, 0.0, 0.0]
                    rec[0] += 1
                    rec[1] += wall
                    rec[2] += cpu
                    rec[3] += wall - frame[0]
                    rec[4] += cpu - frame[1]
            if after is not None:
                after(st.sums, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner: Any, name: str, value: Any) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every target that exists; record the others in ``missing``."""
        # Import every module first: a module imported after the wrapping
        # would bind the wrappers through its own imports, and uninstall
        # could not restore it.
        modules = {}
        for name in dict.fromkeys(t.module for t in self.targets):
            try:
                modules[name] = importlib.import_module(name)
            except ImportError:
                modules[name] = None
        for target in self.targets:
            module = modules[target.module]
            if module is None:
                self.missing.append(target.label)
                continue
            if target.scope == "class":
                cls_name, _, meth = target.attr.partition(".")
                cls = getattr(module, cls_name, None)
                fn = vars(cls).get(meth) if isinstance(cls, type) else None
                if not callable(fn):
                    self.missing.append(target.label)
                    continue
                self._patch(cls, meth, self._wrap(target, fn))
            else:
                fn = getattr(module, target.attr, None)
                if not callable(fn):
                    self.missing.append(target.label)
                    continue
                wrapper = self._wrap(target, fn)
                owners = [module]
                if target.scope == "package":
                    owners = [
                        m for name, m in sorted(sys.modules.items())
                        if m is not None and (name == "etau" or name.startswith("etau."))
                    ]
                for owner in owners:
                    for key, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, key, wrapper)
            self.installed.append(target)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patches):
            setattr(owner, name, value)
        self._patches.clear()

    def summary(self, op_wall: float) -> dict:
        """Merged totals of all threads, as a JSON-ready dict of flat values.

        ``op_wall`` is the traced operation's wall time on the main thread;
        the layers' main-thread self times plus ``trace.unattributed_s`` add
        up to it.
        """
        values: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        top_wall = 0.0
        with self._lock:
            states = list(self._states)
        for st in states:
            for span, (calls, wall, cpu, self_wall, self_cpu) in st.spans.items():
                values[f"{span}.calls"] = values.get(f"{span}.calls", 0) + calls
                values[f"{span}.cpu_s"] = values.get(f"{span}.cpu_s", 0.0) + self_cpu
                values[f"{span}.wait_s"] = values.get(f"{span}.wait_s", 0.0) + max(self_wall - self_cpu, 0.0)
                if st.main:
                    values[f"{span}.s"] = values.get(f"{span}.s", 0.0) + wall
                    layer = span.split(".", 1)[0]
                    layer_self[layer] = layer_self.get(layer, 0.0) + self_wall
            for key, value in st.sums.items():
                values[key] = values.get(key, 0) + value
            if st.main:
                top_wall += st.top_wall
        for layer, value in layer_self.items():
            values[f"{layer}.self_s"] = value
        values["trace.unattributed_s"] = op_wall - top_wall
        values["trace.wall_s"] = op_wall
        values["trace.missing"] = len(self.missing)
        return {"values": values, "missing": list(self.missing)}
