"""Self-tests of the benchmark's wrappers and its BENCHMARK.json.

Run from the repository root:  python3 -m pytest -q perfbench/tests

``test_wrapper_coverage`` runs every workload once, traced, through the same
child processes as the benchmark (one to two minutes on 2 cores).
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)


def test_every_timed_span_has_per_layer_metrics():
    names = {name for name, _, _ in tracer.PER_LAYER}
    for target in tracer.TARGETS:
        assert target.span.split(".", 1)[0] in tracer.LAYERS
        if not target.timed:
            assert target.span in names


def test_missing_names_are_reported_not_fatal():
    targets = (
        tracer.Target("quadrature.no_such_function", "etau.quadrature", "no_such_function"),
        tracer.Target("slabs.gone", "etau.slabs", "AnnulusInstance.no_such_method", scope="class"),
        tracer.Target("nomodule.f", "etau.no_such_module", "f"),
        *tracer.TARGETS,
    )
    recorder = tracer.Recorder(targets)
    recorder.install()
    try:
        assert recorder.missing == [
            "etau.quadrature.no_such_function",
            "etau.slabs.AnnulusInstance.no_such_method",
            "etau.no_such_module.f",
        ]
        assert len(recorder.installed) == len(tracer.TARGETS)
        summary = recorder.summary(0.0)
        assert summary["values"]["trace.missing"] == 3
    finally:
        recorder.uninstall()


def test_names_are_rebound_where_callers_look_them_up():
    import etau
    from etau import cli, surfaces

    original = surfaces.catenoid_profile
    recorder = tracer.Recorder()
    recorder.install()
    try:
        assert surfaces.catenoid_profile is not original
        assert cli.catenoid_profile is surfaces.catenoid_profile is etau.catenoid_profile
        spec = surfaces.CatenoidSpec(0.0, 1.0)
        etau.catenoid_profile_inverse(spec, 0.5)
        values = recorder.summary(1.0)["values"]
        # the inverse's internal profile calls are recorded as its children
        assert values["surfaces.catenoid_profile.calls"] > 10
        assert values["surfaces.catenoid_profile_inverse.calls"] == 1
        assert values["quadrature.integrand_evals"] > values["quadrature.adaptive_simpson.calls"]
    finally:
        recorder.uninstall()
    assert surfaces.catenoid_profile is original and cli.catenoid_profile is original


def test_pool_threads_do_not_add_to_the_callers_wall_time():
    fake = types.ModuleType("perfbench_fake_layer")

    def work(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    def outer():
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(fake.work, [0.05] * 8))

    fake.work, fake.outer = work, outer
    sys.modules[fake.__name__] = fake
    targets = (
        tracer.Target("slabs.outer", fake.__name__, "outer", scope="module"),
        tracer.Target("slabs.work", fake.__name__, "work", scope="module"),
    )
    recorder = tracer.Recorder(targets)
    recorder.install()
    try:
        start = time.perf_counter()
        fake.outer()
        op_wall = time.perf_counter() - start
    finally:
        recorder.uninstall()
        del sys.modules[fake.__name__]
    values = recorder.summary(op_wall)["values"]
    assert values["slabs.work.calls"] == 8
    # worker spans add up to at least 8 x 50 ms of wall time; the caller saw less
    assert values["slabs.work.cpu_s"] + values["slabs.work.wait_s"] > values["slabs.outer.s"]
    assert values["slabs.outer.s"] <= op_wall
    layer_sum = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layer_sum + values["trace.unattributed_s"] == pytest.approx(op_wall, abs=1e-9)
    assert values["slabs.self_s"] == pytest.approx(values["slabs.outer.s"], abs=1e-9)


def test_speed_sampler_samples_during_an_operation():
    import child

    with child.SpeedSampler() as speed:
        start = time.perf_counter()
        while time.perf_counter() - start < 2.5:
            pass
        elapsed = time.perf_counter() - start
    assert len(speed.samples) >= 2
    assert 0.0 < speed.spent < 0.5 * elapsed


def test_wrapper_coverage():
    runner = run.Runner(seed=0, deadline=time.monotonic() + 600.0)
    run.WORKDIR.mkdir(exist_ok=True)
    try:
        for workload in WORKLOADS:
            results = runner.run_pass(workload, trace=1)
            assert [r.get("errors") for r in results] == [[] for _ in results], workload
            values, missing = run.merge_traces(results)
            assert missing == []
            for target in tracer.TARGETS:
                if workload in target.used_by:
                    assert values.get(target.evidence, 0) > 0, (workload, target.label)
            layer_sum = sum(values[f"{layer}.self_s"] for layer in tracer.LAYERS)
            assert layer_sum + values["trace.unattributed_s"] == pytest.approx(values["trace.wall_s"])
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
