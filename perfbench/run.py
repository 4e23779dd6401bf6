"""etau benchmark: closed loop, one client, one fresh interpreter per operation.

Usage:
    python3 perfbench/run.py --workload slab-audit|graph-solve|surface-verify|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout that holds ``src/etau``.  The runner starts
one child interpreter per operation, one at a time, and adds no threads of
its own; the package's own thread pool runs inside the child.  Each child
times its operation from after ``import etau`` until it has verified the
result, so every operation starts with cold ``lru_cache`` tables, as a CLI
user's does.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median over passes
of one pass's summed operation times), ``setup_s`` (median interpreter start
plus package import over the run's children, including set-up probes) and
``peak_rss_mb`` (largest child peak RSS).  Both times are rescaled to a
nominal machine speed (see ``scaled``).  ``--trace 1`` runs one untraced and
one traced pass and reports the per-layer metrics of ``tracer.py``.  Passes
repeat until ``--seconds`` have passed; a pass always completes.

Wall time depends on the seed: compare only runs that used the same seed.
The last stdout line is the JSON result; the lines before it are a readable
report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 7  # set-up-only children top up the first pass's children to this many
RUN_BUDGET_S = 170.0  # a run must exit within 180 s
# BLAS and OpenMP thread counts of the children, fixed so that two commits
# are measured with the same library threading.
THREAD_ENV = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
ACCURACY = ("slabs.spectra_deviation_max", "slabs.distance_max", "graphs.sup_error_vs_exact")
# CPU time of the children's reference work (child.reference_rep) at the
# machine speed the reported seconds refer to; see scaled().
REFERENCE_NOMINAL_S = 0.02

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Runner:
    """Schedules child operations of one benchmark invocation."""

    def __init__(self, seed: int, deadline: float) -> None:
        self.seed = seed
        self.deadline = deadline
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(SRC)}
        self.timed_out = False
        self.versions: dict = {}

    def child(self, op: str, trace: int, cwd: Path) -> dict:
        """Run one child; a crash or a timeout becomes a result with errors."""
        cmd = [sys.executable, str(HERE / "child.py"), op, "--seed", str(self.seed),
               "--trace", str(trace), "--src", str(SRC)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=cwd, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            self.timed_out = True
            return {"op": op, "errors": ["timeout"]}
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"op": op, "errors": [f"child exited {proc.returncode}: {tail[0]}"]}
        result["op"] = op
        result["setup_s"] = result["ready"] - spawned
        self.versions = self.versions or result.get("versions", {})
        return result

    def run_pass(self, workload: str, trace: int) -> list[dict]:
        results = []
        for op in WORKLOADS[workload]:
            if self.timed_out:
                results.append({"op": op, "errors": ["not run: the run's time budget was spent"]})
                continue
            cwd = WORKDIR / op
            cwd.mkdir(parents=True, exist_ok=True)
            results.append(self.child(op, trace, cwd))
        return results


def check_repeats(passes: list[list[dict]]) -> None:
    """Mark an operation failed when its CLI report differs from its first run."""
    first: dict[str, str] = {}
    for results in passes:
        for r in results:
            sha = r.get("sha256")
            if sha is None:
                continue
            if first.setdefault(r["op"], sha) != sha:
                r.setdefault("errors", []).append("report bytes differ from an earlier repeat")


def scaled(r: dict, key: str) -> float:
    """A child's time ``r[key]`` rescaled to the nominal machine speed.

    The speed of a shared machine drifts by tens of percent within minutes,
    for all code alike.  Each child times a fixed reference work before,
    during and after what it measures (``child.main``); dividing by their
    mean removes most of that drift from the end-to-end metrics.
    """
    return r[key] * REFERENCE_NOMINAL_S / statistics.mean(r["reference_s"])


def pass_wall(results: list[dict], scale: bool) -> float:
    return sum(scaled(r, "op_s") if scale else r["op_s"] for r in results if "op_s" in r)


def merge_traces(results: list[dict]) -> tuple[dict[str, float], list[str]]:
    values: dict[str, float] = {}
    missing: set[str] = set()
    for r in results:
        trace = r.get("trace")
        if trace is None:
            continue
        missing.update(trace["missing"])
        for key, value in trace["values"].items():
            values[key] = max(values.get(key, 0.0), value) if key in ACCURACY else values.get(key, 0) + value
    values["trace.missing"] = len(missing)
    return values, sorted(missing)


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    runner = Runner(seed, time.monotonic() + RUN_BUDGET_S)
    probes: list[dict] = []
    passes: list[list[dict]] = []
    if trace:
        passes = [runner.run_pass(workload, 0), runner.run_pass(workload, 1)]
    else:
        probes = [runner.child("setup", 0, WORKDIR) for _ in range(SETUP_SAMPLES - len(WORKLOADS[workload]))]
        measure_start = time.monotonic()
        while True:
            pass_start = time.monotonic()
            passes.append(runner.run_pass(workload, 0))
            now = time.monotonic()
            if runner.timed_out or now - measure_start >= seconds or now + (now - pass_start) > runner.deadline:
                break
    check_repeats(passes)
    ops = [r for results in passes for r in results]
    children = probes + ops
    failed = sum(1 for r in ops if r.get("errors"))
    walls = [pass_wall(results, scale=False) for results in passes]
    out = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": len(ops),
        "failed": failed,
        "fail_frac": failed / len(ops),
        "passes": len(passes),
        "pass_wall_s": walls,
        "ops": [{"op": r["op"], "op_s": r.get("op_s"), "setup_s": r.get("setup_s"),
                 "reference_mean_s": statistics.mean(r["reference_s"]) if "reference_s" in r else None,
                 "peak_rss_mb": r.get("peak_rss_mb"), "errors": r.get("errors", [])} for r in ops],
        "machine": {"nproc": os.cpu_count(), **runner.versions, "threads": THREAD_ENV},
    }
    setups = [r["setup_s"] for r in children if "setup_s" in r]
    rss = [r["peak_rss_mb"] for r in children if "peak_rss_mb" in r]
    out["wall_unscaled_s"] = statistics.median(walls)
    out["setup_unscaled_s"] = statistics.median(setups) if setups else 0.0
    if trace:
        values, missing = merge_traces(passes[1])
        values["trace.overhead_s"] = walls[1] - walls[0]
        out["missing"] = missing
        out["metrics"] = {name: {"value": values.get(name, 0), "unit": unit} for name, unit, _ in tracer.PER_LAYER}
    else:
        e2e = {
            "wall_s": statistics.median(pass_wall(results, scale=True) for results in passes),
            "setup_s": statistics.median([scaled(r, "setup_s") for r in children if "setup_s" in r] or [0.0]),
            "peak_rss_mb": max(rss, default=0.0),
        }
        out["metrics"] = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    return out


def print_report(out: dict) -> None:
    m = out["machine"]
    print(f"workload {out['workload']}  seed {out['seed']}  trace {out['trace']}  passes {out['passes']}  "
          f"nproc {m['nproc']}  python {m.get('python')}  numpy {m.get('numpy')}  scipy {m.get('scipy')}  "
          f"threads {m['threads']}")
    for r in out["ops"]:
        status = "ok" if not r["errors"] else "FAIL " + "; ".join(r["errors"])
        op_s = f"{r['op_s']:.3f}" if r["op_s"] is not None else "-"
        print(f"  {r['op']:30s} op {op_s:>8s} s  {status}")
    for name, metric in out["metrics"].items():
        print(f"  {out['workload']} {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  {out['workload']} fail_frac = {out['fail_frac']:.6g} 1")
    print(f"  unscaled: wall {out['wall_unscaled_s']:.6g} s, setup {out['setup_unscaled_s']:.6g} s")
    if out.get("missing"):
        print(f"  missing wrapped names: {', '.join(out['missing'])}")
    print("REPORT " + json.dumps(out, sort_keys=True))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "etau" / "__init__.py").is_file():
        print(f"no etau package under {SRC}: run from the root of an etau checkout", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    WORKDIR.mkdir(exist_ok=True)
    try:
        for workload in workloads:
            out = run_workload(workload, args.seed, args.seconds, args.trace)
            print_report(out)
            results.append(out)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{out['workload']}.{name}": metric for out in results for name, metric in out["metrics"].items()}
    attempted = sum(out["attempted"] for out in results)
    failed = sum(out["failed"] for out in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
