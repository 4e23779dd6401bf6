"""Run one benchmark operation in a fresh interpreter and print its result.

Usage: python3 perfbench/child.py OP --seed N --trace 0|1 --src DIR

OP is an operation name from ``workloads.py``, or ``setup`` to measure only
interpreter start plus the package import.  The etau package must come from DIR.
The last stdout line is one JSON object; the parent reads ``ready`` (the
monotonic clock right after the package import) to compute set-up time.
"""

import time  # noqa: I001 -- timing starts before the package import

import etau
import etau.cli  # the CLI module imports the rest of the package

READY = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import tracer  # noqa: E402
from workloads import OPS  # noqa: E402


def reference_rep() -> float:
    """CPU seconds of one fixed piece of interpreter and numpy work (about 20 ms).

    Thread CPU time, so that waiting for the interpreter lock while the
    package's own threads run does not count as a slower machine.
    """
    start = time.thread_time()
    total = 0.0
    for k in range(60_000):
        total += k * 0.5
    x = numpy.linspace(0.0, 1.0, 50_000)
    for _ in range(24):
        x = numpy.sqrt(numpy.sin(x) ** 2 + 1.0) * 0.5
    return time.thread_time() - start


class SpeedSampler:
    """Times ``reference_rep`` about once a second while an operation runs.

    The machine's speed drifts within one long operation, so the reference
    is sampled throughout it, from SIGALRM on the main thread.  ``spent`` is
    the CPU time the samples took; the caller subtracts it from the
    operation's time.  A signal that arrives during a sample is dropped.
    """

    PERIOD_S = 1.0

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.samples.append(reference_rep())
            self.spent += self.samples[-1]
        finally:
            self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("op", choices=["setup", *OPS])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--src", required=True)
    args = ap.parse_args()

    package_dir = os.path.realpath(os.path.join(args.src, "etau"))
    if os.path.dirname(os.path.realpath(etau.__file__)) != package_dir:
        print(json.dumps({"ready": READY, "errors": [f"etau imported from {etau.__file__}, not {package_dir}"]}))
        return 1

    result: dict = {
        "ready": READY,
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    # The runner rescales this child's times by the mean of its reference
    # timings: the mean of fifteen before the operation, one a second during
    # it, and the mean of fifteen after it.  Each entry stands for about a
    # second, so a long operation is rescaled by the speed it ran at.
    references = [statistics.mean(reference_rep() for _ in range(15))]
    if args.op != "setup":
        recorder = tracer.Recorder() if args.trace else None
        if recorder is not None:
            recorder.install()
        # Traced passes report unscaled per-layer times, so they are not sampled.
        sampler = SpeedSampler() if recorder is None else contextlib.nullcontext(SpeedSampler())
        with sampler as speed:
            start = time.perf_counter()
            try:
                outcome = OPS[args.op](args.seed)
            except Exception as exc:  # an operation that raises counts as failed
                outcome = {"errors": [f"{type(exc).__name__}: {exc}"], "sha256": None, "accuracy": {}}
            elapsed = time.perf_counter() - start
        result["op_s"] = elapsed - speed.spent
        references += [*speed.samples, statistics.mean(reference_rep() for _ in range(15))]
        result.update(outcome)
        if recorder is not None:
            summary = recorder.summary(result["op_s"])
            summary["values"].update(outcome["accuracy"])
            result["trace"] = summary
    result["reference_s"] = references
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
