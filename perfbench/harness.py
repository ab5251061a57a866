"""Runs of one workload: whole passes, the end-to-end metrics of an
untraced run, the per-layer metrics of a traced one."""

import gc
import statistics
import tracemalloc
from time import perf_counter

import numpy as np

from tracing import Tracer
from workloads import REFERENCE_NS, reference_ns


def run_passes(workload, seconds, tracer=None, setups=None):
    """Whole passes, each on a fresh setup, until ``seconds`` have passed.
    Each setup starts from a collected heap, so that garbage left by the
    previous pass does not fall into the timings. With ``setups``, each pass
    is preceded by ``workload.setup_repeats`` timed setups, the last of
    which it plays, so set-up time is sampled across the whole run."""
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        for _ in range(workload.setup_repeats if setups is not None else 1):
            gc.collect()
            before = reference_ns()
            start = perf_counter()
            system = workload.setup(tracer)
            if setups is not None:
                elapsed = perf_counter() - start
                setups.append(2 * elapsed * REFERENCE_NS / (before + reference_ns()))
        passes.append(workload.play(system, tracer))
    return passes


def per_operation_us(passes, attr):
    """Each operation's median time (us) over the complete passes of a run.
    Every pass of a seed repeats the same operations, so the median over
    passes removes what other tenants of the machine add to a single call,
    while a call that is slow every time (a collection, a warm-up round)
    stays slow."""
    full = max(len(getattr(p, attr)) for p in passes)
    rows = [getattr(p, attr) for p in passes if len(getattr(p, attr)) == full]
    return np.median(np.asarray(rows, dtype=np.float64), axis=0) / 1e3


def retained_bytes(workload):
    """Bytes allocated during one pass and still held at its end, which is
    what the program keeps from the pass (the benchmark drops its own
    timings before reading the figure)."""
    gc.collect()
    system = workload.setup()
    tracemalloc.start()
    try:
        pass_ = workload.play(system)
        pass_.predict_ns = pass_.update_ns = pass_.reference_ns = []
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    return retained, pass_


def measure(workload, seconds):
    """End-to-end metrics, untraced; returns (metrics, passes, notes)."""
    setups = []
    passes = run_passes(workload, seconds, setups=setups)
    retained, memory_pass = retained_bytes(workload)
    predict = per_operation_us(passes, "predict_ns")
    update = per_operation_us(passes, "update_ns")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "rounds_per_s": (statistics.median(p.rate for p in passes), "1/s"),
        "predict_us_p50": (float(np.percentile(predict, 50)), "us"),
        "predict_us_p99": (float(np.percentile(predict, 99)), "us"),
        "update_us_p50": (float(np.percentile(update, 50)), "us"),
        "retained_bytes": (retained, "B"),
    }
    notes = [f"{len(passes)} timed passes of {predict.size} predict and "
             f"{update.size} update calls, {len(setups)} setups"]
    return metrics, passes + [memory_pass], notes


def trace(workload, seconds):
    """Per-layer metrics from traced passes that follow untraced ones of the
    same seed; returns (metrics, passes, notes)."""
    untraced = run_passes(workload, seconds / 3)
    tracer = Tracer()
    traced = run_passes(workload, seconds - seconds / 3, tracer)
    metrics = {name: (value, _layer_unit(name))
               for name, value in workload.layers(tracer, traced).items()}
    overhead = (statistics.median(p.rate for p in untraced)
                / statistics.median(p.rate for p in traced))
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    notes = [f"{len(untraced)} untraced and {len(traced)} traced passes"]
    return metrics, untraced + traced, notes


def _layer_unit(name):
    if name.endswith("_us"):
        return "us"
    if name.endswith("_ms"):
        return "ms"
    return "count"


def run_workload(cls, args, workdir):
    """Run one workload, print its notes, metrics and failed checks, and
    return (correct, attempted, failed, metrics)."""
    workload = cls(args.seed, workdir)
    metrics, passes, notes = (trace if args.trace else measure)(workload, args.seconds)
    problems = [f"pass {i + 1}: {msg}" for i, p in enumerate(passes)
                for msg in p.problems]
    digests = sorted({p.digest for p in passes})
    if len(digests) != 1:
        problems.append(f"passes of seed {args.seed} played different points: "
                        f"{len(digests)} distinct hashes")
    for line in [*notes, *sorted({n for p in passes for n in p.notes}),
                 f"played-points sha256 {digests[0]}"]:
        print(f"{cls.name}: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{cls.name}: {name} = {value:.6g} {unit}")
    for msg in problems:
        print(f"{cls.name}: CHECK FAILED: {msg}")
    return (not problems, sum(p.attempted for p in passes),
            sum(p.failed for p in passes), metrics)
