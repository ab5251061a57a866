"""Benchmark of the ocoboost boosting round, end to end and by layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without --workload every workload runs in turn. With --trace 0 a run
reports the end-to-end metrics; with --trace 1 it plays the same seed
untraced and traced, checks that both play the same points, and reports
the per-layer metrics. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ocoboost" / "__init__.py").is_file():
        print(f"perfbench: no ocoboost sources under {SRC}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one thread, set before numpy loads
    sys.path.insert(0, str(SRC))
    from harness import run_workload
    from workloads import WORKLOADS

    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    workdir = HERE / ".work" / str(os.getpid())
    results = {}
    try:
        for name in names:
            results[name] = run_workload(WORKLOADS[name], args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    def metric_json(metrics, prefix=""):
        return {f"{prefix}{name}": {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()}

    if args.workload:
        correct, attempted, failed, metrics = results[args.workload]
        out_metrics = metric_json(metrics)
    else:
        correct = all(r[0] for r in results.values())
        attempted = sum(r[1] for r in results.values())
        failed = sum(r[2] for r in results.values())
        out_metrics = {}
        for name, r in results.items():
            out_metrics.update(metric_json(r[3], f"{name}/"))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
