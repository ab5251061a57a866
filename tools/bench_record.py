"""Record, compare or pair runs of the benchmark.

A record is the benchmark of one source tree in a BENCH_<n>.json file;
two records compare; pairs time a change against its parent checkout.

    python3 tools/bench_record.py BENCH_<n>.json [--root DIR]
    python3 tools/bench_record.py --compare BENCH_<m>.json BENCH_<n>.json
    python3 tools/bench_record.py --pairs N --parent DIR [--seed S] [--root DIR]

Recording runs ``python3 perfbench/run.py --seconds 20 --seed 0`` in the
checkout DIR (default: the one holding this script), first with --trace 0
and then with --trace 1. The file keeps the git hashes of the checkout's
``src`` and ``perfbench`` trees, the line count of ``src/ocoboost/**/*.py``
(as ``wc -l`` counts), the seed, the seconds, the Python and numpy
versions, both runs' last JSON lines (the end-to-end and the per-layer
metrics), each workload's played-points digest and its checked outputs.

Comparing prints both line counts ("n/a" for a file without one) and each
metric's ratio new/old, marks an end-to-end metric that is worse than its
``BENCHMARK.json`` bound, and names every digest and checked output that
changed. It exits with status 1 if a digest changed.

Pairing runs the untraced benchmark (``--seconds 20``, seed S, default 0)
N times in the parent checkout DIR and N times in the ``--root``
checkout, one of each per pair, with the parent first in every other
pair. For each workload and metric it prints the parent's median and
quartiles, the change's median, their ratio and the pairs the change won
(by the metric's ``better`` in ``BENCHMARK.json``; a tie counts for
neither side), then the operations that failed and whether any run played
other points than the parent's first. It exits with status 1 if one did.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SECONDS, SEED = 20.0, 0  # of every recording, so that any two BENCH files compare
# "<workload>: <note>" lines of perfbench/run.py that are not checked outputs
_NOT_CHECKS = re.compile(r" = |played-points sha256|passes|CHECK FAILED")


def _git(root, *args, env=None):
    return subprocess.run(["git", *args], cwd=root, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def tree_hashes(root: Path) -> dict:
    """The git hashes of the working tree's ``src`` and ``perfbench`` trees,
    uncommitted changes included, written through a temporary index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        _git(root, "add", "-A", "src", "perfbench", env=env)
        tree = _git(root, "write-tree", env=env)
    return {part: _git(root, "rev-parse", f"{tree}:{part}")
            for part in ("src", "perfbench")}


def src_lines(root: Path) -> int:
    """The newlines in ``src/ocoboost/**/*.py``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n")
               for path in (root / "src" / "ocoboost").rglob("*.py"))


def run(root: Path, trace: int, seed: int = SEED):
    """One run of the benchmark: (its last JSON line, digests, checks)."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", str(SECONDS),
         "--seed", str(seed), "--trace", str(trace)],
        cwd=root, check=True, capture_output=True, text=True).stdout.splitlines()
    digests, checks = {}, {}
    for line in out[:-1]:
        workload, _, note = line.partition(": ")
        if note.startswith("played-points sha256 "):
            digests[workload] = note.split()[-1]
        elif not _NOT_CHECKS.search(note):
            checks.setdefault(workload, []).append(note)
    return json.loads(out[-1]), digests, checks


def record(root: Path) -> dict:
    import numpy

    untraced, digests, checks = run(root, 0)
    traced, traced_digests, traced_checks = run(root, 1)
    if traced_digests != digests:
        raise SystemExit("bench_record: the traced run played other points")
    for workload, notes in traced_checks.items():
        kept = checks.setdefault(workload, [])
        kept += [note for note in notes if note not in kept]
    return {"tree": tree_hashes(root), "src_lines": src_lines(root),
            "seed": SEED, "seconds": SECONDS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "untraced": untraced, "traced": traced,
            "digests": digests, "checks": checks}


def compare(old: dict, new: dict, benchmark: dict) -> int:
    """Print the comparison; return the number of changed digests."""
    kinds = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    print(f"old: src {old['tree']['src'][:12]}, {old['seconds']} s, seed {old['seed']}")
    print(f"new: src {new['tree']['src'][:12]}, {new['seconds']} s, seed {new['seed']}")
    print(f"src lines: {old.get('src_lines', 'n/a')} -> {new.get('src_lines', 'n/a')}")
    for run_name in ("untraced", "traced"):
        print(f"\n{run_name} (correct: old {old[run_name]['correct']}, "
              f"new {new[run_name]['correct']})")
        old_metrics = old[run_name]["metrics"]
        for key, entry in new[run_name]["metrics"].items():
            if key not in old_metrics:
                print(f"  {key}: {entry['value']:.6g} {entry['unit']} (new)")
                continue
            before, after = old_metrics[key]["value"], entry["value"]
            ratio = after / before if before else float("nan")
            line = (f"  {key}: {before:.6g} -> {after:.6g} {entry['unit']}"
                    f"  x{ratio:.3f}")
            kind = kinds.get(key.rpartition("/")[2], {})
            if "bound" in kind:
                worse = (ratio > 1 + kind["bound"] if kind["better"] == "lower"
                         else ratio < 1 - kind["bound"])
                line += f"  (bound {kind['bound']:.0%}{', WORSE' if worse else ''})"
            print(line)
    changed = 0
    for workload in sorted(set(old["digests"]) | set(new["digests"])):
        a, b = old["digests"].get(workload), new["digests"].get(workload)
        if a != b:
            changed += 1
            print(f"digest changed: {workload}: {a} -> {b}")
        if old["checks"].get(workload) != new["checks"].get(workload):
            print(f"checked output changed: {workload}: "
                  f"{old['checks'].get(workload)} -> {new['checks'].get(workload)}")
    if not changed:
        print("digests unchanged")
    return changed


def run_pairs(parent: Path, change: Path, pairs: int, seed: int):
    """``pairs`` untraced runs of each checkout, the parent first in every
    other pair: ([parent (JSON, digests)], [change (JSON, digests)])."""
    roots, sides = (parent, change), ([], [])
    for i in range(pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            result, digests, _ = run(roots[side], 0, seed)
            sides[side].append((result, digests))
            print(f"pair {i + 1}/{pairs}: ran {roots[side]}", file=sys.stderr)
    return sides


def summarize_pairs(parent_runs, change_runs, benchmark: dict) -> int:
    """Print each metric's paired comparison (``parent_runs[i]`` and
    ``change_runs[i]`` are pair i's (JSON, digests)); return the number of
    runs whose digests differ from the first parent run's."""
    kinds = {m["name"]: m for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    n = len(parent_runs)
    print(f"{n} pairs")
    for key, entry in parent_runs[0][0]["metrics"].items():
        better = kinds.get(key.rpartition("/")[2], {}).get("better", "lower")
        before = [result["metrics"][key]["value"] for result, _ in parent_runs]
        after = [result["metrics"][key]["value"] for result, _ in change_runs]
        q1, median, q3 = statistics.quantiles(before, n=4, method="inclusive")
        new = statistics.median(after)
        wins = sum(a < b if better == "lower" else a > b for a, b in zip(after, before))
        ratio = new / median if median else float("nan")
        print(f"  {key}: parent {median:.6g} (quartiles {q1:.6g}-{q3:.6g}), "
              f"change {new:.6g} {entry['unit']}  x{ratio:.3f}  "
              f"change better in {wins}/{n}")
    for side, runs in (("parent", parent_runs), ("change", change_runs)):
        failed = sum(result["failed"] for result, _ in runs)
        attempted = sum(result["attempted"] for result, _ in runs)
        print(f"{side}: {failed} of {attempted} operations failed, "
              f"{sum(not result['correct'] for result, _ in runs)} runs not correct")
    first = parent_runs[0][1]
    changed = sum(digests != first for _, digests in parent_runs + change_runs)
    print(f"digests differ in {changed} runs" if changed else "digests unchanged")
    return changed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", nargs="?", help="the BENCH_<n>.json to write")
    parser.add_argument("--root", type=Path, default=ROOT,
                        help="the checkout to measure (default: this one)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare two BENCH files instead of recording")
    parser.add_argument("--pairs", type=int, metavar="N",
                        help="time N parent/change pairs instead of recording")
    parser.add_argument("--parent", type=Path, metavar="DIR",
                        help="the parent checkout that --pairs runs")
    parser.add_argument("--seed", type=int, default=SEED,
                        help=f"the workload seed of --pairs (default {SEED})")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.compare:
        old, new = (json.loads(Path(p).read_text()) for p in args.compare)
        return 1 if compare(old, new, benchmark) else 0
    if args.pairs is not None:
        if args.pairs < 2 or args.parent is None:  # quartiles need two runs
            parser.error("--pairs needs N >= 2 and --parent DIR")
        runs = run_pairs(args.parent.resolve(), args.root.resolve(), args.pairs, args.seed)
        return 1 if summarize_pairs(*runs, benchmark) else 0
    if args.out is None:
        parser.error("give the file to write, or --compare OLD NEW")
    result = record(args.root.resolve())
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
