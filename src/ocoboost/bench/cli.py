"""Benchmark CLI.

Subcommands:
  run     — streaming regression benchmark on a dataset, normalized table out
  synth   — synthetic acceptance scenarios (oco | bandit | sco)
  fetch   — one-time California Housing download (needs scikit-learn)

Exit codes: 0 success, 2 configuration error, 3 data error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from ..errors import ConfigError, DataError, OcoBoostError
from . import synth
from .data import fetch_california
from .experiment import ExperimentConfig, emit_table, run_experiment, write_table


def _int_list(text: str):
    return tuple(int(tok) for tok in text.split(",") if tok)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ocoboost-bench",
        description="Benchmarks for boosted online convex optimization")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="streaming regression benchmark")
    p_run.add_argument("--dataset", required=True,
                       help="dataset name (diabetes|california|synthetic) or CSV path")
    p_run.add_argument("--learner", default="stump",
                       help="comma-separated subset of stump,ridge,mlp")
    p_run.add_argument("--n", type=_int_list, default=(2, 3, 4, 5),
                       help="comma-separated ensemble sizes (default 2,3,4,5)")
    p_run.add_argument("--gamma", type=float, default=0.1)
    p_run.add_argument("--step", type=float, default=0.01)
    p_run.add_argument("--runs", type=int, default=20)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", choices=("markdown", "csv", "json"),
                       default="markdown")
    p_run.add_argument("--target-col", default=None)
    p_run.add_argument("--data-dir", default=None)

    p_synth = sub.add_parser("synth", help="synthetic acceptance scenarios")
    p_synth.add_argument("--scenario", required=True,
                         choices=("oco", "bandit", "sco"))
    p_synth.add_argument("--n", type=_int_list, default=None,
                         help="ensemble sizes / stage counts")
    p_synth.add_argument("--horizon", type=int, default=None)
    p_synth.add_argument("--seeds", type=int, default=10,
                         help="number of seeds to average over")
    p_synth.add_argument("--seed", type=int, default=0, help="base seed")
    p_synth.add_argument("--gamma", type=float, default=0.5)
    p_synth.add_argument("--explore-rate", default="auto")
    p_synth.add_argument("--out", choices=("markdown", "csv", "json"),
                         default="markdown")

    p_fetch = sub.add_parser("fetch", help="one-time dataset download")
    p_fetch.add_argument("name", choices=("california",))
    p_fetch.add_argument("--dest", default=None,
                         help="destination directory (default: data search path)")
    return parser


def _cmd_run(args) -> int:
    cfg = ExperimentConfig(
        dataset=args.dataset,
        learners=tuple(args.learner.split(",")),
        n_values=args.n,
        gamma=args.gamma, step=args.step, runs=args.runs, seed=args.seed,
        target_col=args.target_col, data_dir=args.data_dir)
    result = run_experiment(cfg)
    sys.stdout.write(emit_table(result, args.out))
    return 0


def _cmd_synth(args) -> int:
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be >= 1, got {args.seeds}")
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    if args.horizon is not None and args.horizon < 1:
        raise ConfigError(f"--horizon must be >= 1, got {args.horizon}")
    if args.n is not None and (not args.n or min(args.n) < 1):
        raise ConfigError("--n needs at least one size, each >= 1")
    if args.scenario == "oco":
        n_values = args.n or (4, 16, 64)
        horizon = args.horizon or 5000
        headers, rows = ["N", "mean_regret", "bound"], []
        for n in n_values:
            outs = [synth.oco_scenario(n, horizon=horizon, gamma=args.gamma,
                                       seed=args.seed + s)
                    for s in range(args.seeds)]
            regrets = [o["regret"] for o in outs]
            rows.append([n, f"{np.mean(regrets):.3f}", f"{outs[0]['bound']:.3f}"])
    elif args.scenario == "bandit":
        horizon = args.horizon or 4000
        headers, rows = ["T", "N", "explore_rate", "mean_regret"], []
        for n in args.n or (16,):
            outs = [synth.bandit_scenario(horizon, n_learners=n, gamma=args.gamma,
                                          explore_rate=args.explore_rate,
                                          seed=args.seed + s)
                    for s in range(args.seeds)]
            regrets = [o["regrets"][horizon] for o in outs]
            rows.append([horizon, n, f"{outs[0]['explore_rate']:.4f}",
                         f"{np.mean(regrets):.3f}"])
    else:
        n_values = args.n or (16, 64, 256)
        headers, rows = ["N", "gap", "bound"], []
        for n in n_values:
            out = synth.sco_scenario(n, gamma=args.gamma, seed=args.seed)
            rows.append([n, f"{out['gap']:.6f}", f"{out['bound']:.3f}"])
    if args.out == "json":
        text = json.dumps([dict(zip(headers, row)) for row in rows],
                          indent=2, sort_keys=True) + "\n"
    else:
        text = write_table(headers, rows, args.out)
    sys.stdout.write(text)
    return 0


def _cmd_fetch(args) -> int:
    from .data import _search_dirs
    dest = args.dest or str(_search_dirs()[0])
    out = fetch_california(dest)
    sys.stdout.write(f"wrote {out}\n")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "fetch":
            return _cmd_fetch(args)
        raise ConfigError(f"unknown command {args.command}")
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, OcoBoostError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
