"""Streaming regression experiments: standalone weak learners versus boosted
ensembles on the same shuffled stream, with normalized-loss tables.

Protocol per run: shuffle rows with a run-derived seed, stream examples one
at a time (predict on the features, then reveal the target), score with the
square loss over the decision interval spanned by the standardized target
range, and update. Every predictor consumes the identical stream; the
standalone learner's mean cumulative loss normalizes the table to 1.000.
All rounds count toward cumulative loss, including any warm-up phase.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..booster import BoosterConfig, OnlineBooster
from ..errors import ConfigError, DataError, check_gamma, check_positive
from ..extension import default_delta
from ..geometry import Interval
from ..losses import LinearLoss, QuadraticLoss
from ..weak import DecisionStump, OnlineRidge, TinyMlp
from .data import load_dataset

LEARNER_LABELS = {
    "stump": "Decision Stumps",
    "ridge": "Ridge Regression",
    "mlp": "Tiny MLP",
}


@dataclass
class ExperimentConfig:
    dataset: str
    learners: tuple = ("stump",)
    n_values: tuple = (2, 3, 4, 5)
    gamma: float = 0.1
    step: float = 0.01
    runs: int = 20
    seed: int = 0
    target_col: str | int | None = None
    data_dir: str | None = None

    def __post_init__(self):
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        check_gamma(self.gamma)
        check_positive("step", self.step)
        bad = [k for k in self.learners if k not in LEARNER_LABELS]
        if bad:
            raise ConfigError(f"unknown learner kinds: {bad}")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ConfigError("need at least one ensemble size, each >= 1")


def square_loss_gradient_bound(interval: Interval, gamma: float,
                               n_learners: int) -> float:
    """Gradient bound for square losses with targets in the interval,
    taken over the recentered interval scaled by 1/gamma and inflated by
    the smoothing slack (ensemble stage points can fall outside the set)."""
    half = 0.5 * interval.diameter
    reach0 = half * (1.0 + 1.0 / gamma)
    g0 = 2.0 * reach0
    delta0 = default_delta(interval.diameter, gamma, n_learners, g0)
    return 2.0 * (reach0 + delta0 * g0)


def _make_learner(kind, set_c, feature_dim, cfg: ExperimentConfig,
                  gamma: float, seed: int, anchor: str = "self"):
    """A weak learner of this kind; ridge and the MLP take the configured
    step, and only the MLP draws from its seed."""
    if kind == "stump":
        return DecisionStump(feature_dim, set_c, gamma, anchor=anchor)
    if kind == "ridge":
        return OnlineRidge(feature_dim, set_c, gamma, step=cfg.step,
                           anchor=anchor)
    return TinyMlp(feature_dim, set_c, gamma, step=cfg.step, seed=seed,
                   anchor=anchor)


class _StandaloneRunner:
    def __init__(self, kind, interval, feature_dim, cfg, seed):
        self.cum_loss = 0.0
        self.set_c, offset = interval.recenter()
        self.offset = float(offset[0])
        self.learner = _make_learner(kind, self.set_c, feature_dim, cfg,
                                     gamma=1.0, seed=seed)

    def round(self, context, target):
        pred = float(self.learner.predict(context)[0]) + self.offset
        err = pred - target
        self.cum_loss += err * err
        self.learner.update(LinearLoss([2.0 * err]))


class _BoostedRunner:
    def __init__(self, kind, interval, feature_dim, n_learners, cfg, seed):
        self.cum_loss = 0.0
        g_bound = square_loss_gradient_bound(interval, cfg.gamma, n_learners)
        bcfg = BoosterConfig(n_learners=n_learners, gamma=cfg.gamma,
                             lipschitz=g_bound)

        def factory(i, recentered):
            # the first slot's incoming stage point is exactly the centroid
            return _make_learner(kind, recentered, feature_dim, cfg,
                                 gamma=cfg.gamma, seed=seed * 100003 + i,
                                 anchor="zero" if i == 0 else "self")

        self.booster = OnlineBooster(interval, factory, bcfg)

    def round(self, context, target):
        pred, traj = self.booster.predict(context)
        err = float(pred[0]) - target
        self.cum_loss += err * err
        self.booster.update(QuadraticLoss([target]), traj)


@dataclass
class ExperimentResult:
    config: dict
    rows: list


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    ds = load_dataset(cfg.dataset, data_dir=cfg.data_dir,
                      target_col=cfg.target_col)
    if ds.n_rows < 10:
        raise DataError(f"dataset has only {ds.n_rows} rows; need at least 10")
    lo, hi = ds.target_range
    if hi <= lo:
        raise DataError("target range is degenerate")
    interval = Interval(lo, hi)

    n_values = tuple(cfg.n_values)
    # cum[kind][label][run]; labels are "wl" and the ensemble sizes
    cum = {kind: {label: np.zeros(cfg.runs) for label in ("wl", *n_values)}
           for kind in cfg.learners}

    for r in range(cfg.runs):
        run_seed = cfg.seed ^ r
        rng = np.random.default_rng(run_seed)
        perm = rng.permutation(ds.n_rows)
        stream_x = ds.features[perm]
        stream_y = ds.targets[perm]
        # every predictor sees the same rows: a learner that writes into
        # its context raises at the write
        stream_x.flags.writeable = False

        runners = {}
        for kind in cfg.learners:
            runners[(kind, "wl")] = _StandaloneRunner(
                kind, interval, ds.n_features, cfg,
                seed=run_seed * 100003 + 999983)
            for n in n_values:
                runners[(kind, n)] = _BoostedRunner(
                    kind, interval, ds.n_features, n, cfg,
                    seed=run_seed * 1009 + n)

        for t in range(ds.n_rows):
            c, y = stream_x[t], float(stream_y[t])
            for runner in runners.values():
                runner.round(c, y)

        for (kind, label), runner in runners.items():
            cum[kind][label][r] = runner.cum_loss

    rows = []
    for kind in cfg.learners:
        wl_mean = float(cum[kind]["wl"].mean())
        normalized = {f"N={n}": float(cum[kind][n].mean()) / wl_mean
                      for n in n_values}
        rows.append({
            "learner": kind,
            "wl": 1.0,
            "normalized": normalized,
            "improvement": (1.0 - min(normalized.values())) * 100.0,
            "per_run_ratio": {f"N={n}": (cum[kind][n] / cum[kind]["wl"]).tolist()
                              for n in n_values},
        })

    config_echo = {
        "dataset": str(cfg.dataset), "learners": list(cfg.learners),
        "n_values": list(n_values), "gamma": cfg.gamma, "step": cfg.step,
        "runs": cfg.runs, "seed": cfg.seed,
    }
    return ExperimentResult(config=config_echo, rows=rows)


# -- table emission ----------------------------------------------------------

def _n_labels(result: ExperimentResult):
    return [f"N={n}" for n in result.config["n_values"]]


def emit_table(result: ExperimentResult, fmt: str = "markdown") -> str:
    if not result.rows:
        raise ConfigError("no results to emit")
    if fmt == "json":
        return _emit_json(result)
    if fmt not in ("markdown", "csv"):
        raise ConfigError(f"unknown output format '{fmt}'")
    labels = _n_labels(result)
    cells = _markdown_cells if fmt == "markdown" else _csv_cells
    return write_table(["Learner", "WL", *labels, "Improvement"],
                       [cells(row, labels) for row in result.rows], fmt)


def write_table(headers, rows, fmt: str) -> str:
    """Rows of cells under ``headers`` as a markdown (``| a | b |``) or CSV
    table."""
    if fmt == "csv":
        return "".join(",".join(map(str, row)) + "\n" for row in (headers, *rows))
    lines = ["| " + " | ".join(map(str, row)) + " |" for row in (headers, *rows)]
    lines.insert(1, "|" + "---|" * len(headers))
    return "\n".join(lines) + "\n"


def _markdown_cells(row, labels):
    """Display name, normalized losses with the best in bold, improvement in %."""
    best = min(row["normalized"].values())
    cells = [LEARNER_LABELS.get(row["learner"], row["learner"]), "1.000"]
    for lab in labels:
        v = row["normalized"][lab]
        cells.append(f"**{v:.3f}**" if v == best else f"{v:.3f}")
    return cells + [f"{row['improvement']:.1f}%"]


def _csv_cells(row, labels):
    return [row["learner"], "1.000",
            *(f"{row['normalized'][lab]:.3f}" for lab in labels),
            f"{row['improvement']:.1f}"]


def _emit_json(result: ExperimentResult) -> str:
    payload = {
        "config": result.config,
        "rows": [{
            "learner": row["learner"],
            "wl": row["wl"],
            "normalized": row["normalized"],
            "improvement": row["improvement"],
        } for row in result.rows],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
