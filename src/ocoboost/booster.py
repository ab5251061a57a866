"""Full-information online boosting over N weak learners.

Each round, the booster mixes the (1/gamma)-rescaled weak-learner actions
stagewise with step sizes eta_i = min(2/i, 1), plays the projection of the
final stage point, and after observing the loss feeds every learner the
gradient of the smoothed out-of-set extension at that learner's incoming
stage point. All internal arithmetic happens in recentered coordinates;
the public API accepts and returns original coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ProtocolError
from .extension import (DEFAULT_BUDGET, DEFAULT_TOL, ExtendedLoss,
                        check_prox_settings, default_delta)
from .geometry import DecisionSet, as_point
from .losses import ConvexLoss, LinearLoss, ShiftedLoss
from .weak import learner_from_config


def step_sizes(n: int) -> list[float]:
    """The mixing steps eta_i = min(2/i, 1) of stages i = 1..n."""
    return [min(2.0 / i, 1.0) for i in range(1, n + 1)]


@dataclass
class BoosterConfig:
    """Knobs for one boosting run.

    ``lipschitz`` is the gradient bound G over the working region (the
    recentered set scaled by 1/gamma); it seeds the default smoothing
    radius and the default distance-penalty weight kappa = G. It may be
    omitted only when both delta and kappa are given explicitly.
    ``x0_rule`` is "centroid" or a start point in original coordinates.
    """

    n_learners: int
    gamma: float
    lipschitz: float | None = None
    delta: float | None = None
    kappa: float | None = None
    delta_rule: str = "balanced"
    x0_rule: str = "centroid"
    prox_budget: int = DEFAULT_BUDGET
    prox_tol: float = DEFAULT_TOL

    def __post_init__(self):
        if self.n_learners < 1:
            raise ConfigError("n_learners must be >= 1")
        if not 0.0 < self.gamma <= 1.0:
            raise ConfigError("gamma must be in (0, 1]")
        if self.delta is not None and self.delta <= 0:
            raise ConfigError("delta must be positive")
        if self.kappa is not None and self.kappa < 0:
            raise ConfigError("kappa must be nonnegative")
        if self.lipschitz is not None and self.lipschitz <= 0:
            raise ConfigError("lipschitz must be positive")
        check_prox_settings(self.prox_budget, self.prox_tol)
        if not (isinstance(self.x0_rule, str) and self.x0_rule == "centroid"):
            try:
                as_point(self.x0_rule, name="x0_rule")
            except (TypeError, ValueError) as exc:
                raise ConfigError(
                    f"x0_rule must be 'centroid' or a point: {exc}") from exc


@dataclass
class RoundTrajectory:
    """Stage points x^0..x^N of one round, kept between predict and update."""

    round_index: int
    stages: np.ndarray          # (N+1, d), recentered coordinates
    learner_plays: np.ndarray   # (N, d), recentered coordinates
    played: np.ndarray          # original coordinates


class OnlineBooster:
    """Predict-then-update boosting over one loss stream.

    One instance is a single logical stream: predict/update must alternate
    and are not reentrant. Distinct instances are independent; within an
    update the learner updates share no mutable state, so their result does
    not depend on execution order.

    State is O(N) however long the stream: the learners and running totals
    (``realized_loss``; ``prox_nonconverged`` solves, ``prox_worst_residual``
    and ``max_grad_norm``, to compare with ``lipschitz``). The code that owns
    the loss stream and the base class measures regret (see ``bench.synth``).
    """

    def __init__(self, set_: DecisionSet, learner_factory, config: BoosterConfig):
        self.config = config
        self.set_c, self.offset = set_.recenter()
        self.gamma = config.gamma
        self.n_learners = config.n_learners
        self.etas = step_sizes(config.n_learners)
        self.learners = [learner_factory(i, self.set_c)
                         for i in range(config.n_learners)]

        g_bound = config.lipschitz
        if config.delta is not None:
            self.delta = config.delta
        else:
            self.delta = default_delta(set_.diameter, config.gamma,
                                       config.n_learners, g_bound,
                                       config.delta_rule)
        if config.kappa is not None:
            self.kappa = config.kappa
        elif g_bound is not None:
            self.kappa = g_bound
        else:
            raise ConfigError("need either kappa or lipschitz to set the "
                              "distance penalty weight")

        if config.x0_rule == "centroid":
            self._x0 = np.zeros(set_.dim)
        else:
            self._x0 = as_point(config.x0_rule, set_.dim) - self.offset

        self.rounds_done = 0
        self._last_traj: RoundTrajectory | None = None
        self.realized_loss = 0.0
        self.prox_nonconverged = 0
        self.prox_worst_residual = 0.0
        self.max_grad_norm = 0.0

    # -- per-round protocol -------------------------------------------------

    def predict(self, context) -> tuple[np.ndarray, RoundTrajectory]:
        context = as_point(context, name="context")
        n, d = self.n_learners, self.set_c.dim
        stages = np.empty((n + 1, d))
        plays = np.empty((n, d))
        stages[0] = self._x0
        for i in range(n):
            plays[i] = self.learners[i].predict(context)
            eta = self.etas[i]
            stages[i + 1] = (1.0 - eta) * stages[i] + (eta / self.gamma) * plays[i]
        played_c = self.set_c._project(stages[n])
        traj = RoundTrajectory(round_index=self.rounds_done + 1,
                               stages=stages, learner_plays=plays,
                               played=played_c + self.offset)
        self._last_traj = traj
        return traj.played.copy(), traj

    def update(self, loss: ConvexLoss, trajectory: RoundTrajectory) -> None:
        if trajectory is not self._last_traj:
            raise ProtocolError(
                "update requires the trajectory from the immediately "
                "preceding predict of this round")
        if trajectory.round_index != self.rounds_done + 1:
            raise ProtocolError(
                f"round {trajectory.round_index} was already updated")

        loss_c = (loss if not np.any(self.offset)
                  else ShiftedLoss(loss, self.offset))
        ext = ExtendedLoss(loss_c, self.set_c, self.delta, self.kappa,
                           budget=self.config.prox_budget,
                           tol=self.config.prox_tol)
        for i in range(self.n_learners):
            g, info = ext.grad_with_info(trajectory.stages[i])
            self.max_grad_norm = max(self.max_grad_norm, math.sqrt(float(g @ g)))
            self.prox_nonconverged += not info.converged
            self.prox_worst_residual = max(self.prox_worst_residual,
                                           info.residual)
            self.learners[i].update(LinearLoss(g))

        self.realized_loss += loss.value(trajectory.played)
        self.rounds_done += 1
        self._last_traj = None

    @classmethod
    def from_config(cls, set_: DecisionSet, config: dict,
                    feature_dim: int) -> "OnlineBooster":
        """Build from a JSON-compatible record (see ``parse_booster_record``)."""
        booster_config, factory, _ = parse_booster_record(config, feature_dim)
        return cls(set_, factory, booster_config)


def check_record(record: dict, required, optional, what: str) -> None:
    """Raise ``ConfigError`` naming a record's unknown keys, or else its
    missing required ones. Each required entry is a tuple of alternative
    names, the first of which is reported."""
    unknown = sorted(set(record) - set(optional).union(*required))
    if unknown:
        raise ConfigError(f"{what} has unknown keys {unknown}")
    missing = [names[0] for names in required
               if not any(name in record for name in names)]
    if missing:
        raise ConfigError(f"{what} is missing {missing}")


def parse_booster_record(record: dict, feature_dim: int):
    """Parse {N (or n_learners), gamma, learner: {...}, lipschitz?, delta?,
    kappa?, delta_rule?, x0_rule?, seed?} into (BoosterConfig, learner
    factory, seed).

    Learner i is built from the learner spec with seed ``seed * 100003 + i``
    and, unless the spec sets its own, the booster's gamma. Missing and
    unknown keys raise ``ConfigError`` naming them.
    """
    check_record(record, (("N", "n_learners"), ("gamma",), ("learner",)),
                 ("lipschitz", "delta", "kappa", "delta_rule", "x0_rule", "seed"),
                 "booster config")
    try:
        n = int(record.get("n_learners", record.get("N")))
        gamma = float(record["gamma"])
        seed = int(record.get("seed", 0))
        learner_spec = dict(record["learner"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"booster config has a malformed value: {exc}") from exc
    config = BoosterConfig(
        n_learners=n, gamma=gamma,
        lipschitz=record.get("lipschitz"),
        delta=record.get("delta"), kappa=record.get("kappa"),
        delta_rule=record.get("delta_rule", "balanced"),
        x0_rule=record.get("x0_rule", "centroid"))
    learner_spec.setdefault("gamma", gamma)

    def factory(i, recentered):
        spec = dict(learner_spec)
        spec["seed"] = seed * 100003 + i
        return learner_from_config(spec, recentered, feature_dim)

    return config, factory, seed
