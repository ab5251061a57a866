"""Full-information online boosting over N weak learners.

Each round, the booster mixes the (1/gamma)-rescaled weak-learner actions
stagewise with steps eta_i = min(2/i, 1) (``stage_weights``), plays the
projection of the final stage point, and after observing the loss feeds
every learner the gradient of the smoothed out-of-set extension at that
learner's incoming stage point. Internal arithmetic happens in recentered
coordinates; the public API accepts and returns original coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NonFiniteInput, ProtocolError, check_gamma, check_positive
from .extension import ExtendedLoss, default_delta
from .geometry import DecisionSet, as_point
from .losses import ConvexLoss, ShiftedLoss
from .weak import bank_for


def stage_weights(n: int, gamma: float) -> np.ndarray:
    """The (n+1, n) table W with stage point m = ``W[m] @ plays``: the steps
    x^i = (1 - eta_i) x^(i-1) + (eta_i / gamma) play_(i-1) from x^0 = 0 are
    linear in the plays. Row 1 is e_0 / gamma; for m >= 2, row m puts
    2j / (gamma m (m-1)) on each play j < m."""
    m = np.arange(n + 1.0)[:, None]
    weights = np.tril(2.0 * np.arange(n) / np.maximum(m * (m - 1), 1.0) / gamma, -1)
    weights[1, 0] = 1.0 / gamma
    return weights


@dataclass
class BoosterConfig:
    """The settings of one boosting run, and the one place they are checked.

    ``lipschitz`` is the gradient bound G over the working region (the
    recentered set scaled by 1/gamma). The booster derives its smoothing
    radius delta = ``default_delta`` and its distance-penalty weight
    kappa = G from it.
    """

    n_learners: int
    gamma: float
    lipschitz: float

    def __post_init__(self):
        if not isinstance(self.n_learners, (int, np.integer)) or self.n_learners < 1:
            raise ConfigError(f"n_learners={self.n_learners} is not an integer >= 1")
        check_gamma(self.gamma)
        check_positive("lipschitz", self.lipschitz)

    def smoothing(self, diameter: float) -> tuple[float, float]:
        """(delta, kappa) for a set of this diameter: the balanced radius
        ``default_delta`` and kappa = G."""
        delta = default_delta(diameter, self.gamma, self.n_learners,
                              self.lipschitz)
        if not 0 < delta < math.inf:
            raise ConfigError("smoothing radius must be positive and finite, "
                              f"got {delta} for a set of diameter {diameter}")
        return delta, self.lipschitz


@dataclass
class RoundTrajectory:
    """Stage points x^0..x^N of one round, kept between predict and update."""

    stages: np.ndarray          # (N+1, d), recentered coordinates
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
        self._shifted = bool(self.offset.any())  # losses move with the offset
        self.weights = stage_weights(config.n_learners, config.gamma)
        self.learners = [learner_factory(i, self.set_c)
                         for i in range(config.n_learners)]
        self.bank = bank_for(self.learners, self.set_c.dim)

        self.delta, self.kappa = config.smoothing(set_.diameter)
        self.rounds_done = 0
        self._last_traj: RoundTrajectory | None = None
        self.realized_loss = 0.0
        self.prox_nonconverged = 0
        self.prox_worst_residual = 0.0
        self.max_grad_norm = 0.0

    # -- per-round protocol -------------------------------------------------

    def predict(self, context) -> tuple[np.ndarray, RoundTrajectory]:
        self._last_traj = None  # a failed predict leaves no round to update
        context = as_point(context, name="context")
        plays = self.bank.predict_all(context)
        if not math.isfinite(np.vdot(plays, plays)):
            slot = int(np.flatnonzero(~np.isfinite(np.vecdot(plays, plays)))[0])
            raise NonFiniteInput(f"learner {slot} played a non-finite point")
        stages = self.weights @ plays  # row 0 is the centroid, recentered
        traj = RoundTrajectory(stages, self.set_c._project(stages[-1]) + self.offset)
        self._last_traj = traj
        return traj.played.copy(), traj

    def update(self, loss: ConvexLoss, trajectory: RoundTrajectory) -> None:
        if trajectory is not self._last_traj:
            raise ProtocolError(
                "update requires the trajectory from the immediately "
                "preceding predict of this round")

        loss_c = ShiftedLoss(loss, self.offset) if self._shifted else loss
        ext = ExtendedLoss(loss_c, self.set_c, self.delta, self.kappa)
        # learner i's gradient is row i, taken at its incoming stage point
        grads, info = ext.grad_with_info(trajectory.stages[:-1])
        self.max_grad_norm = max(self.max_grad_norm,  # sqrt is monotone, correctly rounded
                                 math.sqrt(np.vecdot(grads, grads).max()))
        self.prox_nonconverged += info.nonconverged
        self.prox_worst_residual = max(self.prox_worst_residual, info.residual)
        self.bank.update_all(grads)

        self.realized_loss += loss.value(trajectory.played)
        self.rounds_done += 1
        self._last_traj = None

