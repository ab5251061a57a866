"""Bandit linear optimization by randomized exploration over a boosting core.

Only the incurred scalar loss is observed. With probability ``explore_rate``
a round plays a uniformly random coordinate basis vector and feeds the inner
booster the sparse one-point estimate (d / explore_rate) * observed at that
coordinate; otherwise the inner booster's prediction is played and the zero
vector is fed back, so inner learners advance their round counters either
way. Over the full outcome space the estimate's expectation equals the true
loss vector exactly.

The decision set must contain the unit simplex; this is verified
constructively at construction by projecting every basis vector.
"""

from __future__ import annotations

import math

import numpy as np

from .booster import BoosterConfig, OnlineBooster, RoundTrajectory
from .errors import ConfigError, NonFiniteInput, ProtocolError, check_gamma
from .geometry import MEMBERSHIP_TOL, DecisionSet, as_point, row_norms
from .losses import LinearLoss


def default_explore_rate(d: int, horizon: int, n_learners: int, gamma: float,
                         weak_regret_bound: float = 0.0) -> float:
    """Exploration probability balancing estimate quality against explore cost.

    Minimizes A/eta + eta*B over (0, 1] for A = 4 d T / (gamma sqrt(N)) +
    2 d R_W / gamma and B = T, i.e. min(1, sqrt(A / T)).
    """
    if d < 1 or horizon < 1 or n_learners < 1:
        raise ConfigError("d, horizon, and n_learners must be positive")
    check_gamma(gamma)
    if weak_regret_bound < 0:
        raise ConfigError("weak_regret_bound must be nonnegative")
    a = 4.0 * d * horizon / (gamma * np.sqrt(n_learners)) \
        + 2.0 * d * weak_regret_bound / gamma
    return min(1.0, float(np.sqrt(a / horizon)))


def resolve_explore_rate(explore_rate, d: int, horizon: int | None,
                         n_learners: int, gamma: float,
                         weak_regret_bound: float = 0.0) -> float:
    """The exploration probability: ``default_explore_rate`` for "auto"
    (which needs the horizon), else the given number, which must lie in
    [0, 1]."""
    if isinstance(explore_rate, str) and explore_rate == "auto":
        if horizon is None:
            raise ConfigError("explore_rate 'auto' needs a horizon (default_explore_rate)")
        return default_explore_rate(d, horizon, n_learners, gamma,
                                    weak_regret_bound)
    try:
        rate = float(explore_rate)
    except (TypeError, ValueError):
        raise ConfigError("explore_rate must be 'auto' or a number, got "
                          f"{explore_rate!r}") from None
    if not 0.0 <= rate <= 1.0:
        raise ConfigError(f"explore_rate must lie in [0, 1], got {rate}")
    return rate


def verify_simplex_containment(set_: DecisionSet) -> None:
    """Require every coordinate basis vector to project to itself."""
    basis = np.eye(set_.dim)
    gaps = row_norms(basis - set_._project(basis))
    far = np.flatnonzero(~(gaps <= MEMBERSHIP_TOL))
    if far.size:
        i = int(far[0])
        raise ConfigError(
            f"decision set does not contain the unit simplex: basis "
            f"vector {i} is at distance {gaps[i]:.3e}")


class BanditBooster:
    """Step/feedback wrapper around an ``OnlineBooster`` for linear bandits.
    It explores with the probability ``explore_rate`` it is given (the
    paper's rate for a horizon is ``default_explore_rate``);
    ``explored_rounds`` counts the rounds that played a basis vector."""

    def __init__(self, set_: DecisionSet, learner_factory,
                 inner_config: BoosterConfig, explore_rate, seed: int = 0):
        verify_simplex_containment(set_)
        self.dim = set_.dim
        self.explore_rate = resolve_explore_rate(
            explore_rate, self.dim, None, inner_config.n_learners,
            inner_config.gamma)
        self.inner = OnlineBooster(set_, learner_factory, inner_config)

        streams = np.random.SeedSequence(seed).spawn(2)
        self._bernoulli_rng = np.random.default_rng(streams[0])
        self._coordinate_rng = np.random.default_rng(streams[1])

        self.rounds_done = 0
        self.explored_rounds = 0
        self._pending: tuple[bool, int | None, RoundTrajectory] | None = None

    def step(self, context) -> np.ndarray:
        """Play a point: a random basis vector when exploring, else the inner
        boosted prediction. Call ``feedback`` with the observed loss next."""
        if self._pending is not None:
            raise ProtocolError("step called twice without intervening feedback")
        context = as_point(context, name="context")
        explored = bool(self._bernoulli_rng.random() < self.explore_rate)
        coordinate = (int(self._coordinate_rng.integers(self.dim))
                      if explored else None)
        prediction, traj = self.inner.predict(context)
        if explored:
            played = np.zeros(self.dim)
            played[coordinate] = 1.0
        else:
            played = prediction
        self._pending = (explored, coordinate, traj)
        return played

    def feedback(self, observed_loss: float) -> None:
        if self._pending is None:
            raise ProtocolError("feedback without a pending step")
        observed_loss = float(observed_loss)
        if not math.isfinite(observed_loss):
            raise NonFiniteInput("observed loss is not finite")
        explored, coordinate, traj = self._pending
        estimate = np.zeros(self.dim)
        if explored:
            estimate[coordinate] = (self.dim / self.explore_rate) * observed_loss
        self.inner.update(LinearLoss(estimate), traj)
        self.explored_rounds += explored
        self.rounds_done += 1
        self._pending = None
