"""Synthetic scenarios driving the acceptance experiments.

Three deterministic, seed-driven environments:

* ``oco``  — contextual linear losses on the unit ball in R^2 with four
  linear reference policies; exact-edge leader oracles as weak learners.
* ``bandit`` — contextual multi-armed losses on the 4-simplex with value-only
  feedback; regret is the played loss less the best policy's at the horizon.
* ``sco``  — a four-atom distribution of 1-D square losses with three
  constant reference hypotheses and an exact ERM weak optimizer.

Hypotheses are lookups into precomputed per-round action tables (contexts
are round indices wrapped in 1-vectors), which keeps the inner loops cheap
without changing the algorithms' view of the problem.
"""

from __future__ import annotations

import numpy as np

from ..bandit import BanditBooster, resolve_explore_rate
from ..booster import BoosterConfig, OnlineBooster
from ..errors import ConfigError
from ..extension import default_delta
from ..geometry import Ball, Interval, Simplex
from ..losses import LinearLoss, QuadraticLoss
from ..statistical import (ErmWeakOptimizer, FiniteSupportOracle,
                           exact_population_loss, fit_boosted_hypothesis)
from ..weak import ScaledLeaderOracle

OCO_DIM = 2
OCO_N_HYPOTHESES = 4
OCO_NOISE = 0.5  # scale of the Gaussian noise on the oco loss directions
BANDIT_ARMS = 4
BANDIT_NOISE = 0.05  # scale of the Gaussian noise on the bandit arm losses


def _rotation(scale: float, angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return scale * np.array([[c, -s], [s, c]])


_OCO_MATRICES = [
    _rotation(0.95, 0.0),
    _rotation(0.60, 0.5 * np.pi),
    _rotation(0.35, np.pi),
    _rotation(0.75, 1.5 * np.pi),
]


def oco_scenario(n_learners: int, horizon: int = 5000, gamma: float = 0.5,
                 seed: int = 0) -> dict:
    """One full-information run; returns the measured regret against the
    convex hull of the reference policies (``comparator`` is the hull's
    cumulative loss) plus the matching bound pieces."""
    rng = np.random.default_rng(seed)
    ball = Ball(OCO_DIM, 1.0)

    angles = rng.uniform(0.0, 2.0 * np.pi, size=horizon)
    contexts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    actions = np.stack([ball._project(contexts @ m.T)
                        for m in _OCO_MATRICES])  # (J, T, 2)

    raw = -actions[0] + OCO_NOISE * rng.standard_normal((horizon, OCO_DIM))
    norms = np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-12)
    directions = raw / norms  # unit vectors: G = 1

    hypotheses = [lambda c, j=j: actions[j, int(c[0])]
                  for j in range(OCO_N_HYPOTHESES)]

    def factory(i, recentered):
        return ScaledLeaderOracle(hypotheses, gamma, recentered, scale=2.0)

    cfg = BoosterConfig(n_learners=n_learners, gamma=gamma, lipschitz=1.0)
    booster = OnlineBooster(ball, factory, cfg)

    for t in range(horizon):
        ctx = np.array([float(t)])
        _, traj = booster.predict(ctx)
        booster.update(LinearLoss(directions[t]), traj)

    # linear losses: the hull optimum sits at a vertex, the best policy
    table = np.ascontiguousarray(actions.transpose(1, 0, 2))  # (T, J, 2)
    comparator = float(np.einsum("td,tjd->j", directions, table).min())
    regret = booster.realized_loss - comparator
    g_bound, diameter = 1.0, ball.diameter
    weak_regret_bound = 2.0 * np.sqrt(horizon * np.log(OCO_N_HYPOTHESES))
    bound = (4.0 * g_bound * diameter * horizon / (gamma * np.sqrt(n_learners))
             + (2.0 * g_bound * diameter / gamma) * weak_regret_bound)
    return {
        "n_learners": n_learners, "horizon": horizon, "gamma": gamma,
        "seed": seed, "regret": float(regret), "comparator": comparator,
        "bound": float(bound), "lipschitz": g_bound, "diameter": diameter,
        "weak_regret_bound": float(weak_regret_bound),
    }


_BANDIT_BEST_ARM = np.array([0, 1, 2, 3])


def _bandit_policies():
    """Arm-selection policies as (type -> arm) tables, strongest first."""
    return np.stack([
        _BANDIT_BEST_ARM,
        np.zeros(4, dtype=int),
        np.ones(4, dtype=int),
        (_BANDIT_BEST_ARM + 1) % BANDIT_ARMS,
    ])


def bandit_scenario(horizon: int, n_learners: int = 16, gamma: float = 0.5,
                    explore_rate="auto", seed: int = 0) -> dict:
    """One bandit run on the 4-simplex with value-only feedback.

    Returns ``regrets`` as {horizon: regret}: the regret of the played
    points against the best single reference policy (the hull optimum for
    linear losses).
    """
    env_rng = np.random.default_rng(np.random.SeedSequence([10_000_019, seed]))
    types = env_rng.integers(0, 4, size=horizon)
    base = np.full((4, BANDIT_ARMS), 0.95)
    base[np.arange(4), _BANDIT_BEST_ARM] = 0.05
    losses = np.clip(base[types] + BANDIT_NOISE * env_rng.standard_normal(
        (horizon, BANDIT_ARMS)), 0.0, 1.0)  # (T, d)

    policies = _bandit_policies()
    policy_points = np.eye(BANDIT_ARMS)[policies[:, types]]  # (J, T, d)

    simplex = Simplex(BANDIT_ARMS)
    # the policies' points in coordinates centred on the simplex centroid
    centred_points = policy_points - simplex.centroid
    hypotheses = [lambda c, j=j: centred_points[j, int(c[0])]
                  for j in range(policies.shape[0])]

    weak_regret_bound = 2.0 * np.sqrt(horizon * np.log(policies.shape[0]))
    rate = resolve_explore_rate(explore_rate, BANDIT_ARMS, horizon, n_learners,
                                gamma, weak_regret_bound)
    if rate == 0.0:
        raise ConfigError("explore_rate must be positive: the loss estimates "
                          "scale by 1/explore_rate")
    # gradient bound of the sparse estimates, used for the inner defaults
    estimate_bound = BANDIT_ARMS * 1.0 / rate

    def factory(i, recentered):
        return ScaledLeaderOracle(hypotheses, gamma, recentered,
                                  mode="ftl", scale=estimate_bound)

    inner_cfg = BoosterConfig(n_learners=n_learners, gamma=gamma,
                              lipschitz=estimate_bound)
    bb = BanditBooster(simplex, factory, inner_cfg, explore_rate=rate, seed=seed)

    comparator = np.einsum("td,jtd->jt", losses, policy_points)  # (J, T)
    comparator_cum = np.cumsum(comparator, axis=1)

    played_cum = 0.0
    for t in range(horizon):
        played = bb.step(np.array([float(t)]))
        observed = float(losses[t] @ played)
        bb.feedback(observed)
        played_cum += observed
    regrets = {horizon: played_cum - float(comparator_cum[:, -1].min())}
    return {
        "horizon": horizon, "n_learners": n_learners, "gamma": gamma,
        "seed": seed, "explore_rate": float(rate),
        "regrets": regrets, "weak_regret_bound": float(weak_regret_bound),
    }


SCO_TARGETS = (-0.8, -0.2, 0.4, 0.9)
SCO_PROBS = (0.3, 0.3, 0.2, 0.2)
SCO_HYPOTHESIS_POINTS = (-0.5, 0.1, 0.7)


def sco_oracle(seed: int = 0) -> FiniteSupportOracle:
    atoms = [(QuadraticLoss([t]), np.array([float(k)]))
             for k, t in enumerate(SCO_TARGETS)]
    return FiniteSupportOracle(atoms, probs=np.array(SCO_PROBS), seed=seed)


def sco_hypotheses():
    return [lambda c, p=p: np.array([p]) for p in SCO_HYPOTHESIS_POINTS]


def sco_gradient_bound(gamma: float, n_stages: int) -> float:
    """Square-loss gradient bound over the 1/gamma-scaled interval, inflated
    by the smoothing slack."""
    reach0 = 1.0 / gamma + max(abs(t) for t in SCO_TARGETS)
    g0 = 2.0 * reach0
    delta0 = default_delta(2.0, gamma, n_stages, g0)
    return 2.0 * (reach0 + delta0 * g0)


def sco_hull_optimum() -> float:
    """Exact population hull optimum. The hull of the constant hypotheses is
    the interval between the smallest and largest constant, and the
    population square loss is least at the mean target clipped to it."""
    probs, targets = np.array(SCO_PROBS), np.array(SCO_TARGETS)
    best = np.clip(probs @ targets, min(SCO_HYPOTHESIS_POINTS),
                   max(SCO_HYPOTHESIS_POINTS))
    return float(probs @ (best - targets) ** 2)


def sco_scenario(n_stages: int, gamma: float = 0.5, seed: int = 0) -> dict:
    """Fit a boosted hypothesis with the exact ERM weak optimizer and
    measure its exact population gap to the hull optimum."""
    interval = Interval(-1.0, 1.0)
    oracle = sco_oracle(seed)
    g_bound = sco_gradient_bound(gamma, n_stages)
    wopt = ErmWeakOptimizer(sco_hypotheses(), gamma, exact=True)
    hypothesis = fit_boosted_hypothesis(
        oracle, wopt, interval, n_stages=n_stages, gamma=gamma,
        stage_budget=1, lipschitz=g_bound)
    value = exact_population_loss(hypothesis, oracle)
    hull = sco_hull_optimum()
    bound = (2.0 * (4.0 * g_bound * interval.diameter / (gamma * np.sqrt(n_stages))))
    return {
        "n_stages": n_stages, "gamma": gamma, "seed": seed,
        "population_loss": float(value), "hull_optimum": float(hull),
        "gap": float(value - hull), "bound": float(bound),
        "lipschitz": g_bound, "epsilon": 0.0,
        "hypothesis": hypothesis,
    }
