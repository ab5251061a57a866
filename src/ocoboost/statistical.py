"""Stagewise boosting for stochastic contextual optimization.

Instead of a loss stream, the input is a sampling oracle over i.i.d.
(loss, context) pairs. Each stage wraps the oracle on the fly: a drawn loss
is smoothed and extended around the current ensemble hypothesis and emitted
as a linear loss with the same context; a weak optimizer is then trained on
that lifted distribution and mixed into the ensemble. The result is a
single hypothesis whose actions are projected into the decision set.

Internal arithmetic uses recentered coordinates; weak optimizers therefore
receive contexts plus linear losses in recentered coordinates and must
return hypotheses mapping into the recentered set. The final hypothesis
adds the centroid offset back.
"""

from __future__ import annotations

import numpy as np

from .booster import BoosterConfig, step_sizes
from .errors import ConfigError, StageError
from .extension import ExtendedLoss
from .geometry import DecisionSet, as_point
from .losses import LinearLoss, ShiftedLoss


class SampleOracle:
    """Draws i.i.d. (ConvexLoss, context) pairs."""

    def draw(self):
        raise NotImplementedError

    def support(self):
        """[(loss, context, probability)] for finite distributions, else None."""
        return None


class FiniteSupportOracle(SampleOracle):
    def __init__(self, atoms, probs=None, seed: int = 0):
        if not atoms:
            raise ConfigError("need at least one atom")
        self.atoms = [(loss, as_point(c, name="context")) for loss, c in atoms]
        if probs is None:
            probs = np.full(len(atoms), 1.0 / len(atoms))
        self.probs = np.asarray(probs, dtype=np.float64)
        if self.probs.shape != (len(atoms),) or np.any(self.probs < 0) \
                or not np.all(np.isfinite(self.probs)) \
                or abs(self.probs.sum() - 1.0) > 1e-12:
            raise ConfigError("probs must be a distribution over the atoms")
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    def draw(self):
        k = int(self._rng.choice(len(self.atoms), p=self.probs))
        return self.atoms[k]

    def support(self):
        return [(loss, c, float(p))
                for (loss, c), p in zip(self.atoms, self.probs)]


class CallableSampleOracle(SampleOracle):
    def __init__(self, draw_fn):
        self._draw_fn = draw_fn

    def draw(self):
        return self._draw_fn()


class _StageOracle(SampleOracle):
    """Lift a base oracle to the linear losses of one boosting stage.

    A drawn loss is extended and differentiated at the mixture of the
    previous stages, evaluated at the drawn context. For a finite support
    the fit passes each atom's extended loss and its stage point, carried
    from stage to stage, so ``support()`` evaluates no earlier stage.
    """

    def __init__(self, base: SampleOracle, prev_hypothesis, extend, atoms, points):
        self.base = base
        self.prev = prev_hypothesis
        self.extend = extend
        self.atoms = atoms  # (extended losses, contexts, probabilities) or None
        self.points = points  # (K, d) stage points of the atoms

    def draw(self):
        loss, context = self.base.draw()
        return LinearLoss(self.extend(loss).grad(self.prev(context))), context

    def support(self):
        if self.atoms is None:
            return None
        return [(LinearLoss(ext.grad(point)), c, p)
                for ext, c, p, point in zip(*self.atoms, self.points)]


class ConstantHypothesis:
    def __init__(self, point, name: str = "constant"):
        self.point = as_point(point)
        self.name = name

    def __call__(self, context) -> np.ndarray:
        return self.point.copy()


class ScaledHypothesis:
    """gamma * base(context); feasible because the recentered set contains 0."""

    def __init__(self, base, factor: float, name: str | None = None):
        self.base = base
        self.factor = float(factor)
        self.name = name or f"{self.factor:g}*{getattr(base, 'name', 'hypothesis')}"

    def __call__(self, context) -> np.ndarray:
        # checked where it is read: the mixture, the fit's stage points, a loss
        return self.factor * np.asarray(self.base(context), dtype=np.float64)


class BoostedHypothesis:
    """Affine mixture of stage hypotheses followed by projection.

    The mixture record is exact: apply() evaluates every component and
    projects the weighted sum, rather than approximating the composition.
    """

    def __init__(self, components, set_c: DecisionSet, offset):
        self.components = list(components)  # [(coefficient, hypothesis)]
        self.set_c = set_c
        self.offset = as_point(offset, set_c.dim)

    def raw(self, context) -> np.ndarray:
        """Pre-projection mixture point in recentered coordinates."""
        out = np.zeros(self.set_c.dim)
        for coef, hyp in self.components:
            out += coef * as_point(hyp(context), self.set_c.dim)
        return out

    def __call__(self, context) -> np.ndarray:
        return self.set_c._project(self.raw(context)) + self.offset

    def to_dict(self) -> dict:
        return {
            "offset": self.offset.tolist(),
            "stages": [{"coef": float(coef),
                        "id": getattr(hyp, "name", f"stage{i}")}
                       for i, (coef, hyp) in enumerate(self.components)],
        }


class ErmWeakOptimizer:
    """Reference weak optimizer: empirical risk minimization over a finite
    class, output scaled by gamma.

    With ``exact=True`` and a finite-support oracle, expectations are
    enumerated instead of sampled, so the optimizer's slack is zero.
    """

    def __init__(self, hypotheses, gamma: float, exact: bool = False):
        if not hypotheses:
            raise ConfigError("need at least one hypothesis")
        if not 0.0 < gamma <= 1.0:
            raise ConfigError("gamma must be in (0, 1]")
        self.hypotheses = list(hypotheses)
        self.gamma = float(gamma)
        self.exact = exact

    def solve(self, oracle: SampleOracle, budget: int):
        # (loss, context, weight): the support, or ``budget`` draws of weight 1
        if self.exact:
            samples = oracle.support()
            if samples is None:
                raise ConfigError("exact ERM needs a finite-support oracle")
        else:
            if budget < 1:
                raise ConfigError("sample budget must be >= 1")
            samples = [(*oracle.draw(), 1.0) for _ in range(budget)]
        totals = np.zeros(len(self.hypotheses))
        for loss, context, weight in samples:
            totals += weight * np.array([loss.value(h(context))
                                         for h in self.hypotheses])
        best = int(np.argmin(totals))
        base = self.hypotheses[best]
        name = f"erm[{best}]"
        return ScaledHypothesis(base, self.gamma, name=name)

    def epsilon(self, budget: int, scale: float = 1.0) -> float:
        """Optimization slack as a function of the sample budget."""
        if self.exact:
            return 0.0
        return float(scale * np.sqrt(2.0 * np.log(len(self.hypotheses)) / budget))


def fit_boosted_hypothesis(oracle: SampleOracle, weak_optimizer, set_: DecisionSet,
                           n_stages: int, gamma: float, stage_budget: int,
                           lipschitz: float) -> BoostedHypothesis:
    """Run N boosting stages against a sampling oracle and return the
    projected mixture hypothesis. Total sample cost is n_stages * stage_budget
    (sampled weak optimizers consume a fresh budget per stage). The settings
    are checked, and delta and kappa resolved from the gradient bound
    ``lipschitz``, as a ``BoosterConfig`` with N = n_stages; the fit starts
    at the centroid with no components."""
    config = BoosterConfig(n_learners=n_stages, gamma=gamma, lipschitz=lipschitz)
    delta, kappa = config.smoothing(set_.diameter)
    set_c, offset = set_.recenter()
    hypothesis = BoostedHypothesis([], set_c, offset)
    components = hypothesis.components  # advanced in place, stage by stage

    def extend(loss):
        loss_c = loss if not np.any(offset) else ShiftedLoss(loss, offset)
        return ExtendedLoss(loss_c, set_c, delta, kappa)

    def evaluate(hyp, contexts):
        return np.array([as_point(hyp(c), set_c.dim) for c in contexts])

    # a finite support is lifted at stage points carried by the same
    # recursion as the components, one hypothesis call per atom per stage
    atoms = points = None
    support = oracle.support()
    if support is not None:
        losses, contexts, probs = zip(*support)
        atoms = [extend(loss) for loss in losses], contexts, probs
        del support  # its (loss, context, p) tuples are not needed again
        points = np.zeros((len(contexts), set_c.dim))

    for i, eta in enumerate(step_sizes(n_stages), 1):
        stage_oracle = _StageOracle(oracle, hypothesis.raw, extend, atoms, points)
        try:
            learned = weak_optimizer.solve(stage_oracle, stage_budget)
            if points is not None:
                points = (1.0 - eta) * points + (eta / gamma) * evaluate(learned, contexts)
        except Exception as exc:
            raise StageError(i, str(exc)) from exc
        # a step of 1 clears the earlier components
        components[:] = ([] if eta == 1.0 else
                         [((1.0 - eta) * coef, hyp) for coef, hyp in components])
        components.append((eta / gamma, learned))

    return hypothesis


def population_loss(hypothesis, oracle: SampleOracle, n_samples: int):
    """Monte-Carlo estimate of the expected loss of a hypothesis.

    Returns (mean, standard error).
    """
    if n_samples < 2:
        raise ConfigError("n_samples must be >= 2")
    vals = np.empty(n_samples)
    for k in range(n_samples):
        loss, context = oracle.draw()
        vals[k] = loss.value(hypothesis(context))
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_samples))


def exact_population_loss(hypothesis, oracle: SampleOracle) -> float:
    """Exact expected loss for finite-support oracles."""
    support = oracle.support()
    if support is None:
        raise ConfigError("exact population loss needs a finite-support oracle")
    return float(sum(p * loss.value(hypothesis(context))
                     for loss, context, p in support))
