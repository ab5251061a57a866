"""Stagewise boosting for stochastic contextual optimization.

Instead of a loss stream, the input is a sampling oracle over i.i.d.
(loss, context) pairs. Each stage wraps the oracle on the fly: a drawn loss
is smoothed and extended around the current ensemble hypothesis and emitted
as a linear loss with the same context; a weak optimizer is then trained on
that lifted distribution and mixed into the ensemble by ``stage_weights``.
The result is a single hypothesis whose actions are projected into the set.

Internal arithmetic uses recentered coordinates; weak optimizers therefore
receive contexts plus linear losses in recentered coordinates and must
return hypotheses mapping into the recentered set. The final hypothesis
adds the centroid offset back.
"""

from __future__ import annotations

import math

import numpy as np

from .booster import BoosterConfig, stage_weights
from .errors import ConfigError, NonFiniteInput, StageError, check_gamma
from .extension import ExtendedLoss
from .geometry import DecisionSet, _as_rows, _outputs, as_point
from .losses import LinearLoss


class SampleOracle:
    """Draws i.i.d. (ConvexLoss, context) pairs."""

    def draw(self):
        raise NotImplementedError

    def support(self):
        """[(loss, context, probability)] for finite distributions, else None."""
        return None

    def risks(self, hypotheses):
        """Expected loss of each hypothesis over a finite support, else None."""
        support = self.support()
        return None if support is None else _totals(support, hypotheses)


def _totals(samples, hypotheses) -> np.ndarray:
    """Loss of each hypothesis, weighted and summed over (loss, context,
    weight) samples in order; the outputs at a sample are checked as one
    array, of the loss's ``dim`` where it has one."""
    totals = np.zeros(len(hypotheses))
    for loss, context, weight in samples:
        values = _outputs(hypotheses, context, getattr(loss, "dim", None))
        totals += weight * np.array([loss.value(v) for v in values])
    return totals


class FiniteSupportOracle(SampleOracle):
    def __init__(self, atoms, probs=None, seed: int = 0):
        if not atoms:
            raise ConfigError("need at least one atom")
        losses, contexts = zip(*atoms)  # contexts of one length: rows of one array
        self.atoms = list(zip(losses, _as_rows(contexts, None, lambda k: "context")))
        if probs is None:
            probs = np.full(len(atoms), 1.0 / len(atoms))
        self.probs = np.asarray(probs, dtype=np.float64)
        if self.probs.shape != (len(atoms),) or np.any(self.probs < 0) \
                or not np.all(np.isfinite(self.probs)) \
                or abs(self.probs.sum() - 1.0) > 1e-12:
            raise ConfigError("probs must be a distribution over the atoms")
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
    """The linear losses of the current boosting stage, one oracle per fit,
    moved in place from stage to stage.

    A drawn loss is extended and differentiated at the merged mixture of the
    i stages so far, evaluated at the drawn context. A finite support is
    lifted, all atoms in one gradient step per stage, at ``weights[i]``
    applied to the stages' values at the atom contexts. Each hypothesis
    scored by ``risks`` is called once per atom per fit: its values at the
    atom contexts are kept in a table that also gives the stages' values.
    """

    def __init__(self, base: SampleOracle, weights: np.ndarray, set_c: DecisionSet,
                 offset, delta: float, kappa: float):
        self.base = base
        self.weights, self.stages = weights, []  # weights: (N+1, N) table
        self.prev = None  # the stages' merged mixture, built by a draw
        self.set_c, self.offset = set_c, offset
        self.delta, self.kappa = delta, kappa
        self.contexts = None
        support = base.support()
        if support is None:
            return
        losses, self.contexts, probs = zip(*support)
        del support  # its (loss, context, p) tuples are not needed again
        self.probs = np.array(probs, dtype=np.float64)
        self.extensions = ExtendedLoss.lift(losses, offset, set_c, delta, kappa)
        self.points = np.zeros((len(self.contexts), set_c.dim))  # (K, d)
        self._staged = np.empty((len(weights) - 1, self.points.size))  # row j: stage j
        self._tabled = []  # the hypotheses whose values fill the table
        self._values = None  # (K, J, d) values at the atom contexts

    def draw(self):
        loss, context = self.base.draw()
        if self.prev is None:
            i = len(self.stages)
            self.prev = BoostedHypothesis(self.stages, self.weights[i, :i],
                                          self.set_c, self.offset)
        [(_, ext)] = ExtendedLoss.lift([loss], self.offset, self.set_c,
                                       self.delta, self.kappa)
        return LinearLoss(ext.grad(self.prev.raw(context)[None])[0]), context

    def gradients(self) -> np.ndarray:
        """(K, d) extension gradients of the atoms at their stage points."""
        if len(self.extensions) == 1:  # one closed form owns every atom
            grads = self.extensions[0][1].grad_with_info(self.points)[0]
        else:
            grads = np.empty_like(self.points)
            for rows, ext in self.extensions:
                grads[rows] = ext.grad_with_info(self.points[rows])[0]
        if not math.isfinite(np.vdot(grads, grads)):
            raise NonFiniteInput("lifted losses contain non-finite entries")
        return grads

    def support(self):
        if self.contexts is None:
            return None
        return [(LinearLoss(g), c, p) for g, c, p
                in zip(self.gradients(), self.contexts, self.probs.tolist())]

    def risks(self, hypotheses):
        """Each hypothesis's expected lifted loss, from the table of its
        values at the atom contexts, filled unless it holds these hypotheses.
        ``vecdot`` sums each atom's value like ``LinearLoss.value``, and the
        running sum adds the atoms in order, like ``_totals``: ``sum`` adds a
        single hypothesis's atoms pairwise, and ``cumsum`` holds on to traced
        memory inside numpy. The stacked matmul ``(V @ g[:, :, None])[..., 0]``
        is about 4 us faster at (128, 8, 3), but in random trials it differed
        from the 1-D product in 23-61% of entries for d in {2, 3, 4, 8}."""
        if self.contexts is None:
            return None
        if self._values is None or len(self._tabled) != len(hypotheses) \
                or any(a is not b for a, b in zip(self._tabled, hypotheses)):
            values = np.empty((len(self.contexts), len(hypotheses), self.set_c.dim))
            for j, h in enumerate(hypotheses):
                values[:, j] = self._at_atoms(h, j)
            self._tabled, self._values = list(hypotheses), values
        weighted = self.probs[:, None] * np.vecdot(self._values,
                                                   self.gradients()[:, None, :])
        return np.add.accumulate(weighted, axis=0)[-1]

    def _at_atoms(self, hyp, j) -> np.ndarray:
        """(K, d) checked values of hypothesis j (an index or a label) at the atoms."""
        return _as_rows([hyp(c) for c in self.contexts], self.set_c.dim,
                        lambda k: f"hypothesis {getattr(hyp, 'name', j)} at atom {k}")

    def column(self, hyp) -> np.ndarray:
        """(K, d) values at the atom contexts: from the table, else one call each."""
        for j, h in enumerate(self._tabled):
            if h is hyp:
                return self._values[:, j]
        return self._at_atoms(hyp, "of the stage")

    def add(self, stage) -> None:
        """Append a learned stage and, on a finite support, move the atoms'
        points to the new mixture, from the stage's checked values there."""
        self.stages.append(stage)
        self.prev, i = None, len(self.stages)
        if self.contexts is None:
            return
        base, factor = _split_stage(stage)
        values = self._staged[i - 1] = factor * self.column(base).reshape(-1)
        if not math.isfinite(np.vdot(values, values)):
            raise NonFiniteInput(f"{stage.name} has non-finite values")
        self.points = (self.weights[i, :i] @ self._staged[:i]).reshape(self.points.shape)


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


def _split_stage(stage):
    """(base, factor): a ``ScaledHypothesis`` is its factor times its base."""
    return ((stage.base, stage.factor) if isinstance(stage, ScaledHypothesis)
            else (stage, 1.0))


class BoostedHypothesis:
    """The mixture of the stages, stage j weighted ``weights[j]``, projected.
    The weights are merged once into one coefficient per distinct base (a
    ``ScaledHypothesis``'s factor folded in), so a prediction calls each
    base once and adds one term per base."""

    def __init__(self, stages, weights, set_c: DecisionSet, offset):
        self.stages, self.weights = tuple(stages), [float(w) for w in weights]
        self.set_c, self.offset = set_c, as_point(offset, set_c.dim)
        index, self.bases, self.coefs = {}, [], []  # index: id(base) -> slot
        for stage, weight in zip(self.stages, self.weights):
            if weight:
                base, factor = _split_stage(stage)
                k = index.setdefault(id(base), len(index))
                if k == len(self.bases):
                    self.bases.append(base)
                    self.coefs.append(0.0)
                self.coefs[k] += weight * factor
        self._coefs = np.array(self.coefs)[:, None]  # (J, 1)

    def raw(self, context) -> np.ndarray:
        """Pre-projection mixture point in recentered coordinates: the bases'
        values, checked as one array, summed in order (a column of -0.0 stays -0.0)."""
        if not self.bases:
            return np.zeros(self.set_c.dim)
        values = _outputs(self.bases, context, self.set_c.dim)
        return np.add.accumulate(self._coefs * values, axis=0)[-1]

    def __call__(self, context) -> np.ndarray:
        return self.set_c._project(self.raw(context)) + self.offset

    def to_dict(self) -> dict:
        """The offset, and the stages with nonzero weight, each with its weight."""
        stages = [{"coef": weight, "id": getattr(stage, "name", f"stage{j}")}
                  for j, (stage, weight) in enumerate(zip(self.stages, self.weights))
                  if weight]
        return {"offset": self.offset.tolist(), "stages": stages}


class ErmWeakOptimizer:
    """Reference weak optimizer: empirical risk minimization over a finite
    class, output scaled by gamma.

    With ``exact=True`` and a finite-support oracle, expectations are
    enumerated instead of sampled, so the optimizer's slack is zero.
    """

    def __init__(self, hypotheses, gamma: float, exact: bool = False):
        if not hypotheses:
            raise ConfigError("need at least one hypothesis")
        self.gamma = check_gamma(gamma)
        self.hypotheses = list(hypotheses)
        self.exact = exact

    def solve(self, oracle: SampleOracle, budget: int):
        if self.exact:
            totals = oracle.risks(self.hypotheses)
            if totals is None:
                raise ConfigError("exact ERM needs a finite-support oracle")
        else:
            if budget < 1:
                raise ConfigError("sample budget must be >= 1")
            totals = _totals([(*oracle.draw(), 1.0) for _ in range(budget)],
                             self.hypotheses)
        # the method: np.argmin's Python wrapper left traced memory behind here
        best = int(totals.argmin())
        return ScaledHypothesis(self.hypotheses[best], self.gamma, name=f"erm[{best}]")


def fit_boosted_hypothesis(oracle: SampleOracle, weak_optimizer, set_: DecisionSet,
                           n_stages: int, gamma: float, stage_budget: int,
                           lipschitz: float) -> BoostedHypothesis:
    """Run N boosting stages against a sampling oracle and return the
    projected mixture hypothesis. Total sample cost is n_stages * stage_budget
    (sampled weak optimizers consume a fresh budget per stage). The settings
    are checked, and delta and kappa resolved from the gradient bound
    ``lipschitz``, as a ``BoosterConfig`` with N = n_stages."""
    config = BoosterConfig(n_learners=n_stages, gamma=gamma, lipschitz=lipschitz)
    delta, kappa = config.smoothing(set_.diameter)
    set_c, offset = set_.recenter()
    weights = stage_weights(n_stages, gamma)
    stage_oracle = _StageOracle(oracle, weights, set_c, offset, delta, kappa)
    for i in range(1, n_stages + 1):
        try:
            stage_oracle.add(weak_optimizer.solve(stage_oracle, stage_budget))
        except Exception as exc:
            raise StageError(i, str(exc)) from exc
    return BoostedHypothesis(stage_oracle.stages, weights[-1], set_c, offset)


def exact_population_loss(hypothesis, oracle: SampleOracle) -> float:
    """Exact expected loss for finite-support oracles."""
    support = oracle.support()
    if support is None:
        raise ConfigError("exact population loss needs a finite-support oracle")
    return float(_totals(support, [hypothesis])[0])
