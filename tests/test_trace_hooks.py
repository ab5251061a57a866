"""The benchmark's tracer patches library methods by name; this guards the
names it relies on. A patched method moved off its class fails with a
KeyError, and a round that stops calling a patched method reads zero."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from ocoboost.booster import BoosterConfig, OnlineBooster
from ocoboost.geometry import Box, Simplex
from ocoboost.losses import LinearLoss, QuadraticLoss
from ocoboost.statistical import (ConstantHypothesis, ErmWeakOptimizer,
                                  FiniteSupportOracle, fit_boosted_hypothesis)
from ocoboost.weak import UniformBaseline

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    return tracing


def test_one_round_reaches_the_traced_layers(tracing):
    booster = OnlineBooster(Simplex(3), lambda i, s: UniformBaseline(s),
                            BoosterConfig(n_learners=4, gamma=0.5,
                                          lipschitz=2.0))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        _, traj = booster.predict(np.zeros(1))
        booster.update(LinearLoss([0.3, -0.2, 0.5]), traj)
    _, calls, counts = tracer.snapshot()
    assert calls.get("extension.grad", 0) > 0
    assert calls.get("geometry.project", 0) > 0
    assert counts.get("losses.constructed", 0) > 0


def test_fit_reads_closed_forms_without_building_losses(tracing, rng):
    # the atoms' forms are read as given: recentring on a centroid off the
    # origin wraps none of them, and the lifted losses stay arrays
    box = Box([-1.0, -0.5, 0.0], [1.0, 1.5, 1.0])
    atoms = [(QuadraticLoss(rng.uniform(-1.5, 1.5, 3), weight=0.7),
              rng.standard_normal(2)) for _ in range(6)]
    atoms += [(LinearLoss(rng.standard_normal(3)), rng.standard_normal(2))
              for _ in range(3)]
    oracle = FiniteSupportOracle(atoms, probs=rng.dirichlet(np.ones(9)))
    hyps = [ConstantHypothesis(0.5 * np.array(c))
            for c in itertools.product((-1.0, 1.0), repeat=3)]
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        fitted = fit_boosted_hypothesis(
            oracle, ErmWeakOptimizer(hyps, 0.5, exact=True), box, n_stages=8,
            gamma=0.5, stage_budget=1, lipschitz=20.0)
    _, calls, counts = tracer.snapshot()
    assert calls.get("extension.grad", 0) == 8 * 2
    assert counts.get("losses.constructed", 0) == 0
    assert all(box.contains(fitted(c)) for _, c in atoms)
