"""The benchmark's tracer patches library methods by name; this guards the
names it relies on. A patched method moved off its class fails with a
KeyError, and a round that stops calling a patched method reads zero."""

from pathlib import Path

import numpy as np
import pytest

from ocoboost.booster import BoosterConfig, OnlineBooster
from ocoboost.geometry import Simplex
from ocoboost.losses import LinearLoss
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
