"""A learner updates on the context it played. A caller may reuse one array
for every row's context and refill it between ``predict`` and ``update``;
the learners, alone or banked in a booster, must then learn exactly what
they learn when the array is left alone, before and after a stump's
warm-up."""

import numpy as np
import pytest

from ocoboost.booster import BoosterConfig, OnlineBooster
from ocoboost.geometry import Interval
from ocoboost.losses import LinearLoss
from ocoboost.weak import (STUMP_WARMUP, DecisionStump, OnlineRidge, StumpBank,
                           TinyMlp)

FEATURES = 4
ROUNDS = 120  # past the stump's warm-up of STUMP_WARMUP rounds

_LEARNERS = {
    "stump": lambda s: DecisionStump(FEATURES, s, 0.5),
    "ridge": lambda s: OnlineRidge(FEATURES, s, 0.5, step=0.1),
    "mlp": lambda s: TinyMlp(FEATURES, s, 0.5, step=0.1, seed=2),
}
_STATE = ("leaves", "counts", "feat_loss", "weights", "bias", "w1", "b1", "w2", "b2")


def _assert_same_state(a, b):
    for name in _STATE:
        if hasattr(a, name):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name),
                                          err_msg=name)
    if isinstance(a, DecisionStump):
        assert (a.edges is None) == (b.edges is None)
        if a.edges is not None:
            np.testing.assert_array_equal(a.edges, b.edges)


# refilling from round 0 reaches the stump's warm-up buffer; from
# STUMP_WARMUP on, only the cells credited after warm-up
_REFILL_FROM = [0, STUMP_WARMUP]


@pytest.mark.parametrize("refill_from", _REFILL_FROM)
@pytest.mark.parametrize("kind", list(_LEARNERS))
def test_a_refilled_context_buffer_does_not_move_a_learner(kind, refill_from):
    set_ = Interval(-1.0, 1.0)
    clean, refilled = _LEARNERS[kind](set_), _LEARNERS[kind](set_)
    rng = np.random.default_rng(5)
    buffer = np.empty(FEATURES)
    for t in range(ROUNDS):
        context, g = rng.standard_normal(FEATURES), rng.standard_normal(1)
        buffer[:] = context
        np.testing.assert_array_equal(clean.predict(context), refilled.predict(buffer))
        if t >= refill_from:
            buffer[:] = 5.0  # the caller moves on to its next row
        clean.update(g)
        refilled.update(g)
        _assert_same_state(clean, refilled)
    assert clean.rounds == refilled.rounds == ROUNDS


def _booster():
    return OnlineBooster(
        Interval(-1.0, 1.0),
        lambda i, s: DecisionStump(FEATURES, s, 0.5, anchor="zero" if i == 0 else "self"),
        BoosterConfig(n_learners=3, gamma=0.5, lipschitz=4.0))


@pytest.mark.parametrize("refill_from", _REFILL_FROM)
def test_a_refilled_context_buffer_does_not_move_a_stump_bank(refill_from):
    clean, refilled = _booster(), _booster()
    assert isinstance(refilled.bank, StumpBank)
    rng = np.random.default_rng(7)
    buffer = np.empty(FEATURES)
    for t in range(ROUNDS):
        context = rng.standard_normal(FEATURES)
        buffer[:] = context
        point, traj = clean.predict(context)
        point_r, traj_r = refilled.predict(buffer)
        np.testing.assert_array_equal(point, point_r)
        if t >= refill_from:
            buffer[:] = 5.0
        loss = LinearLoss(rng.standard_normal(1))
        clean.update(loss, traj)
        refilled.update(loss, traj_r)
        for a, b in zip(clean.learners, refilled.learners):
            _assert_same_state(a, b)
    assert refilled.learners[0].edges is not None
