"""A booster whose learners are plain ``ScaledLeaderOracle``s with one set of
settings runs them as one ``LeaderBank``. The bank must play, accumulate
and count rounds with the bits of the learners run one at a time, and any
learner that does not qualify must send the booster down the one-at-a-time
path."""

import numpy as np
import pytest

from ocoboost.booster import BoosterConfig, OnlineBooster
from ocoboost.errors import ProtocolError
from ocoboost.geometry import Ball, Simplex
from ocoboost.losses import LinearLoss
from ocoboost.weak import (LeaderBank, LearnerList, ScaledLeaderOracle,
                           UniformBaseline, WeakLearner, _add_leader_losses)


class ReferenceLeader(WeakLearner):
    """The leader oracle written one learner at a time, as a reference: a
    1-D argmin, a 1-D hedge mixture ``w @ actions`` and ``actions @ g``."""

    def __init__(self, hypotheses, gamma, set_, mode="ftl", scale=1.0):
        super().__init__(set_)
        self.hypotheses = list(hypotheses)
        self.gamma, self.mode, self.scale = float(gamma), mode, float(scale)
        self.cum_losses = np.zeros(len(self.hypotheses))
        self._actions = None

    def predict(self, context):
        self._remember(context)
        actions = np.stack([h(context) for h in self.hypotheses])
        self._actions = actions
        if self.mode == "ftl":
            return self.gamma * actions[int(np.argmin(self.cum_losses))]
        eta = np.sqrt(8.0 * np.log(len(self.hypotheses)) / (self.rounds + 1))
        z = -eta * self.cum_losses / (2.0 * self.scale)
        z -= z.max()
        w = np.exp(z)
        w /= w.sum()
        return self.gamma * (w @ actions)

    def _apply_update(self, context, g):
        self.cum_losses += self._actions @ g
        self._actions = None


def _wrapped(learner):
    """Replace predict and update on the instance, the way the benchmark's
    tracer does, which keeps the learner out of a bank."""
    predict, update = learner.predict, learner.update
    learner.predict = lambda context: predict(context)
    learner.update = lambda loss: update(loss)
    return learner


def _one_hot_case(rng, horizon):
    """Bandit-like rounds on the 4-simplex: one-hot policies and sparse
    loss estimates, so cumulative losses tie exactly."""
    d, rate = 4, 0.2
    set_ = Simplex(d)
    table = np.eye(d)[rng.integers(0, d, size=(4, horizon))] - 1.0 / d
    directions = np.zeros((horizon, d))
    explored = rng.random(horizon) < rate
    arms = rng.integers(0, d, size=horizon)
    directions[explored, arms[explored]] = (d / rate) * rng.random(explored.sum())
    return set_, table, directions, d / rate


def _random_case(rng, horizon, n_hypotheses=8, d=8):
    """Random (J, d) actions and directions in a ball; with J = d = 8 the
    cumulative losses differ from an ``einsum`` contraction."""
    table = rng.standard_normal((n_hypotheses, horizon, d))
    directions = rng.standard_normal((horizon, d))
    return Ball(d, 1.0), table, directions, 4.0


def _run(set_, make, n, directions):
    booster = OnlineBooster(set_, lambda i, s: make(i, s),
                            BoosterConfig(n_learners=n, gamma=0.5, lipschitz=4.0))
    played = []
    for t, g in enumerate(directions):
        point, traj = booster.predict([float(t)])
        played.append(point)
        booster.update(LinearLoss(g), traj)
    return booster, np.array(played)


def _hypotheses(table):
    return [lambda c, j=j: table[j, int(c[0])] for j in range(table.shape[0])]


def _assert_same_run(a, b):
    (booster_a, played_a), (booster_b, played_b) = a, b
    assert np.array_equal(played_a, played_b)
    for la, lb in zip(booster_a.learners, booster_b.learners):
        assert np.array_equal(la.cum_losses, lb.cum_losses)
        assert la.rounds == lb.rounds


@pytest.mark.parametrize("mode", ["ftl", "hedge"])
@pytest.mark.parametrize("n", [1, 4, 64])
@pytest.mark.parametrize("case", ["one-hot", "random"])
def test_bank_plays_the_bits_of_one_learner_at_a_time(mode, n, case):
    rng = np.random.default_rng([n, len(mode), len(case)])
    horizon = 200
    set_, table, directions, scale = (_one_hot_case if case == "one-hot"
                                      else _random_case)(rng, horizon)
    hyps = _hypotheses(table)

    def leader(i, s):
        return ScaledLeaderOracle(hyps, 0.5, s, mode=mode, scale=scale)

    banked = _run(set_, leader, n, directions)
    assert isinstance(banked[0].bank, LeaderBank)
    wrapped = _run(set_, lambda i, s: _wrapped(leader(i, s)), n, directions)
    assert isinstance(wrapped[0].bank, LearnerList)
    reference = _run(set_, lambda i, s: ReferenceLeader(hyps, 0.5, s, mode, scale),
                     n, directions)
    _assert_same_run(banked, wrapped)
    _assert_same_run(banked, reference)
    assert all(learner.rounds == horizon for learner in banked[0].learners)
    # the learners' cumulative losses are rows of the bank's table
    for learner, row in zip(banked[0].learners, banked[0].bank.cum_losses):
        assert np.shares_memory(learner.cum_losses, row)


def test_learners_cum_losses_are_rows_of_the_bank():
    booster = OnlineBooster(Ball(2, 1.0),
                            lambda i, s: ScaledLeaderOracle(_HYPS, 0.5, s),
                            BoosterConfig(n_learners=4, gamma=0.5, lipschitz=4.0))
    bank = booster.bank
    assert isinstance(bank, LeaderBank)
    for i, learner in enumerate(booster.learners):
        assert learner.cum_losses.base is bank.cum_losses
        assert np.shares_memory(learner.cum_losses, bank.cum_losses[i])
    _, traj = booster.predict([0.2])
    booster.update(LinearLoss([0.3, -0.1]), traj)
    for i, learner in enumerate(booster.learners):
        assert np.array_equal(learner.cum_losses, bank.cum_losses[i])
        assert learner.cum_losses.any()


def test_contraction_sums_like_the_one_row_product():
    # einsum sums in another order on this draw; the bank must not
    rng = np.random.default_rng(3)
    actions = rng.standard_normal((8, 8))
    G = rng.standard_normal((64, 8))
    reference = np.array([actions @ g for g in G])
    assert not np.array_equal(np.einsum("nd,jd->nj", G, actions), reference)
    cum = np.zeros((64, 8))
    _add_leader_losses(cum, actions, G)
    assert np.array_equal(cum, reference)


class Subclassed(ScaledLeaderOracle):
    pass


_HYPS = [lambda c, a=a: a * np.tanh(c[0]) for a in 0.4 * np.eye(2)]


def _played_before(learner):
    learner.predict(np.array([0.3]))
    learner.update(LinearLoss([0.5, -0.2]))
    return learner


# name: learner i on the recentred set; each breaks the bank at slot 2
_FALLBACKS = {
    "subclass": lambda i, s: (Subclassed if i == 2 else ScaledLeaderOracle)(
        _HYPS, 0.5, s),
    "hypothesis-list": lambda i, s: ScaledLeaderOracle(
        _HYPS[::-1] if i == 2 else _HYPS, 0.5, s),
    "gamma": lambda i, s: ScaledLeaderOracle(_HYPS, 0.4 if i == 2 else 0.5, s),
    "mode": lambda i, s: ScaledLeaderOracle(
        _HYPS, 0.5, s, mode="hedge" if i == 2 else "ftl"),
    "scale": lambda i, s: ScaledLeaderOracle(
        _HYPS, 0.5, s, mode="hedge", scale=2.0 if i == 2 else 1.0),
    "rounds": lambda i, s: (_played_before if i == 2 else (lambda x: x))(
        ScaledLeaderOracle(_HYPS, 0.5, s, mode="hedge")),
    "learner-kinds": lambda i, s: (UniformBaseline(s) if i == 2
                                   else ScaledLeaderOracle(_HYPS, 0.5, s)),
    "wrapped-instance": lambda i, s: (_wrapped if i == 2 else (lambda x: x))(
        ScaledLeaderOracle(_HYPS, 0.5, s)),
}


def _as_reference(learner):
    """The reference twin of a leader oracle, in the same state."""
    if not isinstance(learner, ScaledLeaderOracle):
        return learner
    twin = ReferenceLeader(learner.hypotheses, learner.gamma, learner.set_,
                           learner.mode, learner.scale)
    twin.cum_losses, twin.rounds = learner.cum_losses.copy(), learner.rounds
    return twin


@pytest.mark.parametrize("name", list(_FALLBACKS))
def test_learners_that_do_not_qualify_run_one_at_a_time(name):
    make = _FALLBACKS[name]
    directions = np.random.default_rng(5).standard_normal((60, 2))
    fallback = _run(Ball(2, 1.0), make, 4, directions)
    assert isinstance(fallback[0].bank, LearnerList)
    reference = _run(Ball(2, 1.0), lambda i, s: _as_reference(make(i, s)), 4,
                     directions)
    assert np.array_equal(fallback[1], reference[1])
    for la, lb in zip(fallback[0].learners, reference[0].learners):
        if isinstance(la, ScaledLeaderOracle):
            assert np.array_equal(la.cum_losses, lb.cum_losses)
            assert la.rounds == lb.rounds


def test_bank_update_needs_its_predict_and_keeps_no_round_state():
    booster = OnlineBooster(Ball(2, 1.0),
                            lambda i, s: ScaledLeaderOracle(_HYPS, 0.5, s),
                            BoosterConfig(n_learners=4, gamma=0.5, lipschitz=4.0))
    bank = booster.bank
    assert isinstance(bank, LeaderBank)
    grads = np.ones((4, 2))
    with pytest.raises(ProtocolError):
        bank.update_all(grads)
    _, traj = booster.predict([0.2])
    booster.update(LinearLoss([0.3, -0.1]), traj)
    arrays = [k for k, v in vars(bank).items() if isinstance(v, np.ndarray)]
    assert arrays == ["cum_losses"]
    with pytest.raises(ProtocolError):
        bank.update_all(grads)
