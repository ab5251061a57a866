"""A booster whose learners are plain ``DecisionStump``s with one context
size, gamma and set runs them as one ``StumpBank``. The bank must play,
credit and count rounds with the bits of the same stumps run one at a time
through a ``LearnerList``, and any learner that does not qualify must send
the booster down the one-at-a-time path."""

import numpy as np
import pytest

from ocoboost.booster import BoosterConfig, OnlineBooster
from ocoboost.errors import DimensionMismatch, ProtocolError
from ocoboost.geometry import Box, Interval, Simplex
from ocoboost.losses import LinearLoss
from ocoboost.weak import (STUMP_BINS, STUMP_WARMUP, DecisionStump, LeaderBank,
                           LearnerList, ScaledLeaderOracle, StumpBank, UniformBaseline,
                           bank_for)

FEATURES = 4


def _wrapped(learner):
    """Replace predict and update on the instance, the way the benchmark's
    tracer does, which keeps the learner out of a bank."""
    predict, update = learner.predict, learner.update
    learner.predict = lambda context: predict(context)
    learner.update = lambda loss: update(loss)
    return learner


def _stump(i, set_c):
    # the first slot's incoming stage point is the centroid
    return DecisionStump(FEATURES, set_c, 0.5, anchor="zero" if i == 0 else "self")


def _booster(set_, n, make=_stump):
    return OnlineBooster(set_, make,
                         BoosterConfig(n_learners=n, gamma=0.5, lipschitz=4.0))


def _assert_same_state(banked, wrapped):
    for a, b in zip(banked.learners, wrapped.learners):
        np.testing.assert_array_equal(a.leaves, b.leaves)
        np.testing.assert_array_equal(a.counts, b.counts)
        np.testing.assert_array_equal(a.feat_loss, b.feat_loss)
        assert a.rounds == b.rounds
        if b.edges is None:
            assert a.edges is None
        else:
            np.testing.assert_array_equal(a.edges, b.edges)


def _assert_plays_one_feature_at_a_time(booster, c):
    """The bank's plays are the parent's one-stump predict: a 1-D argmin,
    ``searchsorted`` on the leading feature's edges and a 1-D projection."""
    for learner, play in zip(booster.learners, booster.bank.predict_all(c)):
        j = int(np.argmin(learner.feat_loss))
        b = int(np.searchsorted(learner.edges[j], c[j], side="right"))
        np.testing.assert_array_equal(
            play, learner.set_._project(learner.gamma * learner.leaves[j, b]))


_SETS = {
    "interval": Interval(-1.0, 1.0),
    "box2d": Box([-1.0, 0.0], [1.0, 2.0]),
    "simplex3": Simplex(3),
}


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("name", list(_SETS))
def test_bank_plays_the_bits_of_one_stump_at_a_time(name, n):
    set_ = _SETS[name]
    rng = np.random.default_rng([n, len(name)])
    banked = _booster(set_, n)
    wrapped = _booster(set_, n, lambda i, s: _wrapped(_stump(i, s)))
    assert isinstance(banked.bank, StumpBank)
    assert isinstance(wrapped.bank, LearnerList)
    horizon = STUMP_WARMUP + 150
    for t in range(horizon):
        # contexts on a grid of a few values put many quantile edges on a
        # context, and after warm-up every other context is made of edges
        c = rng.integers(-2, 3, FEATURES) / 2.0
        edges = banked.learners[0].edges
        if edges is not None and t % 2:
            c = edges[np.arange(FEATURES), rng.integers(0, STUMP_BINS - 1, FEATURES)]
        if edges is not None:
            _assert_plays_one_feature_at_a_time(banked, c)
        point, traj = banked.predict(c)
        point_w, traj_w = wrapped.predict(c)
        np.testing.assert_array_equal(point, point_w)
        np.testing.assert_array_equal(traj.stages, traj_w.stages)
        loss = LinearLoss(3.0 * rng.standard_normal(set_.dim))
        banked.update(loss, traj)
        wrapped.update(loss, traj_w)
        _assert_same_state(banked, wrapped)
    assert all(learner.rounds == horizon for learner in banked.learners)
    assert all(learner.edges is banked.bank.edges for learner in banked.learners)
    assert banked.learners[0].anchor == "zero"


def test_learners_arrays_are_rows_of_the_bank():
    booster = _booster(Interval(-1.0, 1.0), 5)
    bank = booster.bank
    for i, learner in enumerate(booster.learners):
        for name in ("leaves", "counts", "feat_loss"):
            row = getattr(learner, name)
            assert row.base is getattr(bank, name)
            assert np.shares_memory(row, getattr(bank, name)[i])
    np.testing.assert_array_equal(bank.self_anchor, [False, True, True, True, True])


class Subclassed(DecisionStump):
    pass


def _patched(learner):
    predict = learner.predict
    learner.predict = lambda context: predict(context)
    return learner


def _patched_update(learner):
    update = learner.update
    learner.update = lambda loss: update(loss)
    return learner


def _played_before(learner):
    learner.predict(np.zeros(FEATURES))
    learner.update(LinearLoss([0.5]))
    return learner


# name: learner i on the recentred set; each breaks the bank at slot 2, the
# last at every slot (equal rounds, but each stump holds its own warm-up)
_FALLBACKS = {
    "subclass": lambda i, s: (Subclassed if i == 2 else DecisionStump)(FEATURES, s),
    "patched-predict": lambda i, s: (_patched if i == 2 else (lambda x: x))(
        DecisionStump(FEATURES, s)),
    "patched-update": lambda i, s: (_patched_update if i == 2 else (lambda x: x))(
        DecisionStump(FEATURES, s)),
    "learner-kinds": lambda i, s: (UniformBaseline(s) if i == 2
                                   else DecisionStump(FEATURES, s)),
    "gamma": lambda i, s: DecisionStump(FEATURES, s, 0.4 if i == 2 else 0.5),
    "feature-dim": lambda i, s: DecisionStump(FEATURES + (i == 2), s),
    "rounds": lambda i, s: (_played_before if i == 2 else (lambda x: x))(
        DecisionStump(FEATURES, s)),
    "rounds-all": lambda i, s: _played_before(DecisionStump(FEATURES, s)),
}


@pytest.mark.parametrize("name", list(_FALLBACKS))
def test_stumps_that_do_not_qualify_run_one_at_a_time(name):
    booster = _booster(Interval(-1.0, 1.0), 4, _FALLBACKS[name])
    assert isinstance(booster.bank, LearnerList)
    if name != "feature-dim":  # that one takes no common context
        point, traj = booster.predict(np.zeros(FEATURES))
        booster.update(LinearLoss([0.3]), traj)


def test_bank_for_picks_one_bank_per_learner_kind():
    set_ = Interval(-1.0, 1.0)
    stumps = [DecisionStump(FEATURES, set_) for _ in range(3)]
    hypotheses = [lambda c: np.zeros(1)]
    leaders = [ScaledLeaderOracle(hypotheses, 0.5, set_) for _ in range(3)]
    assert isinstance(bank_for(stumps, 1), StumpBank)
    assert isinstance(bank_for(leaders, 1), LeaderBank)
    assert isinstance(bank_for(stumps[:2] + leaders[:1], 1), LearnerList)
    # a learner that has only predict and update runs one call at a time
    assert isinstance(bank_for([_OnlyPredictAndUpdate()], 1), LearnerList)


class _OnlyPredictAndUpdate:
    def predict(self, context):
        return np.zeros(1)

    def update(self, loss):
        pass


def test_bank_update_needs_its_predict():
    booster = _booster(Interval(-1.0, 1.0), 3)
    bank = booster.bank
    with pytest.raises(ProtocolError):
        bank.update_all(np.zeros((3, 1)))
    bank.predict_all(np.zeros(FEATURES))
    bank.update_all(np.zeros((3, 1)))
    with pytest.raises(ProtocolError):
        bank.update_all(np.zeros((3, 1)))
    assert all(learner.rounds == 1 for learner in booster.learners)


def test_wrong_size_context_raises_and_leaves_no_round():
    booster = _booster(Interval(-1.0, 1.0), 3)
    booster.bank.predict_all(np.zeros(FEATURES))
    with pytest.raises(DimensionMismatch):
        booster.predict(np.zeros(FEATURES + 1))
    with pytest.raises(ProtocolError):
        booster.bank.update_all(np.zeros((3, 1)))
    assert all(learner.rounds == 0 for learner in booster.learners)
    point, traj = booster.predict(np.zeros(FEATURES))
    booster.update(LinearLoss([0.3]), traj)
    assert all(learner.rounds == 1 for learner in booster.learners)


@pytest.mark.parametrize("n", [1, 5])
@pytest.mark.parametrize("name", list(_SETS))
def test_bank_credits_ties_at_the_edges_as_a_learner_list(name, n):
    """The bank alone, without a booster: the bins it counted to play are
    the cells it credits, also where a context sits on an edge."""
    set_c, _ = _SETS[name].recenter()
    rng = np.random.default_rng([n, len(name), 1])
    bank = StumpBank([_stump(i, set_c) for i in range(n)])
    listed = LearnerList([_stump(i, set_c) for i in range(n)], set_c.dim)
    for t in range(STUMP_WARMUP + 150):
        c = rng.standard_normal(FEATURES)
        if bank.edges is not None and t % 2:  # every other context is made of edges
            c = bank.edges[np.arange(FEATURES), rng.integers(0, STUMP_BINS - 1, FEATURES)]
        np.testing.assert_array_equal(bank.predict_all(c), listed.predict_all(c))
        G = 3.0 * rng.standard_normal((n, set_c.dim))
        bank.update_all(G)
        listed.update_all(G)
        for a, b in zip(bank.learners, listed.learners):
            np.testing.assert_array_equal(a.leaves, b.leaves)
            np.testing.assert_array_equal(a.counts, b.counts)
            np.testing.assert_array_equal(a.feat_loss, b.feat_loss)
    assert bank.learners[0].edges is bank.edges
    # the credit scatters through flat reshapes, which are views only of
    # contiguous arrays
    for table_name in ("leaves", "counts", "feat_loss"):
        table = getattr(bank, table_name)
        assert table.flags.c_contiguous
        for learner, row in zip(bank.learners, table):
            own = getattr(learner, table_name)
            assert own.flags.c_contiguous
            assert np.shares_memory(own, row) and np.shares_memory(own.reshape(-1), row)
