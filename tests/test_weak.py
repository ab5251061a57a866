import numpy as np
import pytest

from ocoboost.bandit import default_explore_rate
from ocoboost.bench.experiment import ExperimentConfig
from ocoboost.booster import BoosterConfig
from ocoboost.errors import (ConfigError, DimensionMismatch, NonFiniteInput,
                             ProtocolError)
from ocoboost.geometry import Ball, Box, Interval, Simplex
from ocoboost.losses import LinearLoss
from ocoboost.statistical import ErmWeakOptimizer
from ocoboost.weak import (STUMP_BINS, STUMP_WARMUP, DecisionStump, OnlineRidge,
                           ScaledLeaderOracle, TinyMlp, UniformBaseline,
                           empirical_gamma_regret)


def _ball_hypotheses(rng, n=4, dim=2):
    anchors = rng.standard_normal((n, dim))
    anchors /= np.linalg.norm(anchors, axis=1, keepdims=True)
    return [lambda c, a=a: a * float(np.tanh(c[0])) for a in anchors]


class TestUniformBaseline:
    def test_plays_centroid(self, rng):
        ball = Ball(2, 1.0)
        learner = UniformBaseline(ball)
        for c in rng.standard_normal((5, 3)):
            np.testing.assert_allclose(learner.predict(c), [0.0, 0.0])
            learner.update(LinearLoss(rng.standard_normal(2)))

    def test_gamma_regret_nonnegative_when_best_negative(self, rng):
        ball, _ = Ball(2, 1.0).recenter()
        hyps = _ball_hypotheses(rng)
        transcript = [(rng.standard_normal(1), LinearLoss(rng.standard_normal(2)))
                      for _ in range(60)]
        learner = UniformBaseline(ball, gamma=0.5)
        value = empirical_gamma_regret(learner, transcript, hyps)
        best = min(sum(loss.value(h(c)) for c, loss in transcript) for h in hyps)
        assert value == pytest.approx(-0.5 * best)
        if best <= 0:
            assert value >= 0


class TestScaledLeaderOracle:
    def test_plays_scaled_ftl_leader(self, rng):
        ball = Ball(2, 1.0)
        hyps = _ball_hypotheses(rng)
        oracle = ScaledLeaderOracle(hyps, 0.5, ball)
        transcript = [(rng.standard_normal(1), LinearLoss(rng.standard_normal(2)))
                      for _ in range(30)]
        cum = np.zeros(len(hyps))
        for c, loss in transcript:
            leader = int(np.argmin(cum))  # exhaustive minimization over H
            np.testing.assert_allclose(oracle.predict(c), 0.5 * hyps[leader](c))
            oracle.update(loss)
            cum += np.array([loss.value(h(c)) for h in hyps])

    def test_identical_losses_lead_to_argmin(self, rng):
        ball = Ball(2, 1.0)
        hyps = _ball_hypotheses(rng)
        oracle = ScaledLeaderOracle(hyps, 0.5, ball)
        g = np.array([0.3, -0.7])
        c = np.array([0.9])
        for _ in range(25):
            oracle.predict(c)
            oracle.update(LinearLoss(g))
        best = int(np.argmin([g @ h(c) for h in hyps]))
        np.testing.assert_allclose(oracle.predict(c), 0.5 * hyps[best](c))

    def test_prediction_stable_without_update(self, rng):
        ball = Ball(2, 1.0)
        oracle = ScaledLeaderOracle(_ball_hypotheses(rng), 0.5, ball)
        c = np.array([0.4])
        first = oracle.predict(c)
        np.testing.assert_allclose(oracle.predict(c), first)

    def test_update_before_predict_fails(self, rng):
        oracle = ScaledLeaderOracle(_ball_hypotheses(rng), 0.5, Ball(2, 1.0))
        with pytest.raises(ProtocolError):
            oracle.update(LinearLoss([1.0, 0.0]))

    @pytest.mark.parametrize("mode", ["ftl", "hedge"])
    def test_gamma_regret_bound_on_suite_transcripts(self, rng, mode):
        # unit-scale adversarial-ish losses drawn by the suite
        ball, _ = Ball(2, 1.0).recenter()
        hyps = _ball_hypotheses(rng)
        T = 400
        transcript = []
        for t in range(T):
            c = rng.standard_normal(1)
            g = rng.standard_normal(2)
            g /= max(1.0, np.linalg.norm(g))
            transcript.append((c, LinearLoss(g)))
        oracle = ScaledLeaderOracle(hyps, 0.5, ball, mode=mode, scale=1.0)
        value = empirical_gamma_regret(oracle, transcript, hyps)
        assert value <= 2.0 * np.sqrt(T * np.log(len(hyps)))

    def test_small_transcript_bound(self, rng):
        # |H| = 4, T = 100 example
        ball, _ = Ball(2, 1.0).recenter()
        hyps = _ball_hypotheses(rng)
        transcript = []
        for _ in range(100):
            g = rng.standard_normal(2)
            g /= max(1.0, np.linalg.norm(g))
            transcript.append((rng.standard_normal(1), LinearLoss(g)))
        oracle = ScaledLeaderOracle(hyps, 0.5, ball)
        value = empirical_gamma_regret(oracle, transcript, hyps)
        assert value <= 2.0 * np.sqrt(100 * np.log(4))

    def test_single_round_exact_play_zero_regret(self):
        ball = Ball(1, 1.0)
        hyps = [lambda c: np.array([-1.0]), lambda c: np.array([1.0])]
        oracle = ScaledLeaderOracle(hyps, 0.5, ball)
        transcript = [(np.zeros(1), LinearLoss([1.0]))]
        # one round: oracle plays gamma * h_leader = gamma * h_0 (tie -> index 0),
        # and h_0 is the argmin for this loss
        value = empirical_gamma_regret(oracle, transcript, hyps)
        assert value == pytest.approx(0.0, abs=1e-12)


class TestDecisionStump:
    def test_warmup_plays_centroid(self, rng):
        iv, _ = Interval(-1.0, 1.0).recenter()
        stump = DecisionStump(3, iv)
        for _ in range(STUMP_WARMUP - 1):
            np.testing.assert_allclose(stump.predict(rng.standard_normal(3)), [0.0])
            stump.update(LinearLoss([rng.standard_normal()]))

    def test_single_cell_statistic_changes(self, rng):
        # p = 1: exactly one (feature, bin) cell changes per update
        iv = Interval(-1.0, 1.0)
        stump = DecisionStump(1, iv)
        for _ in range(STUMP_WARMUP):
            stump.predict(rng.standard_normal(1))
            stump.update(LinearLoss([rng.standard_normal()]))
        before = stump.counts.copy()
        stump.predict(np.array([0.2]))
        stump.update(LinearLoss([0.5]))
        changed = np.flatnonzero(stump.counts - before)
        assert changed.size == 1

    def test_one_cell_per_feature_changes(self, rng):
        iv = Interval(-1.0, 1.0)
        stump = DecisionStump(4, iv)
        for _ in range(STUMP_WARMUP):
            stump.predict(rng.standard_normal(4))
            stump.update(LinearLoss([rng.standard_normal()]))
        before = stump.counts.copy()
        stump.predict(rng.standard_normal(4))
        stump.update(LinearLoss([0.5]))
        diff = stump.counts - before
        assert np.all(diff.sum(axis=1) == 1)

    def test_feature_dim_mismatch(self, rng):
        stump = DecisionStump(3, Interval(-1.0, 1.0))
        with pytest.raises(DimensionMismatch):
            stump.predict(np.zeros(2))

    def test_fixed_warmup_and_bins(self, rng):
        iv, _ = Interval(-1.0, 1.0).recenter()
        stump = DecisionStump(3, iv)
        for _ in range(STUMP_WARMUP):
            assert stump.edges is None
            np.testing.assert_array_equal(stump.predict(rng.standard_normal(3)),
                                          [0.0])
            stump.update(LinearLoss([rng.standard_normal()]))
        assert [edges.shape for edges in stump.edges] == [(STUMP_BINS - 1,)] * 3


class TestGradientFitLearners:
    def test_ridge_zero_weights_projection(self):
        iv = Interval(-0.5, 2.0)
        ridge = OnlineRidge(3, iv)
        np.testing.assert_allclose(ridge.predict(np.ones(3)),
                                   iv.project([0.0]))

    def test_zero_loss_keeps_state(self, rng):
        iv, _ = Interval(-1.0, 1.0).recenter()
        for learner in (OnlineRidge(3, iv), TinyMlp(3, iv, seed=4)):
            c = rng.standard_normal(3)
            learner.predict(c)
            before = learner.predict(c).copy()
            learner.update(LinearLoss([0.0]))
            np.testing.assert_allclose(learner.predict(c), before)

    def test_standalone_ridge_fits_targets(self, rng):
        # self-anchored regression recovers a linear map
        iv = Interval(-3.0, 3.0)
        ridge = OnlineRidge(2, iv, step=0.05)
        w_true = np.array([1.0, -0.5])
        err = 0.0
        for t in range(3000):
            c = rng.standard_normal(2)
            y = float(w_true @ c)
            pred = float(ridge.predict(c)[0])
            if t > 2500:
                err += abs(pred - y)
            ridge.update(LinearLoss([2.0 * (pred - y)]))
        assert err / 500 < 0.15

    def test_mlp_deterministic_given_seed(self, rng):
        iv = Interval(-1.0, 1.0)
        a = TinyMlp(3, iv, seed=9)
        b = TinyMlp(3, iv, seed=9)
        for _ in range(20):
            c = rng.standard_normal(3)
            g = np.array([rng.standard_normal()])
            np.testing.assert_array_equal(a.predict(c), b.predict(c))
            a.update(LinearLoss(g))
            b.update(LinearLoss(g))


def test_predictions_stay_feasible_under_adversarial_losses(rng):
    sets = [Interval(-1.0, 1.0), Ball(2, 1.0), Simplex(3)]
    for set_ in sets:
        set_c, _ = set_.recenter()
        learners = [
            UniformBaseline(set_c),
            ScaledLeaderOracle([lambda c: set_c.sample(np.random.default_rng(1))
                                for _ in range(3)], 0.7, set_c),
            DecisionStump(2, set_c),
            OnlineRidge(2, set_c, step=0.5),
            TinyMlp(2, set_c, step=0.5, seed=1),
        ]
        for learner in learners:
            for _ in range(60):
                c = 10.0 * rng.standard_normal(2)
                action = learner.predict(c)
                assert set_c.distance(action) <= 1e-9
                learner.update(LinearLoss(100.0 * rng.standard_normal(set_c.dim)))


_LEADER_HYPOTHESES = [lambda c: np.full(2, 0.1), lambda c: np.full(2, -0.1)]

# name: (learner on the recentred set, rounds played before the check)
_ONE_ROUND_LEARNERS = {
    "uniform": (lambda s: UniformBaseline(s), 1),
    "leader-ftl": (lambda s: ScaledLeaderOracle(_LEADER_HYPOTHESES, 0.5, s), 1),
    "leader-hedge": (lambda s: ScaledLeaderOracle(_LEADER_HYPOTHESES, 0.5, s,
                                                  mode="hedge"), 1),
    "stump-in-warmup": (lambda s: DecisionStump(2, s), 1),
    "stump-after-warmup": (lambda s: DecisionStump(2, s), STUMP_WARMUP + 1),
    "ridge": (lambda s: OnlineRidge(2, s), 1),
    "mlp": (lambda s: TinyMlp(2, s, seed=3), 1),
}


@pytest.mark.parametrize("name", list(_ONE_ROUND_LEARNERS))
def test_update_consumes_its_predict(rng, name):
    # an update uses what its predict set up and keeps none of it, so a
    # second update without a predict has nothing to act on
    make, rounds = _ONE_ROUND_LEARNERS[name]
    set_c, _ = Ball(2, 1.0).recenter()
    learner = make(set_c)
    for _ in range(rounds):
        learner.predict(rng.standard_normal(2))
        learner.update(LinearLoss(rng.standard_normal(2)))
    if isinstance(learner, DecisionStump):
        assert (learner.edges is not None) == (rounds > STUMP_WARMUP)
    with pytest.raises(ProtocolError):
        learner.update(LinearLoss(rng.standard_normal(2)))


@pytest.mark.parametrize("make", [
    lambda s: DecisionStump(3, s),
    lambda s: OnlineRidge(3, s),
    lambda s: TinyMlp(3, s, seed=3),
], ids=["stump", "ridge", "mlp"])
def test_rejected_context_is_not_kept(make):
    # a context of the wrong size is refused before the learner stores it,
    # so no update can act on it
    learner = make(Interval(-1.0, 1.0))
    with pytest.raises(DimensionMismatch):
        learner.predict(np.zeros(2))
    with pytest.raises(ProtocolError):
        learner.update(LinearLoss([0.5]))
    assert learner.rounds == 0


def _refuses_negative_contexts(c):
    if c[0] < 0:
        raise ValueError("hypothesis refuses the context")
    return np.full(1, np.tanh(c[0]))


@pytest.mark.parametrize("make, rejected, error", [
    (lambda s: UniformBaseline(s), np.full(3, np.nan), NonFiniteInput),
    (lambda s: DecisionStump(3, s), np.zeros(2), DimensionMismatch),
    (lambda s: OnlineRidge(3, s), np.zeros(2), DimensionMismatch),
    (lambda s: TinyMlp(3, s, seed=3), np.zeros(2), DimensionMismatch),
    (lambda s: ScaledLeaderOracle([_refuses_negative_contexts], 0.5, s),
     -np.ones(3), ValueError),
], ids=["uniform", "stump", "ridge", "mlp", "leader"])
def test_rejected_predict_leaves_no_round(make, rejected, error):
    # a predict that raises drops the round of the predict before it, so
    # the next update has nothing to act on and nothing moves
    learner = make(Interval(-1.0, 1.0))
    learner.predict(np.ones(3))
    with pytest.raises(error):
        learner.predict(rejected)
    with pytest.raises(ProtocolError):
        learner.update(LinearLoss([0.5]))
    assert learner.rounds == 0
    if isinstance(learner, ScaledLeaderOracle):
        assert np.array_equal(learner.cum_losses, [0.0])


def test_empirical_gamma_regret_empty_transcript(rng):
    learner = UniformBaseline(Ball(2, 1.0))
    with pytest.raises(ConfigError):
        empirical_gamma_regret(learner, [], [lambda c: np.zeros(2)])


def test_empirical_gamma_regret_rejects_used_learner(rng):
    # the regret is of a fresh learner's play; one that has played carries
    # state from rounds the transcript does not hold
    hyps = _ball_hypotheses(rng)
    transcript = [(rng.standard_normal(1), LinearLoss(rng.standard_normal(2)))]
    for played_rounds in (0, 1):
        learner = ScaledLeaderOracle(hyps, 0.5, Ball(2, 1.0))
        learner.predict(np.zeros(1))
        if played_rounds:
            learner.update(LinearLoss([1.0, 0.0]))
        with pytest.raises(ConfigError, match="not played"):
            empirical_gamma_regret(learner, transcript, hyps)


class _LoopStump(DecisionStump):
    """The stump's per-feature credit written one feature at a time, as a
    reference: per-feature quantile edges, a ``searchsorted`` bin, and one
    projection, dot product and leaf update per feature."""

    def _finish_warmup(self):
        data = np.stack([c for c, _ in self._buffer])
        qs = np.arange(1, STUMP_BINS) / STUMP_BINS
        self.edges = [np.quantile(data[:, j], qs) for j in range(self.feature_dim)]
        for c, g in self._buffer:
            self._credit(c, g)
        self._buffer = []

    def _credit(self, context, g):
        for j in range(self.feature_dim):
            b = int(np.searchsorted(self.edges[j], context[j], side="right"))
            action = self.set_._project(self.gamma * self.leaves[j, b])
            self.feat_loss[j] += float(g @ action)
            self.counts[j, b] += 1
            leaf = self.leaves[j, b]
            base = leaf if self.anchor == "self" else 0.0
            target = base - 0.5 * g
            self.leaves[j, b] = leaf + (target - leaf) / self.counts[j, b]


@pytest.mark.parametrize("anchor", ["self", "zero"])
@pytest.mark.parametrize("features", [1, 6])
@pytest.mark.parametrize("set_", [Interval(-1.0, 1.0), Box([-1.0, 0.0], [1.0, 2.0])],
                         ids=["interval", "box2d"])
def test_array_credit_matches_the_per_feature_loop(rng, set_, features, anchor):
    # contexts on a grid of a few values put many quantile edges on a
    # context, and after warm-up half the contexts are edges themselves:
    # ties, where counting edges <= c must agree with searchsorted
    set_c, _ = set_.recenter()
    stump = DecisionStump(features, set_c, 0.5, anchor=anchor)
    loop = _LoopStump(features, set_c, 0.5, anchor=anchor)
    for t in range(STUMP_WARMUP + 150):
        c = rng.integers(-2, 3, features) / 2.0
        if loop.edges is not None and t % 2:
            c = np.array([edges[k] for edges, k in
                          zip(loop.edges, rng.integers(0, STUMP_BINS - 1, features))])
        np.testing.assert_array_equal(stump.predict(c), loop.predict(c))
        g = 3.0 * rng.standard_normal(set_c.dim)
        stump.update(g)
        loop.update(g)
        np.testing.assert_array_equal(stump.leaves, loop.leaves)
        np.testing.assert_array_equal(stump.counts, loop.counts)
        np.testing.assert_array_equal(stump.feat_loss, loop.feat_loss)
    np.testing.assert_array_equal(stump.edges, np.array(loop.edges))


_REGRESSORS = {
    "stump": lambda f, s, **kw: DecisionStump(f, s, **kw),
    "ridge": lambda f, s, **kw: OnlineRidge(f, s, **kw),
    "mlp": lambda f, s, **kw: TinyMlp(f, s, seed=3, **kw),
}


@pytest.mark.parametrize("feature_dim", [-1, 0, 2.5, 3.0, "3"])
@pytest.mark.parametrize("kind", list(_REGRESSORS))
def test_regressor_rejects_a_bad_feature_dim(kind, feature_dim):
    with pytest.raises(ConfigError, match="feature_dim"):
        _REGRESSORS[kind](feature_dim, Interval(-1.0, 1.0))


@pytest.mark.parametrize("kind", list(_REGRESSORS))
def test_regressor_accepts_a_numpy_integer_feature_dim(kind):
    learner = _REGRESSORS[kind](np.int64(3), Interval(-1.0, 1.0))
    assert learner.feature_dim == 3 and type(learner.feature_dim) is int
    learner.predict(np.ones(3))
    learner.update(LinearLoss([0.5]))


_GAMMA_LEARNERS = {
    "uniform": lambda s, gamma: UniformBaseline(s, gamma=gamma),
    "leader": lambda s, gamma: ScaledLeaderOracle(_LEADER_HYPOTHESES, gamma, s),
    **{kind: lambda s, gamma, make=make: make(2, s, gamma=gamma)
       for kind, make in _REGRESSORS.items()},
}


@pytest.mark.parametrize("gamma", [-1.0, 0.0, 1.5, np.nan])
@pytest.mark.parametrize("kind", list(_GAMMA_LEARNERS))
def test_learner_rejects_gamma_outside_unit_interval(kind, gamma):
    with pytest.raises(ConfigError, match="gamma"):
        _GAMMA_LEARNERS[kind](Ball(2, 1.0), gamma)


@pytest.mark.parametrize("scale", [0.0, -1.0, np.inf, np.nan])
def test_leader_rejects_a_scale_that_is_not_positive_and_finite(scale):
    with pytest.raises(ConfigError, match="scale"):
        ScaledLeaderOracle(_LEADER_HYPOTHESES, 0.5, Ball(2, 1.0), mode="hedge",
                           scale=scale)


@pytest.mark.parametrize("step", [0.0, -0.1, np.inf, np.nan])
@pytest.mark.parametrize("kind", ["ridge", "mlp"])
def test_regressor_rejects_a_step_that_is_not_positive_and_finite(kind, step):
    # a NaN step was accepted and the learner played [nan] from round 2 on
    with pytest.raises(ConfigError, match="step must be positive and finite"):
        _REGRESSORS[kind](2, Interval(-1.0, 1.0), step=step)


_GAMMA_CHECKS = {
    "learner": lambda gamma: UniformBaseline(Ball(2, 1.0), gamma=gamma),
    "booster": lambda gamma: BoosterConfig(n_learners=2, gamma=gamma, lipschitz=1.0),
    "explore-rate": lambda gamma: default_explore_rate(2, 10, 2, gamma),
    "erm": lambda gamma: ErmWeakOptimizer([lambda c: np.zeros(1)], gamma),
    "experiment": lambda gamma: ExperimentConfig("synthetic", gamma=gamma),
}


@pytest.mark.parametrize("gamma", [0.0, 1.5, np.nan])
@pytest.mark.parametrize("site", list(_GAMMA_CHECKS))
def test_every_gamma_check_raises_one_message(site, gamma):
    with pytest.raises(ConfigError, match=r"^gamma must be in \(0, 1\]$"):
        _GAMMA_CHECKS[site](gamma)
