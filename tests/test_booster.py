import gc
import os
import tracemalloc
import weakref

import numpy as np
import pytest

from ocoboost import extension
from ocoboost.bandit import BanditBooster
from ocoboost.booster import BoosterConfig, OnlineBooster, stage_weights
from ocoboost.errors import (ConfigError, DimensionMismatch, NonFiniteInput,
                             ProtocolError)
from ocoboost.extension import ExtendedLoss, default_delta
from ocoboost.geometry import Ball, Box, CustomSet, Interval, Simplex
from ocoboost.losses import CallableLoss, LinearLoss, QuadraticLoss
from ocoboost.statistical import (ConstantHypothesis, ErmWeakOptimizer,
                                  FiniteSupportOracle, fit_boosted_hypothesis)
from ocoboost.testkit import finite_diff_grad, hull_optimum
from ocoboost.weak import (STUMP_WARMUP, DecisionStump, ScaledLeaderOracle,
                           UniformBaseline, WeakLearner)


class FixedLearner(WeakLearner):
    """Plays a fixed point; used to pin the mixing recurrence."""

    def __init__(self, set_, point):
        super().__init__(set_)
        self.point = np.asarray(point, dtype=np.float64)

    def predict(self, context):
        self._remember(context)
        return self.point.copy()

    def _apply_update(self, context, g):
        pass


def _fixed_booster(set_, points, gamma, lipschitz=1.0):
    cfg = BoosterConfig(n_learners=len(points), gamma=gamma, lipschitz=lipschitz)
    return OnlineBooster(set_, lambda i, s: FixedLearner(s, points[i]), cfg)


class TestPredictRecurrence:
    def test_single_learner_collapse(self):
        # N=1, gamma=1, eta_1=1: played = project(W(c))
        ball = Ball(2, 1.0)
        w = np.array([0.3, 2.0])
        booster = _fixed_booster(ball, [w], gamma=1.0)
        played, traj = booster.predict([0.0])
        np.testing.assert_allclose(played, ball.project(w))
        np.testing.assert_allclose(traj.stages[1], w)

    def test_all_centroid_predictions(self):
        ball = Ball(2, 1.0)
        cfg = BoosterConfig(n_learners=3, gamma=0.5, lipschitz=1.0)
        booster = OnlineBooster(ball, lambda i, s: UniformBaseline(s), cfg)
        played, _ = booster.predict([0.0])
        np.testing.assert_allclose(played, [0.0, 0.0])

    def test_hand_unrolled_two_stages(self):
        # N=2, gamma=0.5, eta_1=eta_2=1, W1=a, W2=b: x^2 = 2b
        ball = Ball(2, 1.0)
        a, b = np.array([0.1, 0.2]), np.array([0.3, -0.1])
        booster = _fixed_booster(ball, [a, b], gamma=0.5)
        played, traj = booster.predict([0.0])

        # independent scalar implementation of the recurrence
        etas = [1.0, 1.0]
        stages = [np.zeros(2)]
        for eta, w in zip(etas, (a, b)):
            stages.append((1 - eta) * stages[-1] + (eta / 0.5) * w)
        np.testing.assert_allclose(traj.stages, np.stack(stages))
        np.testing.assert_allclose(traj.stages[2], 2 * b)
        np.testing.assert_allclose(played, ball.project(2 * b))

    def test_recomputable_bit_for_bit(self):
        ball = Ball(2, 1.0)
        pts = [np.array([0.3, 0.1]), np.array([-0.2, 0.4]), np.array([0.0, 0.5])]
        booster = _fixed_booster(ball, pts, gamma=0.4)
        _, traj = booster.predict([1.0])
        plays = np.array([learner.point for learner in booster.learners])
        np.testing.assert_array_equal(traj.stages, booster.weights @ plays)
        # the recursion sums in another order: equal to rounding
        recomputed = np.empty_like(traj.stages)
        recomputed[0] = 0.0
        for i, play in enumerate(plays):
            eta = min(2.0 / (i + 1), 1.0)
            recomputed[i + 1] = (1.0 - eta) * recomputed[i] + (eta / 0.4) * play
        np.testing.assert_allclose(traj.stages, recomputed, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 64])
    @pytest.mark.parametrize("gamma", [0.1, 0.5, 1.0])
    def test_stage_weights_are_the_recursion_on_the_identity(self, n, gamma):
        weights = stage_weights(n, gamma)
        expected = np.zeros((n + 1, n))
        for i in range(1, n + 1):
            eta = min(2.0 / i, 1.0)
            expected[i] = (1.0 - eta) * expected[i - 1]
            expected[i, i - 1] += eta / gamma
        np.testing.assert_allclose(weights, expected, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(weights[1:].sum(axis=1), 1.0 / gamma, rtol=1e-12)
        assert not weights[2:, 0].any()
        assert not np.triu(weights).any()  # stage m mixes only plays j < m

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_play_raises_at_predict(self, bad):
        # the first learner's play is finite, the second's is not
        booster = _fixed_booster(Ball(2, 1.0), [[0.1, 0.2], [bad, 0.0]],
                                 gamma=1.0)
        with pytest.raises(NonFiniteInput, match="learner 1 "):
            booster.predict([0.0])

    def test_original_coordinates_round_trip(self):
        iv = Interval(0.0, 2.0)  # centroid 1.0
        booster = _fixed_booster(iv, [np.array([0.5])], gamma=1.0)
        played, traj = booster.predict([0.0])
        # learner plays 0.5 in recentered coords -> 1.5 in original
        assert played[0] == pytest.approx(1.5)
        assert iv.contains(played)


class TestUpdate:
    def test_single_learner_receives_extension_gradient(self):
        iv = Interval(-1.0, 1.0)
        received = []

        class Recorder(FixedLearner):
            def _apply_update(self, context, g):
                received.append(g.copy())

        cfg = BoosterConfig(n_learners=1, gamma=1.0, lipschitz=4.0)
        booster = OnlineBooster(iv, lambda i, s: Recorder(s, [0.4]), cfg)
        _, traj = booster.predict([0.0])
        loss = QuadraticLoss([0.8])
        booster.update(loss, traj)

        ext = ExtendedLoss(loss, iv, delta=booster.delta, kappa=booster.kappa)
        np.testing.assert_allclose(received[0], ext.grad(traj.stages[0]),
                                   atol=1e-12)

    def test_linear_loss_interior_gradient_passthrough(self):
        # huge ball, small delta: the extension of a linear loss is the loss
        big = Ball(3, 1e6)
        direction = np.array([0.3, -0.2, 0.5])
        pts = [np.full(3, 0.1), np.full(3, -0.05)]
        received = {}

        class Recorder(FixedLearner):
            def __init__(self, set_, point, slot):
                super().__init__(set_, point)
                self.slot = slot

            def _apply_update(self, context, g):
                received[self.slot] = g.copy()

        # delta = D / (G gamma sqrt(N)) = 2e6 / (1e9 sqrt(2)), about 1.4e-3
        cfg = BoosterConfig(n_learners=2, gamma=1.0, lipschitz=1e9)
        booster = OnlineBooster(big, lambda i, s: Recorder(s, pts[i], i), cfg)
        _, traj = booster.predict([0.0])
        booster.update(LinearLoss(direction), traj)
        assert sorted(received) == [0, 1]
        for g in received.values():
            assert np.linalg.norm(g) == pytest.approx(np.linalg.norm(direction),
                                                      rel=1e-9)
        assert booster.max_grad_norm == pytest.approx(np.linalg.norm(direction),
                                                      rel=1e-9)

    def test_one_dim_gradient_matches_finite_differences(self):
        iv = Interval(-1.0, 1.0)
        booster = _fixed_booster(iv, [np.array([0.6])], gamma=0.5, lipschitz=4.0)
        _, traj = booster.predict([0.0])
        loss = QuadraticLoss([0.2])
        ext = ExtendedLoss(loss, iv, delta=booster.delta, kappa=booster.kappa)
        fd = finite_diff_grad(ext.value, traj.stages[0])
        g = ext.grad(traj.stages[0])
        assert np.linalg.norm(fd - g) <= 1e-3 * max(1.0, np.linalg.norm(g))

    def test_double_update_rejected(self):
        booster = _fixed_booster(Ball(2, 1.0), [np.zeros(2)], gamma=1.0)
        _, traj = booster.predict([0.0])
        booster.update(LinearLoss([1.0, 0.0]), traj)
        with pytest.raises(ProtocolError):
            booster.update(LinearLoss([1.0, 0.0]), traj)

    def test_stale_trajectory_rejected(self):
        booster = _fixed_booster(Ball(2, 1.0), [np.zeros(2)], gamma=1.0)
        _, stale = booster.predict([0.0])
        booster.predict([1.0])
        with pytest.raises(ProtocolError):
            booster.update(LinearLoss([1.0, 0.0]), stale)

    @pytest.mark.parametrize("make", [
        lambda i, s: UniformBaseline(s),
        lambda i, s: ScaledLeaderOracle([lambda c: np.full(3, 0.2),
                                         lambda c: np.full(3, -0.2)], 0.5, s),
    ], ids=["list", "leader-bank"])
    def test_wrong_size_loss_rejected_before_learners_move(self, make):
        # a zero-offset set takes the loss unshifted, where a 1-D direction
        # would broadcast against the 3-D stage points
        cfg = BoosterConfig(n_learners=2, gamma=0.5, lipschitz=1.0)
        booster = OnlineBooster(Ball(3, 1.0), make, cfg)
        _, traj = booster.predict([0.0])
        for loss in (LinearLoss([0.3]), QuadraticLoss([0.5])):
            with pytest.raises(DimensionMismatch):
                booster.update(loss, traj)
        assert [learner.rounds for learner in booster.learners] == [0, 0]
        assert booster.rounds_done == 0
        assert booster.max_grad_norm == 0.0
        booster.update(LinearLoss([0.3, 0.0, -0.4]), traj)
        assert [learner.rounds for learner in booster.learners] == [1, 1]
        assert booster.rounds_done == 1
        assert booster.max_grad_norm > 0.0

    def test_failed_predict_leaves_no_round(self):
        # a predict in which a learner plays NaN drops the round before it:
        # the earlier trajectory can no longer be updated
        class NanOnNegative(FixedLearner):
            def predict(self, context):
                point = super().predict(context)
                return point * np.nan if context[0] < 0 else point

        cfg = BoosterConfig(n_learners=3, gamma=0.5, lipschitz=4.0)
        booster = OnlineBooster(Interval(-1.0, 1.0),
                                lambda i, s: NanOnNegative(s, [0.2 * i]), cfg)
        _, traj = booster.predict([1.0])
        with pytest.raises(NonFiniteInput):
            booster.predict([-1.0])
        with pytest.raises(ProtocolError):
            booster.update(LinearLoss([0.5]), traj)
        assert [learner.rounds for learner in booster.learners] == [0, 0, 0]
        assert booster.rounds_done == 0
        assert booster.realized_loss == 0.0


class TestRegretReport:
    """Regret is measured by the caller: ``realized_loss`` minus a
    comparator's cumulative loss on the same stream."""

    def test_played_sequence_comparator_is_zero(self, rng):
        ball = Ball(2, 1.0)
        booster = _fixed_booster(ball, [np.array([0.2, 0.1]),
                                        np.array([-0.4, 0.3])], gamma=0.5)
        played_loss = 0.0
        for _ in range(10):
            played, traj = booster.predict(rng.standard_normal(1))
            loss = LinearLoss(rng.standard_normal(2))
            booster.update(loss, traj)
            played_loss += loss.value(played)
        assert booster.realized_loss - played_loss == 0.0

    def test_single_hypothesis(self, rng):
        ball = Ball(2, 1.0)
        booster = _fixed_booster(ball, [np.array([0.2, 0.1])], gamma=1.0)
        losses = [LinearLoss(rng.standard_normal(2)) for _ in range(10)]
        contexts = [rng.standard_normal(1) for _ in range(10)]
        for c, loss in zip(contexts, losses):
            _, traj = booster.predict(c)
            booster.update(loss, traj)
        h = lambda c: np.array([0.5, 0.0])
        expected = booster.realized_loss - sum(
            loss.value(h(c)) for loss, c in zip(losses, contexts))
        # the one-point hull's optimum is the hypothesis itself
        oracle = hull_optimum([h], losses, contexts)
        assert booster.realized_loss - oracle.value == pytest.approx(expected)


class TestRunningTotals:
    def test_prox_counters(self, monkeypatch):
        # a quadratic written as a CallableLoss runs the iterative prox; one
        # iteration at tol 1e-14 leaves every solve unconverged
        monkeypatch.setattr(extension, "PROX_BUDGET", 1)
        monkeypatch.setattr(extension, "PROX_TOL", 1e-14)
        box = Box([-1.0, -1.0], [1.0, 1.0])
        quad = QuadraticLoss([0.2, -0.3], weight=5.0)
        loss = CallableLoss(quad.value, quad.grad,
                            curvature_hint=quad.curvature_hint)
        pts = [np.array([0.9, -0.8]), np.array([-0.7, 0.6]), np.array([0.5, 0.5])]
        booster = _fixed_booster(box, pts, gamma=0.5, lipschitz=2.0)
        linear = _fixed_booster(box, pts, gamma=0.5, lipschitz=2.0)
        for _ in range(4):
            for b, f in ((booster, loss), (linear, LinearLoss([0.3, -0.6]))):
                _, traj = b.predict([0.0])
                b.update(f, traj)
        assert booster.prox_nonconverged == 4 * len(pts)
        assert booster.prox_worst_residual > 0
        assert linear.prox_nonconverged == 0
        assert linear.prox_worst_residual == 0


class RecordingLearner(FixedLearner):
    """A fixed learner that keeps every gradient it is fed."""

    def __init__(self, set_, point):
        super().__init__(set_, point)
        self.grads = []

    def _apply_update(self, context, g):
        self.grads.append(g.copy())


class TestBatchedUpdate:
    @pytest.mark.parametrize("n", [1, 4, 16])
    def test_one_gradient_call_per_update(self, monkeypatch, n):
        shapes = []
        grad_with_info = ExtendedLoss.grad_with_info

        def counted(self, x):
            shapes.append(np.shape(x))
            return grad_with_info(self, x)

        monkeypatch.setattr(ExtendedLoss, "grad_with_info", counted)
        cfg = BoosterConfig(n_learners=n, gamma=0.5, lipschitz=2.0)
        booster = OnlineBooster(Simplex(3), lambda i, s: UniformBaseline(s), cfg)
        _, traj = booster.predict([0.0])
        booster.update(LinearLoss([0.3, -0.2, 0.5]), traj)
        assert shapes == [(n, 3)]

    def test_custom_set_round_matches_box(self):
        # a projection oracle takes one point at a time, so the batch loops
        # over its rows; the round must equal the same round on a Box
        box = Box([-1.0, -1.0], [1.0, 1.0])
        custom = CustomSet(2, lambda x: np.clip(x, -1.0, 1.0),
                           diameter=box.diameter, centroid=[0.0, 0.0])
        pts = [[0.9, -0.8], [-0.7, 0.6], [0.5, 0.5], [0.1, -0.9]]
        cfg = BoosterConfig(n_learners=len(pts), gamma=0.5, lipschitz=2.0)
        runs = []
        for set_ in (box, custom):
            booster = OnlineBooster(
                set_, lambda i, s: RecordingLearner(s, pts[i]), cfg)
            played = []
            for loss in (LinearLoss([0.3, -0.6]), QuadraticLoss([0.8, 0.1])):
                x, traj = booster.predict([0.0])
                booster.update(loss, traj)
                played.append(x)
            runs.append((played, [l.grads for l in booster.learners],
                         booster.max_grad_norm))
        (box_played, box_grads, box_norm), (played, grads, norm) = runs
        assert np.array_equal(played, box_played)
        assert np.array_equal(grads, box_grads)
        assert norm == box_norm > 0


class TestTranscriptAndConfig:
    def test_from_config(self, rng):
        iv = Interval(-1.0, 1.0)
        cfg = BoosterConfig(n_learners=3, gamma=0.25, lipschitz=8.0)
        booster = OnlineBooster(
            iv, lambda i, s: DecisionStump(4, s, 0.25), cfg)
        assert len(booster.learners) == 3
        assert booster.config.gamma == 0.25
        for t in range(STUMP_WARMUP + 3):
            played, traj = booster.predict(rng.standard_normal(4))
            assert iv.contains(played)
            booster.update(QuadraticLoss([rng.uniform(-1, 1)]), traj)

    @pytest.mark.parametrize("n, gamma, lipschitz", [(1, 1.0, 1.0), (3, 0.25, 8.0),
                                                     (16, 0.5, 0.3)])
    def test_smoothing_derived_from_lipschitz(self, n, gamma, lipschitz):
        config = BoosterConfig(n_learners=n, gamma=gamma, lipschitz=lipschitz)
        ball = Ball(2, 1.5, center=[0.5, -1.0])
        expected = (default_delta(ball.diameter, gamma, n, lipschitz), lipschitz)
        assert config.smoothing(ball.diameter) == expected
        booster = OnlineBooster(ball, lambda i, s: UniformBaseline(s), config)
        assert (booster.delta, booster.kappa) == expected

    @pytest.mark.parametrize("n", [2.5, 3.0])
    def test_non_integral_learner_count_rejected(self, n):
        with pytest.raises(ConfigError, match="is not an integer >= 1"):
            BoosterConfig(n_learners=n, gamma=0.5, lipschitz=1.0)
        oracle = FiniteSupportOracle([(QuadraticLoss([0.2]), [0.0])])
        wopt = ErmWeakOptimizer([ConstantHypothesis([0.5])], 0.5, exact=True)
        with pytest.raises(ConfigError, match="is not an integer >= 1"):
            fit_boosted_hypothesis(oracle, wopt, Interval(-1.0, 1.0), n_stages=n,
                                   gamma=0.5, stage_budget=1, lipschitz=4.0)

    def test_numpy_integer_learner_count_accepted(self):
        config = BoosterConfig(n_learners=np.int64(3), gamma=0.5, lipschitz=1.0)
        booster = OnlineBooster(Ball(2, 1.0), lambda i, s: UniformBaseline(s),
                                config)
        _, traj = booster.predict([0.0])
        assert traj.stages.shape == (4, 2)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BoosterConfig(n_learners=0, gamma=0.5, lipschitz=1.0)
        with pytest.raises(ConfigError):
            BoosterConfig(n_learners=2, gamma=1.5, lipschitz=1.0)
        with pytest.raises(TypeError):
            # the smoothing radius and kappa come from lipschitz
            BoosterConfig(n_learners=1, gamma=0.5)
        # non-finite settings fail when the config is built, not at the
        # first update
        nan, inf = float("nan"), float("inf")
        for value in (nan, inf):
            with pytest.raises(ConfigError, match="lipschitz must be"):
                BoosterConfig(n_learners=2, gamma=0.5, lipschitz=value)
        # a zero-diameter set gives a zero balanced radius
        config = BoosterConfig(n_learners=2, gamma=0.5, lipschitz=1.0)
        for diameter in (0.0, nan):
            with pytest.raises(ConfigError, match="smoothing radius"):
                config.smoothing(diameter)
        with pytest.raises(ConfigError, match="smoothing radius"):
            OnlineBooster(Simplex(1), lambda i, s: UniformBaseline(s), config)


def test_played_actions_always_feasible_under_adversarial_losses(rng):
    iv = Interval(-0.5, 2.0)
    cfg = BoosterConfig(n_learners=4, gamma=0.2, lipschitz=30.0)
    booster = OnlineBooster(
        iv, lambda i, s: ScaledLeaderOracle(
            [lambda c: np.array([-1.25]), lambda c: np.array([1.25])], 0.2, s),
        cfg)
    for _ in range(100):
        played, traj = booster.predict(rng.standard_normal(2))
        assert iv.contains(played)
        booster.update(LinearLoss([50.0 * rng.standard_normal()]), traj)


def test_learners_keep_no_reference_to_the_callers_contexts(rng):
    # the stumps' contexts are views into the feature matrix; once each
    # round's update has consumed its predict, nothing holds the matrix
    features = rng.standard_normal((300, 3))
    targets = rng.uniform(-1.0, 1.0, 300)
    booster = OnlineBooster(
        Interval(-1.0, 1.0),
        lambda i, s: DecisionStump(3, s, 0.5,
                                   anchor="zero" if i == 0 else "self"),
        BoosterConfig(n_learners=3, gamma=0.5, lipschitz=8.0))
    for row, target in zip(features, targets):
        _, traj = booster.predict(row)
        booster.update(QuadraticLoss([target]), traj)
    alive = weakref.ref(features)
    del features, row
    gc.collect()
    assert alive() is None


def _traced_program_bytes():
    """Traced bytes held by allocations outside numpy's own Python frames and
    outside tracemalloc. numpy keeps internal caches that fill over the
    first few thousand calls (5.7 KB between calls 500 and 1500 of
    ``Simplex._project`` alone, then flat), which is not the boosters'."""
    gc.collect()
    skip = (os.path.dirname(np.__file__), tracemalloc.__file__)
    return sum(trace.size for trace in tracemalloc.take_snapshot().traces
               if not trace.traceback[0].filename.startswith(skip))


def test_memory_stays_flat_over_long_streams():
    # the boosters keep running totals, not per-round records
    rng = np.random.default_rng(7)
    directions = rng.standard_normal((1500, 2))
    ball_hyps = [lambda c, a=a: a * np.tanh(c[0]) for a in 0.4 * np.eye(2)]
    online = OnlineBooster(
        Ball(2, 1.0), lambda i, s: ScaledLeaderOracle(ball_hyps, 0.5, s),
        BoosterConfig(n_learners=4, gamma=0.5, lipschitz=4.0))
    losses = rng.uniform(0.0, 1.0, size=(1500, 4))
    bandit = BanditBooster(
        Simplex(4), lambda i, s: UniformBaseline(s),
        BoosterConfig(n_learners=4, gamma=0.5, lipschitz=16.0),
        explore_rate=0.25, seed=3)

    def online_round(t):
        _, traj = online.predict([float(t)])
        online.update(LinearLoss(directions[t]), traj)

    def bandit_round(t):
        bandit.feedback(float(losses[t] @ bandit.step([float(t)])))

    for run_round in (online_round, bandit_round):
        tracemalloc.start()
        try:
            for t in range(1500):
                if t == 500:
                    start = _traced_program_bytes()
                run_round(t)
            growth = _traced_program_bytes() - start
        finally:
            tracemalloc.stop()
        assert growth < 4096, (run_round.__name__, growth)
