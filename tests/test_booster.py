import json

import numpy as np
import pytest

from ocoboost.booster import BoosterConfig, OnlineBooster
from ocoboost.errors import ConfigError, ProtocolError
from ocoboost.extension import ExtendedLoss
from ocoboost.geometry import Ball, Interval
from ocoboost.losses import LinearLoss, QuadraticLoss
from ocoboost.testkit import finite_diff_grad, hull_optimum
from ocoboost.weak import ScaledLeaderOracle, UniformBaseline, WeakLearner


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

    def reset(self):
        pass


def _fixed_booster(set_, points, gamma, **kwargs):
    cfg = BoosterConfig(n_learners=len(points), gamma=gamma, lipschitz=1.0,
                        **kwargs)
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
        etas = booster.etas
        recomputed = np.empty_like(traj.stages)
        recomputed[0] = traj.stages[0]
        for i in range(3):
            recomputed[i + 1] = ((1.0 - etas[i]) * recomputed[i]
                                 + (etas[i] / 0.4) * traj.learner_plays[i])
        np.testing.assert_array_equal(recomputed, traj.stages)

    def test_explicit_start_point_rule(self):
        # an explicit x0 (original coordinates) feeds the first stage
        iv = Interval(0.0, 2.0)
        cfg = BoosterConfig(n_learners=1, gamma=1.0, lipschitz=1.0,
                            x0_rule=np.array([1.5]))
        booster = OnlineBooster(iv, lambda i, s: FixedLearner(s, [0.0]), cfg)
        _, traj = booster.predict([0.0])
        assert traj.stages[0][0] == pytest.approx(0.5)  # recentered 1.5

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
        booster = _fixed_booster(big, pts, gamma=1.0, delta=1e-3, kappa=1.0)
        _, traj = booster.predict([0.0])
        booster.update(LinearLoss(direction), traj)
        for diag_norm in booster.diagnostics[0].grad_norms:
            assert diag_norm == pytest.approx(np.linalg.norm(direction), rel=1e-9)

    def test_one_dim_gradient_matches_finite_differences(self):
        iv = Interval(-1.0, 1.0)
        booster = _fixed_booster(iv, [np.array([0.6])], gamma=0.5, kappa=4.0,
                                 delta=0.3)
        _, traj = booster.predict([0.0])
        loss = QuadraticLoss([0.2])
        ext = ExtendedLoss(loss, iv, delta=0.3, kappa=4.0)
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


class TestRegretReport:
    def _run(self, booster, losses, contexts):
        for c, loss in zip(contexts, losses):
            _, traj = booster.predict(c)
            booster.update(loss, traj)

    def test_played_sequence_comparator_is_zero(self, rng):
        ball = Ball(2, 1.0)
        booster = _fixed_booster(ball, [np.array([0.2, 0.1])], gamma=1.0)
        losses = [LinearLoss(rng.standard_normal(2)) for _ in range(10)]
        contexts = [rng.standard_normal(1) for _ in range(10)]
        self._run(booster, losses, contexts)
        played = [d.played for d in booster.diagnostics]
        assert booster.regret_report(action_sequence=played) == pytest.approx(0.0)

    def test_single_hypothesis(self, rng):
        ball = Ball(2, 1.0)
        booster = _fixed_booster(ball, [np.array([0.2, 0.1])], gamma=1.0)
        losses = [LinearLoss(rng.standard_normal(2)) for _ in range(10)]
        contexts = [rng.standard_normal(1) for _ in range(10)]
        self._run(booster, losses, contexts)
        h = lambda c: np.array([0.5, 0.0])
        expected = booster.realized_loss - sum(
            loss.value(h(c)) for loss, c in zip(losses, contexts))
        assert booster.regret_report(hypotheses=[h]) == pytest.approx(expected)

    def test_linear_hull_minimum_is_vertex(self, rng):
        ball = Ball(2, 1.0)
        booster = _fixed_booster(ball, [np.array([0.2, 0.1])], gamma=1.0)
        losses = [LinearLoss(rng.standard_normal(2)) for _ in range(15)]
        contexts = [rng.standard_normal(1) for _ in range(15)]
        self._run(booster, losses, contexts)
        anchors = rng.standard_normal((3, 2))
        hyps = [lambda c, a=a: a * float(np.tanh(c[0])) for a in anchors]
        report = booster.regret_report(hypotheses=hyps)
        vertex_min = min(sum(loss.value(h(c)) for loss, c in zip(losses, contexts))
                         for h in hyps)
        assert report == pytest.approx(booster.realized_loss - vertex_min)

    def test_nonlinear_hull_matches_testkit(self, rng):
        iv = Interval(-1.0, 1.0)
        booster = _fixed_booster(iv, [np.array([0.2])], gamma=1.0, kappa=4.0)
        losses = [QuadraticLoss([rng.uniform(-1, 1)]) for _ in range(8)]
        contexts = [rng.standard_normal(1) for _ in range(8)]
        self._run(booster, losses, contexts)
        hyps = [lambda c: np.array([-0.8]), lambda c: np.array([0.9])]
        report = booster.regret_report(hypotheses=hyps)
        oracle = hull_optimum(hyps, losses, contexts, grid_spacing=0.01)
        assert report == pytest.approx(booster.realized_loss - oracle.value,
                                       abs=1e-6)

    def test_empty_comparator(self):
        booster = _fixed_booster(Ball(2, 1.0), [np.zeros(2)], gamma=1.0)
        _, traj = booster.predict([0.0])
        booster.update(LinearLoss([1.0, 0.0]), traj)
        with pytest.raises(ConfigError):
            booster.regret_report(hypotheses=[])


class TestTranscriptAndConfig:
    def test_transcript_records(self, rng):
        booster = _fixed_booster(Ball(2, 1.0), [np.array([0.1, 0.1])], gamma=1.0)
        for t in range(3):
            _, traj = booster.predict(rng.standard_normal(2))
            booster.update(LinearLoss(rng.standard_normal(2)), traj)
        records = booster.export_transcript()
        assert [r["t"] for r in records] == [1, 2, 3]
        for r in records:
            assert set(r) == {"t", "context_hash", "played", "loss_value",
                              "prox_residual"}
        json.dumps(records)  # JSON-compatible

    def test_from_config(self, rng):
        iv = Interval(-1.0, 1.0)
        cfg = {"N": 3, "gamma": 0.25, "lipschitz": 8.0,
               "learner": {"kind": "stump", "warmup": 5}, "seed": 7}
        booster = OnlineBooster.from_config(iv, cfg, feature_dim=4)
        assert booster.n_learners == 3
        assert booster.gamma == 0.25
        for t in range(8):
            played, traj = booster.predict(rng.standard_normal(4))
            assert iv.contains(played)
            booster.update(QuadraticLoss([rng.uniform(-1, 1)]), traj)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BoosterConfig(n_learners=0, gamma=0.5, lipschitz=1.0)
        with pytest.raises(ConfigError):
            BoosterConfig(n_learners=2, gamma=1.5, lipschitz=1.0)
        with pytest.raises(ConfigError):
            BoosterConfig(n_learners=2, gamma=0.5, lipschitz=1.0, delta=-1.0)
        with pytest.raises(ConfigError):
            # neither kappa nor lipschitz
            OnlineBooster(Ball(2, 1.0), lambda i, s: UniformBaseline(s),
                          BoosterConfig(n_learners=1, gamma=0.5, delta=0.5))
        with pytest.raises(ConfigError, match="x0_rule"):
            BoosterConfig(n_learners=1, gamma=0.5, lipschitz=1.0,
                          x0_rule="origin")
        with pytest.raises(ConfigError, match="prox_budget"):
            BoosterConfig(n_learners=1, gamma=0.5, lipschitz=1.0,
                          prox_budget=0)
        with pytest.raises(ConfigError, match="prox_tol"):
            BoosterConfig(n_learners=1, gamma=0.5, lipschitz=1.0,
                          prox_tol=0.0)

    def test_from_config_names_bad_keys(self):
        iv = Interval(-1.0, 1.0)
        record = {"N": 2, "gamma": 0.5, "lipschitz": 4.0,
                  "learner": {"kind": "uniform"}}
        cases = [
            ({k: v for k, v in record.items() if k != "N"}, r"missing \['N'\]"),
            (dict(record, eta_rule="two_over_i"), r"unknown keys \['eta_rule'\]"),
            (dict(record, x0_rule="origin"), "x0_rule"),
            (dict(record, N="two"), "malformed"),
        ]
        for bad, match in cases:
            with pytest.raises(ConfigError, match=match):
                OnlineBooster.from_config(iv, bad, feature_dim=1)


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
