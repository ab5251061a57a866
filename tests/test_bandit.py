import numpy as np
import pytest

from ocoboost.bandit import (BanditBooster, default_explore_rate,
                             resolve_explore_rate, verify_simplex_containment)
from ocoboost.bench import synth
from ocoboost.booster import BoosterConfig
from ocoboost.errors import ConfigError, NonFiniteInput, ProtocolError
from ocoboost.geometry import Ball, Box, Simplex
from ocoboost.testkit import bandit_expectation
from ocoboost.weak import UniformBaseline


def _make_bandit(dim=4, explore_rate=0.5, seed=0, n_learners=2):
    simplex = Simplex(dim)
    cfg = BoosterConfig(n_learners=n_learners, gamma=0.5, lipschitz=2.0)
    return BanditBooster(simplex, lambda i, s: UniformBaseline(s), cfg,
                         explore_rate=explore_rate, seed=seed)


def _grid_minimize(f, lo, hi, rounds=12):
    """Minimize a unimodal f over [lo, hi], endpoints included, by zooming
    a 101-point grid in on its best point (each round shrinks the bracket
    50-fold, so 12 rounds reach float resolution on (0, 1])."""
    for _ in range(rounds):
        xs = np.linspace(lo, hi, 101)
        k = int(np.argmin(f(xs)))
        lo, hi = xs[max(k - 1, 0)], xs[min(k + 1, 100)]
    return xs[k]


def _record_inner_losses(bb):
    """Wrap the inner booster's update; returns the list of losses it got."""
    losses = []
    update = bb.inner.update

    def recording_update(loss, trajectory):
        losses.append(loss)
        update(loss, trajectory)

    bb.inner.update = recording_update
    return losses


class TestContainment:
    def test_simplex_passes(self):
        verify_simplex_containment(Simplex(5))

    def test_covering_box_passes(self):
        verify_simplex_containment(Box([0.0, 0.0], [2.0, 2.0]))

    def test_ball_fails(self):
        with pytest.raises(ConfigError):
            verify_simplex_containment(Ball(3, 0.5))

    @pytest.mark.parametrize("set_, vertex", [
        (Simplex(4, total=0.5), 0), (Box([0.0, 0.0], [2.0, 0.5]), 1)])
    def test_missed_vertex_is_named(self, set_, vertex):
        # the first basis vector outside the set, and its distance to it
        with pytest.raises(ConfigError, match=f"basis vector {vertex} is at "
                                              r"distance 5\.000e-01"):
            verify_simplex_containment(set_)

    def test_constructor_checks(self):
        cfg = BoosterConfig(n_learners=1, gamma=0.5, lipschitz=1.0)
        with pytest.raises(ConfigError):
            BanditBooster(Ball(3, 0.5), lambda i, s: UniformBaseline(s), cfg,
                          explore_rate=0.5)
        with pytest.raises(ConfigError, match="explore_rate"):
            BanditBooster(Simplex(3), lambda i, s: UniformBaseline(s), cfg,
                          explore_rate="high")


class TestStepFeedback:
    def test_always_explore_plays_basis_uniformly(self):
        bb = _make_bandit(dim=4, explore_rate=1.0, seed=3)
        counts = np.zeros(4)
        for t in range(10000):
            played = bb.step([float(t)])
            assert played.sum() == pytest.approx(1.0)
            assert np.count_nonzero(played) == 1
            counts[int(np.argmax(played))] += 1
            bb.feedback(0.25)
        expected = 10000 / 4
        sigma = np.sqrt(10000 * 0.25 * 0.75)
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_never_explore_plays_inner_and_freezes_learners(self):
        bb = _make_bandit(dim=3, explore_rate=0.0, seed=1)
        inner_losses = _record_inner_losses(bb)
        centroid = Simplex(3).centroid
        for t in range(50):
            played = bb.step([float(t)])
            np.testing.assert_allclose(played, centroid)
            bb.feedback(float(np.dot([0.2, 0.5, 0.3], played)))
        assert bb.explored_rounds == 0
        assert len(inner_losses) == 50
        for loss in inner_losses:
            assert np.count_nonzero(loss.direction) == 0
        # inner learners advanced their round counters on zero losses
        assert all(l.rounds == 50 for l in bb.inner.learners)

    def test_seeded_reproducibility(self):
        runs = []
        for _ in range(2):
            bb = _make_bandit(dim=4, explore_rate=0.5, seed=42)
            played = []
            for t in range(200):
                played.append(bb.step([float(t)]))
                bb.feedback(0.1)
            runs.append((np.stack(played), bb.explored_rounds))
        (played_a, explored_a), (played_b, explored_b) = runs
        assert np.array_equal(played_a, played_b)
        assert explored_a == explored_b

    def test_estimate_formula(self):
        # d=4, eta=0.1, coordinate 1 (0-based), observed 0.5 -> entry 20
        bb = _make_bandit(dim=4, explore_rate=0.1, seed=0)
        estimate = np.zeros(4)
        coordinate = 1
        estimate[coordinate] = (4 / 0.1) * 0.5
        np.testing.assert_allclose(estimate, [0.0, 20.0, 0.0, 0.0])

    def test_estimates_passed_to_inner_booster_match_formula(self):
        # the inner booster receives the sparse estimate as a linear loss
        # (its learners then see that loss's extension gradients)
        # a basis vector marks an explored round: the inner learners play
        # the centroid
        bb = _make_bandit(dim=3, explore_rate=0.5, seed=11, n_learners=1)
        inner_losses = _record_inner_losses(bb)
        played = []
        for t in range(100):
            played.append(bb.step([float(t)]))
            bb.feedback(0.7)
        assert len(inner_losses) == 100
        explored_rounds = 0
        for point, loss in zip(played, inner_losses):
            explored = np.count_nonzero(point) == 1
            explored_rounds += explored
            if explored:
                expected = np.zeros(3)
                expected[int(np.argmax(point))] = (3 / 0.5) * 0.7
                np.testing.assert_allclose(loss.direction, expected)
            else:
                np.testing.assert_allclose(loss.direction, np.zeros(3))
        assert bb.explored_rounds == explored_rounds

    def test_estimator_magnitude_bound(self, rng):
        d, eta = 5, 0.2
        for _ in range(50):
            f = rng.uniform(-1, 1, size=d)
            i = int(rng.integers(d))
            estimate = np.zeros(d)
            estimate[i] = (d / eta) * f[i]
            assert np.abs(estimate).max() <= (d / eta) * np.abs(f).max()

    def test_unbiasedness_via_enumeration(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 9))
            eta = float(rng.uniform(0.05, 1.0))
            f = rng.standard_normal(d)
            np.testing.assert_allclose(bandit_expectation(f, eta, d), f,
                                       rtol=1e-14, atol=1e-14)

    def test_protocol_errors(self):
        bb = _make_bandit()
        bb.step([0.0])
        with pytest.raises(ProtocolError):
            bb.step([1.0])
        bb.feedback(0.5)
        with pytest.raises(ProtocolError):
            bb.feedback(0.5)
        bb.step([2.0])
        with pytest.raises(NonFiniteInput):
            bb.feedback(float("nan"))


class TestArmSampling:
    def test_expected_arm_loss_equals_linear_value(self, rng):
        # enumeration over the categorical distribution
        point = np.array([0.1, 0.4, 0.2, 0.3])
        f = rng.standard_normal(4)
        assert sum(point[a] * f[a] for a in range(4)) == pytest.approx(f @ point)


class TestDefaultExploreRate:
    def test_vanishes_with_many_learners(self):
        rate = default_explore_rate(4, 10000, 10 ** 12, 0.5, 0.0)
        assert rate < 0.01

    def test_clamped_to_unit_interval(self, rng):
        for _ in range(50):
            rate = default_explore_rate(
                int(rng.integers(1, 16)), int(rng.integers(10, 10 ** 5)),
                int(rng.integers(1, 10 ** 4)), float(rng.uniform(0.05, 1.0)),
                float(rng.uniform(0, 1000)))
            assert 0.0 < rate <= 1.0

    def test_matches_numeric_minimizer(self):
        # independent 1-D minimization of A/eta + eta*B over (0, 1]
        d, horizon, n, gamma, r_w = 4, 10 ** 4, 16, 0.5, 100.0
        a = 4 * d * horizon / (gamma * np.sqrt(n)) + 2 * d * r_w / gamma
        b = horizon

        def objective(e):
            return a / e + e * b

        best = _grid_minimize(objective, 1e-9, 1.0)
        formula = default_explore_rate(d, horizon, n, gamma, r_w)
        assert formula == pytest.approx(best, abs=1e-9)

    def test_interior_minimizer_case(self):
        # large N pushes the optimum inside (0, 1)
        d, horizon, n, gamma, r_w = 2, 10 ** 4, 10 ** 6, 0.5, 0.0
        a = 4 * d * horizon / (gamma * np.sqrt(n)) + 2 * d * r_w / gamma
        best = _grid_minimize(lambda e: a / e + e * horizon, 1e-9, 1.0)
        formula = default_explore_rate(d, horizon, n, gamma, r_w)
        assert formula == pytest.approx(best, abs=1e-7)
        assert formula < 1.0

    def test_auto_requires_horizon(self):
        with pytest.raises(ConfigError):
            _make_bandit(explore_rate="auto")

    @pytest.mark.parametrize("setting", [{"horizon": 1000},
                                         {"weak_regret_bound": 20.0}])
    def test_booster_plays_the_rate_it_is_given(self, setting):
        # choosing the rate from the horizon is the caller's job
        cfg = BoosterConfig(n_learners=2, gamma=0.5, lipschitz=2.0)
        with pytest.raises(TypeError):
            BanditBooster(Simplex(3), lambda i, s: UniformBaseline(s), cfg,
                          explore_rate=0.25, **setting)


class TestResolveExploreRate:
    def test_auto_and_numbers(self):
        assert resolve_explore_rate("auto", 3, 1000, 256, 1.0, 20.0) \
            == default_explore_rate(3, 1000, 256, 1.0, 20.0)
        for given in (0.0, 0.25, "0.25", 1):
            assert resolve_explore_rate(given, 4, None, 2, 0.5) == float(given)

    @pytest.mark.parametrize("explore_rate, horizon", [
        ("auto", None), ("high", 100), (float("nan"), 100), (-0.1, 100),
        (1.5, 100), (np.array([0.2, 0.3]), 100)])
    def test_rejects(self, explore_rate, horizon):
        with pytest.raises(ConfigError, match="explore_rate"):
            resolve_explore_rate(explore_rate, 4, horizon, 2, 0.5)

    def test_scenario_names_the_setting(self):
        with pytest.raises(ConfigError, match="explore_rate"):
            synth.bandit_scenario(10, n_learners=2, explore_rate="high")
