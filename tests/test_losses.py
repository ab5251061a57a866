import numpy as np
import pytest

from ocoboost.errors import ConfigError, DimensionMismatch, NonFiniteInput
from ocoboost.geometry import Ball, Interval
from ocoboost.losses import (CallableLoss, LinearLoss, QuadraticLoss, ScaledLoss,
                             ShiftedLoss, closed_form, lipschitz_bound)
from ocoboost.testkit import finite_diff_grad

from conftest import set_families


class TestValues:
    def test_square_loss_examples(self):
        assert QuadraticLoss([0.0]).value([0.0]) == 0.0
        assert QuadraticLoss([0.5]).value([0.1]) == pytest.approx(0.16)

    def test_linear_dot(self):
        assert LinearLoss([1.0, 2.0]).value([3.0, 4.0]) == pytest.approx(11.0)

    def test_non_finite_input(self):
        with pytest.raises(NonFiniteInput):
            QuadraticLoss([0.0]).value([np.inf])


class TestGrads:
    def test_linear_constant_grad(self, rng):
        loss = LinearLoss([1.0, 2.0])
        for x in rng.standard_normal((5, 2)):
            np.testing.assert_allclose(loss.grad(x), [1.0, 2.0])

    def test_square_loss_grad(self):
        loss = QuadraticLoss([0.7])
        np.testing.assert_allclose(loss.grad([0.2]), [2 * (0.2 - 0.7)])

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            target = rng.standard_normal(2)
            w = float(rng.uniform(0.3, 2.0))
            loss = QuadraticLoss(target, weight=w)
            x = rng.standard_normal(2)
            fd = finite_diff_grad(loss.value, x)
            g = loss.grad(x)
            assert np.linalg.norm(fd - g) <= 1e-4 * max(1.0, np.linalg.norm(g))

    def test_convexity_midpoint(self, rng):
        losses = [QuadraticLoss(rng.standard_normal(2), weight=0.8),
                  LinearLoss(rng.standard_normal(2))]
        for loss in losses:
            for _ in range(50):
                x, y = rng.standard_normal(2), rng.standard_normal(2)
                mid = loss.value(0.5 * (x + y))
                assert mid <= 0.5 * (loss.value(x) + loss.value(y)) + 1e-9


class TestClosedForm:
    def test_wrapped_forms(self):
        lin = LinearLoss([1.0, -2.0])
        weight, target, direction = closed_form(
            ScaledLoss(ShiftedLoss(ScaledLoss(lin, 2.0), [5.0, 5.0]), 3.0))
        assert weight == 0.0 and target is None
        np.testing.assert_array_equal(direction, [6.0, -12.0])

        quad = QuadraticLoss([1.0, 2.0], weight=0.5)
        weight, target, direction = closed_form(
            ShiftedLoss(ScaledLoss(ShiftedLoss(quad, [1.0, 0.0]), 4.0),
                        [0.0, 3.0]))
        assert weight == 2.0 and direction is None
        np.testing.assert_array_equal(target, [0.0, -1.0])

    def test_forms_match_values(self, rng):
        quad = QuadraticLoss(rng.standard_normal(3), weight=1.3)
        lin = LinearLoss(rng.standard_normal(3))
        for loss in (ScaledLoss(ShiftedLoss(quad, rng.standard_normal(3)), 0.7),
                     ShiftedLoss(ScaledLoss(lin, 2.5), rng.standard_normal(3))):
            weight, target, direction = closed_form(loss)
            x, y = rng.standard_normal(3), rng.standard_normal(3)
            if target is None:
                # a linear loss up to a constant
                expected = direction @ (x - y)
            else:
                expected = weight * (np.sum((x - target) ** 2)
                                     - np.sum((y - target) ** 2))
            assert loss.value(x) - loss.value(y) == pytest.approx(expected)

    def test_other_losses_have_none(self):
        bare = CallableLoss(lambda x: float(x @ x), lambda x: 2.0 * x)
        assert closed_form(bare) is None
        assert closed_form(ScaledLoss(ShiftedLoss(bare, [1.0]), 2.0)) is None

    def test_offset_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            closed_form(ShiftedLoss(QuadraticLoss([0.0]), [1.0, 2.0]))


class TestLipschitzBound:
    def test_linear_norm(self):
        assert lipschitz_bound(LinearLoss([3.0, 4.0]), Ball(2, 7.0)) == pytest.approx(5.0)

    def test_square_over_interval(self):
        # targets in [0, 1], region [-1, 1]: max |2(x - y)| = 4
        bound = max(lipschitz_bound(QuadraticLoss([y]), Interval(-1.0, 1.0))
                    for y in (0.0, 1.0))
        assert bound == pytest.approx(4.0)

    def test_monte_carlo_lower_bound(self, rng):
        region = Ball(2, 2.0, center=[0.3, -0.2])
        for _ in range(5):
            loss = QuadraticLoss(rng.standard_normal(2), weight=rng.uniform(0.5, 2))
            bound = lipschitz_bound(loss, region)
            samples = region.sample(rng, 100000)
            norms = 2 * loss.weight * np.linalg.norm(samples - loss.target, axis=1)
            assert bound >= norms.max()

    def test_inflate_increases(self):
        loss = QuadraticLoss([0.0])
        iv = Interval(-1.0, 1.0)
        assert lipschitz_bound(loss, iv, inflate=0.5) > lipschitz_bound(loss, iv)

    def test_custom_needs_hint(self):
        bare = CallableLoss(lambda x: float(x[0] ** 4), lambda x: 4 * x ** 3)
        with pytest.raises(ConfigError):
            lipschitz_bound(bare, Interval(-1.0, 1.0))
        hinted = CallableLoss(lambda x: float(x[0] ** 4), lambda x: 4 * x ** 3,
                              lipschitz_hint=4.0)
        assert lipschitz_bound(hinted, Interval(-1.0, 1.0)) == 4.0

    def test_shifted_region_accounting(self, rng):
        base = QuadraticLoss([2.0])
        shifted = ShiftedLoss(base, [2.0])  # g(x) = (x + 2 - 2)^2 = x^2
        iv = Interval(-1.0, 1.0)
        assert lipschitz_bound(shifted, iv) == pytest.approx(2.0)


def test_unit_rescaling(rng):
    # dividing a loss by its range over the set yields range <= 1
    for set_ in set_families().values():
        loss = QuadraticLoss(set_.centroid + 0.1, weight=1.7)
        samples = set_.sample(rng, 2000)
        vals = np.array([loss.value(x) for x in samples])
        spread = vals.max() - vals.min()
        unit = ScaledLoss(loss, 1.0 / spread)
        unit_vals = np.array([unit.value(x) for x in samples])
        assert unit_vals.max() - unit_vals.min() <= 1.0 + 1e-9


def test_shifted_loss_consistency(rng):
    base = QuadraticLoss([1.0, -1.0], weight=1.3)
    offset = np.array([0.5, 0.25])
    shifted = ShiftedLoss(base, offset)
    for x in rng.standard_normal((10, 2)):
        assert shifted.value(x) == pytest.approx(base.value(x + offset))
        np.testing.assert_allclose(shifted.grad(x), base.grad(x + offset))
