import math

import numpy as np
import pytest

from ocoboost.errors import ConfigError, DimensionMismatch
from ocoboost.extension import (ExtendedLoss, _prox_iterative,
                                _shrink_toward_projection, default_delta, prox)
from ocoboost.geometry import Ball, Box, Interval, ShiftedSet, Simplex
from ocoboost.losses import (CallableLoss, LinearLoss, QuadraticLoss,
                             ScaledLoss, ShiftedLoss, lipschitz_bound)
from ocoboost.testkit import GridSpec, finite_diff_grad, grid_moreau

from conftest import row_cases, row_sets


def _zero_loss(dim):
    return LinearLoss(np.zeros(dim))


class TestProx:
    def test_in_set_fixed_point(self):
        iv = Interval(-1.0, 1.0)
        y, info = prox(_zero_loss(1), iv, kappa=1.0, delta=0.5, x=[0.3])
        np.testing.assert_allclose(y, [0.3])
        assert info.converged

    def test_interval_shrink_example(self):
        iv = Interval(-1.0, 1.0)
        y, _ = prox(_zero_loss(1), iv, kappa=1.0, delta=0.5, x=[2.0])
        assert y[0] == pytest.approx(1.5)
        # 1-D grid oracle for the same composite
        ys = np.linspace(-3, 3, 120001)
        obj = np.maximum(np.abs(ys) - 1.0, 0.0) + (2.0 - ys) ** 2 / (2 * 0.5)
        assert ys[np.argmin(obj)] == pytest.approx(1.5, abs=1e-4)

    def test_free_space_linear_closed_form(self, rng):
        big = Ball(3, 1e9)
        g = rng.standard_normal(3)
        x = rng.standard_normal(3)
        y, info = prox(LinearLoss(g), big, kappa=2.0, delta=0.7, x=x)
        np.testing.assert_allclose(y, x - 0.7 * g, atol=1e-12)
        assert info.residual == 0.0

    def test_iterative_matches_closed_form_quadratic(self, rng):
        sets = [Interval(-1.0, 1.0), Box([-1.0, 0.0, -0.5], [1.0, 2.0, 0.5]),
                Ball(2, 1.5, center=[0.5, -0.5]), Simplex(3),
                ShiftedSet(Simplex(3), [-0.2, 0.1, 0.4])]
        for set_ in sets:
            for _ in range(40):
                target = rng.uniform(-1, 1, size=set_.dim)
                quad = QuadraticLoss(target, weight=rng.uniform(0.3, 2))
                for loss in (quad,
                             ShiftedLoss(quad, rng.uniform(-1, 1, size=set_.dim)),
                             ScaledLoss(quad, rng.uniform(0.2, 3)),
                             ScaledLoss(ShiftedLoss(quad, rng.uniform(-1, 1, size=set_.dim)),
                                        rng.uniform(0.2, 3))):
                    x = rng.uniform(-4, 4, size=set_.dim)
                    kappa, delta = rng.uniform(0.2, 3), rng.uniform(0.1, 1)
                    y_fast, info = prox(loss, set_, kappa, delta, x)
                    assert info.iterations == 0
                    y_iter, info = _prox_iterative(loss, set_, kappa, delta, x,
                                                   500, 1e-12)
                    assert info.converged
                    np.testing.assert_allclose(y_fast, y_iter, atol=1e-8)

    def test_budget_exhaustion_flags(self):
        # a quadratic without the closed form's structure runs the
        # iterative solver, which flags an exhausted budget
        box = Box([-1.0, -1.0], [1.0, 1.0])
        quad = QuadraticLoss([0.2, -0.3], weight=5.0)
        loss = CallableLoss(quad.value, quad.grad, curvature_hint=quad.curvature_hint)
        _, info = _prox_iterative(loss, box, 1.0, 2.0, np.array([3.0, -2.0]),
                                  1, 1e-14)
        assert not info.converged
        assert info.residual > 0

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            prox(_zero_loss(1), Interval(-1, 1), kappa=1.0, delta=0.0, x=[0.0])
        with pytest.raises(ConfigError):
            prox(_zero_loss(1), Interval(-1, 1), kappa=-1.0, delta=1.0, x=[0.0])
        for bad in (np.nan, np.inf):
            with pytest.raises(ConfigError, match="delta"):
                ExtendedLoss(LinearLoss([1.0]), Interval(-1, 1), delta=bad,
                             kappa=1.0)
            with pytest.raises(ConfigError, match="kappa"):
                ExtendedLoss(LinearLoss([1.0]), Interval(-1, 1), delta=1.0,
                             kappa=bad)
            with pytest.raises(ConfigError, match="delta"):
                prox(_zero_loss(1), Interval(-1, 1), kappa=1.0, delta=bad,
                     x=[2.0])
            with pytest.raises(ConfigError, match="kappa"):
                prox(_zero_loss(1), Interval(-1, 1), kappa=bad, delta=1.0,
                     x=[2.0])


class TestExtendedLoss:
    def test_zero_loss_values(self):
        iv = Interval(-1.0, 1.0)
        ext = ExtendedLoss(_zero_loss(1), iv, delta=0.5, kappa=1.0)
        assert ext.value([0.2]) == pytest.approx(0.0, abs=1e-12)
        assert ext.value([2.0]) == pytest.approx(0.75)
        np.testing.assert_allclose(ext.grad([2.0]), [1.0])
        np.testing.assert_allclose(ext.grad([0.0]), [0.0], atol=1e-12)

    def test_never_exceeds_composite(self, rng):
        iv = Interval(-1.0, 1.0)
        loss = QuadraticLoss([0.3])
        ext = ExtendedLoss(loss, iv, delta=0.4, kappa=2.0)
        for x in rng.uniform(-3, 3, size=(50, 1)):
            assert ext.value(x) <= ext.composite_value(x) + 1e-10

    def test_on_set_agreement_bound(self, rng):
        # |ext(x) - f(x)| <= delta G^2 / 2 on the set
        sets = [Interval(-1.0, 1.0), Box([-1.0, -1.0], [1.0, 1.0]), Ball(2, 1.0)]
        for set_ in sets:
            for _ in range(50):
                target = set_.sample(rng)
                loss = QuadraticLoss(target, weight=rng.uniform(0.3, 1.5))
                g_bound = lipschitz_bound(loss, set_, inflate=1.0)
                delta = rng.uniform(0.05, 0.5)
                ext = ExtendedLoss(loss, set_, delta=delta, kappa=g_bound)
                x = set_.sample(rng)
                gap = abs(ext.value(x) - loss.value(x))
                assert gap <= delta * g_bound ** 2 / 2 + 1e-7

    def test_projection_nearly_nonincreasing(self, rng):
        sets = [Interval(-1.0, 1.0), Box([-1.0, -1.0], [1.0, 1.0]), Ball(2, 1.0)]
        for set_ in sets:
            for _ in range(50):
                loss = QuadraticLoss(set_.sample(rng), weight=rng.uniform(0.3, 1.5))
                delta = rng.uniform(0.05, 0.5)
                x = set_.sample(rng) + 2.0 * rng.standard_normal(set_.dim)
                g_bound = lipschitz_bound(loss, set_,
                                          inflate=float(np.linalg.norm(x)) + 2.0)
                ext = ExtendedLoss(loss, set_, delta=delta, kappa=g_bound)
                assert ext.value(set_.project(x)) <= ext.value(x) \
                    + g_bound ** 2 * delta + 1e-7

    def test_gradient_smoothness(self, rng):
        iv = Interval(-1.0, 1.0)
        loss = QuadraticLoss([0.2], weight=0.8)
        delta = 0.3
        ext = ExtendedLoss(loss, iv, delta=delta, kappa=3.0)
        for _ in range(100):
            x, y = rng.uniform(-3, 3, size=(2, 1))
            gx, gy = ext.grad(x), ext.grad(y)
            lhs = np.linalg.norm(gx - gy)
            assert lhs <= np.linalg.norm(x - y) / delta + 1e-6

    def test_matches_grid_oracle_2d(self, rng):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        loss = QuadraticLoss([0.4, -0.2], weight=0.7)
        kappa, delta = 2.5, 0.4
        ext = ExtendedLoss(loss, box, delta=delta, kappa=kappa)
        grid = GridSpec([(-3.0, 3.0), (-3.0, 3.0)], points=241)

        def composite(y):
            return loss.value(y) + kappa * box.distance(y)

        for _ in range(5):
            x = rng.uniform(-2, 2, size=2)
            ours = ext.value(x)
            oracle, boundary = grid_moreau(composite, delta, x, grid)
            assert not boundary
            # the grid overestimates by at most objective-Lipschitz * spacing
            lip = (lipschitz_bound(loss, box, inflate=4.0) + kappa
                   + (np.linalg.norm(x) + 4.0) / delta)
            assert ours <= oracle + 1e-8
            assert oracle - ours <= lip * grid.spacing

    def test_grad_matches_finite_differences(self, rng):
        iv = Interval(-1.0, 1.0)
        loss = QuadraticLoss([0.5], weight=1.2)
        ext = ExtendedLoss(loss, iv, delta=0.3, kappa=4.0)
        for _ in range(20):
            x = rng.uniform(-2.5, 2.5, size=1)
            fd = finite_diff_grad(ext.value, x)
            g = ext.grad(x)
            assert np.linalg.norm(fd - g) <= 1e-3 * max(1.0, np.linalg.norm(g))

    def test_shifted_loss_fast_path(self):
        # recentered-coordinates composition must hit the closed-form path
        iv = Interval(-1.0, 1.0)
        loss = ShiftedLoss(QuadraticLoss([1.3]), [0.3])
        ext = ExtendedLoss(loss, iv, delta=0.5, kappa=2.0)
        _, _, info = ext.evaluate([2.0])
        assert info.iterations == 0  # closed form, no inner iterations


def _shrink_reference(set_, z, bound):
    """One point's shrink toward the projection, written for a 1-D array."""
    p = set_._project(z)
    d = z - p
    dist = math.sqrt(float(d @ d))
    if dist <= bound:
        return p
    return z + (bound / dist) * (p - z)


class TestRows:
    """A batch of rows gets, bit for bit, what each row gets on its own."""

    @pytest.mark.parametrize("name", sorted(row_sets()))
    def test_shrink_rows_match_points(self, rng, name):
        set_ = row_sets()[name]
        rows = row_cases(set_, rng)
        for bound in (0.0, 0.3, 10.0):
            shrunk = _shrink_toward_projection(set_, rows, bound)
            assert shrunk.shape == rows.shape
            for z, y in zip(rows, shrunk):
                assert np.array_equal(y, _shrink_toward_projection(set_, z, bound))
                assert np.array_equal(y, _shrink_reference(set_, z, bound))

    @pytest.mark.parametrize("name", sorted(row_sets()))
    def test_grad_rows_match_points(self, rng, name):
        set_ = row_sets()[name]
        d = set_.dim
        quad = QuadraticLoss(rng.uniform(-1, 1, size=d), weight=0.8)
        losses = [LinearLoss(rng.standard_normal(d)), quad,
                  ScaledLoss(ShiftedLoss(quad, rng.uniform(-1, 1, size=d)), 1.7)]
        rows = row_cases(set_, rng)
        for loss in losses:
            ext = ExtendedLoss(loss, set_, delta=0.4, kappa=1.5)
            grads, info = ext.grad_with_info(rows)
            assert info.iterations == 0 and info.converged
            for x, g in zip(rows, grads):
                assert np.array_equal(g, ext.grad_with_info(x)[0])

    @pytest.mark.parametrize("name", sorted(row_sets()))
    def test_per_row_losses_match_points(self, rng, name):
        # row k of ExtendedLoss.lift is the one-point gradient of losses[k]
        # recentred by the offset, whether it shares a closed form with
        # other rows or not
        set_ = row_sets()[name]
        d = set_.dim
        quad = QuadraticLoss(rng.uniform(-1, 1, size=d), weight=0.8)
        cases = row_cases(set_, rng)
        losses = [LinearLoss(rng.standard_normal(d)), quad,
                  ScaledLoss(ShiftedLoss(quad, rng.uniform(-1, 1, size=d)), 1.7),
                  CallableLoss(quad.value, quad.grad, curvature_hint=1.6)]
        losses = [losses[k % len(losses)] for k in range(cases.shape[0])]
        for offset in (np.zeros(d), rng.uniform(-1, 1, size=d)):
            extensions = ExtendedLoss.lift(losses, offset, set_, delta=0.4,
                                           kappa=1.5)
            assert sorted(k for rows, _ in extensions for k in rows) \
                == list(range(len(losses)))
            for rows, ext in extensions:
                for k, g in zip(rows, ext.grad_with_info(cases[rows])[0]):
                    one = ExtendedLoss(ShiftedLoss(losses[k], offset), set_,
                                       delta=0.4, kappa=1.5)
                    assert np.array_equal(g, one.grad(cases[k]))

    def test_lift_rejects_a_loss_of_another_dimension(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        for loss in (QuadraticLoss([0.5]), LinearLoss([1.0, 2.0, 3.0])):
            with pytest.raises(DimensionMismatch):
                ExtendedLoss.lift([loss], np.zeros(2), box, delta=0.4, kappa=1.5)

    def test_rejects_a_loss_of_another_dimension(self):
        # unchecked, a 1-D target or direction broadcasts against 3-D points
        ball = Ball(3, 1.0)
        for loss in (QuadraticLoss([0.5]), LinearLoss([0.3]),
                     ScaledLoss(LinearLoss([1.0, 2.0]), 2.0)):
            with pytest.raises(DimensionMismatch, match="loss and set"):
                ExtendedLoss(loss, ball, delta=0.4, kappa=1.5)

    def test_iterative_rows_match_points(self, rng):
        # no closed form: each row is solved on its own, and the batch's
        # info sums the iterations and takes the worst residual
        quad = QuadraticLoss([0.2, -0.3], weight=5.0)
        loss = CallableLoss(quad.value, quad.grad,
                            curvature_hint=quad.curvature_hint)
        for set_ in (Box([-1.0, -1.0], [1.0, 1.0]), row_sets()["custom2"]):
            ext = ExtendedLoss(loss, set_, delta=0.4, kappa=1.5)
            rows = row_cases(set_, rng)[::4]
            grads, info = ext.grad_with_info(rows)
            singles = [ext.grad_with_info(x) for x in rows]
            for g, (g1, _) in zip(grads, singles):
                assert np.array_equal(g, g1)
            assert info.iterations == sum(i.iterations for _, i in singles) > 0
            assert info.residual == max(i.residual for _, i in singles)
            assert info.nonconverged == 0


class TestDefaultDelta:
    def test_balanced_rule(self):
        val = default_delta(2.0, 0.5, 16, lipschitz=1.0)
        assert val == pytest.approx(2.0 / (1.0 * 0.5 * 4.0))

    def test_balanced_needs_lipschitz(self):
        with pytest.raises(ConfigError):
            default_delta(2.0, 0.5, 16, None)
        for n_learners, lipschitz in ((0, 1.0), (-2, 1.0),
                                      (16, float("inf")), (16, float("nan"))):
            with pytest.raises(ConfigError):
                default_delta(2.0, 0.5, n_learners, lipschitz)


def test_custom_loss_iterative_path(rng):
    # a smooth custom loss without the quadratic structure
    box = Box([-1.0, -1.0], [1.0, 1.0])
    loss = CallableLoss(
        lambda x: float(np.log(np.cosh(x[0])) + 0.5 * x[1] ** 2),
        lambda x: np.array([np.tanh(x[0]), x[1]]),
        lipschitz_hint=3.0, curvature_hint=1.0)
    ext = ExtendedLoss(loss, box, delta=0.4, kappa=3.0)
    for _ in range(10):
        x = rng.uniform(-2, 2, size=2)
        fd = finite_diff_grad(ext.value, x)
        g, info = ext.grad_with_info(x)
        assert info.converged
        assert np.linalg.norm(fd - g) <= 1e-3 * max(1.0, np.linalg.norm(g))


def test_prox_quad_interval_matches_grid(rng):
    # dense 1-D grid minimization as the independent oracle
    for _ in range(50):
        w = float(rng.uniform(0.2, 2.0))
        t = float(rng.uniform(-1, 1))
        kappa = float(rng.uniform(0.1, 3))
        delta = float(rng.uniform(0.1, 1))
        x = float(rng.uniform(-4, 4))
        ys = np.linspace(-6, 6, 240001)
        obj = (w * (ys - t) ** 2
               + kappa * np.maximum(np.maximum(-1.0 - ys, ys - 1.0), 0.0)
               + (ys - x) ** 2 / (2 * delta))
        y_grid = ys[int(np.argmin(obj))]
        y, _ = prox(QuadraticLoss([t], w), Interval(-1.0, 1.0), kappa, delta, [x])
        assert y[0] == pytest.approx(y_grid, abs=1e-4)
