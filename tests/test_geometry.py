import math

import numpy as np
import pytest

from ocoboost.errors import DimensionMismatch, NonFiniteInput
from ocoboost.geometry import (Ball, Box, CustomSet, Interval, Simplex, as_point,
                               row_norms)
from ocoboost.testkit import _simplex_grid

from conftest import row_cases, row_sets, sample_near, set_families


def _simplex_reference(x, total):
    """One point's sort-and-threshold, written for a 1-D array."""
    u = np.sort(x)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, x.shape[0] + 1)
    mask = u - css / idx > 0.0
    theta = css[mask][-1] / idx[mask][-1]
    return np.maximum(x - theta, 0.0)


def _ball_reference(x, center, radius):
    v = x - center
    norm = math.sqrt(float(v @ v))
    if norm <= radius:
        return x.copy()
    return center + v * (radius / norm)


class TestProject:
    def test_ball_exterior_radial(self):
        ball = Ball(2, 1.0)
        np.testing.assert_allclose(ball.project([2.0, 0.0]), [1.0, 0.0])

    def test_member_is_fixed_point(self, rng):
        for set_ in set_families().values():
            for x in set_.sample(rng, 50):
                np.testing.assert_allclose(set_.project(x), x, atol=1e-12)

    def test_simplex_uniform_point_brute_force(self):
        simplex = Simplex(3)
        x = np.array([0.5, 0.5, 0.5])
        proj = simplex.project(x)
        # brute force: fine barycentric grid over the simplex
        grid = _simplex_grid(3, 1.0 / 300)
        best = grid[np.argmin(np.sum((grid - x) ** 2, axis=1))]
        np.testing.assert_allclose(proj, best, atol=1e-6)
        np.testing.assert_allclose(proj, [1 / 3] * 3, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Ball(2, 1.0).project([1.0, 2.0, 3.0])

    def test_non_finite_rejected(self):
        with pytest.raises(NonFiniteInput):
            Ball(2, 1.0).project([np.nan, 0.0])

    def test_idempotent(self, rng):
        for set_ in set_families().values():
            for x in sample_near(set_, rng, 25):
                p = set_.project(x)
                np.testing.assert_allclose(set_.project(p), p, atol=1e-12)

    def test_simplex_output_is_distribution(self, rng):
        for dim in (1, 2, 4, 9):
            for x in 5 * rng.standard_normal((200, dim)):
                total = float(rng.uniform(0.5, 2.0))
                p = Simplex(dim, total).project(x)
                assert p.min() >= -1e-12
                assert abs(p.sum() - total) < 1e-9

    @pytest.mark.parametrize("dim", [1, 2, 4, 9])
    def test_simplex_projection_kkt(self, rng, dim):
        # p is the projection of x onto the simplex iff it is feasible (see
        # the test above) and x - p <= theta for one theta, with equality
        # wherever p > 0
        for x in 3 * rng.standard_normal((200, dim)):
            total = float(rng.uniform(0.5, 2.0))
            p = Simplex(dim, total).project(x)
            r = x - p
            theta = r[p > 0].max()
            np.testing.assert_allclose(r[p > 0], theta, rtol=0, atol=1e-12)
            assert np.all(r <= theta + 1e-12)


class TestRowProjection:
    @pytest.mark.parametrize("name", sorted(row_sets()))
    def test_rows_match_points(self, rng, name):
        set_ = row_sets()[name]
        rows = row_cases(set_, rng)
        projected = set_._project(rows)
        assert projected.shape == rows.shape
        for x, p in zip(rows, projected):
            assert np.array_equal(p, set_._project(x))

    def test_points_match_one_point_references(self, rng):
        # the row code, fed one point, keeps the one-point formulas' bits
        for set_ in (Simplex(4), Simplex(3, 2.0)):
            for x in row_cases(set_, rng):
                assert np.array_equal(set_._project(x),
                                      _simplex_reference(x, set_.total))
        ball = Ball(3, 1.5, center=[0.5, -0.5, 0.2])
        for x in row_cases(ball, rng):
            assert np.array_equal(ball._project(x),
                                  _ball_reference(x, ball.center, ball.radius))

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_row_norms_match_point_norms(self, rng, dim):
        rows = rng.standard_normal((400, dim)) * rng.choice(
            [1e-3, 1.0, 1e3], size=(400, 1))
        norms = row_norms(rows)
        for x, norm in zip(rows, norms):
            assert norm == math.sqrt(float(x @ x))
        assert row_norms(rows[0]) == norms[0]


class TestDistance:
    def test_member_zero(self, rng):
        for set_ in set_families().values():
            for x in set_.sample(rng, 20):
                assert set_.distance(x) <= 1e-9

    def test_interval_exterior(self):
        assert Interval(-1.0, 1.0).distance([2.0]) == pytest.approx(1.0)

    def test_one_lipschitz(self, rng):
        for set_ in set_families().values():
            pts = sample_near(set_, rng, 5000)
            xs, ys = pts[::2], pts[1::2]
            for x, y in zip(xs, ys):
                lhs = abs(set_.distance(x) - set_.distance(y))
                assert lhs <= np.linalg.norm(x - y) + 1e-12

    def test_projection_nonexpansive(self, rng):
        for set_ in set_families().values():
            pts = sample_near(set_, rng, 2000)
            for x, y in zip(pts[::2], pts[1::2]):
                lhs = np.linalg.norm(set_.project(x) - set_.project(y))
                assert lhs <= np.linalg.norm(x - y) + 1e-12


class TestRecenter:
    def test_centered_ball_unchanged(self):
        ball = Ball(2, 1.0)
        rec, offset = ball.recenter()
        assert rec is ball
        np.testing.assert_allclose(offset, [0.0, 0.0])

    def test_interval_shift(self):
        rec, offset = Interval(0.0, 2.0).recenter()
        assert offset[0] == pytest.approx(1.0)
        # the recentred set is [-1, 1]: its projection clamps to those ends
        assert rec.project([-5.0])[0] == pytest.approx(-1.0)
        assert rec.project([5.0])[0] == pytest.approx(1.0)

    def test_shifted_interval_is_a_box(self, rng):
        # the shifted box projects every row with the bits of an interval
        # built on the shifted ends
        lo, hi, off = -0.3, 1.7, 0.1
        shifted = Interval(lo, hi).shift([off])
        assert type(shifted) is Box
        reference = Interval(lo + off, hi + off)
        x = 3.0 * rng.standard_normal((50, 1))
        assert np.array_equal(shifted._project(x), reference._project(x))
        assert np.array_equal(shifted.lower, reference.lower)
        assert np.array_equal(shifted.upper, reference.upper)

    def test_simplex_monte_carlo_centroid(self, rng):
        simplex = Simplex(3)
        mc = simplex.sample(rng, 200000).mean(axis=0)
        np.testing.assert_allclose(mc, simplex.centroid, atol=3e-3)
        rec, offset = simplex.recenter()
        np.testing.assert_allclose(offset, [1 / 3] * 3, atol=1e-15)
        np.testing.assert_allclose(rec.centroid, 0.0, atol=1e-12)

    def test_recentered_projection_consistent(self, rng):
        for set_ in set_families().values():
            rec, offset = set_.recenter()
            for x in sample_near(set_, rng, 20):
                np.testing.assert_allclose(rec.project(x - offset) + offset,
                                           set_.project(x), atol=1e-12)


class TestHelpers:
    def test_farthest_distance_upper_bounds_samples(self, rng):
        for set_ in set_families().values():
            point = rng.standard_normal(set_.dim)
            bound = set_.farthest_distance(point)
            samples = set_.sample(rng, 2000)
            assert np.linalg.norm(samples - point, axis=1).max() <= bound + 1e-9

    def test_custom_set(self):
        custom = CustomSet(2, lambda x: np.clip(x, -1, 1), diameter=2 * np.sqrt(2),
                           centroid=[0.0, 0.0])
        np.testing.assert_allclose(custom.project([3.0, 0.5]), [1.0, 0.5])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e155, 1e200])
def test_as_point_rejects_non_finite_and_overflowing_entries(value):
    # an entry whose square overflows is rejected with NaN and inf, and no
    # floating-point warning escapes (the suite turns warnings into errors)
    with pytest.raises(NonFiniteInput):
        as_point([0.5, value])


def test_as_point_accepts_large_finite_entries():
    np.testing.assert_array_equal(as_point([1e150, -1e150]), [1e150, -1e150])


def test_as_point_scalar_promotion():
    np.testing.assert_allclose(as_point(3.0), [3.0])
    with pytest.raises(DimensionMismatch):
        as_point(np.zeros((2, 2)))
