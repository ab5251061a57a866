"""The numba kernels and their numpy fallbacks must agree; the closed-form
quadratic prox on an interval must match a dense grid."""

import numpy as np
import pytest

from ocoboost import _kernels as k
from ocoboost.extension import prox
from ocoboost.geometry import Interval
from ocoboost.losses import QuadraticLoss


@pytest.mark.parametrize("dim", [1, 2, 4, 9])
def test_simplex_projection_paths_agree(rng, dim):
    for _ in range(200):
        v = 3.0 * rng.standard_normal(dim)
        total = float(rng.uniform(0.5, 2.0))
        a = k.project_simplex_jit(v, total)
        b = k.project_simplex_np(v, total)
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)
        assert abs(a.sum() - total) < 1e-9
        assert a.min() >= 0.0


def test_simplex_batch_paths_agree(rng):
    pts = 4.0 * rng.standard_normal((500, 5))
    a = k.project_simplex_batch_jit(np.ascontiguousarray(pts), 1.0)
    b = k.project_simplex_batch_np(pts, 1.0)
    np.testing.assert_allclose(a, b, rtol=0, atol=1e-14)
    single = np.stack([k.project_simplex_np(p, 1.0) for p in pts])
    np.testing.assert_allclose(b, single, rtol=0, atol=1e-14)


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


def test_env_flag_selects_path():
    # the module-level names point at one of the two implementations
    assert k.project_simplex in (k.project_simplex_jit, k.project_simplex_np)
    if k.NUMBA_ENABLED:
        assert k.project_simplex is k.project_simplex_jit
    else:
        assert k.project_simplex is k.project_simplex_np
