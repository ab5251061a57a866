import numpy as np
import pytest

from ocoboost.geometry import Ball, Box, CustomSet, Interval, Simplex


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def set_families():
    """The set families the invariant suites run over."""
    return {
        "interval": Interval(-1.0, 1.0),
        "box2d": Box([-1.0, 0.0], [1.0, 2.0]),
        "ball2d": Ball(2, 1.5, center=[0.5, -0.5]),
        "simplex3": Simplex(3),
    }


def sample_near(set_, rng, n, spread=2.0):
    """Points in and around a set, for projection/distance fuzzing."""
    inside = set_.sample(rng, n)
    outside = inside + spread * rng.standard_normal(inside.shape)
    return np.concatenate([inside, outside])


def row_sets():
    """Sets whose projection of an (N, d) array must equal, row for row and
    bit for bit, the projection of each row on its own."""
    return {
        "simplex4": Simplex(4),
        "simplex3_total2": Simplex(3, 2.0),
        "recentred_simplex4": Simplex(4).recenter()[0],
        "ball3": Ball(3, 1.5, center=[0.5, -0.5, 0.2]),
        "box3": Box([-1.0, 0.0, -0.5], [1.0, 2.0, 0.5]),
        "interval": Interval(-1.0, 1.0),
        "custom2": CustomSet(2, lambda x: np.clip(x, -1.0, 1.0),
                             diameter=2.0 * np.sqrt(2.0), centroid=[0.0, 0.0]),
    }


def row_cases(set_, rng):
    """Rows outside, on and inside a set, one-hot and tied rows, and the
    centroid (zero distance; zero norm from a ball's center)."""
    d = set_.dim
    centroid = set_.centroid
    outside = centroid + 3.0 * rng.standard_normal((8, d))
    near = centroid + 0.2 * rng.standard_normal((8, d))
    on = np.array([set_._project(x) for x in outside])
    inside = 0.5 * (on + centroid)
    tied = np.full((3, d), 0.5)
    tied[1, : (d + 1) // 2] = 0.7
    tied[2] = -2.0
    return np.concatenate([outside, near, on, inside, np.eye(d), tied,
                           centroid[None, :], np.zeros((1, d))])
