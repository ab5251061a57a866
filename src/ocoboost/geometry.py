"""Convex decision sets: projection, distance, recentering.

All sets operate on 1-D float64 arrays. Projections are analytic, so the
membership tolerance is a tight ``MEMBERSHIP_TOL``.

Public methods validate their inputs; the underscored ``_project`` /
``_distance`` variants skip validation and exist for the per-round inner
loops. ``_project`` also takes an (N, d) array and projects each row, with
the same bits as projecting the rows one at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFiniteInput

MEMBERSHIP_TOL = 1e-9


def as_point(x, dim=None, name="point"):
    """Validate and return a finite 1-D float64 array."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be a 1-D vector, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise DimensionMismatch(f"{name} has dimension {arr.shape[0]}, expected {dim}")
    # a finite squared norm implies finite entries (entries large enough to
    # overflow the square are rejected along with NaN/Inf); vdot raises no
    # floating-point warnings
    if not math.isfinite(np.vdot(arr, arr)):
        raise NonFiniteInput(f"{name} contains non-finite entries")
    return arr


def _as_rows(values, dim, name):
    """The outputs ``values`` as an (n, dim) float64 array, with one shape and
    one finiteness test for the stack. Failing those, ``as_point`` checks each
    output as ``name(i)``: an error names the first bad row, and a 0-d output
    is a vector when dim is 1. For dim None a stack of any width passes, and
    failing it the outputs come back as a list of vectors, of any lengths."""
    try:
        arr = np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):  # ragged, or not numbers
        pass
    else:
        if dim == 1 and arr.shape == (len(values),):  # 0-d outputs
            arr = arr[:, None]
        if arr.shape == (len(values), arr.shape[-1] if dim is None else dim) \
                and math.isfinite(np.vdot(arr, arr)):
            return arr
    rows = [as_point(v, dim, name(i)) for i, v in enumerate(values)]
    return rows if dim is None else np.array(rows).reshape(len(values), dim)


def _outputs(hypotheses, context, dim):
    """The (J, dim) outputs of the hypotheses at a context, each called once
    and checked by ``_as_rows`` (which also says what dim None gives); a bad
    one is named by its ``name``, else index."""
    return _as_rows([h(context) for h in hypotheses], dim,
                    lambda j: f"hypothesis {getattr(hypotheses[j], 'name', j)}")


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of x (of x itself when 1-D), equal bit for
    bit to ``math.sqrt(float(row @ row))``. ``vecdot`` sums like the 1-D
    dot product; ``einsum`` and ``(x * x).sum(-1)`` can differ in the last
    bit, which flips exact ties downstream."""
    return np.sqrt(np.vecdot(x, x))


class DecisionSet:
    """A convex body with projection, distance, diameter, and centroid."""

    dim: int

    @property
    def diameter(self) -> float:
        raise NotImplementedError

    @property
    def centroid(self) -> np.ndarray:
        raise NotImplementedError

    def project(self, x) -> np.ndarray:
        return self._project(as_point(x, self.dim))

    def _project(self, x: np.ndarray) -> np.ndarray:
        """Projection of a point (d,), or of each row of an (N, d) array."""
        raise NotImplementedError

    def distance(self, x) -> float:
        return self._distance(as_point(x, self.dim))

    def _distance(self, x: np.ndarray) -> float:
        d = x - self._project(x)
        return math.sqrt(float(d @ d))

    def contains(self, x) -> bool:
        return self.distance(x) <= MEMBERSHIP_TOL

    def shift(self, offset) -> "DecisionSet":
        return ShiftedSet(self, as_point(offset, self.dim, "offset"))

    def recenter(self) -> tuple["DecisionSet", np.ndarray]:
        """Return (translate with centroid at the origin, subtracted centroid)."""
        offset = self.centroid
        # the test of np.allclose(offset, 0.0, atol=1e-15), without the
        # errstate block that is most of its cost
        if (np.abs(offset) <= 1e-15).all():
            return self, np.zeros(self.dim)
        return self.shift(-offset), offset

    def farthest_distance(self, point) -> float:
        """An upper bound on ``max_{x in set} ||x - point||`` (exact where noted)."""
        point = as_point(point, self.dim)
        return float(np.linalg.norm(point - self.centroid)) + self.diameter

    def sample(self, rng: np.random.Generator, n: int | None = None) -> np.ndarray:
        """Uniform samples from the set (used by tests and Monte-Carlo checks)."""
        raise NotImplementedError


class Ball(DecisionSet):
    """Euclidean ball of given radius, optionally centered away from the origin."""

    def __init__(self, dim: int, radius: float, center=None):
        if dim < 1:
            raise ConfigError("ball dimension must be >= 1")
        if radius <= 0:
            raise ConfigError("ball radius must be positive")
        self.dim = int(dim)
        self.radius = float(radius)
        self.center = (np.zeros(self.dim) if center is None
                       else as_point(center, self.dim, "center"))

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    @property
    def centroid(self) -> np.ndarray:
        return self.center.copy()

    def _project(self, x: np.ndarray) -> np.ndarray:
        v = x - self.center
        norm = row_norms(v)[..., None]
        # rows inside are returned as they are; the floor at the radius
        # keeps a zero norm from raising a divide warning
        scale = self.radius / np.maximum(norm, self.radius)
        return np.where(norm <= self.radius, x, self.center + v * scale)

    def _distance(self, x: np.ndarray) -> float:
        v = x - self.center
        return max(0.0, math.sqrt(float(v @ v)) - self.radius)

    def shift(self, offset) -> "Ball":
        return Ball(self.dim, self.radius, self.center + as_point(offset, self.dim))

    def farthest_distance(self, point) -> float:
        point = as_point(point, self.dim)
        return float(np.linalg.norm(point - self.center)) + self.radius

    def sample(self, rng, n=None):
        size = 1 if n is None else n
        v = rng.standard_normal((size, self.dim))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        r = self.radius * rng.random(size) ** (1.0 / self.dim)
        pts = self.center + v * r[:, None]
        return pts[0] if n is None else pts


class Box(DecisionSet):
    """Axis-aligned box given by per-axis lower and upper bounds."""

    def __init__(self, lower, upper):
        self.lower = as_point(lower, name="lower")
        self.upper = as_point(upper, self.lower.shape[0], name="upper")
        if np.any(self.upper < self.lower):
            raise ConfigError("box upper bounds must be >= lower bounds")
        self.dim = self.lower.shape[0]

    @property
    def diameter(self) -> float:
        return float(np.linalg.norm(self.upper - self.lower))

    @property
    def centroid(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    def _project(self, x: np.ndarray) -> np.ndarray:
        # the method runs the same ufunc as np.clip without its wrapper
        return x.clip(self.lower, self.upper)

    def shift(self, offset) -> "Box":
        off = as_point(offset, self.dim)
        return Box(self.lower + off, self.upper + off)

    def farthest_distance(self, point) -> float:
        point = as_point(point, self.dim)
        per_axis = np.maximum(np.abs(self.lower - point), np.abs(self.upper - point))
        return float(np.linalg.norm(per_axis))

    def sample(self, rng, n=None):
        size = 1 if n is None else n
        pts = self.lower + rng.random((size, self.dim)) * (self.upper - self.lower)
        return pts[0] if n is None else pts


class Interval(Box):
    """Closed interval [lo, hi] on the real line; shifted, a one-dimensional ``Box``."""

    def __init__(self, lo: float, hi: float):
        super().__init__([float(lo)], [float(hi)])


class Simplex(DecisionSet):
    """Scaled probability simplex {x >= 0, sum(x) = total}."""

    def __init__(self, dim: int, total: float = 1.0):
        if dim < 1:
            raise ConfigError("simplex dimension must be >= 1")
        if total <= 0:
            raise ConfigError("simplex total must be positive")
        self.dim = int(dim)
        self.total = float(total)
        self._ranks = np.arange(1.0, self.dim + 1)

    @property
    def diameter(self) -> float:
        if self.dim == 1:
            return 0.0
        return self.total * np.sqrt(2.0)

    @property
    def centroid(self) -> np.ndarray:
        return np.full(self.dim, self.total / self.dim)

    def _project(self, x: np.ndarray) -> np.ndarray:
        # sort-and-threshold per row (Duchi et al., ICML 2008): with u
        # sorted descending, theta is (u_1 + ... + u_k - total) / k at the
        # largest k with u_k above it; k = 1 always qualifies for total > 0
        rows = x.reshape(-1, self.dim)
        u = np.sort(rows)[:, ::-1]
        # np.add.accumulate is cumsum's ufunc: cumsum itself holds on to a
        # few traced kilobytes inside numpy over its first few thousand calls
        thresholds = (np.add.accumulate(u, axis=1) - self.total) / self._ranks
        # the largest k is the first from the right
        last = (u > thresholds)[:, ::-1].argmax(axis=1)
        theta = thresholds[:, ::-1][np.arange(rows.shape[0]), last]
        return np.maximum(rows - theta[:, None], 0.0).reshape(x.shape)

    def farthest_distance(self, point) -> float:
        point = as_point(point, self.dim)
        vertices = self.total * np.eye(self.dim)
        return float(np.max(np.linalg.norm(vertices - point, axis=1)))

    def sample(self, rng, n=None):
        size = 1 if n is None else n
        pts = self.total * rng.dirichlet(np.ones(self.dim), size=size)
        return pts[0] if n is None else pts


class ShiftedSet(DecisionSet):
    """Translate of a base set by a fixed offset."""

    def __init__(self, base: DecisionSet, offset):
        self.base = base
        self.offset = as_point(offset, base.dim, "offset")
        self.dim = base.dim

    @property
    def diameter(self) -> float:
        return self.base.diameter

    @property
    def centroid(self) -> np.ndarray:
        return self.base.centroid + self.offset

    def _project(self, x: np.ndarray) -> np.ndarray:
        return self.base._project(x - self.offset) + self.offset

    def _distance(self, x: np.ndarray) -> float:
        return self.base._distance(x - self.offset)

    def shift(self, offset) -> "ShiftedSet":
        return ShiftedSet(self.base, self.offset + as_point(offset, self.dim))

    def farthest_distance(self, point) -> float:
        point = as_point(point, self.dim)
        return self.base.farthest_distance(point - self.offset)

    def sample(self, rng, n=None):
        return self.base.sample(rng, n) + self.offset


class CustomSet(DecisionSet):
    """User-supplied projection oracle; diameter and centroid must be given."""

    def __init__(self, dim: int, project_fn, diameter: float, centroid):
        if diameter <= 0:
            raise ConfigError("custom set diameter must be positive")
        self.dim = int(dim)
        self._project_fn = project_fn
        self._diameter = float(diameter)
        self._centroid = as_point(centroid, self.dim, "centroid")

    @property
    def diameter(self) -> float:
        return self._diameter

    @property
    def centroid(self) -> np.ndarray:
        return self._centroid.copy()

    def _project(self, x: np.ndarray) -> np.ndarray:
        if x.ndim == 2:  # the oracle takes one point at a time
            return np.array([self._project(row) for row in x])
        return as_point(self._project_fn(x), self.dim, "projection output")

