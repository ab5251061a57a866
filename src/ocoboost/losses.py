"""Convex cost functions with values, gradients, and certified Lipschitz bounds.

The boosting loops never assume a fixed loss family; environments supply
losses per round (typically as closures over observed targets). The two
concrete families here cover the benchmark and the test suite: linear
losses and fixed-target quadratics (the 1-D case is the square loss).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DimensionMismatch, NonFiniteInput, check_positive
from .geometry import DecisionSet, as_point


class ConvexLoss:
    """Base class: value plus (sub)gradient, with optional regularity hints.

    ``lipschitz_hint`` bounds the gradient norm over the caller's working
    region; ``curvature_hint`` bounds the gradient's Lipschitz constant
    (smoothness). Both are None when unknown.
    """

    lipschitz_hint: float | None = None
    curvature_hint: float | None = None

    def value(self, x) -> float:
        raise NotImplementedError

    def grad(self, x) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x) -> float:
        return self.value(x)


class LinearLoss(ConvexLoss):
    """f(x) = direction . x"""

    curvature_hint = 0.0

    def __init__(self, direction):
        self.direction = as_point(direction, name="loss direction")
        self.lipschitz_hint = float(np.linalg.norm(self.direction))

    @property
    def dim(self) -> int:
        return self.direction.shape[0]

    def value(self, x) -> float:
        x = as_point(x, self.dim)
        return float(self.direction @ x)

    def grad(self, x) -> np.ndarray:
        as_point(x, self.dim)
        return self.direction.copy()


class QuadraticLoss(ConvexLoss):
    """f(x) = weight * ||x - target||^2 (the square loss when dim == 1)."""

    def __init__(self, target, weight: float = 1.0):
        self.target = as_point(target, name="target")
        self.weight = check_positive("quadratic weight", weight)
        self.curvature_hint = 2.0 * self.weight

    @property
    def dim(self) -> int:
        return self.target.shape[0]

    def value(self, x) -> float:
        x = as_point(x, self.dim)
        d = x - self.target
        return self.weight * float(d @ d)

    def grad(self, x) -> np.ndarray:
        x = as_point(x, self.dim)
        return 2.0 * self.weight * (x - self.target)


class CallableLoss(ConvexLoss):
    """Wrap user-supplied value/gradient callables."""

    def __init__(self, fn, grad_fn, lipschitz_hint=None, curvature_hint=None):
        self._fn = fn
        self._grad_fn = grad_fn
        self.lipschitz_hint = None if lipschitz_hint is None else float(lipschitz_hint)
        self.curvature_hint = None if curvature_hint is None else float(curvature_hint)

    def value(self, x) -> float:
        x = as_point(x, name="loss input")
        v = float(self._fn(x))
        if not np.isfinite(v):
            raise NonFiniteInput("loss value is not finite")
        return v

    def grad(self, x) -> np.ndarray:
        x = as_point(x, name="loss input")
        return as_point(self._grad_fn(x), x.shape[0], "loss gradient")


class ShiftedLoss(ConvexLoss):
    """g(x) = base(x + offset); used to evaluate losses in recentered coordinates."""

    def __init__(self, base: ConvexLoss, offset):
        self.base = base
        self.offset = as_point(offset, name="offset")
        self.dim = self.offset.shape[0]
        self.lipschitz_hint = base.lipschitz_hint
        self.curvature_hint = base.curvature_hint

    def value(self, x) -> float:
        x = as_point(x, self.dim)
        return self.base.value(x + self.offset)

    def grad(self, x) -> np.ndarray:
        x = as_point(x, self.dim)
        return self.base.grad(x + self.offset)


class ScaledLoss(ConvexLoss):
    """g(x) = factor * base(x); e.g. for rescaling a loss to unit range."""

    def __init__(self, base: ConvexLoss, factor: float):
        self.factor = check_positive("scale factor", factor)
        self.base = base
        self.dim = getattr(base, "dim", None)
        if base.lipschitz_hint is not None:
            self.lipschitz_hint = factor * base.lipschitz_hint
        if base.curvature_hint is not None:
            self.curvature_hint = factor * base.curvature_hint

    def value(self, x) -> float:
        return self.factor * self.base.value(x)

    def grad(self, x) -> np.ndarray:
        return self.factor * self.base.grad(x)


def closed_form(loss: ConvexLoss):
    """``(weight, target, direction)`` of a linear or quadratic loss, also
    when shifted or scaled: ``(0.0, None, direction)`` for direction . x and
    ``(weight, target, None)`` for weight * ||x - target||^2. None for any
    other loss."""
    if isinstance(loss, LinearLoss):
        return 0.0, None, loss.direction
    if isinstance(loss, QuadraticLoss):
        return loss.weight, loss.target, None
    if not isinstance(loss, (ShiftedLoss, ScaledLoss)):
        return None
    inner = closed_form(loss.base)
    if inner is None:
        return None
    weight, target, direction = inner
    if isinstance(loss, ScaledLoss):
        return (loss.factor * weight, target,
                None if direction is None else loss.factor * direction)
    # base(x + offset) moves a quadratic's target by -offset
    if (direction if target is None else target).shape != loss.offset.shape:
        raise DimensionMismatch("loss and offset dimensions differ")
    return weight, None if target is None else target - loss.offset, direction


def lipschitz_bound(loss: ConvexLoss, region: DecisionSet, inflate: float = 0.0) -> float:
    """Certified upper bound on sup of ||grad loss|| over the region.

    ``inflate`` enlarges the region by that Euclidean radius, for callers
    that evaluate gradients at points slightly outside it.
    """
    if inflate < 0:
        raise ConfigError("inflate must be nonnegative")
    form = closed_form(loss)
    if form is not None:
        weight, target, direction = form
        if (direction if target is None else target).shape[0] != region.dim:
            raise DimensionMismatch("loss and region dimensions differ")
        if target is None:
            return float(np.linalg.norm(direction))
        return 2.0 * weight * (region.farthest_distance(target) + inflate)
    if loss.lipschitz_hint is not None:
        return float(loss.lipschitz_hint)
    raise ConfigError(
        "cannot certify a gradient bound for this loss; construct it with a "
        "lipschitz_hint")
