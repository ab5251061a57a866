"""Smoothed out-of-set extension of a convex loss.

``ExtendedLoss`` evaluates the Moreau envelope (inf-convolution with a
quadratic of radius ``delta``) of the composite ``f + kappa * Dist(., K)``.
On the set it tracks f to within ``delta * G^2 / 2``; outside, the distance
penalty makes projection onto K nearly non-increasing in value, which is
what lets the boosting loop feed scaled-up, infeasible ensemble points to
the loss machinery.

The envelope minimizer (prox point) is computed in closed form for linear
and isotropic quadratic losses (also shifted or scaled) over any set: both
reduce to one analytic shrink toward the projection. ``losses.closed_form``
reads which form a loss has, once per extension. Any other loss runs a
proximal-gradient splitting whose nonsmooth step (the distance penalty) is
that same shrink. ``ExtendedLoss.lift`` stacks the forms of many losses as
arrays, one loss per row, so that one shrink lifts them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatch, check_positive
from .geometry import DecisionSet, as_point, row_norms
from .losses import ConvexLoss, ShiftedLoss, closed_form

# iteration budget and residual tolerance of the iterative prox
PROX_BUDGET = 200
PROX_TOL = 1e-8


@dataclass(frozen=True)
class ProxInfo:
    """How prox solves went: the worst residual, the iterations summed and
    the number of solves that ran out of budget (a batch solves each row)."""

    residual: float
    iterations: int
    nonconverged: int

    @property
    def converged(self) -> bool:
        return self.nonconverged == 0


_EXACT_INFO = ProxInfo(residual=0.0, iterations=0, nonconverged=0)


def default_delta(diameter: float, gamma: float, n_learners: int,
                  lipschitz: float) -> float:
    """Smoothing radius for an N-learner boosting run: D / (G gamma sqrt(N)),
    which balances the smoothing and mixing error terms and needs the
    gradient bound G."""
    if n_learners < 1:
        raise ConfigError(f"n_learners must be >= 1, got {n_learners}")
    if lipschitz is None or not 0 < lipschitz < math.inf:
        raise ConfigError("the smoothing radius needs a positive, finite "
                          f"gradient bound, got {lipschitz}")
    return diameter / (lipschitz * gamma * np.sqrt(n_learners))


def _shrink_toward_projection(set_: DecisionSet, z: np.ndarray, bound: float) -> np.ndarray:
    """Prox of bound * Dist(., K) at z, or at each row of z: move toward the
    projection by min(bound, distance)."""
    p = set_._project(z)
    step = p - z
    dist = row_norms(step)[..., None]
    far = dist > bound
    # rows within bound land on the projection; dividing them by 1 keeps a
    # zero distance from raising a divide warning
    return np.where(far, z + bound / np.where(far, dist, 1.0) * step, p)


def prox(loss: ConvexLoss, set_: DecisionSet, kappa: float, delta: float, x):
    """Minimize f(y) + kappa*Dist(y,K) + ||x-y||^2/(2 delta) over y.

    Returns (minimizer, ProxInfo). When the inner solver runs out of budget
    the best iterate is returned with ``converged=False``; the caller
    decides what to do with the flagged residual.
    """
    ext = ExtendedLoss(loss, set_, delta, kappa)
    return ext._prox(as_point(x, set_.dim))


def _prox_iterative(loss, set_, kappa, delta, x, budget, tol):
    """Proximal-gradient splitting: gradient steps on the smooth part
    f + coupling quadratic, analytic shrink steps on the distance penalty."""

    def smooth_grad(y):
        return loss.grad(y) + (y - x) / delta

    def smooth_value(y):
        d = y - x
        return loss.value(y) + float(d @ d) / (2.0 * delta)

    curvature = loss.curvature_hint
    lip_est = (curvature + 1.0 / delta) if curvature is not None else 1.0 / delta

    y = x.copy()
    residual = np.inf
    iterations = 0
    for iterations in range(1, budget + 1):
        g = smooth_grad(y)
        sv = smooth_value(y)
        while True:
            step = 1.0 / lip_est
            cand = _shrink_toward_projection(set_, y - step * g, step * kappa)
            move = cand - y
            quad_model = sv + g @ move + 0.5 * lip_est * float(move @ move)
            if smooth_value(cand) <= quad_model + 1e-14:
                break
            lip_est *= 2.0
            if lip_est > 1e18:
                break
        residual = float(np.linalg.norm(cand - y)) / step
        y = cand
        if residual <= tol:
            return y, ProxInfo(residual=residual, iterations=iterations, nonconverged=0)
    return y, ProxInfo(residual=residual, iterations=iterations, nonconverged=1)


class ExtendedLoss:
    """Smoothed extension of a convex loss beyond its decision set. A
    closed-form loss of another dimension than the set is refused here,
    before any gradient is taken."""

    def __init__(self, base, set_: DecisionSet, delta: float, kappa: float):
        self.delta = check_positive("delta", delta)
        if not 0.0 <= kappa < math.inf:
            raise ConfigError(f"kappa must be nonnegative and finite, got {kappa}")
        self.base = None if isinstance(base, tuple) else base  # a form from lift
        self.set_ = set_
        self.kappa = float(kappa)
        self._weight, self._target, self._direction = (
            base if self.base is None else closed_form(base) or (None, None, None))
        vector = self._direction if self._target is None else self._target
        if vector is not None and vector.shape[-1] != set_.dim:
            raise DimensionMismatch("loss and set dimensions differ")
        if self._target is not None:
            # w||y-t||^2 + ||y-x||^2/(2 delta) = (a/2)||y-z||^2 + c at z = (2wt + x/delta)/a
            self._a = 2.0 * self._weight + 1.0 / self.delta
            self._wt = 2.0 * self._weight * self._target
            self._bound = self.kappa / self._a

    @classmethod
    def lift(cls, losses, offset, set_: DecisionSet, delta: float, kappa: float):
        """Extensions of ``losses`` recentered by ``offset``, one row each, as
        [(row indices, extension)]. At an (n, d) array, an extension's
        gradient at the rows it owns equals, row for row and bit for bit, the
        one-point gradient of ``ExtendedLoss(ShiftedLoss(losses[k], offset),
        ...)``. Each closed form is read once: the quadratic rows share one
        extension of (m, 1) weights and (m, d) targets, the linear rows one of
        (m, d) directions, and such an extension only takes gradients. Any
        other loss is extended alone, in a ShiftedLoss for a nonzero offset."""
        n, dim = len(losses), set_.dim
        weights, vectors = np.empty((n, 1)), np.empty((n, dim))  # targets or directions
        quadratic, linear, extensions = [], [], []
        shifted = np.any(offset)
        for k, loss in enumerate(losses):
            form = closed_form(loss)
            if form is None:
                loss = ShiftedLoss(loss, offset) if shifted else loss
                extensions.append((np.array([k]), cls(loss, set_, delta, kappa)))
                continue
            vector = form[1] if form[2] is None else form[2]
            if vector.shape != (dim,):
                raise DimensionMismatch("loss and set dimensions differ")
            (quadratic if form[2] is None else linear).append(k)
            weights[k], vectors[k] = form[0], vector
        if quadratic:
            form = weights[quadratic], vectors[quadratic] - offset, None
            extensions.append((np.array(quadratic), cls(form, set_, delta, kappa)))
        if linear:
            form = 0.0, None, vectors[linear]
            extensions.append((np.array(linear), cls(form, set_, delta, kappa)))
        return extensions

    def _prox(self, x: np.ndarray):
        """(prox point of x, ProxInfo) for a point or for each row of an
        (N, d) array: one shrink toward the projection for a linear or
        quadratic base, an iterative solve per row otherwise."""
        if self._direction is not None:
            return _shrink_toward_projection(self.set_, x - self.delta * self._direction,
                                             self.delta * self.kappa), _EXACT_INFO
        if self._target is not None:
            z = (self._wt + x / self.delta) / self._a
            return _shrink_toward_projection(self.set_, z, self._bound), _EXACT_INFO
        ys, infos = zip(*(_prox_iterative(self.base, self.set_, self.kappa,
                                          self.delta, row, PROX_BUDGET, PROX_TOL)
                          for row in x.reshape(-1, x.shape[-1])))
        return np.array(ys).reshape(x.shape), ProxInfo(
            residual=max(info.residual for info in infos),
            iterations=sum(info.iterations for info in infos),
            nonconverged=sum(info.nonconverged for info in infos))

    def composite_value(self, y) -> float:
        return self.base.value(y) + self.kappa * self.set_.distance(y)

    def evaluate(self, x):
        """Return (value, gradient, ProxInfo) at x from a single prox solve."""
        x = as_point(x, self.set_.dim)
        y, info = self._prox(x)
        diff = x - y
        value = self.composite_value(y) + float(diff @ diff) / (2.0 * self.delta)
        grad = diff / self.delta
        return value, grad, info

    def value(self, x) -> float:
        return self.evaluate(x)[0]

    def grad(self, x) -> np.ndarray:
        return self.grad_with_info(x)[0]

    def grad_with_info(self, x):
        """(gradient, ProxInfo) at a point, or at each row of an (N, d)
        array, from one call; skips the envelope-value arithmetic of
        evaluate."""
        x = np.asarray(x, dtype=np.float64)
        y, info = self._prox(x)
        return (x - y) / self.delta, info
