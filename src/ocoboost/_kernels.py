"""Simplex projection kernels, JIT-compiled when the optional numba extra
is installed.

The pure-numpy implementations (``*_np``) are always importable; the
module-level names point at the numba builds unless numba is missing or
the environment variable ``OCOBOOST_NUMBA`` is set to ``0``/``false``/``off``.
Without numba the ``*_jit`` names are the same loops run as plain Python.
"""

from __future__ import annotations

import os

import numpy as np


def _env_wants_numba() -> bool:
    return os.environ.get("OCOBOOST_NUMBA", "1").strip().lower() not in ("0", "false", "off")


try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is an optional extra
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]

        def decorate(func):
            return func

        return decorate


NUMBA_ENABLED = HAVE_NUMBA and _env_wants_numba()


# ---------------------------------------------------------------------------
# Projection onto the scaled probability simplex {x >= 0, sum(x) = total}
# via sort-and-threshold.
# ---------------------------------------------------------------------------

def project_simplex_np(v: np.ndarray, total: float = 1.0) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, v.shape[0] + 1)
    mask = u - css / idx > 0.0
    # the first entry always satisfies the condition for total > 0
    rho = idx[mask][-1]
    theta = css[mask][-1] / rho
    return np.maximum(v - theta, 0.0)


@njit(cache=True)
def _project_simplex_jit(v, total):
    n = v.shape[0]
    u = np.sort(v)[::-1]
    css = 0.0
    theta = 0.0
    for i in range(n):
        css += u[i]
        t = (css - total) / (i + 1)
        if u[i] - t > 0.0:
            theta = t
    out = np.empty(n)
    for i in range(n):
        d = v[i] - theta
        out[i] = d if d > 0.0 else 0.0
    return out


def project_simplex_batch_np(points: np.ndarray, total: float = 1.0) -> np.ndarray:
    n, d = points.shape
    u = np.sort(points, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - total
    idx = np.arange(1, d + 1)
    mask = u - css / idx > 0.0
    rho = d - 1 - np.argmax(mask[:, ::-1], axis=1)
    theta = css[np.arange(n), rho] / (rho + 1)
    return np.maximum(points - theta[:, None], 0.0)


@njit(cache=True)
def _project_simplex_batch_jit(points, total):
    n = points.shape[0]
    out = np.empty_like(points)
    for i in range(n):
        out[i] = _project_simplex_jit(points[i], total)
    return out


if NUMBA_ENABLED:
    project_simplex = _project_simplex_jit
    project_simplex_batch = _project_simplex_batch_jit
else:
    project_simplex = project_simplex_np
    project_simplex_batch = project_simplex_batch_np

project_simplex_jit = _project_simplex_jit
project_simplex_batch_jit = _project_simplex_batch_jit
