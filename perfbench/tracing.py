"""Spans and counters recorded from the benchmark's side of each layer boundary.

A span wraps one call into a layer. Its self time is its duration minus the
durations of the spans opened inside it, so each layer is charged only for
its own code. Spans are aggregated as they close (self time and call count
per name); per-layer figures are these totals divided by the rounds played.

``instrument`` patches a few library classes for the duration of a traced
pass and restores them afterwards; untraced passes run the library as is.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter_ns

from ocoboost import (Box, ExtendedLoss, LinearLoss, QuadraticLoss, ScaledLoss,
                      ShiftedLoss, ShiftedSet, Simplex)


class Tracer:
    """Self time and call count per span name, plus named counters."""

    def __init__(self):
        self.self_ns = defaultdict(int)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []  # one [child_ns, name] per open span

    def wrap(self, name, fn, outermost=False):
        """Return ``fn`` wrapped in a span. With ``outermost``, a call made
        while a span of the same name is open is not a span of its own (a
        shifted set projecting through its base set is one projection)."""
        stack = self._stack
        self_ns, calls = self.self_ns, self.calls

        def traced(*args, **kwargs):
            if outermost and stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            frame = [0, name]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                self_ns[name] += duration - frame[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration

        return traced

    def snapshot(self):
        return dict(self.self_ns), dict(self.calls), dict(self.counts)


@contextlib.contextmanager
def instrument(tracer: Tracer | None):
    """Trace the extension gradient, the outermost set projection and loss
    construction for every booster run inside the block (no-op for None)."""
    if tracer is None:
        yield None
        return
    saved = []

    def patch(cls, attr, value):
        saved.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, value)

    grad = tracer.wrap("extension.grad", ExtendedLoss.grad_with_info)

    def grad_with_info(self, x):
        g, info = grad(self, x)
        tracer.counts["extension.prox_iters"] += info.iterations
        tracer.counts["extension.nonconverged"] += not info.converged
        return g, info

    patch(ExtendedLoss, "grad_with_info", grad_with_info)
    # the set classes the workloads use; Interval inherits Box._project
    for cls in (Box, Simplex, ShiftedSet):
        patch(cls, "_project",
              tracer.wrap("geometry.project", cls._project, outermost=True))
    for cls in (LinearLoss, QuadraticLoss, ShiftedLoss, ScaledLoss):
        patch(cls, "__init__", _counted(tracer, cls.__init__))
    try:
        yield tracer
    finally:
        for cls, attr, value in reversed(saved):
            setattr(cls, attr, value)


def _counted(tracer, init):
    def counted_init(self, *args, **kwargs):
        tracer.counts["losses.constructed"] += 1
        init(self, *args, **kwargs)
    return counted_init


def layer_figures(snapshot, rounds: int, scale: float) -> dict:
    """Per-round figures (per stage for a fit) from a tracer snapshot, with
    times multiplied by ``scale`` (to reference speed).

    ``data.load_ms`` is per ``load_dataset`` call, not per round.
    """
    self_ns, calls, counts = snapshot

    def us(*names):
        return sum(self_ns.get(n, 0) for n in names) * scale / 1e3 / rounds

    loads = calls.get("data.load", 0)
    return {
        "booster.predict_self_us": us("booster.predict"),
        "booster.update_self_us": us("booster.update"),
        "bandit.self_us": us("bandit.step", "bandit.feedback"),
        "weak.predict_us": us("weak.predict"),
        "weak.update_us": us("weak.update"),
        "weak.calls": (calls.get("weak.predict", 0)
                       + calls.get("weak.update", 0)) / rounds,
        "extension.grad_us": us("extension.grad"),
        "extension.solves": calls.get("extension.grad", 0) / rounds,
        "extension.prox_iters": counts.get("extension.prox_iters", 0) / rounds,
        "extension.nonconverged": counts.get("extension.nonconverged", 0) / rounds,
        "geometry.project_us": us("geometry.project"),
        "geometry.project_calls": calls.get("geometry.project", 0) / rounds,
        "losses.constructed": counts.get("losses.constructed", 0) / rounds,
        "statistical.solve_us": us("statistical.solve"),
        "statistical.stage_hypothesis_calls":
            counts.get("statistical.hypothesis_calls", 0) / rounds,
        "statistical.predict_hypothesis_calls": 0.0,
        "data.load_ms": (self_ns.get("data.load", 0) * scale / 1e6 / loads
                         if loads else 0.0),
    }


def wrap_learner(tracer: Tracer, learner, plays=None):
    """Trace a weak learner's predict and update; with ``plays``, also
    record every action it predicts."""
    predict = learner.predict
    if plays is not None:
        def recorded(context, predict=predict):
            action = predict(context)
            plays.append(action)
            return action
        predict = recorded
    learner.predict = tracer.wrap("weak.predict", predict)
    learner.update = tracer.wrap("weak.update", learner.update)
    return learner
