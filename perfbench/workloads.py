"""The three benchmark workloads, each a boosting round in one setting.

A workload builds its inputs from the seed in ``__init__`` (untimed), builds
the program's objects in ``setup`` (timed as ``setup_s``) and plays one pass
over its inputs in ``play``. A pass of a given seed is the same work every
time, so a run repeats whole passes and the traced and untraced passes of a
seed must play bit-identical points. Each pass checks its outputs against
the benchmark's own computations.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter_ns

import numpy as np

from ocoboost import (BanditBooster, BoosterConfig, Box, DecisionStump,
                      ErmWeakOptimizer, FiniteSupportOracle, Interval,
                      LinearLoss, OnlineBooster, QuadraticLoss,
                      ScaledLeaderOracle, Simplex, default_delta,
                      fit_boosted_hypothesis)
from ocoboost.bench.data import load_dataset, write_synthetic_csv
from ocoboost.bench.experiment import square_loss_gradient_bound

from tracing import Tracer, instrument, layer_figures, wrap_learner

# On a shared machine the speed moves by a factor of two within seconds as
# other tenants come and go. Each timed operation is therefore followed by a
# fixed reference computation, and its time is rescaled to the speed at
# which that computation takes REFERENCE_NS.
REFERENCE_NS = 50_000
_REFERENCE_VECTOR = np.arange(4.0)


@dataclass
class Pass:
    """What one pass did: operations, timings (ns) and failed checks."""

    attempted: int
    failed: int = 0
    predict_ns: list = field(default_factory=list)  # at reference speed
    update_ns: list = field(default_factory=list)   # at reference speed
    reference_ns: list = field(default_factory=list)
    rate: float = 0.0   # rounds per second at reference speed
    digest: str = ""    # sha256 of the played points
    rounds: int = 0
    problems: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _digest(points: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(points).tobytes()).hexdigest()


def reference_ns() -> int:
    """Time (ns) of a fixed computation of the same kind as the library's
    inner loops: Python bytecode around small numpy calls."""
    start = perf_counter_ns()
    total = 0.0
    for i in range(40):
        total += float(_REFERENCE_VECTOR @ _REFERENCE_VECTOR) + i
    return perf_counter_ns() - start


def at_reference_speed(times_ns, references_ns):
    """Rescale each time by the mean of the references taken just before and
    just after it (``references_ns`` has one more entry than ``times_ns``)."""
    return [2 * REFERENCE_NS * t / (a + b)
            for t, a, b in zip(times_ns, references_ns, references_ns[1:])]


def _scale(passes) -> float:
    """Factor from a traced run's wall-clock times to reference speed."""
    return REFERENCE_NS / float(np.median([r for p in passes for r in p.reference_ns]))


def _fail(pass_: Pass, done: int, exc: Exception) -> None:
    """An operation raised: it and the rest of the pass count as failed."""
    traceback.print_exception(exc, file=sys.stderr)
    pass_.failed += pass_.attempted - done
    pass_.problems.append(f"operation {done + 1} raised "
                          f"{type(exc).__name__}: {exc}")


def _round_times(p: Pass, predict_ns, update_ns, references) -> None:
    """Record a stream's rounds at reference speed; a round is one predict
    and one update, between two references."""
    p.predict_ns = at_reference_speed(predict_ns, references)
    p.update_ns = at_reference_speed(update_ns, references)
    p.reference_ns, p.rounds = references, len(p.predict_ns)
    if p.rounds:
        p.rate = p.rounds * 1e9 / (sum(p.predict_ns) + sum(p.update_ns))


def project_simplex_rows(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex
    (sort-based; written here so the check shares no code with the library)."""
    n, d = v.shape
    u = -np.sort(-v, axis=1)
    css = np.cumsum(u, axis=1) - 1.0
    positive = u - css / np.arange(1, d + 1) > 0
    rho = d - 1 - np.argmax(positive[:, ::-1], axis=1)
    theta = css[np.arange(n), rho] / (rho + 1)
    return np.maximum(v - theta[:, None], 0.0)


def _lookup(table, context):
    return table[int(context[0])]


def _constant(point, context):
    return point


class BanditSimplex:
    """BanditBooster on the 4-arm simplex with N=64 leader oracles over four
    table policies; loss table after the recipe of ``synth.bandit_scenario``."""

    name = "bandit-simplex-n64"
    arms = 4
    n_learners = 64
    gamma = 0.5
    explore_rate = 0.2
    horizon = 1000
    noise = 0.05
    setup_repeats = 5

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(np.random.SeedSequence([1, seed]))
        d, horizon = self.arms, self.horizon
        best = np.arange(d)
        types = rng.integers(0, d, size=horizon)
        base = np.full((d, d), 0.95)
        base[best, best] = 0.05
        self.losses = np.clip(
            base[types] + self.noise * rng.standard_normal((horizon, d)), 0.0, 1.0)
        policies = np.stack([best, np.zeros(d, int), np.ones(d, int),
                             (best + 1) % d])
        self.policy_points = np.eye(d)[policies[:, types]]  # (J, T, d)
        # learners act in coordinates centred on the simplex centroid
        self.hypotheses = [functools.partial(_lookup, table)
                           for table in self.policy_points - 1.0 / d]
        self.contexts = [np.array([float(t)]) for t in range(horizon)]
        self.seed = seed
        self._plays = self._inner = None

    def setup(self, tracer: Tracer | None = None):
        scale = self.arms / self.explore_rate  # bound on the estimates' norm
        if tracer is not None:
            self._plays, self._inner = [], []

        def factory(i, set_c):
            learner = ScaledLeaderOracle(self.hypotheses, self.gamma, set_c,
                                         mode="ftl", scale=scale)
            if tracer is None:
                return learner
            return wrap_learner(tracer, learner, self._plays)

        config = BoosterConfig(n_learners=self.n_learners, gamma=self.gamma,
                               lipschitz=scale)
        bandit = BanditBooster(Simplex(self.arms), factory, config,
                               explore_rate=self.explore_rate, seed=self.seed)
        if tracer is not None:
            inner_predict = tracer.wrap("booster.predict", bandit.inner.predict)

            def recorded(context):
                out = inner_predict(context)
                self._inner.append(out[0])
                return out

            bandit.inner.predict = recorded
            bandit.inner.update = tracer.wrap("booster.update", bandit.inner.update)
            bandit.step = tracer.wrap("bandit.step", bandit.step)
            bandit.feedback = tracer.wrap("bandit.feedback", bandit.feedback)
        return bandit

    def play(self, bandit, tracer: Tracer | None = None) -> Pass:
        horizon = self.horizon
        p = Pass(attempted=horizon)
        played = np.empty((horizon, self.arms))
        step_ns, feedback_ns, references = [], [], [reference_ns()]
        done = 0
        try:
            with instrument(tracer):
                for t in range(horizon):
                    t0 = perf_counter_ns()
                    point = bandit.step(self.contexts[t])
                    t1 = perf_counter_ns()
                    bandit.feedback(float(self.losses[t] @ point))
                    t2 = perf_counter_ns()
                    references.append(reference_ns())
                    played[t] = point
                    step_ns.append(t1 - t0)
                    feedback_ns.append(t2 - t1)
                    done = t + 1
        except Exception as exc:  # noqa: BLE001 - counted as failed operations
            _fail(p, done, exc)
        _round_times(p, step_ns, feedback_ns, references)
        played = played[:done]
        p.digest = _digest(played)

        off = (played.min(axis=1) < -1e-12) | (np.abs(played.sum(axis=1) - 1.0) > 1e-9)
        p.failed += int(off.sum())
        if off.any():
            p.problems.append(f"{int(off.sum())} played points off the simplex")
        if done == horizon:
            self._check_regret(p, played)
            if tracer is not None:
                self._check_recursion(p)
        return p

    def _check_regret(self, p: Pass, played) -> None:
        losses = self.losses
        best = float(np.einsum("td,jtd->j", losses, self.policy_points).min())
        regret = float(np.einsum("td,td->", losses, played)) - best
        uniform = float(losses.mean(axis=1).sum()) - best
        p.notes.append(f"regret {regret:.2f} vs uniform play {uniform:.2f}")
        if not regret < uniform:
            p.problems.append(f"regret {regret:.3f} is not below uniform "
                              f"play's expected regret {uniform:.3f}")

    def _check_recursion(self, p: Pass) -> None:
        """The inner played point is the projected stage recursion over the
        learners' recorded plays, recomputed here."""
        n, d = self.n_learners, self.arms
        plays = np.array(self._plays).reshape(self.horizon, n, d)
        x = np.zeros((self.horizon, d))
        for i in range(1, n + 1):
            eta = min(2.0 / i, 1.0)
            x = (1.0 - eta) * x + (eta / self.gamma) * plays[:, i - 1]
        expected = project_simplex_rows(x + 1.0 / d)
        err = float(np.abs(expected - np.array(self._inner)).max())
        p.notes.append(f"stage recursion recomputed to {err:.1e}")
        if not err <= 1e-9:
            p.problems.append(f"inner played points differ from the "
                              f"recomputed stage recursion by {err:.3e}")

    def layers(self, tracer: Tracer, passes) -> dict:
        return layer_figures(tracer.snapshot(), sum(p.rounds for p in passes),
                             _scale(passes))


class RegressStump:
    """Streaming regression on the bundled synthetic stream, read back from a
    CSV: N=5 boosted decision stumps at gamma=0.1 under the square loss on
    the standardized target interval, rows shuffled by the seed."""

    name = "regress-stump-n5"
    n_learners = 5
    gamma = 0.1
    setup_repeats = 5

    def __init__(self, seed: int, workdir):
        workdir.mkdir(parents=True, exist_ok=True)
        self.csv = workdir / "synthetic.csv"
        write_synthetic_csv(self.csv)
        rows = load_dataset(self.csv).n_rows
        self.order = np.random.default_rng(
            np.random.SeedSequence([2, seed])).permutation(rows)
        self._standalone = None

    def setup(self, tracer: Tracer | None = None):
        load = load_dataset if tracer is None else tracer.wrap("data.load", load_dataset)
        data = load(self.csv)
        interval = Interval(*data.target_range)

        def factory(i, set_c):
            # the first slot's incoming stage point is exactly the centroid
            stump = DecisionStump(data.n_features, set_c, self.gamma,
                                  anchor="zero" if i == 0 else "self")
            return stump if tracer is None else wrap_learner(tracer, stump)

        config = BoosterConfig(
            n_learners=self.n_learners, gamma=self.gamma,
            lipschitz=square_loss_gradient_bound(interval, self.gamma,
                                                 self.n_learners))
        booster = OnlineBooster(interval, factory, config)
        if tracer is not None:
            booster.predict = tracer.wrap("booster.predict", booster.predict)
            booster.update = tracer.wrap("booster.update", booster.update)
        return booster, data

    def play(self, system, tracer: Tracer | None = None) -> Pass:
        booster, data = system
        features, targets = data.features[self.order], data.targets[self.order]
        rows = targets.shape[0]
        p = Pass(attempted=rows)
        preds = np.empty(rows)
        predict_ns, update_ns, references = [], [], [reference_ns()]
        done = 0
        try:
            with instrument(tracer):
                for t in range(rows):
                    target = float(targets[t])
                    t0 = perf_counter_ns()
                    pred, trajectory = booster.predict(features[t])
                    t1 = perf_counter_ns()
                    loss = QuadraticLoss([target])
                    t2 = perf_counter_ns()
                    booster.update(loss, trajectory)
                    t3 = perf_counter_ns()
                    references.append(reference_ns())
                    preds[t] = pred[0]
                    predict_ns.append(t1 - t0)
                    update_ns.append(t3 - t2)
                    done = t + 1
        except Exception as exc:  # noqa: BLE001 - counted as failed operations
            _fail(p, done, exc)
        _round_times(p, predict_ns, update_ns, references)
        preds = preds[:done]
        p.digest = _digest(preds)

        lo, hi = data.target_range
        outside = (preds < lo - 1e-9) | (preds > hi + 1e-9)
        p.failed += int(outside.sum())
        if outside.any():
            p.problems.append(f"{int(outside.sum())} predictions outside "
                              f"[{lo:.4f}, {hi:.4f}]")
        if done == rows:
            boosted = float(np.sum((preds - targets) ** 2))
            standalone = self._standalone_loss(features, targets, data)
            p.notes.append(f"cumulative square loss {boosted:.2f} vs "
                           f"standalone stump {standalone:.2f} "
                           f"(ratio {boosted / standalone:.3f})")
            if not boosted < standalone:
                p.problems.append(f"boosted loss {boosted:.3f} is not below the "
                                  f"standalone stump's {standalone:.3f}")
        return p

    def _standalone_loss(self, features, targets, data) -> float:
        """Cumulative square loss of one stump on the same stream (untimed,
        computed once per run)."""
        if self._standalone is None:
            set_c, offset = Interval(*data.target_range).recenter()
            stump = DecisionStump(data.n_features, set_c, 1.0)
            total = 0.0
            for context, target in zip(features, targets):
                err = float(stump.predict(context)[0] + offset[0]) - target
                total += err * err
                stump.update(LinearLoss([2.0 * err]))
            self._standalone = total
        return self._standalone

    def layers(self, tracer: Tracer, passes) -> dict:
        return layer_figures(tracer.snapshot(), sum(p.rounds for p in passes),
                             _scale(passes))


class ScoBox:
    """fit_boosted_hypothesis with 32 stages of exact ERM over the corners of
    a box in R^3, against 128 QuadraticLoss atoms, then 1000 predictions."""

    name = "sco-box-n32"
    n_stages = 32
    gamma = 0.5
    n_atoms = 128
    n_predictions = 1000
    lower = np.array([-1.0, -0.5, 0.0])
    upper = np.array([1.0, 1.5, 1.0])
    setup_repeats = 5

    def __init__(self, seed: int, workdir):
        rng = np.random.default_rng(np.random.SeedSequence([3, seed]))
        centre, half = 0.5 * (self.upper + self.lower), 0.5 * (self.upper - self.lower)
        # targets reach half a box beyond each face
        self.targets = centre + half * rng.uniform(-1.5, 1.5, (self.n_atoms, 3))
        self.probs = rng.dirichlet(np.ones(self.n_atoms))
        self.contexts = rng.standard_normal((self.n_atoms, 2))
        self.queries = self.contexts[rng.integers(self.n_atoms, size=self.n_predictions)]
        corners = np.array(list(itertools.product((-1.0, 1.0), repeat=3)))
        # hypotheses map into the box recentred on its centroid
        self.hypotheses = [functools.partial(_constant, point)
                           for point in half * corners]
        self.diameter = float(np.linalg.norm(self.upper - self.lower))
        self.lipschitz = self._gradient_bound(centre, half)
        self.seed = seed
        self._active = [None]  # tracer that counts hypothesis calls
        self._pred_tracer = Tracer()

    def _gradient_bound(self, centre, half) -> float:
        """Square-loss gradient bound over the recentred box scaled by
        1/gamma, inflated by the smoothing slack."""
        reach = float(np.max(np.linalg.norm(
            np.abs(self.targets - centre) + half / self.gamma, axis=1)))
        g0 = 2.0 * reach
        delta = default_delta(self.diameter, self.gamma, self.n_stages, g0)
        return 2.0 * (reach + delta * g0)

    def setup(self, tracer: Tracer | None = None):
        box = Box(self.lower, self.upper)
        atoms = [(QuadraticLoss(t), c) for t, c in zip(self.targets, self.contexts)]
        oracle = FiniteSupportOracle(atoms, probs=self.probs, seed=self.seed)
        hypotheses = self.hypotheses
        if tracer is not None:
            active = self._active

            def counted(h, context):
                active[0].counts["statistical.hypothesis_calls"] += 1
                return h(context)

            hypotheses = [functools.partial(counted, h) for h in hypotheses]
        return box, oracle, ErmWeakOptimizer(hypotheses, self.gamma, exact=True)

    def play(self, system, tracer: Tracer | None = None) -> Pass:
        box, oracle, weak = system
        p = Pass(attempted=self.n_stages + self.n_predictions)
        starts, stage_references = [], []
        solve = weak.solve if tracer is None else tracer.wrap("statistical.solve",
                                                             weak.solve)

        def timed_solve(*args):
            stage_references.append(reference_ns())
            starts.append(perf_counter_ns())
            return solve(*args)

        weak.solve = timed_solve
        fit = (fit_boosted_hypothesis if tracer is None
               else tracer.wrap("booster.update", fit_boosted_hypothesis))
        self._active[0] = tracer
        try:
            with instrument(tracer):
                hypothesis = fit(oracle, weak, box, n_stages=self.n_stages,
                                 gamma=self.gamma, stage_budget=1,
                                 lipschitz=self.lipschitz)
                t1 = perf_counter_ns()
                stage_references.append(reference_ns())
        except Exception as exc:  # noqa: BLE001 - counted as failed operations
            _fail(p, 0, exc)
            return p
        p.update_ns = at_reference_speed(
            [b - a for a, b in zip(starts, starts[1:] + [t1])], stage_references)
        p.rate, p.rounds = self.n_stages * 1e9 / sum(p.update_ns), self.n_stages

        outputs = np.empty((self.n_predictions, 3))
        call = hypothesis
        if tracer is not None:
            self._active[0] = self._pred_tracer
            call = self._pred_tracer.wrap("booster.predict", hypothesis)
        done, predict_ns, references = 0, [], [reference_ns()]
        try:
            with instrument(self._pred_tracer if tracer else None):
                for k in range(self.n_predictions):
                    query = self.queries[k]
                    t0 = perf_counter_ns()
                    out = call(query)
                    t1 = perf_counter_ns()
                    references.append(reference_ns())
                    outputs[k] = out
                    predict_ns.append(t1 - t0)
                    done = k + 1
        except Exception as exc:  # noqa: BLE001 - counted as failed operations
            _fail(p, self.n_stages + done, exc)
        p.predict_ns = at_reference_speed(predict_ns, references)
        p.reference_ns = stage_references + references
        outputs = outputs[:done]
        p.digest = _digest(outputs)

        outside = np.any((outputs < self.lower - 1e-9)
                         | (outputs > self.upper + 1e-9), axis=1)
        p.failed += int(outside.sum())
        if outside.any():
            p.problems.append(f"{int(outside.sum())} predictions outside the box")
        if tracer is not None:
            self._active[0] = Tracer()  # the check's own calls are not counted
        self._check_gap(p, hypothesis)
        return p

    def _check_gap(self, p: Pass, hypothesis) -> None:
        """Criterion 8 with epsilon=0: the exact population gap to the hull
        optimum lies in [-1e-9, 8 G D / (gamma sqrt(N))]. The class is the
        box's corners, so the hull is the box and its optimum is the
        probability-weighted mean target projected onto the box."""
        outputs = np.array([hypothesis(c) for c in self.contexts])
        population = float(self.probs @ np.sum((outputs - self.targets) ** 2, axis=1))
        best = np.clip(self.probs @ self.targets, self.lower, self.upper)
        hull = float(self.probs @ np.sum((best - self.targets) ** 2, axis=1))
        gap = population - hull
        bound = 8.0 * self.lipschitz * self.diameter / (self.gamma * np.sqrt(self.n_stages))
        p.notes.append(f"population gap {gap:.3e} (bound {bound:.3g})")
        if not -1e-9 <= gap <= bound:
            p.problems.append(f"population gap {gap:.3e} outside [-1e-9, {bound:.3g}]")

    def layers(self, tracer: Tracer, passes) -> dict:
        scale = _scale(passes)
        figures = layer_figures(tracer.snapshot(), sum(p.rounds for p in passes), scale)
        calls = sum(len(p.predict_ns) for p in passes)
        predict = layer_figures(self._pred_tracer.snapshot(), calls, scale)
        figures["booster.predict_self_us"] = predict["booster.predict_self_us"]
        figures["statistical.predict_hypothesis_calls"] = \
            predict["statistical.stage_hypothesis_calls"]
        return figures


WORKLOADS = {w.name: w for w in (BanditSimplex, RegressStump, ScoBox)}
