"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. Criterion 7's docstring
derives why its pinned configuration explores every round, and what it
checks there instead of sublinear growth. Criterion 9a needs scikit-learn
for the diabetes table; 9b needs ``california_housing.csv`` on the data
search path. Each skips when its input is absent.
"""

import json
import time

import numpy as np
import pytest

from ocoboost.bandit import default_explore_rate
from ocoboost.bench import synth
from ocoboost.bench.data import CALIFORNIA_FILENAME, _find_file
from ocoboost.bench.experiment import (ExperimentConfig, emit_table,
                                       run_experiment)
from ocoboost.extension import ExtendedLoss
from ocoboost.geometry import Ball, Box, Interval, Simplex
from ocoboost.losses import LinearLoss, QuadraticLoss, lipschitz_bound
from ocoboost.testkit import (GridSpec, bandit_expectation, finite_diff_grad,
                              grid_moreau, hull_optimum, recursion_sim)

SOLVER_TOL = 1e-8


def _report(criterion, ok, details):
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {criterion}] {status} — {details}")
    return ok


def _families():
    return {
        "interval": Interval(-1.0, 1.0),
        "box2d": Box([-1.0, -1.0], [1.0, 1.0]),
        "ball2d": Ball(2, 1.0),
    }


def _random_loss(set_, rng, reach):
    if rng.random() < 0.5:
        direction = rng.standard_normal(set_.dim)
        direction /= max(1.0, np.linalg.norm(direction))
        loss = LinearLoss(direction)
    else:
        loss = QuadraticLoss(set_.sample(rng), weight=rng.uniform(0.3, 1.5))
    return loss, lipschitz_bound(loss, set_, inflate=reach)


def test_criterion_01_extension_bounds():
    """On-set agreement and near-monotone projection of the extension."""
    start = time.time()
    rng = np.random.default_rng(101)
    slack = 10 * SOLVER_TOL
    worst_on, worst_proj = -np.inf, -np.inf
    for name, set_ in _families().items():
        for _ in range(1000):
            reach = 3.0
            loss, g_bound = _random_loss(set_, rng, reach)
            delta = rng.uniform(0.05, 0.5)
            ext = ExtendedLoss(loss, set_, delta=delta, kappa=g_bound)

            x_in = set_.sample(rng)
            gap = abs(ext.value(x_in) - loss.value(x_in))
            worst_on = max(worst_on, gap - (delta * g_bound ** 2 / 2 + slack))
            assert gap <= delta * g_bound ** 2 / 2 + slack, (name, gap)

            x_out = set_.sample(rng) + rng.uniform(0.3, 2.0) * rng.standard_normal(set_.dim)
            inc = ext.value(set_.project(x_out)) - ext.value(x_out)
            worst_proj = max(worst_proj, inc - (g_bound ** 2 * delta + slack))
            assert inc <= g_bound ** 2 * delta + slack, (name, inc)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(1, True, f"3000 on-set + 3000 exterior pairs, worst margins "
                     f"{worst_on:.2e}/{worst_proj:.2e}, {elapsed:.1f}s")


def test_criterion_02_moreau_gradient():
    """Envelope gradients match finite differences; values match the grid."""
    start = time.time()
    rng = np.random.default_rng(202)
    sets = [Interval(-1.0, 1.0), Box([-1.0, -1.0], [1.0, 1.0]), Ball(2, 1.0)]
    worst_rel = 0.0
    for k in range(200):
        set_ = sets[k % len(sets)]
        loss = QuadraticLoss(set_.sample(rng), weight=rng.uniform(0.3, 1.5))
        g_bound = lipschitz_bound(loss, set_, inflate=3.0)
        delta = rng.uniform(0.1, 0.5)
        ext = ExtendedLoss(loss, set_, delta=delta, kappa=g_bound)
        x = set_.sample(rng) + rng.uniform(0, 1.5) * rng.standard_normal(set_.dim)
        fd = finite_diff_grad(ext.value, x)
        grad = ext.grad(x)
        rel = np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad))
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-3

    worst_grid = 0.0
    for k in range(50):
        one_d = k % 2 == 0
        set_ = Interval(-1.0, 1.0) if one_d else Box([-1.0, -1.0], [1.0, 1.0])
        loss = QuadraticLoss(set_.sample(rng), weight=rng.uniform(0.3, 1.0))
        g_bound = lipschitz_bound(loss, set_, inflate=4.0)
        delta = rng.uniform(0.2, 0.6)
        ext = ExtendedLoss(loss, set_, delta=delta, kappa=g_bound)
        bounds = [(-3.0, 3.0)] * set_.dim
        grid = GridSpec(bounds, points=401 if one_d else 241)

        def composite(y, loss=loss, set_=set_, g_bound=g_bound):
            return loss.value(y) + g_bound * set_.distance(y)

        x = set_.sample(rng) + rng.uniform(0, 1.0) * rng.standard_normal(set_.dim)
        ours = ext.value(x)
        oracle, boundary = grid_moreau(composite, delta, x, grid)
        assert not boundary
        certified = max(grid.spacing * 2.0 * g_bound, SOLVER_TOL)
        err = abs(ours - oracle)
        worst_grid = max(worst_grid, err / certified)
        assert err <= certified
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(2, True, f"200 FD checks (worst rel {worst_rel:.2e}), 50 grid "
                     f"checks (worst {worst_grid:.2f}x certified), {elapsed:.1f}s")


def test_criterion_03_mixing_recursion():
    """h_t <= 4c/t holds exactly along the recursion for t <= 1e5."""
    start = time.time()
    for c in (0.1, 1.0, 10.0):
        hs = recursion_sim(c, 100000)  # asserts the bound internally
        ts = np.arange(1, hs.shape[0] + 1)
        assert np.all(hs <= 4.0 * c / ts)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(3, True, f"c in {{0.1, 1, 10}}, t <= 1e5, exact, {elapsed:.2f}s")


def test_criterion_04_distance_lipschitz_projection_nonexpansive():
    start = time.time()
    rng = np.random.default_rng(404)
    families = dict(_families(), simplex3=Simplex(3))
    for name, set_ in families.items():
        base = set_.sample(rng, 10000)
        xs = base + 2.0 * rng.standard_normal(base.shape)
        ys = xs + rng.standard_normal(base.shape)
        for x, y in zip(xs, ys):
            dx, dy = set_.distance(x), set_.distance(y)
            step = np.linalg.norm(x - y)
            assert abs(dx - dy) <= step + 1e-12, name
            proj_step = np.linalg.norm(set_.project(x) - set_.project(y))
            assert proj_step <= step + 1e-12, name
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report(4, True, f"1e4 pairs x {len(families)} families, zero violations "
                     f"beyond 1e-12, {elapsed:.1f}s")


def test_criterion_05_estimator_unbiasedness():
    start = time.time()
    rng = np.random.default_rng(505)
    for _ in range(100):
        d = int(rng.integers(1, 17))
        eta = float(rng.uniform(0.02, 1.0))
        f = rng.standard_normal(d)
        np.testing.assert_allclose(bandit_expectation(f, eta, d), f,
                                   rtol=1e-14, atol=1e-14)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(5, True, f"100 triples (d <= 16) exact to machine precision, "
                     f"{elapsed:.2f}s")


def test_criterion_06_full_information_regret_scaling():
    start = time.time()
    horizon, gamma, seeds = 5000, 0.5, 10
    means = {}
    for n in (4, 16, 64):
        regrets = []
        bound = None
        for s in range(seeds):
            out = synth.oco_scenario(n, horizon=horizon, gamma=gamma, seed=s)
            regrets.append(out["regret"])
            bound = out["bound"]
            assert out["regret"] <= 2.0 * bound, (n, s, out["regret"])
        means[n] = float(np.mean(regrets))
    ratio = means[64] / means[4]
    elapsed = time.time() - start
    assert elapsed < 300.0
    ok = ratio <= 0.6
    _report(6, ok, f"mean regrets N=4/16/64: {means[4]:.1f}/{means[16]:.1f}/"
                   f"{means[64]:.2f}, ratio {ratio:.3f} <= 0.6, all seeds "
                   f"within 2x bound, {elapsed:.0f}s")
    assert ok


def test_criterion_06b_comparator_cross_check():
    """Dual route: the scenario's hull minimum against testkit's."""
    out = synth.oco_scenario(4, horizon=400, gamma=0.5, seed=0)
    # rebuild the same stream and compare comparators directly
    rng = np.random.default_rng(0)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=400)
    contexts = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    actions = np.stack([Ball(2, 1.0)._project(contexts @ m.T)
                        for m in synth._OCO_MATRICES])
    raw = -actions[0] + 0.5 * rng.standard_normal((400, 2))
    dirs = raw / np.maximum(np.linalg.norm(raw, axis=1, keepdims=True), 1e-12)
    hyps = [lambda c, j=j: actions[j, int(c[0])] for j in range(4)]
    losses = [LinearLoss(d) for d in dirs]
    ctx = [np.array([float(t)]) for t in range(400)]
    oracle = hull_optimum(hyps, losses, ctx)
    assert oracle.converged
    vertex = min(float(np.einsum("td,td->", dirs, actions[j, :400]))
                 for j in range(4))
    assert oracle.value == pytest.approx(vertex, abs=1e-5)
    assert out["comparator"] == pytest.approx(oracle.value, abs=1e-5)


def _bandit_loss_table(horizon, seed):
    """Rebuild ``synth.bandit_scenario``'s loss table from the same draws.

    Returns the (T, d) losses and the per-round arm of each reference policy,
    shape (J, T).
    """
    rng = np.random.default_rng(np.random.SeedSequence([10_000_019, seed]))
    types = rng.integers(0, 4, size=horizon)
    base = np.full((4, synth.BANDIT_ARMS), 0.95)
    base[np.arange(4), synth._BANDIT_BEST_ARM] = 0.05
    losses = np.clip(base[types] + 0.05 * rng.standard_normal(
        (horizon, synth.BANDIT_ARMS)), 0.0, 1.0)
    return losses, synth._bandit_policies()[:, types]


def test_criterion_07_bandit_sublinearity_auto_rate():
    """Bandit regret under the automatic explore rate, in both its regimes.

    ``default_explore_rate`` minimizes A/eta + eta*T over (0, 1], with
    A = 4dT/(gamma sqrt(N)) + 2d R_W/gamma, and returns min(1, sqrt(A/T)).
    Every term of A carries the estimate scale d/eta, so

        A/T >= 4d/(gamma sqrt(N)),

    which does not shrink with T. At the pinned d=4, gamma=0.5, N=16 it is
    4*4/(0.5*4) = 8 > 1 at every horizon: the rate clamps to 1.0, every
    round plays a uniformly random basis vector, and regret is linear in T
    (a per-doubling growth of 2, not <= 1.9). The clamp lifts only once
    A/T < 1, which with the scenario's R_W = 2 sqrt(T log J) needs N above
    about 3000 at T=8000 and 41000 at T=2000, far outside the time budget.
    No constant of order 1 in front of d/(gamma sqrt(N)) lifts it at N=16.
    The bound promises sublinear regret only when N grows with T. The
    criterion therefore checks three things:

    (a) the pinned configuration resolves to rate 1.0, derived above;
    (b) there, with the losses rebuilt from the scenario's own draws, the
        20-seed mean regret at each horizon equals the exact expectation of
        always-exploring play, sum_t mean_i l_{t,i} - min_j sum_t
        l_t . pi_j(t), within 4 pooled standard errors. Each seed's regret
        has variance sum_t var_i l_{t,i} (the comparator is fixed by the
        table; the played arm is uniform and independent per round);
    (c) with N = T the bound A/eta + eta*T at the auto rate grows by less
        than 1.9x per doubling for T = 8000 -> 64000, with the rate below 1.
        There A is proportional to sqrt(T), the rate is interior, and the
        bound 2 sqrt(A T) grows as T^(3/4), a ratio of 2^(3/4) ~ 1.68.
    """
    start = time.time()
    d, gamma, n, seeds = synth.BANDIT_ARMS, 0.5, 16, 20
    horizons = (2000, 4000, 8000)
    clamp_floor = 4.0 * d / (gamma * np.sqrt(n))
    assert clamp_floor > 1.0
    means, expected, ses = {}, {}, {}
    for horizon in horizons:
        regrets, exact, variances = [], [], []
        for s in range(seeds):
            out = synth.bandit_scenario(horizon, n_learners=n, gamma=gamma,
                                        explore_rate="auto", seed=s)
            assert out["explore_rate"] == 1.0, (horizon, out["explore_rate"])
            regrets.append(out["regrets"][horizon])
            losses, arms = _bandit_loss_table(horizon, s)
            comparator = losses[np.arange(horizon), arms].sum(axis=1)
            exact.append(losses.mean(axis=1).sum() - comparator.min())
            variances.append(losses.var(axis=1).sum())
        means[horizon] = float(np.mean(regrets))
        expected[horizon] = float(np.mean(exact))
        ses[horizon] = float(np.sqrt(np.sum(variances)) / seeds)
    z_scores = {h: (means[h] - expected[h]) / ses[h] for h in horizons}
    clamped_ok = all(abs(z) <= 4.0 for z in z_scores.values())

    n_policies = synth._bandit_policies().shape[0]
    bounds, scaled_rates = [], []
    for horizon in (8000, 16000, 32000, 64000):
        weak_regret_bound = 2.0 * np.sqrt(horizon * np.log(n_policies))
        a = (4.0 * d * horizon / (gamma * np.sqrt(horizon))
             + 2.0 * d * weak_regret_bound / gamma)
        rate = default_explore_rate(d, horizon, horizon, gamma,
                                    weak_regret_bound)
        scaled_rates.append(rate)
        bounds.append(a / rate + rate * horizon)
    growth = [b / a for a, b in zip(bounds, bounds[1:])]
    scaled_ok = (all(g < 1.9 for g in growth)
                 and all(r < 1.0 for r in scaled_rates))

    elapsed = time.time() - start
    assert elapsed < 600.0
    ok = clamped_ok and scaled_ok
    _report(7, ok,
            f"N=16: rate 1.0 (A/T >= {clamp_floor:.0f}), mean regrets "
            + "/".join(f"{means[h]:.0f}" for h in horizons) + " vs exact "
            + "/".join(f"{expected[h]:.0f}" for h in horizons) + ", z "
            + "/".join(f"{z_scores[h]:+.2f}" for h in horizons)
            + "; N=T bound growth "
            + "/".join(f"{g:.3f}" for g in growth) + " (bar 1.9), rates "
            + "/".join(f"{r:.2f}" for r in scaled_rates) + f", {elapsed:.0f}s")
    assert clamped_ok, (means, expected, ses)
    assert scaled_ok, (growth, scaled_rates)


def test_criterion_08_statistical_endpoint():
    start = time.time()
    worst = {}
    for gamma in (0.5, 1.0):
        gaps = {}
        for n in (16, 64, 256):
            out = synth.sco_scenario(n, gamma=gamma)
            gap = out["gap"]
            bound = (2.0 * 4.0 * out["lipschitz"] * 2.0 / (gamma * np.sqrt(n))
                     + (2.0 * out["lipschitz"] * 2.0 / gamma) * out["epsilon"])
            assert gap <= bound, (gamma, n, gap, bound)
            assert gap >= -1e-9
            gaps[n] = gap
        assert gaps[256] <= 0.6 * gaps[16], (gamma, gaps)
        worst[gamma] = gaps
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report(8, True, f"gaps gamma=0.5: {worst[0.5][16]:.2e}->{worst[0.5][256]:.2e}, "
                     f"gamma=1.0: {worst[1.0][16]:.2e}->{worst[1.0][256]:.2e}, "
                     f"ratios <= 0.6, {elapsed:.1f}s")


def _trend_and_improvement(row, n_values, min_improvement):
    norms = [row["normalized"][f"N={n}"] for n in n_values]
    ratios = {n: np.array(row["per_run_ratio"][f"N={n}"]) for n in n_values}
    ses = {n: ratios[n].std(ddof=1) / np.sqrt(ratios[n].shape[0])
           for n in n_values}
    checks = []
    checks.append(("N=max below 1.000", norms[-1] < 1.0))
    for a, b in zip(n_values, n_values[1:]):
        pooled = np.sqrt(ses[a] ** 2 + ses[b] ** 2)
        checks.append((f"N={b} <= N={a} + pooled SE",
                       row["normalized"][f"N={b}"]
                       <= row["normalized"][f"N={a}"] + pooled))
    checks.append((f"improvement >= {min_improvement}%",
                   row["improvement"] >= min_improvement))
    return norms, checks


def test_criterion_09a_diabetes_stumps():
    pytest.importorskip("sklearn.datasets")
    start = time.time()
    cfg = ExperimentConfig(dataset="diabetes", learners=("stump",),
                           gamma=0.1, step=0.01, runs=20, seed=0)
    result = run_experiment(cfg)
    row = result.rows[0]
    norms, checks = _trend_and_improvement(row, (2, 3, 4, 5), 5.0)
    ok = all(passed for _, passed in checks)
    elapsed = time.time() - start
    _report("9a", ok, f"diabetes+stumps normalized {['%.3f' % v for v in norms]}, "
                      f"improvement {row['improvement']:.1f}%, {elapsed:.0f}s")
    for label, passed in checks:
        assert passed, label
    assert elapsed < 900.0


def test_criterion_09b_california_mlp():
    if _find_file(CALIFORNIA_FILENAME) is None:
        pytest.skip(f"{CALIFORNIA_FILENAME} not found in the data search "
                    "path; run 'ocoboost-bench fetch california' where "
                    "network access exists, or set BENCH_DATA_DIR")
    start = time.time()
    cfg = ExperimentConfig(dataset="california", learners=("mlp",),
                           gamma=0.1, step=0.01, runs=20, seed=0)
    result = run_experiment(cfg)
    row = result.rows[0]
    norms, checks = _trend_and_improvement(row, (2, 3, 4, 5), 5.0)
    ok = all(passed for _, passed in checks)
    elapsed = time.time() - start
    _report("9b", ok, f"california+mlp normalized {['%.3f' % v for v in norms]}, "
                      f"improvement {row['improvement']:.1f}%, {elapsed:.0f}s")
    for label, passed in checks:
        assert passed, label
    assert elapsed < 900.0


def test_criterion_10_determinism():
    start = time.time()
    # synthetic scenario: identical floats on repeat
    a = synth.oco_scenario(4, horizon=300, gamma=0.5, seed=3)
    b = synth.oco_scenario(4, horizon=300, gamma=0.5, seed=3)
    assert a["regret"] == b["regret"]

    c = synth.bandit_scenario(500, n_learners=4, explore_rate=0.3, seed=5)
    d = synth.bandit_scenario(500, n_learners=4, explore_rate=0.3, seed=5)
    assert c["regrets"] == d["regrets"]

    e = synth.sco_scenario(8, gamma=0.5, seed=7)
    f = synth.sco_scenario(8, gamma=0.5, seed=7)
    assert e["gap"] == f["gap"]

    # benchmark tables: byte-identical emissions
    cfg = ExperimentConfig(dataset="synthetic", learners=("stump",),
                           n_values=(2, 3), runs=2, seed=4)
    tables1 = {fmt: emit_table(run_experiment(cfg), fmt)
               for fmt in ("markdown", "csv", "json")}
    tables2 = {fmt: emit_table(run_experiment(cfg), fmt)
               for fmt in ("markdown", "csv", "json")}
    assert tables1 == tables2
    json.loads(tables1["json"])
    elapsed = time.time() - start
    _report(10, True, f"scenario reruns and table emissions byte-identical, "
                      f"{elapsed:.0f}s")
