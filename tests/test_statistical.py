import itertools
import json

import numpy as np
import pytest

from ocoboost.booster import BoosterConfig
from ocoboost.errors import ConfigError, NonFiniteInput, StageError
from ocoboost.extension import ExtendedLoss, default_delta
from ocoboost.geometry import Box, Interval
from ocoboost.losses import (CallableLoss, LinearLoss, QuadraticLoss, ScaledLoss,
                             ShiftedLoss)
from ocoboost.statistical import (CallableSampleOracle, ConstantHypothesis,
                                  ErmWeakOptimizer, FiniteSupportOracle,
                                  ScaledHypothesis, exact_population_loss,
                                  fit_boosted_hypothesis)
from ocoboost.testkit import hull_optimum


def _two_point_oracle():
    atoms = [(QuadraticLoss([-0.6]), np.array([0.0])),
             (QuadraticLoss([0.8]), np.array([1.0]))]
    return FiniteSupportOracle(atoms, probs=[0.5, 0.5], seed=0)


def _constant_hyps(points):
    return [ConstantHypothesis(np.array([p]), name=f"c{p}") for p in points]


class TestOracles:
    def test_finite_support_draws_match_distribution(self):
        oracle = FiniteSupportOracle(
            [(LinearLoss([1.0]), np.array([0.0])),
             (LinearLoss([2.0]), np.array([1.0]))],
            probs=[0.8, 0.2], seed=3)
        draws = [oracle.draw()[1][0] for _ in range(5000)]
        assert np.mean(draws) == pytest.approx(0.2, abs=0.02)

    def test_bad_probs_rejected(self):
        with pytest.raises(ConfigError):
            FiniteSupportOracle([(LinearLoss([1.0]), np.array([0.0]))],
                                probs=[0.7])
        atoms = [(LinearLoss([1.0]), np.array([0.0])),
                 (LinearLoss([2.0]), np.array([1.0]))]
        for probs in ([np.nan, 1.0], [np.inf, 1.0], [1.0, -np.inf],
                      [[0.5], [0.5]], 1.0):
            with pytest.raises(ConfigError):
                FiniteSupportOracle(atoms, probs=probs)


class TestErmWeakOptimizer:
    def test_exact_mode_picks_population_minimizer(self):
        oracle = _two_point_oracle()
        hyps = _constant_hyps([-0.5, 0.1, 0.9])
        wopt = ErmWeakOptimizer(hyps, gamma=1.0, exact=True)
        learned = wopt.solve(oracle, budget=1)
        vals = [exact_population_loss(h, oracle) for h in hyps]
        best = hyps[int(np.argmin(vals))]
        np.testing.assert_allclose(learned(np.zeros(1)), best(np.zeros(1)))

    def test_gamma_scaling(self):
        hyps = _constant_hyps([0.8])
        wopt = ErmWeakOptimizer(hyps, gamma=0.5, exact=True)
        learned = wopt.solve(_two_point_oracle(), budget=1)
        assert learned(np.zeros(1))[0] == pytest.approx(0.4)


class TestFit:
    def test_single_stage_collapse(self):
        # N=1, gamma=1, eta_1=1: hypothesis = project o W^1, where W^1 is what
        # the weak optimizer returns on the lifted stage distribution
        iv = Interval(-1.0, 1.0)
        oracle = _two_point_oracle()
        hyps = _constant_hyps([-0.5, 0.1, 0.9])
        solved = []

        class Spy(ErmWeakOptimizer):
            def solve(self, stage_oracle, budget):
                learned = super().solve(stage_oracle, budget)
                solved.append(learned)
                return learned

        wopt = Spy(hyps, gamma=1.0, exact=True)
        fitted = fit_boosted_hypothesis(oracle, wopt, iv, n_stages=1, gamma=1.0,
                                        stage_budget=1, lipschitz=8.0)
        (learned,) = solved
        for c in (np.zeros(1), np.ones(1)):
            np.testing.assert_allclose(fitted(c), iv.project(learned(c)))

    def test_centroid_stages_stay_centroid(self):
        iv = Interval(-1.0, 1.0)

        class CentroidOptimizer:
            gamma = 1.0

            def solve(self, oracle, budget):
                return ConstantHypothesis(np.zeros(1), name="centroid")

        fitted = fit_boosted_hypothesis(_two_point_oracle(), CentroidOptimizer(),
                                        iv, n_stages=4, gamma=1.0,
                                        stage_budget=1, lipschitz=8.0)
        np.testing.assert_allclose(fitted(np.zeros(1)), [0.0], atol=1e-15)

    def test_exact_erm_approaches_hull_optimum(self):
        # gap to the enumerated hull optimum within 2 * (4 G D / sqrt(N))
        iv = Interval(-1.0, 1.0)
        oracle = _two_point_oracle()
        points = [-0.5, 0.1, 0.9]
        hyps = _constant_hyps(points)
        n_stages = 64
        g_bound = 2.0 * (1.0 + 0.8)  # gradients of the atom losses over [-1,1]^+
        wopt = ErmWeakOptimizer(hyps, gamma=1.0, exact=True)
        fitted = fit_boosted_hypothesis(oracle, wopt, iv, n_stages=n_stages,
                                        gamma=1.0, stage_budget=1,
                                        lipschitz=g_bound)
        value = exact_population_loss(fitted, oracle)

        support = oracle.support()
        hull = hull_optimum(hyps, [ScaledLoss(l, p) for l, _, p in support],
                            [c for _, c, _ in support], grid_spacing=0.01)
        gap = value - hull.value
        assert gap >= -1e-9
        assert gap <= 2.0 * 4.0 * g_bound * iv.diameter / np.sqrt(n_stages)

    def test_stage_failure_carries_index(self):
        class Exploder:
            gamma = 1.0

            def __init__(self):
                self.calls = 0

            def solve(self, oracle, budget):
                self.calls += 1
                if self.calls == 3:
                    raise RuntimeError("boom")
                return ConstantHypothesis(np.zeros(1))

        with pytest.raises(StageError) as err:
            fit_boosted_hypothesis(_two_point_oracle(), Exploder(),
                                   Interval(-1.0, 1.0), n_stages=5, gamma=1.0,
                                   stage_budget=1, lipschitz=8.0)
        assert err.value.stage == 3

    @pytest.mark.parametrize("bad_stage", [2, 4])
    def test_non_finite_stage_names_itself_at_its_stage(self, bad_stage):
        # a stage with non-finite values fails at that stage, the last one
        # (4 of 4) included, and names the hypothesis
        class Overflowing(ErmWeakOptimizer):
            stages = 0

            def solve(self, oracle, budget):
                self.stages += 1
                learned = super().solve(oracle, budget)
                if self.stages == bad_stage:
                    return ScaledHypothesis(learned.base, np.inf, name="blowup")
                return learned

        wopt = Overflowing(_constant_hyps([-0.5, 0.9]), 1.0, exact=True)
        with pytest.raises(StageError, match="blowup has non-finite values") as err:
            fit_boosted_hypothesis(_two_point_oracle(), wopt, Interval(-1.0, 1.0),
                                   n_stages=4, gamma=1.0, stage_budget=1,
                                   lipschitz=8.0)
        assert err.value.stage == bad_stage
        assert isinstance(err.value.__cause__, NonFiniteInput)

    def test_stage_oracle_lifts_gradients(self):
        # the lifted linear losses are extension gradients at h_prev(c)
        iv = Interval(-1.0, 1.0)
        oracle = _two_point_oracle()
        delta = default_delta(iv.diameter, 1.0, 1, 8.0)

        captured = {}

        class Capture:
            gamma = 1.0

            def solve(self, stage_oracle, budget):
                captured["support"] = stage_oracle.support()
                return ConstantHypothesis(np.zeros(1))

        fit_boosted_hypothesis(oracle, Capture(), iv, n_stages=1, gamma=1.0,
                               stage_budget=1, lipschitz=8.0)
        for (lin, ctx, p), (loss, ctx0, p0) in zip(captured["support"],
                                                   oracle.support()):
            ext = ExtendedLoss(loss, iv, delta=delta, kappa=8.0)
            np.testing.assert_allclose(lin.direction, ext.grad(np.zeros(1)),
                                       atol=1e-10)
            np.testing.assert_allclose(ctx, ctx0)
            assert p == p0


def _box_oracle(rng, n_atoms=6):
    """Quadratic atoms on 2-D contexts, for a fit on a 3-D box."""
    atoms = [(QuadraticLoss(rng.uniform(-2.0, 2.0, size=3)),
              rng.standard_normal(2)) for _ in range(n_atoms)]
    return FiniteSupportOracle(atoms, probs=rng.dirichlet(np.ones(n_atoms)), seed=0)


class _TanhHypothesis:
    def __init__(self, point, name):
        self.point = point
        self.name = name

    def __call__(self, context):
        return self.point * np.tanh(context[0] + 0.5 * context[1])


def _box_hyps():
    # contextual hypotheses into the box recentred on its centroid
    half = np.array([1.0, 1.0, 0.5])
    return [_TanhHypothesis(half * np.array(v), name=f"h{i}")
            for i, v in enumerate(itertools.product((-1.0, 1.0), repeat=3))]


class _Recorder(ErmWeakOptimizer):
    """ERM that records the stage oracle's lifted losses and its output."""

    def __init__(self, hyps, gamma, exact=True, draws=0):
        super().__init__(hyps, gamma, exact=exact)
        self.draws = draws
        self.lifted, self.learned = [], []

    def solve(self, stage_oracle, budget):
        if self.exact:
            self.lifted.append(stage_oracle.support())
        else:
            self.lifted.append([stage_oracle.draw() for _ in range(self.draws)])
        learned = super().solve(stage_oracle, budget)
        self.learned.append(learned)
        return learned


def _check_lifted(recorder, base_atoms, set_, gamma, lipschitz):
    """Every lifted direction is the extension gradient at the mixture of its
    stage's components, rebuilt here from the recorded stage outputs;
    ``base_atoms[i]`` lists the (loss, context) pairs behind stage i+1."""
    set_c, offset = set_.recenter()
    delta = default_delta(set_.diameter, gamma, len(recorder.learned), lipschitz)
    components = [(1.0, ConstantHypothesis(np.zeros(set_c.dim)))]
    for i, (lifted, atoms) in enumerate(zip(recorder.lifted, base_atoms)):
        assert len(lifted) == len(atoms)
        for (lin, ctx, *_), (loss, ctx0) in zip(lifted, atoms):
            mixture = sum(coef * h(ctx0) for coef, h in components)
            ext = ExtendedLoss(ShiftedLoss(loss, offset), set_c, delta=delta,
                               kappa=lipschitz)
            np.testing.assert_allclose(lin.direction, ext.grad(mixture),
                                       rtol=0, atol=1e-12)
            np.testing.assert_array_equal(ctx, ctx0)
        eta = min(2.0 / (i + 1), 1.0)
        components = [((1.0 - eta) * coef, h) for coef, h in components]
        components.append((eta / gamma, recorder.learned[i]))


class TestStagePoints:
    """The lifted losses of stages 1-6 are taken at the current mixture,
    whether from carried stage points (finite support) or from draws."""

    n_stages = 6
    box = Box([-1.0, -0.5, 0.0], [1.0, 1.5, 1.0])

    def _check_support_fit(self, oracle, hyps, set_, gamma, lipschitz):
        recorder = _Recorder(hyps, gamma)
        fit_boosted_hypothesis(oracle, recorder, set_, n_stages=self.n_stages,
                               gamma=gamma, stage_budget=1, lipschitz=lipschitz)
        support = oracle.support()
        for lifted in recorder.lifted:
            assert [p for *_, p in lifted] == [p for *_, p in support]
        atoms = [(loss, c) for loss, c, _ in support]
        _check_lifted(recorder, [atoms] * self.n_stages, set_, gamma, lipschitz)
        # the mixture moves between stages, so stale points would show
        assert len({h.name for h in recorder.learned}) > 1

    def test_carried_points_two_point_oracle(self):
        self._check_support_fit(_two_point_oracle(),
                                _constant_hyps([-0.5, 0.9]),
                                Interval(-0.8, 1.2), gamma=0.5, lipschitz=10.0)

    def test_carried_points_box_oracle(self, rng):
        self._check_support_fit(_box_oracle(rng), _box_hyps(), self.box,
                                gamma=0.5, lipschitz=20.0)

    def test_sampled_oracle_draws_at_mixture(self, rng):
        base = _box_oracle(rng)
        drawn = []

        def draw():
            drawn.append(base.draw())
            return drawn[-1]

        oracle = CallableSampleOracle(draw)
        recorder = _Recorder(_box_hyps(), 0.5, exact=False, draws=4)
        fitted = fit_boosted_hypothesis(oracle, recorder, self.box,
                                        n_stages=self.n_stages, gamma=0.5,
                                        stage_budget=8, lipschitz=20.0)
        # each stage draws 4 samples for the recorder, then 8 for the ERM
        atoms = [drawn[12 * i:12 * i + 4] for i in range(self.n_stages)]
        _check_lifted(recorder, atoms, self.box, 0.5, 20.0)
        for _, c in drawn:
            assert self.box.contains(fitted(c))

    def test_sampled_erm_on_a_finite_support_draws_at_mixture(self, rng):
        base = _box_oracle(rng)
        drawn = []

        class Recording(FiniteSupportOracle):
            def draw(self):
                drawn.append(super().draw())
                return drawn[-1]

        oracle = Recording(base.atoms, probs=base.probs, seed=1)
        recorder = _Recorder(_box_hyps(), 0.5, exact=False, draws=4)
        fit_boosted_hypothesis(oracle, recorder, self.box, n_stages=self.n_stages,
                               gamma=0.5, stage_budget=8, lipschitz=20.0)
        atoms = [drawn[12 * i:12 * i + 4] for i in range(self.n_stages)]
        _check_lifted(recorder, atoms, self.box, 0.5, 20.0)


def _reference_fit(oracle, hyps, set_, n_stages, gamma, lipschitz):
    """The exact-ERM fit written out the long way: a one-point extension
    gradient per atom, every hypothesis called at every atom at every stage,
    and the risks summed sample by sample. Returns the mixture's components,
    a predictor that calls every component, each stage's (K, d) lifted
    directions and each stage's risks."""
    config = BoosterConfig(n_learners=n_stages, gamma=gamma, lipschitz=lipschitz)
    delta, kappa = config.smoothing(set_.diameter)
    set_c, offset = set_.recenter()
    support = oracle.support()
    exts = [ExtendedLoss(ShiftedLoss(loss, offset), set_c, delta, kappa)
            for loss, _, _ in support]
    points = np.zeros((len(support), set_c.dim))
    components, lifted, risks = [], [], []
    for i in range(1, n_stages + 1):
        eta = min(2.0 / i, 1.0)
        grads = [ext.grad(x) for ext, x in zip(exts, points)]
        lifted.append(np.array(grads))
        totals = np.zeros(len(hyps))
        for g, (_, c, p) in zip(grads, support):
            totals += p * np.array([float(g @ h(c)) for h in hyps])
        risks.append(totals)
        best = int(np.argmin(totals))
        learned = ScaledHypothesis(hyps[best], gamma, name=f"erm[{best}]")
        points = ((1.0 - eta) * points
                  + (eta / gamma) * np.array([learned(c) for _, c, _ in support]))
        components = ([] if eta == 1.0 else
                      [((1.0 - eta) * coef, h) for coef, h in components])
        components.append((eta / gamma, learned))

    def predict(context):
        out = np.zeros(set_c.dim)
        for coef, h in components:
            out += coef * h(context)
        return set_c._project(out) + offset

    return components, predict, lifted, risks


# the fit sums the mixture in the closed form of ``stage_weights``, the
# reference by the recursion: they agree to rounding
ROUNDING = dict(rtol=1e-12, atol=1e-14)


class TestTabulatedFit:
    """The fit tabulates each hypothesis once and lifts all atoms in one
    gradient step per stage. It makes the ERM choices of the fit written out
    above, and its risks, lifted directions and predictions agree with that
    fit's to rounding."""

    box = Box([-1.0, -0.5, 0.0], [1.0, 1.5, 1.0])  # centroid off the origin
    n_stages = 12

    # one hypothesis: its risk still adds the atoms in order
    @pytest.mark.parametrize("seed, n_hyps", [(s, 8) for s in range(5)] + [(0, 1)])
    def test_same_bits_as_reference_fit(self, seed, n_hyps):
        rng = np.random.default_rng(seed)
        oracle = _box_oracle(rng, n_atoms=24)
        hyps = _box_hyps()[:n_hyps]
        risks = []

        class RiskRecorder(_Recorder):
            def solve(self, stage_oracle, budget):
                risks.append(stage_oracle.risks(self.hypotheses))
                return super().solve(stage_oracle, budget)

        recorder = RiskRecorder(hyps, 0.5)
        fitted = fit_boosted_hypothesis(
            oracle, recorder, self.box, n_stages=self.n_stages, gamma=0.5,
            stage_budget=1, lipschitz=20.0)
        components, predict, lifted, expected_risks = _reference_fit(
            oracle, hyps, self.box, self.n_stages, 0.5, 20.0)
        assert [h.name for h in recorder.learned] == \
            [f"erm[{int(np.argmin(r))}]" for r in expected_risks]
        np.testing.assert_allclose(risks, expected_risks, **ROUNDING)
        np.testing.assert_allclose(
            [[lin.direction for lin, _, _ in support] for support in recorder.lifted],
            lifted, **ROUNDING)
        contexts = ([c for _, c, _ in oracle.support()]
                    + list(rng.standard_normal((16, 2))))
        np.testing.assert_allclose([fitted(c) for c in contexts],
                                   [predict(c) for c in contexts], **ROUNDING)
        exported = fitted.to_dict()
        assert exported["offset"] == fitted.offset.tolist()
        assert [s["id"] for s in exported["stages"]] == [h.name for _, h in components]
        np.testing.assert_allclose([s["coef"] for s in exported["stages"]],
                                   [coef for coef, _ in components], **ROUNDING)

    def test_each_hypothesis_called_once_per_atom(self, rng):
        oracle = _box_oracle(rng, n_atoms=10)
        calls = {}

        def counted(h):
            def call(context):
                calls[h.name] = calls.get(h.name, 0) + 1
                return h(context)
            return call

        wopt = ErmWeakOptimizer([counted(h) for h in _box_hyps()], 0.5, exact=True)
        fit_boosted_hypothesis(oracle, wopt, self.box, n_stages=self.n_stages,
                               gamma=0.5, stage_budget=1, lipschitz=20.0)
        assert calls == {h.name: 10 for h in _box_hyps()}

    def test_mixed_atoms_lift_to_one_point_gradients(self, rng):
        centre = np.array([0.3, -0.2, 0.4])
        atoms = [(LinearLoss([1.0, -2.0, 0.5]), rng.standard_normal(2)),
                 (QuadraticLoss([2.0, 0.5, -1.0], weight=0.7), rng.standard_normal(2)),
                 (CallableLoss(lambda x: float(np.sum(np.cosh(x - centre))),
                               lambda x: np.sinh(x - centre), curvature_hint=3.0),
                  rng.standard_normal(2)),
                 (ScaledLoss(LinearLoss([-0.5, 0.1, 1.0]), 2.0), rng.standard_normal(2)),
                 (QuadraticLoss([-1.5, 1.0, 0.2]), rng.standard_normal(2))]
        oracle = FiniteSupportOracle(atoms, probs=rng.dirichlet(np.ones(5)))
        recorder = _Recorder(_box_hyps(), 0.5)
        fitted = fit_boosted_hypothesis(oracle, recorder, self.box,
                                        n_stages=self.n_stages, gamma=0.5,
                                        stage_budget=1, lipschitz=20.0)
        components, predict, lifted, expected_risks = _reference_fit(
            oracle, _box_hyps(), self.box, self.n_stages, 0.5, 20.0)
        assert [h.name for h in recorder.learned] == \
            [f"erm[{int(np.argmin(r))}]" for r in expected_risks]
        for support, directions in zip(recorder.lifted, lifted):
            np.testing.assert_allclose([lin.direction for lin, _, _ in support],
                                       directions, **ROUNDING)
        for _, c in atoms:
            np.testing.assert_allclose(fitted(c), predict(c), **ROUNDING)

    def test_prediction_calls_each_distinct_base_once(self, rng, monkeypatch):
        recorder = _Recorder(_box_hyps(), 0.5)
        fitted = fit_boosted_hypothesis(_box_oracle(rng, n_atoms=10), recorder,
                                        self.box, n_stages=self.n_stages, gamma=0.5,
                                        stage_budget=1, lipschitz=20.0)
        chosen = {h.base.name for h in recorder.learned[1:]}  # stage 0 weighs 0
        assert len(chosen) < self.n_stages - 1  # a base picked at several stages
        assert len(fitted.coefs) == len(fitted.bases) == len(chosen) <= 8
        calls = []
        call = _TanhHypothesis.__call__

        def counted(self, context):
            calls.append(self.name)
            return call(self, context)

        monkeypatch.setattr(_TanhHypothesis, "__call__", counted)
        fitted(rng.standard_normal(2))
        assert sorted(calls) == sorted(chosen)

    def test_fit_leaves_callers_objects_as_they_were(self, rng):
        oracle = _box_oracle(rng)
        wopt = ErmWeakOptimizer(_box_hyps(), 0.5, exact=True)
        before = [{k: id(v) for k, v in vars(o).items()} for o in (oracle, wopt)]
        fit_boosted_hypothesis(oracle, wopt, self.box, n_stages=self.n_stages,
                               gamma=0.5, stage_budget=1, lipschitz=20.0)
        assert [{k: id(v) for k, v in vars(o).items()} for o in (oracle, wopt)] == before


def test_hypothesis_export_is_json_serializable():
    iv = Interval(-1.0, 1.0)
    oracle = _two_point_oracle()
    wopt = ErmWeakOptimizer(_constant_hyps([-0.5, 0.1, 0.9]), gamma=0.5,
                            exact=True)
    fitted = fit_boosted_hypothesis(oracle, wopt, iv, n_stages=3, gamma=0.5,
                                    stage_budget=1, lipschitz=8.0)
    payload = fitted.to_dict()
    text = json.dumps(payload)
    parsed = json.loads(text)
    # eta_1 = eta_2 = 1 drop the initial hypothesis and stage 1
    assert len(parsed["stages"]) == 2
    coefs = [s["coef"] for s in parsed["stages"]]
    assert sum(coefs) == pytest.approx(1.0 / 0.5)


def test_fitted_actions_always_feasible(rng):
    iv = Interval(-0.3, 1.7)
    oracle = _two_point_oracle()
    wopt = ErmWeakOptimizer(_constant_hyps([-0.5, 0.9]), gamma=0.5, exact=True)
    fitted = fit_boosted_hypothesis(oracle, wopt, iv, n_stages=8, gamma=0.5,
                                    stage_budget=1, lipschitz=10.0)
    for _ in range(20):
        assert iv.contains(fitted(rng.standard_normal(1)))
