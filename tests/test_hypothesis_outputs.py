"""A hypothesis is a caller's function, so its outputs are checked where the
library reads them: the fitted mixture's prediction, the fit's table of
values at the atom contexts, and the leader learners' actions. Each site
calls a hypothesis once per context and checks the outputs as one array; a
bad output raises the error ``as_point`` raises for it, naming the
hypothesis, and is never called for again."""

import numpy as np
import pytest

from ocoboost.booster import BoosterConfig, OnlineBooster
from ocoboost.errors import DimensionMismatch, NonFiniteInput, ProtocolError, StageError
from ocoboost import geometry
from ocoboost.geometry import Ball, Box, as_point
from ocoboost.losses import (CallableLoss, LinearLoss, QuadraticLoss, ScaledLoss,
                             ShiftedLoss)
from ocoboost.statistical import (BoostedHypothesis, ErmWeakOptimizer,
                                  FiniteSupportOracle, ScaledHypothesis,
                                  fit_boosted_hypothesis)
from ocoboost.weak import (LeaderBank, LearnerList, ScaledLeaderOracle,
                           WeakLearner, empirical_gamma_regret)


class Counted:
    """A hypothesis that counts its calls and returns ``fn(context)``."""

    def __init__(self, fn, name=None):
        self.fn, self.calls = fn, 0
        if name is not None:
            self.name = name

    def __call__(self, context):
        self.calls += 1
        return self.fn(context)


def _hex(x):
    return [v.hex() for v in np.asarray(x, dtype=np.float64).ravel().tolist()]


def _loop_raw(mixture, context):
    """The mixture's sum as a loop from zero, one checked base at a time."""
    out = np.zeros(mixture.set_c.dim)
    for coef, base in zip(mixture.coefs, mixture.bases):
        out += coef * as_point(base(context), mixture.set_c.dim)
    return out


def _mixture(bases, weights, dim):
    set_c = Box(-np.ones(dim), np.ones(dim))
    return BoostedHypothesis(bases, weights, set_c, np.zeros(dim))


def _linear_bases(rng, n, dim, scalar=False):
    """Bases c -> W c with random W; 0-d outputs when ``scalar``."""
    mats = [rng.standard_normal((dim, 2)) * 10.0 ** rng.integers(-3, 4) for _ in range(n)]
    if scalar:
        return [lambda c, w=w: (w @ c)[0] for w in mats]
    return [lambda c, w=w: w @ c for w in mats]


class TestMixture:
    @pytest.mark.parametrize("dim, scalar", [(1, False), (1, True), (3, False)])
    def test_raw_has_the_bits_of_the_loop(self, rng, dim, scalar):
        for _ in range(50):
            bases = _linear_bases(rng, int(rng.integers(1, 9)), dim, scalar)
            # stages repeat bases, through a ScaledHypothesis or directly
            stages = [ScaledHypothesis(b, rng.uniform(0.1, 1.0)) if rng.random() < 0.5
                      else b for b in bases for _ in range(int(rng.integers(1, 3)))]
            weights = rng.standard_normal(len(stages)) * (rng.random(len(stages)) < 0.8)
            mixture = _mixture(stages, weights, dim)
            for context in rng.standard_normal((5, 2)):
                assert _hex(mixture.raw(context)) == _hex(_loop_raw(mixture, context))

    def test_an_all_negative_zero_sum_keeps_its_sign(self):
        # the loop starts from +0.0, so it never ends at -0.0; the running sum
        # starts from the first term, so a column of -0.0 terms stays -0.0
        # (column 0) and one +0.0 term makes it +0.0 (column 1). Shifted by
        # the offset +0.0, the prediction is +0.0 in both.
        mixture = _mixture([lambda c: np.array([-0.0, 0.0, 1.0]),
                            lambda c: np.array([0.0, 0.0, 2.0])], [1.0, -1.0], 3)
        raw, loop = mixture.raw(np.zeros(2)), _loop_raw(mixture, np.zeros(2))
        minus_one = (-1.0).hex()
        assert _hex(raw) == ["-0x0.0p+0", "0x0.0p+0", minus_one]
        assert _hex(loop) == ["0x0.0p+0", "0x0.0p+0", minus_one]
        assert _hex(mixture(np.zeros(2))) == ["0x0.0p+0", "0x0.0p+0", minus_one]

    def test_an_empty_mixture_is_zero(self):
        assert _hex(_mixture([lambda c: np.ones(2)], [0.0], 2).raw(None)) == \
            _hex(np.zeros(2))

    @pytest.mark.parametrize("name, label", [("bad", "hypothesis bad"),
                                             (None, "hypothesis 1")])
    def test_a_non_finite_base_is_named(self, name, label):
        good = Counted(lambda c: np.zeros(3))
        bad = Counted(lambda c: np.array([0.0, np.nan, 0.0]), name)
        mixture = _mixture([good, bad], [0.5, 0.5], 3)
        with pytest.raises(NonFiniteInput, match=f"^{label} contains non-finite"):
            mixture(np.zeros(2))
        assert good.calls == bad.calls == 1  # the error path calls nothing again

    @pytest.mark.parametrize("dim, outputs", [
        (3, [np.zeros(3), np.zeros((3, 1))]),
        (3, [np.zeros((3, 1)), np.zeros((3, 1))]),
        (3, [np.zeros(3), np.zeros(2)]),  # ragged
        (3, [np.zeros(4), np.zeros(4)]),
        (3, [np.zeros(3), 0.0]),
        (1, [np.zeros((1, 1)), np.zeros((1, 1))]),
        (1, [0.0, np.zeros(2)]),
    ])
    def test_a_wrong_shaped_base_is_refused(self, dim, outputs):
        bases = [Counted(lambda c, out=out: out) for out in outputs]
        with pytest.raises(DimensionMismatch, match="^hypothesis"):
            _mixture(bases, [0.5, 0.5], dim).raw(np.zeros(2))
        assert [b.calls for b in bases] == [1, 1]

    def test_mixed_scalar_and_vector_outputs_pass_when_dim_is_one(self):
        mixture = _mixture([lambda c: 0.25, lambda c: np.array([0.5])], [1.0, 2.0], 1)
        assert _hex(mixture.raw(np.zeros(2))) == _hex(_loop_raw(mixture, np.zeros(2)))

    def test_each_base_is_called_once_per_prediction(self, rng):
        bases = [Counted(fn) for fn in _linear_bases(rng, 4, 3)]
        stages = bases + [ScaledHypothesis(bases[0], 0.5), bases[2]]
        mixture = _mixture(stages, rng.uniform(0.1, 1.0, len(stages)), 3)
        for k, context in enumerate(rng.standard_normal((7, 2)), start=1):
            mixture(context)
            assert [b.calls for b in bases] == [k] * 4


def _atoms_oracle(rng, n_atoms):
    atoms = [(QuadraticLoss(t), c) for t, c in
             zip(rng.uniform(-1.0, 1.0, (n_atoms, 2)), rng.standard_normal((n_atoms, 2)))]
    return FiniteSupportOracle(atoms, probs=rng.dirichlet(np.ones(n_atoms)))


def _corners(fn=lambda p, c: p):
    corners = [np.array([x, y]) for x in (-1.0, 1.0) for y in (-1.0, 1.0)]
    return [Counted(lambda c, p=p: fn(p, c)) for p in corners]


class TestFit:
    def test_each_hypothesis_is_called_once_per_atom_per_fit(self, rng):
        hyps = _corners()
        fit_boosted_hypothesis(_atoms_oracle(rng, 6),
                               ErmWeakOptimizer(hyps, 0.5, exact=True),
                               Box([-1.0, -1.0], [1.0, 1.0]), n_stages=8, gamma=0.5,
                               stage_budget=1, lipschitz=8.0)
        assert [h.calls for h in hyps] == [6] * 4

    def test_a_non_finite_value_at_one_atom_fails_the_first_stage(self, rng):
        oracle = _atoms_oracle(rng, 6)
        bad_context = oracle.atoms[3][1]
        hyps = _corners(lambda p, c: np.full(2, np.nan) if np.array_equal(c, bad_context)
                        and p[0] > 0 > p[1] else p)
        with pytest.raises(StageError, match="^stage 1: hypothesis 2 at atom 3 "
                                             "contains non-finite") as err:
            fit_boosted_hypothesis(oracle, ErmWeakOptimizer(hyps, 0.5, exact=True),
                                   Box([-1.0, -1.0], [1.0, 1.0]), n_stages=4,
                                   gamma=0.5, stage_budget=1, lipschitz=8.0)
        assert err.value.stage == 1
        assert isinstance(err.value.__cause__, NonFiniteInput)
        assert [h.calls for h in hyps] == [6, 6, 6, 0]


BALL = Ball(2, 1.0)
LOSS = LinearLoss([-1.0, 0.5])


def _leader_hyps(bad):
    """Two hypotheses; hypothesis ``bad`` returns NaN at the context [9.0].
    Under ``LOSS`` hypothesis 0 leads: it is played first, then loses less."""
    points = [np.array([0.6, 0.0]), np.array([-0.6, 0.0])]
    return [Counted(lambda c, j=j, p=p: np.full(2, np.nan) if j == bad and c[0] == 9.0
                    else p) for j, p in enumerate(points)]


def _banked(hyps, mode="ftl"):
    booster = OnlineBooster(BALL, lambda i, s: ScaledLeaderOracle(hyps, 0.5, s, mode=mode),
                            BoosterConfig(n_learners=3, gamma=0.5, lipschitz=4.0))
    assert isinstance(booster.bank, LeaderBank)
    return booster


class TestLeaders:
    @pytest.mark.parametrize("bad", [0, 1], ids=["leader", "non-leader"])
    @pytest.mark.parametrize("mode", ["ftl", "hedge"])
    def test_banked_non_finite_hypothesis_is_named(self, bad, mode):
        hyps = _leader_hyps(bad)
        booster = _banked(hyps, mode)
        for _ in range(2):
            booster.update(LOSS, booster.predict([0.0])[1])
        cum, traj = booster.bank.cum_losses.copy(), booster.predict([0.0])[1]
        assert np.all(cum.argmin(axis=1) == 0)
        with pytest.raises(NonFiniteInput, match=f"^hypothesis {bad} contains non-finite"):
            booster.predict([9.0])
        # the failed predict leaves no round: no update, no loss taken
        assert [h.calls for h in hyps] == [4, 4]
        with pytest.raises(ProtocolError):
            booster.update(LOSS, traj)
        with pytest.raises(ProtocolError):
            booster.bank.update_all(np.ones((3, 2)))
        assert booster.rounds_done == 2
        np.testing.assert_array_equal(booster.bank.cum_losses, cum)
        assert [learner.rounds for learner in booster.learners] == [2, 2, 2]
        booster.update(LOSS, booster.predict([0.0])[1])
        assert np.all(np.isfinite(booster.bank.cum_losses))

    @pytest.mark.parametrize("bad", [0, 1], ids=["leader", "non-leader"])
    def test_lone_non_finite_hypothesis_is_named(self, bad):
        hyps = _leader_hyps(bad)
        oracle = ScaledLeaderOracle(hyps, 0.5, BALL)
        oracle.predict([0.0])
        oracle.update(LOSS)
        cum = oracle.cum_losses.copy()
        assert cum.argmin() == 0
        with pytest.raises(NonFiniteInput, match=f"^hypothesis {bad} contains non-finite"):
            oracle.predict([9.0])
        with pytest.raises(ProtocolError):
            oracle.update(LOSS)
        assert oracle.rounds == 1
        np.testing.assert_array_equal(oracle.cum_losses, cum)

    def test_a_wrong_shaped_action_is_refused(self):
        hyps = [lambda c: np.zeros(2), lambda c: np.zeros(3)]
        with pytest.raises(DimensionMismatch, match="^hypothesis 1 has dimension 3"):
            _banked(hyps).predict([0.0])
        with pytest.raises(DimensionMismatch, match="^hypothesis 1 has dimension 3"):
            ScaledLeaderOracle(hyps, 0.5, BALL).predict([0.0])

    def test_the_comparator_class_is_checked(self):
        transcript = [(np.zeros(1), LinearLoss([1.0, 0.0]))]
        with pytest.raises(NonFiniteInput, match="^hypothesis 1 contains non-finite"):
            empirical_gamma_regret(ScaledLeaderOracle([lambda c: np.zeros(2)], 0.5, BALL),
                                   transcript, [lambda c: np.zeros(2),
                                                lambda c: np.full(2, np.inf)])


class NonFinitePlayer(WeakLearner):
    def predict(self, context):
        self._remember(context)
        return np.full(self.action_dim, np.nan)

    def _apply_update(self, context, g):
        pass


def test_a_learners_non_finite_play_names_the_learner():
    # learners that are run one at a time are checked by the booster
    booster = OnlineBooster(
        BALL, lambda i, s: (NonFinitePlayer(s) if i == 1
                            else ScaledLeaderOracle([lambda c: np.zeros(2)], 0.5, s)),
        BoosterConfig(n_learners=3, gamma=0.5, lipschitz=4.0))
    assert isinstance(booster.bank, LearnerList)
    with pytest.raises(NonFiniteInput, match="^learner 1 played a non-finite point"):
        booster.predict([0.0])


class TestWrapperLosses:
    """A shifted or scaled loss has a ``dim``, so the sampled risks check the
    outputs at each sample as one stack, also when they are floats."""

    def test_a_wrapper_has_the_dim_of_its_offset_or_base(self):
        assert ShiftedLoss(LinearLoss([1.0, 2.0, 3.0]), [0.0, 1.0, 2.0]).dim == 3
        assert ScaledLoss(QuadraticLoss([1.0, 2.0]), 2.0).dim == 2
        assert ScaledLoss(ShiftedLoss(QuadraticLoss([1.0]), [0.5]), 2.0).dim == 1
        assert ScaledLoss(CallableLoss(lambda x: 0.0, lambda x: x), 2.0).dim is None

    def test_float_outputs_of_scaled_atoms_are_checked_as_one_stack(
            self, rng, monkeypatch):
        targets = rng.standard_normal(16)
        oracle = FiniteSupportOracle(
            [(ScaledLoss(QuadraticLoss([t]), 2.0), np.array([t])) for t in targets])
        hyps = [lambda c, a=a: float(a * c[0]) for a in rng.standard_normal(8)]
        reference = np.zeros(8)  # each float as a (1,) point, one sample at a time
        for loss, c, w in oracle.support():
            reference += w * np.array([loss.value(np.array([h(c)])) for h in hyps])
        calls = []
        checked = geometry.as_point
        monkeypatch.setattr(geometry, "as_point",
                            lambda *args: calls.append(args) or checked(*args))
        risks = oracle.risks(hyps)
        assert len(calls) == 0
        assert _hex(risks) == _hex(reference)

    @pytest.mark.parametrize("output, error", [
        (np.zeros(2), DimensionMismatch), (np.nan, NonFiniteInput),
        (np.array([np.inf]), NonFiniteInput)])
    def test_a_bad_output_raises_as_before(self, output, error):
        oracle = FiniteSupportOracle([(ScaledLoss(QuadraticLoss([0.5]), 2.0),
                                       np.array([0.5]))])
        with pytest.raises(error):
            oracle.risks([lambda c: np.ones(1), lambda c: output])
