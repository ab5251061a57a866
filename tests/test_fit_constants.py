"""What a fit or a booster knows at construction is built once: an extension
keeps its quadratic prox constants, a fit whose atoms share one closed form
differentiates its points without a gather or a scatter, a finite oracle
checks its contexts as one array, and a CSV file parses as one array. Each
keeps the bits and the errors of the per-item code it replaces."""

import csv
import math
import re

import numpy as np
import pytest

from ocoboost.bandit import BanditBooster
from ocoboost.bench import data
from ocoboost.booster import BoosterConfig, OnlineBooster, stage_weights
from ocoboost.errors import (ConfigError, DataError, DimensionMismatch,
                             NonFiniteInput, StageError)
from ocoboost.extension import ExtendedLoss, _shrink_toward_projection
from ocoboost.geometry import Ball, Box, Simplex, row_norms
from ocoboost.losses import (CallableLoss, LinearLoss, QuadraticLoss, ScaledLoss,
                             ShiftedLoss)
from ocoboost.statistical import (ErmWeakOptimizer, FiniteSupportOracle,
                                  _StageOracle, fit_boosted_hypothesis)
from ocoboost.weak import ScaledLeaderOracle, UniformBaseline

DELTA, KAPPA = 0.37, 1.3


def _hex(x):
    return [float(v).hex() for v in np.ravel(x)]


# zero offsets (a symmetric box, a ball at the origin) and nonzero ones
SETS = {
    "box0": Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]),
    "box": Box([-1.0, -0.5, 0.0], [1.0, 1.5, 1.0]),
    "ball0": Ball(3, 1.0),
    "ball": Ball(3, 1.5, center=[0.5, -0.5, 0.2]),
    "simplex": Simplex(3),
}


def _quadratic(rng):
    return QuadraticLoss(2.0 * rng.standard_normal(3), weight=rng.uniform(0.3, 2.5))


def _linear(rng):
    return LinearLoss(rng.standard_normal(3))


def _callable(rng):
    centre = rng.standard_normal(3)
    return CallableLoss(lambda x: float(np.sum(np.cosh(x - centre))),
                        lambda x: np.sinh(x - centre), curvature_hint=3.0)


SUPPORTS = {
    "quadratic": [_quadratic] * 7,
    "linear": [_linear] * 7,
    # interleaved, so that each kind owns rows that are not contiguous
    "mixed": [_quadratic, _linear, _callable, _linear, _quadratic, _callable, _quadratic],
}


def _stage_oracle(rng, set_, kinds):
    losses = [make(rng) for make in kinds]
    oracle = FiniteSupportOracle([(loss, rng.standard_normal(2)) for loss in losses])
    set_c, offset = set_.recenter()
    stage = _StageOracle(oracle, stage_weights(4, 0.5), set_c, offset, DELTA, KAPPA)
    # stage points inside and well outside the set
    stage.points = 3.0 * rng.standard_normal(stage.points.shape)
    return stage, losses


def _per_kind(stage):
    """The per-kind gather and scatter over the row indices ``lift`` returns."""
    grads = np.empty_like(stage.points)
    for rows, ext in stage.extensions:
        grads[rows] = ext.grad_with_info(stage.points[rows])[0]
    return grads


class TestStageGradients:
    @pytest.mark.parametrize("support", sorted(SUPPORTS))
    @pytest.mark.parametrize("set_name", sorted(SETS))
    def test_equal_the_per_kind_loop_and_the_one_point_gradients(
            self, rng, set_name, support):
        stage, losses = _stage_oracle(rng, SETS[set_name], SUPPORTS[support])
        assert (len(stage.extensions) == 1) == (support != "mixed")
        grads = stage.gradients()
        assert _hex(grads) == _hex(_per_kind(stage))
        shifted = np.any(stage.offset)
        one_point = [ExtendedLoss(ShiftedLoss(loss, stage.offset) if shifted else loss,
                                  stage.set_c, DELTA, KAPPA).grad(point)
                     for loss, point in zip(losses, stage.points)]
        assert _hex(grads) == _hex(one_point)

    def test_a_non_finite_gradient_is_refused(self, rng):
        stage, _ = _stage_oracle(rng, SETS["box"], SUPPORTS["quadratic"])
        stage.points[3, 1] = np.nan
        with pytest.raises(NonFiniteInput, match="lifted losses"):
            stage.gradients()


class TestQuadraticProx:
    @pytest.mark.parametrize("set_name", sorted(SETS))
    def test_rows_keep_the_expression(self, rng, set_name):
        set_c, _ = SETS[set_name].recenter()
        w = rng.uniform(0.2, 3.0, (6, 1))
        t, x = 2.0 * rng.standard_normal((6, 3)), 3.0 * rng.standard_normal((6, 3))
        y, info = ExtendedLoss((w, t, None), set_c, DELTA, KAPPA)._prox(x)
        a = 2.0 * w + 1.0 / DELTA
        z = (2.0 * w * t + x / DELTA) / a
        assert _hex(y) == _hex(_shrink_toward_projection(set_c, z, KAPPA / a))
        assert info.converged and info.iterations == 0

    @pytest.mark.parametrize("set_name", sorted(SETS))
    def test_a_point_keeps_the_expression(self, rng, set_name):
        set_c, _ = SETS[set_name].recenter()
        w, t, x = 0.7, 2.0 * rng.standard_normal(3), 3.0 * rng.standard_normal(3)
        y, _ = ExtendedLoss(QuadraticLoss(t, weight=w), set_c, DELTA, KAPPA)._prox(x)
        a = 2.0 * w + 1.0 / DELTA
        z = (2.0 * w * t + x / DELTA) / a
        assert _hex(y) == _hex(_shrink_toward_projection(set_c, z, KAPPA / a))


class TestSupportContexts:
    def _contexts(self, contexts):
        oracle = FiniteSupportOracle([(QuadraticLoss([0.0]), c) for c in contexts])
        return [c for _, c in oracle.atoms]

    def test_equal_lengths_are_rows_of_one_array(self, rng):
        given = rng.standard_normal((5, 2))
        rows = self._contexts(list(given))
        assert all(row.base is rows[0].base for row in rows)
        assert _hex(rows) == _hex(given)

    def test_a_0d_context_is_a_vector(self):
        rows = self._contexts([1.0, np.float64(2.5)])
        assert [r.shape for r in rows] == [(1,), (1,)]
        assert [r.tolist() for r in rows] == [[1.0], [2.5]]

    def test_different_lengths_are_accepted(self):
        rows = self._contexts([[1, 2], [3], []])
        assert [r.tolist() for r in rows] == [[1.0, 2.0], [3.0], []]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1e200])
    def test_a_non_finite_context_is_refused(self, bad):
        with pytest.raises(NonFiniteInput, match="^context contains non-finite entries$"):
            self._contexts([[1.0, 2.0], [bad, 1.0]])

    def test_a_ragged_nested_context_is_refused(self):
        with pytest.raises(ValueError, match="inhomogeneous"):
            self._contexts([[[1, 2], [3]], [1]])

    def test_a_2d_context_is_refused(self):
        with pytest.raises(DimensionMismatch, match="context must be a 1-D vector"):
            self._contexts([[[1, 2], [3, 4]], [1]])


class Counted:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, context):
        self.calls += 1
        return self.fn(context)


class TestSampledTotals:
    def test_risks_keep_the_loop_bits(self, rng):
        losses = [QuadraticLoss(rng.standard_normal(1), weight=0.6),
                  ScaledLoss(QuadraticLoss(rng.standard_normal(1)), 1.7),
                  ShiftedLoss(LinearLoss([0.4]), [0.3]), LinearLoss([-1.1])]
        atoms = [(loss, rng.standard_normal(2)) for loss in losses]
        oracle = FiniteSupportOracle(atoms, probs=rng.dirichlet(np.ones(4)))
        # 0-d and (1,) outputs mixed, as a 1-D loss accepts both
        hyps = [Counted(lambda c, s=s: s * c[0]) for s in (-1.0, 0.5)] + \
               [Counted(lambda c, s=s: np.array([s * c[1]])) for s in (2.0,)]
        expected = np.zeros(3)
        for loss, c, p in oracle.support():
            expected += p * np.array([loss.value(h.fn(c)) for h in hyps])
        assert _hex(oracle.risks(hyps)) == _hex(expected)
        assert [h.calls for h in hyps] == [4, 4, 4]

    @pytest.mark.parametrize("name, label", [(None, "1"), ("bad", "bad")])
    def test_exact_erm_names_a_non_finite_hypothesis(self, name, label):
        bad = Counted(lambda c: np.array([np.nan]))
        if name is not None:
            bad.name = name
        oracle = FiniteSupportOracle([(QuadraticLoss([0.5]), [1.0])])
        erm = ErmWeakOptimizer([lambda c: np.zeros(1), bad], 0.5, exact=True)
        with pytest.raises(NonFiniteInput,
                           match=f"^hypothesis {label} contains non-finite entries$"):
            erm.solve(oracle, 1)
        assert bad.calls == 1

    def test_a_sampled_fit_names_a_non_finite_hypothesis(self):
        oracle = FiniteSupportOracle([(QuadraticLoss([0.5, 0.0]), [1.0]),
                                      (QuadraticLoss([-0.5, 0.2]), [2.0])])
        erm = ErmWeakOptimizer([lambda c: np.zeros(2), lambda c: np.array([0.0, np.inf])],
                               0.5)
        with pytest.raises(StageError,
                           match="^stage 1: hypothesis 1 contains non-finite entries$"):
            fit_boosted_hypothesis(oracle, erm, Box([-1, -1], [1, 1]), n_stages=2,
                                   gamma=0.5, stage_budget=3, lipschitz=5.0)

    def test_a_loss_without_dim_takes_outputs_of_any_length(self):
        loss = CallableLoss(lambda x: float(np.sum(x)), lambda x: np.ones_like(x))
        oracle = FiniteSupportOracle([(loss, [1.0]), (ScaledLoss(loss, 2.0), [2.0])])
        hyps = [lambda c: c, lambda c: np.array([c[0], 1.0]), lambda c: 3.0]
        assert oracle.risks(hyps).tolist() == [2.5, 4.0, 4.5]
        hyps[1] = lambda c: np.array([c[0], np.nan])
        with pytest.raises(NonFiniteInput, match="^hypothesis 1 contains non-finite"):
            oracle.risks(hyps)

    def test_a_wrong_length_output_is_named(self):
        oracle = FiniteSupportOracle([(QuadraticLoss([0.5, 0.0]), [1.0])])
        erm = ErmWeakOptimizer([lambda c: np.zeros(3)], 0.5, exact=True)
        with pytest.raises(DimensionMismatch,
                           match="^hypothesis 0 has dimension 3, expected 2$"):
            erm.solve(oracle, 1)


BOX1 = Box([-1.0], [1.0])
SCALARS = {
    "quadratic weight": lambda v: QuadraticLoss([0.0], weight=v),
    "scale factor": lambda v: ScaledLoss(LinearLoss([1.0]), v),
    "delta": lambda v: ExtendedLoss(LinearLoss([1.0]), BOX1, v, 1.0),
    "scale": lambda v: ScaledLeaderOracle([lambda c: np.zeros(1)], 0.5, BOX1, scale=v),
}


@pytest.mark.parametrize("bad", [0, -1, math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(SCALARS))
def test_a_bad_positive_setting_is_refused(name, bad):
    message = f"{name} must be positive and finite, got {bad}"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        SCALARS[name](bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64("nan")])
def test_bandit_feedback_refuses_a_non_finite_loss(bad):
    bandit = BanditBooster(Simplex(3), lambda i, s: UniformBaseline(s, 0.5),
                           BoosterConfig(n_learners=2, gamma=0.5, lipschitz=1.0),
                           explore_rate=0.5)
    bandit.step(np.zeros(1))
    with pytest.raises(NonFiniteInput, match="observed loss is not finite"):
        bandit.feedback(bad)


@pytest.mark.parametrize("n, d", [(1, 1), (5, 2), (64, 3), (17, 8)])
def test_the_largest_row_norm_is_the_root_of_the_largest_square(n, d):
    rng = np.random.default_rng(7 * n + d)
    for _ in range(50):
        grads = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-5, 5, (n, 1))
        assert math.sqrt(np.vecdot(grads, grads).max()).hex() == \
            float(row_norms(grads).max()).hex()


def test_the_booster_records_the_largest_row_norm(rng):
    set_ = SETS["box"]
    booster = OnlineBooster(set_, lambda i, s: UniformBaseline(s, 0.5),
                            BoosterConfig(n_learners=3, gamma=0.5, lipschitz=4.0))
    largest = 0.0
    for _ in range(5):
        _, traj = booster.predict(np.zeros(1))
        loss = QuadraticLoss(3.0 * rng.standard_normal(3), weight=rng.uniform(0.5, 2.0))
        ext = ExtendedLoss(ShiftedLoss(loss, booster.offset), booster.set_c,
                           booster.delta, booster.kappa)
        largest = max(largest, float(row_norms(ext.grad(traj.stages[:-1])).max()))
        booster.update(loss, traj)
    assert booster.max_grad_norm.hex() == largest.hex()


def _cell_loop(path):
    """A headed CSV file read with float() on each cell in turn, checking
    each row's length first and refusing a non-finite cell, then
    standardized as ``ingest`` does."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    names, width = [c.strip() for c in rows[0]], len(rows[0])
    matrix = np.empty((len(rows) - 1, width))
    for i, row in enumerate(rows[1:]):
        if len(row) != width:
            raise DataError(f"{path} line {i + 2}: expected {width} cells, got {len(row)}")
        for j, cell in enumerate(row):
            try:
                matrix[i, j] = float(cell)
            except ValueError:
                raise DataError(f"{path} line {i + 2}: non-numeric cell in column "
                                f"'{names[j]}': {cell!r}") from None
            if not math.isfinite(matrix[i, j]):
                raise DataError(f"{path} line {i + 2}: non-finite cell in column "
                                f"'{names[j]}': {cell!r}")
    ds = data._standardize(matrix[:, :-1], matrix[:, -1], names[:-1], names[-1], str(path))
    ds.validate()
    return ds


def _outcome(read, path):
    """Every field of the dataset ``read`` gives for path, or its error."""
    try:
        ds = read(path)
    except (DataError, RuntimeWarning) as exc:  # inf - inf warns in the mean
        return f"{type(exc).__name__}: {exc}"
    return {key: _hex(value) if isinstance(value, (np.ndarray, float, tuple)) else value
            for key, value in vars(ds).items()}


CELLS = ["1_0", " 2 ", "nan", "-Infinity", "1e400", "١", "\xa05", "0x10", "",
         '"4"', "1 2", "+3.5e-2\t", "oops"]


class TestCsvIngest:
    @pytest.mark.parametrize("cell", CELLS)
    def test_a_cell_reads_as_the_cell_loop_reads_it(self, tmp_path, cell):
        path = tmp_path / "cells.csv"
        path.write_text(f"a,b,y\n1,3,2\n{cell},5,7\n4,6,1\n", encoding="utf-8")
        assert _outcome(data.ingest, path) == _outcome(_cell_loop, path)

    @pytest.mark.parametrize("text, message", [
        ("a,b\n1,2\n3\n", "line 3: expected 2 cells, got 1"),
        ("a,b,y\n1,2\n3,4\n", "line 2: expected 3 cells, got 2"),
        ("a,b\n1,2\n3,oops\n", "line 3: non-numeric cell in column 'b': 'oops'"),
        ("a,b\n1,2\n3,4,x\n", "line 3: expected 2 cells, got 3"),
        ("a,b,c\n1,2,3\n4,,x\n", "line 3: non-numeric cell in column 'b': ''"),
    ])
    def test_a_bad_row_names_its_line(self, tmp_path, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        assert _outcome(data.ingest, path) == f"DataError: {path} {message}"
        assert _outcome(_cell_loop, path) == f"DataError: {path} {message}"

    @pytest.mark.parametrize("cell", ["nan", "inf", "1e400"])
    @pytest.mark.parametrize("header, text, where", [
        ("a,b,y\n", "1,3,2\n4,{},7\n6,5,1\n", "line 3: non-finite cell in column 'b'"),
        ("", "1,3,2\n4,{},7\n6,5,1\n", "line 2: non-finite cell in column 'col1'"),
        ("", "{},3,2\n4,5,7\n6,5,1\n", "line 1: non-finite cell in column 'col0'"),
    ])
    def test_a_non_finite_cell_names_its_line_and_column(self, tmp_path, cell, header,
                                                         text, where):
        path = tmp_path / "cells.csv"
        path.write_text(header + text.format(cell))
        with pytest.raises(DataError) as err:  # before any numpy warning
            data.ingest(path)
        assert str(err.value) == f"{path} {where}: {cell!r}"

    def test_values_are_float_of_each_cell(self, tmp_path, rng):
        raw = rng.standard_normal((20, 4)) * 10.0 ** rng.integers(-20, 20, (20, 4))
        path = tmp_path / "values.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in raw))
        ds = data.ingest(path)
        assert _hex(ds.feature_means) == _hex(raw[:, [0, 1, 2]].mean(axis=0))
        assert _hex(ds.raw_target_range) == _hex([raw[:, 3].min(), raw[:, 3].max()])
