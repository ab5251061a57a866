"""Weak contextual learners with a multiplicative edge.

Every learner maps contexts to members of its (recentered) decision set,
consumes linear losses one round at a time, and is deterministic given its
seed and input sequence. ``gamma`` is a declared configuration input, not
estimated; ``WeakLearner.__init__`` requires it to lie in (0, 1].

The practical learners (stump, ridge, tiny MLP) are online regressors in
the gradient-boosting mold. They share one base, ``_Regressor``, which
checks ``feature_dim`` (an integer >= 1) and ``anchor``. Each regressor
keeps a full-scale internal predictor u
and plays the projection of gamma * u(c). A linear loss with direction g
is read as the gradient of a square loss at a stage point the learner can
reconstruct: the point is 0 for ``anchor="zero"`` (true for the first
ensemble slot, whose stage point is the centroid) and u(c) for
``anchor="self"`` (the ensemble-consensus approximation, exact for a
standalone learner). The implied regression target ``anchor_point - g/2``
drives an online least-squares step. Minimizing the linear objective
directly has no equilibrium, so parameters saturate and the boosted
feedback loop destabilizes; the regression form is self-stabilizing.
``ScaledLeaderOracle`` is the exact-edge learner the test suite uses: it
tracks a finite hypothesis class on the raw linear losses and plays gamma
times the leader (or a hedged mixture). ``bank_for`` runs learners of exactly
one banked type, none with ``predict`` or ``update`` replaced on the instance
and all with one ``_bank_key()``, as that type's ``LeaderBank`` or
``StumpBank``, and any others through a ``LearnerList``, one call at a time.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, ProtocolError, check_gamma, check_positive
from .geometry import DecisionSet, _outputs, as_point
from .losses import LinearLoss


def _loss_vector(loss, dim):
    if isinstance(loss, LinearLoss):
        # already validated at construction; only the dimension can be off
        if loss.direction.shape[0] != dim:
            return as_point(loss.direction, dim, "linear loss")
        return loss.direction
    return as_point(loss, dim, "linear loss")


class WeakLearner:
    """Stateful contextual predictor updated with linear losses, playing
    with the edge ``gamma`` in (0, 1]."""

    feature_dim: int | None = None  # the context size, where one is required

    def __init__(self, set_: DecisionSet, gamma: float = 1.0):
        self.gamma = check_gamma(gamma)
        self.set_ = set_
        self.action_dim = set_.dim
        self.rounds = 0
        self._last_context = None

    def predict(self, context) -> np.ndarray:
        raise NotImplementedError

    def update(self, loss) -> None:
        """Feed the round's linear loss, a ``LinearLoss`` or its direction
        vector (the boosters pass the vector), for the context as copied at
        the ``predict``; a second update needs a new predict."""
        g = _loss_vector(loss, self.action_dim)
        if self._last_context is None:
            raise ProtocolError("update without a preceding predict")
        self._apply_update(self._last_context, g)
        self._last_context = None
        self.rounds += 1

    def _apply_update(self, context, g):
        raise NotImplementedError

    def _remember(self, context):
        self._last_context = None  # a rejected context leaves no round
        self._last_context = as_point(context, self.feature_dim, "context").copy()
        return self._last_context


class UniformBaseline(WeakLearner):
    """Plays the set centroid regardless of context (the uniform-guess action)."""

    def predict(self, context) -> np.ndarray:
        self._remember(context)
        return self.set_.centroid

    def _apply_update(self, context, g):
        pass


class ScaledLeaderOracle(WeakLearner):
    """Exact-edge learner over a finite hypothesis class.

    Tracks the cumulative linear loss of each hypothesis and plays
    gamma * h_leader(context). ``mode="ftl"`` follows the leader outright
    (ties break to the lowest index); ``mode="hedge"`` plays gamma times the
    exponentially-weighted mixture, with per-round losses normalized by
    ``scale`` (a bound on |g . h(c)|), giving the standard
    O(sqrt(T log |H|)) regret on the normalized losses.
    """

    def __init__(self, hypotheses, gamma: float, set_: DecisionSet,
                 mode: str = "ftl", scale: float = 1.0):
        super().__init__(set_, gamma)
        if not hypotheses:
            raise ConfigError("need at least one hypothesis")
        if mode not in ("ftl", "hedge"):
            raise ConfigError(f"unknown oracle mode '{mode}'")
        self.scale = check_positive("scale", scale)
        self.hypotheses = list(hypotheses)
        self.mode = mode
        self.cum_losses = np.zeros(len(self.hypotheses))
        self._last_actions = None

    def predict(self, context) -> np.ndarray:
        c = self._remember(context)
        self._last_context = None  # kept once every hypothesis has played
        self._last_actions = _outputs(self.hypotheses, context, self.action_dim)
        self._last_context = c
        return _leader_plays(self.cum_losses[None], self._last_actions, self.gamma,
                             self.mode, self.scale, self.rounds)[0]

    def _apply_update(self, context, g):
        _add_leader_losses(self.cum_losses[None], self._last_actions, g[None])
        self._last_actions = None

    def _bank_key(self):
        return (self.hypotheses, self.gamma, self.mode, self.scale, self.rounds)


def _leader_plays(cum, actions, gamma, mode, scale, rounds) -> np.ndarray:
    """The (n, d) plays of n leader oracles with cumulative losses ``cum``
    (n, J), whose hypotheses' actions this round are the rows of
    ``actions`` (J, d): gamma times each row's leader or hedged mixture."""
    if mode == "ftl":
        return gamma * actions[cum.argmin(axis=1)]
    eta = np.sqrt(8.0 * np.log(len(actions)) / (rounds + 1))
    z = -eta * cum / (2.0 * scale)
    z -= z.max(axis=1, keepdims=True)
    w = np.exp(z)
    w /= w.sum(axis=1, keepdims=True)
    return gamma * (w[:, None, :] @ actions[None])[:, 0, :]


def _add_leader_losses(cum, actions, G) -> None:
    """``cum[i] += actions @ G[i]`` for every row i, in place. The stacked
    matmul sums each row as the one-row product does; ``einsum``,
    ``G @ actions.T`` and ``vecdot`` can differ in the last bit, which
    flips exact FTL ties."""
    cum += (actions[None] @ G[:, :, None])[..., 0]


class _Bank:
    """N learners of one kind run as one. Each ``_ROWS`` name is an (N, ...)
    table whose row i is learner i's own array. A round is the kind's
    ``_play(context) -> (round, plays)``, then its ``_feed(round, G)``; a
    rejected play leaves no round, and a fed one advances every ``rounds``."""

    def __init__(self, learners):
        self.learners = learners
        for name in self._ROWS:
            setattr(self, name, np.array([getattr(learner, name) for learner in learners]))
            for learner, row in zip(learners, getattr(self, name)):
                setattr(learner, name, row)
        self._round = None

    def predict_all(self, context) -> np.ndarray:
        self._round = None  # a rejected play leaves no round
        self._round, plays = self._play(context)
        return plays

    def update_all(self, G) -> None:
        """Feed row i of the (N, d) gradients to learner i."""
        if self._round is None:
            raise ProtocolError("update without a preceding predict")
        self._feed(self._round, G)
        self._round = None
        for learner in self.learners:
            learner.rounds += 1


class LeaderBank(_Bank):
    """N ``ScaledLeaderOracle``s with one ``_bank_key()``, run as one (N, J)
    table of cumulative losses. A round calls each hypothesis once, then
    plays and adds every learner's loss as one array step each, with the
    bits of the learners' own ``predict`` and ``update``."""

    _ROWS = ("cum_losses",)

    def __init__(self, learners):
        super().__init__(learners)
        self.hypotheses, self.gamma, self.mode, self.scale, _ = learners[0]._bank_key()

    def _play(self, context):
        actions = _outputs(self.hypotheses, context, self.learners[0].action_dim)
        return actions, _leader_plays(self.cum_losses, actions, self.gamma, self.mode,
                                      self.scale, self.learners[0].rounds)

    def _feed(self, actions, G):
        _add_leader_losses(self.cum_losses, actions, G)


class LearnerList:
    """Any weak learners behind the bank interface, called one at a time."""

    def __init__(self, learners, dim: int):
        self.learners = learners
        self.dim = dim

    def predict_all(self, context) -> np.ndarray:
        plays = np.empty((len(self.learners), self.dim))
        for i, learner in enumerate(self.learners):
            plays[i] = learner.predict(context)
        return plays

    def update_all(self, G) -> None:
        for learner, g in zip(self.learners, G):
            learner.update(g)


STUMP_BINS = 16  # quantile bins per feature of DecisionStump
STUMP_WARMUP = 50  # rounds DecisionStump buffers before it sets its bins
RIDGE_L2 = 1e-4  # l2 penalty of OnlineRidge
MLP_HIDDEN = 1  # hidden units of TinyMlp
STEP_POWER = 0.25  # OnlineRidge and TinyMlp step at round t: step / t^STEP_POWER


class _Regressor(WeakLearner):
    """The settings the online regressors share: the context size, an
    integer >= 1, and the ``anchor`` of their implied regression target."""

    def __init__(self, feature_dim: int, set_: DecisionSet, gamma: float,
                 anchor: str):
        super().__init__(set_, gamma)
        if not isinstance(feature_dim, (int, np.integer)) or feature_dim < 1:
            raise ConfigError(f"feature_dim={feature_dim} is not an integer >= 1")
        if anchor not in ("self", "zero"):
            raise ConfigError(f"unknown anchor '{anchor}'")
        self.feature_dim = int(feature_dim)
        self.anchor = anchor


class _StumpWarmup:
    """The warm-up of a ``DecisionStump`` and of a ``StumpBank``: buffer the
    first ``STUMP_WARMUP`` (context, loss) pairs, the contexts as copied at
    play, set the bin edges from them, then ``_credit`` the pairs in order."""

    def _apply_update(self, context, g):
        if self.edges is not None:
            return self._credit(context, g)
        self._buffer.append((context, g.copy()))
        if len(self._buffer) >= STUMP_WARMUP:
            self._finish_warmup()

    def _finish_warmup(self):
        data = np.stack([c for c, _ in self._buffer])
        qs = np.arange(1, STUMP_BINS) / STUMP_BINS
        self.edges = np.quantile(data, qs, axis=0).T
        for c, g in self._buffer:
            self._credit(c, g)
        self._buffer = []


class DecisionStump(_StumpWarmup, _Regressor):
    """Single-feature threshold predictor over quantile bins.

    Thresholds come from a warm-up buffer of ``STUMP_WARMUP`` rounds: the
    ``STUMP_BINS - 1`` quantile bin edges of each feature, one row of
    ``edges`` per feature. After warm-up each (feature, bin) cell holds a
    leaf action; the feature to split on follows the leader by accumulated
    realized linear loss. During warm-up the stump plays the centroid.

    Each cell's internal leaf is the running mean of the targets implied by
    its linear losses, and the stump plays the projection of gamma times
    that leaf. It plays and credits as the one-row case of ``StumpBank``.
    """

    def __init__(self, feature_dim: int, set_: DecisionSet, gamma: float = 1.0,
                 anchor: str = "self"):
        super().__init__(feature_dim, set_, gamma, anchor)
        self._buffer = []
        self.edges = None
        self._self_anchor = np.full((1, 1, 1), self.anchor == "self")
        self._offsets = np.arange(self.feature_dim)[None] * STUMP_BINS
        self.counts = np.zeros((self.feature_dim, STUMP_BINS), dtype=np.int64)
        self.leaves = np.zeros((self.feature_dim, STUMP_BINS, self.action_dim))
        self.feat_loss = np.zeros(self.feature_dim)

    def predict(self, context) -> np.ndarray:
        c = self._remember(context)
        if self.edges is None:
            return self.set_.centroid
        return _stump_plays(self.set_, self.gamma, self.leaves[None],
                            self.feat_loss[None], 0, _bins(self.edges, c))[0]

    def _credit(self, context, g):
        _credit_stumps(self.set_, self.gamma, self._self_anchor, self.leaves[None],
                       self.counts[None], self.feat_loss[None],
                       self._offsets + _bins(self.edges, context), g[None])

    def _bank_key(self):
        # a stump that has played holds its own warm-up buffer
        return None if self.rounds else (self.feature_dim, self.gamma, self.set_)


def _bins(edges, c) -> np.ndarray:
    """Each feature's bin of ``c``: its edges <= c, as ``searchsorted(side="right")``."""
    return (edges <= c[:, None]).sum(axis=1)


def _stump_plays(set_, gamma, leaves, feat_loss, rows, bins) -> np.ndarray:
    """The (n, d) plays of n stumps with (n, F, B, d) ``leaves`` and (n, F)
    feature losses at a context in (F,) ``bins``: gamma times the leaf of
    the leading feature of each of ``rows`` (``arange(n)``, or 0 for one), projected."""
    j = feat_loss.argmin(axis=1)
    return set_._project(gamma * leaves[rows, j, bins[j]])


def _credit_stumps(set_, gamma, self_anchor, leaves, counts, feat_loss, cells,
                   G) -> None:
    """Feed stump i of (n, F, B, d) ``leaves``, (n, F, B) ``counts`` and (n, F)
    ``feat_loss`` the loss ``G[i]``, in place: the cell played in each feature,
    at its flat index in the (n, F) ``cells``, adds its play's linear loss to
    the feature's and moves its leaf to the running mean of the targets
    ``anchor - G[i] / 2``, anchored at the leaf where the (n, 1, 1) ``self_anchor``
    holds, else 0. The tables must be contiguous: a flat copy loses the scatter."""
    leaves, counts = leaves.reshape(-1, G.shape[1]), counts.reshape(-1)
    L = leaves[cells]  # (n, F, d)
    feat_loss += np.vecdot(set_._project(gamma * L.reshape(cells.size, -1)).reshape(L.shape),
                           G[:, None])
    k = counts[cells] + 1
    counts[cells] = k
    target = np.where(self_anchor, L, 0.0) - 0.5 * G[:, None]
    leaves[cells] = L + (target - L) / k[..., None]


class StumpBank(_StumpWarmup, _Bank):
    """N ``DecisionStump``s with one ``_bank_key()``, run as (N, F, B, d)
    leaves, (N, F, B) counts and (N, F) feature losses that share one
    warm-up buffer, one set of edges and each round's bins, counted once to
    play and credited at cell offsets built at construction: one array step
    each, with the learners' bits."""

    _ROWS = ("leaves", "counts", "feat_loss")

    def __init__(self, learners):
        super().__init__(learners)
        self.feature_dim, self.gamma, self.set_ = learners[0]._bank_key()
        self._self_anchor = np.concatenate([learner._self_anchor for learner in learners])
        self.self_anchor = self._self_anchor.ravel()
        self._rows, self._buffer, self.edges = np.arange(len(learners)), [], None
        self._offsets = self._rows[:, None] * learners[0].counts.size + learners[0]._offsets

    def _play(self, context):  # the round: its bins, or in warm-up its context's copy
        c = as_point(context, self.feature_dim, "context")
        if self.edges is None:
            return c.copy(), np.full((len(self.learners), self.set_.dim), self.set_.centroid)
        bins = _bins(self.edges, c)
        return bins, _stump_plays(self.set_, self.gamma, self.leaves, self.feat_loss,
                                  self._rows, bins)

    def _feed(self, played, G):
        if self.edges is None:
            return self._apply_update(played, G)
        _credit_stumps(self.set_, self.gamma, self._self_anchor, self.leaves, self.counts,
                       self.feat_loss, self._offsets + played, G)

    def _finish_warmup(self):
        super()._finish_warmup()
        for learner in self.learners:
            learner.edges = self.edges

    def _credit(self, c, G):  # a context buffered in warm-up
        self._feed(_bins(self.edges, c), G)


_BANKS = {ScaledLeaderOracle: LeaderBank, DecisionStump: StumpBank}


def bank_for(learners, dim: int):
    """The one object a booster's round drives its learners through: the
    ``_BANKS`` entry of the first learner's type if every learner is exactly
    that type, with neither ``predict`` nor ``update`` replaced on the
    instance (as a tracer does) and the first one's ``_bank_key()``, not
    None; else a ``LearnerList``."""
    kind = type(learners[0])
    key = learners[0]._bank_key() if kind in _BANKS else None
    if key is not None and all(
            type(learner) is kind and learner._bank_key() == key
            and vars(learner).keys().isdisjoint(("predict", "update"))
            for learner in learners):
        return _BANKS[kind](learners)
    return LearnerList(learners, dim)


class OnlineRidge(_Regressor):
    """Linear model fit online to the targets implied by its linear losses,
    with the l2 penalty ``RIDGE_L2`` and the inverse-scaling step schedule
    step / t^``STEP_POWER``."""

    def __init__(self, feature_dim: int, set_: DecisionSet, gamma: float = 1.0,
                 step: float = 0.01, anchor: str = "self"):
        super().__init__(feature_dim, set_, gamma, anchor)
        self.step = check_positive("step", step)
        self.weights = np.zeros((self.action_dim, self.feature_dim))
        self.bias = np.zeros(self.action_dim)

    def _raw(self, c):
        return self.weights @ c + self.bias

    def predict(self, context) -> np.ndarray:
        c = self._remember(context)
        return self.set_._project(self.gamma * self._raw(c))

    def _apply_update(self, context, g):
        # err = raw - implied target; with anchor "self" the raw cancels
        err = 0.5 * g if self.anchor == "self" else self._raw(context) + 0.5 * g
        lr = self.step / (self.rounds + 1) ** STEP_POWER
        self.weights -= lr * (np.outer(err, context) + RIDGE_L2 * self.weights)
        self.bias -= lr * (err + RIDGE_L2 * self.bias)


class TinyMlp(_Regressor):
    """One-hidden-unit tanh network fit online to the targets implied by
    its linear losses, with the same inverse-scaling step schedule as the
    ridge learner."""

    def __init__(self, feature_dim: int, set_: DecisionSet, gamma: float = 1.0,
                 step: float = 0.01, seed: int = 0, anchor: str = "self"):
        super().__init__(feature_dim, set_, gamma, anchor)
        self.step = check_positive("step", step)
        self.seed = int(seed)
        rng = np.random.default_rng(self.seed)
        self.w1 = 0.1 * rng.standard_normal((MLP_HIDDEN, self.feature_dim))
        self.b1 = np.zeros(MLP_HIDDEN)
        self.w2 = 0.1 * rng.standard_normal((self.action_dim, MLP_HIDDEN))
        self.b2 = np.zeros(self.action_dim)
        self._cache = None

    def _forward(self, c):
        z = np.tanh(self.w1 @ c + self.b1)
        return z, self.w2 @ z + self.b2

    def predict(self, context) -> np.ndarray:
        c = self._remember(context)
        z, raw = self._forward(c)
        self._cache = z
        return self.set_._project(self.gamma * raw)

    def _apply_update(self, context, g):
        z = self._cache
        err = 0.5 * g if self.anchor == "self" else (self.w2 @ z + self.b2) + 0.5 * g
        lr = self.step / (self.rounds + 1) ** STEP_POWER
        gz = (self.w2.T @ err) * (1.0 - z * z)
        self.w2 -= lr * np.outer(err, z)
        self.b2 -= lr * err
        self.w1 -= lr * np.outer(gz, context)
        self.b1 -= lr * gz
        self._cache = None


def empirical_gamma_regret(learner: WeakLearner, transcript, hypotheses) -> float:
    """Drive a fresh learner through (context, linear loss) pairs and return
    its cumulative loss minus gamma times the best comparator's."""
    if not transcript:
        raise ConfigError("transcript is empty")
    if not hypotheses:
        raise ConfigError("need a comparator class")
    if learner._last_context is not None or learner.rounds > 0:
        raise ConfigError("empirical_gamma_regret needs a learner that has "
                          "not played yet")
    total = 0.0
    comparator = np.zeros(len(hypotheses))
    for context, loss in transcript:
        g = _loss_vector(loss, learner.action_dim)
        played = learner.predict(context)
        total += float(g @ played)
        comparator += np.vecdot(_outputs(hypotheses, context, learner.action_dim), g)
        learner.update(loss)
    return total - learner.gamma * float(comparator.min())

