"""Boosting weak contextual learners into strong ensembles for online
convex optimization, bandit linear optimization, and stochastic contextual
optimization."""

from .bandit import BanditBooster, default_explore_rate, verify_simplex_containment
from .booster import BoosterConfig, OnlineBooster, RoundTrajectory
from .errors import (ConfigError, DataError, DimensionMismatch, NonFiniteInput,
                     OcoBoostError, ProtocolError, StageError)
from .extension import ExtendedLoss, ProxInfo, default_delta, prox
from .geometry import (Ball, Box, CustomSet, DecisionSet, Interval, MEMBERSHIP_TOL,
                       ShiftedSet, Simplex, as_point)
from .losses import (CallableLoss, ConvexLoss, LinearLoss, QuadraticLoss,
                     ScaledLoss, ShiftedLoss, lipschitz_bound)
from .statistical import (BoostedHypothesis, CallableSampleOracle,
                          ConstantHypothesis, ErmWeakOptimizer,
                          FiniteSupportOracle, SampleOracle, ScaledHypothesis,
                          exact_population_loss, fit_boosted_hypothesis)
from .weak import (DecisionStump, OnlineRidge, ScaledLeaderOracle, TinyMlp,
                   UniformBaseline, WeakLearner, empirical_gamma_regret)

__version__ = "0.1.0"

__all__ = [
    "BanditBooster", "default_explore_rate", "verify_simplex_containment",
    "BoosterConfig", "OnlineBooster", "RoundTrajectory",
    "ConfigError", "DataError", "DimensionMismatch", "NonFiniteInput",
    "OcoBoostError", "ProtocolError", "StageError",
    "ExtendedLoss", "ProxInfo", "default_delta", "prox",
    "Ball", "Box", "CustomSet", "DecisionSet", "Interval", "MEMBERSHIP_TOL",
    "ShiftedSet", "Simplex", "as_point",
    "CallableLoss", "ConvexLoss", "LinearLoss", "QuadraticLoss", "ScaledLoss",
    "ShiftedLoss", "lipschitz_bound",
    "BoostedHypothesis", "CallableSampleOracle", "ConstantHypothesis",
    "ErmWeakOptimizer", "FiniteSupportOracle", "SampleOracle",
    "ScaledHypothesis", "exact_population_loss", "fit_boosted_hypothesis",
    "DecisionStump", "OnlineRidge", "ScaledLeaderOracle", "TinyMlp",
    "UniformBaseline", "WeakLearner", "empirical_gamma_regret",
    "__version__",
]
