"""Classifier-based KL diagnostics and tempering selection for Bayesian models.

CARMEN (Classification to Assess Ratios for Misspecification Estimation
and Negotiation) trains a probabilistic classifier to separate simulated
from observed data; its out-of-fold log-odds estimate per-point log
density ratios between the model predictive and the data-generating
process.  The negated mean of those ratios estimates the KL divergence
from the truth to the model, which drives a misspecification test and
the selection of a likelihood-tempering level for generalized updates.
"""

__version__ = "0.1.0"

from .conjugate import (
    GaussianKnownVarModel,
    NIGRegressionModel,
    PoissonGammaModel,
    SufficientStats,
    predictive_sample,
    temper_update,
)
from .data import Dataset
from .discriminator import FeatureMap, cv_log_odds
from .logistic import DecisionFunction, fit_logistic
from .numerics import RngStream
from .ratio import estimate_log_ratio
from .tempering import TemperingGrid, curve
from .testing import t_test_logz
from .truths import (
    BetaBinomialTruth,
    GaussianTruth,
    LaplaceTruth,
    NegBinomialTruth,
    SigmoidRegressionTruth,
    TNoiseRegressionTruth,
)
from .cli import ScenarioConfig, emit_outputs, run_scenario

# The README's "Library surface" block, in its order; every other name is
# imported from its own module.
__all__ = [
    "__version__",
    "RngStream", "Dataset", "SufficientStats",
    "GaussianKnownVarModel", "PoissonGammaModel", "NIGRegressionModel",
    "temper_update", "predictive_sample",
    "GaussianTruth", "LaplaceTruth", "NegBinomialTruth", "BetaBinomialTruth",
    "TNoiseRegressionTruth", "SigmoidRegressionTruth",
    "FeatureMap", "fit_logistic", "cv_log_odds", "DecisionFunction",
    "estimate_log_ratio",
    "t_test_logz",
    "TemperingGrid", "curve",
    "ScenarioConfig", "run_scenario", "emit_outputs",
]
