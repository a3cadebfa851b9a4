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
from .discriminator import (
    DecisionFunction,
    FeatureMap,
    LabeledDesign,
    LogisticFit,
    cv_log_odds,
    fit_logistic,
    log_odds,
)
from .numerics import RngStream, log_gamma, normal_cdf, reg_incomplete_beta, student_t_cdf
from .ratio import LogRatioEstimate, estimate_log_ratio, estimate_reverse_log_ratio
from .tempering import TemperingCurve, TemperingGrid, curve
from .testing import MisspecTestResult, t_test_logz
from .truths import (
    BetaBinomialTruth,
    GaussianTruth,
    LaplaceTruth,
    NegBinomialTruth,
    SigmoidRegressionTruth,
    TNoiseRegressionTruth,
    truth_logpdf,
)
from .cli import ScenarioConfig, ScenarioResult, emit_outputs, run_scenario

__all__ = [
    "__version__",
    "RngStream",
    "log_gamma",
    "reg_incomplete_beta",
    "student_t_cdf",
    "normal_cdf",
    "Dataset",
    "SufficientStats",
    "GaussianKnownVarModel",
    "PoissonGammaModel",
    "NIGRegressionModel",
    "temper_update",
    "predictive_sample",
    "GaussianTruth",
    "LaplaceTruth",
    "NegBinomialTruth",
    "BetaBinomialTruth",
    "TNoiseRegressionTruth",
    "SigmoidRegressionTruth",
    "truth_logpdf",
    "FeatureMap",
    "LabeledDesign",
    "LogisticFit",
    "DecisionFunction",
    "fit_logistic",
    "log_odds",
    "cv_log_odds",
    "LogRatioEstimate",
    "estimate_log_ratio",
    "estimate_reverse_log_ratio",
    "MisspecTestResult",
    "t_test_logz",
    "TemperingGrid",
    "TemperingCurve",
    "curve",
    "ScenarioConfig",
    "ScenarioResult",
    "run_scenario",
    "emit_outputs",
]
