"""Observational-study estimator suite."""

from .propensity import PropensityFit, fit_logistic, match_pairs, compute_weights, MatchingError
from .survival import (
    CoxResult,
    SurvivalCurve,
    AFTModel,
    cox_fit,
    km_curve,
    rmst,
    event_time_horizon,
    aft_fit,
)
from .methods import (
    EffectEstimate,
    METHOD_REGISTRY,
    SCALE_LOG_HR,
    SCALE_RMST_DAYS,
    RunSettings,
    failed_estimate,
    rmst_regression,
    rmst_aipw,
    run_all_methods,
)
