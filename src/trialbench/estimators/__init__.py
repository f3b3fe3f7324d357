"""Observational-study estimator suite."""

from .methods import (
    EffectEstimate,
    METHOD_REGISTRY,
    RunSettings,
    failed_estimates,
    run_all_methods,
)
