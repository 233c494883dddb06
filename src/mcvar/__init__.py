"""Margin-closed Gaussian VAR(k) models.

Construction, verification, simulation, and multi-stage quasi maximum
likelihood estimation of multivariate time series whose sub-processes are
each themselves VAR(k), with Gaussian or skew-t margins coupled through a
Gaussian copula.
"""

from .closure import (
    ClosureReport,
    CrossFixedBlock,
    CrossSolution,
    DegenerateCrossPair,
    Partition,
    SubprocessCorr,
    assemble_full_R,
    coefficient_block_zeros,
    fixed_lag_for_labels,
    solve_cross_pair,
    verify_closure,
)
from .estimation import (
    FittedModel,
    Model,
    ModelConfig,
    construct_model,
    count_params,
    fit_model,
    fit_stage2,
    fit_stage3,
    fit_stage4,
    gaussian_var_loglik,
    latent_residuals,
    latent_scores,
    loglik_full,
    portmanteau,
    simulate_model,
)
from .linalg import gaussian_condition, is_positive_definite
from .margins import (
    MarginFit,
    MarginSpec,
    cdf,
    fit_margin,
    from_normal,
    pdf,
    pit_to_normal,
    quantile,
)
from .varprocess import (
    VarRepresentation,
    durbin_levinson,
    implied_autocov,
    is_stationary,
    sample_statistics,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "ClosureReport",
    "CrossFixedBlock",
    "CrossSolution",
    "DegenerateCrossPair",
    "Partition",
    "SubprocessCorr",
    "assemble_full_R",
    "coefficient_block_zeros",
    "fixed_lag_for_labels",
    "solve_cross_pair",
    "verify_closure",
    "FittedModel",
    "Model",
    "ModelConfig",
    "construct_model",
    "count_params",
    "fit_model",
    "fit_stage2",
    "fit_stage3",
    "fit_stage4",
    "gaussian_var_loglik",
    "latent_residuals",
    "latent_scores",
    "loglik_full",
    "portmanteau",
    "simulate_model",
    "gaussian_condition",
    "is_positive_definite",
    "MarginFit",
    "MarginSpec",
    "cdf",
    "fit_margin",
    "from_normal",
    "pdf",
    "pit_to_normal",
    "quantile",
    "VarRepresentation",
    "durbin_levinson",
    "implied_autocov",
    "is_stationary",
    "sample_statistics",
    "simulate",
]
