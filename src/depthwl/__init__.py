"""Depth-based weighted likelihood estimation of multivariate Gaussian
location and scatter.

Observations are downweighted according to the mismatch between their
empirical half-space depth and their depth under the fitted model, and
the weighted score equations are solved by iterative reweighting with
multi-start root finding.  A Monte Carlo harness generates contaminated
samples and reproduces efficiency and robustness summaries at desk
scale.
"""

from .depth import (
    DepthMethod,
    chi2_cdf,
    empirical_depth,
    empirical_depths,
    empirical_depths_all,
    population_depth_gaussian,
    resolve_depth_method,
)
from .estimator import (
    DEDUP_KL,
    EstimatorConfig,
    FitResult,
    RootSet,
    Step,
    find_roots,
    fit,
    irwls_step,
)
from .gaussian import (
    GaussianParams,
    kl_gaussian,
    log_density,
    mahalanobis_sq,
    mle_fit,
)
from .initializers import (
    InitSpec,
    depth_init,
    elemental_subsample_size,
    subsample_inits,
)
from .residuals import (
    WeightClassReport,
    WeightSpec,
    apply_trim,
    check_weight_class,
    dpr,
    weight,
)
from .simulation import (
    BreakdownReport,
    CellResult,
    ContaminationSpec,
    GridConfig,
    SimulationReport,
    breakdown_experiment,
    efficiency,
    generate_dataset,
    mse,
    residual_rate_experiment,
    run_grid,
    sample_size,
)

__version__ = "0.1.0"

__all__ = [
    "DepthMethod",
    "chi2_cdf",
    "empirical_depth",
    "empirical_depths",
    "empirical_depths_all",
    "population_depth_gaussian",
    "resolve_depth_method",
    "WeightSpec",
    "WeightClassReport",
    "dpr",
    "weight",
    "apply_trim",
    "check_weight_class",
    "GaussianParams",
    "mahalanobis_sq",
    "mle_fit",
    "kl_gaussian",
    "log_density",
    "EstimatorConfig",
    "FitResult",
    "RootSet",
    "Step",
    "DEDUP_KL",
    "irwls_step",
    "fit",
    "find_roots",
    "InitSpec",
    "elemental_subsample_size",
    "subsample_inits",
    "depth_init",
    "ContaminationSpec",
    "GridConfig",
    "CellResult",
    "SimulationReport",
    "BreakdownReport",
    "generate_dataset",
    "mse",
    "run_grid",
    "efficiency",
    "breakdown_experiment",
    "residual_rate_experiment",
    "sample_size",
]
