"""Depth-based weighted likelihood estimation of multivariate Gaussian
location and scatter.

Observations are downweighted according to the mismatch between their
empirical half-space depth and their depth under the fitted model, and
the weighted score equations are solved by iterative reweighting with
multi-start root finding.  A Monte Carlo harness generates contaminated
samples and reproduces efficiency and robustness summaries at desk
scale.
"""

from . import depth, estimator, gaussian, initializers, residuals, simulation
from .depth import *  # noqa: F403
from .estimator import *  # noqa: F403
from .gaussian import *  # noqa: F403
from .initializers import *  # noqa: F403
from .residuals import *  # noqa: F403
from .simulation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (depth, estimator, gaussian, initializers, residuals, simulation)
           for name in module.__all__]
