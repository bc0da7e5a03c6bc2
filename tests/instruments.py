"""Acceptance instruments: measurements the test suite makes of the
library, built only on its public functions.

``check_weight_class`` probes the weight-class conditions of a weight
function by finite differences; ``residual_rate_experiment`` measures
how fast the depth Pearson residuals at the true parameters shrink as
the sample grows.
"""

from dataclasses import dataclass

import numpy as np

from depthwl import (
    ContaminationSpec,
    GaussianParams,
    WeightSpec,
    dpr,
    empirical_depths_all,
    generate_dataset,
    population_depth_gaussian,
    weight,
)


@dataclass(frozen=True)
class WeightClassReport:
    """Finite-difference conformance summary for a weight function.

    ``sup_first_order`` and ``sup_second_order`` are the grid maxima of
    |w'(t)(t+1)| and |w''(t)(t+2)^2|, the two boundedness conditions a
    twice-differentiable weight must satisfy.  ``differentiable`` is
    False for the piecewise family (kinks at delta1 and delta2 by
    construction); its derivative diagnostics are informational only.
    """

    w_at_zero: float
    dw_at_zero: float
    sup_first_order: float
    sup_second_order: float
    differentiable: bool
    kinks: tuple
    passes_smooth_conditions: bool


_FD_STEP = 1e-5
_DW_TOL = 1e-6


def check_weight_class(spec: WeightSpec, grid) -> WeightClassReport:
    """Probe weight-class conditions on a residual grid covering [-1, T].

    Derivatives use central differences with step 1e-5, whose O(step^2)
    error is far above machine noise, hence the 1e-6 acceptance
    tolerance on w'(0) for smooth families.
    """
    grid = np.asarray(grid, dtype=np.float64)
    if grid.size == 0 or grid.min() > -1.0 or grid.max() < 10.0:
        raise ValueError("grid must cover [-1, T] with T >= 10")
    h = _FD_STEP

    def d1(t):
        return (weight(t + h, spec) - weight(t - h, spec)) / (2.0 * h)

    def d2(t):
        return (weight(t + h, spec) - 2.0 * weight(t, spec)
                + weight(t - h, spec)) / h**2

    w0 = float(weight(0.0, spec))
    dw0 = float(d1(0.0))
    sup1 = float(np.max(np.abs(d1(grid) * (grid + 1.0))))
    sup2 = float(np.max(np.abs(d2(grid) * (grid + 2.0) ** 2)))
    differentiable = spec.family != "piecewise"
    kinks = () if differentiable else (spec.delta1, spec.delta2)
    passes = differentiable and abs(w0 - 1.0) <= _DW_TOL and abs(dw0) <= _DW_TOL
    return WeightClassReport(
        w_at_zero=w0,
        dw_at_zero=dw0,
        sup_first_order=sup1,
        sup_second_order=sup2,
        differentiable=differentiable,
        kinks=kinks,
        passes_smooth_conditions=passes,
    )


def residual_rate_experiment(
    sizes,
    p: int,
    alpha: float,
    reps: int,
    method_for_size,
    seed: int,
) -> dict:
    """Median over replications of max_i |tau(X_i; truth)| per sample size.

    The scaled residuals at the true parameters shrink as the sample
    grows (the depth estimate converges uniformly); this experiment
    measures the decay empirically.  ``method_for_size`` maps a sample
    size to the DepthMethod to use.
    """
    truth = GaussianParams.standard(p)
    spec = ContaminationSpec(0.0)
    out = {}
    for n in sizes:
        maxima = []
        for r in range(reps):
            data, _ = generate_dataset(n, p, spec, [seed, n, r])
            d_emp = empirical_depths_all(data, method_for_size(n))
            d_model = population_depth_gaussian(data, truth)
            tau = dpr(d_emp, d_model, alpha)
            maxima.append(float(np.abs(tau).max()))
        out[n] = float(np.median(maxima))
    return out
