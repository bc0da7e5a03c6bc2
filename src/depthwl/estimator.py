"""Weighted likelihood estimation of Gaussian location and scatter.

The estimating equations weight each observation's score contribution
by w*(tau_i), where tau_i is the depth Pearson residual of observation
i.  For the Gaussian family the density-shape factor is the constant
-1/2, so a solution is a fixed point of

    mu    = sum(w_i x_i) / sum(w_i)
    sigma = sum(w_i (x_i - mu)(x_i - mu)') / D

with D either n (default, the form the score equations take) or
sum(w_i).  Under the literal 1/n form, hard-zero trimmed weights
shrink the scatter by the trimmed fraction; that shrinkage is part of
the estimator this package reproduces, and the sum-of-weights variant
is available for callers who want a scatter calibrated to the
surviving observations only.

Empirical depths do not depend on the parameters and are computed once
per dataset.  The equations may have several roots; ``find_roots``
iterates from many starting values, deduplicates converged results and
selects the root fitting the most effective mass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .depth import DepthMethod, empirical_depths_all, population_depth_gaussian
from .gaussian import GaussianParams, _as_matrix, kl_gaussian, weighted_location_scatter
from .residuals import DprConfig, WeightSpec, apply_trim, dpr, weight
from .residuals import weight_config_from_dict, weight_config_to_dict

__all__ = [
    "EstimatorConfig",
    "FitResult",
    "RootSet",
    "StepFailure",
    "irwls_step",
    "fit",
    "find_roots",
    "DEDUP_KL",
]

# Symmetrized-KL radius below which two converged roots are considered
# the same: far below meaningful root separation, far above the
# convergence noise at tol = 1e-8.
DEDUP_KL = 1e-3


class StepFailure(RuntimeError):
    """A single reweighting step could not produce valid parameters."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Everything that defines one weighted-likelihood estimator.

    The default ``depth_method`` is ``auto``: the exact algorithm for
    p <= 2 and the projection approximation otherwise.
    """

    dpr: DprConfig = DprConfig(0.5)
    weights: WeightSpec = field(default_factory=lambda: WeightSpec.optimal(0.5))
    depth_method: DepthMethod = DepthMethod()
    scatter_norm: str = "literal-1-over-n"
    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if self.scatter_norm not in ("sum-of-weights", "literal-1-over-n"):
            raise ValueError("scatter_norm must be 'sum-of-weights' or 'literal-1-over-n'")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")

    def to_dict(self) -> dict:
        return {
            "weights": weight_config_to_dict(self.weights, self.dpr),
            "depth_method": self.depth_method.to_dict(),
            "scatter_norm": self.scatter_norm,
            "tol": self.tol,
            "max_iter": self.max_iter,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EstimatorConfig":
        unknown = set(d) - {"weights", "depth_method", "scatter_norm", "tol", "max_iter"}
        if unknown:
            raise ValueError(f"unknown fields: {sorted(unknown)}")
        spec, dcfg = weight_config_from_dict(d["weights"])
        return cls(
            dpr=dcfg,
            weights=spec,
            depth_method=DepthMethod.from_dict(d.get("depth_method") or {}),
            scatter_norm=d.get("scatter_norm", "literal-1-over-n"),
            tol=float(d.get("tol", 1e-8)),
            max_iter=int(d.get("max_iter", 500)),
        )


@dataclass(frozen=True, eq=False)
class FitResult:
    """One root candidate of the estimating equations.

    ``weights`` and ``residuals`` are evaluated at the returned
    parameters.  ``converged`` means the last parameter update moved
    less than ``tol`` in relative max-norm; otherwise ``message``
    carries the failure reason.
    """

    params: GaussianParams
    weights: np.ndarray
    residuals: np.ndarray
    iterations: int
    converged: bool
    sum_weights: float
    message: str | None = None

    def to_dict(self) -> dict:
        return {
            "params": self.params.to_dict(),
            "weights": self.weights.tolist(),
            "residuals": self.residuals.tolist(),
            "iterations": self.iterations,
            "converged": self.converged,
            "sum_weights": self.sum_weights,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FitResult":
        return cls(
            params=GaussianParams.from_dict(d["params"]),
            weights=np.asarray(d["weights"], dtype=np.float64),
            residuals=np.asarray(d["residuals"], dtype=np.float64),
            iterations=int(d["iterations"]),
            converged=bool(d["converged"]),
            sum_weights=float(d["sum_weights"]),
            message=d.get("message"),
        )


@dataclass(frozen=True)
class RootSet:
    """Deduplicated converged roots plus the preferred one.

    ``selected`` indexes into ``roots`` (None when nothing converged).
    Selection maximizes the total weight carried by the root, breaking
    ties toward the smaller scatter determinant; all roots are kept so
    callers can override the choice.
    """

    roots: tuple
    selected: int | None
    diagnostics: dict

    @property
    def best(self) -> FitResult | None:
        return None if self.selected is None else self.roots[self.selected]

    def to_dict(self) -> dict:
        return {
            "roots": [r.to_dict() for r in self.roots],
            "selected": self.selected,
            "diagnostics": self.diagnostics,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RootSet":
        return cls(
            roots=tuple(FitResult.from_dict(r) for r in d["roots"]),
            selected=d["selected"],
            diagnostics=dict(d["diagnostics"]),
        )


def _residuals_weights(data, params, emp_depths, cfg):
    d_model = population_depth_gaussian(data, params)
    tau = dpr(emp_depths, d_model, cfg.dpr)
    w = apply_trim(tau, weight(tau, cfg.weights), cfg.weights.trim_xi)
    return tau, w


def irwls_step(
    data: np.ndarray,
    params: GaussianParams,
    emp_depths: np.ndarray,
    cfg: EstimatorConfig,
) -> tuple[GaussianParams, np.ndarray, np.ndarray]:
    """One reweighting update from ``params``.

    Returns (new_params, weights, residuals) where weights/residuals
    are the ones evaluated at ``params`` that produced the update.
    Raises StepFailure when the surviving weight sums to less than
    p + 1 or the updated scatter is not SPD.
    """
    data = np.asarray(data, dtype=np.float64)
    n = data.shape[0]
    min_eff = params.p + 1
    tau, w = _residuals_weights(data, params, emp_depths, cfg)
    sum_w = float(w.sum())
    if sum_w < min_eff:
        raise StepFailure(
            f"effective sample size {sum_w:.3g} below minimum {min_eff:.3g}"
        )
    denom = float(n) if cfg.scatter_norm == "literal-1-over-n" else sum_w
    mu, sigma = weighted_location_scatter(data, w, denom)
    try:
        new_params = GaussianParams(mu, sigma)
    except ValueError:
        raise StepFailure("updated scatter matrix is singular") from None
    return new_params, w, tau


def _converged(old: GaussianParams, new: GaussianParams, tol: float) -> bool:
    dmu = float(np.abs(new.mu - old.mu).max()) / (1.0 + float(np.abs(new.mu).max()))
    dsig = float(np.abs(new.sigma - old.sigma).max()) / (
        1.0 + float(np.abs(new.sigma).max())
    )
    return max(dmu, dsig) < tol


def fit(
    data,
    cfg: EstimatorConfig,
    init: GaussianParams,
    emp_depths: np.ndarray | None = None,
) -> FitResult:
    """Iterate reweighting steps from ``init`` until convergence.

    ``emp_depths`` may be passed to share the one-time depth
    computation across several starts.  A failed step aborts this
    start only, yielding a non-converged result with the reason.
    """
    data = _as_matrix(data)
    if init.p != data.shape[1]:
        raise ValueError(
            f"start has dimension {init.p} but the data have dimension {data.shape[1]}"
        )
    if emp_depths is None:
        emp_depths = empirical_depths_all(data, cfg.depth_method)

    params = init
    iterations = 0
    converged = False
    message = None
    for _ in range(cfg.max_iter):
        try:
            new_params, w, tau = irwls_step(data, params, emp_depths, cfg)
        except StepFailure as exc:
            message = str(exc)
            break
        iterations += 1
        done = _converged(params, new_params, cfg.tol)
        params = new_params
        if done:
            converged = True
            break
    else:
        message = "maximum iterations reached without convergence"

    # Report weights and residuals evaluated at the returned parameters.
    tau, w = _residuals_weights(data, params, emp_depths, cfg)
    return FitResult(
        params=params,
        weights=w,
        residuals=tau,
        iterations=iterations,
        converged=converged,
        sum_weights=float(w.sum()),
        message=message,
    )


def _symmetrized_kl(a: GaussianParams, b: GaussianParams) -> float:
    return kl_gaussian(a, b) + kl_gaussian(b, a)


def find_roots(
    data,
    cfg: EstimatorConfig,
    inits,
    emp_depths: np.ndarray | None = None,
) -> RootSet:
    """Run ``fit`` from every start, deduplicate and rank the roots.

    Starts are processed in input order, so the result is
    deterministic.  Converged results closer than DEDUP_KL in
    symmetrized KL collapse to the first representative.
    ``emp_depths``, as in ``fit``, shares the depths a caller already
    computed (e.g. for a depth start).
    """
    inits = list(inits)
    if not inits:
        raise ValueError("at least one starting value is required")
    data = _as_matrix(data)
    if emp_depths is None:
        emp_depths = empirical_depths_all(data, cfg.depth_method)
    results = [fit(data, cfg, init, emp_depths=emp_depths) for init in inits]

    roots: list[FitResult] = []
    failures: list[str] = []
    for res in results:
        if not res.converged:
            failures.append(res.message or "did not converge")
            continue
        for seen in roots:
            if _symmetrized_kl(res.params, seen.params) < DEDUP_KL:
                break
        else:
            roots.append(res)

    selected = None
    if roots:
        selected = min(
            range(len(roots)),
            key=lambda i: (-roots[i].sum_weights, roots[i].params.log_det, i),
        )

    diagnostics = {
        "n_starts": len(inits),
        "n_converged": sum(r.converged for r in results),
        "n_failed": len(failures),
        "failure_reasons": failures,
    }
    return RootSet(roots=tuple(roots), selected=selected, diagnostics=diagnostics)
