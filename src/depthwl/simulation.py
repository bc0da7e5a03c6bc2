"""Monte Carlo harness: contaminated samples, factor grids, breakdown
and residual-rate experiments.

Datasets mix N_p(0, I) rows with round(eps * n) contaminated rows from
N_p((mu_c, ..., mu_c), sigma_c^2 I).  Every replication derives its
RNG stream from (seed, cell index, replication index), so reports are
pure functions of their configuration.

Error summaries: MSE averages the squared errors of the p + p(p+1)/2
free parameters (location coordinates plus upper-triangle scatter
entries).  The reference tables this harness reproduces never state
their MSE formula, so absolute values are comparable in order of
magnitude only; KL divergence is unambiguous.
"""

from __future__ import annotations

import io
import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .depth import (
    _rng,
    empirical_depths_all,
    population_depth_gaussian,
    resolve_depth_method,
)
from .estimator import EstimatorConfig, find_roots, fit
from .gaussian import GaussianParams, kl_gaussian, mle_fit
from .initializers import InitSpec
from .residuals import DprConfig, dpr

__all__ = [
    "ContaminationSpec",
    "GridConfig",
    "CellResult",
    "SimulationReport",
    "generate_dataset",
    "mse",
    "run_grid",
    "efficiency",
    "BreakdownReport",
    "breakdown_experiment",
    "residual_rate_experiment",
    "sample_size",
    "CSV_COLUMNS",
]


def sample_size(p: int, s: int) -> int:
    """n = s * (p(p+1)/2 + p): size factor times parameter count."""
    return s * (p * (p + 1) // 2 + p)


@dataclass(frozen=True)
class ContaminationSpec:
    """Contamination fraction and the contaminating normal component."""

    epsilon: float
    mu_c: float = 0.0
    sigma_c: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError("epsilon must lie in [0, 1)")
        if not self.sigma_c > 0.0:
            raise ValueError("sigma_c must be positive")


def generate_dataset(n: int, p: int, spec: ContaminationSpec, seed):
    """Contaminated sample plus outlier mask.

    Exactly round(eps * n) rows are contaminated (deterministic count,
    not binomial, to reduce Monte Carlo variance).  Clean rows are
    drawn first, then contaminated rows, then a permutation shuffles
    them; the mask marks contaminated rows after shuffling.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = _rng(seed)
    m = int(math.floor(spec.epsilon * n + 0.5))
    clean = rng.standard_normal((n - m, p))
    contaminated = spec.mu_c + spec.sigma_c * rng.standard_normal((m, p))
    data = np.vstack([clean, contaminated])
    mask = np.arange(n) >= (n - m)
    perm = rng.permutation(n)
    return data[perm], mask[perm]


def mse(est: GaussianParams, truth: GaussianParams) -> float:
    """Mean squared error over the p + p(p+1)/2 free parameters."""
    if est.p != truth.p:
        raise ValueError("dimension mismatch")
    p = est.p
    iu = np.triu_indices(p)
    err = float(np.sum((est.mu - truth.mu) ** 2))
    err += float(np.sum((est.sigma[iu] - truth.sigma[iu]) ** 2))
    return err / (p + p * (p + 1) // 2)


@dataclass(frozen=True)
class GridConfig:
    """Full factorial design over (p, s, eps, mu_c, sigma_c)."""

    dims: tuple
    size_factors: tuple
    epsilons: tuple
    mu_cs: tuple
    sigma_cs: tuple
    reps: int
    seed: int
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    init: InitSpec = field(default_factory=lambda: InitSpec("truth"))

    def __post_init__(self):
        for name in ("dims", "size_factors", "epsilons", "mu_cs", "sigma_cs"):
            vals = tuple(getattr(self, name))
            object.__setattr__(self, name, vals)
            if not vals:
                raise ValueError(f"{name} must be nonempty")
        if self.reps < 1:
            raise ValueError("reps must be >= 1")

    def cells(self):
        """Deterministic cell enumeration; the position is the cell id."""
        return list(
            itertools.product(
                self.dims, self.size_factors, self.epsilons, self.mu_cs, self.sigma_cs
            )
        )

    def to_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "size_factors": list(self.size_factors),
            "epsilons": list(self.epsilons),
            "mu_cs": list(self.mu_cs),
            "sigma_cs": list(self.sigma_cs),
            "reps": self.reps,
            "seed": self.seed,
            "estimator": self.estimator.to_dict(),
            "init": self.init.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "GridConfig":
        required = ("dims", "size_factors", "epsilons", "mu_cs", "sigma_cs",
                    "reps", "seed")
        for name in required:
            if name not in d:
                raise ValueError(f"grid config is missing field: {name}")
        try:
            estimator = (EstimatorConfig.from_dict(d["estimator"])
                         if "estimator" in d else EstimatorConfig())
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"invalid field: estimator ({exc})") from None
        try:
            init = InitSpec.from_dict(d["init"]) if "init" in d else InitSpec("truth")
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"invalid field: init ({exc})") from None
        try:
            return cls(
                dims=tuple(int(v) for v in d["dims"]),
                size_factors=tuple(int(v) for v in d["size_factors"]),
                epsilons=tuple(float(v) for v in d["epsilons"]),
                mu_cs=tuple(float(v) for v in d["mu_cs"]),
                sigma_cs=tuple(float(v) for v in d["sigma_cs"]),
                reps=int(d["reps"]),
                seed=int(d["seed"]),
                estimator=estimator,
                init=init,
            )
        except (ValueError, TypeError) as exc:
            raise ValueError(f"invalid field: {exc}") from None


CSV_COLUMNS = (
    "p", "s", "n", "epsilon", "mu_c", "sigma_c",
    "reps", "failures", "retrieved",
    "mean_mse", "mean_kl", "mle_mean_mse", "mle_mean_kl",
)


@dataclass(frozen=True)
class CellResult:
    """Aggregate metrics of one grid cell.

    Means are over successful replications; ``retrieved`` counts
    replications whose selected root beat half the contaminated MLE's
    KL divergence (the operational definition of finding the robust
    root rather than the MLE-like one).
    """

    p: int
    s: int
    n: int
    epsilon: float
    mu_c: float
    sigma_c: float
    reps: int
    failures: int
    retrieved: int
    mean_mse: float
    mean_kl: float
    mle_mean_mse: float
    mle_mean_kl: float

    def row(self) -> list:
        return [getattr(self, c) for c in CSV_COLUMNS]


@dataclass(frozen=True)
class SimulationReport:
    """Per-cell records plus per-(p, s, epsilon) maxima over the
    contamination placements (mu_c, sigma_c)."""

    cells: tuple
    maxima: tuple  # of dicts: p, s, epsilon, max_mse, max_kl

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(CSV_COLUMNS) + "\n")
        for cell in self.cells:
            buf.write(",".join(repr(v) if isinstance(v, float) else str(v)
                               for v in cell.row()) + "\n")
        return buf.getvalue()

    def maxima_json(self) -> str:
        return json.dumps({"maxima": list(self.maxima)}, indent=2, sort_keys=True) + "\n"

    def maxima_table(self) -> str:
        lines = [f"{'p':>4} {'s':>4} {'epsilon':>8} {'max_mse':>12} {'max_kl':>12}"]
        for rec in self.maxima:
            lines.append(
                f"{rec['p']:>4} {rec['s']:>4} {rec['epsilon']:>8.3g} "
                f"{rec['max_mse']:>12.6g} {rec['max_kl']:>12.6g}"
            )
        return "\n".join(lines)


def _run_cell(cfg: GridConfig, cell_id: int, cell) -> CellResult:
    p, s, eps, mu_c, sigma_c = cell
    n = sample_size(p, s)
    truth = GaussianParams.standard(p)
    spec = ContaminationSpec(eps, mu_c, sigma_c)
    method = resolve_depth_method(cfg.estimator.depth_method, p)

    wle_mse, wle_kl, mle_mse_v, mle_kl_v = [], [], [], []
    failures = 0
    retrieved = 0
    for r in range(cfg.reps):
        data, _ = generate_dataset(n, p, spec, [cfg.seed, cell_id, r, 0])
        try:
            mle = mle_fit(data)
        except ValueError:
            failures += 1
            continue
        try:
            inits = cfg.init.make_inits(
                data, method, truth=truth, seed_keys=[cell_id, r]
            )
            roots = find_roots(data, cfg.estimator, inits)
        except ValueError:
            failures += 1
            continue
        best = roots.best
        if best is None:
            failures += 1
            continue
        m_mse, m_kl = mse(mle, truth), kl_gaussian(mle, truth)
        w_mse, w_kl = mse(best.params, truth), kl_gaussian(best.params, truth)
        mle_mse_v.append(m_mse)
        mle_kl_v.append(m_kl)
        wle_mse.append(w_mse)
        wle_kl.append(w_kl)
        if w_kl < 0.5 * m_kl:
            retrieved += 1

    def _mean(v):
        return float(np.mean(v)) if v else float("nan")

    return CellResult(
        p=p, s=s, n=n, epsilon=eps, mu_c=mu_c, sigma_c=sigma_c,
        reps=cfg.reps, failures=failures, retrieved=retrieved,
        mean_mse=_mean(wle_mse), mean_kl=_mean(wle_kl),
        mle_mean_mse=_mean(mle_mse_v), mle_mean_kl=_mean(mle_kl_v),
    )


def run_grid(cfg: GridConfig) -> SimulationReport:
    """Run every cell of the grid; replication failures are recorded in
    the cell counts and never abort the run."""
    results = [_run_cell(cfg, i, cell) for i, cell in enumerate(cfg.cells())]

    def _sup(values):
        finite = [v for v in values if not math.isnan(v)]
        return max(finite) if finite else float("nan")

    maxima = []
    for (p, s, eps), group in itertools.groupby(
        results, key=lambda c: (c.p, c.s, c.epsilon)
    ):
        group = list(group)
        maxima.append({
            "p": p, "s": s, "epsilon": eps,
            "max_mse": _sup([c.mean_mse for c in group]),
            "max_kl": _sup([c.mean_kl for c in group]),
        })
    return SimulationReport(cells=tuple(results), maxima=tuple(maxima))


def efficiency(cfg: GridConfig) -> dict:
    """MSE(MLE) / MSE(WLE) per (p, s) at the uncontaminated model.

    Both estimators see the same replication datasets, so the ratio
    isolates the weighting loss.  Requires a grid with epsilon = 0
    everywhere.
    """
    if any(e != 0.0 for e in cfg.epsilons):
        raise ValueError("efficiency is defined at epsilon = 0 only")
    report = run_grid(cfg)
    out: dict = {}
    for (p, s), group in itertools.groupby(report.cells, key=lambda c: (c.p, c.s)):
        group = list(group)
        num = float(np.nanmean([c.mle_mean_mse for c in group]))
        den = float(np.nanmean([c.mean_mse for c in group]))
        out[(p, s)] = num / den
    return out


@dataclass(frozen=True)
class BreakdownReport:
    """Outcome of one additive-contamination stress test."""

    n: int
    p: int
    m: int
    distance: float
    displacement: float
    eigenvalue_min: float
    eigenvalue_max: float
    outlier_weight_sum: float
    clean_converged: bool
    contaminated_converged: bool
    clean_params: GaussianParams
    contaminated_params: GaussianParams

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "p": self.p,
            "m": self.m,
            "distance": self.distance,
            "displacement": self.displacement,
            "eigenvalue_min": self.eigenvalue_min,
            "eigenvalue_max": self.eigenvalue_max,
            "outlier_weight_sum": self.outlier_weight_sum,
            "clean_converged": self.clean_converged,
            "contaminated_converged": self.contaminated_converged,
            "clean_params": self.clean_params.to_dict(),
            "contaminated_params": self.contaminated_params.to_dict(),
        }


def breakdown_experiment(
    n: int,
    p: int,
    m: int,
    distance: float,
    cfg: EstimatorConfig,
    seed,
) -> BreakdownReport:
    """Fit clean data, append m far outliers, refit from the clean root.

    The outliers sit at (distance, ..., distance) with a tiny
    N(0, 1e-6 I) perturbation keeping the augmented sample in general
    position.  Requires n > 2p so the clean fit is well posed.
    """
    if n <= 2 * p:
        raise ValueError("breakdown experiment requires n > 2 * p")
    rng = _rng(seed)
    data = rng.standard_normal((n, p))
    clean = fit(data, cfg, mle_fit(data))
    if not clean.converged:
        raise RuntimeError(f"clean fit failed: {clean.message}")

    outliers = distance + 1e-3 * rng.standard_normal((m, p))
    augmented = np.vstack([data, outliers]) if m > 0 else data
    contaminated = fit(augmented, cfg, clean.params)

    eigs = np.linalg.eigvalsh(contaminated.params.sigma)
    return BreakdownReport(
        n=n, p=p, m=m, distance=float(distance),
        displacement=float(np.linalg.norm(
            contaminated.params.mu - clean.params.mu)),
        eigenvalue_min=float(eigs[0]),
        eigenvalue_max=float(eigs[-1]),
        outlier_weight_sum=float(contaminated.weights[n:].sum()),
        clean_converged=clean.converged,
        contaminated_converged=contaminated.converged,
        clean_params=clean.params,
        contaminated_params=contaminated.params,
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
    cfg = DprConfig(alpha)
    spec = ContaminationSpec(0.0)
    out = {}
    for n in sizes:
        maxima = []
        for r in range(reps):
            data, _ = generate_dataset(n, p, spec, [seed, n, r])
            d_emp = empirical_depths_all(data, method_for_size(n))
            d_model = population_depth_gaussian(data, truth)
            tau = dpr(d_emp, d_model, cfg)
            maxima.append(float(np.abs(tau).max()))
        out[n] = float(np.median(maxima))
    return out
