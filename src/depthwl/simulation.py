"""Monte Carlo harness: contaminated samples, factor grids and the
breakdown experiment.

Datasets mix N_p(0, I) rows with round(eps * n) contaminated rows from
N_p((mu_c, ..., mu_c), sigma_c^2 I).  Every replication derives its
RNG stream from (seed, cell index, replication index), so reports are
pure functions of their configuration.  A grid cell stacks the datasets
of its replications and runs each layer once over the stack: the MLEs,
the empirical depths, the root search and the error metrics.  Every
replication's numbers are bit for bit those of fitting it alone.

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
from dataclasses import dataclass, field, fields

import numpy as np

from .depth import _rng, empirical_depths_all, resolve_depth_method
from .estimator import EstimatorConfig, _root_sets, _starts, fit
from .gaussian import GaussianParams, _check_integer, _check_real, _fields, _mle_fits, _record
from .gaussian import _stack, _stacked_kl, mle_fit
# Not called here: perfbench's tracer patches model depth, root finding
# and the KL divergence at these names.
from .depth import population_depth_gaussian  # noqa: F401
from .estimator import find_roots  # noqa: F401
from .gaussian import kl_gaussian  # noqa: F401
from .initializers import InitSpec

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
        for name in ("epsilon", "mu_c", "sigma_c"):
            _check_real(name, getattr(self, name))
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in [0, 1), got {self.epsilon!r}")
        if not math.isfinite(self.mu_c):
            raise ValueError(f"mu_c must be finite, got {self.mu_c!r}")
        if not 0.0 < self.sigma_c < math.inf:
            raise ValueError(f"sigma_c must be positive and finite, got {self.sigma_c!r}")


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
    return float(_stacked_mse(est.mu[None], est.sigma[None], truth)[0])


def _stacked_mse(mu: np.ndarray, sigma: np.ndarray, truth: GaussianParams) -> np.ndarray:
    """``mse`` of S estimates, locations ``mu`` (S, p) and scatters
    ``sigma`` (S, p, p), against ``truth`` at once."""
    p = truth.p
    rows, cols = np.triu_indices(p)
    err = np.sum((mu - truth.mu) ** 2, axis=1)
    err += np.sum((sigma[:, rows, cols] - truth.sigma[rows, cols]) ** 2, axis=1)
    return err / (p + p * (p + 1) // 2)


def _errors(mu, sigma, chol, truth: GaussianParams):
    """MSE and KL divergence from ``truth`` of S estimates, given as
    locations, scatters and their Cholesky factors."""
    kl = _stacked_kl(mu, chol, truth.mu[None], truth.chol[None])
    return _stacked_mse(mu, sigma, truth), kl


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
            vals = getattr(self, name)
            if not isinstance(vals, (list, tuple)):
                raise ValueError(f"{name} must be a list, got {vals!r}")
            if not vals:
                raise ValueError(f"{name} must be nonempty")
            object.__setattr__(self, name, tuple(vals))
        for name in ("dims", "size_factors"):
            for i, v in enumerate(getattr(self, name)):
                _check_integer(f"{name}[{i}]", v, 1)
        _check_integer("reps", self.reps, 1)
        _check_integer("seed", self.seed)
        # ContaminationSpec judges each entry in its own slot; each is stored as a float.
        for name, slot in (("epsilons", "epsilon"), ("mu_cs", "mu_c"), ("sigma_cs", "sigma_c")):
            for i, v in enumerate(getattr(self, name)):
                try:
                    ContaminationSpec(**{"epsilon": 0.0, slot: v})
                except ValueError as exc:
                    raise ValueError(f"{name}[{i}]: {exc}") from None
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        for p in self.dims:
            resolve_depth_method(self.estimator.depth_method, p)
        # Starts that no replication can make; n = s (p(p+1)/2 + p) is
        # below an elemental subsample, p(p+1)/2 + p + 1 rows, only at s = 1.
        if (self.init.strategy == "custom"
                and len({g.p for g in self.init.custom} | {*self.dims}) > 1):
            raise ValueError("init: every custom start must have the dimension of every cell")
        if self.init.strategy == "subsample" and min(self.size_factors) == 1:
            raise ValueError("init: subsample starts need a size factor of at least 2")

    def cells(self):
        """Deterministic cell enumeration; the position is the cell id."""
        return list(
            itertools.product(
                self.dims, self.size_factors, self.epsilons, self.mu_cs, self.sigma_cs
            )
        )

    def to_dict(self) -> dict:
        return _record(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GridConfig":
        required = ("dims", "size_factors", "epsilons", "mu_cs", "sigma_cs", "reps", "seed")
        kw = dict(_fields(d, (*required, "estimator", "init"), required))
        readers = {"estimator": EstimatorConfig.from_dict, "init": InitSpec.from_dict}
        for name, reader in readers.items():
            try:
                if name in d:
                    kw[name] = reader(d[name])
            except (ValueError, TypeError) as exc:
                raise ValueError(f"invalid field: {name} ({exc})") from None
        try:
            return cls(**kw)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"invalid field: {exc}") from None


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


CSV_COLUMNS = tuple(f.name for f in fields(CellResult))


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
    """The replications of one grid cell, each layer one stacked pass.

    The datasets, each from its own RNG stream, are stacked as (R, n, p).
    One ``_mle_fits`` call gives every MLE; a replication fails where
    ``mle_fit`` would raise.  The rest go through one
    ``empirical_depths_all`` call and one ``_root_sets`` solve; one fails
    when its starts cannot be made or none of them converges.  The MLEs
    and the selected roots of the replications left are scored against
    the truth in one stacked MSE and one stacked KL call each.
    """
    p, s, eps, mu_c, sigma_c = cell
    n = sample_size(p, s)
    truth = GaussianParams.standard(p)
    spec = ContaminationSpec(eps, mu_c, sigma_c)
    data = np.array([generate_dataset(n, p, spec, [cfg.seed, cell_id, r, 0])[0]
                     for r in range(cfg.reps)])
    mle_mu, mle_sigma, mle_chol = _mle_fits(data)
    fitted = np.flatnonzero(~np.isnan(mle_chol).any(axis=(1, 2)))
    emp_depths = empirical_depths_all(data[fitted], cfg.estimator.depth_method)
    # Replications (positions in ``fitted``) whose starts could be made.
    started, starts = [], []
    for k, r in enumerate(fitted.tolist()):
        try:
            inits = cfg.init.make_inits(
                data[r], emp_depths[k], truth=truth, seed_keys=[cell_id, r]
            )
            starts.append(_starts(inits, p))
            started.append(k)
        except ValueError:
            pass
    root_sets = _root_sets(data[fitted[started]], emp_depths[started], starts,
                           cfg.estimator)
    reps = fitted[[k for k, rs in zip(started, root_sets) if rs.best is not None]]
    best = [rs.best.params for rs in root_sets if rs.best is not None]
    mle_mse, mle_kl = _errors(mle_mu[reps], mle_sigma[reps], mle_chol[reps], truth)
    wle_mse, wle_kl = _errors(*_stack(best, p), truth)

    def _mean(v):
        return float(np.mean(v)) if len(v) else float("nan")

    return CellResult(
        p=p, s=s, n=n, epsilon=eps, mu_c=mu_c, sigma_c=sigma_c,
        reps=cfg.reps, failures=cfg.reps - len(best),
        retrieved=int(np.count_nonzero(wle_kl < 0.5 * mle_kl)),
        mean_mse=_mean(wle_mse), mean_kl=_mean(wle_kl),
        mle_mean_mse=_mean(mle_mse), mle_mean_kl=_mean(mle_kl),
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
        return _record(self)


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
    position.  Raises ValueError naming the input unless ``n``, ``p``
    >= 1 and ``m`` >= 0 are integers and ``distance`` is a finite real
    number, checked before any draw; unless n > 2p; and unless the clean
    fit converges.
    """
    _check_integer("n", n)
    _check_integer("p", p, 1)
    _check_integer("m", m, 0)
    _check_real("distance", distance)
    if not math.isfinite(distance):
        raise ValueError(f"distance must be finite, got {distance!r}")
    if n <= 2 * p:
        raise ValueError(f"breakdown experiment requires n > 2*p (got n={n}, p={p}); "
                         f"the clean sample must exceed twice the dimension")
    rng = _rng(seed)
    data = rng.standard_normal((n, p))
    clean = fit(data, cfg, mle_fit(data))
    if not clean.converged:
        raise ValueError(f"clean fit failed: {clean.message}")

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
