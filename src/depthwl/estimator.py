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

One solver iterates every start at once, in the manner of FAST-MCD's
C-steps over many subsamples: ``irwls_step`` updates a stack of
problems (locations, Cholesky factors, the data and depths of each)
in one pass, and problems leave the stack as they converge, fail or
run out of iterations.  Each iteration steps the problems left in
blocks of at most ``gaussian._ROWS`` data rows, so the solver's working
arrays do not grow with the stack.  ``fit`` is a stack of one,
``find_roots`` a stack of its starts that share one copy of the data,
and a simulation grid cell one stack over the starts of all its
replications, whose roots then take their weights and residuals from
one more stacked pass.  Each problem's arithmetic does not
depend on what else is in the stack, so a start gives the same result
bit for bit however it is batched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .depth import DepthMethod, _as_depths, _model_depth, empirical_depths_all
# Not called here: perfbench's tracer patches model depth at this name.
from .depth import population_depth_gaussian  # noqa: F401
from .gaussian import GaussianParams, _as_matrix, _blocks, _check_integer, _check_real
from .gaussian import _cholesky, _fields, _record, _stack, _stacked_kl, _unstack
from .gaussian import _stacked_mahalanobis_sq
from .gaussian import weighted_location_scatter
# Not called here: perfbench's tracer patches the KL divergence at this name.
from .gaussian import kl_gaussian  # noqa: F401
from .residuals import WeightSpec, apply_trim, dpr, weight

__all__ = [
    "EstimatorConfig",
    "FitResult",
    "RootSet",
    "Step",
    "irwls_step",
    "fit",
    "find_roots",
    "DEDUP_KL",
]

# Symmetrized-KL radius below which two converged roots are considered
# the same: far below meaningful root separation, far above the
# convergence noise at tol = 1e-8.
DEDUP_KL = 1e-3


_MAX_ITER_MESSAGE = "maximum iterations reached without convergence"


@dataclass(frozen=True)
class EstimatorConfig:
    """Everything that defines one weighted-likelihood estimator.

    ``weights`` is the weighting scheme, residual exponent included; the
    default is the calibrated ``WeightSpec.optimal()``.  The default
    ``depth_method`` is ``auto``: the exact algorithm for p <= 2 and the
    projection approximation otherwise.
    """

    weights: WeightSpec = field(default_factory=WeightSpec.optimal)
    depth_method: DepthMethod = DepthMethod()
    scatter_norm: str = "literal-1-over-n"
    tol: float = 1e-8
    max_iter: int = 500

    def __post_init__(self):
        if self.scatter_norm not in ("sum-of-weights", "literal-1-over-n"):
            raise ValueError("scatter_norm must be 'sum-of-weights' or 'literal-1-over-n'")
        _check_real("tol", self.tol)
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        _check_integer("max_iter", self.max_iter, 1)

    def to_dict(self) -> dict:
        return _record(self)

    @classmethod
    def from_dict(cls, d: dict) -> "EstimatorConfig":
        d = _fields(d, ("weights", "depth_method", "scatter_norm", "tol", "max_iter"),
                    required=("weights",))
        kw = {k: d[k] for k in ("scatter_norm", "tol", "max_iter") if k in d}
        kw["weights"] = WeightSpec.from_dict(d["weights"])
        if d.get("depth_method") is not None:
            kw["depth_method"] = DepthMethod.from_dict(d["depth_method"])
        return cls(**kw)


@dataclass(frozen=True, eq=False)
class FitResult:
    """One root candidate of the estimating equations.

    ``weights`` and ``residuals`` are evaluated at the returned
    parameters.  ``converged`` means the last parameter update moved
    less than ``tol`` in max-norm scaled by 1 + the new value's
    max-norm (max |new - old| / (1 + max |new|), locations and
    scatters each); otherwise ``message`` carries the failure reason.
    """

    params: GaussianParams
    weights: np.ndarray
    residuals: np.ndarray
    iterations: int
    converged: bool
    sum_weights: float
    message: str | None = None

    def to_dict(self) -> dict:
        return _record(self)


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
        return _record(self)


class Step(NamedTuple):
    """One reweighting update of S problems (see ``irwls_step``)."""

    mu: np.ndarray          # (S, p) updated locations
    sigma: np.ndarray       # (S, p, p) updated scatters
    chol: np.ndarray        # (S, p, p) their lower Cholesky factors
    weights: np.ndarray     # (S, n) at the parameters that were updated
    residuals: np.ndarray   # (S, n) likewise
    failures: dict          # stack index -> why that update failed


def _residuals_weights(x, mu, chol, emp_depths, cfg):
    d_model = _model_depth(_stacked_mahalanobis_sq(x, mu, chol))
    tau = dpr(emp_depths, d_model, cfg.weights.alpha)
    w = apply_trim(tau, weight(tau, cfg.weights), cfg.weights.trim_xi)
    return tau, w


def irwls_step(
    x: np.ndarray,
    mu: np.ndarray,
    chol: np.ndarray,
    emp_depths: np.ndarray,
    cfg: EstimatorConfig,
) -> Step:
    """One reweighting update of S problems at once.

    Problem i has data ``x[i]`` (n, p), empirical depths
    ``emp_depths[i]`` (n,), location ``mu[i]`` and the lower Cholesky
    factor ``chol[i]`` of its scatter.  ``x`` and ``emp_depths`` may
    instead be a stack of one, (1, n, p) and (1, n), that all S
    problems share, which spares a copy per problem.  Each problem's
    update is computed as in a stack of one, bit for bit.  An update
    fails when the surviving weight sums to less than p + 1 or the new
    scatter is not finite and positive definite (one that overflows
    fails silently): ``failures`` maps the problem's index to the reason
    and its rows of the new parameters are meaningless.
    """
    tau, w = _residuals_weights(x, mu, chol, emp_depths, cfg)
    n, p = x.shape[1:]
    min_eff = p + 1
    sum_w = w.sum(axis=1)
    low = sum_w < min_eff
    # A problem with too little weight steps on a stand-in unit weight at row 0
    # (no 0/0, no overflow) and is masked, so that it fails as a singular one does.
    w_fit = np.where(low[:, None], np.arange(n) == 0, w) if low.any() else w
    denom = float(n) if cfg.scatter_norm == "literal-1-over-n" else np.where(low, 1.0, sum_w)
    # A far row that keeps a positive weight can overflow the scatter: a failure.
    with np.errstate(over="ignore", invalid="ignore"):
        new_mu, new_sigma = weighted_location_scatter(x, w_fit, denom)
    new_mu[low], new_sigma[low] = np.nan, np.nan
    new_chol = _cholesky(new_sigma)
    failures = {
        int(i): f"effective sample size {sum_w[i]:.3g} below minimum {min_eff:.3g}" if low[i]
        else "updated scatter matrix is singular"
        for i in np.flatnonzero(np.isnan(new_chol).any(axis=(1, 2)))
    }
    return Step(new_mu, new_sigma, new_chol, w, tau, failures)


def _converged(mu, sigma, new_mu, new_sigma, tol: float) -> np.ndarray:
    dmu = np.abs(new_mu - mu).max(axis=1) / (1.0 + np.abs(new_mu).max(axis=1))
    dsig = np.abs(new_sigma - sigma).max(axis=(1, 2)) / (
        1.0 + np.abs(new_sigma).max(axis=(1, 2))
    )
    return np.maximum(dmu, dsig) < tol


def _starts(inits, p: int):
    """Stacked (mu, sigma, chol) of the starting values ``inits``.

    Raises ValueError when there is none or one has a dimension other
    than the data's ``p``."""
    if not inits:
        raise ValueError("at least one starting value is required")
    for init in inits:
        if init.p != p:
            raise ValueError(
                f"start has dimension {init.p} but the data have dimension {p}"
            )
    return _stack(inits, p)


def _problem_data(data, emp_depths, ds):
    """The data and depths that the problems ``ds`` step on: ``data``
    (D, n, p) and ``emp_depths`` (D, n) themselves, a stack of one that
    every problem shares, when D = 1; otherwise a (len(ds), n, p) and a
    (len(ds), n) copy holding each problem's dataset."""
    if len(data) == 1:
        return data, emp_depths
    return data[ds], emp_depths[ds]


@dataclass(frozen=True)
class _Stack:
    """Reweighting problems on D datasets of n rows each, solved.

    ``data`` is (D, n, p), ``emp_depths`` (D, n) and ``ds`` (S,) the
    dataset of each problem; the other arrays hold each problem's final
    parameters, successful steps, convergence flag and failure reason
    (None when converged).
    """

    data: np.ndarray
    emp_depths: np.ndarray
    ds: np.ndarray
    cfg: EstimatorConfig
    mu: np.ndarray
    sigma: np.ndarray
    chol: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    messages: list

    def results(self, idx) -> list:
        """FitResults of the problems ``idx``: weights and residuals at
        their parameters from one stacked evaluation per block of at most
        _ROWS data rows, as ``_solve`` steps them."""
        idx = np.asarray(idx, dtype=np.intp)
        out = []
        for b in _blocks(len(idx), self.data.shape[1]):
            part = idx[b]
            x, d = _problem_data(self.data, self.emp_depths, self.ds[part])
            mu, sigma, chol = self.mu[part], self.sigma[part], self.chol[part]
            tau, w = _residuals_weights(x, mu, chol, d, self.cfg)
            out += [
                FitResult(
                    params=params,
                    weights=w[k],
                    residuals=tau[k],
                    iterations=int(self.iterations[i]),
                    converged=bool(self.converged[i]),
                    sum_weights=float(w[k].sum()),
                    message=self.messages[i],
                )
                for k, (i, params) in enumerate(zip(part, _unstack(mu, sigma, chol)))
            ]
        return out


def _solve(data, emp_depths, ds, starts, cfg: EstimatorConfig) -> _Stack:
    """Iterate reweighting steps from every start at once.

    ``data`` (D, n, p) and ``emp_depths`` (D, n) hold the datasets,
    ``ds`` (S,) the dataset of each problem and ``starts`` its (mu,
    sigma, chol) as ``_starts`` stacks them.  Each iteration steps every
    problem left once, in consecutive blocks of at most _ROWS data rows
    (problems x n), so a step's weights, residuals and scatter
    temporaries take a block's memory whatever S is.  When D = 1,
    every block takes ``data`` and ``emp_depths`` as a stack of one that
    all its problems share; otherwise each problem of the block gets its
    own copy of its dataset (``_problem_data``).  A problem leaves the
    stack when it converges, a step fails (it keeps the parameters
    before that step) or it has taken ``cfg.max_iter`` steps.

    ``_solve`` takes ownership of the start arrays: it steps them in
    place and the returned stack holds them as its final parameters, so
    a caller passes arrays it has just made (``_starts`` copies the
    caller's GaussianParams) and does not use them afterwards.
    """
    mu, sigma, chol = starts
    S = len(ds)
    iterations = np.zeros(S, dtype=np.int64)
    converged = np.zeros(S, dtype=bool)
    messages = [None] * S
    active = np.arange(S)
    for _ in range(cfg.max_iter):
        if not active.size:
            break
        left = []
        for b in _blocks(active.size, data.shape[1]):
            part = active[b]
            x, d = _problem_data(data, emp_depths, ds[part])
            step = irwls_step(x, mu[part], chol[part], d, cfg)
            ok = np.ones(part.size, dtype=bool)
            for k, reason in step.failures.items():
                messages[part[k]] = reason
                ok[k] = False
            idx = part[ok]
            done = _converged(mu[idx], sigma[idx], step.mu[ok], step.sigma[ok], cfg.tol)
            iterations[idx] += 1
            mu[idx], sigma[idx], chol[idx] = step.mu[ok], step.sigma[ok], step.chol[ok]
            del step  # its weights and residuals would outlive the next block's step
            converged[idx[done]] = True
            left.append(idx[~done])
        active = np.concatenate(left)
    for i in active:
        messages[i] = _MAX_ITER_MESSAGE
    return _Stack(data, emp_depths, ds, cfg, mu, sigma, chol, iterations, converged,
                  messages)


def fit(
    data,
    cfg: EstimatorConfig,
    init: GaussianParams,
    emp_depths: np.ndarray | None = None,
) -> FitResult:
    """Iterate reweighting steps from ``init`` until convergence.

    ``emp_depths``, the ``empirical_depths_all`` of ``data``, may be
    passed to share the one-time depth computation across several
    starts; it must be (n,) with every entry in [0, 1].  A failed step
    aborts this start only, yielding a non-converged result with the
    reason.
    """
    data = _as_matrix(data)
    starts = _starts([init], data.shape[1])
    emp_depths = (empirical_depths_all(data, cfg.depth_method) if emp_depths is None
                  else _as_depths("emp_depths", emp_depths, len(data)))
    stack = _solve(data[None], emp_depths[None], np.zeros(1, dtype=np.intp), starts, cfg)
    return stack.results([0])[0]


def _distinct(mu: np.ndarray, chol: np.ndarray) -> list:
    """Positions of the distinct roots among the (S, p) locations ``mu``
    with lower Cholesky factors ``chol`` (S, p, p), in order.

    A root closer than DEDUP_KL in symmetrized KL, ``kl_gaussian`` both
    ways, to an earlier kept root collapses to it.  Each kept root is
    compared with every later root in one stacked call each way, and the
    next kept root is the first one no kept root covers.
    """
    covered = np.zeros(len(mu), dtype=bool)
    kept: list = []
    for i in range(len(mu)):
        if covered[i]:
            continue
        kept.append(i)
        if i + 1 < len(mu):
            one = mu[i:i + 1], chol[i:i + 1]
            rest = mu[i + 1:], chol[i + 1:]
            covered[i + 1:] |= _stacked_kl(*rest, *one) + _stacked_kl(*one, *rest) < DEDUP_KL
    return kept


def _root_sets(data, emp_depths, starts, cfg: EstimatorConfig) -> list:
    """``find_roots`` on D datasets of equal size, one stacked solve
    over the starts of all of them.

    ``data`` is (D, n, p), ``emp_depths`` (D, n) and ``starts`` one
    ``_starts`` triple per dataset; returns one RootSet per dataset.
    ``_solve`` steps the stacked starts in place: one dataset's triple
    itself, several datasets' triples concatenated into one.
    The kept roots of every dataset get their weights and residuals from
    one ``_Stack.results`` call.
    """
    if not starts:
        return []
    counts = [len(s[0]) for s in starts]
    ds = np.repeat(np.arange(len(counts)), counts)
    stacked = starts[0] if len(starts) == 1 else [np.concatenate(a) for a in zip(*starts)]
    stack = _solve(data, emp_depths, ds, stacked, cfg)
    bounds = np.cumsum([0] + counts).tolist()
    kept = []
    for lo, hi in zip(bounds, bounds[1:]):
        conv = lo + np.flatnonzero(stack.converged[lo:hi])
        kept.append(conv[_distinct(stack.mu[conv], stack.chol[conv])])
    roots = stack.results(np.concatenate(kept))
    ends = np.cumsum([0] + [len(k) for k in kept]).tolist()
    return [_root_set(stack, lo, hi, roots[a:b])
            for lo, hi, a, b in zip(bounds, bounds[1:], ends, ends[1:])]


def _root_set(stack: _Stack, lo: int, hi: int, roots: list) -> RootSet:
    """Rank ``roots``, the FitResults of the distinct converged problems
    among lo..hi-1, the starts of one dataset."""
    failures = [stack.messages[i] for i in range(lo, hi) if not stack.converged[i]]
    selected = None
    if roots:
        selected = min(
            range(len(roots)),
            key=lambda i: (-roots[i].sum_weights, roots[i].params.log_det, i),
        )

    diagnostics = {
        "n_starts": hi - lo,
        "n_converged": int(stack.converged[lo:hi].sum()),
        "n_failed": len(failures),
        "failure_reasons": failures,
    }
    return RootSet(roots=tuple(roots), selected=selected, diagnostics=diagnostics)


def find_roots(
    data,
    cfg: EstimatorConfig,
    inits,
    emp_depths: np.ndarray | None = None,
) -> RootSet:
    """Run the reweighting from every start, deduplicate and rank the
    roots.

    Every start is iterated as ``fit`` would, all of them at once.
    Converged results are compared in input order, so the result is
    deterministic, and results closer than DEDUP_KL in symmetrized KL
    collapse to the first representative.  ``emp_depths``, as in
    ``fit``, shares the depths a caller already computed (e.g. for a
    depth start).

    The starts are stacked into one set of arrays, which the solver
    then steps in place; the caller's ``inits`` are left unchanged.
    ``find_roots`` drops its reference to ``inits`` once they are
    stacked, so a list made only for this call (``find_roots(x, cfg,
    subsample_inits(x, 500, 0))``) is freed before the solve starts.
    """
    data = _as_matrix(data)
    starts = _starts(list(inits), data.shape[1])
    del inits
    emp_depths = (empirical_depths_all(data, cfg.depth_method) if emp_depths is None
                  else _as_depths("emp_depths", emp_depths, len(data)))
    return _root_sets(data[None], emp_depths[None], [starts], cfg)[0]
