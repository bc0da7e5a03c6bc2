"""Multivariate Gaussian family: Mahalanobis distance, closed-form MLE
and Kullback-Leibler divergence.

The scatter matrix is always handled through its Cholesky factor; a
factorization failure means the matrix is not symmetric positive
definite and raises ValueError rather than being silently regularized.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field, fields

import numpy as np

__all__ = [
    "GaussianParams",
    "SingularCovarianceError",
    "mahalanobis_sq",
    "mle_fit",
    "kl_gaussian",
]

_SYM_TOL = 1e-12

# A stacked pass over S problems of n rows each (the solver's steps, the
# roots' weights, a stack of MLEs, the exact 2-D sweep's queries against
# n points) takes them in blocks of at most this many rows, S x n, and at
# least one problem (``_blocks``).  A block's per-row arrays then take
# 64 KB and its (rows, p) temporaries 64p KB whatever S is.  find_roots
# at p = 10 (n = 650, 500 starts) and p = 20 (n = 2300, 60 starts) peaks
# at about 38.9 and 40.5 MB in process in blocks of 8192 rows, 40.6 and
# 44.8 MB in blocks of 16,384, and 53.3 and 61.3 MB (with each start held
# three times) in 65,536-row chunks, each solved to convergence before
# the next: larger blocks add memory, and they were no faster.
_ROWS = 1 << 13


class SingularCovarianceError(ValueError):
    """A sample covariance is finite but not positive definite."""


@dataclass(frozen=True, eq=False)
class GaussianParams:
    """Location vector and SPD scatter matrix of a p-variate Gaussian."""

    mu: np.ndarray
    sigma: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)  # lower Cholesky factor of sigma

    def __post_init__(self):
        for name in ("mu", "sigma"):
            object.__setattr__(self, name, _float_array(name, getattr(self, name)))
        mu, sigma = self.mu.reshape(-1), self.sigma
        if sigma.shape != (mu.size, mu.size):
            raise ValueError("sigma must be a p x p matrix matching mu")
        scale = float(np.abs(sigma).max())
        if not (math.isfinite(scale) and np.isfinite(mu).all()):
            raise ValueError("mu and sigma must be finite")
        if float(np.abs(sigma - sigma.T).max()) > _SYM_TOL * max(1.0, scale):
            raise ValueError("sigma is not symmetric")
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            raise ValueError("sigma is not positive definite") from None
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "chol", chol)

    @property
    def p(self) -> int:
        return self.mu.size

    @property
    def log_det(self) -> float:
        """Log-determinant of the scatter matrix, from its Cholesky factor."""
        return float(_log_det(self.chol))

    def to_dict(self) -> dict:
        return _record(self)

    @classmethod
    def from_dict(cls, d: dict) -> "GaussianParams":
        d = _fields(d, ("mu", "sigma"), required=("mu", "sigma"))
        return cls(d["mu"], d["sigma"])

    @classmethod
    def standard(cls, p: int) -> "GaussianParams":
        """N_p(0, I); the identity is its own Cholesky factor."""
        _check_integer("p", p, 1)
        return _unstack(np.zeros((1, p)), np.eye(p)[None], np.eye(p)[None])[0]


def _blocks(count: int, n: int):
    """Consecutive slices over ``count`` stacked problems of ``n`` rows
    each, at most _ROWS rows and at least one problem a slice."""
    step = max(1, _ROWS // n)
    return [slice(lo, lo + step) for lo in range(0, count, step)]


def _stack(params, p: int):
    """Stacked (mu, sigma, chol) of S >= 0 parameter sets of dimension ``p``."""
    return (np.array([g.mu for g in params]).reshape(-1, p),
            np.array([g.sigma for g in params]).reshape(-1, p, p),
            np.array([g.chol for g in params]).reshape(-1, p, p))


def _unstack(mu, sigma, chol) -> list:
    """The rows of a ``_stack`` whose factors this library computed
    (``_cholesky``, ``_mle_fits``) as GaussianParams, neither checked
    nor factored again; outside input goes through the constructor."""
    out = [object.__new__(GaussianParams) for _ in range(len(mu))]
    for params, row in zip(out, zip(mu, sigma, chol)):
        params.__dict__.update(zip(("mu", "sigma", "chol"), row))
    return out


def _record(obj) -> dict:
    """The JSON object of the dataclass ``obj``: its init fields by name,
    in declaration order.  A value with ``to_dict`` goes through it;
    arrays and tuples become lists."""
    def value(v):
        if hasattr(v, "to_dict"):
            return v.to_dict()
        if isinstance(v, tuple):
            return [value(x) for x in v]
        return v.tolist() if isinstance(v, np.ndarray) else v
    return {f.name: value(getattr(obj, f.name)) for f in fields(obj) if f.init}


def _check_integer(name: str, x, low: int | None = None) -> None:
    """Raise ValueError naming ``name`` unless ``x`` is a Python or numpy
    integer (bool is not one) of at least ``low``."""
    if not (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            and (low is None or x >= low)):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be an integer{bound}, got {x!r}")


def _check_real(name: str, x) -> None:
    """Raise ValueError naming ``name`` unless ``x`` is a Python or numpy
    real number (bool is not one) that a float can hold; ranges are the
    caller's to check."""
    if not isinstance(x, (int, float, np.integer, np.floating)) or isinstance(x, bool):
        raise ValueError(f"{name} must be a real number, got {x!r}")
    try:
        float(x)
    except OverflowError:
        raise ValueError(f"{name} is an integer too large for a float") from None


def _fields(d, allowed, required=()) -> dict:
    """The config JSON object ``d``, unchanged; ValueError unless it is a
    dict whose keys are among ``allowed`` and include ``required``."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {d!r}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ValueError(f"unknown fields: {sorted(unknown)}")
    missing = [k for k in required if k not in d]
    if missing:
        raise ValueError(f"missing fields: {missing}")
    return d


def _float_array(name: str, x) -> np.ndarray:
    """``x`` as a float64 array; ValueError naming ``name`` when it is
    not a rectangular array of real numbers (a string or object entry,
    a ragged row) or holds an integer too large for a float."""
    try:
        return np.asarray(x, dtype=np.float64)
    except OverflowError:
        raise ValueError(f"{name} holds an integer too large for a float") from None
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a rectangular array of real numbers") from None


def _as_matrix(data) -> np.ndarray:
    """``data`` as a float64 n x p matrix, a 1-D array as one column.

    The one check of a sample and of depth query points: raises
    ValueError unless every entry is a real number a float can hold and
    the matrix is nonempty and free of NaN and inf."""
    data = _float_array("data", data)
    if data.ndim not in (1, 2) or data.size == 0:
        raise ValueError("data must be a nonempty n x p matrix")
    data = data.reshape(data.shape[0], -1)
    if not np.isfinite(data).all():
        raise ValueError("data must be finite (no NaN or inf)")
    return data


def _log_det(chol: np.ndarray) -> np.ndarray:
    """Log-determinants of the scatter matrices with lower Cholesky
    factors ``chol`` (p, p) or (S, p, p): 2 sum(log diag)."""
    return 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)


def mahalanobis_sq(x, params: GaussianParams):
    """Squared Mahalanobis distance (x - mu)' sigma^{-1} (x - mu).

    Computed through a triangular solve against the Cholesky factor, a
    stack of one of ``_stacked_mahalanobis_sq``.  ``x`` may be a single
    p-vector or an (n, p) matrix; the result is a scalar or a length-n
    vector accordingly.  ValueError names ``x`` unless it has one of
    those shapes and its entries are finite real numbers.
    """
    x = _float_array("x", x)
    single = x.ndim < 2
    if x.ndim > 2 or np.atleast_1d(x).shape[-1] != params.p:
        raise ValueError(f"x must be a {params.p}-vector or an n x {params.p} matrix, "
                         f"got shape {x.shape}")
    x = np.atleast_2d(x)
    if not np.isfinite(x).all():
        raise ValueError("x must be finite (no NaN or inf)")
    d2 = _stacked_mahalanobis_sq(x[None], params.mu[None], params.chol[None])
    return float(d2[0, 0]) if single else d2[0]


def _stacked_mahalanobis_sq(x: np.ndarray, mu: np.ndarray, chol: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances of S problems at once.

    ``x`` is (S, n, p), ``mu`` (S, p) and ``chol`` (S, p, p) lower
    Cholesky factors; the result is (S, n).  Any of the three may be a
    stack of one, broadcast against the others.  The whitened offsets
    come from forward substitution over the p columns, each column one
    elementwise pass over the stack, so a problem's distances do not
    depend on what else is in the stack.  Overflow and NaN propagate
    silently.
    """
    z = []
    d2 = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(x.shape[2]):
            zj = x[:, :, j] - mu[:, j, None]
            for k in range(j):
                zj = zj - chol[:, j, k, None] * z[k]
            zj = zj / chol[:, j, j, None]
            z.append(zj)
            d2 += zj * zj
    return d2


def weighted_location_scatter(data: np.ndarray, w: np.ndarray, denom):
    """Weighted mean and (mean-centered) weighted scatter sum / denom.

    ``data`` is an (n, p) matrix with (n,) weights and a scalar
    ``denom``, or an (S, n, p) stack with (S, n) weights and a scalar
    or (S,) ``denom``.  Both use one per-item matrix product, so a
    stacked item is bit for bit its own 2-D call.  Shared by the
    maximum likelihood fit (unit weights, denom = n) and the
    reweighting iteration so that the unit-weight fixed point is
    bit-for-bit the MLE.
    """
    sw = w.sum(axis=-1)
    mu = np.matmul(w[..., None, :], data)[..., 0, :] / sw[..., None]
    centered = data - mu[..., None, :]
    sigma = np.matmul(centered.swapaxes(-1, -2) * w[..., None, :], centered)
    sigma = sigma / np.asarray(denom)[..., None, None]
    sigma = 0.5 * (sigma + sigma.swapaxes(-1, -2))
    return mu, sigma


def _cholesky(sigma: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack of symmetric matrices, NaN for
    those that are not finite and positive definite."""
    out = np.full_like(sigma, np.nan)
    finite = np.isfinite(sigma).all(axis=(1, 2))
    try:
        out[finite] = np.linalg.cholesky(sigma[finite])
    except np.linalg.LinAlgError:
        for i in np.flatnonzero(finite):
            with contextlib.suppress(np.linalg.LinAlgError):
                out[i] = np.linalg.cholesky(sigma[i])
    return out


def _mle_fits(data: np.ndarray):
    """The moments of ``mle_fit`` for a stack of S finite samples (S, n, p)
    at once, each item bit for bit its own fit's: locations (S, p),
    scatters (S, p, p) and lower Cholesky factors (S, p, p), from one
    ``weighted_location_scatter`` call per block of at most _ROWS rows
    and one batched Cholesky.  A scatter that overflows or is singular
    gets a NaN factor; ``_check_fit`` raises what ``mle_fit`` raises for
    it."""
    S, n, p = data.shape
    mu, sigma = np.empty((S, p)), np.empty((S, p, p))
    with np.errstate(over="ignore", invalid="ignore"):
        for b in _blocks(S, n):
            block = data[b]
            mu[b], sigma[b] = weighted_location_scatter(block, np.ones(block.shape[:2]), float(n))
    return mu, sigma, _cholesky(sigma)


def _check_fit(sigma: np.ndarray, chol: np.ndarray) -> None:
    """Raise ValueError when the scatter ``sigma`` of one ``_mle_fits``
    item overflows, SingularCovarianceError when its factor ``chol`` is
    NaN for another reason."""
    if not np.isfinite(sigma).all():
        raise ValueError("sample covariance overflows float64; rescale the data")
    if np.isnan(chol).any():
        raise SingularCovarianceError("sample covariance is singular")


def mle_fit(data) -> GaussianParams:
    """Maximum likelihood estimate: sample mean and 1/n covariance.

    The 1/n normalization is the fixed point of the unweighted score
    equations.  Raises ValueError on data ``_as_matrix`` rejects, a
    sample covariance beyond the float64 range (data of scale about
    1e154 and above) or a singular one (e.g. identical rows or n <= p).
    A stack of one of ``_mle_fits``.
    """
    mu, sigma, chol = _mle_fits(_as_matrix(data)[None])
    _check_fit(sigma[0], chol[0])
    return _unstack(mu, sigma, chol)[0]


def kl_gaussian(p0: GaussianParams, p1: GaussianParams) -> float:
    """KL divergence KL(N(mu0, sigma0) || N(mu1, sigma1)), closed form.

    0.5 * (tr(S1^-1 S0) + (mu1-mu0)' S1^-1 (mu1-mu0) - p
           + log det S1 - log det S0),

    clamped at 0; a stack of one of ``_stacked_kl``.
    """
    if p0.p != p1.p:
        raise ValueError("dimension mismatch")
    kl = _stacked_kl(p0.mu[None], p0.chol[None], p1.mu[None], p1.chol[None])
    return float(kl[0])


def _stacked_kl(mu0, chol0, mu1, chol1) -> np.ndarray:
    """KL(N0 || N1) of S pairs at once, as in ``kl_gaussian``.

    Each side is ``mu`` (S, p) and the lower Cholesky factors ``chol``
    (S, p, p), which also give the log-determinants; either side may be
    a stack of one, broadcast against the other.  One whitening by
    ``chol1`` gives both the trace, tr(S1^-1 S0) = ||L1^-1 L0||_F^2
    from the rows of L0', and the quadratic term from mu0 - mu1, so a
    pair's divergence does not depend on what else is in the stack.
    """
    p = mu0.shape[-1]
    rows = np.empty((*np.broadcast_shapes(mu0.shape[:1], mu1.shape[:1]), p + 1, p))
    rows[:, :p] = chol0.swapaxes(-1, -2)
    rows[:, p] = mu0 - mu1
    d2 = _stacked_mahalanobis_sq(rows, np.zeros((len(rows), p)), chol1)
    trace = d2[:, 0]
    for i in range(1, p):
        trace = trace + d2[:, i]
    kl = 0.5 * (trace + d2[:, p] - p + _log_det(chol1) - _log_det(chol0))
    return np.maximum(kl, 0.0)
