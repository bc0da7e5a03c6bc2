"""Half-space (Tukey) depth.

Exact empirical depth in one and two dimensions, a seeded
random-projection approximation for any dimension, and the closed-form
population depth of a multivariate Gaussian.

All functions are pure; data arrays are never modified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .gaussian import GaussianParams, mahalanobis_sq

__all__ = [
    "DepthMethod",
    "chi2_cdf",
    "population_depth_gaussian",
    "empirical_depth",
    "empirical_depths",
    "empirical_depths_all",
    "resolve_depth_method",
]

# Smallest positive normal double.  The Gaussian population depth is
# strictly positive everywhere but underflows for squared Mahalanobis
# distances beyond ~3000; clamping keeps downstream residuals finite
# (and enormous, which is what far outliers must produce).
_DEPTH_FLOOR = float(np.finfo(np.float64).tiny)

_KINDS = ("exact-1d", "exact-2d", "projection")


def _rng(seed, *extra) -> np.random.Generator:
    """Generator keyed by ``seed`` (an int or a sequence of ints) followed
    by ``extra``; every key is masked to 64 bits."""
    keys = [seed] if isinstance(seed, (int, np.integer)) else list(seed)
    keys += extra
    return np.random.default_rng(
        np.random.SeedSequence([int(k) & ((1 << 64) - 1) for k in keys])
    )


@dataclass(frozen=True)
class DepthMethod:
    """How to evaluate empirical half-space depth.

    ``exact-1d`` and ``exact-2d`` are exact counting algorithms valid
    only for p=1 and p=2 respectively.  ``projection`` lower-bounds the
    half-space minimum over a seeded sample of directions and is valid
    for any p >= 1; its result is an upper bound on the exact depth.
    """

    kind: str
    n_directions: int | None = None
    direction_seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown depth method kind: {self.kind!r}")
        if self.kind == "projection":
            if self.n_directions is not None and self.n_directions < 1:
                raise ValueError("n_directions must be >= 1")
        elif self.n_directions is not None:
            raise ValueError("n_directions only applies to the projection method")

    @classmethod
    def exact_1d(cls) -> "DepthMethod":
        return cls("exact-1d")

    @classmethod
    def exact_2d(cls) -> "DepthMethod":
        return cls("exact-2d")

    @classmethod
    def projection(cls, n_directions: int | None = None, seed: int = 0) -> "DepthMethod":
        """Projection approximation; ``n_directions=None`` means
        ``max(1000, 100*p)`` resolved against the data dimension."""
        return cls("projection", n_directions, seed)

    def resolved_directions(self, p: int) -> int:
        if self.n_directions is not None:
            return self.n_directions
        return max(1000, 100 * p)

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind == "projection":
            d["n_directions"] = self.n_directions
            d["direction_seed"] = self.direction_seed
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "DepthMethod":
        return cls(
            d["kind"],
            d.get("n_directions"),
            int(d.get("direction_seed", 0)),
        )


def resolve_depth_method(method: DepthMethod | None, p: int, seed: int = 0) -> DepthMethod:
    """Fill in the default method for dimension ``p``.

    ``None`` picks the exact algorithm for p <= 2 and the projection
    approximation otherwise.  An explicit method is checked for
    compatibility with ``p`` and returned unchanged.
    """
    if method is None:
        if p == 1:
            return DepthMethod.exact_1d()
        if p == 2:
            return DepthMethod.exact_2d()
        return DepthMethod.projection(seed=seed)
    _check_compatible(method, p)
    return method


def _check_compatible(method: DepthMethod, p: int) -> None:
    if method.kind == "exact-1d" and p != 1:
        raise ValueError("exact-1d depth requires 1-dimensional data")
    if method.kind == "exact-2d" and p != 2:
        raise ValueError("exact-2d depth requires 2-dimensional data")


def chi2_cdf(x, k: int):
    """Chi-square CDF with ``k`` degrees of freedom.

    Evaluates the regularized lower incomplete gamma function
    P(k/2, x/2).  Accepts scalars or arrays of ``x``.
    """
    if k < 1:
        raise ValueError("degrees of freedom must be a positive integer")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x < 0):
        raise ValueError("chi2_cdf requires x >= 0")
    out = special.gammainc(0.5 * k, 0.5 * x)
    return float(out) if out.ndim == 0 else out


def population_depth_gaussian(x, params: GaussianParams):
    """Half-space depth of ``x`` under a Gaussian model.

    The least-probable closed half-space through x has its boundary
    perpendicular to the Mahalanobis-whitened offset, and the Gaussian
    mass beyond that hyperplane is a one-dimensional normal tail:

        depth = 1 - Phi(sqrt(D)) = (1 - F_chi2(D; 1)) / 2,

    with D the squared Mahalanobis distance, in every dimension.  The
    value is 0.5 exactly at the center and strictly positive
    everywhere; results that underflow are clamped to the smallest
    positive normal double.

    ``x`` may be a single p-vector or an (n, p) matrix of rows.
    """
    d2 = mahalanobis_sq(x, params)
    depth = 0.5 * special.gammaincc(0.5, 0.5 * np.asarray(d2))
    depth = np.maximum(depth, _DEPTH_FLOOR)
    return float(depth) if depth.ndim == 0 else depth


def _min_tail_counts(sorted_vals: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """min(#{v <= q}, #{v >= q}) for each query, closed on both sides."""
    le = np.searchsorted(sorted_vals, queries, side="right")
    ge = sorted_vals.size - np.searchsorted(sorted_vals, queries, side="left")
    return np.minimum(le, ge)


def _exact_count_2d(data: np.ndarray, query: np.ndarray) -> int:
    """Number of points in the least-populated closed half-plane through
    ``query``, via an angular sweep over the offsets data - query.

    Points coincident with the query lie on every boundary line and are
    counted in every half-plane.  A closed half-plane count equals
    m minus the largest number of offsets inside an open half-circle of
    directions; the half-open arcs [theta_i, theta_i + pi) enumerate all
    maximal open half-circles.
    """
    offsets = data - query
    nonzero = (offsets[:, 0] != 0.0) | (offsets[:, 1] != 0.0)
    m = int(np.count_nonzero(nonzero))
    n_coincident = data.shape[0] - m
    if m == 0:
        return data.shape[0]
    ang = np.arctan2(offsets[nonzero, 1], offsets[nonzero, 0])
    ang.sort(kind="stable")
    doubled = np.concatenate([ang, ang + 2.0 * np.pi])
    upper = np.searchsorted(doubled, ang + np.pi, side="left")
    max_open = int((upper - np.arange(m)).max())
    return n_coincident + m - max_open


def _projection_depths(
    data: np.ndarray, queries: np.ndarray, n_directions: int, seed: int
) -> np.ndarray:
    """Depth upper bounds from seeded directions uniform on the sphere.

    Each direction contributes the one-dimensional depth of the
    projected query among the projected data (both closed tails), so
    antipodal directions come for free.
    """
    n, p = data.shape
    rng = _rng(seed)
    best = np.full(queries.shape[0], n + 1, dtype=np.int64)
    remaining = n_directions
    while remaining > 0:
        chunk = min(remaining, 512)
        u = rng.standard_normal((chunk, p))
        norms = np.linalg.norm(u, axis=1)
        ok = norms > 0
        u = u[ok] / norms[ok, None]
        proj_data = data @ u.T
        proj_query = queries @ u.T
        for j in range(u.shape[0]):
            col = np.sort(proj_data[:, j])
            counts = _min_tail_counts(col, proj_query[:, j])
            np.minimum(best, counts, out=best)
        remaining -= chunk
    return best / n


def _as_matrix(data) -> np.ndarray:
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    if data.ndim != 2 or data.shape[0] == 0 or data.shape[1] == 0:
        raise ValueError("data must be a nonempty n x p matrix")
    return data


def empirical_depths(queries, data, method: DepthMethod) -> np.ndarray:
    """Empirical half-space depth of each query row w.r.t. ``data``.

    The depth of q is the minimum over directions u of the fraction of
    sample points in the closed half-space {z : u.z >= u.q}; exact
    methods minimize over all directions, projection over the seeded
    sample of directions (hence an upper bound on the exact value).
    """
    data = _as_matrix(data)
    queries = np.asarray(queries, dtype=np.float64)
    if data.shape[1] == 1:
        queries = queries.reshape(-1, 1)
    elif queries.ndim == 1:
        queries = queries[None, :]
    if queries.shape[1] != data.shape[1]:
        raise ValueError("query dimension does not match data dimension")
    n, p = data.shape
    _check_compatible(method, p)

    if method.kind == "exact-1d":
        col = np.sort(data[:, 0])
        depths = _min_tail_counts(col, queries[:, 0]) / n
    elif method.kind == "exact-2d":
        depths = np.array(
            [_exact_count_2d(data, q) for q in queries], dtype=np.float64
        ) / n
    else:
        depths = _projection_depths(
            data, queries, method.resolved_directions(p), method.direction_seed
        )
    return depths


def empirical_depth(query, data, method: DepthMethod) -> float:
    """Empirical half-space depth of a single query point."""
    data = _as_matrix(data)
    query = np.asarray(query, dtype=np.float64).reshape(-1)
    if query.shape[0] != data.shape[1]:
        raise ValueError("query dimension does not match data dimension")
    return float(empirical_depths(query[None, :], data, method)[0])


def empirical_depths_all(data, method: DepthMethod) -> np.ndarray:
    """Depth of every sample point within its own sample.

    Computed once per dataset; the result does not depend on any model
    parameters.  Every entry lies in [1/n, 1] because each point
    belongs to all closed half-spaces through itself.
    """
    data = _as_matrix(data)
    return empirical_depths(data, data, method)
