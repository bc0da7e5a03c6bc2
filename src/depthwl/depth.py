"""Half-space (Tukey) depth.

Exact empirical depth in one and two dimensions, a seeded
random-projection approximation for any dimension, and the closed-form
population depth of a multivariate Gaussian.

All functions are pure; data arrays are never modified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianParams, _as_matrix, _blocks, _check_integer, _fields, _float_array
from .gaussian import _record, mahalanobis_sq

__all__ = [
    "DepthMethod",
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

_KINDS = ("auto", "exact", "projection")

# Angle (rad) before an arc's end where the 2-D sweep checks for exact ties.
_TIE_RAD = 1e-9

# Projections ranked at once (``_block_rows``): a call's projections,
# packed keys and counts take a few block-sized arrays, made once and
# reused by every block, so memory does not grow with the direction count
# and each block's arrays stay in cache.  A block costs some twenty numpy
# calls whatever its size, so a small sample takes more directions per
# block: self-depth with 1000 directions at p = 3, 5 and 10 (n = 90, 200
# and 650) took 1.2-3x as long in blocks of 8 directions as in blocks of
# 64-128 (16-128 at n = 650).  On n = 3200 points blocks of 8, 16 and 32
# rank equally fast within timing noise and 4 is slower; 8 takes least
# memory.
_BLOCK_ENTRIES = 1 << 14

# Data reaching _HUGE in magnitude are scaled by _SHRINK, exactly, so that
# projections and 2-D offsets stay below DBL_MAX.
_HUGE, _SHRINK = 2.0**1000, 2.0**-24

# Cephes ndtr.c erfc: rational approximations on [0, 1) (as 1 - erf,
# T/U in x**2), [1, 8) (P/Q) and [8, inf) (R/S), each leading
# coefficient first and Q, U, S monic; MAXLOG = log(DBL_MAX).
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2


def _rng(seed, *extra) -> np.random.Generator:
    """Generator keyed by ``seed`` (an int or a list, tuple or array of
    ints) followed by ``extra``; every key is masked to 64 bits.  A key
    that is not an integer raises ValueError naming ``seed``."""
    keys = [*seed, *extra] if isinstance(seed, (list, tuple, np.ndarray)) else [seed, *extra]
    for k in keys:
        _check_integer("seed", k)
    return np.random.default_rng(
        np.random.SeedSequence([int(k) & ((1 << 64) - 1) for k in keys])
    )


@dataclass(frozen=True)
class DepthMethod:
    """How to evaluate empirical half-space depth.

    ``exact`` counts over all directions and is available for p <= 2:
    tail counts at p = 1, an angular sweep at p = 2; the data fix which.
    ``projection`` is valid for any p >= 1: it minimizes the half-space
    count over a seeded sample of directions instead of all of them, so
    it gives an upper bound on the exact depth.  ``auto``, the default,
    is ``exact`` for p <= 2 and ``projection`` with its directions and
    seed otherwise.  ``resolve_depth_method`` makes these choices.
    """

    kind: str = "auto"
    n_directions: int | None = None
    direction_seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown depth method kind: {self.kind!r}")
        if self.n_directions is not None:
            if self.kind == "exact":
                raise ValueError("n_directions applies only to auto and projection")
            _check_integer("n_directions", self.n_directions, 1)
        _check_integer("direction_seed", self.direction_seed)

    @classmethod
    def exact(cls) -> "DepthMethod":
        return cls("exact")

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
        return _record(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DepthMethod":
        return cls(**_fields(d, ("kind", "n_directions", "direction_seed")))


def resolve_depth_method(method: DepthMethod, p: int) -> DepthMethod:
    """The concrete method that evaluates ``method`` in dimension ``p``:
    ``exact`` or ``projection``.

    ``auto`` becomes ``exact`` for p <= 2 and the projection
    approximation, with its directions and seed, otherwise.  ``exact``
    at p > 2 raises ValueError.
    """
    if method.kind == "projection":
        return method
    if p <= 2:
        return DepthMethod.exact()
    if method.kind == "exact":
        raise ValueError("exact depth is available only for p <= 2")
    return DepthMethod.projection(method.n_directions, method.direction_seed)


def population_depth_gaussian(x, params: GaussianParams):
    """Half-space depth of ``x`` under a Gaussian model.

    The least-probable closed half-space through x has its boundary
    perpendicular to the Mahalanobis-whitened offset, and the Gaussian
    mass beyond that hyperplane is a one-dimensional normal tail:

        depth = 1 - Phi(sqrt(D)) = erfc(sqrt(D / 2)) / 2,

    with D the squared Mahalanobis distance, in every dimension.  The
    value is 0.5 exactly at the center and strictly positive
    everywhere; results that underflow are clamped to the smallest
    positive normal double.

    ``x`` may be a single p-vector or an (n, p) matrix of rows, checked
    as by ``mahalanobis_sq``.
    """
    depth = _model_depth(np.asarray(mahalanobis_sq(x, params)))
    return float(depth) if depth.ndim == 0 else depth


def _model_depth(d2: np.ndarray) -> np.ndarray:
    """Gaussian half-space depth at squared Mahalanobis distances ``d2``
    (any shape): erfc(sqrt(d2 / 2)) / 2, floored at _DEPTH_FLOOR.

    The same function as (1 - F_chi2(d2; 1)) / 2 = gammaincc(1/2, d2/2)
    / 2, and at least as accurate through ``erfc``.
    """
    return np.maximum(0.5 * _erfc(np.sqrt(0.5 * d2)), _DEPTH_FLOOR)


def _polevl(x: np.ndarray, coef, monic: bool = False) -> np.ndarray:
    """Cephes polevl (p1evl when ``monic``): Horner's rule in ``x``."""
    y = x + coef[0] if monic else np.full_like(x, coef[0])
    for c in coef[1:]:
        y *= x
        y += c
    return y


def _erfc(x: np.ndarray) -> np.ndarray:
    """Complementary error function of ``x`` >= 0 (any shape), Cephes
    ``erfc`` operation for operation.

    Bit for bit the Cephes result on [0, 1); on [1, inf) it differs only
    through ``np.exp`` against the C library's exp.  Beyond x**2 > MAXLOG
    (x about 26.64) and at inf the result is exactly 0; NaN gives NaN.
    Both branches below 8 are evaluated everywhere and selected, which
    is cheaper than gathering the rows of each.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        z = x * x
        head = 1.0 - x * _polevl(z, _ERF_T) / _polevl(z, _ERF_U, monic=True)
        body = np.exp(-z) * _polevl(x, _ERFC_P) / _polevl(x, _ERFC_Q, monic=True)
        out = np.where(x < 1.0, head, body)
        far = x >= 8.0
        if far.any():
            xf, zf = x[far], z[far]
            tail = np.exp(-zf) * _polevl(xf, _ERFC_R) / _polevl(xf, _ERFC_S, monic=True)
            out[far] = np.where(zf > _MAXLOG, 0.0, tail)
    return out


def _exact_counts_2d(data: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Number of points in the least-populated closed half-plane through
    each of the queries (D, q, 2) of each of D datasets (D, n, 2), within
    its own dataset: counts (D, q), via an angular sweep over the offsets
    data - query.

    Points coincident with the query lie on every boundary line and are
    counted in every half-plane.  A closed half-plane count equals n
    minus the largest number of offsets inside an open half-circle of
    directions; the half-open arcs [theta_i, theta_i + pi) enumerate all
    maximal open half-circles.

    The queries of all datasets are swept together, in blocks of at most
    ``gaussian._ROWS`` offsets (``_blocks``), each query's row of offsets
    against its own dataset.  Coincident offsets get angle +inf and sort
    last.  A stable argsort of [ends, doubled angles] per row counts the
    angles below each arc end, ends first as with ``side="left"``.

    Tie rule: an offset exactly opposite the arc start lies on the
    boundary, outside the arc, but rounded angles can count it.  Rounding
    only inflates counts, so while a row's maximal arc ends within
    _TIE_RAD of its last counted offset and that offset is exactly
    opposite the start (cross product 0, dot product < 0), it is dropped
    and the maximum retaken.  A row's count does not depend on the rows
    swept beside it."""
    n = data.shape[1]
    flat = queries.reshape(-1, 2)
    owner = np.repeat(np.arange(data.shape[0]), queries.shape[1])
    idx = np.arange(n)
    counts = np.empty(flat.shape[0], dtype=np.int64)
    for b in _blocks(flat.shape[0], n):
        qs, ds = flat[b], owner[b]
        rows = np.arange(qs.shape[0])
        dx, dy = data[ds, :, 0] - qs[:, :1], data[ds, :, 1] - qs[:, 1:]
        coincident = (dx == 0.0) & (dy == 0.0)
        ang = np.where(coincident, np.inf, np.arctan2(dy, dx))
        ang.sort(axis=1)
        m = n - np.count_nonzero(coincident, axis=1)
        merged = np.concatenate([ang + np.pi, ang, ang + 2.0 * np.pi], axis=1)
        # Positions of the ends in each row's stable order, the ends in order.
        ends = np.flatnonzero(merged.argsort(axis=1, kind="stable") < n).reshape(-1, n)
        inside = ends - 3 * n * rows[:, None] - 2 * idx  # offsets in [ang_i, end_i)
        inside[idx >= m[:, None]] = 0  # arcs starting at coincident points
        i = inside.argmax(axis=1)
        top = inside[rows, i]
        last = i + top - 1  # the last counted offset, in the doubled angles
        last += (n - m) * (last >= m)  # ... and in merged[:, n:]
        gap = merged[rows, i] - np.where(m > 0, merged[rows, n + last], -np.inf)
        counts[b] = n - top
        for r in np.flatnonzero(gap <= _TIE_RAD):
            arc, k, j, mr = inside[r], i[r], last[r], m[r]
            end, doubled = merged[r, :n], merged[r, n:]  # offset j % n at doubled[j]
            order = np.argsort(np.where(coincident[r], np.inf, np.arctan2(dy[r], dx[r])),
                               kind="stable")
            offsets = np.stack([dx[r], dy[r]], axis=1)[order]
            while end[k] - doubled[j] <= _TIE_RAD:
                # Scaled exactly to a largest entry in [0.5, 1): products free of the data scale.
                a, c = (np.ldexp(v, -np.frexp(np.abs(v).max())[1])
                        for v in (offsets[k], offsets[j % n]))
                if a[0] * c[1] != a[1] * c[0] or a @ c >= 0.0:
                    break
                arc[k] -= 1
                k = arc.argmax()
                j = k + arc[k] - 1
                if j >= mr:
                    j += n - mr
            counts[b.start + r] = n - arc[k]
    return counts.reshape(queries.shape[:2])


def _closed_tail_counts(proj: np.ndarray, n: int, order: np.ndarray) -> np.ndarray:
    """min(#{d <= v}, #{d >= v}) over the first ``n`` entries d of each
    row of ``proj``, for every entry v of the row, given ``order``, which
    sorts each row ascending with tied entries in any order.  The counts
    come in sorted order, entry k of a row counting column ``order[k]``:
    the data counted up to each sorted position are carried to both ends
    of its tie group by maximum/minimum accumulation."""
    srt = np.take_along_axis(proj, order, axis=1)
    upto = np.cumsum(order < n, axis=1) if proj.shape[1] > n else np.arange(1, n + 1)
    tied = srt[:, 1:] == srt[:, :-1]
    below = np.zeros(proj.shape, dtype=np.int64)
    np.maximum.accumulate(np.where(tied, 0, upto[..., :-1]), axis=1, out=below[:, 1:])
    through = np.full(proj.shape, n, dtype=np.int64)
    np.minimum.accumulate(np.where(tied, n, upto[..., :-1])[:, ::-1], axis=1,
                          out=through[:, -2::-1])
    return np.minimum(through, n - below, out=below)


def _self_counts(n: int, r: int) -> np.ndarray:
    """min(k + 1, n - k) for k < n, repeated r times: the least closed-tail
    counts along each of r sorted rows of n distinct data entries."""
    k = np.arange(n)
    return np.tile(np.minimum(k + 1, n - k), r)


def _work_arrays(r: int, m: int, n: int) -> np.ndarray:
    """Work arrays for ``_min_tail_counts`` on up to r rows of m entries,
    the first n of them data: int64 (2, r, m), or (3, r, m) when m > n."""
    return np.empty((2 + (m > n), r, m), dtype=np.int64)


def _min_tail_counts(
    rows: np.ndarray, n: int, work: np.ndarray, tiled: np.ndarray | None, best: np.ndarray
) -> np.ndarray:
    """Each column's least closed-tail count over the rows of ``rows``
    (``_closed_tail_counts`` in argsort order, minimized over the rows),
    from one sort of packed keys.

    Every entry of ``rows`` must be finite, as ``_stacked_depths``, the
    one caller, guarantees: it takes validated samples and queries and
    scales a dataset reaching _HUGE by _SHRINK, so no projection exceeds
    sqrt(p) * _HUGE in magnitude.

    An entry's key is the double whose bits are its value's (-0.0 made
    +0.0 first) with the low b = (m - 1).bit_length() bits replaced by
    its column index, m the row width; the keys are sorted as doubles.
    The keys of one sign and truncated magnitude fill a range of doubles
    holding no other key, so in a row whose truncated values all differ
    the values are distinct and the sort gives their order: the entry at
    sorted position k with ``upto`` data entries at or before it counts
    min(upto, n - upto + is_data).  Distinct keys compare equal only as
    -0.0 and +0.0, and both would need column 0.  Rows with equal
    truncated values (exact ties, duplicate columns, near ties) go
    through ``_closed_tail_counts``, the one tie rule, in the key order,
    argsorted first where it is not ascending (a clash joined distinct
    values).

    ``work``, overwritten, is C-contiguous int64 of shape (2, R, m), or
    (3, R, m) when m > n, with R >= r (``_work_arrays``), and ``tiled``,
    read only when m == n, is ``_self_counts(n, R)``.  The counts are
    minimized into ``best``, an int64 (m,) array, and it is returned.
    A caller ranking many blocks reuses all three, so that no block
    allocates an array of its size.
    """
    r, m = rows.shape
    b = (m - 1).bit_length()
    work = work[:, :r]
    keys, col = work[0], work[1]
    fkeys = keys.view(np.float64)
    np.add(rows, 0.0, out=fkeys)
    keys &= np.int64(-1 << b)
    keys |= np.arange(m)
    fkeys.sort(axis=1)
    np.bitwise_and(keys, (1 << b) - 1, out=col)
    top = np.right_shift(keys, b, out=keys)
    clean = (top[:, 1:] != top[:, :-1]).all(axis=1)
    tied = not clean.all()
    order = col[clean] if tied else col
    if m > n:
        k = order.shape[0]
        is_data = np.less(order, n, out=work[2, :k])
        upto = np.cumsum(is_data, axis=1, out=keys[:k])
        is_data += n
        counts = np.minimum(upto, np.subtract(is_data, upto, out=is_data), out=upto)
    else:
        counts = tiled[:order.size]
    # ufunc.at is fast only for one flat index array and values of its
    # shape (broadcast values crash numpy 2.4 on large inputs).
    np.minimum.at(best, order.ravel(), counts.ravel())
    if tied:
        rest, order = rows[~clean], col[~clean]
        srt = np.take_along_axis(rest, order, axis=1)
        resort = ~(srt[:, 1:] >= srt[:, :-1]).all(axis=1)
        order[resort] = rest[resort].argsort(axis=1)
        np.minimum.at(best, order.ravel(), _closed_tail_counts(rest, n, order).ravel())
    return best


def _block_rows(m: int) -> int:
    """Directions projected and ranked at once for m points: the power of
    two at or below _BLOCK_ENTRIES / m, from 8 to one 512-direction chunk."""
    return min(1 << (max(_BLOCK_ENTRIES // m, 8).bit_length() - 1), 512)


def _projection_depths(
    data: np.ndarray, queries: np.ndarray, n_directions: int, seed: int
) -> np.ndarray:
    """Depth upper bounds from seeded directions uniform on the sphere.

    Each direction contributes the one-dimensional depth of the
    projected query among the projected data (both closed tails), so
    antipodal directions come for free.  Directions are drawn 512 at a
    time and projected and ranked ``_block_rows(n + q)`` at a time,
    queries other than the data stacked after the data's points, in
    buffers made once per call: memory is O(max(8 (n + q), 16384))
    whatever the direction count.
    """
    n, p = data.shape
    q = queries.shape[0]
    pts = data if np.array_equal(queries, data) else np.concatenate([data, queries])
    m = pts.shape[0]
    r = _block_rows(m)
    proj = np.empty(m * r)
    work = _work_arrays(r, m, n)
    tiled = _self_counts(n, r) if m == n else None
    rng = _rng(seed)
    best = np.full(m, n + 1, dtype=np.int64)
    remaining = n_directions
    while remaining > 0:
        chunk = min(remaining, 512)
        u = rng.standard_normal((chunk, p))
        norms = np.linalg.norm(u, axis=1)
        ok = norms > 0
        u = u[ok] / norms[ok, None]
        for j in range(0, u.shape[0], r):
            block = u[j:j + r]
            # pts @ block.T, as the per-chunk product: block @ pts.T can
            # round two copies of one point's projection differently.
            rows = np.matmul(pts, block.T, out=proj[:m * block.shape[0]].reshape(m, -1))
            _min_tail_counts(rows.T, n, work, tiled, best)
        remaining -= chunk
    return best[-q:] / n


def _stacked_depths(data: np.ndarray, queries: np.ndarray, method: DepthMethod) -> np.ndarray:
    """Empirical depths (D, q) of the validated queries (D, q, p) of each
    of D validated datasets (D, n, p) within it.

    Each dataset reaching _HUGE in magnitude is scaled by _SHRINK, with
    its queries, on its own.  Exact p = 2 sweeps all datasets' queries
    at once; projection ranks one dataset at a time.  Exact p = 1 is
    projection onto one direction: every unit direction is +-1 (a draw
    u normalized by sqrt(u * u) exactly), and both tails are counted.
    """
    D, n, p = data.shape
    method = resolve_depth_method(method, p)
    if not D:
        return np.empty(queries.shape[:2])
    huge = np.maximum(np.abs(data).max(axis=(1, 2)), np.abs(queries).max(axis=(1, 2))) >= _HUGE
    if huge.any():
        scale = np.where(huge, _SHRINK, 1.0)[:, None, None]
        data, queries = data * scale, queries * scale
    if method.kind == "exact" and p == 2:
        return _exact_counts_2d(data, queries) / n
    k = 1 if method.kind == "exact" else method.resolved_directions(p)
    seed = method.direction_seed
    return np.array([_projection_depths(x, qs, k, seed) for x, qs in zip(data, queries)])


def empirical_depths(queries, data, method: DepthMethod) -> np.ndarray:
    """Empirical half-space depth of each query row w.r.t. ``data``.

    The depth of q is the minimum over directions u of the fraction of
    sample points in the closed half-space {z : u.z >= u.q}; exact
    methods minimize over all directions, projection over the seeded
    sample of directions (hence an upper bound on the exact value).
    ``queries`` is a (q, p) matrix; a vector is one query, or q queries
    when p = 1.  Empty or non-finite data or query points, or queries of
    another dimension, raise ValueError.
    """
    data = _as_matrix(data)
    n, p = data.shape
    queries = _as_matrix(np.reshape(queries, (-1, 1)) if p == 1 and np.ndim(queries) < 2
                         else np.atleast_2d(queries))
    if queries.shape[1] != p:
        raise ValueError("query dimension does not match data dimension")
    return _stacked_depths(data[None], queries[None], method)[0]


def empirical_depth(query, data, method: DepthMethod) -> float:
    """Empirical half-space depth of a single query point."""
    return float(empirical_depths(np.reshape(query, (1, -1)), data, method)[0])


def empirical_depths_all(data, method: DepthMethod) -> np.ndarray:
    """Depth of every sample point within its own sample.

    ``data`` is one sample, (n, p) or (n,), giving (n,) depths, or a
    stack of D samples of equal size (D, n, p), giving (D, n): each
    sample is validated as one, and the stack is evaluated in one pass
    (one sweep over all of them for exact depth at p = 2), every row bit
    for bit its own sample's call.  The result does not depend on any
    model parameters.  Every entry lies in [1/n, 1] because each point
    belongs to all closed half-spaces through itself.
    """
    stack = _float_array("data", data)
    if stack.ndim < 3:
        return empirical_depths(data, data, method)
    for sample in stack:
        _as_matrix(sample)
    return _stacked_depths(stack, stack, method)


def _as_depths(name: str, depths, n: int) -> np.ndarray:
    """Caller-supplied ``empirical_depths_all`` of an n-row sample as an
    (n,) float array; ValueError naming ``name`` unless it has that
    shape and every entry is finite and in [0, 1]."""
    depths = _float_array(name, depths)
    if depths.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {depths.shape}")
    if not np.all((depths >= 0.0) & (depths <= 1.0)):
        raise ValueError(f"{name} must be finite and in [0, 1]")
    return depths
