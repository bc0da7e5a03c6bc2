"""Property-based invariants: exact 2-D depth against integer brute
forces on small and on wide lattices, the 2-D sweep in blocks of any
size, stacked empirical depth against one call per sample, projection
depth against the per-direction loop and against exact depth, the
packed-key ranking against the tie rule, the residual lower bound,
trimming and its median against ``np.median``, row-wise trimming
against the 1-D call, the log-determinant from the factor, the
rejection of non-finite samples and of integers too large for a float
at every entry point that takes a sample, and the JSON round trip of
every config its constructor accepts."""

import json
import math

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from depthwl import (
    DepthMethod,
    EstimatorConfig,
    GaussianParams,
    GridConfig,
    InitSpec,
    WeightSpec,
    apply_trim,
    depth_init,
    dpr,
    empirical_depth,
    empirical_depths,
    empirical_depths_all,
    find_roots,
    fit,
    mle_fit,
    resolve_depth_method,
    subsample_inits,
)
from depthwl import depth, gaussian

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)

# Small integer points: many exact ties, coincident and collinear points.
INT_POINTS = hnp.arrays(
    np.int64,
    st.tuples(st.integers(1, 12), st.just(2)),
    elements=st.integers(-3, 3),
)


# Every integer point of the square the data are drawn from.
GRID_QUERIES = np.stack(
    np.meshgrid(np.arange(-3, 4), np.arange(-3, 4)), axis=-1
).reshape(-1, 2)


def brute_force_counts_2d(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Depth counts by exact integer arithmetic over all integer
    directions with components in [-12, 12].

    Offsets have components in [-6, 6], so every direction where a
    half-plane count changes is perpendicular to such an offset, and
    the sum of two neighbouring ones (components <= 12) lies strictly
    between them: the set meets every open sector and every boundary
    direction, hence attains the minimum closed half-plane count.
    """
    grid = np.arange(-12, 13)
    dirs = np.stack(np.meshgrid(grid, grid), axis=-1).reshape(-1, 2)
    dirs = dirs[(dirs != 0).any(axis=1)]
    offsets = points[None, :, :] - queries[:, None, :]
    return ((offsets @ dirs.T) >= 0).sum(axis=1).min(axis=1)


@PROPERTY
@given(INT_POINTS)
def test_exact_2d_matches_integer_brute_force(points):
    got = empirical_depths(GRID_QUERIES, points, DepthMethod.exact())
    want = brute_force_counts_2d(GRID_QUERIES, points) / len(points)
    assert np.array_equal(got, want)


@PROPERTY
@given(INT_POINTS)
def test_batched_2d_sweep_matches_brute_force(points):
    points = points.astype(np.float64)
    got = depth._exact_counts_2d(points[None], GRID_QUERIES[None].astype(np.float64))[0]
    assert np.array_equal(got, brute_force_counts_2d(GRID_QUERIES, points))


def brute_force_counts_wide(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Depth counts of integer queries among integer points by exact
    int64 arithmetic, for coordinates up to about 1000 in magnitude.

    A closed half-plane count can only fall when the direction leaves a
    line perpendicular to an offset o, and two such lines through
    distinct nonzero offsets (components at most 2M in magnitude, M the
    largest coordinate) lie more than 1 / (8 M**2) rad apart.  So the
    directions K perp(o) +- o and -K perp(o) +- o, with K = 8 (M + 1)**2 + 1,
    fall in every open sector between those lines and attain the minimum.
    A zero offset gives the zero direction, which counts every point.
    """
    offsets = points[None, :, :] - queries[:, None, :]
    big = max(np.abs(points).max(), np.abs(queries).max())
    k = 8 * (int(big) + 1) ** 2 + 1
    perp = np.stack([-offsets[..., 1], offsets[..., 0]], axis=-1)
    dirs = np.concatenate([s * k * perp + t * offsets for s in (1, -1) for t in (1, -1)], axis=1)
    return (np.einsum("qnc,qdc->qnd", offsets, dirs) >= 0).sum(axis=1).min(axis=1)


@st.composite
def wide_lattice_samples(draw):
    """Integer points with coordinates up to 1000 in magnitude, n <= 80,
    half of them on 2-4 lattice lines (collinear and exactly opposite
    offsets), and as queries the points themselves plus lattice points."""
    n = draw(st.integers(1, 80))
    if draw(st.booleans()):
        k = draw(st.integers(2, 4))
        bases = draw(hnp.arrays(np.int64, (k, 2), elements=st.integers(-500, 500)))
        steps = draw(hnp.arrays(np.int64, (k, 2), elements=st.integers(-20, 20)))
        line = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
        t = draw(hnp.arrays(np.int64, n, elements=st.integers(-25, 25)))
        points = bases[line] + t[:, None] * steps[line]
    else:
        points = draw(hnp.arrays(np.int64, (n, 2), elements=st.integers(-1000, 1000)))
    extra = draw(hnp.arrays(np.int64, st.tuples(st.integers(0, 10), st.just(2)),
                            elements=st.integers(-1000, 1000)))
    return points, np.concatenate([points, extra])


@PROPERTY
@given(wide_lattice_samples())
# Collinear with each end doubled: at the middle point the tie rule drops
# two offsets from one maximal arc, and then the next maximal arc, which
# wraps past 2 pi, also ends exactly opposite its start.
@example((np.array([[-3, 3], [0, 1], [3, -1], [3, -1], [-3, 3]]),) * 2)
def test_exact_2d_matches_wide_integer_brute_force(sample):
    points, queries = sample
    got = empirical_depths(queries, points, DepthMethod.exact())
    assert np.array_equal(got, brute_force_counts_wide(queries, points) / len(points))


@pytest.mark.parametrize("batch", [1, 7, 1 << 16])
def test_batched_2d_sweep_chunks(monkeypatch, batch):
    # Self-depth and separate queries across query chunks that start and
    # end inside a dataset's queries and span several datasets, against
    # the same call in blocks of the default size.  The integer data lie on
    # five lattice lines through the origin, so exactly opposite offsets
    # abound: rows the tie rule applies to fall in each default block.
    rng = np.random.default_rng(batch)
    data = rng.standard_normal((3, 40, 2))
    steps = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [2, 1]])
    ints = rng.integers(-3, 4, (12, 40, 1)) * steps[rng.integers(0, 5, (12, 40))]
    ints = ints.astype(np.float64)
    grid = np.tile(GRID_QUERIES, (12, 1, 1)).astype(np.float64)
    cases = [(data, data), (data, rng.standard_normal((3, 25, 2))), (ints, ints), (ints, grid)]
    want = [depth._exact_counts_2d(x, queries) for x, queries in cases]
    monkeypatch.setattr(gaussian, "_ROWS", batch)
    for (x, queries), counts in zip(cases, want):
        assert np.array_equal(depth._exact_counts_2d(x, queries), counts)


@pytest.mark.parametrize(
    "data, queries, counts",
    [
        # all points coincide: every closed half-plane holds all of them
        ([[1.0, 1.0]] * 5, [[1.0, 1.0], [0.0, 0.0]], [5, 0]),
        # (1, 2) is the midpoint of the other two points (exact tie)
        ([[1.0, 2.0], [3.0, 3.0], [-1.0, 1.0]], None, [2, 1, 1]),
        # a query on a data point whose maximal arc wraps past 2 pi and
        # ends exactly opposite its start
        ([[0.0, 0.0], [-3.0, 2.0], [3.0, -2.0], [-2.0, -1.0], [-3.0, 2.0]],
         [[0.0, 0.0]], [2]),
    ],
)
def test_batched_2d_sweep_ties(data, queries, counts):
    data = np.array(data)
    queries = data if queries is None else np.array(queries)
    got = depth._exact_counts_2d(data[None], queries[None])[0]
    assert np.array_equal(got, counts)


@st.composite
def depth_stacks(draw):
    """A stack of D samples (D, n, p) of small integers, so with exact
    ties and duplicate rows, and a depth method that applies at p.  Some
    samples are scaled past ``depth._HUGE`` or to where a further
    ``depth._SHRINK`` would underflow, so that each sample must decide
    its own scaling."""
    d, n, p = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(1, 3))
    rows = draw(hnp.arrays(np.int64, (d, n), elements=st.integers(0, 5)))
    values = draw(hnp.arrays(np.int64, (d, 6, p), elements=st.integers(-3, 3)))
    stack = np.take_along_axis(values, rows[..., None], axis=1).astype(np.float64)
    scales = draw(st.lists(st.sampled_from([1.0, 1.0, 2.0**1000, 2.0**-1060]),
                           min_size=d, max_size=d))
    stack *= np.array(scales)[:, None, None]
    kinds = ["projection"] + ["exact"] * (p <= 2)
    kind = draw(st.sampled_from(kinds))
    method = DepthMethod.exact() if kind == "exact" else DepthMethod.projection(40, seed=d)
    return stack, method


@PROPERTY
@given(depth_stacks())
def test_stacked_depths_match_per_sample_calls(case):
    stack, method = case
    got = empirical_depths_all(stack, method)
    want = np.array([empirical_depths_all(x, method) for x in stack])
    assert got.shape == stack.shape[:2]
    assert got.tobytes() == want.tobytes()


@PROPERTY
@given(depth_stacks(), st.data())
def test_stacked_depths_reject_one_non_finite_sample(case, draw):
    stack, method = case
    index = tuple(draw.draw(st.integers(0, k - 1)) for k in stack.shape)
    stack[index] = draw.draw(st.sampled_from([np.nan, np.inf]))
    with pytest.raises(ValueError, match="finite"):
        empirical_depths_all(stack, method)


def reference_projection_depths(data, queries, n_directions, seed):
    """The per-direction loop the rank counting replaced: the same seeded
    directions, each projected column sorted and both closed tails of
    every query found by binary search."""
    n, p = data.shape
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
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
            le = np.searchsorted(col, proj_query[:, j], side="right")
            ge = n - np.searchsorted(col, proj_query[:, j], side="left")
            np.minimum(best, np.minimum(le, ge), out=best)
        remaining -= chunk
    return best / n


# Integer data in a small box has many tied projections (at p <= 3 every
# projected row ties and takes the tie path); standard-normal data has
# none, and takes the packed-key path.
LOOP_DATA = [(p, normal) for normal in (False, True) for p in (1, 2, 3, 5)]


@pytest.mark.parametrize("n_queries", [0, 17, 30], ids=["self", "17", "30"])
@pytest.mark.parametrize("n_directions", [1, 511, 513, 1100])
@pytest.mark.parametrize("p, normal", LOOP_DATA,
                         ids=[f"{p}-normal" if normal else str(p) for p, normal in LOOP_DATA])
def test_projection_matches_per_direction_loop(p, normal, n_directions, n_queries):
    # The direction counts cross the 512-direction chunk and the ranking
    # block; a query set other than the data may have the data's shape.
    rng = np.random.default_rng(100 * p + n_directions)
    if normal:
        data = rng.standard_normal((30, p))
        queries = rng.standard_normal((n_queries, p)) if n_queries else data
    else:
        data = rng.integers(-2, 3, (30, p)).astype(np.float64)
        queries = rng.integers(-3, 4, (n_queries, p)).astype(np.float64) if n_queries else data
    got = empirical_depths(queries, data, DepthMethod.projection(n_directions, seed=p))
    want = reference_projection_depths(data, queries, n_directions, p)
    assert np.array_equal(got, want)


def test_projection_matches_per_direction_loop_overflow():
    # Data near 1e308, whose projections overflow, are ranked as the
    # same data scaled down by a power of two.
    rng = np.random.default_rng(7)
    data = np.clip(rng.standard_normal((40, 2)), -1.4, 1.4) * 1.2e308
    for queries in (data, data[::3] * 0.5):
        got = empirical_depths(queries, data, DepthMethod.projection(300, seed=3))
        want = reference_projection_depths(data * depth._SHRINK, queries * depth._SHRINK, 300, 3)
        assert np.array_equal(got, want)


# Each 512-direction chunk is projected and ranked a block at a time, of
# 8 to 512 directions by sample size (``depth._block_rows``); 1100
# directions end on a chunk of 76 and 4000 on one of 416, so most cases
# end in a part block.  At p = 40 and 80 with few points the per-block
# product may differ in its last bits from the reference's per-chunk
# product.  Duplicated points fail a product that rounds two copies of a
# point differently (at p = 20, block @ pts.T does).
BLOCK_CASES = ([(1000, p, k, "near-tie") for p in (2, 10, 40) for k in (1100, 4000)]
               + [(n, p, 1100, kind) for p in (40, 80) for n in (30, 100)
                  for kind in ("normal", "integer")]
               + [(n, p, 1100, kind) for p in (2, 3) for n in (90, 300, 650)
                  for kind in ("near-tie", "integer")]
               + [(n, p, 1100, "duplicate") for p in (3, 20) for n in (90, 650)])


@pytest.mark.parametrize("other_queries", [False, True], ids=["self", "queries"])
@pytest.mark.parametrize("n, p, n_directions, kind", BLOCK_CASES,
                         ids=["-".join(map(str, case)) for case in BLOCK_CASES])
def test_blockwise_projection_matches_per_chunk_product(n, p, n_directions, kind, other_queries):
    rng = np.random.default_rng(n + p)
    if kind == "integer":
        data = rng.integers(-3, 4, (n, p)).astype(np.float64)
    else:
        data = rng.standard_normal((n, p))
    if kind == "near-tie":
        # Two rows 1e-11 apart clash in the packed keys of a few directions
        # (the tie path) beside clean ones in a block; most blocks are clean.
        data[1] = data[0] + 1e-11 * rng.standard_normal(p)
    if kind == "duplicate":
        # Each point twice: both copies must project to the same value.
        data[n // 2:] = data[:n - n // 2]
    queries = rng.standard_normal((40, p)) if other_queries else data
    got = empirical_depths(queries, data, DepthMethod.projection(n_directions, seed=p))
    want = reference_projection_depths(data, queries, n_directions, p)
    assert got.tobytes() == want.tobytes()


# Row widths where the column-index bit count changes, and width 1.
TAIL_WIDTHS = [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]

# Values whose packed keys clash: exact ties, +-0.0, neighbouring
# doubles (distinct values with equal truncated keys), the ends of the
# finite range.  The kernel takes finite rows only (_stacked_depths
# keeps projections finite).
TIE_VALUES = st.one_of(
    st.integers(-2, 2).map(float),
    st.sampled_from([0.0, -0.0, 1.7e308, -1.7e308, 5e-324, -5e-324]),
    st.integers(-4, 4).map(lambda k: 1.0 + k * 2.0**-52),
    st.integers(-4, 4).map(lambda k: -3.0 + k * 2.0**-51),
)


@st.composite
def tail_rows(draw):
    """An (r, m) block of projected rows and the count n of data
    entries at its front; m > n merges query columns behind them."""
    m = draw(st.sampled_from(TAIL_WIDTHS))
    n = draw(st.integers(max(1, m // 2), m))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):  # no ties: the packed-key path
            row = draw(hnp.arrays(np.float64, m, unique=True,
                                  elements=st.floats(-1e6, 1e6, allow_subnormal=False)))
        else:
            row = draw(hnp.arrays(np.float64, m, elements=st.one_of(
                TIE_VALUES, st.floats(-10.0, 10.0, allow_subnormal=False))))
            if m > 1:  # a duplicate column
                i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
                row[j] = row[i]
        rows.append(row)
    return np.array(rows), n


def column_tail_counts(rows, n, order):
    """Each column's least ``_closed_tail_counts`` over the rows, its
    sorted-order counts put back in column order first: a fold of its
    own, independent of the kernel's."""
    counts = np.empty_like(order)
    np.put_along_axis(counts, order, depth._closed_tail_counts(rows, n, order), axis=1)
    return counts.min(axis=0)


@PROPERTY
@given(tail_rows())
@example((np.array([[0.0, -0.0, 1.0]]), 3))
@example((np.array([[-0.0, 2.0, 0.0, -1.0]]), 2))
@example((np.array([[1.0, np.nextafter(1.0, 2.0), 0.5]]), 3))
@example((np.array([[np.nextafter(1.0, 2.0), 1.0, 0.5]]), 3))
@example((np.array([[3.0]]), 1))
def test_packed_key_counts_match_tie_rule(block):
    rows, n = block
    r, m = rows.shape
    best = np.full(m, n, dtype=np.int64)
    got = depth._min_tail_counts(rows, n, depth._work_arrays(r, m, n), depth._self_counts(n, r), best)
    want = column_tail_counts(rows, n, rows.argsort(axis=1))
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@PROPERTY
@given(tail_rows())
@example((np.array([[-5e-324, 0.0, 1.0]]), 3))  # key -0.0 beside a key holding +0.0
@example((np.array([[-5e-324, 2.0, 0.0, -1.0]]), 2))
@example((np.array([[1.0, 2.0, 1.0], [0.5, 1.5, 2.5]]), 3))  # a tied row beside a clean one
def test_packed_key_counts_in_reused_work_arrays(block):
    # As _projection_depths calls the kernel: each block's rows in a
    # buffer of their own, work arrays with more rows than the block,
    # left dirty by an earlier block, and one running minimum.
    rows, n = block
    r, m = rows.shape
    work = depth._work_arrays(r + 2, m, n)
    work[...] = np.random.default_rng(m).integers(-2**63, 2**63, work.shape, dtype=np.int64)
    tiled = depth._self_counts(n, r + 2)
    proj = np.empty((r + 2, m))
    best = np.full(m, n + 1, dtype=np.int64)
    want = best.copy()
    for block_rows in (-rows[:, ::-1], rows):
        proj[:r] = block_rows
        assert depth._min_tail_counts(proj[:r], n, work, tiled, best) is best
        assert proj[:r].tobytes() == block_rows.tobytes()
        order = block_rows.argsort(axis=1)
        np.minimum(want, column_tail_counts(block_rows, n, order), out=want)
        assert np.array_equal(best, want)


@PROPERTY
@given(
    st.sampled_from([1, 2]),
    st.integers(1, 15),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_projection_never_below_exact(p, n, seed, integer):
    rng = np.random.default_rng(seed)
    data = rng.integers(-3, 4, (n, p)) if integer else rng.standard_normal((n, p))
    data = data.astype(np.float64)
    approx = empirical_depths_all(data, DepthMethod.projection(64, seed=seed))
    assert np.all(approx >= empirical_depths_all(data, DepthMethod.exact()))


@PROPERTY
@given(
    st.floats(0.0, 1.0),
    st.floats(np.finfo(np.float64).tiny, 0.5),
    st.floats(0.0, 1.0, exclude_min=True),
)
def test_residual_at_least_minus_one(d_emp, d_model, alpha):
    assert dpr(d_emp, d_model, alpha) >= -1.0


@PROPERTY
@given(
    hnp.arrays(np.float64, st.integers(1, 40), elements=st.floats(-1.0, 1e12)),
    st.floats(0.0, np.inf, exclude_min=True),
)
def test_trimming_keeps_at_least_half(tau, xi):
    kept = apply_trim(tau, np.ones_like(tau), xi)
    assert 2 * np.count_nonzero(kept) >= tau.size


# Residual vectors: n odd and even from 1 up, integer ties, a wide range
# of magnitudes (sums of two stay finite) and +inf; the estimator's
# residuals are at least -1, so -inf never occurs.
RESIDUAL_ELEMENTS = st.one_of(
    st.integers(-2, 2).map(float),
    st.floats(-1.0, 1e300),
    st.just(np.inf),
)
RESIDUALS = hnp.arrays(np.float64, st.integers(1, 80), elements=RESIDUAL_ELEMENTS)


@PROPERTY
@given(RESIDUALS, st.one_of(st.floats(0.0, 1e300, exclude_min=True), st.just(np.inf)))
@example(np.array([0.3]), 1.0)
@example(np.array([1.0, 1.0, 1.0, 5.0]), 1.0)
@example(np.array([2.0, 0.0, 2.0, 0.0, 2.0]), np.inf)
@example(np.array([0.0, np.nan, 1.0]), 1.0)
def test_trim_median_is_np_median(tau, xi):
    w = np.linspace(0.25, 1.0, tau.size)
    want = np.where(tau <= np.median(tau) + xi, w, 0.0)
    assert apply_trim(tau, w, xi).tobytes() == want.tobytes()


@settings(PROPERTY, max_examples=50)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 6), st.integers(1, 80)),
        elements=RESIDUAL_ELEMENTS,
    ),
    st.one_of(st.floats(0.0, 1e300, exclude_min=True), st.just(np.inf)),
)
@example(np.array([[0.0, np.nan, 1.0], [2.0, 0.0, 2.0]]), 1.0)
def test_row_wise_trim_is_1d_trim(tau, xi):
    w = np.linspace(0.25, 1.0, tau.size).reshape(tau.shape)
    got = apply_trim(tau, w, xi)
    for i in range(tau.shape[0]):
        assert got[i].tobytes() == apply_trim(tau[i], w[i], xi).tobytes()


@PROPERTY
@given(
    hnp.arrays(
        np.float64,
        st.integers(1, 5).map(lambda p: (p, p + 2)),
        elements=st.floats(-10.0, 10.0),
    ),
    st.integers(-150, 150),
)
def test_cached_log_det_is_cholesky_sum(factor, exponent):
    p = factor.shape[0]
    sigma = (factor @ factor.T + np.eye(p)) * 10.0**exponent
    params = GaussianParams(np.zeros(p), sigma)
    want = 2.0 * float(np.log(np.diag(params.chol)).sum())
    assert params.log_det.hex() == want.hex()


def _fit(data):
    return fit(data, EstimatorConfig(), GaussianParams.standard(data.shape[1]))


def _find_roots(data):
    inits = [GaussianParams.standard(data.shape[1])]
    return find_roots(data, EstimatorConfig(), inits)


def _depths_all(data):
    return empirical_depths_all(data, resolve_depth_method(DepthMethod(), data.shape[1]))


def _depth(data):
    return empirical_depth(np.zeros(data.shape[1]), data, DepthMethod.projection(8))


def _depths_of_queries(data):
    finite = np.ones((3, data.shape[1]))
    return empirical_depths(data, finite, DepthMethod.projection(8))


ENTRY_POINTS = {
    "fit": _fit,
    "find_roots": _find_roots,
    "mle_fit": mle_fit,
    "subsample_inits": lambda data: subsample_inits(data, 2, 0),
    "depth_init": depth_init,
    "empirical_depths_all": _depths_all,
    "empirical_depth": _depth,
    "empirical_depths queries": _depths_of_queries,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
@settings(PROPERTY, max_examples=25)
@given(
    hnp.arrays(
        np.float64,
        st.tuples(st.integers(12, 20), st.integers(1, 3)),
        elements=st.floats(-1e3, 1e3),
    ),
    st.data(),
    st.sampled_from([(np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"),
                     (10**400, "data holds an integer too large for a float")]),
)
def test_non_finite_row_rejected(entry, data, draw, bad):
    value, message = bad
    if isinstance(value, int):  # a float64 array cannot hold it
        data = data.astype(object)
    data[draw.draw(st.integers(0, data.shape[0] - 1))] = value
    with pytest.raises(ValueError, match=message):
        entry(data)


def mostly(good, bad, odds=3):
    """A draw of ``good`` ``odds`` times in ``odds + 1``, else one of the
    values ``bad``: non-integral, boolean, NaN or out-of-range values
    that a config must reject rather than store."""
    return st.tuples(st.integers(0, odds), good, st.sampled_from(bad)).map(
        lambda t: t[1] if t[0] else t[2])


def int_field(lo, hi, odds=3):
    return mostly(st.integers(lo, hi), [2.5, 3.0, True, math.nan], odds)


DEPTH_METHODS = st.builds(
    DepthMethod,
    st.sampled_from(["auto", "exact", "projection"]),
    st.one_of(st.none(), int_field(1, 5000)),
    int_field(-2**63, 2**64),
)

WEIGHTS = st.one_of(
    st.builds(
        lambda d1, width, gamma, xi, alpha: WeightSpec.piecewise(
            d1, d1 + width, gamma, trim_xi=xi, alpha=alpha),
        st.floats(0.1, 5), st.floats(0.1, 10), st.floats(0, 1),
        st.one_of(st.floats(0.1, 10), st.just(math.inf)), st.floats(0.01, 1),
    ),
    st.builds(lambda a, xi, alpha: WeightSpec.smooth_exp(a, trim_xi=xi, alpha=alpha),
              st.floats(0, 1), st.floats(0.1, 10), st.floats(0.01, 1)),
)

ESTIMATORS = st.builds(
    EstimatorConfig,
    weights=WEIGHTS,
    depth_method=DEPTH_METHODS,
    scatter_norm=st.sampled_from(["sum-of-weights", "literal-1-over-n"]),
    tol=st.floats(1e-12, 1e-2),
    max_iter=int_field(1, 1000),
)


def init_specs(strategy):
    """InitSpecs of ``strategy`` with each field unset (None) or set, so a
    field the strategy does not take must be rejected.  A start list
    compares by identity (GaussianParams has no value equality), so the
    custom strategy is drawn without one, and is always rejected."""
    custom = st.none() if strategy == "custom" else st.sampled_from(
        [None, (), (GaussianParams.standard(2),)])
    return st.builds(InitSpec, st.just(strategy),
                     st.one_of(st.none(), int_field(1, 1000)),
                     st.one_of(st.none(), int_field(-5, 2**40)), custom)


INITS = st.sampled_from(["subsample", "depth_deterministic", "truth", "custom"]).flatmap(
    init_specs)

# About half the grids have a bad field; their estimator and init are
# valid ones, which the cases above vary.
GRIDS = st.builds(
    GridConfig,
    dims=st.lists(int_field(1, 4, 15), min_size=1, max_size=2),
    size_factors=st.lists(int_field(1, 20, 15), min_size=1, max_size=2),
    epsilons=st.lists(mostly(st.floats(0, 0.99), [1.0, -0.1, math.nan], 15),
                      min_size=1, max_size=2),
    mu_cs=st.lists(mostly(st.floats(-1e3, 1e3), [math.inf, math.nan], 15),
                   min_size=1, max_size=2),
    sigma_cs=st.lists(mostly(st.floats(0.01, 10), [0.0, -1.0, math.inf], 15),
                      min_size=1, max_size=2),
    reps=int_field(1, 100, 15),
    seed=int_field(-5, 2**40, 15),
    estimator=st.sampled_from([
        EstimatorConfig(),
        EstimatorConfig(depth_method=DepthMethod.projection(50, seed=3), max_iter=20),
    ]),
    init=st.sampled_from([InitSpec("truth"), InitSpec("subsample", b=7, seed=3)]),
)


@pytest.mark.parametrize("cls, configs", [
    (DepthMethod, DEPTH_METHODS),
    (EstimatorConfig, ESTIMATORS),
    (InitSpec, INITS),
    (GridConfig, GRIDS),
], ids=["DepthMethod", "EstimatorConfig", "InitSpec", "GridConfig"])
# Without the explain phase, which takes minutes on a failing nested config.
@settings(PROPERTY, max_examples=100, phases=set(Phase) - {Phase.explain})
@given(st.data())
def test_accepted_config_round_trips(cls, configs, draw):
    # A config its constructor accepts reads back equal from its JSON, so
    # no value (2.5 for an integer, NaN) is stored that the reader changes.
    try:
        config = draw.draw(configs)
    except ValueError:
        return
    assert cls.from_dict(json.loads(json.dumps(config.to_dict()))) == config
