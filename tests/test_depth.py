"""Half-space depth: exact algorithms against brute-force oracles,
projection bounds, and the closed-form Gaussian depth."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from depthwl import (
    DepthMethod,
    GaussianParams,
    empirical_depth,
    empirical_depths,
    empirical_depths_all,
    population_depth_gaussian,
    resolve_depth_method,
)
from depthwl import depth


def brute_force_depth_2d(query, data):
    """Oracle: enumerate candidate directions from every query-to-point
    segment (the perpendiculars rotated by +-1e-9 rad, plus the segment
    directions themselves) and take the minimum closed half-plane count."""
    data = np.asarray(data, dtype=float)
    query = np.asarray(query, dtype=float)
    offsets = data - query
    n = len(data)
    candidates = []
    for off in offsets:
        norm = np.hypot(off[0], off[1])
        if norm == 0:
            continue
        base = math.atan2(off[1], off[0])
        for ang in (base, base + math.pi / 2, base - math.pi / 2):
            for eps in (-1e-9, 0.0, 1e-9):
                candidates.append(ang + eps)
    if not candidates:
        return 1.0
    best = n
    for ang in candidates:
        u = np.array([math.cos(ang), math.sin(ang)])
        count = int(np.sum(offsets @ u >= 0.0))
        best = min(best, count)
    return best / n


class TestPopulationDepth:
    def test_half_at_center(self):
        gp = GaussianParams([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
        assert population_depth_gaussian([1.0, -2.0], gp) == 0.5

    def test_normal_tail_in_any_dimension(self):
        # the minimizing half-space is a 1-D normal tail whatever p is
        for p in (1, 2, 3, 6):
            gp = GaussianParams.standard(p)
            x = np.zeros(p)
            x[0] = 2.0
            want = 0.5 * math.erfc(2.0 / math.sqrt(2))
            assert population_depth_gaussian(x, gp) == pytest.approx(want, abs=1e-12)

    def test_matches_large_sample_empirical_depth(self):
        # the population value is the large-n limit of the empirical
        # depth; binomial noise at n=80000 is ~0.0005
        rng = np.random.default_rng(0)
        data = rng.standard_normal((80_000, 2))
        emp = empirical_depth([2.0, 0.0], data, DepthMethod.exact())
        pop = population_depth_gaussian([2.0, 0.0], GaussianParams.standard(2))
        assert emp == pytest.approx(pop, abs=3e-3)

    def test_normal_tail_value(self):
        gp = GaussianParams([0.0], [[1.0]])
        # depth at x equals the upper-tail normal probability
        oracle = 0.5 * math.erfc(1.959964 / math.sqrt(2))
        got = population_depth_gaussian([1.959964], gp)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.025, abs=1e-6)

    def test_univariate_identity_grid(self):
        from scipy import special

        gp = GaussianParams([0.0], [[1.0]])
        for x in np.linspace(-6, 6, 1001):
            lhs = (1 - special.gammainc(0.5, 0.5 * (x * x))) / 2
            rhs = min(
                0.5 * math.erfc(-x / math.sqrt(2)), 0.5 * math.erfc(x / math.sqrt(2))
            )
            assert abs(lhs - rhs) <= 1e-10
            assert population_depth_gaussian([x], gp) == pytest.approx(rhs, abs=1e-10)

    def test_decreasing_in_distance(self):
        gp = GaussianParams.standard(3)
        xs = np.array([[r, 0.0, 0.0] for r in np.linspace(0, 5, 50)])
        d = population_depth_gaussian(xs, gp)
        assert np.all(np.diff(d) < 0)

    def test_erfc_form_against_mpmath(self):
        # 40-digit reference over d2 in [0, 1400], where the depth is
        # still a normal double (~1e-306 at 1400)
        mpmath = pytest.importorskip("mpmath")
        from scipy import special

        d2 = np.concatenate([np.linspace(0.0, 60.0, 2000), np.linspace(60.0, 1400.0, 1951)[1:]])
        with mpmath.workdps(40):
            exact = np.array(
                [float(mpmath.erfc(mpmath.sqrt(mpmath.mpf(v) / 2)) / 2) for v in d2]
            )
        err = np.abs(depth._model_depth(d2) - exact) / exact
        err_gammaincc = np.abs(0.5 * special.gammaincc(0.5, 0.5 * d2) - exact) / exact
        # every fitted point with any weight sits at d2 < 60: there erfc
        # is the more accurate (4e-15 against 3e-14)
        core = d2 < 60.0
        assert err[core].max() <= err_gammaincc[core].max()
        # beyond, a half-ulp change of d2 moves the depth by up to
        # d2 * 2**-53 relative; both stay near that bound, erfc within
        # 2 (1 + d2) ulp pointwise and 1.2e-13 at most (gammaincc 1.1e-13)
        eps = np.finfo(np.float64).eps
        assert np.all(err <= 2.0 * (1.0 + d2) * eps)
        assert (err / ((1.0 + d2) * eps)).max() <= (err_gammaincc / ((1.0 + d2) * eps)).max()
        assert err.max() < 1.2e-13
        # exactly one half at the centre, and the floor past underflow
        assert depth._model_depth(np.array(0.0)) == 0.5
        beyond = np.array([1420.0, 1500.0, 3000.0, 1e300, np.inf])
        assert np.all(depth._model_depth(beyond) == depth._DEPTH_FLOOR)

    def test_far_point_positive(self):
        gp = GaussianParams.standard(2)
        d = population_depth_gaussian([1e6, 1e6], gp)
        assert 0.0 < d < 1e-300

    def test_singular_sigma_rejected(self):
        with pytest.raises(ValueError):
            GaussianParams([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])


class TestErfcPort:
    """``depth._erfc``, the numpy port of Cephes erfc, against scipy's."""

    def test_bit_equal_below_one(self):
        from scipy import special

        rng = np.random.default_rng(0)
        x = np.concatenate([np.linspace(0.0, 1.0, 100_001)[:-1], rng.uniform(0, 1, 100_000),
                            [np.nextafter(1.0, 0.0), 5e-324, 1e-300]])
        assert np.array_equal(depth._erfc(x), special.erfc(x))

    def test_close_from_one_to_cutoff(self):
        # only np.exp against the C library's exp differs here; below
        # the smallest normal double (x > 26.54) the spacing of the
        # results is itself coarser than 1e-15, so the error is taken
        # relative to at least that
        from scipy import special

        rng = np.random.default_rng(1)
        x = np.concatenate([np.linspace(1.0, 26.6, 200_001), rng.uniform(1, 26.6, 200_000),
                            [8.0, np.nextafter(8.0, 0.0)]])
        want = special.erfc(x)
        scale = np.maximum(want, np.finfo(np.float64).tiny)
        assert np.all(np.abs(depth._erfc(x) - want) <= 1e-15 * scale)

    def test_zero_beyond_cutoff(self):
        cutoff = math.sqrt(depth._MAXLOG)
        x = np.array([np.nextafter(cutoff, np.inf), 26.7, 27.0, 1e10, 1e150, 1e200, np.inf])
        assert np.all(depth._erfc(x) == 0.0)
        assert depth._erfc(np.array(np.nextafter(cutoff, 0.0))) > 0.0

    def test_nan_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = depth._erfc(np.array([np.nan, 0.5, 3.0, 10.0, 1e150, np.inf]))
            assert np.isnan(depth._erfc(np.array(np.nan)))
        assert np.isnan(got[0]) and not np.isnan(got[1:]).any()


class TestExact1d:
    def test_inner_point(self):
        data = [[1.0], [2.0], [3.0]]
        assert empirical_depth([2.0], data, DepthMethod.exact()) == pytest.approx(2 / 3)

    def test_outside_hull(self):
        data = [[1.0], [2.0], [3.0]]
        assert empirical_depth([10.0], data, DepthMethod.exact()) == 0.0

    def test_all_depths_three_points(self):
        got = empirical_depths_all([1.0, 2.0, 3.0], DepthMethod.exact())
        assert np.allclose(got, [1 / 3, 2 / 3, 1 / 3])

    def test_all_depths_four_points(self):
        got = empirical_depths_all([0.0, 1.0, 2.0, 3.0], DepthMethod.exact())
        assert np.allclose(got, [1 / 4, 1 / 2, 1 / 2, 1 / 4])

    def test_single_point(self):
        assert np.allclose(empirical_depths_all([[7.0]], DepthMethod.exact()), [1.0])

    def test_duplicate_points(self):
        got = empirical_depths_all([1.0, 1.0, 2.0], DepthMethod.exact())
        assert np.allclose(got, [2 / 3, 2 / 3, 1 / 3])


class TestExact2d:
    def test_triangle_centroid(self):
        data = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        got = empirical_depth([1 / 3, 1 / 3], data, DepthMethod.exact())
        assert got == pytest.approx(1 / 3)
        assert got == pytest.approx(brute_force_depth_2d([1 / 3, 1 / 3], data))

    def test_matches_oracle_random_instances(self):
        rng = np.random.default_rng(42)
        method = DepthMethod.exact()
        for _ in range(80):
            n = int(rng.integers(1, 13))
            data = rng.standard_normal((n, 2))
            if rng.random() < 0.5 and n > 0:
                query = data[int(rng.integers(0, n))]
            else:
                query = rng.standard_normal(2)
            got = empirical_depth(query, data, method)
            want = brute_force_depth_2d(query, data)
            assert round(got * n) == round(want * n), (n, query, data)

    def test_collinear_and_repeated_points(self):
        data = [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [2.0, 2.0]]
        method = DepthMethod.exact()
        for q in data:
            got = empirical_depth(q, data, method)
            want = brute_force_depth_2d(q, data)
            assert round(got * 4) == round(want * 4)

    def test_opposite_offset_on_boundary(self):
        # (1, 2) is the midpoint of the other two points: the closed
        # half-plane through it always holds one of them as well, so its
        # depth is 2/3.  Rounded angles put the offset exactly opposite
        # the arc start inside the open half-circle and gave 1/3.
        data = [[1.0, 2.0], [3.0, 3.0], [-1.0, 1.0]]
        got = empirical_depths_all(data, DepthMethod.exact())
        assert np.array_equal(got * 3, [2.0, 1.0, 1.0])

    @pytest.mark.parametrize("s, want", [(1e-10, 0.0), (-1e-10, 1 / 3)])
    def test_near_tie_decided_by_exact_sign(self, s, want):
        # (-1, s) lies within the tie tolerance of the half-plane edge
        # through (1, 0); the exact cross product puts it on its side.
        data = [[1.0, 0.0], [0.0, 1.0], [-1.0, s]]
        assert empirical_depth([0.0, 0.0], data, DepthMethod.exact()) == want

    def test_affine_invariance_exact(self):
        rng = np.random.default_rng(3)
        method = DepthMethod.exact()
        for _ in range(20):
            n = int(rng.integers(3, 11))
            data = rng.standard_normal((n, 2))
            a = rng.standard_normal((2, 2))
            while abs(np.linalg.det(a)) < 0.1:
                a = rng.standard_normal((2, 2))
            b = rng.standard_normal(2)
            mapped = data @ a.T + b
            # transform the query through the same arithmetic as the data,
            # so it stays bitwise identical to its mapped row
            before = empirical_depth(data[0], data, method)
            after = empirical_depth(mapped[0], mapped, method)
            assert before == after


class TestProjection:
    def test_upper_bounds_exact(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((40, 2))
        exact = empirical_depths_all(data, DepthMethod.exact())
        approx = empirical_depths_all(data, DepthMethod.projection(50, seed=5))
        assert np.all(approx >= exact - 1e-12)

    def test_more_directions_never_increase(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((30, 5))
        few = empirical_depths_all(data, DepthMethod.projection(10, seed=9))
        many = empirical_depths_all(data, DepthMethod.projection(10000, seed=9))
        assert np.all(many <= few + 1e-12)

    def test_matches_exact_in_1d(self):
        data = np.array([[0.0], [1.0], [2.0], [3.0]])
        got = empirical_depths_all(data, DepthMethod.projection(7, seed=1))
        assert np.allclose(got, [1 / 4, 1 / 2, 1 / 2, 1 / 4])

    @pytest.mark.parametrize("p, k, other", [(3, 1000, 300), (12, 1200, 1000)])
    def test_default_direction_count(self, p, k, other):
        # max(1000, 100 p) directions; ``other`` (100 p, 1000) gives
        # different depths on this data, so either wrong default shows
        data = np.random.default_rng(p).standard_normal((30, p))
        default = empirical_depths_all(data, DepthMethod.projection())
        assert np.array_equal(default, empirical_depths_all(data, DepthMethod.projection(k)))
        assert not np.array_equal(
            default, empirical_depths_all(data, DepthMethod.projection(other))
        )

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((25, 3))
        a = empirical_depths_all(data, DepthMethod.projection(200, seed=77))
        b = empirical_depths_all(data, DepthMethod.projection(200, seed=77))
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n_queries, bound", [(0, 2e6), (500, 2.5e6)],
                             ids=["self", "500-queries"])
    def test_peak_memory_is_a_few_blocks(self, n_queries, bound):
        # The benchmark's shape: n = 3200 points in the plane, 4000
        # directions, with other queries stacked after the data or not.
        # The projections and work arrays take a few 8 x (n + q)
        # doubles, about 1 MB; 512-direction chunks of projections took
        # about 27 MB, and 32-direction blocks 3.5 MB.
        rng = np.random.default_rng(14)
        data = rng.standard_normal((3200, 2))
        queries = rng.standard_normal((n_queries, 2)) if n_queries else data
        tracemalloc.start()
        try:
            empirical_depths(queries, data, DepthMethod.projection(4000, seed=0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestDepthVectorInvariants:
    def test_self_depths_bounded_below(self):
        rng = np.random.default_rng(21)
        for p, method in [
            (1, DepthMethod.exact()),
            (2, DepthMethod.exact()),
            (4, DepthMethod.projection(300, seed=2)),
        ]:
            n = 17
            data = rng.standard_normal((n, p))
            depths = empirical_depths_all(data, method)
            assert np.all(depths >= 1 / n - 1e-12)
            assert np.all(depths <= 1.0)


class TestPowerOfTwoScale:
    """Depth is invariant under x -> x * 2**k, which is exact for these
    data: entries are 0 or at least 0.01 in magnitude and below 4, so
    x * 2**1022 stays finite while its projections and 2-D offsets
    reach past DBL_MAX.  Projection depth is checked at p = 3 as well,
    where the projection kernel ranks rows that must be finite."""

    @pytest.mark.parametrize("k", [-1000, -999, -600, -1, 1, 600, 999, 1000, 1021, 1022])
    @pytest.mark.parametrize(("p", "method"), [
        pytest.param(p, m, id=f"{p}-{m.kind}")
        for p in (1, 2, 3) for m in (DepthMethod.exact(), DepthMethod.projection(200, seed=1))
        if p < 3 or m.kind == "projection"])  # exact depth is for p <= 2 only
    @pytest.mark.parametrize("integer", [False, True], ids=["spread", "integer"])
    @pytest.mark.parametrize("self_depths", [True, False], ids=["self", "queries"])
    def test_depth_at_scaled_data_is_bit_identical(self, k, method, p, integer, self_depths):
        rng = np.random.default_rng(p)
        if integer:  # exact ties, collinear and coincident points: the 2-D tie rule
            data = rng.integers(-3, 4, (30, p)).astype(np.float64)
        else:
            data = np.vstack([[[3.99] * p, [-3.99] * p],
                              np.round(rng.uniform(-3.99, 3.99, (30, p)), 2)])
        queries = data if self_depths else np.vstack([data[::4], rng.integers(-3, 4, (5, p))])
        want = empirical_depths(queries, data, method)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = empirical_depths(queries * 2.0**k, data * 2.0**k, method)
        assert got.tobytes() == want.tobytes()


class TestValidation:
    def test_method_kind(self):
        for kind in ("exact-1d", "exact-2d", "exact-3d"):
            with pytest.raises(ValueError, match="unknown depth method kind"):
                DepthMethod(kind)

    def test_n_directions_positive(self):
        with pytest.raises(ValueError):
            DepthMethod.projection(0)

    @pytest.mark.parametrize("bad", [100.5, 100.0, True, "100"])
    def test_non_integral_directions_and_seed_rejected(self, bad):
        with pytest.raises(ValueError, match="n_directions must be an integer"):
            DepthMethod.projection(bad)
        with pytest.raises(ValueError, match="n_directions must be an integer"):
            DepthMethod.from_dict({"kind": "auto", "n_directions": bad})
        with pytest.raises(ValueError, match="direction_seed must be an integer"):
            DepthMethod.from_dict({"kind": "projection", "direction_seed": bad})
        assert DepthMethod.projection(np.int64(100), seed=np.int64(-3)).n_directions == 100

    def test_from_dict_unknown_field(self):
        with pytest.raises(ValueError, match=r"unknown fields: \['n_direction'\]"):
            DepthMethod.from_dict({"kind": "projection", "n_direction": 50})

    def test_directions_rejected_for_exact(self):
        with pytest.raises(ValueError):
            DepthMethod("exact", n_directions=10)

    def test_exact_rejects_p3(self):
        with pytest.raises(ValueError, match="p <= 2"):
            empirical_depth([0.0, 0.0, 0.0], np.eye(3), DepthMethod.exact())

    def test_empty_data(self):
        with pytest.raises(ValueError):
            empirical_depth([0.0], np.zeros((0, 1)), DepthMethod.exact())

    def test_non_finite_query_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                empirical_depth([bad, 0.0], np.zeros((3, 2)), DepthMethod.exact())

    def test_resolve_auto(self):
        assert resolve_depth_method(DepthMethod(), 1) == DepthMethod.exact()
        assert resolve_depth_method(DepthMethod(), 2) == DepthMethod.exact()
        assert resolve_depth_method(DepthMethod(), 5).kind == "projection"

    def test_query_dimension_mismatch(self):
        with pytest.raises(ValueError):
            empirical_depths(np.zeros((2, 3)), np.zeros((4, 2)), DepthMethod.exact())

    def test_one_query_of_two_entries_against_one_column(self):
        # At p = 1 the entries would be read as two queries.
        with pytest.raises(ValueError, match="query dimension does not match"):
            empirical_depth([0.0, 0.0], np.zeros((3, 1)), DepthMethod.exact())

    def test_query_matrix_against_one_column(self):
        # A (q, k) matrix is q queries of k entries at p = 1 too, not q*k
        # one-dimensional queries; a vector or one column is q queries.
        data = np.array([[1.0], [2.0], [3.0]])
        for queries in ([[1.0, 2.0, 3.0]], np.zeros((2, 3))):
            with pytest.raises(ValueError, match="query dimension does not match"):
                empirical_depths(queries, data, DepthMethod.exact())
        want = [1 / 3, 2 / 3, 0.0]
        for queries in ([1.0, 2.0, 9.0], [[1.0], [2.0], [9.0]]):
            assert empirical_depths(queries, data, DepthMethod.exact()).tolist() == want
