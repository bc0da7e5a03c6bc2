"""Gaussian family: Mahalanobis distance, MLE, KL divergence."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import solve_triangular
from scipy.stats import multivariate_normal

from depthwl import (
    EstimatorConfig,
    GaussianParams,
    GridConfig,
    InitSpec,
    find_roots,
    fit,
    kl_gaussian,
    mahalanobis_sq,
    mle_fit,
    population_depth_gaussian,
    run_grid,
    subsample_inits,
)


def random_spd(rng, p, scale=1.0):
    a = rng.standard_normal((p, p))
    return scale * (a @ a.T + p * np.eye(p))


class TestParams:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            GaussianParams([0.0, 0.0], [[1.0, 0.2], [0.1, 1.0]])

    def test_spd_enforced(self):
        with pytest.raises(ValueError):
            GaussianParams([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            GaussianParams([0.0, 0.0], np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GaussianParams([bad, 0.0], np.eye(2))
        with pytest.raises(ValueError, match="finite"):
            GaussianParams([0.0, 0.0], [[1.0, bad], [bad, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            GaussianParams([0.0, 0.0], [[bad, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("name", ["mu", "sigma"])
    def test_integer_too_large_for_a_float_named(self, name):
        fields = {"mu": [0.0], "sigma": [[1.0]]}
        fields[name] = [10**400] if name == "mu" else [[10**400]]
        with pytest.raises(ValueError, match=f"^{name} holds an integer too large for a float"):
            GaussianParams(**fields)

    def test_json_round_trip(self):
        gp = GaussianParams([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]])
        blob = json.dumps(gp.to_dict(), sort_keys=True)
        back = GaussianParams.from_dict(json.loads(blob))
        assert json.dumps(back.to_dict(), sort_keys=True) == blob


class TestMahalanobis:
    def test_zero_at_center(self):
        gp = GaussianParams([1.0, 2.0], [[3.0, 1.0], [1.0, 2.0]])
        assert mahalanobis_sq([1.0, 2.0], gp) == 0.0

    def test_identity_345(self):
        gp = GaussianParams.standard(2)
        assert mahalanobis_sq([3.0, 4.0], gp) == pytest.approx(25.0)

    def test_diagonal_scaling(self):
        gp = GaussianParams([0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
        assert mahalanobis_sq([2.0, 1.0], gp) == pytest.approx(2.0)

    def test_batch(self):
        gp = GaussianParams.standard(2)
        got = mahalanobis_sq([[3.0, 4.0], [0.0, 0.0]], gp)
        assert np.allclose(got, [25.0, 0.0])

    # Each function of a point under a model, and each point it must
    # refuse by name: a float cannot hold the first, the second has no
    # distance, the third has no coordinate for the model's second axis.
    POINT_FUNCTIONS = {"mahalanobis_sq": mahalanobis_sq,
                       "population_depth_gaussian": population_depth_gaussian}
    BAD_POINTS = {
        "huge": ([[0.0, 1.0], [10**400, 0.0]], "^x holds an integer too large for a float"),
        "nan": ([[0.0, 1.0], [np.nan, 0.0]], "^x must be finite"),
        "dimension": ([[0.0, 1.0, 2.0]], r"^x must be a 2-vector or an n x 2 matrix, got shape \(1, 3\)"),
    }

    @pytest.mark.parametrize("point", BAD_POINTS.values(), ids=BAD_POINTS.keys())
    @pytest.mark.parametrize("function", POINT_FUNCTIONS.values(), ids=POINT_FUNCTIONS.keys())
    def test_bad_point_named(self, function, point):
        x, message = point
        with pytest.raises(ValueError, match=message):
            function(x, GaussianParams.standard(2))


class TestMle:
    def test_identical_rows_singular(self):
        with pytest.raises(ValueError):
            mle_fit(np.ones((5, 2)))

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_covariance_overflow_reported(self, scale):
        data = np.random.default_rng(4).standard_normal((20, 2)) * scale
        with pytest.raises(ValueError, match="overflows float64"):
            mle_fit(data)

    @pytest.mark.parametrize("data", [
        {"a": 1}, [[1.0, "x"], [2.0, 3.0]], [[1.0, 2.0], [3.0]],
    ], ids=["dict", "string entry", "ragged"])
    def test_unconvertible_sample_named(self, data):
        with pytest.raises(ValueError, match="^data must be a rectangular array of real numbers$"):
            mle_fit(data)

    def test_univariate_pair(self):
        got = mle_fit([[0.0], [2.0]])
        assert got.mu[0] == pytest.approx(1.0)
        assert got.sigma[0, 0] == pytest.approx(1.0)

    def test_square_grid(self):
        data = [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]]
        got = mle_fit(data)
        assert np.allclose(got.mu, [1.0, 1.0])
        assert np.allclose(got.sigma, np.eye(2))

    def test_affine_equivariance(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((40, 3))
        base = mle_fit(data)
        a = rng.standard_normal((3, 3)) + 2 * np.eye(3)
        b = rng.standard_normal(3)
        mapped = mle_fit(data @ a.T + b)
        assert np.allclose(mapped.mu, a @ base.mu + b, rtol=1e-10, atol=1e-10)
        assert np.allclose(mapped.sigma, a @ base.sigma @ a.T, rtol=1e-10, atol=1e-10)


class TestKl:
    def test_zero_at_identity(self):
        gp = GaussianParams([0.5, 1.0], [[2.0, 0.3], [0.3, 1.5]])
        assert kl_gaussian(gp, gp) == 0.0

    def test_unit_shift(self):
        p0 = GaussianParams([0.0], [[1.0]])
        p1 = GaussianParams([1.0], [[1.0]])
        assert kl_gaussian(p0, p1) == pytest.approx(0.5)

    def test_variance_ratio(self):
        p0 = GaussianParams([0.0], [[2.0]])
        p1 = GaussianParams([0.0], [[1.0]])
        assert kl_gaussian(p0, p1) == pytest.approx(0.5 * (2 - 1 - math.log(2)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_gaussian(GaussianParams.standard(1), GaussianParams.standard(2))

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(123)
        n = 100_000
        for p in (1, 3):
            p0 = GaussianParams(rng.standard_normal(p), random_spd(rng, p))
            p1 = GaussianParams(rng.standard_normal(p), random_spd(rng, p))
            draws = p0.mu + rng.standard_normal((n, p)) @ p0.chol.T
            diff = (multivariate_normal.logpdf(draws, p0.mu, p0.sigma)
                    - multivariate_normal.logpdf(draws, p1.mu, p1.sigma))
            mc, se = float(np.mean(diff)), float(np.std(diff) / math.sqrt(n))
            assert abs(kl_gaussian(p0, p1) - mc) <= 3 * se


def lapack_kl(p0, p1):
    """KL(p0 || p1) as the closed form was computed through LAPACK's
    triangular solve: tr(S1^-1 S0) as the trace of L1^-1 (L1^-1 S0)'."""
    half = solve_triangular(p1.chol, p0.sigma, lower=True)
    half = solve_triangular(p1.chol, half.T, lower=True)
    z = solve_triangular(p1.chol, p0.mu - p1.mu, lower=True)
    kl = 0.5 * (np.trace(half) + z @ z - p0.p + p1.log_det - p0.log_det)
    return max(kl, 0.0)


class TestForwardSubstitution:
    """The forward-substitution kernel against scipy's triangular solve."""

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [1, 50, 300])
    def test_agrees_with_solve_triangular(self, p, n):
        rng = np.random.default_rng(100 * p + n)
        eps = np.finfo(np.float64).eps
        for scale in (1e-5, 1.0, 1e5):
            p1 = GaussianParams(rng.standard_normal(p), random_spd(rng, p, scale))
            x = p1.mu + np.sqrt(scale) * rng.standard_normal((n, p))
            z = solve_triangular(p1.chol, (x - p1.mu).T, lower=True)
            want = np.einsum("ij,ij->j", z, z)
            got = mahalanobis_sq(x, p1)
            assert np.all(np.abs(got - want) <= 8 * eps * want)
            p0 = GaussianParams(rng.standard_normal(p), random_spd(rng, p, scale))
            want_kl = lapack_kl(p0, p1)
            assert kl_gaussian(p0, p1) == pytest.approx(want_kl, rel=1e-12)


def dyadic_lower(rng, p, scale):
    """A lower Cholesky factor whose solves are exact in float64:
    power-of-two diagonal, small integers below it, times a power-of-two
    ``scale``."""
    low = np.tril(rng.integers(-3, 4, (p, p)), -1) + np.diag(2 ** rng.integers(0, 3, p))
    return scale * low.astype(np.float64)


class TestSolveLower:
    """On problems whose every intermediate is a short dyadic fraction,
    so that no operation order, reciprocal or fused multiply-add can
    round, the forward-substitution kernel is scipy's
    ``solve_triangular`` bit for bit: no tolerance hides a wrong index,
    transpose or memory layout."""

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    @pytest.mark.parametrize("n", [1, 50, 300])
    def test_bit_equal_to_solve_triangular(self, p, n):
        rng = np.random.default_rng(100 * p + n)
        for scale in (2.0**-16, 1.0, 2.0**16):
            l1 = dyadic_lower(rng, p, scale)
            p1 = GaussianParams(scale * rng.integers(-9, 10, p), l1 @ l1.T)
            assert np.array_equal(p1.chol, l1)
            offsets = scale * rng.integers(-50, 51, (n, p)).astype(np.float64)
            rows = {
                "vector": offsets[0],
                "C-ordered": offsets,
                "F-ordered": np.asfortranarray(offsets),
            }
            for name, d in rows.items():
                z = solve_triangular(l1, np.atleast_2d(d).T, lower=True)
                want = (z * z).sum(axis=0)
                got = mahalanobis_sq(p1.mu + d, p1)
                assert np.array_equal(np.atleast_1d(got), want), name
            l0 = dyadic_lower(rng, p, scale)
            p0 = GaussianParams(p1.mu + offsets[0], l0 @ l0.T)
            assert kl_gaussian(p0, p1) == lapack_kl(p0, p1)


class TestFactoredOnce:
    """Parameters whose factor the library computed itself are wrapped
    without the constructor's checks; they must be exactly what the
    checked constructor makes of them."""

    def test_no_checked_construction(self, monkeypatch):
        data = np.random.default_rng(0).standard_normal((30, 2))
        inits = [GaussianParams([0.5, 0.0], np.eye(2)), GaussianParams([0.0, 0.5], np.eye(2))]

        def refuse(self):
            raise AssertionError("checked constructor called")

        monkeypatch.setattr(GaussianParams, "__post_init__", refuse)
        assert len(subsample_inits(data, 10, 0)) == 10
        mle_fit(data)
        assert find_roots(data, EstimatorConfig(), inits).best is not None
        grid = GridConfig(dims=(1, 2), size_factors=(3,), epsilons=(0.0, 0.2), mu_cs=(5.0,),
                          sigma_cs=(1.0,), reps=2, seed=0, init=InitSpec("subsample", b=5))
        assert all(cell.failures == 0 for cell in run_grid(grid).cells)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(8, 30), st.integers(1, 3)),
            elements=st.floats(-10, 10).map(lambda v: round(v, 2)),
        ),
        st.integers(0, 2**16),
    )
    def test_wrapped_equals_checked(self, data, seed):
        try:
            starts = subsample_inits(data, 10, seed)
            mle = mle_fit(data)
        except ValueError:  # too degenerate to fit
            return
        cfg = EstimatorConfig()
        wrapped = [*starts, mle, GaussianParams.standard(data.shape[1]),
                   fit(data, EstimatorConfig(max_iter=2), starts[0]).params,
                   *(root.params for root in find_roots(data, cfg, starts).roots)]
        for g in wrapped:
            want = GaussianParams(g.mu, g.sigma)
            assert g.chol.tobytes() == want.chol.tobytes()
            assert g.log_det.hex() == want.log_det.hex()
