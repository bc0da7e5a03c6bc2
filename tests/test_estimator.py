"""Reweighting iteration: fixed points, trimming, roots, equivariance."""

import warnings

import numpy as np
import pytest

from depthwl import (
    DepthMethod,
    DprConfig,
    EstimatorConfig,
    GaussianParams,
    StepFailure,
    WeightSpec,
    empirical_depths_all,
    find_roots,
    fit,
    irwls_step,
    kl_gaussian,
    mle_fit,
    subsample_inits,
)

UNIT_WEIGHTS = EstimatorConfig(
    weights=WeightSpec.smooth_exp(0.0, trim_xi=float("inf"))
)


def contaminated_sample(rng, n_clean=40, n_out=10, center=(10.0, 10.0)):
    clean = rng.standard_normal((n_clean, 2))
    outliers = np.asarray(center) + 1e-3 * rng.standard_normal((n_out, 2))
    return np.vstack([clean, outliers])


class TestIrwlsStep:
    def test_unit_weights_one_step_is_mle(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((30, 2))
        depths = empirical_depths_all(data, DepthMethod.exact_2d())
        for start in (
            GaussianParams.standard(2),
            GaussianParams([5.0, -7.0], 9.0 * np.eye(2)),
        ):
            params, w, tau = irwls_step(data, start, depths, UNIT_WEIGHTS)
            mle = mle_fit(data)
            assert np.array_equal(params.mu, mle.mu)
            assert np.array_equal(params.sigma, mle.sigma)
            assert np.all(w == 1.0)

    def test_small_displacement_at_truth(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((500, 2))
        truth = GaussianParams.standard(2)
        cfg = EstimatorConfig()
        depths = empirical_depths_all(data, DepthMethod.exact_2d())
        params, w, tau = irwls_step(data, truth, depths, cfg)
        assert np.max(np.abs(tau)) < 0.5
        assert np.mean(w) > 0.95
        assert np.max(np.abs(params.mu - truth.mu)) < 0.05
        assert np.max(np.abs(params.sigma - truth.sigma)) < 0.05

    def test_outliers_zeroed_by_trim(self):
        rng = np.random.default_rng(3)
        data = contaminated_sample(rng)
        cfg = EstimatorConfig()
        depths = empirical_depths_all(data, DepthMethod.exact_2d())
        params, w, tau = irwls_step(data, GaussianParams.standard(2), depths, cfg)
        assert np.all(w[40:] == 0.0)
        # trimming may clip the odd clean point whose empirical depth
        # runs ahead of its model depth, but never many
        assert np.count_nonzero(w[:40]) >= 38

    def test_effective_sample_failure(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((10, 2))
        cfg = EstimatorConfig(min_effective_points=11)
        depths = empirical_depths_all(data, DepthMethod.exact_2d())
        with pytest.raises(StepFailure):
            irwls_step(data, GaussianParams.standard(2), depths, cfg)


class TestFit:
    def test_unit_weights_returns_mle(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((40, 2))
        res = fit(data, UNIT_WEIGHTS, GaussianParams([3.0, 3.0], 2 * np.eye(2)))
        mle = mle_fit(data)
        assert res.converged
        assert np.array_equal(res.params.mu, mle.mu)
        assert np.array_equal(res.params.sigma, mle.sigma)

    def test_clean_data_near_truth(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((50, 2))
        res = fit(data, EstimatorConfig(), mle_fit(data))
        assert res.converged
        assert kl_gaussian(res.params, GaussianParams.standard(2)) < 0.5

    def test_degenerate_data_reports_singular(self):
        data = np.ones((12, 2))
        res = fit(data, EstimatorConfig(), GaussianParams.standard(2))
        assert not res.converged
        assert "singular" in res.message

    def test_max_iter_exhaustion_reported(self):
        rng = np.random.default_rng(7)
        data = contaminated_sample(rng)
        # smooth weights never land on an exact fixed point, so an
        # unreachable tolerance exhausts the iteration budget
        cfg = EstimatorConfig(
            weights=WeightSpec.smooth_exp(0.5, trim_xi=float("inf")),
            tol=1e-16,
            max_iter=3,
        )
        res = fit(data, cfg, GaussianParams.standard(2))
        assert not res.converged
        assert "iterations" in res.message

    def test_fixed_point_residual(self):
        rng = np.random.default_rng(8)
        data = contaminated_sample(rng)
        cfg = EstimatorConfig()
        res = fit(data, cfg, GaussianParams.standard(2))
        assert res.converged
        depths = empirical_depths_all(data, DepthMethod.exact_2d())
        again, _, _ = irwls_step(data, res.params, depths, cfg)
        assert np.max(np.abs(again.mu - res.params.mu)) < 10 * cfg.tol
        assert np.max(np.abs(again.sigma - res.params.sigma)) < 10 * cfg.tol

    def test_result_weights_match_returned_params(self):
        rng = np.random.default_rng(9)
        data = contaminated_sample(rng)
        res = fit(data, EstimatorConfig(), GaussianParams.standard(2))
        assert res.sum_weights == pytest.approx(res.weights.sum())
        assert np.all(res.weights[40:] == 0.0)
        assert np.count_nonzero(res.weights) >= len(data) // 2

    def test_boundedness_under_far_contamination(self):
        rng = np.random.default_rng(10)
        clean = rng.standard_normal((50, 2))
        cfg = EstimatorConfig()
        base = fit(clean, cfg, mle_fit(clean))
        outliers = 1e6 + 1e-3 * rng.standard_normal((20, 2))
        res = fit(np.vstack([clean, outliers]), cfg, base.params)
        assert res.converged
        assert np.linalg.norm(res.params.mu - base.params.mu) < 1.0


class TestFindRoots:
    def test_single_basin_single_root(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((60, 2))
        inits = [mle_fit(data), GaussianParams.standard(2)]
        roots = find_roots(data, EstimatorConfig(), inits)
        assert len(roots.roots) == 1
        assert roots.selected == 0

    def test_truth_init_matches_single_fit(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((50, 2))
        cfg = EstimatorConfig()
        truth = GaussianParams.standard(2)
        roots = find_roots(data, cfg, [truth])
        single = fit(data, cfg, truth)
        assert len(roots.roots) == 1
        assert np.array_equal(roots.best.params.mu, single.params.mu)

    def test_two_clusters_give_multiple_roots(self):
        rng = np.random.default_rng(13)
        shift = 6.0 / np.sqrt(2.0)
        a = rng.standard_normal((150, 2))
        b = np.array([shift, shift]) + rng.standard_normal((150, 2))
        data = np.vstack([a, b])
        inits = subsample_inits(data, 200, seed=99)
        roots = find_roots(data, EstimatorConfig(), inits)
        assert len(roots.roots) >= 2
        centers = np.array([r.params.mu for r in roots.roots])
        # at least one root per cluster
        assert np.any(np.linalg.norm(centers - 0.0, axis=1) < 1.5)
        assert np.any(np.linalg.norm(centers - shift, axis=1) < 1.5)

    def test_no_converged_roots(self):
        data = np.ones((12, 2))
        roots = find_roots(data, EstimatorConfig(), [GaussianParams.standard(2)])
        assert roots.roots == ()
        assert roots.selected is None
        assert roots.best is None
        assert roots.diagnostics["n_failed"] == 1

    def test_requires_an_init(self):
        with pytest.raises(ValueError):
            find_roots(np.zeros((5, 2)), EstimatorConfig(), [])

    def test_extreme_scale_selection(self):
        rng = np.random.default_rng(6)
        shift = 6.0 / np.sqrt(2.0)
        data = np.vstack([
            rng.standard_normal((40, 2)),
            shift + rng.standard_normal((40, 2)),
        ])
        inits = subsample_inits(data, 30, seed=6)
        selected = []
        for scale in (1.0, 1e150):
            scaled = [GaussianParams(scale * g.mu, scale**2 * g.sigma)
                      for g in inits]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                roots = find_roots(scale * data, EstimatorConfig(), scaled)
            selected.append(roots.selected)
        assert selected[0] is not None
        assert selected[1] == selected[0]


class TestAffineEquivariance:
    def test_fit_transforms_covariantly(self):
        rng = np.random.default_rng(15)
        data = contaminated_sample(rng, n_clean=45, n_out=5, center=(8.0, -6.0))
        cfg = EstimatorConfig()
        base = fit(data, cfg, mle_fit(data))
        a = np.array([[1.5, 0.4], [-0.3, 0.9]])
        b = np.array([2.0, -1.0])
        mapped = data @ a.T + b
        init = GaussianParams(a @ mle_fit(data).mu + b, a @ mle_fit(data).sigma @ a.T)
        res = fit(mapped, cfg, init)
        want_mu = a @ base.params.mu + b
        want_sigma = a @ base.params.sigma @ a.T
        assert np.allclose(res.params.mu, want_mu, rtol=1e-6, atol=1e-8)
        assert np.allclose(res.params.sigma, want_sigma, rtol=1e-6, atol=1e-8)


class TestConfigValidation:
    def test_scatter_norm_values(self):
        with pytest.raises(ValueError):
            EstimatorConfig(scatter_norm="bogus")

    def test_tol_positive(self):
        with pytest.raises(ValueError):
            EstimatorConfig(tol=0.0)

    def test_round_trip(self):
        cfg = EstimatorConfig(
            dpr=DprConfig(0.25),
            weights=WeightSpec.smooth_exp(0.1, trim_xi=2.0),
            depth_method=DepthMethod.projection(500, seed=3),
            scatter_norm="sum-of-weights",
        )
        back = EstimatorConfig.from_dict(cfg.to_dict())
        assert back == cfg
