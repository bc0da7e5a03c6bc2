"""Reweighting iteration: fixed points, trimming, roots, equivariance."""

import warnings

import numpy as np
import pytest

from depthwl import (
    DepthMethod,
    EstimatorConfig,
    GaussianParams,
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


def step_from(data, starts, depths, cfg):
    """``irwls_step`` of one stack: the starts on the same data."""
    return irwls_step(
        np.broadcast_to(data, (len(starts),) + data.shape),
        np.array([g.mu for g in starts]),
        np.array([g.chol for g in starts]),
        np.broadcast_to(depths, (len(starts),) + depths.shape),
        cfg,
    )


class TestIrwlsStep:
    def test_unit_weights_one_step_is_mle(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((30, 2))
        depths = empirical_depths_all(data, DepthMethod.exact())
        starts = [GaussianParams.standard(2), GaussianParams([5.0, -7.0], 9.0 * np.eye(2))]
        step = step_from(data, starts, depths, UNIT_WEIGHTS)
        mle = mle_fit(data)
        assert step.failures == {}
        for i in range(len(starts)):
            assert np.array_equal(step.mu[i], mle.mu)
            assert np.array_equal(step.sigma[i], mle.sigma)
            assert np.array_equal(step.chol[i], mle.chol)
        assert np.all(step.weights == 1.0)

    def test_small_displacement_at_truth(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((500, 2))
        truth = GaussianParams.standard(2)
        cfg = EstimatorConfig()
        depths = empirical_depths_all(data, DepthMethod.exact())
        step = step_from(data, [truth], depths, cfg)
        assert step.failures == {}
        assert np.max(np.abs(step.residuals)) < 0.5
        assert np.mean(step.weights) > 0.95
        assert np.max(np.abs(step.mu[0] - truth.mu)) < 0.05
        assert np.max(np.abs(step.sigma[0] - truth.sigma)) < 0.05

    def test_outliers_zeroed_by_trim(self):
        rng = np.random.default_rng(3)
        data = contaminated_sample(rng)
        cfg = EstimatorConfig()
        depths = empirical_depths_all(data, DepthMethod.exact())
        w = step_from(data, [GaussianParams.standard(2)], depths, cfg).weights[0]
        assert np.all(w[40:] == 0.0)
        # trimming may clip the odd clean point whose empirical depth
        # runs ahead of its model depth, but never many
        assert np.count_nonzero(w[:40]) >= 38

    def test_effective_sample_failure(self):
        # a start far from the data trims all but 1.38 of weight, below
        # p + 1; the start beside it in the stack is unaffected
        rng = np.random.default_rng(4)
        data = rng.standard_normal((10, 2))
        depths = empirical_depths_all(data, DepthMethod.exact())
        far = GaussianParams([1e3, 1e3], np.eye(2))
        near = GaussianParams.standard(2)
        step = step_from(data, [far, near], depths, EstimatorConfig())
        assert step.failures == {0: "effective sample size 1.38 below minimum 3"}
        alone = step_from(data, [near], depths, EstimatorConfig())
        assert np.array_equal(step.mu[1], alone.mu[0])
        assert np.array_equal(step.sigma[1], alone.sigma[0])

    @pytest.mark.parametrize("scatter_norm", ["literal-1-over-n", "sum-of-weights"])
    def test_all_weights_trimmed_masked_in_a_mixed_stack(self, scatter_norm):
        # every weight of the far start trims to zero, so its update would
        # divide 0 by 0; it is masked, and the others step as if alone
        rng = np.random.default_rng(21)
        data = rng.standard_normal((30, 2))
        depths = empirical_depths_all(data, DepthMethod.exact())
        cfg = EstimatorConfig(weights=WeightSpec.piecewise(2.0, 9.0, 0.0),
                              scatter_norm=scatter_norm)
        starts = [GaussianParams.standard(2), GaussianParams([1e3, 1e3], np.eye(2)),
                  mle_fit(data), GaussianParams([0.5, -0.5], 4.0 * np.eye(2))]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            step = step_from(data, starts, depths, cfg)
            alone = [step_from(data, [g], depths, cfg) for g in starts]
        assert step.failures == {1: "effective sample size 0 below minimum 3"}
        assert alone[1].failures == {0: "effective sample size 0 below minimum 3"}
        assert np.all(step.weights[1] == 0.0)
        for i, one in enumerate(alone):
            assert step.weights[i].tobytes() == one.weights[0].tobytes()
            assert step.residuals[i].tobytes() == one.residuals[0].tobytes()
            for got, want in zip(step[:3], one[:3]):
                if i == 1:
                    assert np.isnan(got[i]).all() and np.isnan(want[0]).all()
                else:
                    assert got[i].tobytes() == want[0].tobytes()

    def test_masked_update_of_far_outlier_data_is_silent(self):
        # the kept start trims the rows at 1e160, whose scatter would
        # overflow were the masked start updated with unit weights
        rng = np.random.default_rng(0)
        data = np.vstack([rng.standard_normal((40, 2)), 1e160 + rng.standard_normal((10, 2))])
        depths = empirical_depths_all(data, DepthMethod.exact())
        cfg = EstimatorConfig(weights=WeightSpec.piecewise(2.0, 9.0, 0.0))
        starts = [GaussianParams.standard(2), GaussianParams([1e3, 1e3], np.eye(2))]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            step = step_from(data, starts, depths, cfg)
        assert step.failures == {1: "effective sample size 0 below minimum 3"}
        assert np.all(np.abs(step.mu[0]) < 1.0) and np.isfinite(step.chol[0]).all()


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
        depths = empirical_depths_all(data, DepthMethod.exact())
        again = step_from(data, [res.params], depths, cfg)
        assert again.failures == {}
        assert np.max(np.abs(again.mu[0] - res.params.mu)) < 10 * cfg.tol
        assert np.max(np.abs(again.sigma[0] - res.params.sigma)) < 10 * cfg.tol

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

    def test_start_dimension_must_match_data(self):
        data = np.random.default_rng(11).standard_normal((40, 2))
        with pytest.raises(ValueError, match="dimension 3.*dimension 2"):
            fit(data, EstimatorConfig(), GaussianParams.standard(3))


BAD_DEPTHS = {
    "one-depth": (np.array([0.5]), r"shape \(50,\)"),
    "column": (np.full((50, 1), 0.5), r"shape \(50,\)"),
    "too-long": (np.full(51, 0.5), r"shape \(50,\)"),
    "nan": (np.r_[np.full(49, 0.5), np.nan], r"finite and in \[0, 1\]"),
    "inf": (np.r_[np.full(49, 0.5), np.inf], r"finite and in \[0, 1\]"),
    "above-one": (np.r_[np.full(49, 0.5), 1.5], r"finite and in \[0, 1\]"),
    "negative": (np.r_[np.full(49, 0.5), -0.1], r"finite and in \[0, 1\]"),
}


class TestGivenDepths:
    """Caller-supplied empirical depths are checked, not broadcast."""

    @pytest.mark.parametrize("depths, message", BAD_DEPTHS.values(), ids=BAD_DEPTHS.keys())
    def test_fit_and_find_roots_reject(self, depths, message):
        data = np.random.default_rng(4).standard_normal((50, 2))
        start = mle_fit(data)
        with pytest.raises(ValueError, match=f"^emp_depths must .*{message}"):
            fit(data, EstimatorConfig(), start, emp_depths=depths)
        with pytest.raises(ValueError, match=f"^emp_depths must .*{message}"):
            find_roots(data, EstimatorConfig(), [start], emp_depths=depths)

    def test_valid_depths_as_list(self):
        data = np.random.default_rng(4).standard_normal((50, 2))
        depths = empirical_depths_all(data, DepthMethod())
        got = find_roots(data, EstimatorConfig(), [mle_fit(data)], emp_depths=depths.tolist())
        want = find_roots(data, EstimatorConfig(), [mle_fit(data)])
        assert got.best.params.mu.tobytes() == want.best.params.mu.tobytes()


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
        for method in (DepthMethod.projection(500, seed=3), DepthMethod("auto", 7, 3),
                       DepthMethod()):
            cfg = EstimatorConfig(
                weights=WeightSpec.smooth_exp(0.1, trim_xi=2.0, alpha=0.25),
                depth_method=method,
                scatter_norm="sum-of-weights",
            )
            back = EstimatorConfig.from_dict(cfg.to_dict())
            assert back == cfg

    def test_unknown_field_rejected(self):
        d = EstimatorConfig().to_dict()
        d["min_effective_points"] = 1000
        with pytest.raises(ValueError, match="min_effective_points"):
            EstimatorConfig.from_dict(d)
