"""Cross-module behavioral invariants of the weighted-likelihood flow."""

import dataclasses
import json
import math

import numpy as np
import pytest

import depthwl
from depthwl import (
    DepthMethod,
    EstimatorConfig,
    GaussianParams,
    GridConfig,
    InitSpec,
    WeightSpec,
    breakdown_experiment,
    efficiency,
    empirical_depths_all,
    find_roots,
    irwls_step,
    mle_fit,
    run_grid,
    subsample_inits,
)


def step_weights(data, params, depths, cfg):
    """``irwls_step`` of one problem: (new params, weights, residuals)."""
    step = irwls_step(data[None], params.mu[None], params.chol[None], depths[None], cfg)
    assert step.failures == {}
    return GaussianParams(step.mu[0], step.sigma[0]), step.weights[0], step.residuals[0]


class TestModelWeights:
    def test_mean_weight_near_one_at_model(self):
        # with alpha = 0.5 and the calibrated weights, clean Gaussian
        # data keeps essentially full weight
        rng = np.random.default_rng(31)
        cfg = EstimatorConfig()
        means = []
        for _ in range(10):
            data = rng.standard_normal((50, 2))
            depths = empirical_depths_all(data, DepthMethod.exact())
            _, w, _ = step_weights(data, GaussianParams.standard(2), depths, cfg)
            means.append(w.mean())
        assert np.mean(means) > 0.9

    def test_half_sample_keeps_weight_every_iteration(self):
        rng = np.random.default_rng(32)
        clean = rng.standard_normal((35, 2))
        outliers = np.array([4.0, 4.0]) + 0.3 * rng.standard_normal((15, 2))
        data = np.vstack([clean, outliers])
        cfg = EstimatorConfig()
        depths = empirical_depths_all(data, DepthMethod.exact())
        params = GaussianParams.standard(2)
        for _ in range(40):
            params, w, _ = step_weights(data, params, depths, cfg)
            assert np.count_nonzero(w) >= math.ceil(len(data) / 2)


class TestEfficiencyBrackets:
    def test_univariate_quarter_alpha(self):
        # clean-model efficiency for p=1, s=5, alpha=0.25 sits near 1
        est = EstimatorConfig(weights=WeightSpec.optimal(0.25))
        cfg = GridConfig(
            dims=(1,), size_factors=(5,), epsilons=(0.0,),
            mu_cs=(0.0,), sigma_cs=(1.0,), reps=100, seed=77,
            estimator=est, init=InitSpec("truth"),
        )
        ratio = efficiency(cfg)[(1, 5)]
        assert 0.7 <= ratio <= 1.4


class TestGridInitStrategies:
    def grid(self, init, reps=2):
        return GridConfig(
            dims=(2,), size_factors=(5,), epsilons=(0.1,),
            mu_cs=(5.0,), sigma_cs=(1.0,), reps=reps, seed=5,
            estimator=EstimatorConfig(), init=init,
        )

    def test_subsample_init_deterministic(self):
        cfg = self.grid(InitSpec("subsample", b=25, seed=3))
        assert run_grid(cfg).to_csv() == run_grid(cfg).to_csv()

    def test_depth_init_runs(self):
        report = run_grid(self.grid(InitSpec("depth_deterministic")))
        cell = report.cells[0]
        assert cell.failures == 0
        assert math.isfinite(cell.mean_mse)

    def test_strategies_see_same_datasets(self):
        # MLE columns depend only on the data stream, not on the inits
        a = run_grid(self.grid(InitSpec("truth")))
        b = run_grid(self.grid(InitSpec("depth_deterministic")))
        assert a.cells[0].mle_mean_mse == b.cells[0].mle_mean_mse
        assert a.cells[0].mle_mean_kl == b.cells[0].mle_mean_kl


def _records():
    """One of each record whose JSON object is its init fields."""
    rng = np.random.default_rng(35)
    data = rng.standard_normal((30, 2))
    roots = find_roots(data, EstimatorConfig(), subsample_inits(data, 4, seed=1))
    grid = GridConfig((2,), (2,), (0.1,), (5.0,), (1.0,), 2, 0,
                      init=InitSpec.from_dict({"strategy": "subsample", "B": 3, "seed": 4}))
    return {
        "FitResult": roots.roots[0],
        "RootSet": roots,
        "EstimatorConfig": EstimatorConfig(depth_method=DepthMethod.projection(20, 3)),
        "GridConfig": grid,
        "GaussianParams": GaussianParams.standard(3),
        "BreakdownReport": breakdown_experiment(30, 2, 5, 1e4, EstimatorConfig(), seed=5),
    }


RECORDS = _records()


class TestRecordSerialization:
    @pytest.mark.parametrize("name", RECORDS)
    def test_keys_are_init_fields_in_order(self, name):
        record = RECORDS[name]
        init_fields = [f.name for f in dataclasses.fields(record) if f.init]
        assert list(record.to_dict()) == init_fields

    @pytest.mark.parametrize("name", [n for n in RECORDS if hasattr(RECORDS[n], "from_dict")])
    def test_round_trip_through_json(self, name):
        record = RECORDS[name]
        blob = json.dumps(record.to_dict())
        back = type(record).from_dict(json.loads(blob))
        assert json.dumps(back.to_dict()) == blob


class TestPackageExports:
    MODULES = ("depth", "estimator", "gaussian", "initializers", "residuals", "simulation")

    def test_all_is_the_union_of_the_module_lists(self):
        names = [n for m in self.MODULES for n in getattr(depthwl, m).__all__]
        assert sorted(depthwl.__all__) == sorted(names)
        assert len(set(depthwl.__all__)) == len(depthwl.__all__)
        assert all(hasattr(depthwl, name) for name in depthwl.__all__)


class TestResidualBounds:
    def test_residuals_never_below_minus_one(self):
        # model depth <= 1/2 and alpha <= 1 bound the residual below
        rng = np.random.default_rng(34)
        cfg = EstimatorConfig()
        for _ in range(5):
            clean = rng.standard_normal((30, 2))
            shifted = np.array([3.0, 0.0]) + rng.standard_normal((20, 2))
            data = np.vstack([clean, shifted])
            depths = empirical_depths_all(data, DepthMethod.exact())
            start = mle_fit(data)
            _, _, tau = step_weights(data, start, depths, cfg)
            assert np.all(tau >= -1.0)


class TestSinglePoint2d:
    def test_depth_one(self):
        got = empirical_depths_all(np.array([[3.0, -1.0]]), DepthMethod.exact())
        assert np.allclose(got, [1.0])
