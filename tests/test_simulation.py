"""Monte Carlo harness: generation, metrics, grids, breakdown."""

import math

import numpy as np
import pytest

from depthwl import (
    ContaminationSpec,
    EstimatorConfig,
    GaussianParams,
    GridConfig,
    InitSpec,
    WeightSpec,
    breakdown_experiment,
    efficiency,
    generate_dataset,
    kl_gaussian,
    mle_fit,
    mse,
    run_grid,
    sample_size,
)

UNIT_WEIGHT_ESTIMATOR = EstimatorConfig(
    weights=WeightSpec.smooth_exp(0.0, trim_xi=float("inf"))
)


class TestGenerate:
    def test_no_contamination(self):
        data, mask = generate_dataset(30, 2, ContaminationSpec(0.0), seed=1)
        assert data.shape == (30, 2)
        assert not mask.any()

    def test_exact_outlier_count(self):
        spec = ContaminationSpec(0.2, mu_c=5.0, sigma_c=1.0)
        data, mask = generate_dataset(50, 2, spec, seed=2)
        assert mask.sum() == 10

    def test_contaminated_rows_are_shifted(self):
        spec = ContaminationSpec(0.5, mu_c=100.0, sigma_c=0.5)
        data, mask = generate_dataset(40, 3, spec, seed=3)
        assert np.all(data[mask].mean(axis=1) > 50)
        assert np.all(data[~mask].mean(axis=1) < 50)

    def test_deterministic(self):
        spec = ContaminationSpec(0.1, 2.0, 2.0)
        a, ma = generate_dataset(25, 2, spec, seed=9)
        b, mb = generate_dataset(25, 2, spec, seed=9)
        assert np.array_equal(a, b) and np.array_equal(ma, mb)

    def test_clean_mean_clt_bound(self):
        data, _ = generate_dataset(100_000, 2, ContaminationSpec(0.0), seed=4)
        bound = 4.0 / math.sqrt(100_000)
        assert np.all(np.abs(data.mean(axis=0)) < bound)

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            ContaminationSpec(1.0)
        with pytest.raises(ValueError):
            ContaminationSpec(0.1, sigma_c=0.0)


class TestMse:
    def test_zero_at_truth(self):
        gp = GaussianParams([1.0, 2.0], [[2.0, 0.1], [0.1, 1.0]])
        assert mse(gp, gp) == 0.0

    def test_univariate_location_error(self):
        est = GaussianParams([0.3], [[1.0]])
        truth = GaussianParams([0.0], [[1.0]])
        assert mse(est, truth) == pytest.approx(0.045)

    def test_bivariate_scatter_error(self):
        truth = GaussianParams.standard(2)
        est = GaussianParams([0.0, 0.0], np.eye(2) * 1.1)
        assert mse(est, truth) == pytest.approx(2 * 0.01 / 5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mse(GaussianParams.standard(1), GaussianParams.standard(2))


class TestSampleSize:
    def test_formula(self):
        assert sample_size(2, 10) == 50
        assert sample_size(1, 5) == 10
        assert sample_size(5, 2) == 40


def small_grid(**overrides):
    kwargs = dict(
        dims=(2,),
        size_factors=(5,),
        epsilons=(0.0, 0.2),
        mu_cs=(5.0,),
        sigma_cs=(1.0,),
        reps=3,
        seed=7,
        estimator=EstimatorConfig(),
        init=InitSpec("truth"),
    )
    kwargs.update(overrides)
    return GridConfig(**kwargs)


class TestRunGrid:
    def test_unit_weights_single_rep_equals_mle(self):
        cfg = small_grid(
            epsilons=(0.0,), reps=1, estimator=UNIT_WEIGHT_ESTIMATOR
        )
        report = run_grid(cfg)
        cell = report.cells[0]
        data, _ = generate_dataset(
            sample_size(2, 5), 2, ContaminationSpec(0.0, 5.0, 1.0), [7, 0, 0, 0]
        )
        mle = mle_fit(data)
        truth = GaussianParams.standard(2)
        assert cell.mean_mse == pytest.approx(mse(mle, truth))
        assert cell.mean_kl == pytest.approx(kl_gaussian(mle, truth))
        assert cell.mean_mse == cell.mle_mean_mse

    def test_deterministic_reports(self):
        cfg = small_grid()
        a = run_grid(cfg)
        b = run_grid(cfg)
        assert a.to_csv() == b.to_csv()
        assert a.maxima_json() == b.maxima_json()

    def test_cell_count_and_columns(self):
        cfg = small_grid(mu_cs=(0.0, 5.0), sigma_cs=(1.0, 2.0))
        report = run_grid(cfg)
        assert len(report.cells) == 2 * 4
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == (
            "p,s,n,epsilon,mu_c,sigma_c,reps,failures,retrieved,"
            "mean_mse,mean_kl,mle_mean_mse,mle_mean_kl"
        )
        assert len(lines) == 1 + 8

    def test_maxima_dominate_cells(self):
        cfg = small_grid(mu_cs=(2.0, 5.0, 10.0))
        report = run_grid(cfg)
        for rec in report.maxima:
            covered = [
                c
                for c in report.cells
                if (c.p, c.s, c.epsilon) == (rec["p"], rec["s"], rec["epsilon"])
            ]
            assert rec["max_mse"] >= max(c.mean_mse for c in covered)
            assert rec["max_kl"] >= max(c.mean_kl for c in covered)

    def test_failures_recorded_not_fatal(self):
        bad = EstimatorConfig(min_effective_points=1000)
        cfg = small_grid(estimator=bad, reps=2)
        report = run_grid(cfg)
        for cell in report.cells:
            assert cell.failures == 2
            assert math.isnan(cell.mean_mse)

    def test_retrieval_counts_bounded(self):
        cfg = small_grid(reps=4)
        report = run_grid(cfg)
        for cell in report.cells:
            assert 0 <= cell.retrieved <= cell.reps


class TestEfficiency:
    def test_unit_weights_exactly_one(self):
        cfg = small_grid(epsilons=(0.0,), reps=5, estimator=UNIT_WEIGHT_ESTIMATOR)
        ratios = efficiency(cfg)
        assert ratios[(2, 5)] == 1.0

    def test_rejects_contaminated_cells(self):
        with pytest.raises(ValueError):
            efficiency(small_grid(epsilons=(0.1,)))


class TestBreakdown:
    def test_no_outliers_no_displacement(self):
        rep = breakdown_experiment(50, 2, 0, 1e6, EstimatorConfig(), seed=1)
        assert rep.displacement < 1e-6
        assert rep.outlier_weight_sum == 0.0

    def test_far_outliers_rejected(self):
        rep = breakdown_experiment(50, 2, 20, 1e6, EstimatorConfig(), seed=2)
        assert rep.outlier_weight_sum == 0.0
        assert rep.displacement < 0.5
        assert rep.contaminated_converged

    def test_majority_contamination_breaks_down(self):
        rep = breakdown_experiment(50, 2, 60, 1e6, EstimatorConfig(), seed=3)
        # reported, not asserted robust: with m > n the estimate leaves
        # the clean neighborhood
        assert rep.displacement > 10.0

    def test_requires_n_above_2p(self):
        with pytest.raises(ValueError):
            breakdown_experiment(10, 5, 1, 1e3, EstimatorConfig(), seed=4)

    def test_report_serializes(self):
        rep = breakdown_experiment(30, 2, 5, 1e4, EstimatorConfig(), seed=5)
        d = rep.to_dict()
        assert set(d) >= {
            "displacement",
            "eigenvalue_min",
            "eigenvalue_max",
            "outlier_weight_sum",
        }
