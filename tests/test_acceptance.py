"""Acceptance suite.

One test per criterion, each printing a PASS/FAIL line with the
measured quantity before asserting it at the stated tolerance.  Run
with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import math
import time

import numpy as np
from scipy import special, stats

from depthwl import (
    DepthMethod,
    EstimatorConfig,
    GaussianParams,
    GridConfig,
    InitSpec,
    WeightSpec,
    breakdown_experiment,
    efficiency,
    empirical_depth,
    fit,
    kl_gaussian,
    mle_fit,
    run_grid,
    weight,
)
from instruments import check_weight_class, residual_rate_experiment
from test_depth import brute_force_depth_2d

SEED = 20260809


def report(num, name, ok, detail):
    line = f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def test_criterion_1_exact_depth_oracle():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    method = DepthMethod.exact()
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        data = rng.standard_normal((n, 2))
        query = data[int(rng.integers(0, n))] if rng.random() < 0.5 else rng.standard_normal(2)
        got = round(empirical_depth(query, data, method) * n)
        want = round(brute_force_depth_2d(query, data) * n)
        mismatches += got != want
    report(
        1,
        "exact-depth oracle equivalence",
        mismatches == 0,
        f"200 instances, {mismatches} mismatches, {time.time() - t0:.1f}s",
    )


def test_criterion_2_population_depth_identity():
    xs = np.linspace(-6.0, 6.0, 1000)
    worst = 0.0
    for x in xs:
        # chi-square CDF with k degrees of freedom: P(k/2, x/2)
        lhs = (1.0 - special.gammainc(0.5, 0.5 * (x * x))) / 2.0
        phi = 0.5 * math.erfc(-x / math.sqrt(2.0))
        worst = max(worst, abs(lhs - min(phi, 1.0 - phi)))
    grid = np.linspace(0.0, 50.0, 2001)
    worst2 = float(np.max(np.abs(special.gammainc(1.0, 0.5 * grid) - (1.0 - np.exp(-grid / 2.0)))))
    ok = worst <= 1e-10 and worst2 <= 1e-12
    report(
        2,
        "population-depth identity",
        ok,
        f"max |identity error| = {worst:.2e} (tol 1e-10), "
        f"max |chi2_2 closed form error| = {worst2:.2e} (tol 1e-12)",
    )


def test_criterion_3_efficiency_at_model():
    t0 = time.time()
    cfg = GridConfig(
        dims=(2,),
        size_factors=(10,),
        epsilons=(0.0,),
        mu_cs=(0.0,),
        sigma_cs=(1.0,),
        reps=100,
        seed=SEED,
        estimator=EstimatorConfig(),
        init=InitSpec("truth"),
    )
    ratio = efficiency(cfg)[(2, 10)]
    ok = 0.75 <= ratio <= 1.35
    report(
        3,
        "efficiency at the model",
        ok,
        f"MSE(MLE)/MSE(WLE) = {ratio:.4f} (required [0.75, 1.35]; "
        f"reference table value 0.925), {time.time() - t0:.1f}s",
    )


def test_criterion_4_contamination_robustness():
    t0 = time.time()
    cfg = GridConfig(
        dims=(2,),
        size_factors=(10,),
        epsilons=(0.2,),
        mu_cs=(5.0, 10.0),
        sigma_cs=(1.0,),
        reps=100,
        seed=SEED,
        estimator=EstimatorConfig(),
        init=InitSpec("truth"),
    )
    rep = run_grid(cfg)
    max_mse = rep.maxima[0]["max_mse"]
    max_kl = rep.maxima[0]["max_kl"]
    mle_max_mse = max(c.mle_mean_mse for c in rep.cells)
    ok = (
        0.05 <= max_mse <= 0.30
        and max_mse <= mle_max_mse / 3.0
        and max_kl <= 1.0
    )
    report(
        4,
        "contamination robustness",
        ok,
        f"max MSE = {max_mse:.4f} (required [0.05, 0.30]; reference 0.17), "
        f"MLE max MSE = {mle_max_mse:.2f} (ratio {max_mse / mle_max_mse:.3f} <= 1/3), "
        f"max KL = {max_kl:.4f} (<= 1.0; reference 0.42), {time.time() - t0:.1f}s",
    )


def test_criterion_5_breakdown_property():
    t0 = time.time()
    cfg = EstimatorConfig()
    worst_disp = 0.0
    worst_weight = 0.0
    for seed in range(20):
        rep = breakdown_experiment(50, 2, 20, 1e6, cfg, seed)
        worst_disp = max(worst_disp, rep.displacement)
        worst_weight = max(worst_weight, rep.outlier_weight_sum)
    ok = worst_weight == 0.0 and worst_disp < 0.5
    report(
        5,
        "breakdown property",
        ok,
        f"20 runs: max outlier weight sum = {worst_weight} (must be 0), "
        f"max displacement = {worst_disp:.4f} (< 0.5), {time.time() - t0:.1f}s",
    )


def test_criterion_6_affine_equivariance():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 6)
    cfg = EstimatorConfig()
    worst = 0.0
    checked = 0
    for ds in range(4):
        clean = rng.standard_normal((45, 2))
        outliers = np.array([7.0, -5.0]) + 0.5 * rng.standard_normal((5, 2))
        data = np.vstack([clean, outliers])
        init = mle_fit(data)
        base = fit(data, cfg, init)
        assert base.converged
        for _ in range(5):
            a = rng.standard_normal((2, 2))
            while abs(np.linalg.det(a)) < 0.2:
                a = rng.standard_normal((2, 2))
            b = rng.standard_normal(2)
            mapped_init = GaussianParams(a @ init.mu + b, a @ init.sigma @ a.T)
            res = fit(data @ a.T + b, cfg, mapped_init)
            want_mu = a @ base.params.mu + b
            want_sigma = a @ base.params.sigma @ a.T
            err_mu = np.max(np.abs(res.params.mu - want_mu)) / (
                1.0 + np.max(np.abs(want_mu))
            )
            err_sigma = np.max(np.abs(res.params.sigma - want_sigma)) / (
                1.0 + np.max(np.abs(want_sigma))
            )
            worst = max(worst, err_mu, err_sigma)
            checked += 1
    ok = checked == 20 and worst <= 1e-6
    report(
        6,
        "affine equivariance",
        ok,
        f"20 transforms: worst relative error = {worst:.2e} (tol 1e-6), "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_7_scaled_residual_rate():
    t0 = time.time()
    medians = residual_rate_experiment(
        sizes=(200, 3200),
        p=2,
        alpha=0.5,
        reps=20,
        method_for_size=lambda n: DepthMethod.projection(4000, seed=SEED + n),
        seed=SEED + 7,
    )
    ratio = medians[200] / medians[3200]
    ok = ratio >= 1.8
    report(
        7,
        "scaled-residual convergence rate",
        ok,
        f"median max|residual|: n=200 -> {medians[200]:.4f}, "
        f"n=3200 -> {medians[3200]:.4f}, ratio {ratio:.2f} (>= 1.8), "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_8_kl_oracle():
    t0 = time.time()
    rng = np.random.default_rng(SEED + 8)
    n = 100_000
    worst_z = 0.0
    for i in range(10):
        p = (1, 2, 5)[i % 3]
        a0 = rng.standard_normal((p, p))
        a1 = rng.standard_normal((p, p))
        p0 = GaussianParams(rng.standard_normal(p), a0 @ a0.T + p * np.eye(p))
        p1 = GaussianParams(rng.standard_normal(p), a1 @ a1.T + p * np.eye(p))
        draws = p0.mu + rng.standard_normal((n, p)) @ p0.chol.T
        diff = (stats.multivariate_normal.logpdf(draws, p0.mu, p0.sigma)
                - stats.multivariate_normal.logpdf(draws, p1.mu, p1.sigma))
        mc = float(np.mean(diff))
        se = float(np.std(diff) / math.sqrt(n))
        worst_z = max(worst_z, abs(kl_gaussian(p0, p1) - mc) / se)
    ok = worst_z <= 3.0
    report(
        8,
        "KL closed form vs Monte Carlo",
        ok,
        f"10 pairs, worst |z| = {worst_z:.2f} (<= 3 MC standard errors), "
        f"{time.time() - t0:.1f}s",
    )


def test_criterion_9_weight_class_conformance():
    grid = np.linspace(-1.0, 100.0, 8001)
    rep = check_weight_class(WeightSpec.smooth_exp(1.0), grid)
    smooth_ok = (
        rep.w_at_zero == 1.0
        and abs(rep.dw_at_zero) <= 1e-6
        and rep.passes_smooth_conditions
    )
    pw = WeightSpec.piecewise(2.0, 9.0, 0.3)
    vals = weight(grid, pw)
    lo = 0.3 / 1.3
    piecewise_ok = bool(np.all(vals >= lo - 1e-15) and np.all(vals <= 1.0))
    ok = smooth_ok and piecewise_ok
    report(
        9,
        "weight-class conformance",
        ok,
        f"smooth_exp: w(0)={rep.w_at_zero}, |w'(0)|={abs(rep.dw_at_zero):.2e} "
        f"(<= 1e-6); piecewise bounded in [{lo:.4f}, 1] on [-1, 100]: {piecewise_ok}",
    )
