"""Monte Carlo harness: generation, metrics, grids, breakdown."""

import json
import math

import numpy as np
import pytest

from depthwl import (
    ContaminationSpec,
    DepthMethod,
    EstimatorConfig,
    GaussianParams,
    GridConfig,
    InitSpec,
    WeightSpec,
    breakdown_experiment,
    depth_init,
    efficiency,
    empirical_depths_all,
    find_roots,
    generate_dataset,
    kl_gaussian,
    mle_fit,
    mse,
    run_grid,
    sample_size,
    subsample_inits,
)
from depthwl import depth, simulation

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

    @pytest.mark.parametrize("n", [0, -3])
    def test_empty_sample_rejected(self, n):
        with pytest.raises(ValueError, match="n must be >= 1"):
            generate_dataset(n, 2, ContaminationSpec(0.0), seed=1)

    def test_clean_mean_clt_bound(self):
        data, _ = generate_dataset(100_000, 2, ContaminationSpec(0.0), seed=4)
        bound = 4.0 / math.sqrt(100_000)
        assert np.all(np.abs(data.mean(axis=0)) < bound)

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            ContaminationSpec(1.0)
        with pytest.raises(ValueError):
            ContaminationSpec(0.1, sigma_c=0.0)


def _seeded_output(entry, seed) -> bytes:
    """The bytes of what each seeded entry point returns for ``seed``."""
    data = np.random.default_rng(0).standard_normal((30, 2))
    if entry == "subsample_inits":
        return np.array([g.sigma for g in subsample_inits(data, 5, seed)]).tobytes()
    if entry == "generate_dataset":
        rows, mask = generate_dataset(20, 2, ContaminationSpec(0.2, 5.0), seed)
        return rows.tobytes() + mask.tobytes()
    rep = breakdown_experiment(30, 2, 3, 1e3, EstimatorConfig(), seed=seed)
    return json.dumps(rep.to_dict()).encode()


class TestSeedKeys:
    """``depth._rng``, the one seed rule, behind each seeded entry point."""

    ENTRIES = ("subsample_inits", "generate_dataset", "breakdown_experiment")

    @pytest.mark.parametrize("seed", [2.5, "ab", [1.5], (3, True)],
                             ids=["float", "str", "float key", "bool key"])
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_non_integer_key_named(self, entry, seed):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            _seeded_output(entry, seed)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_keys_masked_to_64_bits(self, entry):
        # a negative or wider-than-64-bit key is its low 64 bits
        assert _seeded_output(entry, -1) == _seeded_output(entry, 2**64 - 1)
        assert _seeded_output(entry, 2**70 + 5) == _seeded_output(entry, 5)
        assert (_seeded_output(entry, [3, -2]) == _seeded_output(entry, (3, 2**64 - 2))
                == _seeded_output(entry, np.array([3, -2])))
        assert _seeded_output(entry, np.int64(7)) == _seeded_output(entry, 7)
        assert _seeded_output(entry, 5) != _seeded_output(entry, 6)


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


class TestGridDepthMethod:
    def test_auto_keeps_directions_and_seed(self):
        blob = small_grid(dims=(3,)).to_dict()
        blob["estimator"]["depth_method"] = {
            "kind": "auto", "n_directions": 7, "direction_seed": 3,
        }
        method = GridConfig.from_dict(blob).estimator.depth_method
        data = np.random.default_rng(12).standard_normal((30, 3))
        assert np.array_equal(
            empirical_depths_all(data, method),
            empirical_depths_all(data, DepthMethod.projection(7, seed=3)),
        )

    def test_method_checked_against_every_dimension(self):
        exact = EstimatorConfig(depth_method=DepthMethod.exact())
        small_grid(dims=(2,), estimator=exact)
        with pytest.raises(ValueError, match="p <= 2"):
            small_grid(dims=(2, 3), estimator=exact)


class TestGridConfigDict:
    def test_unknown_field_rejected(self):
        blob = small_grid().to_dict()
        blob["inti"] = blob.pop("init")
        with pytest.raises(ValueError, match=r"unknown fields: \['inti'\]"):
            GridConfig.from_dict(blob)

    @pytest.mark.parametrize("name", ["dims", "size_factors", "epsilons", "mu_cs",
                                      "sigma_cs"])
    def test_scalar_list_field_named(self, name):
        with pytest.raises(ValueError, match=f"{name} must be a list, got 3"):
            small_grid(**{name: 3})
        blob = small_grid().to_dict()
        blob[name] = 3
        with pytest.raises(ValueError, match=f"invalid field: {name} must be a list"):
            GridConfig.from_dict(blob)

    @pytest.mark.parametrize("make, name", [
        (lambda: EstimatorConfig(tol="1e-8"), "tol"),
        (lambda: WeightSpec.optimal("0.5"), "alpha"),
        (lambda: WeightSpec.smooth_exp(0.1, alpha=True), "alpha"),
        (lambda: WeightSpec.piecewise("2", 9.0, 0.3), "delta1"),
        (lambda: WeightSpec.piecewise(2.0, [9.0], 0.3), "delta2"),
        (lambda: WeightSpec.piecewise(2.0, 9.0, "0.3"), "gamma"),
        (lambda: WeightSpec.smooth_exp("0.1"), "a"),
        (lambda: WeightSpec.smooth_exp(0.1, trim_xi="big"), "trim_xi"),
        (lambda: ContaminationSpec("0.1"), "epsilon"),
        (lambda: ContaminationSpec(0.1, "a"), "mu_c"),
        (lambda: ContaminationSpec(0.1, True), "mu_c"),
        (lambda: ContaminationSpec(0.1, 5.0, [1.0]), "sigma_c"),
    ], ids=["tol", "alpha", "alpha-bool", "delta1", "delta2", "gamma", "a", "trim_xi",
            "epsilon", "mu_c", "mu_c-bool", "sigma_c"])
    def test_non_real_field_named(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            make()

    def test_non_real_field_named_in_json(self):
        blob = small_grid().to_dict()
        blob["estimator"]["tol"] = "x"
        with pytest.raises(ValueError, match=r"estimator \(tol must be a real number"):
            GridConfig.from_dict(blob)

    @pytest.mark.parametrize("name, entries", [
        ("mu_cs", [True]),
        ("epsilons", ["0.1"]),
        ("sigma_cs", [1.0, None]),
    ])
    def test_non_real_contamination_named(self, name, entries):
        # neither converted to float nor read as a number: named by its list
        blob = small_grid().to_dict()
        blob[name] = entries
        bad = len(entries) - 1
        with pytest.raises(ValueError, match=rf"{name}\[{bad}\]: .* must be a real number"):
            GridConfig.from_dict(blob)
        with pytest.raises(ValueError, match=rf"^{name}\[{bad}\]: "):
            small_grid(**{name: tuple(entries)})

    @pytest.mark.parametrize("make, name", [
        (lambda: EstimatorConfig(tol=10**400), "tol"),
        (lambda: WeightSpec.piecewise(1.0, 10**400, 0.3), "delta2"),
        (lambda: ContaminationSpec(0.1, -10**400), "mu_c"),
        (lambda: small_grid(sigma_cs=(1.0, 10**400)), r"sigma_cs\[1\]: sigma_c"),
    ], ids=["tol", "delta2", "mu_c", "sigma_cs"])
    def test_integer_too_large_for_a_float_named(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} is an integer too large for a float"):
            make()

    def test_integer_too_large_for_a_float_named_in_json(self):
        blob = small_grid().to_dict()
        blob["mu_cs"] = [10**400]
        with pytest.raises(ValueError, match=r"invalid field: mu_cs\[0\]: mu_c is an integer"):
            GridConfig.from_dict(json.loads(json.dumps(blob)))

    def test_entries_stored_as_floats(self):
        # built in Python from ints or read back from JSON: the same report
        grid = small_grid(epsilons=(0, np.int64(0)), mu_cs=(5,), sigma_cs=(1,), reps=1)
        assert all(type(v) is float for v in grid.epsilons + grid.mu_cs + grid.sigma_cs)
        read = GridConfig.from_dict(json.loads(json.dumps(grid.to_dict())))
        assert run_grid(grid).to_csv().encode() == run_grid(read).to_csv().encode()

    @pytest.mark.parametrize("overrides", [
        dict(dims=(2, 3), init=InitSpec("custom", custom=(GaussianParams.standard(2),))),
        dict(init=InitSpec("custom", custom=(GaussianParams.standard(2),
                                             GaussianParams.standard(1)))),
        dict(size_factors=(2, 1), init=InitSpec("subsample", b=5)),
    ], ids=["custom-other-dims", "custom-mixed", "subsample-below-elemental-size"])
    def test_starts_no_replication_can_make_rejected(self, overrides):
        with pytest.raises(ValueError, match="^init: "):
            small_grid(**overrides)
        blob = small_grid().to_dict()
        blob.update((k, list(v)) for k, v in overrides.items() if k != "init")
        blob["init"] = overrides["init"].to_dict()
        with pytest.raises(ValueError, match="^invalid field: init: "):
            GridConfig.from_dict(blob)

    def test_contamination_range_named_by_list(self):
        blob = small_grid().to_dict()
        blob["epsilons"] = [0.1, 1.5]
        with pytest.raises(ValueError, match=r"epsilons\[1\]: epsilon must lie in \[0, 1\)"):
            GridConfig.from_dict(blob)


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

    @pytest.mark.parametrize("overrides", [
        # mle_fit overflows
        dict(mu_cs=(1e160,), epsilons=(0.2,)),
        # the deepest half, contaminated rows 1e-300 apart, has a zero scatter
        dict(epsilons=(0.6,), mu_cs=(0.0,), sigma_cs=(1e-300,),
             init=InitSpec("depth_deterministic")),
        # no start converges
        dict(estimator=EstimatorConfig(max_iter=1, tol=1e-300)),
    ], ids=["mle-overflow", "depth-start-singular", "no-convergence"])
    def test_failures_recorded_not_fatal(self, overrides):
        report = run_grid(small_grid(reps=2, **overrides))
        for cell in report.cells:
            assert cell.failures == 2
            assert math.isnan(cell.mean_mse)

    def test_custom_start_equals_truth(self):
        blob = small_grid().to_dict()
        blob["init"] = {"strategy": "custom",
                        "params_list": [GaussianParams.standard(2).to_dict()]}
        custom = GridConfig.from_dict(json.loads(json.dumps(blob)))
        assert custom.init.strategy == "custom"
        assert run_grid(custom).to_csv() == run_grid(small_grid()).to_csv()

    def test_depth_start_one_depth_pass(self, monkeypatch):
        # Datasets reaching the depth layer, per call: one stacked call per
        # cell, and no dataset again for its depth start.
        datasets = []
        real = depth._stacked_depths

        def counting(data, queries, method):
            datasets.append(len(data))
            return real(data, queries, method)

        monkeypatch.setattr(depth, "_stacked_depths", counting)
        cfg = small_grid(epsilons=(0.0, 0.2), reps=3,
                         init=InitSpec("depth_deterministic"))
        report = run_grid(cfg)
        assert datasets == [3, 3]
        monkeypatch.undo()
        # The cells of a depth start and a fit that each compute the depths.
        for cell_id, cell in enumerate(report.cells):
            p, spec = cell.p, ContaminationSpec(cell.epsilon, cell.mu_c, cell.sigma_c)
            kl = []
            for r in range(cfg.reps):
                data, _ = generate_dataset(sample_size(p, cell.s), p, spec,
                                           [cfg.seed, cell_id, r, 0])
                roots = find_roots(data, cfg.estimator, [depth_init(data)])
                kl.append(kl_gaussian(roots.best.params, GaussianParams.standard(p)))
            assert cell.failures == 0
            assert cell.mean_kl == float(np.mean(kl))

    def test_retrieval_counts_bounded(self):
        cfg = small_grid(reps=4)
        report = run_grid(cfg)
        for cell in report.cells:
            assert 0 <= cell.retrieved <= cell.reps


def reference_cell(cfg, cell_id, cell):
    """The CSV row of one grid cell, replication by replication through
    the public entry points, as the stacked cell must reproduce it."""
    p, s, eps, mu_c, sigma_c = cell
    n = sample_size(p, s)
    truth = GaussianParams.standard(p)
    spec = ContaminationSpec(eps, mu_c, sigma_c)
    wle_mse, wle_kl, mle_mse, mle_kl = [], [], [], []
    for r in range(cfg.reps):
        data, _ = generate_dataset(n, p, spec, [cfg.seed, cell_id, r, 0])
        try:
            mle = mle_fit(data)
            emp = empirical_depths_all(data, cfg.estimator.depth_method)
            inits = cfg.init.make_inits(data, emp, truth=truth, seed_keys=[cell_id, r])
            best = find_roots(data, cfg.estimator, inits, emp).best
        except ValueError:
            continue
        if best is not None:
            mle_mse.append(mse(mle, truth))
            mle_kl.append(kl_gaussian(mle, truth))
            wle_mse.append(mse(best.params, truth))
            wle_kl.append(kl_gaussian(best.params, truth))

    def mean(v):
        return float(np.mean(v)) if v else float("nan")

    retrieved = sum(w < 0.5 * m for w, m in zip(wle_kl, mle_kl))
    return [p, s, n, eps, mu_c, sigma_c, cfg.reps, cfg.reps - len(wle_mse), retrieved,
            mean(wle_mse), mean(wle_kl), mean(mle_mse), mean(mle_kl)]


class TestStackedCells:
    """``run_grid`` stacks each cell's replications; every number must be
    that of running them one at a time, NaN where no replication is left."""

    @pytest.mark.parametrize("overrides", [
        dict(init=InitSpec("truth")),
        dict(init=InitSpec("subsample", b=6, seed=4)),
        dict(init=InitSpec("depth_deterministic")),
        dict(mu_cs=(1e160,), epsilons=(0.2,)),
        dict(epsilons=(0.6,), mu_cs=(0.0,), sigma_cs=(1e-300,),
             init=InitSpec("depth_deterministic")),
        dict(estimator=EstimatorConfig(max_iter=1, tol=1e-300)),
    ], ids=["truth", "subsample", "depth", "mle-overflow", "depth-start-singular",
            "no-convergence"])
    def test_cells_equal_replication_loop(self, overrides):
        cfg = small_grid(**{"dims": (1, 2, 3), "epsilons": (0.0, 0.3), "reps": 3,
                            **overrides})
        report = run_grid(cfg)
        for cell_id, (cell, got) in enumerate(zip(cfg.cells(), report.cells)):
            want = reference_cell(cfg, cell_id, cell)
            assert [repr(v) for v in got.row()] == [repr(v) for v in want]

    def test_mixed_failures_within_a_cell(self):
        # Three steps from the truth: some replications of a cell converge
        # and the others fail.
        cfg = small_grid(dims=(1, 2), size_factors=(2,), epsilons=(0.0, 0.5), reps=12,
                         estimator=EstimatorConfig(max_iter=3))
        report = run_grid(cfg)
        assert any(0 < c.failures < c.reps for c in report.cells)
        for cell_id, (cell, got) in enumerate(zip(cfg.cells(), report.cells)):
            assert [repr(v) for v in got.row()] == \
                [repr(v) for v in reference_cell(cfg, cell_id, cell)]


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

    @pytest.mark.parametrize("changes, message", [
        ({"m": -1}, "^m must be an integer >= 0, got -1$"),
        ({"p": 0}, "^p must be an integer >= 1, got 0$"),
        ({"n": 30.0}, "^n must be an integer, got 30.0$"),
        ({"distance": float("nan")}, "^distance must be finite, got nan$"),
        ({"distance": "1e3"}, "^distance must be a real number"),
        ({"distance": 10**400}, "^distance is an integer too large for a float$"),
    ], ids=["m", "p", "n", "nan distance", "str distance", "huge distance"])
    def test_bad_input_named_before_any_draw(self, monkeypatch, changes, message):
        def no_draws(*args):
            raise AssertionError("drew before checking the inputs")

        monkeypatch.setattr(simulation, "_rng", no_draws)
        args = {"n": 30, "p": 2, "m": 5, "distance": 1e3, **changes}
        with pytest.raises(ValueError, match=message):
            breakdown_experiment(**args, cfg=EstimatorConfig(), seed=0)

    def test_report_serializes(self):
        rep = breakdown_experiment(30, 2, 5, 1e4, EstimatorConfig(), seed=5)
        d = rep.to_dict()
        assert set(d) >= {
            "displacement",
            "eigenvalue_min",
            "eigenvalue_max",
            "outlier_weight_sum",
        }
