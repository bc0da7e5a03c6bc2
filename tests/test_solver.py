"""The stacked reweighting solver: against the serial loop it replaced,
and independent of what else is in its stack.

``reference_step`` and ``reference_fit`` are the serial step and fit
loop the solver replaced, kept here as the slow reference: one start at
a time, model depth through ``population_depth_gaussian`` and a
``GaussianParams`` with its Cholesky re-check on every iterate.  The
stacked deduplication is checked against the per-pair ``kl_gaussian``
loop it replaced.
"""

import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from depthwl import (
    DEDUP_KL,
    ContaminationSpec,
    DepthMethod,
    EstimatorConfig,
    GaussianParams,
    GridConfig,
    InitSpec,
    WeightSpec,
    apply_trim,
    dpr,
    empirical_depths_all,
    find_roots,
    fit,
    generate_dataset,
    kl_gaussian,
    population_depth_gaussian,
    run_grid,
    subsample_inits,
    weight,
)
from depthwl import estimator, gaussian, simulation
from depthwl.gaussian import _log_det, _stacked_kl, weighted_location_scatter


class ReferenceStepFailure(RuntimeError):
    pass


def reference_residuals_weights(data, params, emp_depths, cfg):
    tau = dpr(emp_depths, population_depth_gaussian(data, params), cfg.weights.alpha)
    return tau, apply_trim(tau, weight(tau, cfg.weights), cfg.weights.trim_xi)


def reference_step(data, params, emp_depths, cfg):
    n = data.shape[0]
    min_eff = params.p + 1
    _, w = reference_residuals_weights(data, params, emp_depths, cfg)
    sum_w = float(w.sum())
    if sum_w < min_eff:
        raise ReferenceStepFailure(
            f"effective sample size {sum_w:.3g} below minimum {min_eff:.3g}"
        )
    denom = float(n) if cfg.scatter_norm == "literal-1-over-n" else sum_w
    mu, sigma = weighted_location_scatter(data, w, denom)
    try:
        return GaussianParams(mu, sigma)
    except ValueError:
        raise ReferenceStepFailure("updated scatter matrix is singular") from None


def reference_converged(old, new, tol):
    dmu = float(np.abs(new.mu - old.mu).max()) / (1.0 + float(np.abs(new.mu).max()))
    dsig = float(np.abs(new.sigma - old.sigma).max()) / (
        1.0 + float(np.abs(new.sigma).max())
    )
    return max(dmu, dsig) < tol


def reference_fit(data, cfg, init, emp_depths):
    """(params, iterations, converged, message, sum of weights)."""
    params, iterations, converged, message = init, 0, False, None
    for _ in range(cfg.max_iter):
        try:
            new = reference_step(data, params, emp_depths, cfg)
        except ReferenceStepFailure as exc:
            message = str(exc)
            break
        iterations += 1
        done = reference_converged(params, new, cfg.tol)
        params = new
        if done:
            converged = True
            break
    else:
        message = "maximum iterations reached without convergence"
    _, w = reference_residuals_weights(data, params, emp_depths, cfg)
    return params, iterations, converged, message, float(w.sum())


def reference_roots(fits):
    """Deduplicated converged fits and the selected index, as find_roots
    ranks them."""
    roots = []
    for f in fits:
        if f[2] and not any(
            kl_gaussian(f[0], r[0]) + kl_gaussian(r[0], f[0]) < DEDUP_KL for r in roots
        ):
            roots.append(f)
    selected = min(
        range(len(roots)), key=lambda i: (-roots[i][4], roots[i][0].log_det, i),
        default=None,
    )
    return roots, selected


def close(a, b, rel=1e-10):
    return np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


def assert_matches_reference(datasets, cfg, inits_of):
    """The solver over the starts of all ``datasets`` at once against
    the reference loop on each start alone: the same iterations,
    convergence and message per start, converged parameters within
    1e-10, and the same roots and selection per dataset."""
    p = datasets[0].shape[1]
    emps = [empirical_depths_all(d, cfg.depth_method) for d in datasets]
    inits = [inits_of(d, k) for k, d in enumerate(datasets)]
    starts = [estimator._starts(i, p) for i in inits]
    ds = np.repeat(np.arange(len(datasets)), [len(i) for i in inits])
    stack = estimator._solve(
        np.array(datasets), np.array(emps), ds,
        [np.concatenate(a) for a in zip(*starts)], cfg,
    )
    root_sets = estimator._root_sets(np.array(datasets), np.array(emps), starts, cfg)
    i = 0
    for data, emp, dataset_inits, roots in zip(datasets, emps, inits, root_sets):
        fits = [reference_fit(data, cfg, g, emp) for g in dataset_inits]
        for params, iterations, converged, message, _ in fits:
            assert stack.iterations[i] == iterations
            assert stack.converged[i] == converged
            assert stack.messages[i] == message
            if converged:
                # (a start still moving after max_iter steps amplifies
                # rounding differences without bound)
                assert close(stack.mu[i], params.mu)
                assert close(stack.sigma[i], params.sigma)
            i += 1
        want, selected = reference_roots(fits)
        assert len(roots.roots) == len(want)
        assert roots.selected == selected
        for got, ref in zip(roots.roots, want):
            assert close(got.params.mu, ref[0].mu)
            assert close(got.params.sigma, ref[0].sigma)
            assert got.sum_weights == pytest.approx(ref[4], rel=1e-10)
    return stack


def two_cluster_fixture():
    rng = np.random.default_rng(0)
    return np.vstack([rng.standard_normal((30, 2)), 6.0 + rng.standard_normal((20, 2))])


class TestAgainstSerialReference:
    def test_two_cluster_fixture(self):
        data = two_cluster_fixture()
        stack = assert_matches_reference(
            [data], EstimatorConfig(), lambda d, k: subsample_inits(d, 500, 0)
        )
        assert stack.converged.sum() > 400

    @pytest.mark.parametrize("eps", [0.1, 0.2, 0.3])
    @pytest.mark.parametrize("mu_c", [5.0, 10.0])
    def test_contaminated_grid_cell_subsample_starts(self, eps, mu_c):
        # p = 2, s = 5: n = 25; three replications stacked, as in a cell
        datasets = [
            generate_dataset(25, 2, ContaminationSpec(eps, mu_c), [3, k])[0]
            for k in range(3)
        ]
        assert_matches_reference(
            datasets, EstimatorConfig(), lambda d, k: subsample_inits(d, 40, [7, k])
        )

    @pytest.mark.parametrize(
        "cfg, p",
        [
            (EstimatorConfig(weights=WeightSpec.smooth_exp(0.5)), 2),
            (EstimatorConfig(weights=WeightSpec.optimal(0.75)), 2),
            (EstimatorConfig(scatter_norm="sum-of-weights"), 2),
            (EstimatorConfig(depth_method=DepthMethod.projection(300, seed=1)), 3),
        ],
        ids=["smooth_exp", "alpha-0.75", "sum-of-weights", "p3-projection"],
    )
    def test_other_configurations(self, cfg, p):
        rng = np.random.default_rng(p)
        data = np.vstack([rng.standard_normal((45, p)), 5.0 + rng.standard_normal((15, p))])
        assert_matches_reference([data], cfg, lambda d, k: subsample_inits(d, 60, 1))


def assert_results_equal(a, b):
    """Two FitResults equal bit for bit."""
    assert a.params.mu.tobytes() == b.params.mu.tobytes()
    assert a.params.sigma.tobytes() == b.params.sigma.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.residuals.tobytes() == b.residuals.tobytes()
    assert (a.iterations, a.converged, a.message) == (b.iterations, b.converged, b.message)
    assert a.sum_weights.hex() == b.sum_weights.hex()


def assert_stack_invariant(data, cfg, inits):
    """find_roots over all starts against fit on each start alone."""
    alone = [fit(data, cfg, g) for g in inits]
    roots = find_roots(data, cfg, inits)
    kept = []
    for res in alone:
        if res.converged and not any(
            kl_gaussian(res.params, r.params) + kl_gaussian(r.params, res.params) < DEDUP_KL
            for r in kept
        ):
            kept.append(res)
    assert len(roots.roots) == len(kept)
    for got, want in zip(roots.roots, kept):
        assert_results_equal(got, want)
    assert roots.diagnostics["failure_reasons"] == [
        r.message for r in alone if not r.converged
    ]
    assert roots.diagnostics["n_converged"] == sum(r.converged for r in alone)
    return roots


def tied_sample(seed):
    """Small-integer data: ties make some starts fail either step check."""
    rng = np.random.default_rng(seed)
    return rng.integers(-2, 3, (15, 2)).astype(np.float64)


def tied_starts(data, seed):
    p = data.shape[1]
    far = GaussianParams(np.full(p, 1e3), np.eye(p))
    return subsample_inits(data, 20, seed) + [far]


class TestStackInvariance:
    def test_every_stop_reason_in_one_stack(self):
        # both failure messages and the iteration limit in one stack
        data = tied_sample(5)
        roots = assert_stack_invariant(
            data, EstimatorConfig(max_iter=3), tied_starts(data, 5)
        )
        reasons = {m.split(" ")[0] for m in roots.diagnostics["failure_reasons"]}
        assert reasons == {"effective", "updated", "maximum"}
        assert roots.roots

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(10, 16), st.integers(1, 2)),
            elements=st.integers(-2, 2).map(float),
        ),
        st.integers(0, 2**16),
        st.sampled_from([3, 500]),
    )
    def test_find_roots_equals_fit_per_start(self, data, seed, max_iter):
        try:
            inits = tied_starts(data, seed)
        except ValueError:  # too degenerate to draw elemental starts
            return
        assert_stack_invariant(data, EstimatorConfig(max_iter=max_iter), inits)

    @pytest.mark.parametrize("rows", [1, 30, 100])
    def test_chunked_stack_equals_whole(self, monkeypatch, rows):
        # rows < n puts one problem in each block
        data = two_cluster_fixture()
        inits = subsample_inits(data, 60, 4)
        whole = find_roots(data, EstimatorConfig(), inits)
        monkeypatch.setattr(gaussian, "_ROWS", rows)
        chunked = find_roots(data, EstimatorConfig(), inits)
        assert chunked.diagnostics == whole.diagnostics
        assert len(chunked.roots) == len(whole.roots)
        for a, b in zip(chunked.roots, whole.roots):
            assert_results_equal(a, b)

    @pytest.mark.parametrize("rows", [1, 40, 100])
    @pytest.mark.parametrize("seeds", [(5,), (5, 6, 7)], ids=["shared", "grid-cell"])
    def test_blocked_solve_equals_whole(self, monkeypatch, rows, seeds):
        # one shared dataset, or one per problem with each block gathering
        # its own copies; max_iter = 3 stops problems of every block mid-run,
        # beside ones that converge or fail, so blocks regroup as they leave
        data = np.array([tied_sample(s) for s in seeds])
        cfg = EstimatorConfig(max_iter=3)
        emp = empirical_depths_all(data, cfg.depth_method)
        starts = [estimator._starts(tied_starts(x, s), 2) for x, s in zip(data, seeds)]
        ds = np.repeat(np.arange(len(seeds)), [len(a[0]) for a in starts])
        stacked = [np.concatenate(a) for a in zip(*starts)]

        def solve():  # _solve steps its starts in place: each call gets a copy
            stack = estimator._solve(data, emp, ds, [a.copy() for a in stacked], cfg)
            return stack, stack.results(np.arange(len(ds)))

        whole, whole_results = solve()
        monkeypatch.setattr(gaussian, "_ROWS", rows)
        blocked, blocked_results = solve()
        assert blocked.messages == whole.messages
        reasons = {m.split(" ")[0] for m in whole.messages if m}
        assert reasons == {"effective", "updated", "maximum"}
        for name in ("mu", "sigma", "chol", "iterations", "converged"):
            assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes()
        for a, b in zip(blocked_results, whole_results):
            assert_results_equal(a, b)

    @pytest.mark.parametrize("rows", [1, 20, 100])
    def test_blocked_mle_fits_equal_whole(self, monkeypatch, rows):
        # the stacked MLEs, a singular sample among them
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 3))
        x[:8] = x[0]
        idx = np.array([rng.choice(40, 10, replace=False) for _ in range(30)])
        idx[4] = np.arange(10)  # three distinct points in three dimensions
        whole = gaussian._mle_fits(x[idx])
        assert np.isnan(whole[2][4]).all()
        monkeypatch.setattr(gaussian, "_ROWS", rows)
        for a, b in zip(gaussian._mle_fits(x[idx]), whole):
            assert a.tobytes() == b.tobytes()

    def test_grid_replication_equals_find_roots(self, monkeypatch):
        # every replication of a cell, solved in the cell's one stack,
        # gives find_roots on that replication alone
        checked = []

        def spy(data, emp_depths, starts, cfg):
            root_sets = estimator._root_sets(data, emp_depths, starts, cfg)
            for d, e, (mu, sigma, _), roots in zip(data, emp_depths, starts, root_sets):
                inits = [GaussianParams(m, s) for m, s in zip(mu, sigma)]
                alone = find_roots(d, cfg, inits, e)
                assert roots.selected == alone.selected
                assert roots.diagnostics == alone.diagnostics
                assert len(roots.roots) == len(alone.roots)
                for a, b in zip(roots.roots, alone.roots):
                    assert_results_equal(a, b)
                checked.append(len(inits))
            return root_sets

        monkeypatch.setattr(simulation, "_root_sets", spy)
        cfg = GridConfig(
            dims=(1, 2), size_factors=(5,), epsilons=(0.2,), mu_cs=(5.0,),
            sigma_cs=(1.0,), reps=4, seed=11,
            init=InitSpec("subsample", b=25, seed=2),
        )
        report = run_grid(cfg)
        assert checked == [25] * 8
        assert all(c.failures == 0 for c in report.cells)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        st.integers(1, 3),
        st.integers(1, 6),
        st.sampled_from(["literal-1-over-n", "sum-of-weights"]),
        st.sampled_from([WeightSpec.smooth_exp(0.05), WeightSpec.piecewise(2.0, 9.0, 0.0)]),
        st.integers(0, 2**16),
    )
    def test_stack_of_one_equals_tiled_stack(self, p, S, scatter_norm, weights, seed):
        # the data and depths shared as a stack of one step every problem
        # as a copy per problem does, a failing one among them
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((12 + 3 * p, p))
        cfg = EstimatorConfig(weights=weights, scatter_norm=scatter_norm)
        d = empirical_depths_all(x, cfg.depth_method)
        mu = 0.5 * rng.standard_normal((S, p))
        far = rng.integers(S)
        mu[far] = 1e3  # every weight 0: the effective sample size is too small
        chol = np.linalg.cholesky([random_spd(rng, p) for _ in range(S)])
        shared = estimator.irwls_step(x[None], mu, chol, d[None], cfg)
        tiled = estimator.irwls_step(np.repeat(x[None], S, axis=0), mu, chol,
                                     np.repeat(d[None], S, axis=0), cfg)
        assert shared.failures[far].startswith("effective sample size")
        assert shared.failures == tiled.failures
        for a, b in zip(shared[:-1], tiled[:-1]):
            assert a.shape == b.shape
            assert np.array_equal(a, b, equal_nan=True)

    def test_one_dataset_is_never_copied_per_problem(self, monkeypatch):
        # fit and find_roots step their starts on the one dataset as a
        # stack of one; a grid cell's stack holds a dataset per problem
        calls, step = [], estimator.irwls_step

        def record(x, mu, chol, emp_depths, cfg):
            calls.append((x.shape[0], emp_depths.shape[0], mu.shape[0]))
            return step(x, mu, chol, emp_depths, cfg)

        monkeypatch.setattr(estimator, "irwls_step", record)
        data = two_cluster_fixture()
        cfg = EstimatorConfig()
        find_roots(data, cfg, subsample_inits(data, 50, 1))
        fit(data, cfg, GaussianParams.standard(2))
        assert max(s for _, _, s in calls) == 50
        assert {(xs, ds) for xs, ds, _ in calls} == {(1, 1)}
        calls.clear()
        run_grid(GridConfig(
            dims=(2,), size_factors=(5,), epsilons=(0.2,), mu_cs=(5.0,),
            sigma_cs=(1.0,), reps=3, seed=11, init=InitSpec("subsample", b=10, seed=2),
        ))
        assert calls[0] == (30, 30, 30)
        assert all(xs == ds == s for xs, ds, s in calls)


class TestMemory:
    def test_peak_memory_is_a_few_blocks(self):
        # p = 10, n = 650, 100 subsample starts: a block holds 12 problems
        # (7800 data rows), and its (rows, p) temporaries take about 0.6 MB
        # each.  Traced peak 1.6 MB, the starts' stacked copy included;
        # solving the whole stack as one 65,536-row chunk peaked at 12.1 MB.
        rng = np.random.default_rng(5)
        x = rng.standard_normal((650, 10))
        x[:130] += 6.0
        cfg = EstimatorConfig()
        emp = empirical_depths_all(x, cfg.depth_method)
        inits = subsample_inits(x, 100, 3)
        tracemalloc.start()
        try:
            roots = find_roots(x, cfg, inits, emp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert roots.diagnostics["n_converged"] == 100
        assert peak < 4e6

    def test_subsample_starts_gathered_per_block(self):
        # p = 10, n = 650, 500 starts: a block gathers 124 subsamples of
        # 66 rows (0.65 MB).  Traced peak 3.1 MB, the 0.84 MB of fitted
        # starts included; gathering all 500 at once peaked at 4.6 MB.
        rng = np.random.default_rng(5)
        x = rng.standard_normal((650, 10))
        x[:130] += 6.0
        tracemalloc.start()
        try:
            inits = subsample_inits(x, 500, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(inits) == 500
        assert peak < 3.6e6


class TestStartOwnership:
    """The solver steps one stacked copy of the starts in place."""

    def test_fresh_starts_freed_before_the_solve(self, monkeypatch):
        data = two_cluster_fixture()
        refs = []

        def fresh_starts():
            inits = subsample_inits(data, 20, 1)
            refs.extend(weakref.ref(g) for g in inits)
            return inits

        alive = []
        solve = estimator._solve

        def counting_solve(*args):
            alive.append(sum(r() is not None for r in refs))
            return solve(*args)

        monkeypatch.setattr(estimator, "_solve", counting_solve)
        roots = find_roots(data, EstimatorConfig(), fresh_starts())
        assert alive == [0]
        assert roots.diagnostics["n_starts"] == 20

    @pytest.mark.parametrize("count", [1, 2, 30])
    def test_callers_starts_unchanged(self, count):
        data = two_cluster_fixture()
        inits = subsample_inits(data, count, 2)

        def bits():
            return [(g.mu.tobytes(), g.sigma.tobytes(), g.chol.tobytes()) for g in inits]

        before = bits()
        cfg = EstimatorConfig()
        roots = find_roots(data, cfg, inits)
        assert bits() == before
        fits = [fit(data, cfg, g) for g in inits]
        assert bits() == before
        assert all(f.iterations > 0 for f in fits)
        assert roots.diagnostics["n_converged"] == sum(f.converged for f in fits)


def random_spd(rng, p):
    a = rng.standard_normal((p, p))
    return a @ a.T + p * np.eye(p)


def per_pair_distinct(params):
    """The deduplication as a loop of kl_gaussian calls, one pair at a
    time: positions of the first representatives."""
    kept = []
    for i, g in enumerate(params):
        if not any(
            kl_gaussian(g, params[k]) + kl_gaussian(params[k], g) < DEDUP_KL for k in kept
        ):
            kept.append(i)
    return kept


def assert_dedup_per_pair(data, inits):
    """Stacked deduplication of the converged starts against the per-pair
    loop on their GaussianParams; returns the number kept."""
    cfg = EstimatorConfig()
    emp = empirical_depths_all(data, cfg.depth_method)
    stack = estimator._solve(
        data[None], emp[None], np.zeros(len(inits), dtype=np.intp),
        estimator._starts(inits, data.shape[1]), cfg,
    )
    conv = np.flatnonzero(stack.converged)
    kept = estimator._distinct(stack.mu[conv], stack.chol[conv])
    assert kept == per_pair_distinct([GaussianParams(stack.mu[i], stack.sigma[i]) for i in conv])
    return len(kept)


SPD_PARAMS = st.integers(1, 3).flatmap(
    lambda p: st.lists(
        st.tuples(
            hnp.arrays(np.float64, p, elements=st.floats(-5, 5)),
            hnp.arrays(np.float64, (p, p), elements=st.floats(-3, 3)),
            st.sampled_from([1e-4, 1.0, 1e4]),
        ),
        min_size=1, max_size=6,
    )
)


class TestStackedDeduplication:
    def test_two_cluster_fixture(self):
        data = two_cluster_fixture()
        assert assert_dedup_per_pair(data, subsample_inits(data, 500, 0)) > 10

    @pytest.mark.parametrize("p", [1, 2])
    def test_near_the_radius(self, p):
        # perturbations of one root whose symmetrized KL to it spans
        # DEDUP_KL / 10 to 10 DEDUP_KL, so many decisions are close calls
        rng = np.random.default_rng(p)
        base = GaussianParams(rng.standard_normal(p), random_spd(rng, p))
        size = np.sqrt(DEDUP_KL) * np.exp(rng.uniform(-1.2, 1.2, 300))[:, None]
        mu = base.mu + size * rng.standard_normal((300, p)) @ base.chol.T
        scale = np.exp(size * rng.standard_normal((300, 1)))[:, :, None]
        params = [GaussianParams(m, s * base.sigma) for m, s in zip(mu, scale)]
        chol = np.array([g.chol for g in params])
        kept = estimator._distinct(mu, chol)
        assert kept == per_pair_distinct(params)
        assert 10 < len(kept) < 290

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(8, 30), st.integers(1, 2)),
            elements=st.floats(-10, 10).map(lambda v: round(v, 2)),
        ),
        st.integers(0, 2**16),
    )
    def test_hypothesis_data(self, data, seed):
        try:
            inits = subsample_inits(data, 40, seed)
        except ValueError:  # too degenerate to draw elemental starts
            return
        assert_dedup_per_pair(data, inits)

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(SPD_PARAMS, st.data())
    def test_kl_gaussian_is_its_stacked_row(self, drawn, draws):
        # however the stack is composed, a pair's row is kl_gaussian
        params = [
            GaussianParams(mu, scale * (a @ a.T + np.eye(len(mu))))
            for mu, a, scale in drawn
        ]
        mu = np.array([g.mu for g in params])
        chol = np.array([g.chol for g in params])
        log_det = _log_det(chol)
        assert log_det.tobytes() == np.array([g.log_det for g in params]).tobytes()
        pick = st.lists(st.integers(0, len(params) - 1), min_size=1, max_size=8)
        i0, i1 = draws.draw(pick), draws.draw(pick)
        n = min(len(i0), len(i1))
        for a, b in ((i0[:n], i1[:n]), (i0[:1], i1), (i0, i1[:1])):
            kl = _stacked_kl(mu[a], chol[a], mu[b], chol[b])
            pairs = zip(*np.broadcast_arrays(a, b))
            want = [kl_gaussian(params[j], params[k]) for j, k in pairs]
            assert kl.tobytes() == np.array(want).tobytes()
