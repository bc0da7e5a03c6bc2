"""Starting-value strategies: elemental subsampling and depth-based."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from depthwl import (
    DepthMethod,
    EstimatorConfig,
    GaussianParams,
    InitSpec,
    depth_init,
    elemental_subsample_size,
    find_roots,
    mle_fit,
    subsample_inits,
)
from depthwl import initializers
from depthwl.depth import _rng
from depthwl.gaussian import SingularCovarianceError


def overflows(sample):
    """Whether ``mle_fit`` of ``sample`` raises its overflow error."""
    try:
        mle_fit(sample)
    except SingularCovarianceError:
        return False
    except ValueError:
        return True
    return False


def reference_subsample_inits(data, B, seed, streams=_rng, redraw_overflow=True):
    """Draw by draw through ``mle_fit``: each draw redrawn from its own
    stream until it is neither singular nor overflowing, every attempt
    spending the global budget; the overflow is raised only when every
    draw's first attempt overflows.  ``redraw_overflow=False`` is the
    earlier rule, under which the first overflowing attempt raises."""
    n, p = data.shape
    size = elemental_subsample_size(p)

    def subsample(rng):
        return data[rng.choice(n, size=size, replace=False)]

    if redraw_overflow and all(overflows(subsample(streams(seed, b))) for b in range(B)):
        mle_fit(subsample(streams(seed, 0)))  # raises the overflow
    budget = 100 * B
    inits = []
    for b in range(B):
        rng = streams(seed, b)
        while True:
            if budget <= 0:
                raise ValueError("too many singular subsamples; data may be degenerate")
            budget -= 1
            try:
                inits.append(mle_fit(subsample(rng)))
            except SingularCovarianceError:
                continue
            except ValueError:
                if redraw_overflow:
                    continue
                raise
            break
    return inits


class ScriptedStream:
    """Stands in for a draw's RNG stream: its subsamples of
    ``SCRIPT_DATA`` follow ``script``, one letter per attempt, s for a
    singular one, o for one whose covariance overflows and g for a good
    one; past the script every subsample is good."""

    ROWS = {"s": [0, 1, 2], "o": [0, 5, 6], "g": [0, 3, 4]}

    def __init__(self, script):
        self.script = iter(script)

    def choice(self, n, size, replace):
        return np.array(self.ROWS[next(self.script, "g")])


SCRIPT_DATA = np.array([[0.0], [0.0], [0.0], [1.0], [2.0], [1e200], [-1e200]])


def outcome(make):
    """The bits of every start ``make`` returns, or its error message."""
    try:
        return [(g.mu.tobytes(), g.sigma.tobytes(), g.chol.tobytes()) for g in make()]
    except ValueError as exc:
        return str(exc)


class TestSubsampleSize:
    def test_p2_gives_six(self):
        assert elemental_subsample_size(2) == 6

    def test_other_dims(self):
        assert elemental_subsample_size(1) == 3
        assert elemental_subsample_size(5) == 21


class TestSubsampleInits:
    def test_b_zero_rejected(self):
        data = np.random.default_rng(0).standard_normal((20, 2))
        with pytest.raises(ValueError):
            subsample_inits(data, 0, seed=1)

    @pytest.mark.parametrize("B", [2.5, 3.0, True, np.float64(2.0)])
    def test_non_integer_b_rejected(self, B):
        data = np.random.default_rng(0).standard_normal((20, 2))
        with pytest.raises(ValueError, match="^B must be an integer >= 1"):
            subsample_inits(data, B, seed=1)

    def test_reproducible(self):
        data = np.random.default_rng(1).standard_normal((30, 2))
        a = subsample_inits(data, 10, seed=42)
        b = subsample_inits(data, 10, seed=42)
        for x, y in zip(a, b):
            assert np.array_equal(x.mu, y.mu)
            assert np.array_equal(x.sigma, y.sigma)

    def test_seed_changes_output(self):
        data = np.random.default_rng(2).standard_normal((30, 2))
        a = subsample_inits(data, 5, seed=1)
        b = subsample_inits(data, 5, seed=2)
        assert any(not np.array_equal(x.mu, y.mu) for x, y in zip(a, b))

    def test_sample_too_small(self):
        data = np.zeros((5, 2))
        with pytest.raises(ValueError):
            subsample_inits(data, 3, seed=0)

    def test_redraws_past_singular_subsamples(self):
        rng = np.random.default_rng(3)
        good = rng.standard_normal((8, 2))
        dup = np.repeat(rng.standard_normal((1, 2)), 12, axis=0)
        data = np.vstack([good, dup])
        inits = subsample_inits(data, 20, seed=7)
        assert len(inits) == 20
        for g in inits:
            np.linalg.cholesky(g.sigma)

    def test_degenerate_data_errors_after_budget(self):
        data = np.ones((10, 2))
        with pytest.raises(ValueError, match="singular"):
            subsample_inits(data, 2, seed=0)

    def test_overflow_is_not_redrawn(self):
        data = np.random.default_rng(5).standard_normal((30, 2)) * 1e160
        with pytest.raises(ValueError, match="overflows"):
            subsample_inits(data, 3, seed=0)

    def test_equals_draw_by_draw_reference(self):
        # Continuous and tie-heavy samples, mostly duplicate rows (many
        # redraws, sometimes past the budget), one huge row or every
        # other row huge (overflowing draws, redrawn) and every row huge
        # (every first draw overflows).
        rng = np.random.default_rng(6)
        outcomes = []
        for p in (1, 2, 3):
            dup = np.vstack([np.zeros((40, p)), rng.standard_normal((p + 2, p))])
            huge = dup.copy()
            huge[-1] = 1e200
            half_huge = rng.standard_normal((2 * p + 4, p))
            half_huge[::2] *= 1e160
            for data, B in [(rng.standard_normal((25, p)), 40),
                            (rng.integers(-1, 2, (20, p)).astype(float), 30),
                            (dup, 3), (huge, 3), (np.ones((12, p)), 2),
                            (half_huge, 3), (rng.standard_normal((25, p)) * 1e160, 3)]:
                for seed in range(6):
                    want = outcome(lambda: reference_subsample_inits(data, B, [seed, 1]))
                    assert outcome(lambda: subsample_inits(data, B, [seed, 1])) == want
                    outcomes.append(want if isinstance(want, str) else "ok")
        assert {"ok", "sample covariance overflows float64; rescale the data",
                "too many singular subsamples; data may be degenerate"} <= set(outcomes)

    @pytest.mark.parametrize("scripts, want", [
        (("s" * 198, ""), 2),
        (("s" * 199, ""), "too many singular"),  # the second draw's first is the 201st
        (("", "s" * 198), 2),
        (("", "s" * 199), "too many singular"),
        (("", "s" * 197 + "o"), 2),  # the 199th attempt overflows, the 200th is good
        (("", "s" * 198 + "o"), "too many singular"),  # the 200th overflows, no 201st
        (("", "s" * 199 + "o"), "too many singular"),  # the 201st attempt
        (("o", "s" * 500), "too many singular"),  # the first draw's overflow is redrawn
        (("o" * 150, "s" * 48), 2),
        (("o" * 150, "s" * 49), "too many singular"),
        (("o", "o"), "overflows"),  # every first draw overflows
        (("o", "s"), 2),
        (("s" * 300, "o"), "too many singular"),
    ])
    def test_budget_spent_in_draw_order(self, monkeypatch, scripts, want):
        # Two draws share a budget of 200 attempts.
        def streams(seed, b):
            return ScriptedStream(scripts[b])

        monkeypatch.setattr(initializers, "_rng", streams)
        got = outcome(lambda: subsample_inits(SCRIPT_DATA, 2, 0))
        assert got == outcome(lambda: reference_subsample_inits(SCRIPT_DATA, 2, 0, streams))
        assert len(got) == want if isinstance(want, int) else want in got

    def test_every_init_is_valid_params(self):
        data = np.random.default_rng(4).standard_normal((40, 3))
        for g in subsample_inits(data, 15, seed=11):
            assert isinstance(g, GaussianParams)


class TestFarRows:
    """A few rows far enough out that some subsamples overflow."""

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(st.integers(1, 3), st.sampled_from([1, 5]), st.integers(0, 300),
           st.integers(0, 2**16))
    @example(1, 1, 155, 293)  # a tight start keeps the far row: its step overflows
    @example(3, 5, 300, 0)
    def test_robust_root_found(self, p, m, k, seed):
        rng = np.random.default_rng(seed)
        data = np.vstack([rng.standard_normal((50, p)), np.full((m, p), 10.0 ** k)])
        inits = subsample_inits(data, 100, seed)
        got = outcome(lambda: inits)
        assert got == outcome(lambda: reference_subsample_inits(data, 100, seed))
        # Without an overflowing attempt, the starts are those of the rule
        # that did not redraw overflows, bit for bit.
        before = outcome(lambda: reference_subsample_inits(data, 100, seed,
                                                           redraw_overflow=False))
        if not isinstance(before, str):
            assert got == before
        roots = find_roots(data, EstimatorConfig(), inits)
        assert roots.best is not None
        assert np.linalg.norm(roots.best.params.mu) < 1.0

    def test_one_far_row(self):
        # 59 N(0, I2) rows and one at (1e160, 1e160): a subsample holding
        # the far row overflows and is redrawn.
        data = np.vstack([np.random.default_rng(0).standard_normal((59, 2)),
                          [[1e160, 1e160]]])
        assert isinstance(outcome(lambda: reference_subsample_inits(
            data, 500, 0, redraw_overflow=False)), str)
        roots = find_roots(data, EstimatorConfig(), subsample_inits(data, 500, 0))
        assert np.linalg.norm(roots.best.params.mu) < 1.0
        assert roots.best.weights[-1] == 0.0


class TestDepthInit:
    @pytest.mark.parametrize("depths, message", [
        (np.array([0.5]), r"shape \(50,\)"),
        (np.r_[np.full(49, 0.5), np.nan], r"finite and in \[0, 1\]"),
        (np.r_[np.full(49, 0.5), 2.0], r"finite and in \[0, 1\]"),
    ], ids=["one-depth", "nan", "above-one"])
    def test_given_depths_checked(self, depths, message):
        data = np.random.default_rng(4).standard_normal((50, 2))
        with pytest.raises(ValueError, match=f"^depths must .*{message}"):
            depth_init(data, depths=depths)

    def test_univariate_three_points(self):
        got = depth_init(np.array([[1.0], [2.0], [3.0]]))
        assert got.mu[0] == 2.0

    def test_univariate_tie_rules(self):
        got = depth_init(np.array([[0.0], [1.0], [2.0], [3.0]]))
        # depths {1/4, 1/2, 1/2, 1/4}: deepest tie -> lowest index (x=1);
        # deep half {1, 2} centered at 1 -> sigma (0 + 1)/2
        assert got.mu[0] == 1.0
        assert got.sigma[0, 0] == pytest.approx(0.5)

    def test_symmetric_cross_center(self):
        data = np.array(
            [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [0.0, 0.0]]
        )
        got = depth_init(data)
        assert np.array_equal(got.mu, [0.0, 0.0])

    def test_singular_deep_half_errors(self):
        # same cross ordered so the deep half is collinear
        data = np.array(
            [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 0.0]]
        )
        with pytest.raises(ValueError, match="singular"):
            depth_init(data)

    def test_deterministic(self):
        data = np.random.default_rng(5).standard_normal((25, 2))
        a = depth_init(data)
        b = depth_init(data)
        assert np.array_equal(a.mu, b.mu)
        assert np.array_equal(a.sigma, b.sigma)

    def test_affine_equivariance_with_distinct_depths(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((21, 2))
        depths_method = DepthMethod.exact()
        base = depth_init(data, depths_method)
        a = np.array([[2.0, 0.5], [-0.25, 1.5]])
        b = np.array([1.0, -2.0])
        mapped = depth_init(data @ a.T + b, depths_method)
        assert np.allclose(mapped.mu, a @ base.mu + b, rtol=1e-10, atol=1e-10)
        assert np.allclose(mapped.sigma, a @ base.sigma @ a.T, rtol=1e-10, atol=1e-10)


class TestInitSpec:
    def test_subsample_json(self):
        spec = InitSpec.from_dict({"strategy": "subsample", "B": 500, "seed": 42})
        assert spec.strategy == "subsample"
        assert spec.b == 500
        assert spec.to_dict() == {"strategy": "subsample", "B": 500, "seed": 42}

    def test_truth_requires_params(self):
        spec = InitSpec("truth")
        with pytest.raises(ValueError):
            spec.make_inits(np.zeros((10, 2)))
        truth = GaussianParams.standard(2)
        assert spec.make_inits(np.zeros((10, 2)), truth=truth) == [truth]

    def test_removed_spellings_rejected(self):
        # depth_deterministic and custom are the only spellings
        with pytest.raises(ValueError, match="unknown init strategy"):
            InitSpec.from_dict({"strategy": "depth"})
        params = GaussianParams.standard(2).to_dict()
        with pytest.raises(ValueError, match="params"):
            InitSpec.from_dict({"strategy": "truth", "params": params})

    def test_custom_round_trip(self):
        spec = InitSpec("custom", custom=(GaussianParams.standard(2),))
        back = InitSpec.from_dict(spec.to_dict())
        assert back.strategy == "custom"
        assert np.array_equal(back.custom[0].mu, spec.custom[0].mu)

    @pytest.mark.parametrize("kw, keys", [
        (dict(strategy="truth", b=7, seed=3), "['B', 'seed']"),
        (dict(strategy="depth_deterministic", seed=0), "['seed']"),
        (dict(strategy="custom", b=3, custom=(GaussianParams.standard(2),)), "['B']"),
        (dict(strategy="subsample", custom=(GaussianParams.standard(2),)), "['params_list']"),
    ])
    def test_inapplicable_field_rejected(self, kw, keys):
        # the constructor, not only the JSON reader, rejects a field its
        # strategy does not take, so no config loses a field in to_dict
        with pytest.raises(ValueError, match=re.escape(f"{keys} do not apply")):
            InitSpec(**kw)

    def test_unset_subsample_fields_take_defaults(self):
        spec = InitSpec("subsample")
        assert (spec.b, spec.seed) == (500, 0)
        assert spec == InitSpec("subsample", b=500, seed=0)
        assert InitSpec.from_dict({"strategy": "subsample"}) == spec

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            InitSpec("bootstrap")
