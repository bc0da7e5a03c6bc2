"""Starting-value strategies: elemental subsampling and depth-based."""

import numpy as np
import pytest

from depthwl import (
    DepthMethod,
    GaussianParams,
    InitSpec,
    depth_init,
    elemental_subsample_size,
    subsample_inits,
)


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

    def test_every_init_is_valid_params(self):
        data = np.random.default_rng(4).standard_normal((40, 3))
        for g in subsample_inits(data, 15, seed=11):
            assert isinstance(g, GaussianParams)


class TestDepthInit:
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

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            InitSpec("bootstrap")
