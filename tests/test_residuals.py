"""Depth Pearson residuals, weight families, trimming, conformance."""

import dataclasses
import math

import numpy as np
import pytest

from depthwl import (
    WeightSpec,
    apply_trim,
    dpr,
    weight,
)
from instruments import check_weight_class

SPECS = [
    WeightSpec.piecewise(2.0, 9.0, 0.3),
    WeightSpec.piecewise(0.5, 3.0, 0.1),
    WeightSpec.piecewise(1.0, 6.0, 0.2),
    WeightSpec.smooth_exp(0.05),
    WeightSpec.smooth_exp(1.0),
    WeightSpec.smooth_exp(0.0),
]


class TestDpr:
    def test_zero_when_depths_match(self):
        assert dpr(0.3, 0.3, 0.5) == 0.0

    def test_half_power_example(self):
        assert dpr(0.5, 0.25, 0.5) == pytest.approx(0.5)

    def test_quarter_power_example(self):
        got = dpr(0.01, 0.04, 0.25)
        want = (0.01 - 0.04) / 0.04**0.25
        assert got == pytest.approx(want, abs=1e-6)
        assert got == pytest.approx(-0.0670820, abs=1e-6)

    def test_zero_for_any_matched_depth(self):
        for d in (1e-6, 0.1, 0.25, 0.5):
            for alpha in (0.1, 0.25, 0.5, 0.75, 1.0):
                assert dpr(d, d, alpha) == 0.0

    def test_vectorized(self):
        out = dpr([0.1, 0.2], [0.2, 0.2], 1.0)
        assert np.allclose(out, [-0.5, 0.0])

    def test_nonpositive_model_depth_rejected(self):
        with pytest.raises(ValueError):
            dpr(0.1, 0.0, 0.5)
        with pytest.raises(ValueError):
            dpr(0.1, -0.1, 0.5)

    def test_negative_empirical_depth_rejected(self):
        with pytest.raises(ValueError, match="empirical depth must be nonnegative"):
            dpr([0.1, -1e-3], [0.2, 0.2], 0.5)

    def test_lower_bound_minus_one(self):
        # d_emp >= 0 and d_model <= 1/2 with alpha <= 1 force tau >= -1
        rng = np.random.default_rng(0)
        for _ in range(500):
            d_model = rng.uniform(1e-12, 0.5)
            d_emp = rng.uniform(0.0, 1.0)
            alpha = rng.uniform(0.05, 1.0)
            assert dpr(d_emp, d_model, alpha) >= -1.0

    def test_alpha_domain(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="alpha"):
                WeightSpec.optimal(bad)
            with pytest.raises(ValueError, match="alpha"):
                dpr(0.1, 0.1, bad)


class TestWeight:
    def test_piecewise_plateau(self):
        spec = WeightSpec.piecewise(2.0, 9.0, 0.3)
        assert weight(0.0, spec) == 1.0
        assert weight(-1.0, spec) == 1.0
        assert weight(2.0, spec) == 1.0

    def test_piecewise_floor(self):
        spec = WeightSpec.piecewise(2.0, 9.0, 0.3)
        assert weight(10.0, spec) == pytest.approx(0.3 / 1.3)
        assert weight(1e9, spec) == pytest.approx(0.3 / 1.3)

    def test_piecewise_linear_section(self):
        spec = WeightSpec.piecewise(2.0, 9.0, 0.3)
        assert weight(5.5, spec) == pytest.approx((0.5 + 0.3) / 1.3)

    def test_smooth_exp_example(self):
        spec = WeightSpec.smooth_exp(0.05)
        assert weight(2.0, spec) == pytest.approx(math.exp(-0.2))
        assert weight(0.0, spec) == 1.0

    def test_smooth_exp_residual_beyond_square_range(self):
        # 1e200**2 overflows float64
        flat = weight([1e200, 1.0], WeightSpec.smooth_exp(0.0))
        assert np.array_equal(flat, [1.0, 1.0])
        spec = WeightSpec.smooth_exp(0.05)
        assert np.array_equal(weight([1e200, 2.0], spec), [0.0, weight(2.0, spec)])

    def test_bounds_and_unit_at_zero(self):
        taus = np.concatenate([np.linspace(-1, 50, 2000), [1e6]])
        for spec in SPECS:
            w = weight(taus, spec)
            assert np.all(w >= 0.0) and np.all(w <= 1.0)
            assert weight(0.0, spec) == 1.0

    def test_piecewise_monotone_structure(self):
        spec = WeightSpec.piecewise(2.0, 9.0, 0.3)
        flat = np.linspace(-1.0, 2.0, 100)
        assert np.all(weight(flat, spec) == 1.0)
        declining = np.linspace(2.0, 20.0, 500)
        w = weight(declining, spec)
        assert np.all(np.diff(w) <= 1e-15)
        assert np.all(w >= 0.3 / 1.3 - 1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            WeightSpec.piecewise(9.0, 2.0, 0.3)
        with pytest.raises(ValueError):
            WeightSpec.piecewise(0.0, 2.0, 0.3)
        with pytest.raises(ValueError):
            WeightSpec.piecewise(2.0, 9.0, -0.1)
        with pytest.raises(ValueError):
            WeightSpec.smooth_exp(-1.0)
        with pytest.raises(ValueError):
            WeightSpec.piecewise(2.0, 9.0, 0.3, trim_xi=0.0)
        WeightSpec.piecewise(2.0, 9.0, 0.3, trim_xi=float("inf"))

    def test_optimal_table(self):
        w = WeightSpec.optimal(0.5)
        assert (w.delta1, w.delta2, w.gamma, w.trim_xi) == (2.0, 9.0, 0.3, 1.0)
        w = WeightSpec.optimal(0.25)
        assert (w.delta1, w.delta2, w.gamma, w.trim_xi) == (2.0, 3.0, 0.1, 1.0)
        w = WeightSpec.optimal(1.0)
        assert (w.delta1, w.delta2, w.gamma, w.trim_xi) == (2.0, 9.0, 0.3, 5.0)

    def test_optimal_keeps_its_exponent(self):
        # between table rows the exponent is kept, the nearest row's
        # parameters taken
        w = WeightSpec.optimal(0.6)
        assert w.alpha == 0.6
        assert w == WeightSpec.piecewise(2.0, 9.0, 0.3, trim_xi=1.0, alpha=0.6)
        assert WeightSpec.optimal() == WeightSpec.optimal(0.5)
        assert WeightSpec.optimal().alpha == 0.5

    def test_optimal_checks_alpha_first(self):
        with pytest.raises(ValueError, match="^alpha must be a real number"):
            WeightSpec.optimal("0.5")
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\]"):
            WeightSpec.optimal(math.nan)


class TestWeightConfigDict:
    @pytest.mark.parametrize("spec", SPECS)
    def test_round_trip(self, spec):
        spec = dataclasses.replace(spec, alpha=0.75)
        assert WeightSpec.from_dict(spec.to_dict()) == spec

    def test_key_order(self):
        assert list(WeightSpec.optimal(0.25).to_dict()) == [
            "family", "xi", "alpha", "delta1", "delta2", "gamma"]
        assert WeightSpec.smooth_exp(0.1, alpha=0.75).to_dict() == {
            "family": "smooth_exp", "xi": 1.0, "alpha": 0.75, "a": 0.1}

    def test_alpha_required(self):
        with pytest.raises(ValueError, match=r"missing fields: \['alpha'\]"):
            WeightSpec.from_dict({"family": "smooth_exp", "a": 0.1})
        with pytest.raises(ValueError, match="^alpha must be a real number"):
            WeightSpec.from_dict({"family": "smooth_exp", "a": 0.1, "alpha": None})

    def test_inapplicable_field_rejected(self):
        smooth = {"family": "smooth_exp", "a": 0.1, "alpha": 0.5}
        with pytest.raises(ValueError, match="do not apply"):
            WeightSpec.from_dict({**smooth, "delta1": 2.0})
        piecewise = WeightSpec.optimal(0.5).to_dict()
        with pytest.raises(ValueError, match="does not apply"):
            WeightSpec.from_dict({**piecewise, "a": 0.1})

    def test_missing_field_and_unknown_family(self):
        with pytest.raises(ValueError, match="requires"):
            WeightSpec.from_dict({"family": "piecewise", "delta1": 2.0,
                                  "delta2": 9.0, "alpha": 0.5})
        with pytest.raises(ValueError, match="unknown weight family"):
            WeightSpec.from_dict({"family": "tukey", "alpha": 0.5})

    def test_unknown_field_rejected(self):
        piecewise = WeightSpec.optimal(0.5).to_dict()
        piecewise["delat1"] = piecewise.pop("delta1")
        with pytest.raises(ValueError, match=r"unknown fields: \['delat1'\]"):
            WeightSpec.from_dict(piecewise)


class TestTrim:
    def test_all_equal_residuals_untouched(self):
        tau = np.zeros(7)
        w = np.full(7, 0.8)
        assert np.array_equal(apply_trim(tau, w, 1.0), w)

    def test_single_outlier_zeroed(self):
        tau = np.array([0.0, 0.0, 0.0, 0.0, 100.0])
        w = np.ones(5)
        out = apply_trim(tau, w, 1.0)
        assert np.array_equal(out, [1, 1, 1, 1, 0])

    def test_even_length_midpoint_median(self):
        tau = np.array([-0.5, 0.0, 0.5, 9.0])
        w = np.full(4, 0.9)
        out = apply_trim(tau, w, 5.0)  # median 0.25, threshold 5.25
        assert np.array_equal(out, [0.9, 0.9, 0.9, 0.0])

    def test_never_increases(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            tau = rng.standard_normal(n) * 3
            w = rng.uniform(0, 1, n)
            out = apply_trim(tau, w, float(rng.uniform(0.1, 5)))
            assert np.all(out <= w)

    def test_at_least_half_survive(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            n = int(rng.integers(1, 40))
            tau = rng.standard_normal(n) * 10
            w = np.ones(n)
            out = apply_trim(tau, w, float(rng.uniform(0.1, 3)))
            assert np.count_nonzero(out) >= math.ceil(n / 2)

    def test_only_above_threshold_zeroed(self):
        tau = np.array([0.0, 1.0, 2.0, 3.0, 50.0])
        out = apply_trim(tau, np.ones(5), 1.0)  # median 2, threshold 3
        assert np.array_equal(out, [1, 1, 1, 1, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            apply_trim(np.array([]), np.array([]), 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            apply_trim(np.zeros(3), np.zeros(4), 1.0)

    @pytest.mark.parametrize("xi", [0.0, -1.0, float("nan")])
    def test_nonpositive_margin_rejected(self, xi):
        with pytest.raises(ValueError, match="xi must be positive"):
            apply_trim(np.zeros(3), np.ones(3), xi)


class TestWeightClass:
    GRID = np.linspace(-1.0, 100.0, 4001)

    def test_smooth_exp_passes(self):
        report = check_weight_class(WeightSpec.smooth_exp(1.0), self.GRID)
        assert report.w_at_zero == 1.0
        assert abs(report.dw_at_zero) <= 1e-6
        assert report.differentiable
        assert report.passes_smooth_conditions

    def test_smooth_exp_first_order_bound(self):
        # analytic oracle: max over a fine grid of |-2 t e^{-t^2} (t+1)|
        t = np.linspace(-1.0, 100.0, 400001)
        oracle = np.max(np.abs(-2.0 * t * np.exp(-(t**2)) * (t + 1.0)))
        report = check_weight_class(WeightSpec.smooth_exp(1.0), self.GRID)
        assert report.sup_first_order <= 2.0
        assert report.sup_first_order == pytest.approx(oracle, rel=1e-2)

    def test_smooth_exp_second_order_finite(self):
        report = check_weight_class(WeightSpec.smooth_exp(1.0), self.GRID)
        assert np.isfinite(report.sup_second_order)
        assert report.sup_second_order > 0

    def test_piecewise_flagged_nonsmooth(self):
        report = check_weight_class(WeightSpec.piecewise(2.0, 9.0, 0.3), self.GRID)
        assert not report.differentiable
        assert report.kinks == (2.0, 9.0)
        assert not report.passes_smooth_conditions
        assert report.w_at_zero == 1.0

    def test_piecewise_bounded(self):
        spec = WeightSpec.piecewise(2.0, 9.0, 0.3)
        w = weight(self.GRID, spec)
        lo = 0.3 / 1.3
        assert np.all(w >= lo - 1e-15) and np.all(w <= 1.0)

    def test_grid_must_cover_range(self):
        with pytest.raises(ValueError):
            check_weight_class(WeightSpec.smooth_exp(1.0), np.linspace(0, 5, 100))
