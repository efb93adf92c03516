"""Shaping kernels and baseline families against quadrature oracles."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import hazardnet as hn


class TestShapingHazard:
    def test_parent_not_yet_infected_gives_zero(self):
        f = hn.ShapingFunction(hn.EXPONENTIAL)
        assert f.hazard(1.0, 0.5) == 0.0

    def test_rayleigh_is_the_age(self):
        f = hn.ShapingFunction(hn.RAYLEIGH)
        assert f.hazard(1.0, 3.0) == 2.0

    def test_power_is_inverse_age_past_the_floor(self):
        f = hn.ShapingFunction(hn.POWER, delta=1.0)
        assert f.hazard(0.0, 2.0) == 0.5

    def test_power_zero_below_floor(self):
        f = hn.ShapingFunction(hn.POWER, delta=1.0)
        assert f.hazard(0.0, 0.999) == 0.0
        assert f.hazard(0.0, 1.0) == 1.0  # floor boundary switches on

    @pytest.mark.parametrize("variant", hn.SHAPING_VARIANTS)
    def test_zero_at_equal_times(self, variant):
        f = hn.ShapingFunction(variant)
        assert f.hazard(2.0, 2.0) == 0.0

    def test_vectorized_over_parents(self):
        f = hn.ShapingFunction(hn.RAYLEIGH)
        out = f.hazard(np.array([0.0, 1.0, 5.0]), 3.0)
        np.testing.assert_allclose(out, [3.0, 2.0, 0.0])

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError):
            hn.ShapingFunction(hn.POWER, delta=0.0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            hn.ShapingFunction("weibull")


class TestShapingCumulative:
    def test_exponential_is_elapsed_time(self):
        f = hn.ShapingFunction(hn.EXPONENTIAL)
        assert f.cumulative(0.0, 4.0) == 4.0

    def test_rayleigh_is_half_age_squared(self):
        f = hn.ShapingFunction(hn.RAYLEIGH)
        assert f.cumulative(1.0, 3.0) == 2.0

    def test_power_zero_up_to_the_floor(self):
        f = hn.ShapingFunction(hn.POWER, delta=1.0)
        assert f.cumulative(0.0, 1.0) == 0.0

    @pytest.mark.parametrize("variant", hn.SHAPING_VARIANTS)
    @pytest.mark.parametrize("t_parent,t", [(0.0, 4.0), (1.3, 3.7), (2.0, 2.4), (3.0, 1.0)])
    def test_matches_quadrature_of_hazard(self, variant, t_parent, t):
        f = hn.ShapingFunction(variant, delta=0.5)
        expected = 0.0
        if t > t_parent:
            expected, err = quad(
                lambda s: f.hazard(t_parent, s),
                t_parent,
                t,
                points=[t_parent + f.delta] if t_parent + f.delta < t else None,
                limit=200,
            )
            assert err < 1e-7
        assert f.cumulative(t_parent, t) == pytest.approx(expected, abs=1e-8)

    @given(
        t_parent=st.floats(0.0, 5.0),
        span=st.floats(0.0, 5.0),
        variant=st.sampled_from(hn.SHAPING_VARIANTS),
    )
    @settings(max_examples=80, deadline=None)
    def test_nonnegative_and_monotone(self, t_parent, span, variant):
        f = hn.ShapingFunction(variant, delta=0.3)
        t = t_parent + span
        assert f.hazard(t_parent, t) >= 0.0
        assert f.cumulative(t_parent, t) >= 0.0
        assert f.cumulative(t_parent, t + 0.5) >= f.cumulative(t_parent, t)

    def test_zero_for_t_before_parent(self):
        for variant in hn.SHAPING_VARIANTS:
            f = hn.ShapingFunction(variant)
            assert f.cumulative(2.0, 1.0) == 0.0


class TestBaseline:
    @pytest.mark.parametrize("variant", hn.BASELINE_VARIANTS)
    @pytest.mark.parametrize("a,b", [(0.0, 2.0), (0.5, 3.0), (0.0, 0.0005), (1.0, 1.0)])
    def test_integral_matches_quadrature(self, variant, a, b):
        base = hn.Baseline(variant, log_scale=-0.7, epsilon=1e-3)
        expected = 0.0
        if b > a:
            expected, _ = quad(
                base.rate, a, b, points=[base.epsilon] if a < base.epsilon < b else None,
                limit=200,
            )
        assert base.integral(a, b) == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_inverse_integral_zero_below_epsilon(self):
        base = hn.Baseline(hn.INVERSE, epsilon=1e-2)
        assert base.integral(0.0, 5e-3) == 0.0

    @pytest.mark.parametrize("variant", hn.BASELINE_VARIANTS)
    def test_invert_integral_roundtrip(self, variant):
        base = hn.Baseline(variant, log_scale=0.3, epsilon=1e-3)
        for a in (0.0, 0.4, 2.0):
            for target in (1e-6, 0.5, 3.0):
                t = base.invert_integral(a, target)
                assert t >= a
                assert base.integral(a, t) == pytest.approx(target, rel=1e-9)

    @pytest.mark.parametrize("variant", hn.BASELINE_VARIANTS)
    def test_invert_integral_array_form_matches_scalar(self, variant):
        base = hn.Baseline(variant, log_scale=0.3, epsilon=1e-3)
        a = np.array([0.0, 0.4, 2.0, 1.0])
        target = np.array([0.5, 1e-6, 3.0, -1.0])
        got = base.invert_integral(a, target)
        assert got.shape == (4,)
        assert got[3] == 1.0  # a nonpositive target stays put
        for k in range(4):
            assert got[k] == pytest.approx(base.invert_integral(float(a[k]), float(target[k])))

    def test_invert_integral_beyond_float_range_is_inf(self):
        base = hn.Baseline(hn.INVERSE, log_scale=-10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert base.invert_integral(1.0, 1.0) == np.inf
            got = base.invert_integral(np.array([1.0, 1.0]), np.array([1.0, 1e-6]))
        assert got[0] == np.inf
        assert np.isfinite(got[1])

    def test_log_rate_matches_rate(self):
        for variant in hn.BASELINE_VARIANTS:
            base = hn.Baseline(variant, log_scale=-1.2)
            for t in (0.5, 1.0, 7.3):
                assert base.log_rate(t) == pytest.approx(np.log(base.rate(t)))

    def test_inverse_log_rate_is_minus_inf_below_clamp(self):
        base = hn.Baseline(hn.INVERSE, epsilon=1e-2)
        assert base.log_rate(5e-3) == -np.inf

    def test_log_scale_whose_exponential_overflows_rejected(self):
        assert np.isfinite(hn.Baseline(hn.CONSTANT, log_scale=709.0).rate(1.0))
        with pytest.raises(ValueError, match="log_scale"):
            hn.Baseline(hn.CONSTANT, log_scale=710.0)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            hn.Baseline(hn.INVERSE, epsilon=0.0)
