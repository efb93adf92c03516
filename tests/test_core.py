"""Hazard/survival/density evaluation: worked values and quadrature oracles."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

import hazardnet as hn
from conftest import random_additive_network, random_multiplicative_network

EXP = hn.ShapingFunction(hn.EXPONENTIAL)


def two_node_net(alpha, kind=hn.ADDITIVE):
    params = np.zeros((2, 2))
    params[0, 1] = alpha
    return hn.Network(params, kind)


class TestAdditiveHazard:
    def test_single_parent(self):
        net = two_node_net(0.5)
        c = hn.Cascade.from_events([(0, 0.0)])
        assert hn.additive_hazard(net, EXP, c, 1, 1.0) == 0.5

    def test_additivity_over_parents(self):
        params = np.zeros((3, 3))
        params[0, 2], params[1, 2] = 0.3, 0.2
        net = hn.Network(params, hn.ADDITIVE)
        c = hn.Cascade.from_events([(0, 0.0), (1, 0.5)])
        assert hn.additive_hazard(net, EXP, c, 2, 1.0) == pytest.approx(0.5)

    def test_no_parents_before_t(self):
        net = two_node_net(0.5)
        c = hn.Cascade.from_events([(0, 0.0)])
        assert hn.additive_hazard(net, EXP, c, 1, 0.0) == 0.0

    def test_rejects_multiplicative_network(self):
        net = two_node_net(0.5, hn.MULTIPLICATIVE)
        c = hn.Cascade.from_events([(0, 0.0)])
        with pytest.raises(ValueError, match="expected an additive network"):
            hn.additive_hazard(net, EXP, c, 1, 1.0)

    def test_linear_in_parameters(self):
        rng = np.random.default_rng(4)
        a1 = random_additive_network(rng, 6)
        a2 = random_additive_network(rng, 6)
        both = hn.Network(a1.params + a2.params, hn.ADDITIVE)
        c = hn.Cascade.from_events([(0, 0.0), (3, 0.4), (5, 1.1)])
        for t in (0.5, 1.0, 2.0):
            assert hn.additive_hazard(both, EXP, c, 2, t) == pytest.approx(
                hn.additive_hazard(a1, EXP, c, 2, t) + hn.additive_hazard(a2, EXP, c, 2, t)
            )


class TestAdditiveCdf:
    def test_unit_rate_exponential(self):
        net = two_node_net(1.0)
        c = hn.Cascade.from_events([(0, 0.0)])
        assert hn.additive_cdf(net, EXP, c, 1, 1.0) == pytest.approx(1 - math.exp(-1))

    def test_no_parents_means_certain_survival(self):
        net = two_node_net(1.0)
        c = hn.Cascade.from_events([(1, 0.0)])
        assert hn.additive_cdf(net, EXP, c, 0, 2.0) == 0.0

    def test_zero_rates_mean_certain_survival(self):
        net = two_node_net(0.0)
        c = hn.Cascade.from_events([(0, 0.0)])
        assert hn.additive_cdf(net, EXP, c, 1, 5.0) == 0.0

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(9)
        net = random_additive_network(rng, 5)
        c = hn.Cascade.from_events([(0, 0.0), (2, 0.3), (4, 0.9)])
        values = [hn.additive_cdf(net, EXP, c, 1, t) for t in np.linspace(0, 4, 25)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b >= a - 1e-15 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("variant", hn.SHAPING_VARIANTS)
    def test_matches_quadrature_of_hazard(self, variant):
        # Closed-form CDF against 1 - exp(-numeric integral of the hazard).
        rng = np.random.default_rng(17)
        shaping = hn.ShapingFunction(variant, delta=0.2)
        for trial in range(4):
            net = random_additive_network(rng, 5)
            c = hn.Cascade.from_events([(0, 0.0), (2, 0.35), (3, 1.1)])
            t = float(rng.uniform(0.5, 3.5))
            breaks = sorted(
                {float(tp) + d for tp in c.times for d in (0.0, shaping.delta)} | {t / 2}
            )
            integral, _ = quad(
                lambda s: hn.additive_hazard(net, shaping, c, 1, s),
                0.0,
                t,
                points=[b for b in breaks if 0 < b < t],
                limit=300,
            )
            closed = hn.additive_cdf(net, shaping, c, 1, t)
            assert closed == pytest.approx(1 - math.exp(-integral), rel=1e-6, abs=1e-12)


class TestMultiplicativeCumulativeHazard:
    BASE = hn.Baseline(hn.CONSTANT, 0.0)

    def test_all_unit_influences_reduce_to_baseline(self):
        net = hn.Network(np.zeros((3, 3)), hn.MULTIPLICATIVE)
        c = hn.Cascade.from_events([(0, 0.0), (1, 1.0)])
        assert hn.multiplicative_cumulative_hazard(net, self.BASE, c, 2, 3.0) == 3.0

    def test_two_interval_hand_computation(self):
        # influence ln 2 switching on at t=1 doubles the unit baseline afterwards
        params = np.zeros((3, 3))
        params[1, 2] = math.log(2.0)
        net = hn.Network(params, hn.MULTIPLICATIVE)
        c = hn.Cascade.from_events([(0, 0.0), (1, 1.0)])
        assert hn.multiplicative_cumulative_hazard(net, self.BASE, c, 2, 3.0) == pytest.approx(5.0)

    def test_zero_time_is_empty_integral(self):
        net = hn.Network(np.zeros((2, 2)), hn.MULTIPLICATIVE)
        c = hn.Cascade.from_events([(0, 0.0)])
        assert hn.multiplicative_cumulative_hazard(net, self.BASE, c, 1, 0.0) == 0.0

    def test_rejects_additive_network(self):
        net = two_node_net(0.5)
        c = hn.Cascade.from_events([(0, 0.0)])
        with pytest.raises(ValueError, match="multiplicative"):
            hn.multiplicative_cumulative_hazard(net, self.BASE, c, 1, 1.0)

    def test_rejects_already_infected_node(self):
        net = two_node_net(0.5, hn.MULTIPLICATIVE)
        c = hn.Cascade.from_events([(0, 0.0), (1, 0.5)])
        with pytest.raises(ValueError, match="infected"):
            hn.multiplicative_cumulative_hazard(net, self.BASE, c, 1, 1.0)
        # evaluation up to its own infection time is fine
        hn.multiplicative_cumulative_hazard(net, self.BASE, c, 1, 0.5)

    def test_zero_matrix_reduces_to_baseline_integral(self):
        for variant in hn.BASELINE_VARIANTS:
            base = hn.Baseline(variant, log_scale=-0.3)
            net = hn.Network(np.zeros((4, 4)), hn.MULTIPLICATIVE)
            c = hn.Cascade.from_events([(0, 0.0), (1, 0.7), (2, 1.9)])
            got = hn.multiplicative_cumulative_hazard(net, base, c, 3, 2.5)
            assert got == pytest.approx(base.integral(0.0, 2.5), rel=1e-12)

    @pytest.mark.parametrize("variant", hn.BASELINE_VARIANTS)
    def test_matches_quadrature_of_hazard(self, variant):
        rng = np.random.default_rng(23)
        base = hn.Baseline(variant, log_scale=-0.4)
        for trial in range(4):
            net = random_multiplicative_network(rng, 5)
            c = hn.Cascade.from_events([(0, 0.0), (2, 0.4), (3, 1.3)])
            t = float(rng.uniform(0.5, 3.0))
            points = [b for b in (base.epsilon, 0.4, 1.3) if 0 < b < t]
            integral, _ = quad(
                lambda s: hn.multiplicative_hazard(net, base, c, 1, s),
                0.0,
                t,
                points=points,
                limit=300,
            )
            closed = hn.multiplicative_cumulative_hazard(net, base, c, 1, t)
            assert closed == pytest.approx(integral, rel=1e-6, abs=1e-10)
            cdf = hn.multiplicative_cdf(net, base, c, 1, t)
            assert cdf == pytest.approx(1 - math.exp(-integral), rel=1e-6, abs=1e-12)


class TestMultiplicativeDensity:
    BASE = hn.Baseline(hn.CONSTANT, 0.0)

    def test_unit_rate_exponential_density(self):
        net = hn.Network(np.zeros((2, 2)), hn.MULTIPLICATIVE)
        c = hn.Cascade.from_events([(0, 0.0)])
        assert hn.multiplicative_density(net, self.BASE, c, 1, 1.0) == pytest.approx(
            math.exp(-1)
        )

    def test_density_at_origin_equals_baseline(self):
        net = hn.Network(np.zeros((2, 2)), hn.MULTIPLICATIVE)
        c = hn.Cascade.from_events([(0, 0.0)])
        assert hn.multiplicative_density(net, self.BASE, c, 1, 0.0) == 1.0

    def test_parent_with_positive_influence(self):
        # parent at 0 with influence ln 2: rate doubles, so f(1) = 2 e^{-2}
        net = two_node_net(math.log(2.0), hn.MULTIPLICATIVE)
        c = hn.Cascade.from_events([(0, 0.0)])
        assert hn.multiplicative_density(net, self.BASE, c, 1, 1.0) == pytest.approx(
            2 * math.exp(-2)
        )

    def test_rejects_additive_network(self):
        net = two_node_net(0.5)
        c = hn.Cascade.from_events([(0, 0.0)])
        with pytest.raises(ValueError, match="multiplicative"):
            hn.multiplicative_density(net, self.BASE, c, 1, 1.0)

    def test_density_integrates_to_cdf(self):
        rng = np.random.default_rng(31)
        net = random_multiplicative_network(rng, 4)
        base = hn.Baseline(hn.LINEAR, log_scale=-0.2)
        c = hn.Cascade.from_events([(0, 0.0), (2, 0.8)])
        t = 2.2
        mass, _ = quad(
            lambda s: hn.multiplicative_density(net, base, c, 1, s), 0.0, t,
            points=[0.8], limit=300,
        )
        assert mass == pytest.approx(hn.multiplicative_cdf(net, base, c, 1, t), rel=1e-6)


class TestNonnegativity:
    def test_all_hazards_nonnegative(self):
        rng = np.random.default_rng(40)
        c = hn.Cascade.from_events([(0, 0.0), (1, 0.5), (4, 1.7)])
        for variant in hn.SHAPING_VARIANTS:
            net = random_additive_network(rng, 5)
            shaping = hn.ShapingFunction(variant, delta=0.3)
            for t in np.linspace(0.0, 4.0, 30):
                assert hn.additive_hazard(net, shaping, c, 2, float(t)) >= 0.0
        for variant in hn.BASELINE_VARIANTS:
            net = random_multiplicative_network(rng, 5)
            base = hn.Baseline(variant, log_scale=0.4)
            for t in np.linspace(0.0, 4.0, 30):
                assert hn.multiplicative_hazard(net, base, c, 2, float(t)) >= 0.0
