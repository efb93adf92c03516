"""Recovery metrics, splitting, and distribution prediction."""

import numpy as np
import pytest

import hazardnet as hn

EXP = hn.ShapingFunction(hn.EXPONENTIAL)


def net_from_edges(n, edges, kind=hn.ADDITIVE, value=0.5):
    params = np.zeros((n, n))
    for j, i in edges:
        params[j, i] = value
    return hn.Network(params, kind)


class TestEdgeAccuracy:
    def test_identical_edge_sets(self):
        a = net_from_edges(3, [(0, 1), (1, 2)])
        assert hn.edge_accuracy(a, a, 1e-4) == 1.0

    def test_partial_overlap(self):
        true = net_from_edges(4, [(0, 1), (0, 2)])
        inferred = net_from_edges(4, [(0, 1)])
        assert hn.edge_accuracy(true, inferred, 1e-4) == pytest.approx(2 / 3)

    def test_disjoint_sets_score_zero(self):
        true = net_from_edges(4, [(0, 1), (1, 2)])
        inferred = net_from_edges(4, [(2, 3)])
        assert hn.edge_accuracy(true, inferred, 1e-4) == 0.0

    def test_both_empty_is_perfect(self):
        e = net_from_edges(3, [])
        assert hn.edge_accuracy(e, e, 1e-4) == 1.0

    def test_symmetric(self):
        a = net_from_edges(5, [(0, 1), (2, 3), (4, 0)])
        b = net_from_edges(5, [(0, 1), (3, 2)])
        assert hn.edge_accuracy(a, b, 1e-4) == hn.edge_accuracy(b, a, 1e-4)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hn.edge_accuracy(net_from_edges(3, []), net_from_edges(4, []), 1e-4)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(8)
        p1 = rng.uniform(0, 1, (6, 6)) * (rng.random((6, 6)) < 0.3)
        p2 = rng.uniform(0, 1, (6, 6)) * (rng.random((6, 6)) < 0.3)
        np.fill_diagonal(p1, 0.0)
        np.fill_diagonal(p2, 0.0)
        perm = rng.permutation(6)
        a, b = hn.Network(p1, hn.ADDITIVE), hn.Network(p2, hn.ADDITIVE)
        ra = hn.Network(p1[np.ix_(perm, perm)], hn.ADDITIVE)
        rb = hn.Network(p2[np.ix_(perm, perm)], hn.ADDITIVE)
        assert hn.edge_accuracy(a, b, 0.1) == pytest.approx(hn.edge_accuracy(ra, rb, 0.1))
        assert hn.parameter_mse(a, b) == pytest.approx(hn.parameter_mse(ra, rb))


class TestParameterMse:
    def test_identical_is_zero(self):
        a = net_from_edges(3, [(0, 1)])
        assert hn.parameter_mse(a, a) == 0.0

    def test_two_node_hand_computation(self):
        t = np.zeros((2, 2))
        t[0, 1] = 0.5
        e = np.zeros((2, 2))
        e[0, 1] = 0.3
        e[1, 0] = 0.1
        got = hn.parameter_mse(hn.Network(t, hn.ADDITIVE), hn.Network(e, hn.ADDITIVE))
        assert got == pytest.approx((0.04 + 0.01) / 2)

    def test_scales_quadratically(self):
        rng = np.random.default_rng(3)
        p1 = rng.uniform(0, 1, (5, 5))
        p2 = rng.uniform(0, 1, (5, 5))
        np.fill_diagonal(p1, 0.0)
        np.fill_diagonal(p2, 0.0)
        base = hn.parameter_mse(hn.Network(p1, hn.ADDITIVE), hn.Network(p2, hn.ADDITIVE))
        scaled = hn.parameter_mse(
            hn.Network(3 * p1, hn.ADDITIVE), hn.Network(3 * p2, hn.ADDITIVE)
        )
        assert scaled == pytest.approx(9 * base)


class TestCompareNetworks:
    def test_sign_agreement_multiplicative_only(self):
        t = np.zeros((3, 3))
        t[0, 1], t[0, 2] = 0.5, -0.5
        e = np.zeros((3, 3))
        e[0, 1], e[0, 2] = 0.4, 0.6
        report = hn.compare_networks(
            hn.Network(t, hn.MULTIPLICATIVE), hn.Network(e, hn.MULTIPLICATIVE), 0.1
        )
        assert report.sign_agreement == pytest.approx(0.5)
        additive = hn.compare_networks(
            net_from_edges(3, [(0, 1)]), net_from_edges(3, [(0, 1)]), 0.1
        )
        assert additive.sign_agreement is None


    @pytest.mark.parametrize("fn", [hn.edge_accuracy, hn.compare_networks])
    @pytest.mark.parametrize("threshold", [-1.0, -1e-12, float("nan")])
    def test_rejects_negative_threshold(self, fn, threshold):
        # below zero every entry, the diagonal too, would count as an edge
        a = net_from_edges(3, [(0, 1)])
        b = net_from_edges(3, [(1, 2)], hn.MULTIPLICATIVE)
        with pytest.raises(ValueError, match="threshold must be nonnegative"):
            fn(a, b, threshold)

    def test_zero_threshold_counts_nonzero_entries(self):
        report = hn.compare_networks(
            net_from_edges(3, [(0, 1)]), net_from_edges(3, [(0, 1), (1, 2)]), 0.0
        )
        assert (report.true_edge_count, report.inferred_edge_count) == (1, 2)
        assert report.edge_accuracy == pytest.approx(1 - 1 / 3)


class TestSplit:
    def make(self, count):
        cascades = tuple(
            hn.Cascade.from_events([(0, 0.0), (1, 0.1 + 0.01 * k)]) for k in range(count)
        )
        return hn.CascadeSet(2, 2.0, cascades)

    def test_sizes(self):
        train, test = hn.split_cascades(self.make(10), 0.2, rng_seed=0)
        assert len(train) == 8
        assert len(test) == 2

    def test_union_is_the_input(self):
        cs = self.make(9)
        train, test = hn.split_cascades(cs, 0.3, rng_seed=4)
        got = sorted(tuple(c.events()) for c in list(train) + list(test))
        want = sorted(tuple(c.events()) for c in cs)
        assert got == want

    def test_deterministic(self):
        cs = self.make(12)
        a = hn.split_cascades(cs, 0.25, rng_seed=5)
        b = hn.split_cascades(cs, 0.25, rng_seed=5)
        assert [c.events() for c in a[1]] == [c.events() for c in b[1]]

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            hn.split_cascades(self.make(4), 0.0)
        with pytest.raises(ValueError):
            hn.split_cascades(self.make(4), 1.0)


class TestKsStatistic:
    def test_identical_samples(self):
        x = np.array([1.0, 2.0, 3.0])
        assert hn.ks_statistic(x, x) == 0.0

    def test_disjoint_samples(self):
        assert hn.ks_statistic(np.array([0.0, 1.0]), np.array([5.0, 6.0])) == 1.0

    def test_half_shift(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        b = np.array([3.5, 4.5, 5.5, 6.5])
        assert hn.ks_statistic(a, b) == 0.75


class TestSummaries:
    def build_set(self, seed=0):
        rng = np.random.default_rng(seed)
        params = rng.uniform(0.2, 1.0, (6, 6))
        np.fill_diagonal(params, 0.0)
        net = hn.Network(params, hn.ADDITIVE)
        return hn.simulate_set(net, EXP, 40, 2.0, rng_seed=seed)

    def test_masses_sum_to_sample_count(self):
        cs = self.build_set()
        s = hn.summarize_cascades(cs)
        assert s.size_counts.sum() == len(cs)
        assert s.duration_counts.sum() == len(cs)
        assert s.sample_count == len(cs)

    def test_singleton_duration_counts_in_first_bin(self):
        c = hn.Cascade.from_events([(0, 0.0)])
        cs = hn.CascadeSet(2, 2.0, (c,))
        s = hn.summarize_cascades(cs)
        assert s.duration_edges[0] == 0.0
        assert s.duration_counts[0] == 1
        assert s.duration_counts.sum() == 1

    def test_invariant_to_cascade_order(self):
        cs = self.build_set(3)
        rev = hn.CascadeSet(cs.num_nodes, cs.window, tuple(reversed(cs.cascades)))
        a, b = hn.summarize_cascades(cs), hn.summarize_cascades(rev)
        np.testing.assert_array_equal(a.size_counts, b.size_counts)
        np.testing.assert_array_equal(a.duration_counts, b.duration_counts)


class TestPredict:
    def test_empty_test_set_gives_empty_simulation(self):
        net = net_from_edges(3, [(0, 1)])
        test = hn.CascadeSet(3, 2.0, ())
        simulated, (s_test, s_sim) = hn.predict_distributions(net, EXP, test, rng_seed=0)
        assert len(simulated) == 0
        assert s_test.sample_count == 0
        assert s_sim.sample_count == 0

    def test_simulated_durations_respect_window(self):
        rng = np.random.default_rng(4)
        params = rng.uniform(0.3, 1.0, (5, 5))
        np.fill_diagonal(params, 0.0)
        net = hn.Network(params, hn.ADDITIVE)
        test = hn.simulate_set(net, EXP, 30, 1.5, rng_seed=2)
        simulated, _ = hn.predict_distributions(net, EXP, test, rng_seed=1)
        assert len(simulated) == len(test)
        for c in simulated:
            assert c.duration <= 1.5

    def test_sources_match_test_sources(self):
        rng = np.random.default_rng(6)
        params = rng.uniform(0.3, 1.0, (5, 5))
        np.fill_diagonal(params, 0.0)
        net = hn.Network(params, hn.ADDITIVE)
        test = hn.simulate_set(net, EXP, 25, 1.5, rng_seed=8)
        simulated, _ = hn.predict_distributions(net, EXP, test, rng_seed=9)
        assert [c.source for c in simulated] == [c.source for c in test]

    def test_matched_model_beats_mismatched(self):
        # train/test from one model: simulating from it should track the test
        # size distribution better than a model with all rates halved
        rng = np.random.default_rng(10)
        params = rng.uniform(0.2, 0.9, (8, 8)) * (rng.random((8, 8)) < 0.5)
        np.fill_diagonal(params, 0.0)
        net = hn.Network(params, hn.ADDITIVE)
        test = hn.simulate_set(net, EXP, 300, 2.0, rng_seed=11)
        _, (match, _) = hn.predict_distributions(net, EXP, test, rng_seed=12)
        halved = hn.Network(0.5 * params, hn.ADDITIVE)
        _, (mismatch, _) = hn.predict_distributions(halved, EXP, test, rng_seed=12)
        assert match.ks_size < mismatch.ks_size
