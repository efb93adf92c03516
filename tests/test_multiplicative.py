"""Multiplicative model: support mask, likelihood, gradient, L1 solver."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import hazardnet as hn
from conftest import multiplicative_instance
from hazardnet.multiplicative import _column
from hazardnet.optim import PackedCascades

CONST = hn.Baseline(hn.CONSTANT, 0.0)


def full_mask(n):
    m = np.ones((n, n), dtype=bool)
    np.fill_diagonal(m, False)
    return hn.SupportMask(m)


def two_node_net(alpha):
    params = np.zeros((2, 2))
    params[0, 1] = alpha
    return hn.Network(params, hn.MULTIPLICATIVE)


def naive_loglik(params, baseline, mask, cascade, num_nodes, window):
    """Per-event reimplementation: one pass per infected target and per
    uninfected node, each summing its own exposure interval by interval."""
    A = np.where(mask.matrix, params, 0.0)
    nodes, times = cascade.nodes, cascade.times
    rights = np.concatenate([times[1:], [window]])
    weights = np.asarray(baseline.integral(times, rights))

    def exposure(alphas_by_event, upto):
        if upto == 0:
            return 0.0
        prefix = np.cumsum(alphas_by_event[:upto])
        return float(np.exp(prefix) @ weights[:upto])

    total = 0.0
    for r in range(1, nodes.size):
        alphas = A[nodes, nodes[r]]
        total += float(alphas[:r].sum())
        total += float(baseline.log_rate(times[r]))
        total -= exposure(alphas, r)
    for n in range(num_nodes):
        if n not in nodes:
            total -= exposure(A[nodes, n], nodes.size)
    return total


def interval_weights(cascade, baseline, window):
    rights = np.concatenate([cascade.times[1:], [window]])
    return np.asarray(baseline.integral(cascade.times, rights))


def naive_gradient(net, baseline, mask, cs):
    """Per-event reimplementation of the masked set gradient: one pass per
    infected target and per uninfected node over its exposure intervals."""
    A = np.where(mask.matrix, net.params, 0.0)
    N = net.num_nodes
    grad = np.zeros((N, N))
    all_nodes = np.arange(N)
    for cascade in cs:
        nodes = cascade.nodes
        weights = interval_weights(cascade, baseline, cs.window)

        def exposure_pull(target, upto):
            if upto == 0:
                return
            prefix = np.cumsum(A[nodes[:upto], target])
            terms = np.exp(prefix) * weights[:upto]
            # d exposure / d alpha_{k, target} sums the intervals where k is active
            grad[nodes[:upto], target] -= np.cumsum(terms[::-1])[::-1]

        for r in range(1, nodes.size):
            grad[nodes[:r], nodes[r]] += 1.0
            exposure_pull(int(nodes[r]), r)
        for n in np.setdiff1d(all_nodes, nodes, assume_unique=True):
            exposure_pull(int(n), nodes.size)
    grad[~mask.matrix] = 0.0
    return grad


def naive_counts(cs):
    """Per-cascade co-infection counts: (j, i) gains one where j precedes i."""
    counts = np.zeros((cs.num_nodes, cs.num_nodes))
    for cascade in cs:
        nodes = cascade.nodes
        counts[np.ix_(nodes, nodes)] += np.triu(np.ones((nodes.size, nodes.size)), k=1)
    return counts


def naive_column(cs, baseline, target):
    """Per-cascade build of one column's (nodes, weights, offsets): every
    interval before the target's infection, or all of them if it has none."""
    node_chunks, weight_chunks = [], []
    for cascade in cs:
        hits = np.nonzero(cascade.nodes == target)[0]
        upto = cascade.size if hits.size == 0 else int(hits[0])
        if upto == 0:
            continue
        node_chunks.append(cascade.nodes[:upto])
        weight_chunks.append(interval_weights(cascade, baseline, cs.window)[:upto])
    if not node_chunks:
        return np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64)
    offsets = np.cumsum([0] + [len(c) for c in node_chunks[:-1]])
    return np.concatenate(node_chunks), np.concatenate(weight_chunks), offsets


class TestSupportMask:
    def test_disjoint_cascades(self):
        c1 = hn.Cascade.from_events([(0, 0.0), (1, 1.0)])
        c2 = hn.Cascade.from_events([(2, 0.0)])
        mask = hn.build_support(hn.CascadeSet(3, 2.0, (c1, c2)))
        expected = np.zeros((3, 3), dtype=bool)
        expected[0, 1] = True
        np.testing.assert_array_equal(mask.matrix, expected)

    def test_chain_cascade(self):
        c = hn.Cascade.from_events([(0, 0.0), (1, 1.0), (2, 1.5)])
        mask = hn.build_support(hn.CascadeSet(3, 2.0, (c,)))
        expected = np.zeros((3, 3), dtype=bool)
        expected[0, 1] = expected[0, 2] = expected[1, 2] = True
        np.testing.assert_array_equal(mask.matrix, expected)

    def test_empty_set(self):
        mask = hn.build_support(hn.CascadeSet(3, 2.0, ()))
        assert not mask.matrix.any()

    def test_packed_counts_equal_per_cascade_build(self):
        for seed in range(5):
            for variant in hn.BASELINE_VARIANTS:
                _, _, mask, cs = multiplicative_instance(seed, variant=variant)
                counts = naive_counts(cs)
                assert np.array_equal(PackedCascades(cs).coinfection_counts(), counts)
                assert np.array_equal(mask.matrix, counts > 0)

    def test_diagonal_must_stay_false(self):
        with pytest.raises(ValueError, match="diagonal"):
            hn.SupportMask(np.ones((2, 2), dtype=bool))


class TestCascadeLoglik:
    def test_survival_of_unit_rate_process(self):
        net = hn.Network(np.zeros((2, 2)), hn.MULTIPLICATIVE)
        c = hn.Cascade.from_events([(0, 0.0)])
        got = hn.multiplicative_cascade_loglik(net, CONST, full_mask(2), c, 2.0)
        assert got == pytest.approx(-2.0)

    def test_two_node_zero_matrix(self):
        net = hn.Network(np.zeros((2, 2)), hn.MULTIPLICATIVE)
        c = hn.Cascade.from_events([(0, 0.0), (1, 1.0)])
        got = hn.multiplicative_cascade_loglik(net, CONST, full_mask(2), c, 2.0)
        assert got == pytest.approx(-1.0)

    def test_positive_influence_hand_computation(self):
        # log f = alpha + log rate(1) - Lambda(1); the parent at 0 doubles the
        # unit baseline over [0, 1), so Lambda(1) = 2 and log f = ln 2 - 2.
        net = two_node_net(math.log(2.0))
        c = hn.Cascade.from_events([(0, 0.0), (1, 1.0)])
        got = hn.multiplicative_cascade_loglik(net, CONST, full_mask(2), c, 2.0)
        assert got == pytest.approx(math.log(2.0) - 2.0)

    def test_loglik_is_log_density_times_survivals(self):
        # consistency with the core evaluation ops on a 3-node cascade
        rng = np.random.default_rng(2)
        params = rng.uniform(-0.8, 0.8, (3, 3))
        np.fill_diagonal(params, 0.0)
        net = hn.Network(params, hn.MULTIPLICATIVE)
        base = hn.Baseline(hn.LINEAR, log_scale=0.2)
        c = hn.Cascade.from_events([(0, 0.0), (2, 0.9)])
        window = 2.5
        want = (
            math.log(hn.multiplicative_density(net, base, c, 2, 0.9))
            - hn.multiplicative_cumulative_hazard(net, base, c, 1, window)
        )
        got = hn.multiplicative_cascade_loglik(net, base, full_mask(3), c, window)
        assert got == pytest.approx(want, rel=1e-12)

    def test_mask_restriction_equals_zeroed_entries(self):
        net, base, mask, cs = multiplicative_instance(61)
        junk = np.array(net.params)
        junk[~mask.matrix] = 7.7  # junk outside the mask must be ignored
        np.fill_diagonal(junk, 0.0)
        with_mask = hn.multiplicative_set_loglik(
            hn.Network(junk, hn.MULTIPLICATIVE), base, mask, cs
        )
        zeroed = np.where(mask.matrix, junk, 0.0)
        without = hn.multiplicative_set_loglik(
            hn.Network(zeroed, hn.MULTIPLICATIVE), base, full_mask(cs.num_nodes), cs
        )
        assert with_mask == pytest.approx(without, rel=1e-12)

    def test_matches_naive_reimplementation(self):
        for seed in range(5):
            for variant in hn.BASELINE_VARIANTS:
                net, base, mask, cs = multiplicative_instance(seed, variant=variant)
                got = hn.multiplicative_set_loglik(net, base, mask, cs)
                want = sum(
                    naive_loglik(net.params, base, mask, c, cs.num_nodes, cs.window) for c in cs
                )
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_infection_beyond_window_rejected(self):
        net = two_node_net(0.3)
        c = hn.Cascade.from_events([(0, 0.0), (1, 1.5)])
        with pytest.raises(ValueError, match="window"):
            hn.multiplicative_cascade_loglik(net, CONST, full_mask(2), c, 1.0)

    def test_huge_influence_on_an_earlier_node_warns_nothing(self):
        # node 1's influence on the source overflows exp in a cell no term
        # reads; the value stays finite and no overflow warning escapes
        params = np.zeros((3, 3))
        params[1, 0], params[0, 1] = 800.0, 0.3
        net = hn.Network(params, hn.MULTIPLICATIVE)
        c = hn.Cascade.from_events([(0, 0.0), (1, 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hn.multiplicative_cascade_loglik(net, CONST, full_mask(3), c, 2.0)
        assert got == pytest.approx(0.3 - math.exp(0.3) - 2.0, rel=1e-12)

    def test_inverse_baseline_infection_before_epsilon_is_minus_infinity(self):
        base = hn.Baseline(hn.INVERSE, log_scale=0.0, epsilon=0.1)
        net = two_node_net(0.5)
        early = hn.Cascade.from_events([(0, 0.0), (1, 0.05)])
        at_clamp = hn.Cascade.from_events([(0, 0.0), (1, 0.1)])
        assert hn.multiplicative_cascade_loglik(net, base, full_mask(2), early, 2.0) == -math.inf
        assert math.isfinite(
            hn.multiplicative_cascade_loglik(net, base, full_mask(2), at_clamp, 2.0)
        )

    def test_one_event_cascade_is_survival_term_only(self):
        # only node 2 infected: every other node is exposed to the baseline
        # scaled by exp(alpha_{2,n}) over the whole window
        params = np.zeros((4, 4))
        params[2, 0], params[2, 1], params[2, 3] = 0.4, -0.7, 1.1
        net = hn.Network(params, hn.MULTIPLICATIVE)
        base = hn.Baseline(hn.LINEAR, log_scale=-0.2)
        c = hn.Cascade.from_events([(2, 0.0)])
        window = 2.5
        want = -math.exp(-0.2) * window**2 / 2.0 * sum(math.exp(a) for a in (0.4, -0.7, 1.1))
        got = hn.multiplicative_cascade_loglik(net, base, full_mask(4), c, window)
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_matrix_matches_inhomogeneous_process_quadrature(self):
        # with no influences each node is an independent process with the
        # baseline rate; check against numeric integrals of that law
        for variant in hn.BASELINE_VARIANTS:
            base = hn.Baseline(variant, log_scale=-0.4)
            net = hn.Network(np.zeros((3, 3)), hn.MULTIPLICATIVE)
            c = hn.Cascade.from_events([(0, 0.0), (1, 1.3)])
            window = 2.0
            cum_to = lambda t: quad(base.rate, 0.0, t, points=[base.epsilon], limit=200)[0]
            want = (
                float(base.log_rate(1.3)) - cum_to(1.3)  # node 1 infected at 1.3
                - cum_to(window)  # node 2 survives
            )
            got = hn.multiplicative_cascade_loglik(net, base, full_mask(3), c, window)
            assert got == pytest.approx(want, rel=1e-6)


class TestGradient:
    @pytest.mark.parametrize("variant", hn.BASELINE_VARIANTS)
    def test_matches_central_finite_differences(self, variant):
        net, base, mask, cs = multiplicative_instance(71, variant=variant, log_scale=-0.3)
        grad = hn.multiplicative_gradient(net, base, mask, cs)
        h = 1e-6
        n = cs.num_nodes
        for j in range(n):
            for i in range(n):
                if not mask.matrix[j, i]:
                    assert grad[j, i] == 0.0
                    continue
                up, dn = np.array(net.params), np.array(net.params)
                up[j, i] += h
                dn[j, i] -= h
                fd = (
                    hn.multiplicative_set_loglik(hn.Network(up, hn.MULTIPLICATIVE), base, mask, cs)
                    - hn.multiplicative_set_loglik(hn.Network(dn, hn.MULTIPLICATIVE), base, mask, cs)
                ) / (2 * h)
                rel = abs(fd - grad[j, i]) / max(abs(fd), abs(grad[j, i]), 1.0)
                assert rel < 1e-5

    def test_matches_naive_reimplementation(self):
        for seed in range(5):
            for variant in hn.BASELINE_VARIANTS:
                net, base, mask, cs = multiplicative_instance(seed, variant=variant)
                got = hn.multiplicative_gradient(net, base, mask, cs)
                want = naive_gradient(net, base, mask, cs)
                scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-300)
                assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_packed_columns_equal_per_cascade_build(self):
        for seed in range(5):
            for variant in hn.BASELINE_VARIANTS:
                _, base, _, cs = multiplicative_instance(seed, variant=variant)
                packed = PackedCascades(cs)
                weights = packed.interval_weights(base)
                for i in range(cs.num_nodes):
                    column = _column(packed, weights, i)
                    nodes, flat_weights, offsets = naive_column(cs, base, i)
                    assert np.array_equal(column.nodes, nodes)
                    assert np.array_equal(column.weights, flat_weights)
                    assert np.array_equal(column.segments.offsets, offsets)

    def test_zero_matrix_closed_form(self):
        # at A = 0 with unit baseline: count of (k before i) minus i's exposed
        # time after t_k
        c1 = hn.Cascade.from_events([(0, 0.0), (1, 1.0)])
        c2 = hn.Cascade.from_events([(0, 0.0)])
        cs = hn.CascadeSet(2, 2.0, (c1, c2))
        net = hn.Network(np.zeros((2, 2)), hn.MULTIPLICATIVE)
        grad = hn.multiplicative_gradient(net, CONST, full_mask(2), cs)
        # cascade 1: count 1, exposure (0,1]; cascade 2: node 1 uninfected, exposure (0,2]
        assert grad[0, 1] == pytest.approx(1.0 - 1.0 - 2.0)

    def test_never_coinfected_pair_pulls_strictly_down_without_mask(self):
        # node 2 appears only where node 1 does not: without the support
        # restriction the likelihood in alpha_{2,1} increases without bound
        c1 = hn.Cascade.from_events([(2, 0.0), (0, 0.8)])
        c2 = hn.Cascade.from_events([(0, 0.0), (1, 1.1)])
        cs = hn.CascadeSet(3, 2.0, (c1, c2))
        everything = full_mask(3)
        for value in (-3.0, -1.0, 0.0, 1.0, 3.0):
            params = np.zeros((3, 3))
            params[2, 1] = value
            net = hn.Network(params, hn.MULTIPLICATIVE)
            grad = hn.multiplicative_gradient(net, CONST, everything, cs)
            assert grad[2, 1] < 0.0
        assert not hn.build_support(cs).matrix[2, 1]


class TestInference:
    def test_sign_recovery(self):
        params = np.zeros((3, 3))
        params[0, 1], params[0, 2] = 0.7, -0.7
        true = hn.Network(params, hn.MULTIPLICATIVE)
        cs = hn.simulate_set(true, CONST, 5000, 2.0, rng_seed=5)
        result = hn.infer_multiplicative(cs, hn.MultiplicativeConfig(baseline=CONST, l1_penalty=0.5))
        assert result.converged
        assert result.network.params[0, 1] > 0.0
        assert result.network.params[0, 2] < 0.0

    def test_huge_penalty_zeroes_everything(self):
        _, base, _, cs = multiplicative_instance(81)
        cfg = hn.MultiplicativeConfig(baseline=base, l1_penalty=1e6)
        result = hn.infer_multiplicative(cs, cfg)
        assert np.all(result.network.params == 0.0)

    def test_penalized_entries_are_exact_zeros_or_substantial(self):
        _, base, _, cs = multiplicative_instance(82, n_cascades=60)
        cfg = hn.MultiplicativeConfig(baseline=base, l1_penalty=5.0, tol=1e-12, max_iters=20000)
        result = hn.infer_multiplicative(cs, cfg)
        nonzero = result.network.params[result.network.params != 0.0]
        assert nonzero.size == 0 or np.abs(nonzero).min() > 1e-8

    def test_random_restarts_reach_same_objective(self):
        _, base, mask, cs = multiplicative_instance(83, n_nodes=6, n_cascades=60)
        penalty = 0.3
        cfg = hn.MultiplicativeConfig(
            baseline=base, l1_penalty=penalty, tol=1e-13, max_iters=30000
        )
        rng = np.random.default_rng(1)
        objectives = []
        for _ in range(3):
            init = rng.uniform(-0.5, 0.5, size=(6, 6))
            np.fill_diagonal(init, 0.0)
            result = hn.infer_multiplicative(cs, cfg, init=init)
            nll = -hn.multiplicative_set_loglik(result.network, base, mask, cs)
            objectives.append(nll + penalty * np.abs(result.network.params).sum())
        spread = (max(objectives) - min(objectives)) / max(abs(objectives[0]), 1.0)
        assert spread < 1e-6

    def test_unregularized_objective_beats_truth(self):
        true, base, mask, cs = multiplicative_instance(84, n_nodes=6, n_cascades=80)
        cfg = hn.MultiplicativeConfig(baseline=base, l1_penalty=0.0, tol=1e-12, max_iters=20000)
        result = hn.infer_multiplicative(cs, cfg)
        nll_hat = -hn.multiplicative_set_loglik(result.network, base, mask, cs)
        nll_true = -hn.multiplicative_set_loglik(true, base, mask, cs)
        assert nll_hat <= nll_true + 1e-9

    def test_entries_outside_mask_stay_zero(self):
        c1 = hn.Cascade.from_events([(0, 0.0), (1, 1.0)])
        c2 = hn.Cascade.from_events([(2, 0.0)])
        cs = hn.CascadeSet(3, 2.0, (c1, c2) * 5)
        result = hn.infer_multiplicative(cs, hn.MultiplicativeConfig(baseline=CONST))
        mask = hn.build_support(cs)
        assert np.all(result.network.params[~mask.matrix] == 0.0)

    def test_deterministic(self):
        _, base, _, cs = multiplicative_instance(85, n_nodes=6, n_cascades=40)
        cfg = hn.MultiplicativeConfig(baseline=base)
        a = hn.infer_multiplicative(cs, cfg)
        b = hn.infer_multiplicative(cs, cfg)
        np.testing.assert_array_equal(a.network.params, b.network.params)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_init_rejected(self, bad):
        _, base, _, cs = multiplicative_instance(90, n_nodes=4, n_cascades=10)
        init = np.zeros((4, 4))
        init[2, 1] = bad
        with pytest.raises(ValueError, match="init must be finite"):
            hn.infer_multiplicative(cs, hn.MultiplicativeConfig(baseline=base), init=init)

    def test_kkt_conditions_hold_at_the_solution(self):
        _, base, mask, cs = multiplicative_instance(86, n_nodes=6, n_cascades=60)
        penalty = 0.2
        cfg = hn.MultiplicativeConfig(
            baseline=base, l1_penalty=penalty, tol=1e-13, max_iters=50000
        )
        result = hn.infer_multiplicative(cs, cfg)
        assert hn.multiplicative_kkt_violation(result.network, base, mask, cs, penalty) < 1e-4

    def test_trace_is_nonincreasing(self):
        _, base, _, cs = multiplicative_instance(87)
        result = hn.infer_multiplicative(cs, hn.MultiplicativeConfig(baseline=base))
        diffs = np.diff(result.objective_trace)
        assert np.all(diffs <= 1e-9 * np.maximum(np.abs(result.objective_trace[:-1]), 1.0))

    def test_accelerated_variant_reaches_same_objective(self):
        _, base, mask, cs = multiplicative_instance(88, n_nodes=6, n_cascades=40)
        plain = hn.infer_multiplicative(
            cs, hn.MultiplicativeConfig(baseline=base, l1_penalty=0.1, tol=1e-12, max_iters=20000)
        )
        fast = hn.infer_multiplicative(
            cs,
            hn.MultiplicativeConfig(
                baseline=base, l1_penalty=0.1, tol=1e-12, max_iters=20000, accelerate=True
            ),
        )
        f = lambda net: -hn.multiplicative_set_loglik(net, base, mask, cs) + 0.1 * np.abs(
            net.params
        ).sum()
        assert f(fast.network) == pytest.approx(f(plain.network), rel=1e-6)

    def test_objective_convex_along_segments(self):
        _, base, mask, cs = multiplicative_instance(89, n_nodes=5)
        rng = np.random.default_rng(3)
        nll = lambda p: -hn.multiplicative_set_loglik(
            hn.Network(p, hn.MULTIPLICATIVE), base, mask, cs
        )
        for _ in range(6):
            p1 = rng.uniform(-0.8, 0.8, (5, 5))
            p2 = rng.uniform(-0.8, 0.8, (5, 5))
            np.fill_diagonal(p1, 0.0)
            np.fill_diagonal(p2, 0.0)
            lam = float(rng.uniform(0.1, 0.9))
            assert nll(lam * p1 + (1 - lam) * p2) <= lam * nll(p1) + (1 - lam) * nll(p2) + 1e-9


class TestSignedEdges:
    def test_zero_matrix_gives_no_edges(self):
        net = hn.Network(np.zeros((3, 3)), hn.MULTIPLICATIVE)
        assert hn.extract_signed_edges(net, 1e-4) == []

    def test_positive_edge(self):
        net = two_node_net(0.5)
        assert hn.extract_signed_edges(net, 1e-4) == [hn.SignedEdge(0, 1, 1, 0.5)]

    def test_below_threshold_dropped(self):
        net = two_node_net(-3e-5)
        assert hn.extract_signed_edges(net, 1e-4) == []

    def test_rejects_additive(self):
        net = hn.Network(np.zeros((2, 2)), hn.ADDITIVE)
        with pytest.raises(ValueError, match="multiplicative"):
            hn.extract_signed_edges(net, 0.1)
