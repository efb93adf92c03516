"""Multiplicative model: support mask, likelihood, gradient, L1 solver."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize

import hazardnet as hn
import hazardnet.multiplicative as multiplicative
from conftest import multiplicative_instance
from hazardnet.multiplicative import _column, _exposure, _nll_gradient, _solve_column_mult
from hazardnet.optim import PackedCascades, pseudo_gradient

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


def column_problems(cs, baseline):
    """(free, counts, const, column) of every target column, built the way
    ``infer_multiplicative`` builds them."""
    packed = PackedCascades(cs)
    weights = packed.interval_weights(baseline)
    counts = packed.coinfection_counts()
    infections = packed.rank > 0
    rates = np.asarray(baseline.log_rate(packed.times[infections]))
    const = np.bincount(packed.nodes[infections], weights=rates, minlength=cs.num_nodes)
    for i in range(cs.num_nodes):
        free = np.nonzero(counts[:, i])[0]
        yield free, counts[:, i], float(const[i]), _column(packed, weights, i)


def column_objective(count_col, const, column, penalty, x):
    """Penalized column NLL: exposure - counts @ x - const + penalty * |x|_1."""
    exposure, _ = _exposure(column, x)
    return float(exposure - count_col @ x - const + penalty * np.abs(x).sum())


def column_kkt(free, count_col, column, penalty, x):
    """The ``multiplicative_kkt_violation`` rule on one column's free entries."""
    grad = _nll_gradient(column, _exposure(column, x)[1], count_col)[free]
    v = x[free]
    resid = np.where(
        v != 0.0, np.abs(grad + penalty * np.sign(v)), np.maximum(np.abs(grad) - penalty, 0.0)
    )
    return float(resid.max()) if resid.size else 0.0


def proximal_gradient_column(free, count_col, const, column, penalty, cfg, x0):
    """The former column solver: proximal gradient with backtracking and
    soft-thresholding, stopped when the penalized objective's relative
    change drops below ``cfg.tol``."""
    x = np.zeros(count_col.size)
    x[free] = x0[free]
    if free.size == 0:
        return x

    def smooth(y):
        exposure, lam = _exposure(column, y)
        return float(exposure - count_col @ y - const), lam

    f, lam = smooth(x)
    grad = _nll_gradient(column, lam, count_col)
    objective = f + penalty * float(np.abs(x).sum())
    step = 1.0
    for _ in range(cfg.max_iters):
        step *= 2.0
        while True:
            shifted = x[free] - step * grad[free]
            cand = np.zeros_like(x)
            cand[free] = np.sign(shifted) * np.maximum(np.abs(shifted) - step * penalty, 0.0)
            f_cand, lam_cand = smooth(cand)
            diff = cand[free] - x[free]
            model = f + float(grad[free] @ diff) + float(diff @ diff) / (2.0 * step)
            if math.isfinite(f_cand) and f_cand <= model + 1e-12 * abs(model):
                break
            step *= 0.5
            if step < 1e-20:
                return x
        previous = objective
        x, f = cand, f_cand
        grad = _nll_gradient(column, lam_cand, count_col)
        objective = f + penalty * float(np.abs(x).sum())
        if abs(previous - objective) / max(abs(previous), 1.0) < cfg.tol:
            break
    return x


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
            math.log(hn.infection_density(net, base, c, 2, 0.9))
            - hn.infection_cumulative_hazard(net, base, c, 1, window)
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
        np.testing.assert_array_equal(a.objectives, b.objectives)
        np.testing.assert_array_equal(a.steps, b.steps)
        assert a.status == b.status

    def test_empty_cascade_set_rejected(self):
        with pytest.raises(ValueError, match="at least one cascade"):
            hn.infer_multiplicative(hn.CascadeSet(2, 1.0, ()), hn.MultiplicativeConfig(CONST))

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_non_finite_init_rejected(self, bad):
        _, base, _, cs = multiplicative_instance(90, n_nodes=4, n_cascades=10)
        init = np.zeros((4, 4))
        init[2, 1] = bad
        with pytest.raises(ValueError, match="edge parameters must be finite"):
            hn.infer_multiplicative(cs, hn.MultiplicativeConfig(baseline=base), init=init)

    def test_init_must_be_a_valid_network(self):
        _, base, _, cs = multiplicative_instance(90, n_nodes=4, n_cascades=10)
        cfg = hn.MultiplicativeConfig(baseline=base)
        with pytest.raises(ValueError, match="diagonal"):
            hn.infer_multiplicative(cs, cfg, init=np.eye(4))
        with pytest.raises(ValueError, match="N x N"):
            hn.infer_multiplicative(cs, cfg, init=np.zeros((3, 3)))

    def test_line_search_stall_is_not_converged(self, monkeypatch):
        # every trial move changes the hazard by inf, so each working set's
        # first line search shrinks its step below the floor; the column
        # picks the same working set again and stops there
        _, base, _, cs = multiplicative_instance(89, n_nodes=4, n_cascades=10)

        def infinite_change(blocks, lam, delta):
            return np.full(lam.size, math.inf)

        monkeypatch.setattr(multiplicative, "_hazard_change", infinite_change)
        cfg = hn.MultiplicativeConfig(baseline=base, l1_penalty=0.0)
        result = hn.infer_multiplicative(cs, cfg)
        assert not result.converged
        assert "stalled" in result.status
        assert set(result.status) <= {"kkt_ok", "stalled"}
        assert result.iterations == 0
        assert np.all(result.network.params == 0.0)

    def test_iteration_cap_is_not_converged(self):
        _, base, _, cs = multiplicative_instance(88, n_nodes=6, n_cascades=60)
        cfg = hn.MultiplicativeConfig(baseline=base, l1_penalty=0.1, max_iters=1)
        result = hn.infer_multiplicative(cs, cfg)
        assert not result.converged
        assert "iteration_cap" in result.status
        assert set(result.status) <= {"kkt_ok", "iteration_cap"}
        assert result.iterations == 1 and np.all(result.steps <= 1)

    @pytest.mark.parametrize("variant", hn.BASELINE_VARIANTS)
    @pytest.mark.parametrize("penalty", [0.0, 0.3])
    def test_objectives_sum_to_the_penalized_set_nll(self, variant, penalty):
        for seed in range(3):
            _, base, mask, cs = multiplicative_instance(seed + 70, n_nodes=7, n_cascades=40,
                                                        variant=variant)
            cfg = hn.MultiplicativeConfig(baseline=base, l1_penalty=penalty)
            result = hn.infer_multiplicative(cs, cfg)
            assert result.objectives.shape == result.steps.shape == (7,)
            nll = -hn.multiplicative_set_loglik(result.network, base, mask, cs)
            expected = nll + penalty * np.abs(result.network.params[mask.matrix]).sum()
            assert math.isclose(result.objectives.sum(), expected, rel_tol=1e-12)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_penalty_must_be_finite_and_nonnegative(self, bad):
        with pytest.raises(ValueError, match="l1_penalty"):
            hn.MultiplicativeConfig(baseline=CONST, l1_penalty=bad)

    def test_kkt_conditions_hold_at_the_solution(self):
        _, base, mask, cs = multiplicative_instance(86, n_nodes=6, n_cascades=60)
        penalty = 0.2
        cfg = hn.MultiplicativeConfig(
            baseline=base, l1_penalty=penalty, tol=1e-13, max_iters=50000
        )
        result = hn.infer_multiplicative(cs, cfg)
        assert hn.multiplicative_kkt_violation(result.network, base, mask, cs, penalty) < 1e-4

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


class TestColumnSolver:
    """The working-set Newton column solver against two independent oracles:
    the former proximal-gradient loop and scipy's L-BFGS-B on the split
    x = u - w with u, w >= 0."""

    PENALTIES = (0.0, 0.2, 5.0)

    def problems(self):
        for seed in range(5):
            for variant in hn.BASELINE_VARIANTS:
                _, base, _, cs = multiplicative_instance(seed, variant=variant)
                for penalty in self.PENALTIES:
                    cfg = hn.MultiplicativeConfig(baseline=base, l1_penalty=penalty)
                    for free, count_col, const, column in column_problems(cs, base):
                        yield free, count_col, const, column, penalty, cfg

    def test_objective_at_most_proximal_gradient(self):
        for free, count_col, const, column, penalty, cfg in self.problems():
            x0 = np.zeros(count_col.size)
            x, objective, _, status = _solve_column_mult(
                free, count_col, const, column, penalty, cfg, x0
            )
            assert status == "kkt_ok"
            newton = column_objective(count_col, const, column, penalty, x)
            assert math.isclose(newton, objective, rel_tol=1e-12, abs_tol=1e-12)
            oracle = column_objective(
                count_col, const, column, penalty,
                proximal_gradient_column(free, count_col, const, column, penalty, cfg, x0),
            )
            assert newton <= oracle + 1e-9 * max(abs(oracle), 1.0)

    def test_objective_at_most_lbfgsb(self):
        for free, count_col, const, column, penalty, cfg in self.problems():
            if free.size == 0:
                continue
            x0 = np.zeros(count_col.size)
            x, _, _, _ = _solve_column_mult(free, count_col, const, column, penalty, cfg, x0)
            k = free.size

            def fun(uw, free=free, count_col=count_col, const=const, column=column,
                    penalty=penalty):
                y = np.zeros(count_col.size)
                y[free] = uw[:k] - uw[k:]
                exposure, lam = _exposure(column, y)
                if not math.isfinite(exposure):
                    return 1e300, np.zeros_like(uw)
                value = exposure - count_col @ y - const + penalty * uw.sum()
                grad = _nll_gradient(column, lam, count_col)[free]
                return value, np.concatenate([grad + penalty, penalty - grad])

            ref = minimize(fun, np.zeros(2 * k), jac=True, method="L-BFGS-B",
                           bounds=[(0.0, None)] * (2 * k),
                           options={"maxiter": 20000, "ftol": 1e-15, "gtol": 1e-12})
            y = np.zeros(count_col.size)
            y[free] = ref.x[:k] - ref.x[k:]
            oracle = column_objective(count_col, const, column, penalty, y)
            newton = column_objective(count_col, const, column, penalty, x)
            assert newton <= oracle + 1e-9 * max(abs(oracle), 1.0)

    def test_converged_fit_meets_the_documented_kkt_bound(self):
        _, base, mask, cs = multiplicative_instance(41, n_nodes=24, n_cascades=150)
        penalty = 0.5
        cfg = hn.MultiplicativeConfig(baseline=base, l1_penalty=penalty)
        result = hn.infer_multiplicative(cs, cfg)
        assert result.converged
        params = result.network.params
        limits = []
        for i, (free, count_col, _, column) in enumerate(column_problems(cs, base)):
            limits.append(cfg.tol * max(1.0, count_col.max()))
            assert column_kkt(free, count_col, column, penalty, params[:, i]) <= limits[-1]
        violation = hn.multiplicative_kkt_violation(result.network, base, mask, cs, penalty)
        assert violation <= max(limits)

    def test_tiny_tolerance_stops_within_a_hundred_steps(self):
        # the criterion-2 instance at tol 1e-13, near the floating-point
        # floor of the residual: every column ends long before the cap
        _, base, _, cs = multiplicative_instance(301, n_nodes=16, n_cascades=120)
        penalty = 0.5
        cfg = hn.MultiplicativeConfig(baseline=base, l1_penalty=penalty, tol=1e-13,
                                      max_iters=50000)
        for free, count_col, const, column in column_problems(cs, base):
            x0 = np.zeros(count_col.size)
            x, _, steps, _ = _solve_column_mult(
                free, count_col, const, column, penalty, cfg, x0
            )
            assert steps <= 100
            oracle = column_objective(
                count_col, const, column, penalty,
                proximal_gradient_column(free, count_col, const, column, penalty, cfg, x0),
            )
            newton = column_objective(count_col, const, column, penalty, x)
            assert newton <= oracle + 1e-9 * max(abs(oracle), 1.0)


def signed_residual(x, grad, penalty):
    """The former multiplicative KKT residual, an oracle for the shared rule."""
    return np.where(
        x != 0.0, np.abs(grad + penalty * np.sign(x)), np.maximum(np.abs(grad) - penalty, 0.0)
    )


def nonnegative_residual(x, grad):
    """The former additive KKT residual, an oracle for the shared rule."""
    return np.where(x > 0.0, np.abs(grad), np.maximum(-grad, 0.0))


@st.composite
def kkt_points(draw, signed):
    """(x, grad, penalty) with many zero entries and many |grad| = penalty
    ties; x >= 0 and penalty = 0 unless ``signed``."""
    penalty = draw(st.sampled_from([0.0, 0.5, 3.0]) | st.floats(0.0, 10.0)) if signed else 0.0
    size = draw(st.integers(1, 12))
    low = -5.0 if signed else 0.0
    x = draw(st.lists(st.just(0.0) | st.floats(low, 5.0), min_size=size, max_size=size))
    ties = st.sampled_from([penalty, -penalty, 0.0])
    grad = draw(st.lists(ties | st.floats(-20.0, 20.0), min_size=size, max_size=size))
    return np.array(x), np.array(grad), penalty


class TestPseudoGradient:
    """One pseudo-gradient states both models' KKT rule: its magnitude
    equals each former residual formula exactly."""

    @given(kkt_points(signed=True))
    @settings(max_examples=300, deadline=None)
    def test_signed_magnitude_is_the_l1_residual(self, point):
        x, grad, penalty = point
        pg, orthant, entering = pseudo_gradient(x, grad, penalty, signed=True)
        residual = signed_residual(x, grad, penalty)
        np.testing.assert_array_equal(np.abs(pg), residual)
        zero = x == 0.0
        np.testing.assert_array_equal(entering, zero & (residual > 0.0))
        np.testing.assert_array_equal(orthant[~zero], np.sign(x[~zero]))
        assert np.all(orthant[entering] * grad[entering] < 0.0)

    @given(kkt_points(signed=False))
    @settings(max_examples=300, deadline=None)
    def test_nonnegative_magnitude_is_the_projected_residual(self, point):
        x, grad, _ = point
        pg, orthant, entering = pseudo_gradient(x, grad, 0.0, signed=False)
        residual = nonnegative_residual(x, grad)
        np.testing.assert_array_equal(np.abs(pg), residual)
        assert np.all(orthant == 1.0)
        np.testing.assert_array_equal(entering, (x == 0.0) & (grad < 0.0))


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
