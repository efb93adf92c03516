"""Kronecker generation, parameter draws, and sampler exactness."""

import math

import numpy as np
import pytest
from scipy.stats import kstest

import hazardnet as hn

EXP = hn.ShapingFunction(hn.EXPONENTIAL)
CONST = hn.Baseline(hn.CONSTANT, 0.0)

# One model per kernel and baseline family, for the reference comparisons.
FAMILIES = {
    hn.EXPONENTIAL: EXP,
    hn.POWER: hn.ShapingFunction(hn.POWER, delta=0.5),
    hn.RAYLEIGH: hn.ShapingFunction(hn.RAYLEIGH),
    hn.CONSTANT: hn.Baseline(hn.CONSTANT, log_scale=-2.0),
    hn.LINEAR: hn.Baseline(hn.LINEAR, log_scale=-2.0),
    hn.INVERSE: hn.Baseline(hn.INVERSE, log_scale=-1.0),
}


# Per-node reference sampler: every refreshed target rebuilds its whole
# piecewise cumulative hazard from the history and inverts it on its own.


def reference_bisect(fn, lo, hi, target):
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-10 * max(1.0, abs(hi)):
            return mid
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_invert_additive(shaping, parent_times, alphas, target, t_max):
    """Earliest t <= t_max with cumulative additive hazard == target."""
    live = alphas > 0.0
    parent_times, alphas = parent_times[live], alphas[live]
    if parent_times.size == 0 or not math.isfinite(target):
        return math.inf
    starts = parent_times + shaping.delta if shaping.variant == hn.POWER else parent_times
    points = np.unique(starts[starts < t_max])
    if points.size == 0:
        return math.inf
    grid = np.concatenate([points, [t_max]])
    cumhaz = alphas @ np.asarray(shaping.cumulative(parent_times[:, None], grid[None, :]))
    if cumhaz[-1] < target:
        return math.inf
    seg = int(np.searchsorted(cumhaz, target, side="left"))
    if seg == 0:
        return float(grid[0])
    a, b = float(grid[seg - 1]), float(grid[seg])
    residual = target - float(cumhaz[seg - 1])
    if residual <= 0.0:
        return a
    active = starts <= a
    act_times, act_alphas = parent_times[active], alphas[active]
    if shaping.variant == hn.POWER and act_times.size > 1:
        lam = lambda t: float(act_alphas @ np.asarray(shaping.cumulative(act_times, t)))
        return reference_bisect(lam, a, b, float(cumhaz[seg - 1]) + residual)
    if shaping.variant == hn.POWER:
        tp = float(act_times[0])
        return tp + (a - tp) * math.exp(residual / float(act_alphas[0]))
    s0 = float(act_alphas.sum())
    if shaping.variant == hn.EXPONENTIAL:
        return a + residual / s0
    # rayleigh: sum alpha (t - t_j)**2 / 2 == target, centred on the
    # alpha-weighted mean time to avoid cancellation
    mean = float(act_alphas @ act_times) / s0
    spread = float(act_alphas @ (act_times - mean) ** 2)
    return mean + math.sqrt(max((2.0 * target - spread) / s0, 0.0))


def reference_invert_multiplicative(baseline, parent_times, alphas, target, t_max):
    """Earliest t <= t_max with cumulative multiplicative hazard == target."""
    if not math.isfinite(target):
        return math.inf
    keep = (parent_times < t_max) & (alphas != 0.0)
    parent_times, alphas = parent_times[keep], alphas[keep]
    if parent_times.size == 0 or parent_times[0] > 0.0:
        parent_times = np.concatenate([[0.0], parent_times])
        alphas = np.concatenate([[0.0], alphas])
    lefts = parent_times
    rights = np.concatenate([lefts[1:], [t_max]])
    mults = np.exp(np.cumsum(alphas))
    cumhaz = np.cumsum(mults * np.asarray(baseline.integral(lefts, rights)))
    if cumhaz[-1] < target:
        return math.inf
    seg = int(np.searchsorted(cumhaz, target, side="left"))
    before = float(cumhaz[seg - 1]) if seg > 0 else 0.0
    residual = target - before
    if residual <= 0.0:
        return float(lefts[seg])
    t = baseline.invert_integral(float(lefts[seg]), residual / float(mults[seg]))
    return min(t, float(rights[seg]))


def reference_invert(model, parent_times, alphas, target, t_max):
    if isinstance(model, hn.ShapingFunction):
        return reference_invert_additive(model, parent_times, alphas, target, t_max)
    return reference_invert_multiplicative(model, parent_times, alphas, target, t_max)


def reference_cascade(net, model, source, window, uniforms):
    """The event loop refreshing one target at a time through the oracles."""
    targets = -np.log1p(-uniforms)
    nodes, times = [source], [0.0]
    susceptible = np.ones(net.num_nodes, dtype=bool)
    susceptible[source] = False
    tentative = np.full(net.num_nodes, math.inf)

    def refresh(targets_now):
        for node in targets_now:
            alphas = net.params[nodes, node]
            tentative[node] = reference_invert(
                model, np.array(times), alphas, targets[node], window
            )

    if isinstance(model, hn.ShapingFunction):
        refresh(np.nonzero(susceptible & (net.params[source] != 0.0))[0])
    else:
        refresh(np.nonzero(susceptible)[0])
    while True:
        nxt = int(np.argmin(tentative))
        t_next = float(tentative[nxt])
        if not t_next <= window:
            break
        if t_next <= times[-1]:
            t_next = float(np.nextafter(times[-1], math.inf))
            if t_next > window:
                break
        nodes.append(nxt)
        times.append(t_next)
        susceptible[nxt] = False
        tentative[nxt] = math.inf
        refresh(np.nonzero(susceptible & (net.params[nxt] != 0.0))[0])
    return np.array(nodes), np.array(times)


def kind_of(model):
    return hn.ADDITIVE if isinstance(model, hn.ShapingFunction) else hn.MULTIPLICATIVE


def random_network(kind, n, rng):
    """Dense random parameters with ~40% of the edges switched off."""
    low = -0.7 if kind == hn.MULTIPLICATIVE else 0.0
    params = rng.uniform(low, 0.9, (n, n))
    params[rng.random((n, n)) < 0.4] = 0.0
    np.fill_diagonal(params, 0.0)
    return hn.Network(params, kind)


def generated_network(kind):
    """The network `hazardnet generate --scale 7 --model <kind> --seed 1` writes."""
    spec = hn.KroneckerSpec(hn.KRONECKER_SEEDS["core-periphery"], 7, 4.0, rng_seed=1)
    if kind == hn.ADDITIVE:
        dist = hn.ParamDistribution(hn.ADDITIVE, 0.01, 1.0)
    else:
        dist = hn.ParamDistribution(hn.MULTIPLICATIVE, 0.1, 1.0, negative_prob=0.3)
    return hn.assign_parameters(128, hn.generate_kronecker(spec), dist, rng_seed=2)


class TestKronecker:
    def test_identity_seed_keeps_edges_inside_diagonal_blocks(self):
        spec = hn.KroneckerSpec(np.eye(2), scale=2, target_avg_degree=0.5, rng_seed=1)
        edges = hn.generate_kronecker(spec)
        for u, v in edges:
            assert (u < 2) == (v < 2)

    def test_scale_one_has_at_most_two_edges(self):
        spec = hn.KroneckerSpec(np.full((2, 2), 0.5), scale=1, target_avg_degree=1.0, rng_seed=0)
        assert len(hn.generate_kronecker(spec)) <= 2

    def test_expected_edge_count_within_three_sigma(self):
        spec = hn.KroneckerSpec(
            hn.KRONECKER_SEEDS["core-periphery"], scale=10, target_avg_degree=4.0, rng_seed=7
        )
        edges = hn.generate_kronecker(spec)
        expected = 1024 * 4.0
        sigma = math.sqrt(expected)  # Binomial variance is below its mean
        assert abs(len(edges) - expected) <= 3 * sigma

    def test_no_self_loops(self):
        spec = hn.KroneckerSpec(np.full((2, 2), 0.9), scale=4, target_avg_degree=3.0, rng_seed=3)
        edges = hn.generate_kronecker(spec)
        assert np.all(edges[:, 0] != edges[:, 1])

    def test_deterministic_under_seed(self):
        spec = hn.KroneckerSpec(
            hn.KRONECKER_SEEDS["hierarchical"], scale=6, target_avg_degree=4.0, rng_seed=11
        )
        np.testing.assert_array_equal(hn.generate_kronecker(spec), hn.generate_kronecker(spec))

    def test_overflow_when_degree_unreachable(self):
        spec = hn.KroneckerSpec(
            hn.KRONECKER_SEEDS["core-periphery"], scale=3, target_avg_degree=7.9, rng_seed=0
        )
        with pytest.raises(hn.ScaleOverflowError):
            hn.generate_kronecker(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            hn.KroneckerSpec(np.full((2, 2), 1.5), scale=2, target_avg_degree=1.0)
        with pytest.raises(ValueError):
            hn.KroneckerSpec(np.eye(2), scale=0, target_avg_degree=1.0)


class TestAssignParameters:
    def test_degenerate_uniform_is_exact(self):
        edges = np.array([[0, 1], [1, 2]])
        dist = hn.ParamDistribution(hn.ADDITIVE, 0.5, 0.5)
        net = hn.assign_parameters(3, edges, dist, rng_seed=0)
        assert net.params[0, 1] == 0.5
        assert net.params[1, 2] == 0.5

    def test_law_of_large_numbers_mean(self):
        n = 101
        edges = np.array([(u, v) for u in range(n) for v in range(n) if u != v][:10000])
        dist = hn.ParamDistribution(hn.ADDITIVE, 0.01, 1.0)
        net = hn.assign_parameters(n, edges, dist, rng_seed=13)
        values = net.params[edges[:, 0], edges[:, 1]]
        assert abs(values.mean() - 0.505) <= 0.01

    def test_all_negative_when_probability_one(self):
        edges = np.array([[0, 1], [1, 0], [0, 2]])
        dist = hn.ParamDistribution(hn.MULTIPLICATIVE, 0.1, 1.0, negative_prob=1.0)
        net = hn.assign_parameters(3, edges, dist, rng_seed=0)
        assert np.all(net.params[edges[:, 0], edges[:, 1]] < 0.0)

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError, match="loop"):
            hn.assign_parameters(2, np.array([[1, 1]]), hn.ParamDistribution(hn.ADDITIVE, 0.1, 1.0))


class TestSingleNodeSampler:
    """The per-node inversion against closed-form CDFs (conditional on
    infection within the window, since heavy-tailed variants truncate)."""

    @pytest.mark.parametrize(
        "variant,delta,window",
        [(hn.EXPONENTIAL, 1.0, 12.0), (hn.POWER, 0.5, 60.0), (hn.RAYLEIGH, 1.0, 8.0)],
    )
    def test_additive_inversion_matches_cdf(self, variant, delta, window):
        shaping = hn.ShapingFunction(variant, delta=delta)
        params = np.zeros((3, 3))
        params[0, 2], params[1, 2] = 0.9, 0.6
        net = hn.Network(params, hn.ADDITIVE)
        history = hn.Cascade.from_events([(0, 0.0), (1, 0.7)])
        rng = np.random.default_rng(99)
        times = np.array(
            [
                hn.infection_time_from_uniform(net, shaping, history, 2, u, window)
                for u in rng.random(4000)
            ]
        )
        infected = times[np.isfinite(times)]
        assert infected.size > 3500
        total = hn.additive_cdf(net, shaping, history, 2, window)
        cdf = lambda t: np.array(
            [hn.additive_cdf(net, shaping, history, 2, float(x)) / total for x in np.atleast_1d(t)]
        )
        assert kstest(infected, cdf).pvalue > 0.01

    @pytest.mark.parametrize(
        "variant,log_scale,window",
        [(hn.CONSTANT, 0.0, 8.0), (hn.LINEAR, -0.5, 6.0), (hn.INVERSE, 0.5, 50.0)],
    )
    def test_multiplicative_inversion_matches_cdf(self, variant, log_scale, window):
        base = hn.Baseline(variant, log_scale=log_scale)
        params = np.zeros((3, 3))
        params[0, 2], params[1, 2] = 0.5, -0.8
        net = hn.Network(params, hn.MULTIPLICATIVE)
        history = hn.Cascade.from_events([(0, 0.0), (1, 0.9)])
        rng = np.random.default_rng(7)
        times = np.array(
            [
                hn.infection_time_from_uniform(net, base, history, 2, u, window)
                for u in rng.random(4000)
            ]
        )
        infected = times[np.isfinite(times)]
        assert infected.size > 3000
        total = hn.multiplicative_cdf(net, base, history, 2, window)
        cdf = lambda t: np.array(
            [
                hn.multiplicative_cdf(net, base, history, 2, float(x)) / total
                for x in np.atleast_1d(t)
            ]
        )
        assert kstest(infected, cdf).pvalue > 0.01

    @pytest.mark.parametrize("u", [1e-6, 1e-10])
    def test_rayleigh_single_parent_small_target_is_exact(self, u):
        # the source has no edge to node 2; its one parent arrives at 1.7
        params = np.zeros((3, 3))
        params[1, 2] = 0.7
        net = hn.Network(params, hn.ADDITIVE)
        history = hn.Cascade.from_events([(0, 0.0), (1, 1.7)])
        rayleigh = hn.ShapingFunction(hn.RAYLEIGH)
        got = hn.infection_time_from_uniform(net, rayleigh, history, 2, u, 10.0)
        want = 1.7 + math.sqrt(2.0 * -math.log1p(-u) / 0.7)
        assert abs(got - want) <= 1e-15 * want


class TestBatchedRefresh:
    """The running-state sampler against the per-node reference sampler,
    and its lazy refresh against refreshing every node on every event."""

    @staticmethod
    def _compare(net, model, cascades, window, seed):
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(cascades):
            source = int(rng.integers(net.num_nodes))
            uniforms = rng.random(net.num_nodes)
            got = hn.simulate_cascade(net, model, source, window, uniforms=uniforms)
            eager = hn.simulate_cascade(
                net, model, source, window, uniforms=uniforms, recompute_all=True
            )
            assert got.events() == eager.events()
            ref_nodes, ref_times = reference_cascade(net, model, source, window, uniforms)
            np.testing.assert_array_equal(got.nodes, ref_nodes)
            worst = max(worst, float(np.max(np.abs(got.times - ref_times))))
        assert worst <= 1e-12

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_random_16_node_network_matches_reference(self, family):
        model = FAMILIES[family]
        rng = np.random.default_rng(31)
        for trial in range(5):
            net = random_network(kind_of(model), 16, rng)
            self._compare(net, model, 12, 4.0, seed=100 + trial)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_generated_128_node_network_matches_reference(self, family):
        model = FAMILIES[family]
        self._compare(generated_network(kind_of(model)), model, 50, 4.0, seed=7)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_single_node_replay_matches_reference(self, family):
        model = FAMILIES[family]
        # the replay bisects over the parents so far, the reference over the
        # whole history: multi-parent power times agree to the bisection's
        # 1e-10 relative tolerance, the closed forms to rounding
        tol = 4.0 * 1e-10 if family == hn.POWER else 1e-12
        rng = np.random.default_rng(43)
        for _ in range(200):
            net = random_network(kind_of(model), 6, rng)
            times = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 3.0, 4))])
            history = hn.Cascade(np.arange(5), times)
            u = float(rng.random())
            got = hn.infection_time_from_uniform(net, model, history, 5, u, 4.0)
            want = reference_invert(model, times, net.params[:5, 5], -math.log1p(-u), 4.0)
            assert got == pytest.approx(want, rel=0.0, abs=tol) or got == want == math.inf


class TestSimulateCascade:
    def test_exponential_delay_has_unit_mean(self):
        net = hn.Network([[0.0, 1.0], [0.0, 0.0]], hn.ADDITIVE)
        cs = hn.simulate_set(net, EXP, 10000, 50.0, sources=[0] * 10000, rng_seed=7)
        delays = [c.times[1] for c in cs if c.size == 2]
        assert len(delays) == 10000  # window is ~e^50 tail, everything lands
        assert 0.97 <= np.mean(delays) <= 1.03

    def test_no_edges_means_singleton(self):
        net = hn.Network(np.zeros((4, 4)), hn.ADDITIVE)
        c = hn.simulate_cascade(net, EXP, source=2, window=5.0, rng_seed=0)
        assert c.events() == [(2, 0.0)]

    def test_baseline_only_infection_frequency(self):
        net = hn.Network(np.zeros((4, 4)), hn.MULTIPLICATIVE)
        cs = hn.simulate_set(net, CONST, 4000, 1.0, rng_seed=3)
        frac = np.mean([(c.size - 1) / 3 for c in cs])
        # each non-source node infects independently w.p. 1 - e^{-1}
        assert abs(frac - (1 - math.exp(-1))) < 3 * math.sqrt(0.632 * 0.368 / 12000)

    def test_times_inside_window_and_source_at_zero(self):
        rng = np.random.default_rng(5)
        params = rng.uniform(0, 1, (6, 6))
        np.fill_diagonal(params, 0.0)
        net = hn.Network(params, hn.ADDITIVE)
        cs = hn.simulate_set(net, EXP, 50, 2.0, rng_seed=9)
        for c in cs:
            assert c.times[0] == 0.0
            assert np.all(c.times[1:] > 0.0)
            assert np.all(c.times <= 2.0)

    def test_deterministic_under_seed(self):
        net = hn.Network(np.full((5, 5), 0.4) - 0.4 * np.eye(5), hn.ADDITIVE)
        a = hn.simulate_set(net, EXP, 20, 3.0, rng_seed=21)
        b = hn.simulate_set(net, EXP, 20, 3.0, rng_seed=21)
        assert [x.events() for x in a] == [y.events() for y in b]

    def test_zero_cascades(self):
        net = hn.Network(np.zeros((3, 3)), hn.ADDITIVE)
        cs = hn.simulate_set(net, EXP, 0, 1.0, rng_seed=0)
        assert len(cs) == 0

    @pytest.mark.parametrize("kind", [hn.ADDITIVE, hn.MULTIPLICATIVE])
    def test_refresh_schedule_does_not_change_the_draw(self, kind):
        # one fixed uniform per node: lazily refreshing only changed hazards
        # must give the same cascade as refreshing everything every event
        rng = np.random.default_rng(55)
        for trial in range(8):
            params = rng.uniform(-0.7, 0.9, (6, 6)) if kind == hn.MULTIPLICATIVE else rng.uniform(
                0, 0.9, (6, 6)
            )
            params[rng.random((6, 6)) < 0.4] = 0.0
            np.fill_diagonal(params, 0.0)
            net = hn.Network(params, kind)
            model = EXP if kind == hn.ADDITIVE else CONST
            uniforms = rng.random(6)
            lazy = hn.simulate_cascade(net, model, 0, 4.0, uniforms=uniforms)
            eager = hn.simulate_cascade(net, model, 0, 4.0, uniforms=uniforms, recompute_all=True)
            assert lazy.events() == eager.events()

    def test_model_kind_mismatch_rejected(self):
        net = hn.Network(np.zeros((3, 3)), hn.ADDITIVE)
        with pytest.raises(ValueError, match="multiplicative"):
            hn.simulate_cascade(net, CONST, 0, 1.0)
        mnet = hn.Network(np.zeros((3, 3)), hn.MULTIPLICATIVE)
        with pytest.raises(ValueError, match="additive"):
            hn.simulate_cascade(mnet, EXP, 0, 1.0)

    def test_bad_source_rejected(self):
        net = hn.Network(np.zeros((3, 3)), hn.ADDITIVE)
        with pytest.raises(ValueError, match="source"):
            hn.simulate_cascade(net, EXP, 3, 1.0)

    def test_thousand_cascades_on_1024_nodes_completes(self):
        spec = hn.KroneckerSpec(
            hn.KRONECKER_SEEDS["core-periphery"], scale=10, target_avg_degree=4.0, rng_seed=123
        )
        net = hn.assign_parameters(
            1024, hn.generate_kronecker(spec), hn.ParamDistribution(hn.ADDITIVE, 0.01, 1.0),
            rng_seed=124,
        )
        cs = hn.simulate_set(net, EXP, 1000, 4.0, rng_seed=125)
        sizes = {c.size for c in cs}
        assert len(cs) == 1000
        assert len(sizes) > 50  # a spread of outcomes, not a degenerate spike
