"""Kronecker generation, parameter draws, and sampler exactness."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

import hazardnet as hn
from hazardnet.simulate import (
    _BLOCK_CASCADES,
    _PowerKernel,
    _draw_targets,
    _running_hazard,
    _sample_rows,
)

EXP = hn.ShapingFunction(hn.EXPONENTIAL)
POWER = hn.ShapingFunction(hn.POWER, delta=0.5)
CONST = hn.Baseline(hn.CONSTANT, 0.0)
BAD_WINDOWS = [0.0, -1.0, math.nan, math.inf]

# One model per kernel and baseline family, for the reference comparisons.
FAMILIES = {
    hn.EXPONENTIAL: EXP,
    hn.POWER: POWER,
    hn.RAYLEIGH: hn.ShapingFunction(hn.RAYLEIGH),
    hn.CONSTANT: hn.Baseline(hn.CONSTANT, log_scale=-2.0),
    hn.LINEAR: hn.Baseline(hn.LINEAR, log_scale=-2.0),
    hn.INVERSE: hn.Baseline(hn.INVERSE, log_scale=-1.0),
}


# Per-node reference sampler: every refreshed target rebuilds its whole
# piecewise cumulative hazard from the history and inverts it on its own.


def reference_bisect(fn, lo, hi, target):
    """Bisect [lo, hi] for the crossing of the increasing fn with target
    until no float lies strictly inside the bracket."""
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid


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


def per_event_cascade(net, model, source, window, uniforms):
    """One cascade, one loop iteration per infection, on the sampler's own
    hazard states: the reference for the lockstep set sampler."""
    N = net.num_nodes
    state = _running_hazard(model, _draw_targets(uniforms), window)
    hist_nodes = np.empty(N, dtype=np.int64)
    hist_times = np.empty(N, dtype=np.float64)
    count = 0
    susceptible = np.ones(N, dtype=bool)
    tentative = np.full(N, math.inf)
    node, t = source, 0.0
    while True:
        hist_nodes[count], hist_times[count] = node, t
        count += 1
        susceptible[node] = False
        tentative[node] = math.inf
        row = net.params[node]
        changed = (susceptible & (row != 0.0)).nonzero()[0]
        if changed.size:
            state.add_parent(changed, row[changed], np.full(changed.size, t))
        refresh = susceptible.nonzero()[0] if count == 1 else changed
        if refresh.size:
            tentative[refresh] = state.times(refresh)
        node = int(tentative.argmin())
        t = float(tentative[node])
        if not (t <= window):
            break
        if t <= hist_times[count - 1]:
            t = float(np.nextafter(hist_times[count - 1], math.inf))
            if t > window:
                break
    return hist_nodes[:count], hist_times[:count]


def spawned_draws(num_nodes, num_cascades, rng_seed):
    """The (source, uniforms) pairs simulate_set draws for each cascade."""
    draws = []
    for child in np.random.SeedSequence(rng_seed).spawn(num_cascades):
        rng = np.random.default_rng(child)
        draws.append((int(rng.integers(num_nodes)), rng.random(num_nodes)))
    return draws


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
        total = hn.infection_cdf(net, shaping, history, 2, window)
        cdf = lambda t: np.array(
            [hn.infection_cdf(net, shaping, history, 2, float(x)) / total for x in np.atleast_1d(t)]
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
        total = hn.infection_cdf(net, base, history, 2, window)
        cdf = lambda t: np.array(
            [
                hn.infection_cdf(net, base, history, 2, float(x)) / total
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
        # the replay solves by Newton's method over the parents so far, the
        # reference bisects to the exact root over the whole history; they
        # agree to rounding (9e-16 on these draws), and multi-parent power
        # times keep the 4e-10 bound of the 1e-10 bisection Newton replaced
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


class TestLockstep:
    """The lockstep set sampler against one per-event loop per cascade, fed
    the same spawned sources and uniforms: equal bit for bit."""

    @staticmethod
    def _assert_matches_oracle(net, model, num_cascades, window, rng_seed):
        cs = hn.simulate_set(net, model, num_cascades, window, rng_seed=rng_seed)
        draws = spawned_draws(net.num_nodes, num_cascades, rng_seed)
        assert len(cs) == num_cascades
        for cascade, (source, uniforms) in zip(cs, draws):
            nodes, times = per_event_cascade(net, model, source, window, uniforms)
            assert np.array_equal(cascade.nodes, nodes)
            assert np.array_equal(cascade.times, times)

    @pytest.mark.parametrize(
        "num_cascades",
        [0, 1, _BLOCK_CASCADES - 1, _BLOCK_CASCADES, _BLOCK_CASCADES + 1, 3 * _BLOCK_CASCADES + 7],
    )
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_set_matches_per_event_cascades(self, family, num_cascades):
        model = FAMILIES[family]
        net = generated_network(kind_of(model))
        self._assert_matches_oracle(net, model, num_cascades, 4.0, rng_seed=num_cascades + 3)

    @pytest.mark.parametrize("family", [hn.EXPONENTIAL, hn.POWER, hn.CONSTANT])
    def test_sampled_cascades_are_valid_compact_and_frozen(self, family):
        # the sampler builds its cascades without the constructor's checks
        model = FAMILIES[family]
        net = generated_network(kind_of(model))
        cs = hn.simulate_set(net, model, _BLOCK_CASCADES + 5, 4.0, rng_seed=4)
        events = sum(c.size for c in cs)
        for c in cs:
            again = hn.Cascade(c.nodes, c.times)
            assert np.array_equal(again.nodes, c.nodes)
            assert np.array_equal(again.times, c.times)
            for arr, dtype in ((c.nodes, np.int64), (c.times, np.float64)):
                assert arr.dtype == dtype
                assert arr.flags.c_contiguous and not arr.flags.writeable
                assert arr.base is None or arr.base.size <= events

    def test_1024_node_network_matches_per_event_cascades(self):
        spec = hn.KroneckerSpec(
            hn.KRONECKER_SEEDS["core-periphery"], scale=10, target_avg_degree=4.0, rng_seed=123
        )
        net = hn.assign_parameters(
            1024, hn.generate_kronecker(spec), hn.ParamDistribution(hn.ADDITIVE, 0.01, 1.0),
            rng_seed=124,
        )
        self._assert_matches_oracle(net, EXP, 2 * _BLOCK_CASCADES + 2, 4.0, rng_seed=125)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_tie_branch_in_some_rows_only(self, family):
        # nodes 1 and 2 have identical parent rows and no edge between them:
        # on rows that give them the same uniform their times tie exactly, and
        # the second moves to the next float after the first
        model = FAMILIES[family]
        rng = np.random.default_rng(17)
        n = 7
        params = np.zeros((n, n))
        params[:, 1] = rng.uniform(0.3, 0.9, n)
        params[:, 2] = params[:, 1]
        params[3:, 3:] = rng.uniform(0.1, 0.9, (n - 3, n - 3))
        params[0, 3:] = 0.5
        params[[1, 2], 3:] = 0.4
        params[[1, 2, 1, 2], [1, 2, 2, 1]] = 0.0
        np.fill_diagonal(params, 0.0)
        net = hn.Network(params, kind_of(model))
        uniforms = rng.uniform(0.05, 0.6, (2 * _BLOCK_CASCADES + 3, n))
        uniforms[::2, 2] = uniforms[::2, 1]
        sources = np.zeros(len(uniforms), dtype=np.int64)
        tied = []
        for start in range(0, len(uniforms), _BLOCK_CASCADES):
            block = slice(start, start + _BLOCK_CASCADES)
            got = _sample_rows(net, model, sources[block], uniforms[block], 4.0)
            for cascade, u in zip(got, uniforms[block]):
                nodes, times = per_event_cascade(net, model, 0, 4.0, u)
                assert np.array_equal(cascade.nodes, nodes)
                assert np.array_equal(cascade.times, times)
                tied.append(bool(np.any(times[1:] == np.nextafter(times[:-1], math.inf))))
        assert any(tied[::2])
        assert not any(tied[1::2])

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_relabelled_network_gives_relabelled_cascades(self, family):
        # node i becomes perm[i] in the network, the sources and the
        # uniforms; every cascade's nodes map the same way, its times stay
        model = FAMILIES[family]
        rng = np.random.default_rng(61)
        net = random_network(kind_of(model), 24, rng)
        perm = rng.permutation(24)
        params = np.empty_like(net.params)
        params[np.ix_(perm, perm)] = net.params
        relabelled = hn.Network(params, net.kind)
        sources = rng.integers(24, size=100)
        uniforms = rng.random((100, 24))
        moved = np.empty_like(uniforms)
        moved[:, perm] = uniforms
        got = _sample_rows(relabelled, model, perm[sources], moved, 4.0)
        want = _sample_rows(net, model, sources, uniforms, 4.0)
        assert sum(c.size for c in want) > 500
        for cascade, original in zip(got, want):
            assert np.array_equal(cascade.nodes, perm[original.nodes])
            assert np.array_equal(cascade.times, original.times)

    def test_power_kernel_takes_each_entrys_own_parent_time(self):
        # rows of one block whose targets get parents at different times, and
        # whose longest parent lists differ, invert to the times of separate
        # one-row states, though the block pads every row to the longest list
        shaping = FAMILIES[hn.POWER]
        targets = np.array([0.4, 1.3, 2.2, 2.9])
        parents = [  # (entries, rates, time in each row; None skips the row)
            (np.array([0, 1, 2, 3]), np.array([0.8, 0.5, 0.3, 0.7]), (0.0, 0.6, 0.1, 0.0)),
            (np.array([1, 2, 3]), np.array([0.9, 0.7, 0.2]), (0.4, 1.5, None, 0.2)),
            (np.array([2, 3]), np.array([0.6, 0.4]), (0.9, 1.6, None, 0.3)),
            (np.array([3]), np.array([0.5]), (None, 1.9, None, 0.45)),
            (np.array([3]), np.array([0.8]), (None, None, None, 0.5)),
            (np.array([2, 3]), np.array([0.3, 0.6]), (None, None, None, 0.8)),
        ]
        n, rows = targets.size, 4
        block = _PowerKernel(shaping, np.tile(targets, rows), 50.0)
        alone = [_PowerKernel(shaping, targets, 50.0) for _ in range(rows)]
        for idx, alphas, when in parents:
            live = [r for r in range(rows) if when[r] is not None]
            block.add_parent(
                np.concatenate([idx + r * n for r in live]),
                np.tile(alphas, len(live)),
                np.concatenate([np.full(idx.size, when[r]) for r in live]),
            )
            for r in live:
                alone[r].add_parent(idx, alphas, np.full(idx.size, when[r]))
        counts = block.count.reshape(rows, n)
        assert sorted(int(c.max()) for c in counts) == [1, 3, 4, 6]
        single = np.concatenate([state.times(np.arange(n)) for state in alone])
        together = block.times(np.arange(rows * n))
        assert np.array_equal(together, single)
        assert np.array_equal(block.times(np.arange(rows * n)[::-1]), single[::-1])
        assert len({tuple(row) for row in together.reshape(rows, n).tolist()}) == rows
        assert np.all(np.isfinite(together))


@st.composite
def power_entries(draw, shaping, window):
    """(target, [(parent time, rate), ...]) with 2-6 parents, some within 1e-9
    of the one before, and a crossing anywhere, just past a switch-on point
    or just before the window. A crossing within rounding of the window may
    fall on either side of it, so the targets keep 1e-12 of relative margin
    to the window's hazard, and switch-on points 1e-6 before it."""
    latest = window - 0.1
    times = [draw(st.floats(0.0, latest))]
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            times.append(times[-1] + draw(st.floats(0.0, 1e-9)))
        else:
            times.append(draw(st.floats(0.0, latest)))
    times.sort()
    rates = [draw(st.floats(0.05, 1.0)) for _ in times]

    def hazard(t):
        return float(np.array(rates) @ shaping.cumulative(np.array(times), t))

    points = [t + shaping.delta for t in times if t + shaping.delta <= window - 1e-6]
    where = draw(st.sampled_from(["anywhere", "switch-on", "window"]))
    if where == "anywhere" or (where == "switch-on" and not points):
        target = draw(st.floats(0.0, 4.0))
    elif where == "switch-on":
        target = hazard(draw(st.sampled_from(points))) + draw(st.floats(0.0, 1e-9))
    else:
        target = hazard(window) * (1.0 - draw(st.floats(1e-12, 1e-6)))
    return target, list(zip(times, rates))


class TestPowerInversion:
    """The power-kernel state inverts all its multi-parent entries in one
    batch; each entry must match the per-target oracle and its own inversion
    alone, whatever else shares the batch."""

    WINDOW = 5.0

    @staticmethod
    def _entries():
        """(target, [(parent time, rate), ...]) per entry, in arrival order."""
        entries = [
            (0.7, [(4.6, 0.9), (4.8, 0.5)]),  # no parent switches on inside the window
            (40.0, [(0.0, 0.2), (0.3, 0.1)]),  # the hazard stays below the target
            (0.0, [(0.2, 0.8), (0.9, 0.4)]),  # crossing at the first switch-on point
            (0.05, [(0.0, 0.9), (3.0, 0.6)]),  # one live parent in the crossing segment
            (1.1, [(1.0, 0.7), (1.0, 0.3), (2.5, 0.4)]),  # two switch on at one instant
            (0.6, [(0.0, 0.5)]),
            (0.6, []),
        ]
        rng = np.random.default_rng(29)
        for _ in range(60):
            k = int(rng.integers(2, 7))
            times = np.sort(rng.uniform(0.0, 4.0, k)).tolist()
            rates = rng.uniform(0.1, 1.0, k).tolist()
            entries.append((float(rng.exponential(1.5)), list(zip(times, rates))))
        return entries

    def _state(self, entries, shaping=POWER):
        state = _PowerKernel(shaping, np.array([target for target, _ in entries]), self.WINDOW)
        for step in range(max(len(parents) for _, parents in entries)):
            idx = np.array([k for k, (_, p) in enumerate(entries) if len(p) > step])
            state.add_parent(
                idx,
                np.array([entries[k][1][step][1] for k in idx]),
                np.array([entries[k][1][step][0] for k in idx]),
            )
        return state

    def test_mixed_batch_matches_reference(self):
        entries = self._entries()
        got = self._state(entries).times(np.arange(len(entries)))
        for k, (target, parents) in enumerate(entries):
            if len(parents) < 2:
                continue
            times, rates = (np.array(v) for v in zip(*parents))
            want = reference_invert_additive(POWER, times, rates, target, self.WINDOW)
            if math.isinf(want):
                assert got[k] == math.inf, k
            else:
                assert abs(got[k] - want) <= 2e-10 * max(1.0, abs(want)), k
        assert got[0] == got[1] == math.inf
        assert got[2] == 0.7
        assert got[3] == pytest.approx(0.5 * math.exp(0.05 / 0.9), rel=1e-15)
        assert 1.5 < got[4] < 3.0
        assert got[5] == 0.5 * math.exp(0.6 / 0.5)
        assert got[6] == math.inf
        assert np.isfinite(got).sum() > 40

    def test_each_entry_inverts_as_it_would_alone(self):
        entries = self._entries()
        together = self._state(entries).times(np.arange(len(entries)))
        alone = [self._state([entry]).times(np.zeros(1, dtype=np.int64))[0] for entry in entries]
        assert np.array_equal(together, alone)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), delta=st.floats(-4.0, 0.0).map(lambda e: 10.0**e))
    @example(data=None, delta=0.1)
    def test_batched_newton_finds_the_exact_root_of_each_entry(self, data, delta):
        shaping = hn.ShapingFunction(hn.POWER, delta=delta)
        if data is None:
            # both parents switch on at one instant that lies a rounding step
            # past their age delta, with a target so small that the crossing
            # sits on that instant, where the kernel of each reads zero
            entries = [(1e-20, [(0.8093601412916109, 0.5)] * 2)]
        else:
            entries = data.draw(
                st.lists(power_entries(shaping, self.WINDOW), min_size=1, max_size=6)
            )
        together = self._state(entries, shaping).times(np.arange(len(entries)))
        for k, (target, parents) in enumerate(entries):
            times, rates = (np.array(v) for v in zip(*parents))
            want = reference_invert_additive(shaping, times, rates, target, self.WINDOW)
            if math.isinf(want):
                assert together[k] == math.inf, k
            else:
                assert abs(together[k] - want) <= 1e-12 * max(1.0, abs(want)), k
            alone = self._state([(target, parents)], shaping).times(np.zeros(1, dtype=np.int64))
            assert np.array_equal(together[k : k + 1], alone), k


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

    def test_set_rejects_model_kind_mismatch_before_sampling(self):
        net = hn.Network(np.zeros((3, 3)), hn.ADDITIVE)
        with pytest.raises(ValueError, match="multiplicative"):
            hn.simulate_set(net, CONST, 0, 1.0)
        mnet = hn.Network(np.zeros((3, 3)), hn.MULTIPLICATIVE)
        with pytest.raises(ValueError, match="additive"):
            hn.simulate_set(mnet, EXP, 0, 1.0)

    @pytest.mark.parametrize(
        "entry,window",
        [pytest.param("simulate_set", w, id=str(w)) for w in BAD_WINDOWS]
        + [
            pytest.param(entry, w, id=f"{entry}-{w}")
            for entry in ("simulate_cascade", "infection_time_from_uniform")
            for w in BAD_WINDOWS
        ],
    )
    def test_set_rejects_bad_window(self, entry, window):
        net = hn.Network(np.full((3, 3), 0.5) - 0.5 * np.eye(3), hn.ADDITIVE)
        history = hn.Cascade.from_events([(0, 0.0), (1, 0.5)])
        calls = {
            "simulate_set": lambda: hn.simulate_set(net, POWER, 2, window),
            "simulate_cascade": lambda: hn.simulate_cascade(net, POWER, 0, window),
            "infection_time_from_uniform": lambda: hn.infection_time_from_uniform(
                net, POWER, history, 2, 0.9, window
            ),
        }
        with pytest.raises(ValueError, match="window must be a positive finite length"):
            calls[entry]()

    @pytest.mark.parametrize(
        "bad,message",
        [
            (1.7, r"source 1\.7 of cascade 2 is not an integer"),
            (np.float64(1.0), r"source 1\.0 of cascade 2 is not an integer"),
            ("1", "source 1 of cascade 2 is not an integer"),
            (3, "source 3 of cascade 2 outside universe of 3 nodes"),
            (-1, "source -1 of cascade 2 outside universe of 3 nodes"),
        ],
    )
    def test_set_rejects_bad_source(self, bad, message):
        net = hn.Network(np.full((3, 3), 0.5) - 0.5 * np.eye(3), hn.ADDITIVE)
        with pytest.raises(ValueError, match=message):
            hn.simulate_set(net, EXP, 4, 1.0, sources=[0, np.int64(2), bad, 1])

    @pytest.mark.parametrize(
        "bad,message",
        [
            (-1, "-1 outside universe of 3 nodes"),
            (3, "3 outside universe of 3 nodes"),
            (2.7, r"2\.7 is not an integer node id"),
            (np.float64(1.0), r"1\.0 is not an integer node id"),
        ],
    )
    @pytest.mark.parametrize("entry", ["simulate_cascade", "infection_time_from_uniform"])
    def test_rejects_bad_node_id(self, entry, bad, message):
        net = hn.Network(np.full((3, 3), 0.5) - 0.5 * np.eye(3), hn.ADDITIVE)
        history = hn.Cascade.from_events([(0, 0.0)])
        calls = {
            "simulate_cascade": ("source", lambda: hn.simulate_cascade(net, EXP, bad, 1.0)),
            "infection_time_from_uniform": ("node", lambda: hn.infection_time_from_uniform(
                net, POWER, history, bad, 0.9, 1.0
            )),
        }
        role, call = calls[entry]
        with pytest.raises(ValueError, match=f"{role} {message}"):
            call()

    @pytest.mark.parametrize("parent", [3, 7])
    def test_rejects_history_node_outside_universe(self, parent):
        net = hn.Network(np.full((3, 3), 0.5) - 0.5 * np.eye(3), hn.ADDITIVE)
        history = hn.Cascade.from_events([(0, 0.0), (parent, 0.5)])
        with pytest.raises(ValueError, match=f"history node {parent} outside universe of 3"):
            hn.infection_time_from_uniform(net, POWER, history, 2, 0.9, 1.0)

    def test_cascade_rejects_fractional_source(self):
        net = hn.Network(np.zeros((3, 3)), hn.ADDITIVE)
        with pytest.raises(ValueError, match="source 1.7 is not an integer"):
            hn.simulate_cascade(net, EXP, 1.7, 1.0)

    def test_integer_sources_of_any_type_are_kept(self):
        net = hn.Network(np.zeros((3, 3)), hn.ADDITIVE)
        cs = hn.simulate_set(net, EXP, 3, 1.0, sources=np.array([2, 0, 1], dtype=np.int32))
        assert [c.source for c in cs] == [2, 0, 1]

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
