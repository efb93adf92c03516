"""Additive model: likelihood values, gradient, and the constrained solver."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

import hazardnet as hn
import hazardnet.additive as additive
from conftest import additive_instance, random_additive_network
from hazardnet.additive import _column, _newton_step, _solve_column, _window_exposure
from hazardnet.optim import PackedCascades

EXP = hn.ShapingFunction(hn.EXPONENTIAL)


def naive_loglik(params, shaping, cascade, num_nodes, window):
    """Straight-from-the-formula reimplementation with plain Python loops."""

    def gamma(tj, t):
        if t <= tj:
            return 0.0
        if shaping.variant == hn.EXPONENTIAL:
            return 1.0
        if shaping.variant == hn.RAYLEIGH:
            return t - tj
        return 1.0 / (t - tj) if t >= tj + shaping.delta else 0.0

    def big_gamma(tj, t):
        if t <= tj:
            return 0.0
        if shaping.variant == hn.EXPONENTIAL:
            return t - tj
        if shaping.variant == hn.RAYLEIGH:
            return (t - tj) ** 2 / 2.0
        return math.log((t - tj) / shaping.delta) if t >= tj + shaping.delta else 0.0

    events = cascade.events()
    infected = {n: t for n, t in events}
    total = 0.0
    for idx, (i, ti) in enumerate(events):
        if idx > 0:
            rate = sum(params[j][i] * gamma(tj, ti) for j, tj in events if tj < ti)
            if rate <= 0.0:
                return -math.inf
            total += math.log(rate)
        for k, tk in events:
            if tk < ti:
                total -= params[k][i] * big_gamma(tk, ti)
    for n in range(num_nodes):
        if n in infected:
            continue
        for m, tm in events:
            total -= params[m][n] * big_gamma(tm, window)
    return total


def naive_gradient(net, shaping, cs):
    """Per-event reimplementation of the set gradient: each infection adds
    gamma/IR - G for its parents, each uninfected node -G(T) for all."""
    A = net.params
    N = net.num_nodes
    grad = np.zeros((N, N))
    all_nodes = np.arange(N)
    for cascade in cs:
        nodes, times = cascade.nodes, cascade.times
        for r in range(1, nodes.size):
            parents, pt, ti = nodes[:r], times[:r], times[r]
            gamma = np.asarray(shaping.hazard(pt, ti))
            rate = float(A[parents, nodes[r]] @ gamma)
            grad[parents, nodes[r]] += gamma / rate - np.asarray(shaping.cumulative(pt, ti))
        uninfected = np.setdiff1d(all_nodes, nodes, assume_unique=True)
        if uninfected.size:
            survival = np.asarray(shaping.cumulative(times, cs.window))
            grad[np.ix_(nodes, uninfected)] -= survival[:, None]
    return grad


def naive_column(cs, shaping, target):
    """Per-cascade build of one column's exposure and kernel matrix: one row
    per infection of ``target`` after the source, one column per node."""
    exposure = np.zeros(cs.num_nodes)
    rows = []
    for cascade in cs:
        hits = np.nonzero(cascade.nodes == target)[0]
        if hits.size == 0:
            exposure[cascade.nodes] += shaping.cumulative(cascade.times, cs.window)
        elif hits[0] > 0:
            r = int(hits[0])
            parents, pt, ti = cascade.nodes[:r], cascade.times[:r], cascade.times[r]
            exposure[parents] += shaping.cumulative(pt, ti)
            row = np.zeros(cs.num_nodes)
            row[parents] = shaping.hazard(pt, ti)
            rows.append(row)
    return exposure, np.array(rows).reshape(len(rows), cs.num_nodes)


def packed_columns(cs, shaping):
    """Every target's column, built the way :func:`hn.infer_additive` builds
    them: one packed set and one window-exposure product for all."""
    packed = PackedCascades(cs)
    window = _window_exposure(packed, shaping)
    return [_column(packed, shaping, i, window[:, i]) for i in range(cs.num_nodes)]


def column_nll(column, x):
    """The column objective exposure @ x - sum(log(rates)); inf where some
    explained infection has zero hazard."""
    rates = column.kernels @ x
    if np.any(rates <= 0.0):
        return math.inf
    return float(column.exposure @ x - np.log(rates).sum())


def column_gradient(column, x):
    """Gradient of :func:`column_nll` where it is finite."""
    return column.exposure - (1.0 / (column.kernels @ x)) @ column.kernels


def projected_gradient_column(target, column, cfg, x0):
    """The former column solver: projected gradient with Armijo backtracking,
    stopped when the objective's relative change drops below ``cfg.tol``."""
    x = x0.copy()
    x[target] = 0.0
    if column.kernels.shape[0] == 0:
        return np.zeros_like(x)
    f = column_nll(column, x)
    grad = column_gradient(column, x)
    step = 1.0
    for _ in range(cfg.max_iters):
        step *= 2.0
        while True:
            cand = np.maximum(x - step * grad, 0.0)
            f_cand = column_nll(column, cand)
            if f_cand <= f + 1e-4 * float(grad @ (cand - x)):
                break
            step *= 0.5
            if step < 1e-20:
                return x
        previous = f
        x, f = cand, f_cand
        if abs(previous - f) / max(abs(previous), 1.0) < cfg.tol:
            break
        grad = column_gradient(column, x)
    return x


def column_kkt(column, x):
    """KKT residual of the nonnegative column problem at ``x``."""
    grad = column_gradient(column, x)
    return float(np.where(x > 0.0, np.abs(grad), np.maximum(-grad, 0.0)).max())


def two_node_net(alpha):
    params = np.zeros((2, 2))
    params[0, 1] = alpha
    return hn.Network(params, hn.ADDITIVE)


class TestCascadeLoglik:
    def test_two_node_hand_computation(self):
        net = two_node_net(1.0)
        c = hn.Cascade.from_events([(0, 0.0), (1, 1.0)])
        assert hn.additive_cascade_loglik(net, EXP, c, 2.0) == pytest.approx(-1.0)

    def test_survival_term_only(self):
        net = two_node_net(1.0)
        c = hn.Cascade.from_events([(0, 0.0)])
        assert hn.additive_cascade_loglik(net, EXP, c, 2.0) == pytest.approx(-2.0)

    def test_unexplainable_infection_is_minus_infinity(self):
        net = two_node_net(0.0)
        c = hn.Cascade.from_events([(0, 0.0), (1, 1.0)])
        assert hn.additive_cascade_loglik(net, EXP, c, 2.0) == -math.inf

    def test_infection_beyond_window_rejected(self):
        net = two_node_net(1.0)
        c = hn.Cascade.from_events([(0, 0.0), (1, 1.5)])
        with pytest.raises(ValueError, match="window"):
            hn.additive_cascade_loglik(net, EXP, c, 1.0)

    def test_power_kernel_infection_inside_delay_is_minus_infinity(self):
        # positive rates everywhere, but each infection follows every earlier
        # one by less than delta, so no kernel has switched on yet
        params = np.full((3, 3), 0.5)
        np.fill_diagonal(params, 0.0)
        net = hn.Network(params, hn.ADDITIVE)
        power = hn.ShapingFunction(hn.POWER, delta=1.0)
        too_soon = hn.Cascade.from_events([(0, 0.0), (1, 0.6), (2, 0.9)])
        assert hn.additive_cascade_loglik(net, power, too_soon, 3.0) == -math.inf
        at_delay = hn.Cascade.from_events([(0, 0.0), (1, 1.0), (2, 1.9)])
        assert math.isfinite(hn.additive_cascade_loglik(net, power, at_delay, 3.0))

    def test_one_event_cascade_is_survival_term_only(self):
        # only node 2 infected: sum over the others of -alpha_{2,n} G(0, T)
        params = np.zeros((4, 4))
        params[2, 0], params[2, 1], params[2, 3] = 0.4, 0.7, 1.1
        net = hn.Network(params, hn.ADDITIVE)
        rayleigh = hn.ShapingFunction(hn.RAYLEIGH)
        c = hn.Cascade.from_events([(2, 0.0)])
        window = 2.5
        want = -(0.4 + 0.7 + 1.1) * window**2 / 2.0
        assert hn.additive_cascade_loglik(net, rayleigh, c, window) == pytest.approx(
            want, rel=1e-12
        )

    def test_matches_naive_reimplementation(self):
        for seed in range(5):
            for variant in hn.SHAPING_VARIANTS:
                net, shaping, cs = additive_instance(seed, variant=variant)
                got = hn.additive_set_loglik(net, shaping, cs)
                want = sum(
                    naive_loglik(net.params.tolist(), shaping, c, cs.num_nodes, cs.window)
                    for c in cs
                )
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_invariant_to_cascade_order(self):
        net, shaping, cs = additive_instance(3)
        reordered = hn.CascadeSet(cs.num_nodes, cs.window, tuple(reversed(cs.cascades)))
        assert hn.additive_set_loglik(net, shaping, cs) == pytest.approx(
            hn.additive_set_loglik(net, shaping, reordered)
        )

    def test_invariant_to_node_relabeling(self):
        net, shaping, cs = additive_instance(7)
        n = cs.num_nodes
        perm = np.random.default_rng(1).permutation(n)
        relabeled_net = hn.Network(net.params[np.ix_(perm, perm)], hn.ADDITIVE)
        inverse = np.argsort(perm)
        relabeled = hn.CascadeSet(
            n,
            cs.window,
            tuple(hn.Cascade(inverse[c.nodes], c.times) for c in cs),
        )
        assert hn.additive_set_loglik(relabeled_net, shaping, relabeled) == pytest.approx(
            hn.additive_set_loglik(net, shaping, cs), rel=1e-12
        )


class TestSetLoglik:
    def test_empty_set_is_zero(self):
        net = two_node_net(1.0)
        cs = hn.CascadeSet(2, 2.0, ())
        assert hn.additive_set_loglik(net, EXP, cs) == 0.0

    def test_duplicated_cascade_doubles(self):
        net = two_node_net(1.0)
        c = hn.Cascade.from_events([(0, 0.0), (1, 1.0)])
        one = hn.CascadeSet(2, 2.0, (c,))
        two = hn.CascadeSet(2, 2.0, (c, c))
        assert hn.additive_set_loglik(net, EXP, two) == pytest.approx(
            2 * hn.additive_set_loglik(net, EXP, one)
        )


class TestConvexity:
    def test_objective_convex_along_segments(self):
        rng = np.random.default_rng(12)
        _, shaping, cs = additive_instance(12)
        n = cs.num_nodes
        for _ in range(6):
            a1 = random_additive_network(rng, n)
            a2 = random_additive_network(rng, n)
            lam = float(rng.uniform(0.1, 0.9))
            mid = hn.Network(lam * a1.params + (1 - lam) * a2.params, hn.ADDITIVE)
            nll = lambda net: -hn.additive_set_loglik(net, shaping, cs)
            assert nll(mid) <= lam * nll(a1) + (1 - lam) * nll(a2) + 1e-9


class TestGradient:
    @pytest.mark.parametrize("variant", hn.SHAPING_VARIANTS)
    def test_matches_central_finite_differences(self, variant):
        _, shaping, cs = additive_instance(21, variant=variant)
        # evaluate at a strictly positive point so +/- h stays feasible
        params = np.random.default_rng(5).uniform(0.1, 1.0, size=(cs.num_nodes,) * 2)
        np.fill_diagonal(params, 0.0)
        net = hn.Network(params, hn.ADDITIVE)
        grad = hn.additive_gradient(net, shaping, cs)
        h = 1e-6
        n = cs.num_nodes
        for j in range(n):
            for i in range(n):
                if i == j:
                    assert grad[j, i] == 0.0
                    continue
                up, dn = np.array(net.params), np.array(net.params)
                up[j, i] += h
                dn[j, i] -= h
                fd = (
                    hn.additive_set_loglik(hn.Network(up, hn.ADDITIVE), shaping, cs)
                    - hn.additive_set_loglik(hn.Network(dn, hn.ADDITIVE), shaping, cs)
                ) / (2 * h)
                rel = abs(fd - grad[j, i]) / max(abs(fd), abs(grad[j, i]), 1.0)
                assert rel < 1e-5

    def test_survival_only_entries_are_exact(self):
        # node 2 never infected: d loglik / d alpha_{0,2} = -G(t_0, T) summed
        params = np.zeros((3, 3))
        params[0, 1] = 0.7
        net = hn.Network(params, hn.ADDITIVE)
        c = hn.Cascade.from_events([(0, 0.0), (1, 0.5)])
        cs = hn.CascadeSet(3, 2.0, (c, c))
        grad = hn.additive_gradient(net, EXP, cs)
        assert grad[0, 2] == pytest.approx(-2 * EXP.cumulative(0.0, 2.0))
        assert grad[1, 2] == pytest.approx(-2 * EXP.cumulative(0.5, 2.0))

    def test_matches_naive_reimplementation(self):
        for seed in range(5):
            for variant in hn.SHAPING_VARIANTS:
                net, shaping, cs = additive_instance(seed, variant=variant)
                got = hn.additive_gradient(net, shaping, cs)
                want = naive_gradient(net, shaping, cs)
                scale = np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-300)
                assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_packed_columns_equal_per_cascade_build(self):
        # The kernel matrix holds the same values in the same places. The
        # exposure sums the same terms in another order: the uninfected
        # cascades' part comes from one matrix product.
        # Node 0 is only ever a source and node 3 is never infected: both
        # have an empty kernel matrix, node 3 an exposure from the window only.
        sources_only = hn.CascadeSet(4, 3.0, (
            hn.Cascade.from_events([(0, 0.0), (1, 0.5), (2, 1.2)]),
            hn.Cascade.from_events([(0, 0.0), (2, 0.3)]),
            hn.Cascade.from_events([(0, 0.0)]),
        ))
        for variant in hn.SHAPING_VARIANTS:
            shaping = hn.ShapingFunction(variant, delta=0.05)
            instances = [additive_instance(seed, variant=variant)[2] for seed in range(5)]
            for cs in instances + [sources_only]:
                for i, column in enumerate(packed_columns(cs, shaping)):
                    exposure, kernels = naive_column(cs, shaping, i)
                    assert np.array_equal(column.kernels, kernels)
                    scale = np.maximum(np.abs(column.exposure), np.abs(exposure))
                    assert np.all(np.abs(column.exposure - exposure) <= 1e-14 * scale)
            columns = packed_columns(sources_only, shaping)
            assert columns[0].kernels.shape == columns[3].kernels.shape == (0, 4)
            assert not columns[0].exposure.any()
            assert np.all(columns[3].exposure[:3] > 0.0) and columns[3].exposure[3] == 0.0

    def test_rejects_zero_hazard_infection(self):
        net = two_node_net(0.0)
        c = hn.Cascade.from_events([(0, 0.0), (1, 1.0)])
        cs = hn.CascadeSet(2, 2.0, (c,))
        with pytest.raises(ValueError, match="zero hazard"):
            hn.additive_gradient(net, EXP, cs)


class TestColumnSolver:
    """The projected-Newton column solver against two independent oracles:
    the former projected-gradient loop and scipy's L-BFGS-B."""

    def columns(self, seed, variant):
        _, shaping, cs = additive_instance(seed, variant=variant)
        for i, column in enumerate(packed_columns(cs, shaping)):
            x0 = np.full(cs.num_nodes, 0.1)
            x0[i] = 0.0
            yield i, column, hn.AdditiveConfig(shaping=shaping), x0

    def test_objective_at_most_projected_gradient(self):
        for seed in range(5):
            for variant in hn.SHAPING_VARIANTS:
                for i, column, cfg, x0 in self.columns(seed, variant):
                    x, trace, converged, _ = _solve_column(column, cfg, x0)
                    assert converged
                    newton = column_nll(column, x)
                    assert newton == trace[-1] or math.isclose(newton, trace[-1], rel_tol=1e-12)
                    oracle = column_nll(column, projected_gradient_column(i, column, cfg, x0))
                    assert newton <= oracle + 1e-9 * max(abs(oracle), 1.0)

    def test_objective_at_most_lbfgsb(self):
        for seed in range(5):
            for variant in hn.SHAPING_VARIANTS:
                for i, column, cfg, x0 in self.columns(seed, variant):
                    x, _, _, _ = _solve_column(column, cfg, x0)
                    bounds = [(0.0, 0.0) if j == i else (0.0, None) for j in range(x0.size)]

                    def fun(y, column=column):
                        value = column_nll(column, y)
                        if not math.isfinite(value):
                            return 1e300, np.zeros_like(y)
                        return value, column_gradient(column, y)

                    ref = minimize(fun, x0, jac=True, method="L-BFGS-B", bounds=bounds,
                                   options={"maxiter": 20000, "ftol": 1e-15, "gtol": 1e-12})
                    oracle = column_nll(column, ref.x)
                    assert column_nll(column, x) <= oracle + 1e-9 * max(abs(oracle), 1.0)

    def test_converged_fit_meets_the_documented_kkt_bound(self):
        _, shaping, cs = additive_instance(41, n_nodes=32, n_cascades=200)
        cfg = hn.AdditiveConfig(shaping=shaping)
        result = hn.infer_additive(cs, cfg)
        assert result.converged
        limits = []
        for i, column in enumerate(packed_columns(cs, shaping)):
            limits.append(cfg.tol * max(1.0, column.exposure.max()))
            assert column_kkt(column, result.network.params[:, i]) <= limits[-1]
        assert hn.additive_kkt_violation(result.network, shaping, cs) <= max(limits)


class TestNewtonStep:
    """One LU solve of the ridged Hessian block, and the diagonal step where
    that solve gives no usable descent direction."""

    def inputs(self):
        rng = np.random.default_rng(7)
        W = rng.uniform(0.1, 1.0, size=(9, 4))
        return W, rng.normal(size=4), (W * W).sum(axis=0)

    def test_solves_the_ridged_newton_system(self):
        W, grad, curvature = self.inputs()
        step = _newton_step(W, grad, curvature)
        H = W.T @ W + 1e-12 * curvature.max() * np.eye(4)
        assert np.allclose(H @ step, -grad, rtol=0.0, atol=1e-12)
        assert grad @ step < 0.0

    @pytest.mark.parametrize("outcome", ["singular", "ascent", "non-finite"])
    def test_falls_back_to_the_diagonal_step(self, monkeypatch, outcome):
        def solve(H, b):
            if outcome == "singular":
                raise np.linalg.LinAlgError("Singular matrix")
            return -b if outcome == "ascent" else np.full_like(b, np.nan)

        monkeypatch.setattr(additive.np.linalg, "solve", solve)
        W, grad, curvature = self.inputs()
        assert np.array_equal(_newton_step(W, grad, curvature), -grad / curvature)


class TestFactorizedRoute:
    def test_identity_on_random_instances(self):
        for seed in range(6):
            net, shaping, cs = additive_instance(seed + 50, n_nodes=7, n_cascades=12)
            for c in cs:
                a = hn.additive_cascade_loglik(net, shaping, c, cs.window)
                b = hn.independent_cascade_loglik(net, shaping, c, cs.window)
                assert abs(a - b) <= 1e-10

    def test_single_parent_closed_form(self):
        alpha = 0.6
        net = two_node_net(alpha)
        c = hn.Cascade.from_events([(0, 0.0), (1, 1.2)])
        expected = math.log(alpha * EXP.hazard(0.0, 1.2)) - alpha * EXP.cumulative(0.0, 1.2)
        a = hn.additive_cascade_loglik(net, EXP, c, 2.0)
        b = hn.independent_cascade_loglik(net, EXP, c, 2.0)
        assert a == pytest.approx(expected)
        assert b == pytest.approx(expected)


class TestInference:
    def test_recovers_two_node_rate(self):
        true = two_node_net(0.8)
        cs = hn.simulate_set(true, EXP, 5000, 2.0, rng_seed=11)
        result = hn.infer_additive(cs, hn.AdditiveConfig(shaping=EXP))
        assert result.converged
        assert 0.7 <= result.network.params[0, 1] <= 0.9

    def test_deterministic(self):
        _, shaping, cs = additive_instance(33, n_nodes=6, n_cascades=40)
        cfg = hn.AdditiveConfig(shaping=shaping)
        a = hn.infer_additive(cs, cfg)
        b = hn.infer_additive(cs, cfg)
        np.testing.assert_array_equal(a.network.params, b.network.params)
        np.testing.assert_array_equal(a.objective_trace, b.objective_trace)

    def test_random_restarts_reach_same_objective(self):
        _, shaping, cs = additive_instance(35, n_nodes=6, n_cascades=60)
        cfg = hn.AdditiveConfig(shaping=shaping, tol=1e-12, max_iters=20000)
        rng = np.random.default_rng(0)
        objectives = []
        for _ in range(3):
            init = rng.uniform(0.01, 0.5, size=(6, 6))
            np.fill_diagonal(init, 0.0)
            result = hn.infer_additive(cs, cfg, init=init)
            objectives.append(-hn.additive_set_loglik(result.network, shaping, cs))
        spread = (max(objectives) - min(objectives)) / max(abs(objectives[0]), 1.0)
        assert spread < 1e-6

    def test_objective_beats_truth(self):
        true, shaping, cs = additive_instance(36, n_nodes=6, n_cascades=60)
        result = hn.infer_additive(cs, hn.AdditiveConfig(shaping=shaping))
        nll_hat = -hn.additive_set_loglik(result.network, shaping, cs)
        nll_true = -hn.additive_set_loglik(true, shaping, cs)
        assert nll_hat <= nll_true + 1e-9

    def test_never_cooccurring_pairs_are_exactly_zero(self):
        # nodes {0,1} and {2,3} live in disjoint cascades
        c1 = hn.Cascade.from_events([(0, 0.0), (1, 0.6)])
        c2 = hn.Cascade.from_events([(2, 0.0), (3, 0.9)])
        cs = hn.CascadeSet(4, 2.0, (c1, c2) * 10)
        result = hn.infer_additive(cs, hn.AdditiveConfig(shaping=EXP))
        assert result.network.params[0, 2] == 0.0
        assert result.network.params[2, 1] == 0.0
        assert result.network.params[0, 1] > 0.0
        assert result.network.params[2, 3] > 0.0

    def test_entries_without_evidence_end_at_exactly_zero(self):
        # node 2 is never infected, so nothing informs the rate from it to node 1
        c = hn.Cascade.from_events([(0, 0.0), (1, 0.6)])
        cs = hn.CascadeSet(3, 2.0, (c,) * 10)
        result = hn.infer_additive(cs, hn.AdditiveConfig(shaping=EXP))
        assert result.converged
        assert result.network.params[2, 1] == 0.0
        assert result.network.params[0, 1] == pytest.approx(1.0 / 0.6)

    def test_start_that_explains_no_infection_still_reaches_the_mle(self):
        _, shaping, cs = additive_instance(42, n_nodes=6, n_cascades=40)
        cfg = hn.AdditiveConfig(shaping=shaping)
        zero = hn.infer_additive(cs, cfg, init=np.zeros((6, 6)))
        default = hn.infer_additive(cs, cfg)
        assert zero.converged
        assert hn.additive_set_loglik(zero.network, shaping, cs) == pytest.approx(
            hn.additive_set_loglik(default.network, shaping, cs), rel=1e-9
        )

    def test_node_never_infected_after_another_gets_zero_column(self):
        # node 0 is always the source; nothing can explain an edge into it
        c = hn.Cascade.from_events([(0, 0.0), (1, 0.5)])
        cs = hn.CascadeSet(2, 2.0, (c,) * 5)
        result = hn.infer_additive(cs, hn.AdditiveConfig(shaping=EXP))
        assert np.all(result.network.params[:, 0] == 0.0)

    def test_kkt_conditions_hold_at_the_solution(self):
        _, shaping, cs = additive_instance(37, n_nodes=6, n_cascades=60)
        cfg = hn.AdditiveConfig(shaping=shaping, tol=1e-13, max_iters=50000)
        result = hn.infer_additive(cs, cfg)
        assert hn.additive_kkt_violation(result.network, shaping, cs) < 1e-4

    def test_not_converged_flag_on_iteration_cap(self):
        _, shaping, cs = additive_instance(38, n_nodes=6, n_cascades=60)
        result = hn.infer_additive(cs, hn.AdditiveConfig(shaping=shaping, max_iters=1))
        assert not result.converged

    def test_trace_is_nonincreasing(self):
        _, shaping, cs = additive_instance(39, n_nodes=6, n_cascades=40)
        result = hn.infer_additive(cs, hn.AdditiveConfig(shaping=shaping))
        diffs = np.diff(result.objective_trace)
        assert np.all(diffs <= 1e-9 * np.maximum(np.abs(result.objective_trace[:-1]), 1.0))

    def test_empty_cascade_set_rejected(self):
        with pytest.raises(ValueError, match="cascade"):
            hn.infer_additive(hn.CascadeSet(2, 1.0, ()), hn.AdditiveConfig(shaping=EXP))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_init_rejected(self, bad):
        _, shaping, cs = additive_instance(40, n_nodes=4, n_cascades=10)
        init = np.full((4, 4), 0.2)
        np.fill_diagonal(init, 0.0)
        init[1, 2] = bad
        with pytest.raises(ValueError, match="init must be finite"):
            hn.infer_additive(cs, hn.AdditiveConfig(shaping=shaping), init=init)

    def test_unexplainable_data_rejected(self):
        # both infections are closer than the power kernel's floor allows
        c = hn.Cascade.from_events([(0, 0.0), (1, 0.5)])
        cs = hn.CascadeSet(2, 2.0, (c,))
        cfg = hn.AdditiveConfig(shaping=hn.ShapingFunction(hn.POWER, delta=1.0))
        with pytest.raises(ValueError, match="no parameter"):
            hn.infer_additive(cs, cfg)
