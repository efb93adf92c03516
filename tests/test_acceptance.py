"""Acceptance suite: one test per release criterion.

Each test prints one `ACCEPTANCE <n> ...: PASS` line (run pytest with -s to
see them live). Criteria with stated runtime budgets assert them. The
dominance records gathered by criteria 2, 6 and 7 feed criterion 8, so this
module keeps its file order.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

import hazardnet as hn
from conftest import additive_instance, multiplicative_instance, random_multiplicative_network

EXP = hn.ShapingFunction(hn.EXPONENTIAL)

SHAPINGS = {
    hn.EXPONENTIAL: hn.ShapingFunction(hn.EXPONENTIAL),
    hn.POWER: hn.ShapingFunction(hn.POWER, delta=0.05),
    hn.RAYLEIGH: hn.ShapingFunction(hn.RAYLEIGH),
}
BASELINES = {
    hn.CONSTANT: hn.Baseline(hn.CONSTANT, log_scale=-0.5),
    hn.LINEAR: hn.Baseline(hn.LINEAR, log_scale=-0.5),
    hn.INVERSE: hn.Baseline(hn.INVERSE, log_scale=-0.5, epsilon=1e-3),
}

# (label, nll at the fit, nll at the generating parameters), filled by
# criteria 2, 6 and 7 and asserted wholesale by criterion 8
DOMINANCE_RECORDS: list[tuple[str, float, float]] = []


def report(number: int, name: str, detail: str) -> None:
    print(f"\nACCEPTANCE {number} ({name}): PASS ({detail})")


def relative_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1.0)


class TestCriterion01GradientCorrectness:
    """Analytic gradients vs central finite differences, h = 1e-6."""

    def fd_additive(self, net, shaping, cs, h=1e-6):
        worst = 0.0
        grad = hn.additive_gradient(net, shaping, cs)
        n = cs.num_nodes
        for j in range(n):
            for i in range(n):
                if i == j:
                    continue
                up, dn = np.array(net.params), np.array(net.params)
                up[j, i] += h
                dn[j, i] -= h
                fd = (
                    hn.additive_set_loglik(hn.Network(up, hn.ADDITIVE), shaping, cs)
                    - hn.additive_set_loglik(hn.Network(dn, hn.ADDITIVE), shaping, cs)
                ) / (2 * h)
                worst = max(worst, abs(fd - grad[j, i]) / max(abs(fd), abs(grad[j, i]), 1.0))
        return worst

    def fd_multiplicative(self, net, base, mask, cs, h=1e-6):
        worst = 0.0
        grad = hn.multiplicative_gradient(net, base, mask, cs)
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
                worst = max(worst, abs(fd - grad[j, i]) / max(abs(fd), abs(grad[j, i]), 1.0))
        return worst

    def test_criterion_1(self):
        started = time.monotonic()
        worst = 0.0
        rng = np.random.default_rng(1000)
        for variant in hn.SHAPING_VARIANTS:
            for k in range(20):
                _, shaping, cs = additive_instance(
                    1000 + 31 * k, n_nodes=8, n_cascades=30, variant=variant, delta=0.05
                )
                params = rng.uniform(0.1, 1.0, size=(8, 8))
                np.fill_diagonal(params, 0.0)
                worst = max(worst, self.fd_additive(hn.Network(params, hn.ADDITIVE), shaping, cs))
        for variant in hn.BASELINE_VARIANTS:
            for k in range(20):
                _, base, mask, cs = multiplicative_instance(
                    2000 + 17 * k, n_nodes=8, n_cascades=30, variant=variant, log_scale=-0.5
                )
                net = random_multiplicative_network(rng, 8)
                worst = max(worst, self.fd_multiplicative(net, base, mask, cs))
        elapsed = time.monotonic() - started
        assert worst < 1e-5
        assert elapsed < 60.0
        report(1, "gradient correctness", f"max rel err {worst:.2e}, {elapsed:.0f}s")


class TestCriterion02ConvexityGlobalOptimum:
    def test_criterion_2(self):
        started = time.monotonic()
        rng = np.random.default_rng(77)

        true_add, shaping, cs_add = additive_instance(300, n_nodes=16, n_cascades=120)
        cfg = hn.AdditiveConfig(shaping=shaping, tol=1e-12, max_iters=50000)
        add_objectives = []
        for _ in range(5):
            init = rng.uniform(0.01, 0.5, size=(16, 16))
            np.fill_diagonal(init, 0.0)
            result = hn.infer_additive(cs_add, cfg, init=init)
            add_objectives.append(-hn.additive_set_loglik(result.network, shaping, cs_add))
        spread_add = (max(add_objectives) - min(add_objectives)) / max(abs(add_objectives[0]), 1.0)
        assert spread_add < 1e-6
        DOMINANCE_RECORDS.append(
            (
                "criterion-2 additive 16-node",
                min(add_objectives),
                -hn.additive_set_loglik(true_add, shaping, cs_add),
            )
        )

        true_mult, base, mask, cs_mult = multiplicative_instance(301, n_nodes=16, n_cascades=120)
        penalty = 0.5
        mcfg = hn.MultiplicativeConfig(
            baseline=base, l1_penalty=penalty, tol=1e-13, max_iters=50000
        )
        mult_objectives = []
        for _ in range(5):
            init = rng.uniform(-0.5, 0.5, size=(16, 16))
            np.fill_diagonal(init, 0.0)
            result = hn.infer_multiplicative(cs_mult, mcfg, init=init)
            nll = -hn.multiplicative_set_loglik(result.network, base, mask, cs_mult)
            mult_objectives.append(nll + penalty * float(np.abs(result.network.params).sum()))
        spread_mult = (max(mult_objectives) - min(mult_objectives)) / max(
            abs(mult_objectives[0]), 1.0
        )
        assert spread_mult < 1e-6

        zero_cfg = hn.MultiplicativeConfig(baseline=base, l1_penalty=0.0, tol=1e-13, max_iters=50000)
        zero_fit = hn.infer_multiplicative(cs_mult, zero_cfg)
        DOMINANCE_RECORDS.append(
            (
                "criterion-2 multiplicative 16-node (unregularized)",
                -hn.multiplicative_set_loglik(zero_fit.network, base, mask, cs_mult),
                -hn.multiplicative_set_loglik(true_mult, base, mask, cs_mult),
            )
        )
        elapsed = time.monotonic() - started
        assert elapsed < 120.0
        report(
            2,
            "convexity/global optimum",
            f"restart spreads {spread_add:.1e} / {spread_mult:.1e}, {elapsed:.0f}s",
        )


class TestCriterion03FactorizationIdentity:
    def test_criterion_3(self):
        checked = 0
        worst = 0.0
        for k, variant in zip(range(10), list(hn.SHAPING_VARIANTS) * 4):
            _, shaping, cs = additive_instance(
                400 + k, n_nodes=7, n_cascades=10, variant=variant, delta=0.05
            )
            for cascade in cs:
                net = _strictly_positive_net(7, 500 + k)
                a = hn.additive_cascade_loglik(net, shaping, cascade, cs.window)
                b = hn.independent_cascade_loglik(net, shaping, cascade, cs.window)
                assert math.isfinite(a)
                assert abs(a - b) <= 1e-10
                worst = max(worst, abs(a - b))
                checked += 1
        assert checked >= 100
        report(3, "factorized-likelihood identity", f"{checked} cascades, max gap {worst:.1e}")


def _strictly_positive_net(n: int, seed: int) -> hn.Network:
    params = np.random.default_rng(seed).uniform(0.05, 1.0, size=(n, n))
    np.fill_diagonal(params, 0.0)
    return hn.Network(params, hn.ADDITIVE)


class TestCriterion04OracleConsistency:
    def test_criterion_4(self):
        rng = np.random.default_rng(600)
        history = hn.Cascade.from_events([(0, 0.0), (2, 0.4), (3, 1.1)])
        worst = 0.0
        for variant, shaping in SHAPINGS.items():
            for _ in range(5):
                net = _strictly_positive_net(5, int(rng.integers(1 << 30)))
                t = float(rng.uniform(0.3, 3.5))
                integral, _ = quad(
                    lambda s: hn.additive_hazard(net, shaping, history, 1, s),
                    0.0,
                    t,
                    points=[p for tp in history.times for p in (tp, tp + shaping.delta) if 0 < p < t],
                    limit=300,
                )
                closed = hn.additive_cdf(net, shaping, history, 1, t)
                oracle = 1 - math.exp(-integral)
                assert relative_gap(closed, oracle) < 1e-6
                worst = max(worst, relative_gap(closed, oracle))
        for variant, base in BASELINES.items():
            for _ in range(5):
                net = random_multiplicative_network(rng, 5)
                t = float(rng.uniform(0.3, 3.0))
                integral, _ = quad(
                    lambda s: hn.multiplicative_hazard(net, base, history, 1, s),
                    0.0,
                    t,
                    points=[p for p in (base.epsilon, 0.4, 1.1) if 0 < p < t],
                    limit=300,
                )
                closed = hn.multiplicative_cdf(net, base, history, 1, t)
                oracle = 1 - math.exp(-integral)
                assert relative_gap(closed, oracle) < 1e-6
                worst = max(worst, relative_gap(closed, oracle))
        report(4, "closed forms vs quadrature", f"max rel gap {worst:.1e}")


class TestCriterion05SamplerExactness:
    """10^4 single-node draws vs the closed-form law, KS test at the 1% level.

    Heavy-tailed variants are compared against the conditional law given
    infection inside the window, which is what truncated sampling produces.
    """

    N_SAMPLES = 10_000

    def _run_ks(self, net, model, history, node, window, seed, cdf_fn):
        u = np.random.default_rng(seed).random(self.N_SAMPLES)
        times = np.array(
            [hn.infection_time_from_uniform(net, model, history, node, ui, window) for ui in u]
        )
        infected = times[np.isfinite(times)]
        assert infected.size > 0.5 * self.N_SAMPLES
        total = cdf_fn(window)
        result = kstest(infected, lambda t: np.array([cdf_fn(float(x)) / total for x in np.atleast_1d(t)]))
        return result.pvalue, infected.size

    def test_criterion_5(self):
        history = hn.Cascade.from_events([(0, 0.0), (1, 0.7)])
        details = []
        windows = {hn.EXPONENTIAL: 12.0, hn.POWER: 60.0, hn.RAYLEIGH: 8.0}
        for variant, shaping in SHAPINGS.items():
            params = np.zeros((3, 3))
            params[0, 2], params[1, 2] = 0.9, 0.6
            net = hn.Network(params, hn.ADDITIVE)
            cdf = lambda t: hn.additive_cdf(net, shaping, history, 2, t)
            pvalue, n = self._run_ks(net, shaping, history, 2, windows[variant], 501, cdf)
            assert pvalue > 0.01, f"additive {variant}: p={pvalue}"
            details.append(f"add-{variant} p={pvalue:.2f}")
        windows = {hn.CONSTANT: 8.0, hn.LINEAR: 6.0, hn.INVERSE: 50.0}
        for variant, base in BASELINES.items():
            params = np.zeros((3, 3))
            params[0, 2], params[1, 2] = 0.5, -0.8
            net = hn.Network(params, hn.MULTIPLICATIVE)
            cdf = lambda t: hn.multiplicative_cdf(net, base, history, 2, t)
            pvalue, n = self._run_ks(net, base, history, 2, windows[variant], 55, cdf)
            assert pvalue > 0.01, f"multiplicative {variant}: p={pvalue}"
            details.append(f"mult-{variant} p={pvalue:.2f}")
        report(5, "sampler exactness", "; ".join(details))


class TestCriterion06CascadeCountSweep:
    """128-node core-periphery sweep over {50, 500, 5000} cascades.

    The additive fit must improve monotonically and reach 0.7 accuracy; the
    multiplicative fit (unregularized, support-restricted MLE) may trail it,
    which is the expected needs-more-data behavior. The multiplicative edge
    call uses a 0.05 magnitude threshold since without the L1 stage its
    estimates carry small dense noise.
    """

    COUNTS = (50, 500, 5000)

    def test_criterion_6(self):
        started = time.monotonic()
        spec = hn.KroneckerSpec(hn.KRONECKER_SEEDS["core-periphery"], 7, 4.0, rng_seed=60)
        edges = hn.generate_kronecker(spec)

        true_add = hn.assign_parameters(
            128, edges, hn.ParamDistribution(hn.ADDITIVE, 0.01, 1.0), rng_seed=61
        )
        full_add = hn.simulate_set(true_add, EXP, 5000, 4.0, rng_seed=62)
        add_acc, add_mse = [], []
        for count in self.COUNTS:
            cs = hn.CascadeSet(128, 4.0, full_add.cascades[:count])
            fit = hn.infer_additive(cs, hn.AdditiveConfig(shaping=EXP, max_iters=5000))
            add_acc.append(hn.edge_accuracy(true_add, fit.network, 1e-4))
            add_mse.append(hn.parameter_mse(true_add, fit.network))
            DOMINANCE_RECORDS.append(
                (
                    f"criterion-6 additive {count} cascades",
                    -hn.additive_set_loglik(fit.network, EXP, cs),
                    -hn.additive_set_loglik(true_add, EXP, cs),
                )
            )
        for earlier, later in zip(add_acc, add_acc[1:]):
            assert later >= earlier - 0.02
        assert add_acc[-1] >= 0.7
        for earlier, later in zip(add_mse, add_mse[1:]):
            assert later <= 1.10 * earlier

        base = hn.Baseline(hn.CONSTANT, log_scale=-2.0)
        true_mult = hn.assign_parameters(
            128,
            edges,
            hn.ParamDistribution(hn.MULTIPLICATIVE, 0.1, 1.0, negative_prob=0.3),
            rng_seed=63,
        )
        full_mult = hn.simulate_set(true_mult, base, 5000, 4.0, rng_seed=64)
        mult_acc = []
        for count, add_accuracy in zip(self.COUNTS, add_acc):
            cs = hn.CascadeSet(128, 4.0, full_mult.cascades[:count])
            fit = hn.infer_multiplicative(
                cs,
                hn.MultiplicativeConfig(
                    baseline=base, l1_penalty=0.0, max_iters=5000, accelerate=True
                ),
            )
            accuracy = hn.edge_accuracy(true_mult, fit.network, 0.05)
            mult_acc.append(accuracy)
            assert accuracy <= add_accuracy + 0.05
            mask = hn.build_support(cs)
            DOMINANCE_RECORDS.append(
                (
                    f"criterion-6 multiplicative {count} cascades",
                    -hn.multiplicative_set_loglik(fit.network, base, mask, cs),
                    -hn.multiplicative_set_loglik(true_mult, base, mask, cs),
                )
            )
        elapsed = time.monotonic() - started
        assert elapsed < 1200.0
        report(
            6,
            "cascade-count trend",
            f"additive acc {[round(a, 3) for a in add_acc]}, "
            f"mse {[f'{m:.1e}' for m in add_mse]}, "
            f"multiplicative acc {[round(a, 3) for a in mult_acc]}, {elapsed:.0f}s",
        )


class TestCriterion07WindowSweep:
    """128-node random Kronecker: accuracy vs observation window length."""

    WINDOWS = (1.0, 2.0, 4.0, 8.0)

    def test_criterion_7(self):
        spec = hn.KroneckerSpec(hn.KRONECKER_SEEDS["random"], 7, 4.0, rng_seed=70)
        edges = hn.generate_kronecker(spec)
        true = hn.assign_parameters(
            128, edges, hn.ParamDistribution(hn.ADDITIVE, 0.01, 0.4), rng_seed=71
        )
        accuracies = []
        for window in self.WINDOWS:
            cs = hn.simulate_set(true, EXP, 1000, window, rng_seed=72)
            fit = hn.infer_additive(cs, hn.AdditiveConfig(shaping=EXP, max_iters=5000))
            accuracies.append(hn.edge_accuracy(true, fit.network, 1e-4))
            DOMINANCE_RECORDS.append(
                (
                    f"criterion-7 additive window {window}",
                    -hn.additive_set_loglik(fit.network, EXP, cs),
                    -hn.additive_set_loglik(true, EXP, cs),
                )
            )
        for earlier, later in zip(accuracies, accuracies[1:]):
            assert later >= earlier - 0.02
        assert abs(accuracies[-1] - accuracies[-2]) < 0.05  # the long-window plateau
        report(7, "window trend", f"accuracies {[round(a, 3) for a in accuracies]}")


class TestCriterion08MleDominance:
    def test_criterion_8(self):
        assert DOMINANCE_RECORDS, "criteria 2, 6 and 7 must run first in this module"
        for label, nll_fit, nll_truth in DOMINANCE_RECORDS:
            assert nll_fit <= nll_truth + 1e-9, label
        report(
            8,
            "MLE dominance",
            f"{len(DOMINANCE_RECORDS)} training sets, "
            f"max margin {max(f - t for _, f, t in DOMINANCE_RECORDS):.2e}",
        )


class TestCriterion09SignRecovery:
    def test_criterion_9(self):
        spec = hn.KroneckerSpec(hn.KRONECKER_SEEDS["core-periphery"], 5, 4.0, rng_seed=90)
        edges = hn.generate_kronecker(spec)
        true = hn.assign_parameters(
            32,
            edges,
            hn.ParamDistribution(hn.MULTIPLICATIVE, 0.5, 1.0, negative_prob=0.3),
            rng_seed=91,
        )
        base = hn.Baseline(hn.CONSTANT, log_scale=-2.0)
        cs = hn.simulate_set(true, base, 5000, 4.0, rng_seed=92)
        fit = hn.infer_multiplicative(
            cs,
            hn.MultiplicativeConfig(baseline=base, l1_penalty=15.0, max_iters=5000, accelerate=True),
        )
        strong = np.abs(fit.network.params) > 0.1
        assert strong.any()
        agrees = (np.sign(fit.network.params[strong]) == np.sign(true.params[strong])) & (
            true.params[strong] != 0
        )
        rate = float(agrees.mean())
        assert rate >= 0.90
        report(9, "sign recovery", f"{int(strong.sum())} strong edges, {rate:.1%} correct sign")


class TestCriterion10PredictionSelfConsistency:
    def test_criterion_10(self):
        spec = hn.KroneckerSpec(hn.KRONECKER_SEEDS["core-periphery"], 6, 4.0, rng_seed=100)
        edges = hn.generate_kronecker(spec)
        true = hn.assign_parameters(
            64, edges, hn.ParamDistribution(hn.ADDITIVE, 0.01, 1.0), rng_seed=101
        )
        full = hn.simulate_set(true, EXP, 2000, 4.0, rng_seed=102)
        train, test = hn.split_cascades(full, 0.2, rng_seed=103)
        fit = hn.infer_additive(train, hn.AdditiveConfig(shaping=EXP, max_iters=5000))
        _, (matched, _) = hn.predict_distributions(fit.network, EXP, test, rng_seed=104)
        halved = hn.Network(0.5 * fit.network.params, hn.ADDITIVE)
        _, (mismatched, _) = hn.predict_distributions(halved, EXP, test, rng_seed=104)
        assert matched.ks_size < mismatched.ks_size
        report(
            10,
            "prediction self-consistency",
            f"size KS {matched.ks_size:.3f} (trained) vs {mismatched.ks_size:.3f} (halved)",
        )
