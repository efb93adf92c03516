"""The three workloads: what one set-up and one measured round do, and how
their outputs are checked.

Every round runs the same operations on the same inputs, which derive from
the workload seed alone. The ground truth of each workload is fixed, so on
the CLI workloads a seed changes the sampled cascades and the split, not the
problem size. ``small-variants`` fixes its cascades and split as well and
lets the seed pick the differenced entries: its fits take from 90 to 1400
iterations depending on the sample, which would swamp every timing in it.
"""

from __future__ import annotations

import contextlib
import io
import os
import time

import numpy as np

import checks
from checks import Check

THRESHOLD = 1e-4  # the CLI's default --threshold and --edge-threshold


class Ops:
    """Runs the operations of one round and counts them.

    An operation is one CLI command or library call. It fails when it raises,
    exits nonzero, or later fails a check attached to its label.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.errors: dict[str, str] = {}
        self.seconds = {"simulate": 0.0, "infer": 0.0}

    def call(self, label: str, fn, *args, stage: str | None = None, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # an operation's failure is counted, not fatal
            self.errors[label] = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            if stage is not None:
                self.seconds[stage] += time.perf_counter() - start

    def cli(self, label: str, main, argv: list[str], stage: str | None = None):
        def command():
            span = self.tracer.span(f"cli.{argv[0]}") if self.tracer else contextlib.nullcontext()
            with contextlib.redirect_stdout(io.StringIO()) as out, span:
                code = main.main(args=argv, standalone_mode=False)
            if code not in (None, 0):
                raise RuntimeError(f"exit code {code}")
            return out.getvalue()

        return self.call(label, command, stage=stage)


def run_checks(items) -> tuple[list[tuple[str, Check]], bool]:
    """Evaluate (operation, name, thunk) items; a thunk that raises fails its
    check. Also returns whether none raised."""
    out, complete = [], True
    for op, name, thunk in items:
        try:
            out.append((op, thunk()))
        except Exception as exc:  # a missing or unreadable output fails the check
            complete = False
            out.append((op, Check(name, False, f"{type(exc).__name__}: {exc}")))
    return out, complete


def _perturb_entry(params: np.ndarray, mask: np.ndarray, cascades, amount: float) -> np.ndarray:
    """Add ``amount`` to one masked entry in the row of the node infected most
    often in ``cascades``, so that the likelihood of those cascades moves."""
    counts = np.bincount(np.concatenate([nodes for nodes, _ in cascades]),
                         minlength=params.shape[0])
    j = int(np.argmax(np.where(mask.any(axis=1), counts, -1)))
    i = int(np.nonzero(mask[j])[0][0])
    out = params.copy()
    out[j, i] += amount
    return out


# --- CLI workloads ---------------------------------------------------------

class CliWorkload:
    """generate (set-up) -> simulate -> split -> infer -> evaluate -> predict,
    through ``hazardnet.cli`` in this process."""

    name: str
    kind: str
    cascades: int
    model_flags: list[str]
    generate_flags: list[str]
    infer_flags: list[str]
    floor: tuple[str, float]
    perturb: float
    ground_truth_seed = 1
    nodes = 128  # --scale 7
    window = 4.0
    test_fraction = 0.2

    def __init__(self, hn, cli, workdir: str, seed: int) -> None:
        self.hn, self.cli, self.workdir, self.seed = hn, cli, workdir, seed
        self.truth = os.path.join(workdir, "true.txt")
        self.traced_module = cli
        self.last = None

    def setup(self, tracer=None) -> None:
        argv = ["generate", "--family", "core-periphery", "--scale", "7", "--avg-degree", "4",
                "--model", self.kind, "--seed", str(self.ground_truth_seed),
                "--out", self.truth] + self.generate_flags
        ops = Ops(tracer)
        ops.cli("generate", self.cli.main, argv)
        if ops.errors:
            raise RuntimeError(f"set-up failed: {ops.errors}")

    def paths(self, index: int) -> dict[str, str]:
        d = os.path.join(self.workdir, f"round-{index}")
        os.makedirs(d, exist_ok=True)
        names = ("cascades", "train", "test", "fit", "metrics")
        out = {k: os.path.join(d, f"{k}.{'csv' if k == 'metrics' else 'txt'}") for k in names}
        out["pred"] = os.path.join(d, "pred")
        out["sizes"], out["durations"] = out["pred"] + ".sizes.csv", out["pred"] + ".durations.csv"
        return out

    def run(self, ops: Ops, index: int) -> dict:
        p = self.paths(index)
        main = self.cli.main
        split_seed = str(self.seed + 1)
        ops.cli("simulate", main, ["simulate", "--network", self.truth, "--cascades",
                                   str(self.cascades), "--window", str(self.window),
                                   "--seed", str(self.seed), "--out", p["cascades"]]
                + self.model_flags, stage="simulate")
        ops.cli("split", main, ["predict", "--cascades", p["cascades"], "--test-fraction",
                                str(self.test_fraction), "--seed", split_seed,
                                "--train-out", p["train"], "--test-out", p["test"],
                                "--split-only"])
        ops.cli("infer", main, ["infer", "--model", self.kind, "--cascades", p["train"],
                                "--out", p["fit"]] + self.infer_flags, stage="infer")
        ops.cli("evaluate", main, ["evaluate", "--true-network", self.truth,
                                   "--inferred-network", p["fit"], "--out", p["metrics"]])
        ops.cli("predict", main, ["predict", "--network", p["fit"], "--cascades", p["cascades"],
                                  "--test-fraction", str(self.test_fraction),
                                  "--seed", split_seed, "--out-prefix", p["pred"]]
                + self.model_flags, stage="simulate")
        return p

    # checks ---------------------------------------------------------------

    def _library_cascades(self, cascades):
        hn = self.hn
        return hn.CascadeSet(self.nodes, self.window,
                             tuple(hn.Cascade(a, b) for a, b in cascades))

    def _rewritten(self, path: str) -> list[str]:
        copy = path + ".rewritten"
        self.hn.write_cascades(copy, self.hn.read_cascades(path))
        return checks.read_cascade_file(copy)[2]

    def _inputs(self, p: dict) -> dict:
        """Lazy readers of a round's outputs, parsed by the benchmark's own code."""
        d = {"p": p}

        def get(key: str):
            if key not in d:
                if key in ("truth", "fit"):
                    d[key] = checks.read_network_file(self.truth if key == "truth" else p[key])[1]
                elif key in ("cascades", "train", "test"):
                    d[key] = checks.read_cascade_file(p[key])
                elif key == "mask":
                    d[key] = checks.support_mask(get("train")[3], self.nodes)
                elif key == "truth_obj":
                    mask = get("mask")
                    d[key] = self.objective(np.where(mask, get("truth"), 0.0), mask,
                                            get("train")[3])
                elif key == "library":
                    d[key] = self.library_loglik(get("fit"), get("mask"),
                                                 self._library_cascades(get("train")[3]))
                else:
                    d[key] = checks.read_csv(p[key])
            return d[key]

        d["get"] = get
        return d

    def _items(self, d: dict, corrupt: bool):
        """(operation, check name, thunk) for every check of one round.

        With ``corrupt`` the thunks see the self-test's inputs instead: times
        scaled by 1.5, one fit entry perturbed, one size row dropped.
        """
        get, p = d["get"], d["p"]
        window, n = self.window, self.nodes

        def cascades(key):
            parsed = get(key)[3]
            return [(a, 1.5 * b) for a, b in parsed] if corrupt else parsed

        def fit():
            params = get("fit")
            if corrupt:
                params = _perturb_entry(params, get("mask"), get("train")[3], self.perturb)
            return params

        def sizes():
            head, rows = get("sizes")
            if corrupt:
                biggest = max(range(len(rows)), key=lambda k: int(rows[k][1]))
                rows = rows[:biggest] + rows[biggest + 1:]
            return head, rows

        def lines(key):
            if corrupt:
                return [",".join(f"{x}:{t:.17g}" for x, t in c) for c in
                        (zip(a, b) for a, b in cascades(key))]
            return get(key)[2]

        items = []
        for key, op in (("cascades", "simulate"), ("train", "split"), ("test", "split")):
            items.append((op, f"format:{key}",
                          lambda key=key: checks.cascade_format(cascades(key), n, window, key)))
            items.append((op, f"roundtrip:{key}",
                          lambda key=key: checks.round_trip(lines(key), self._rewritten(p[key]),
                                                            key)))
        items += [
            ("split", "split:partition", lambda: checks.partition(
                lines("train"), lines("test"), get("cascades")[2], self.test_fraction)),
            ("simulate", "first-infection", lambda: self.law(cascades("cascades"),
                                                             get("truth"))),
            ("infer", "dominance", lambda: checks.fit_dominates(
                self.objective(fit(), get("mask"), get("train")[3]), get("truth_obj"), "train")),
            ("infer", "loglik", lambda: checks.loglik_matches(
                -self.objective(fit(), get("mask"), get("train")[3], penalized=False),
                get("library"), "train")),
            ("evaluate", "recovery", lambda: checks.recovery(
                get("truth"), fit(), self.kind == "multiplicative", THRESHOLD,
                get("metrics")[1], *self.floor, "evaluate")),
            ("predict", "predict", lambda: checks.predict_csvs(
                sizes(), get("durations"), get("test")[3], n, window, "predict")),
        ]
        return items

    def check(self, p: dict) -> list[tuple[str, Check]]:
        d = self._inputs(p)
        out, complete = run_checks(self._items(d, corrupt=False))
        if complete:
            self.last = d
        return out

    def self_test(self) -> list[Check]:
        """Run every check on corrupted copies of the last complete round."""
        return [check for _, check in run_checks(self._items(self.last, corrupt=True))[0]]


class AdditiveCli(CliWorkload):
    name = "additive-cli"
    kind = "additive"
    cascades = 1000
    model_flags = ["--shaping", "exp"]
    generate_flags: list[str] = []
    infer_flags = ["--shaping", "exp"]
    floor = ("edge_accuracy", 0.7)  # acceptance criterion 6
    perturb = 1000.0

    def objective(self, params, mask, train, penalized=True) -> float:
        return -checks.additive_exp_loglik(params, train, self.window)

    def library_loglik(self, params, mask, train_set) -> float:
        hn = self.hn
        return hn.additive_set_loglik(hn.Network(params, hn.ADDITIVE),
                                      hn.ShapingFunction(hn.EXPONENTIAL), train_set)

    def law(self, cascades, truth) -> Check:
        rates = checks.source_rates(truth, self.kind)
        return checks.first_infection_law([(cascades, self.window, rates, "exponential", 1.0)],
                                          "cascades")


class MultiplicativeCli(CliWorkload):
    name = "multiplicative-cli"
    kind = "multiplicative"
    cascades = 400
    log_scale = -2.0
    penalty = 10.0
    model_flags = ["--baseline", "const", "--a0", str(log_scale)]
    generate_flags = ["--p-neg", "0.3"]
    infer_flags = model_flags + ["--lambda", str(penalty)]
    floor = ("sign_agreement", 0.9)  # acceptance criterion 9
    perturb = 10.0

    def objective(self, params, mask, train, penalized=True) -> float:
        nll = -checks.multiplicative_const_loglik(params, mask, self.log_scale, train, self.window)
        if penalized:
            nll += self.penalty * float(np.abs(np.where(mask, params, 0.0)).sum())
        return nll

    def library_loglik(self, params, mask, train_set) -> float:
        hn = self.hn
        return hn.multiplicative_set_loglik(
            hn.Network(params, hn.MULTIPLICATIVE), hn.Baseline(hn.CONSTANT, log_scale=self.log_scale),
            hn.SupportMask(mask), train_set)

    def law(self, cascades, truth) -> Check:
        rates = checks.source_rates(truth, self.kind, self.log_scale)
        return checks.first_infection_law([(cascades, self.window, rates, "constant", 1.0)],
                                          "cascades")


# --- library workload ------------------------------------------------------

# (family, kind, window, log-scale of the multiplicative baseline)
FAMILIES = (
    ("exponential", "additive", 4.0, 0.0),
    ("power", "additive", 4.0, 0.0),
    ("rayleigh", "additive", 2.0, 0.0),
    ("constant", "multiplicative", 4.0, -3.5),
    ("linear", "multiplicative", 4.0, -4.0),
    ("inverse", "multiplicative", 4.0, -4.0),
)


class SmallVariants:
    """The library API on a 32-node hierarchical network, once per model
    family: simulate, split, fit, held-out log-likelihood, gradient and KKT
    residual at the fit, and a finite-difference gradient check at a probe
    point (the truth, shifted off the additive boundary)."""

    name = "small-variants"
    scale = 5
    avg_degree = 3.0
    cascades = 150
    data_seed = 100
    test_fraction = 0.2
    power_delay = 0.1
    penalty = 1.0
    fd_entries = 4
    fd_step = 1e-6

    def __init__(self, hn, cli, workdir: str, seed: int) -> None:
        self.hn, self.seed = hn, seed
        self.traced_module = hn
        self.last = None

    def model(self, family: str, log_scale: float):
        hn = self.hn
        if family in hn.SHAPING_VARIANTS:
            return hn.ShapingFunction(family, delta=self.power_delay)
        return hn.Baseline(family, log_scale=log_scale)

    def setup(self, tracer=None) -> None:
        hn = self.hn
        spec = hn.KroneckerSpec(hn.KRONECKER_SEEDS["hierarchical"], self.scale, self.avg_degree,
                                rng_seed=3)
        edges = hn.generate_kronecker(spec)
        self.truths = {}
        for k, (family, kind, _, _) in enumerate(FAMILIES):
            if kind == "additive":
                dist = hn.ParamDistribution(hn.ADDITIVE, 0.2, 1.0)
            else:
                dist = hn.ParamDistribution(hn.MULTIPLICATIVE, 0.1, 1.0, negative_prob=0.3)
            self.truths[family] = hn.assign_parameters(spec.num_nodes, edges, dist, rng_seed=10 + k)

    def run(self, ops: Ops, index: int) -> dict:
        hn = self.hn
        out = {}
        for k, (family, kind, window, log_scale) in enumerate(FAMILIES):
            truth, model = self.truths[family], self.model(family, log_scale)
            tag = f"[{family}]"
            r = {"truth": truth, "model": model, "window": window, "kind": kind,
                 "family": family}
            r["cs"] = cs = ops.call("simulate" + tag, hn.simulate_set, truth, model, self.cascades,
                                    window, rng_seed=self.data_seed + k, stage="simulate")
            split = ops.call("split" + tag, hn.split_cascades, cs, self.test_fraction,
                             rng_seed=self.data_seed + k)
            r["train"], r["test"] = split if split else (None, None)
            n = truth.num_nodes
            rng = np.random.default_rng([self.seed, k])
            if kind == "additive":
                fit = ops.call("infer" + tag, hn.infer_additive, r["train"],
                               hn.AdditiveConfig(shaping=model), stage="infer")
                r["fit"] = net = fit.network if fit else None
                r["heldout"] = ops.call("heldout" + tag, hn.additive_set_loglik, net, model,
                                        r["test"])
                r["grad_fit"] = ops.call("gradient" + tag, hn.additive_gradient, net, model,
                                         r["train"])
                r["kkt"] = ops.call("kkt" + tag, hn.additive_kkt_violation, net, model,
                                    r["train"])
                probe = truth.params + 0.05 * (1.0 - np.eye(n))
                loglik = lambda params: hn.additive_set_loglik(  # noqa: E731
                    hn.Network(params, hn.ADDITIVE), model, r["train"])
                gradient = lambda params: hn.additive_gradient(  # noqa: E731
                    hn.Network(params, hn.ADDITIVE), model, r["train"])
                candidates = np.argwhere(~np.eye(n, dtype=bool))
            else:
                r["mask"] = mask = ops.call("support" + tag, hn.build_support, r["train"])
                cfg = hn.MultiplicativeConfig(baseline=model, l1_penalty=self.penalty)
                fit = ops.call("infer" + tag, hn.infer_multiplicative, r["train"], cfg,
                               stage="infer")
                r["fit"] = net = fit.network if fit else None
                r["heldout"] = ops.call("heldout" + tag, hn.multiplicative_set_loglik, net, model,
                                        mask, r["test"])
                r["grad_fit"] = ops.call("gradient" + tag, hn.multiplicative_gradient, net, model,
                                         mask, r["train"])
                r["kkt"] = ops.call("kkt" + tag, hn.multiplicative_kkt_violation, net, model,
                                    mask, r["train"], self.penalty)
                probe = truth.params.copy()
                loglik = lambda params: hn.multiplicative_set_loglik(  # noqa: E731
                    hn.Network(params, hn.MULTIPLICATIVE), model, mask, r["train"])
                gradient = lambda params: hn.multiplicative_gradient(  # noqa: E731
                    hn.Network(params, hn.MULTIPLICATIVE), model, mask, r["train"])
                candidates = np.argwhere(mask.matrix if mask else ~np.eye(n, dtype=bool))
            r["probe"] = probe
            r["grad_probe"] = ops.call("probe-gradient" + tag, gradient, probe)
            picks = candidates[rng.choice(len(candidates), self.fd_entries, replace=False)]
            r["entries"] = [tuple(e) for e in picks]
            r["fd"] = [ops.call(f"fd{m}" + tag, self._central_difference, loglik, probe, e)
                       for m, e in enumerate(r["entries"])]
            out[family] = r
        return out

    def _central_difference(self, loglik, params, entry) -> float:
        up, down = params.copy(), params.copy()
        up[entry] += self.fd_step
        down[entry] -= self.fd_step
        return (loglik(up) - loglik(down)) / (2.0 * self.fd_step)

    # checks ---------------------------------------------------------------

    @staticmethod
    def _arrays(cs):
        return [(np.asarray(c.nodes), np.asarray(c.times)) for c in cs]

    def _law(self, result: dict, scale: float = 1.0) -> Check:
        """The pooled first-infection law of all six families; ``scale``
        multiplies every time (the self-test's corruption)."""
        groups = []
        for family, r in result.items():
            model = r["model"]
            if r["kind"] == "additive":
                rates, delay = checks.source_rates(r["truth"].params, "additive"), model.delta
            else:
                rates = checks.source_rates(r["truth"].params, "multiplicative", model.log_scale)
                delay = model.epsilon
            cascades = [(a, scale * b) for a, b in self._arrays(r["cs"])]
            groups.append((cascades, r["window"], rates, family, delay))
        return checks.first_infection_law(groups, "six families" + (" scaled" if scale != 1 else ""))

    def _own_mask(self, r: dict) -> np.ndarray:
        if "own_mask" not in r:
            r["own_mask"] = checks.support_mask(self._arrays(r["train"]), r["truth"].num_nodes)
        return r["own_mask"]

    def _objective(self, r, params, cascades, penalized=True) -> float:
        """Own NLL for the exponential and constant families."""
        if r["kind"] == "additive":
            return -checks.additive_exp_loglik(params, cascades, r["window"])
        mask = self._own_mask(r)
        nll = -checks.multiplicative_const_loglik(params, mask, r["model"].log_scale, cascades,
                                                  r["window"])
        if penalized:
            nll += self.penalty * float(np.abs(np.where(mask, params, 0.0)).sum())
        return nll

    def _items(self, result: dict, corrupt: bool):
        """(operation, check name, thunk) for every check of one round; with
        ``corrupt`` the thunks see the self-test's inputs instead."""
        hn = self.hn
        items = [("simulate[all]", "first-infection",
                  lambda: self._law(result, 1.5 if corrupt else 1.0))]
        for family, r in result.items():
            tag = f"[{family}]"

            def gradient(r=r):
                analytic = [float(r["grad_probe"][e]) for e in r["entries"]]
                if corrupt:
                    analytic[0] += 1e-3 * max(1.0, abs(analytic[0]))
                return checks.gradient_matches(r["fd"], analytic, r["family"])

            items.append(("probe-gradient" + tag, "gradient", gradient))
            if r["kind"] == "additive":
                def factorization(r=r):
                    test = self._arrays(r["test"])
                    other = r["probe"]
                    if corrupt:
                        mask = checks.support_mask(test, r["truth"].num_nodes)
                        other = _perturb_entry(other, mask, test, 0.5)
                    pairs = [(hn.additive_cascade_loglik(hn.Network(r["probe"], hn.ADDITIVE),
                                                         r["model"], c, r["window"]),
                              hn.independent_cascade_loglik(hn.Network(other, hn.ADDITIVE),
                                                            r["model"], c, r["window"]))
                             for c in r["test"]]
                    return checks.factorization(pairs, r["family"])

                items.append(("heldout" + tag, "factorization", factorization))
            if family in ("exponential", "constant"):
                def fit_on(r, cascades):
                    amount = 1000.0 if r["kind"] == "additive" else 10.0
                    params = r["fit"].params
                    return _perturb_entry(params, self._own_mask(r), cascades, amount) \
                        if corrupt else params

                def loglik(r=r):
                    test = self._arrays(r["test"])
                    own = -self._objective(r, fit_on(r, test), test, penalized=False)
                    return checks.loglik_matches(own, r["heldout"], r["family"])

                def dominance(r=r):
                    train, mask = self._arrays(r["train"]), self._own_mask(r)
                    truth_obj = self._objective(r, np.where(mask, r["truth"].params, 0.0), train)
                    return checks.fit_dominates(self._objective(r, fit_on(r, train), train),
                                                truth_obj, r["family"])

                items += [("heldout" + tag, "loglik", loglik), ("infer" + tag, "dominance",
                                                                   dominance)]
        return items

    def check(self, result: dict) -> list[tuple[str, Check]]:
        out, complete = run_checks(self._items(result, corrupt=False))
        if complete:
            self.last = result
        # The pooled law checks all six simulate calls at once, so its result
        # is each one's: every check then names an operation of the round.
        simulated = [f"simulate[{family}]" for family in result]
        return [(label, check) for op, check in out
                for label in (simulated if op == "simulate[all]" else [op])]

    def self_test(self) -> list[Check]:
        """Run every check on corrupted copies of the last complete round."""
        return [check for _, check in run_checks(self._items(self.last, corrupt=True))[0]]


WORKLOADS = {w.name: w for w in (AdditiveCli, MultiplicativeCli, SmallVariants)}
