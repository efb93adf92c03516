"""End-to-end command-line pipeline."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from click.testing import CliRunner

import hazardnet as hn
from hazardnet.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, [str(a) for a in args])


class TestGenerate:
    def test_writes_network_of_requested_size(self, runner, tmp_path):
        out = tmp_path / "net.txt"
        res = run(
            runner, "generate", "--family", "core-periphery", "--scale", 7,
            "--avg-degree", 4, "--model", "additive", "--seed", 1, "--out", out,
        )
        assert res.exit_code == 0, res.output
        net = hn.read_network(str(out))
        assert net.num_nodes == 128
        assert net.kind == hn.ADDITIVE

    def test_identical_bytes_on_repeat(self, runner, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["generate", "--family", "random", "--scale", 5, "--model",
                "multiplicative", "--seed", 9]
        assert run(runner, *args, "--out", a).exit_code == 0
        assert run(runner, *args, "--out", b).exit_code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_scale_is_a_usage_error(self, runner, tmp_path):
        res = run(runner, "generate", "--scale", 0, "--model", "additive",
                  "--out", tmp_path / "x.txt")
        assert res.exit_code == 2

    def test_unreachable_degree_is_a_runtime_error(self, runner, tmp_path):
        res = run(runner, "generate", "--scale", 2, "--avg-degree", 50,
                  "--model", "additive", "--out", tmp_path / "x.txt")
        assert res.exit_code == 1
        assert "degree" in res.output


class TestSimulate:
    def _network(self, runner, tmp_path, model="additive"):
        out = tmp_path / "net.txt"
        run(runner, "generate", "--family", "core-periphery", "--scale", 4,
            "--avg-degree", 2, "--model", model, "--seed", 3, "--out", out)
        return out

    def test_produces_cascades(self, runner, tmp_path):
        net = self._network(runner, tmp_path)
        out = tmp_path / "c.txt"
        res = run(runner, "simulate", "--network", net, "--cascades", 50,
                  "--window", 4, "--seed", 2, "--out", out)
        assert res.exit_code == 0, res.output
        cs = hn.read_cascades(str(out))
        assert len(cs) == 50
        assert cs.window == 4.0

    def test_zero_cascades_is_a_valid_file(self, runner, tmp_path):
        net = self._network(runner, tmp_path)
        out = tmp_path / "c0.txt"
        res = run(runner, "simulate", "--network", net, "--cascades", 0, "--out", out)
        assert res.exit_code == 0
        assert len(hn.read_cascades(str(out))) == 0

    def test_missing_network_reports_path(self, runner, tmp_path):
        res = run(runner, "simulate", "--network", tmp_path / "nope.txt",
                  "--cascades", 5, "--out", tmp_path / "c.txt")
        assert res.exit_code == 1
        assert "nope.txt" in res.output

    def test_overflowing_baseline_scale_is_a_runtime_error(self, runner, tmp_path):
        net = self._network(runner, tmp_path, model="multiplicative")
        res = run(runner, "simulate", "--network", net, "--cascades", 5, "--a0", 710,
                  "--out", tmp_path / "c.txt")
        assert res.exit_code == 1
        assert "Error:" in res.output and "log_scale" in res.output


class TestInferEvaluate:
    def _pipeline(self, runner, tmp_path, model, extra=()):
        net = tmp_path / "true.txt"
        casc = tmp_path / "c.txt"
        run(runner, "generate", "--family", "core-periphery", "--scale", 4,
            "--avg-degree", 2, "--model", model, "--seed", 5, "--out", net)
        run(runner, "simulate", "--network", net, "--cascades", 300, "--window", 3,
            "--seed", 6, *extra, "--out", casc)
        return net, casc

    def test_additive_inference_with_trace(self, runner, tmp_path):
        true_net, casc = self._pipeline(runner, tmp_path, "additive")
        out, trace = tmp_path / "hat.txt", tmp_path / "trace.csv"
        res = run(runner, "infer", "--model", "additive", "--shaping", "exp",
                  "--cascades", casc, "--out", out, "--trace", trace)
        assert res.exit_code == 0, res.output
        hat = hn.read_network(str(out))
        assert hat.kind == hn.ADDITIVE
        lines = trace.read_text().splitlines()
        assert lines[1] == "column,status,steps,objective"
        rows = [ln.split(",") for ln in lines[2:]]
        assert [int(r[0]) for r in rows] == list(range(hat.num_nodes))
        assert all(r[1] == "kkt_ok" and int(r[2]) >= 0 for r in rows)
        total = sum(float(r[3]) for r in rows)
        nll = -hn.additive_set_loglik(hat, hn.ShapingFunction(hn.EXPONENTIAL),
                                      hn.read_cascades(str(casc)))
        assert math.isclose(total, nll, rel_tol=1e-12)

    def test_multiplicative_inference_with_lambda(self, runner, tmp_path):
        true_net, casc = self._pipeline(
            runner, tmp_path, "multiplicative", extra=("--baseline", "const", "--a0", -1)
        )
        out = tmp_path / "hat.txt"
        res = run(runner, "infer", "--model", "multiplicative", "--baseline", "const",
                  "--a0", -1, "--lambda", 0.05, "--cascades", casc, "--out", out)
        assert res.exit_code == 0, res.output
        assert hn.read_network(str(out)).kind == hn.MULTIPLICATIVE

    def test_unknown_shaping_is_a_usage_error(self, runner, tmp_path):
        res = run(runner, "infer", "--model", "additive", "--shaping", "weird",
                  "--cascades", tmp_path / "c.txt", "--out", tmp_path / "o.txt")
        assert res.exit_code == 2

    def test_negative_edge_threshold_is_a_usage_error(self, runner, tmp_path):
        res = run(runner, "infer", "--model", "additive", "--edge-threshold", -1,
                  "--cascades", tmp_path / "c.txt", "--out", tmp_path / "o.txt")
        assert res.exit_code == 2

    def test_unconverged_fit_is_reported_without_a_cause(self, runner, tmp_path):
        _, casc = self._pipeline(runner, tmp_path, "additive")
        res = run(runner, "infer", "--model", "additive", "--shaping", "exp",
                  "--max-iters", 1, "--cascades", casc, "--out", tmp_path / "hat.txt")
        assert res.exit_code == 0, res.output
        assert res.output.startswith("NOT converged after 1 iterations;")
        assert "cap" not in res.output

    def test_tol_help_names_what_it_bounds(self, runner):
        res = run(runner, "infer", "--help")
        assert res.exit_code == 0
        text = " ".join(res.output.split())
        assert "KKT residual" in text
        assert "co-infection count" in text
        assert "relative change" not in text

    def test_zero_tol_is_a_usage_error(self, runner, tmp_path):
        res = run(runner, "infer", "--model", "additive", "--tol", 0,
                  "--cascades", tmp_path / "c.txt", "--out", tmp_path / "o.txt")
        assert res.exit_code == 2

    def test_negative_lambda_is_a_usage_error(self, runner, tmp_path):
        res = run(runner, "infer", "--model", "multiplicative", "--lambda", -1,
                  "--cascades", tmp_path / "c.txt", "--out", tmp_path / "o.txt")
        assert res.exit_code == 2

    @pytest.mark.parametrize("bad", ["inf"])
    def test_non_finite_lambda_fails_through_the_config(self, runner, tmp_path, bad):
        _, casc = self._pipeline(
            runner, tmp_path, "multiplicative", extra=("--baseline", "const", "--a0", -1)
        )
        res = run(runner, "infer", "--model", "multiplicative", "--baseline", "const",
                  "--a0", -1, "--lambda", bad, "--cascades", casc, "--out", tmp_path / "o.txt")
        assert res.exit_code == 1
        assert "l1_penalty" in res.output

    @pytest.mark.parametrize("command, option", [
        ("evaluate", "--threshold"),
        ("infer", "--edge-threshold"),
        ("infer", "--lambda"),
        ("infer", "--tol"),
    ])
    def test_nan_option_is_a_usage_error(self, runner, tmp_path, command, option):
        # NaN passes every range bound, so the option type rejects it by name;
        # it fails while the options parse, before any file is read
        net, casc = self._pipeline(runner, tmp_path, "additive")
        if command == "evaluate":
            args = ["--true-network", net, "--inferred-network", net]
        else:
            args = ["--model", "additive", "--cascades", casc]
        out = tmp_path / "out.txt"
        res = run(runner, command, *args, option, "nan", "--out", out)
        assert res.exit_code == 2
        assert "'nan' is not a number" in res.output
        assert not out.exists()

    def test_solver_surface(self, runner):
        # one way to run a fit: no worker count, no unused solver knobs
        fields = lambda cls: [f.name for f in dataclasses.fields(cls)]
        assert fields(hn.AdditiveConfig) == ["shaping", "max_iters", "tol"]
        assert fields(hn.MultiplicativeConfig) == ["baseline", "l1_penalty", "max_iters", "tol"]
        for infer in (hn.infer_additive, hn.infer_multiplicative):
            assert list(inspect.signature(infer).parameters) == ["cs", "cfg", "init"]
        res = run(runner, "infer", "--help")
        assert res.exit_code == 0
        assert "--threads" not in res.output
        assert "--accelerate" not in res.output

    def test_evaluate_self_is_perfect(self, runner, tmp_path):
        net, _ = self._pipeline(runner, tmp_path, "additive")
        out = tmp_path / "metrics.csv"
        res = run(runner, "evaluate", "--true-network", net, "--inferred-network", net,
                  "--out", out)
        assert res.exit_code == 0
        rows = dict(
            line.split(",") for line in out.read_text().splitlines()[1:]
        )
        assert float(rows["edge_accuracy"]) == 1.0
        assert float(rows["mse"]) == 0.0

    def test_evaluate_dimension_mismatch_fails(self, runner, tmp_path):
        small, big = tmp_path / "s.txt", tmp_path / "b.txt"
        run(runner, "generate", "--scale", 3, "--avg-degree", 2, "--model", "additive", "--out", small)
        run(runner, "generate", "--scale", 4, "--avg-degree", 2, "--model", "additive", "--out", big)
        res = run(runner, "evaluate", "--true-network", small, "--inferred-network", big,
                  "--out", tmp_path / "m.csv")
        assert res.exit_code == 1

    def test_negative_threshold_is_a_usage_error(self, runner, tmp_path):
        net, _ = self._pipeline(runner, tmp_path, "additive")
        out = tmp_path / "metrics.csv"
        res = run(runner, "evaluate", "--true-network", net, "--inferred-network", net,
                  "--threshold", -1, "--out", out)
        assert res.exit_code == 2
        assert not out.exists()

    def test_row_order_is_fixed(self, runner, tmp_path):
        net, _ = self._pipeline(runner, tmp_path, "additive")
        out = tmp_path / "metrics.csv"
        run(runner, "evaluate", "--true-network", net, "--inferred-network", net, "--out", out)
        names = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert names == [
            "edge_accuracy", "mse", "true_edge_count", "inferred_edge_count", "sign_agreement",
        ]


class TestPredict:
    def test_split_only_writes_partitions(self, runner, tmp_path):
        net = tmp_path / "net.txt"
        casc = tmp_path / "c.txt"
        run(runner, "generate", "--scale", 4, "--avg-degree", 2, "--model", "additive", "--seed", 1, "--out", net)
        run(runner, "simulate", "--network", net, "--cascades", 40, "--seed", 2, "--out", casc)
        train, test = tmp_path / "train.txt", tmp_path / "test.txt"
        res = run(runner, "predict", "--cascades", casc, "--test-fraction", 0.25,
                  "--seed", 3, "--train-out", train, "--test-out", test, "--split-only")
        assert res.exit_code == 0, res.output
        assert len(hn.read_cascades(str(train))) == 30
        assert len(hn.read_cascades(str(test))) == 10

    def test_prediction_outputs_csvs(self, runner, tmp_path):
        net = tmp_path / "net.txt"
        casc = tmp_path / "c.txt"
        run(runner, "generate", "--scale", 4, "--avg-degree", 2, "--model", "additive", "--seed", 1, "--out", net)
        run(runner, "simulate", "--network", net, "--cascades", 60, "--seed", 2, "--out", casc)
        prefix = tmp_path / "pred"
        res = run(runner, "predict", "--network", net, "--cascades", casc,
                  "--seed", 3, "--out-prefix", prefix)
        assert res.exit_code == 0, res.output
        sizes = (tmp_path / "pred.sizes.csv").read_text().splitlines()
        assert sizes[1] == "size,test_count,simulated_count"
        summary = dict(
            line.split(",") for line in
            (tmp_path / "pred.summary.csv").read_text().splitlines()[2:]
        )
        assert 0.0 <= float(summary["ks_size"]) <= 1.0

    def test_network_required_without_split_only(self, runner, tmp_path):
        casc = tmp_path / "c.txt"
        casc.write_text("netinf-cascades v1 3 2\n0:0,1:0.5\n0:0\n1:0,2:0.4\n0:0\n1:0\n")
        res = run(runner, "predict", "--cascades", casc, "--test-fraction", 0.2)
        assert res.exit_code == 2

    def test_deterministic(self, runner, tmp_path):
        net = tmp_path / "net.txt"
        casc = tmp_path / "c.txt"
        run(runner, "generate", "--scale", 3, "--avg-degree", 2, "--model", "additive", "--seed", 1, "--out", net)
        run(runner, "simulate", "--network", net, "--cascades", 30, "--seed", 2, "--out", casc)
        p1, p2 = tmp_path / "one", tmp_path / "two"
        for p in (p1, p2):
            assert run(runner, "predict", "--network", net, "--cascades", casc,
                       "--seed", 7, "--out-prefix", p).exit_code == 0
        assert (tmp_path / "one.sizes.csv").read_bytes() == (tmp_path / "two.sizes.csv").read_bytes()
        assert (tmp_path / "one.summary.csv").read_bytes() == (tmp_path / "two.summary.csv").read_bytes()


class TestFullPipeline:
    def test_generate_simulate_infer_evaluate(self, runner, tmp_path):
        true_net = tmp_path / "true.txt"
        casc = tmp_path / "c.txt"
        hat = tmp_path / "hat.txt"
        metrics = tmp_path / "m.csv"
        assert run(runner, "generate", "--family", "core-periphery", "--scale", 5,
                   "--avg-degree", 3, "--model", "additive", "--seed", 1,
                   "--out", true_net).exit_code == 0
        assert run(runner, "simulate", "--network", true_net, "--cascades", 800,
                   "--window", 4, "--seed", 2, "--out", casc).exit_code == 0
        assert run(runner, "infer", "--model", "additive", "--shaping", "exp",
                   "--cascades", casc, "--out", hat).exit_code == 0
        assert run(runner, "evaluate", "--true-network", true_net,
                   "--inferred-network", hat, "--out", metrics).exit_code == 0
        rows = dict(line.split(",") for line in metrics.read_text().splitlines()[1:])
        assert float(rows["edge_accuracy"]) > 0.6
