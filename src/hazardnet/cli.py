"""Command-line pipeline: generate -> simulate -> infer -> evaluate -> predict.

Every command exits 0 on success, 1 on runtime errors (bad files, numeric
failures) and 2 on usage errors. generate, simulate and predict draw all
their randomness from --seed, which is also recorded as a metadata comment
in their output files; infer is deterministic and only records its --seed
there, and evaluate takes none.
"""

from __future__ import annotations

import functools
import math

import click
import numpy as np

from .additive import AdditiveConfig, infer_additive
from .evaluate import (
    compare_networks,
    predict_distributions,
    split_cascades,
    summarize_cascades,
)
from .fileio import (
    ensure_exists,
    read_cascades,
    read_network,
    write_cascades,
    write_csv,
    write_network,
)
from .multiplicative import MultiplicativeConfig, infer_multiplicative
from .shaping import Baseline, ShapingFunction
from .simulate import (
    KRONECKER_SEEDS,
    KroneckerSpec,
    ParamDistribution,
    assign_parameters,
    generate_kronecker,
    simulate_set,
)
from .types import ADDITIVE, MULTIPLICATIVE

_SHAPING_NAMES = {"exp": "exponential", "pow": "power", "ray": "rayleigh"}
_BASELINE_NAMES = {"const": "constant", "linear": "linear", "inverse": "inverse"}


def _runtime_errors(fn):
    """Convert runtime failures into exit code 1 with a readable message."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc

    return wrapper


class _FloatRange(click.FloatRange):
    """A ``click.FloatRange`` that also rejects NaN, which no bound excludes
    because every comparison with it is false."""

    def convert(self, value, param, ctx):
        number = super().convert(value, param, ctx)
        if math.isnan(number):
            self.fail(f"{value!r} is not a number.", param, ctx)
        return number


def _shaping_options(fn):
    fn = click.option(
        "--shaping",
        type=click.Choice(sorted(_SHAPING_NAMES)),
        default="exp",
        show_default=True,
        help="Additive kernel family.",
    )(fn)
    fn = click.option(
        "--delta", type=float, default=1.0, show_default=True,
        help="Minimum-delay floor of the pow kernel.",
    )(fn)
    return fn


def _baseline_options(fn):
    fn = click.option(
        "--baseline",
        type=click.Choice(sorted(_BASELINE_NAMES)),
        default="const",
        show_default=True,
        help="Multiplicative baseline family.",
    )(fn)
    fn = click.option(
        "--a0", type=float, default=0.0, show_default=True,
        help="Shared log-scale of the baseline rate.",
    )(fn)
    fn = click.option(
        "--epsilon", type=float, default=1e-3, show_default=True,
        help="Lower clamp of the inverse baseline.",
    )(fn)
    return fn


def _build_shaping(shaping: str, delta: float) -> ShapingFunction:
    return ShapingFunction(_SHAPING_NAMES[shaping], delta=delta)


def _build_baseline(baseline: str, a0: float, epsilon: float) -> Baseline:
    return Baseline(_BASELINE_NAMES[baseline], log_scale=a0, epsilon=epsilon)


def _model_for(kind: str, shaping, delta, baseline, a0, epsilon):
    if kind == ADDITIVE:
        return _build_shaping(shaping, delta)
    return _build_baseline(baseline, a0, epsilon)


@click.group()
@click.version_option(package_name="hazardnet")
def main() -> None:
    """Infer, simulate and evaluate diffusion networks from cascades."""


@main.command()
@click.option(
    "--family",
    type=click.Choice(sorted(KRONECKER_SEEDS)),
    default="core-periphery",
    show_default=True,
)
@click.option("--scale", type=click.IntRange(min=1), required=True,
              help="Network has 2**scale nodes.")
@click.option("--avg-degree", type=float, default=4.0, show_default=True)
@click.option("--model", type=click.Choice([ADDITIVE, MULTIPLICATIVE]), required=True)
@click.option("--lo", type=float, default=None, help="Lower parameter bound.")
@click.option("--hi", type=float, default=None, help="Upper parameter bound.")
@click.option("--p-neg", type=click.FloatRange(0.0, 1.0), default=0.3, show_default=True,
              help="Probability of a negative multiplicative influence.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), required=True)
@_runtime_errors
def generate(family, scale, avg_degree, model, lo, hi, p_neg, seed, out) -> None:
    """Sample a Kronecker network with uniform edge parameters."""
    spec = KroneckerSpec(KRONECKER_SEEDS[family], scale, avg_degree, rng_seed=seed)
    edges = generate_kronecker(spec)
    if model == ADDITIVE:
        dist = ParamDistribution(ADDITIVE, lo if lo is not None else 0.01,
                                 hi if hi is not None else 1.0)
    else:
        dist = ParamDistribution(MULTIPLICATIVE, lo if lo is not None else 0.1,
                                 hi if hi is not None else 1.0, negative_prob=p_neg)
    net = assign_parameters(spec.num_nodes, edges, dist, rng_seed=seed + 1)
    write_network(out, net, metadata={"seed": seed, "family": family})
    click.echo(f"wrote {net.num_nodes}-node {model} network with {net.edge_count()} edges to {out}")


@main.command()
@click.option("--network", type=click.Path(dir_okay=False), required=True)
@click.option("--cascades", type=click.IntRange(min=0), required=True,
              help="How many cascades to sample.")
@click.option("--window", type=float, default=4.0, show_default=True)
@_shaping_options
@_baseline_options
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), required=True)
@_runtime_errors
def simulate(network, cascades, window, shaping, delta, baseline, a0, epsilon,
             seed, out) -> None:
    """Sample cascades from a stored network."""
    net = read_network(ensure_exists(network, "network file"))
    model = _model_for(net.kind, shaping, delta, baseline, a0, epsilon)
    cs = simulate_set(net, model, cascades, window, rng_seed=seed)
    write_cascades(out, cs, metadata={"seed": seed, "network": network})
    click.echo(f"wrote {len(cs)} cascades over window {window} to {out}")


@main.command()
@click.option("--model", type=click.Choice([ADDITIVE, MULTIPLICATIVE]), required=True)
@click.option("--cascades", "cascades_path", type=click.Path(dir_okay=False), required=True)
@_shaping_options
@_baseline_options
@click.option("--lambda", "l1_penalty", type=_FloatRange(min=0.0), default=None,
              help="L1 penalty weight (multiplicative; default 0.01*C/N).")
@click.option("--max-iters", type=click.IntRange(min=1), default=2000, show_default=True)
@click.option("--tol", type=_FloatRange(min=0.0, min_open=True), default=1e-8,
              show_default=True,
              help="Stopping tolerance: a column is converged once its KKT residual is at "
                   "most tol * max(1, scale), the scale being the column's largest "
                   "exposure (additive) or co-infection count (multiplicative).")
@click.option("--edge-threshold", type=_FloatRange(min=0.0), default=1e-4,
              show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), required=True)
@click.option("--trace", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Optional CSV of each target column's status, Newton steps and "
                   "final objective, one row per column.")
@_runtime_errors
def infer(model, cascades_path, shaping, delta, baseline, a0, epsilon, l1_penalty,
          max_iters, tol, edge_threshold, seed, out, trace) -> None:
    """Fit a network to recorded cascades by maximum likelihood."""
    cs = read_cascades(ensure_exists(cascades_path, "cascade file"))
    if model == ADDITIVE:
        cfg = AdditiveConfig(
            shaping=_build_shaping(shaping, delta), max_iters=max_iters, tol=tol
        )
        result = infer_additive(cs, cfg)
    else:
        cfg = MultiplicativeConfig(
            baseline=_build_baseline(baseline, a0, epsilon),
            l1_penalty=l1_penalty, max_iters=max_iters, tol=tol,
        )
        result = infer_multiplicative(cs, cfg)
    write_network(out, result.network, metadata={"seed": seed, "converged": result.converged})
    if trace is not None:
        rows = zip(result.status, result.steps.tolist(), result.objectives.tolist())
        write_csv(trace, ["column", "status", "steps", "objective"],
                  [(i, *row) for i, row in enumerate(rows)], metadata={"seed": seed})
    status = "converged" if result.converged else "NOT converged"
    edges = result.network.edge_count(edge_threshold)
    click.echo(f"{status} after {result.iterations} iterations; {edges} edges above "
               f"{edge_threshold}; wrote {out}")


@main.command()
@click.option("--true-network", type=click.Path(dir_okay=False), required=True)
@click.option("--inferred-network", type=click.Path(dir_okay=False), required=True)
@click.option("--threshold", type=_FloatRange(min=0.0), default=1e-4, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), required=True)
@_runtime_errors
def evaluate(true_network, inferred_network, threshold, out) -> None:
    """Compare an inferred network against the ground truth."""
    true_net = read_network(ensure_exists(true_network, "network file"))
    inferred_net = read_network(ensure_exists(inferred_network, "network file"))
    report = compare_networks(true_net, inferred_net, threshold)
    rows = [
        ("edge_accuracy", float(report.edge_accuracy)),
        ("mse", float(report.mse)),
        ("true_edge_count", report.true_edge_count),
        ("inferred_edge_count", report.inferred_edge_count),
        ("sign_agreement", "" if report.sign_agreement is None else float(report.sign_agreement)),
    ]
    write_csv(out, ["metric", "value"], rows)
    click.echo(f"edge_accuracy={report.edge_accuracy:.4f} mse={report.mse:.6g}; wrote {out}")


@main.command()
@click.option("--network", type=click.Path(dir_okay=False), default=None,
              help="Trained network (not needed with --split-only).")
@click.option("--cascades", "cascades_path", type=click.Path(dir_okay=False), required=True)
@click.option("--test-fraction", type=float, default=0.2, show_default=True)
@_shaping_options
@_baseline_options
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--train-out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Also write the train split (e.g. to feed `infer`).")
@click.option("--test-out", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--split-only", is_flag=True, help="Only write the split, skip prediction.")
@click.option("--out-prefix", type=str, default=None,
              help="Prefix for the sizes/durations/summary CSVs.")
@_runtime_errors
def predict(network, cascades_path, test_fraction, shaping, delta, baseline, a0, epsilon,
            seed, train_out, test_out, split_only, out_prefix) -> None:
    """Split cascades, simulate from a trained network at the held-out
    sources, and compare size/duration distributions."""
    cs = read_cascades(ensure_exists(cascades_path, "cascade file"))
    train, test = split_cascades(cs, test_fraction, rng_seed=seed)
    if train_out is not None:
        write_cascades(train_out, train, metadata={"seed": seed, "role": "train"})
    if test_out is not None:
        write_cascades(test_out, test, metadata={"seed": seed, "role": "test"})
    if split_only:
        click.echo(f"split {len(cs)} cascades into {len(train)} train / {len(test)} test")
        return
    if network is None:
        raise click.UsageError("--network is required unless --split-only is set")
    if out_prefix is None:
        raise click.UsageError("--out-prefix is required unless --split-only is set")
    net = read_network(ensure_exists(network, "network file"))
    model = _model_for(net.kind, shaping, delta, baseline, a0, epsilon)
    simulated, (test_summary, sim_summary) = predict_distributions(
        net, model, test, rng_seed=seed + 1
    )
    write_csv(
        f"{out_prefix}.sizes.csv",
        ["size", "test_count", "simulated_count"],
        [
            (int(s), int(a), int(b))
            for s, a, b in zip(
                test_summary.size_values, test_summary.size_counts, sim_summary.size_counts
            )
        ],
        metadata={"seed": seed},
    )
    edges = test_summary.duration_edges
    write_csv(
        f"{out_prefix}.durations.csv",
        ["bin_low", "bin_high", "test_count", "simulated_count"],
        [
            (float(edges[k]), float(edges[k + 1]), int(a), int(b))
            for k, (a, b) in enumerate(
                zip(test_summary.duration_counts, sim_summary.duration_counts)
            )
        ],
        metadata={"seed": seed},
    )
    write_csv(
        f"{out_prefix}.summary.csv",
        ["metric", "value"],
        [
            ("ks_size", float(test_summary.ks_size)),
            ("ks_duration", float(test_summary.ks_duration)),
            ("test_cascades", test_summary.sample_count),
            ("simulated_cascades", sim_summary.sample_count),
        ],
        metadata={"seed": seed},
    )
    click.echo(
        f"KS(size)={test_summary.ks_size:.4f} KS(duration)={test_summary.ks_duration:.4f}; "
        f"wrote {out_prefix}.*.csv"
    )


if __name__ == "__main__":
    main()
