"""Network-recovery metrics, train/test splitting, and cascade size/duration
distribution prediction."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .shaping import Baseline, ShapingFunction
from .types import MULTIPLICATIVE, CascadeSet, Network, check_universe
from .simulate import simulate_set

DURATION_BINS = 20


def _check_same_shape(true_net: Network, inferred_net: Network) -> None:
    if true_net.num_nodes != inferred_net.num_nodes:
        raise ValueError("networks must cover the same node universe")


def edge_accuracy(true_net: Network, inferred_net: Network, threshold: float) -> float:
    """1 minus the normalized symmetric difference of the two edge sets.

    Presence means |parameter| > threshold. Two empty networks count as a
    perfect match.
    """
    _check_same_shape(true_net, inferred_net)
    a = np.abs(true_net.params) > threshold
    b = np.abs(inferred_net.params) > threshold
    denom = int(a.sum()) + int(b.sum())
    if denom == 0:
        return 1.0
    return 1.0 - float(np.logical_xor(a, b).sum()) / denom


def parameter_mse(true_net: Network, inferred_net: Network) -> float:
    """Mean squared parameter error over all off-diagonal entries."""
    _check_same_shape(true_net, inferred_net)
    n = true_net.num_nodes
    diff = (true_net.params - inferred_net.params) ** 2
    off = ~np.eye(n, dtype=bool)
    return float(diff[off].mean()) if n > 1 else 0.0


@dataclass(frozen=True)
class EvalReport:
    """Recovery metrics for one (true, inferred) network pair."""

    edge_accuracy: float
    mse: float
    true_edge_count: int
    inferred_edge_count: int
    sign_agreement: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 <= self.edge_accuracy <= 1.0):
            raise ValueError("edge_accuracy must lie in [0, 1]")
        if self.mse < 0.0:
            raise ValueError("mse must be nonnegative")
        if self.sign_agreement is not None and not (0.0 <= self.sign_agreement <= 1.0):
            raise ValueError("sign_agreement must lie in [0, 1]")


def compare_networks(true_net: Network, inferred_net: Network, threshold: float) -> EvalReport:
    """Bundle accuracy, MSE, edge counts and (for multiplicative pairs) the
    fraction of shared edges whose influence signs agree."""
    acc = edge_accuracy(true_net, inferred_net, threshold)
    mse = parameter_mse(true_net, inferred_net)
    sign_agreement = None
    if true_net.kind == MULTIPLICATIVE and inferred_net.kind == MULTIPLICATIVE:
        shared = (np.abs(true_net.params) > threshold) & (np.abs(inferred_net.params) > threshold)
        if shared.any():
            agree = np.sign(true_net.params[shared]) == np.sign(inferred_net.params[shared])
            sign_agreement = float(agree.mean())
    return EvalReport(
        edge_accuracy=acc,
        mse=mse,
        true_edge_count=int((np.abs(true_net.params) > threshold).sum()),
        inferred_edge_count=int((np.abs(inferred_net.params) > threshold).sum()),
        sign_agreement=sign_agreement,
    )


def split_cascades(
    cs: CascadeSet, test_fraction: float, rng_seed: int = 0
) -> tuple[CascadeSet, CascadeSet]:
    """Disjoint random (train, test) partition, deterministic in the seed."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    count = len(cs)
    n_test = int(round(test_fraction * count))
    perm = np.random.default_rng(rng_seed).permutation(count)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    train = CascadeSet(cs.num_nodes, cs.window, tuple(cs.cascades[i] for i in train_idx))
    test = CascadeSet(cs.num_nodes, cs.window, tuple(cs.cascades[i] for i in test_idx))
    return train, test


def cascade_sizes(cs: CascadeSet) -> np.ndarray:
    return np.array([c.size for c in cs], dtype=np.int64)


def cascade_durations(cs: CascadeSet) -> np.ndarray:
    return np.array([c.duration for c in cs], dtype=np.float64)


def ks_statistic(sample_a: np.ndarray, sample_b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: sup |ECDF_a - ECDF_b|."""
    a = np.sort(np.asarray(sample_a, dtype=np.float64))
    b = np.sort(np.asarray(sample_b, dtype=np.float64))
    if a.size == 0 or b.size == 0:
        return 0.0 if a.size == b.size else 1.0
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def duration_bin_edges(window: float, bins: int = DURATION_BINS) -> np.ndarray:
    """Log-spaced duration bins over (0, window], first edge dropped to 0 so
    degenerate single-node durations are counted too."""
    edges = np.geomspace(window * 1e-3, window, bins + 1)
    edges[0] = 0.0
    return edges


@dataclass(frozen=True)
class DistributionSummary:
    """Histogram view of a cascade set's sizes and durations.

    ``ks_size`` / ``ks_duration`` compare against a reference sample when one
    was supplied; the histogram masses each sum to ``sample_count``.
    """

    size_values: np.ndarray
    size_counts: np.ndarray
    duration_edges: np.ndarray
    duration_counts: np.ndarray
    sample_count: int
    ks_size: float | None = None
    ks_duration: float | None = None


def summarize_cascades(cs: CascadeSet, reference: CascadeSet | None = None) -> DistributionSummary:
    """Histogram the sizes and durations of ``cs``; if ``reference`` is given,
    also record KS statistics against its samples."""
    sizes = cascade_sizes(cs)
    durations = cascade_durations(cs)
    size_values = np.arange(1, cs.num_nodes + 1)
    size_counts = np.bincount(sizes, minlength=cs.num_nodes + 1)[1:]
    edges = duration_bin_edges(cs.window)
    duration_counts, _ = np.histogram(durations, bins=edges)
    ks_size = ks_duration = None
    if reference is not None:
        ks_size = ks_statistic(sizes, cascade_sizes(reference))
        ks_duration = ks_statistic(durations, cascade_durations(reference))
    return DistributionSummary(
        size_values=size_values,
        size_counts=size_counts,
        duration_edges=edges,
        duration_counts=duration_counts,
        sample_count=len(cs),
        ks_size=ks_size,
        ks_duration=ks_duration,
    )


def predict_distributions(
    trained: Network,
    model: ShapingFunction | Baseline,
    test: CascadeSet,
    rng_seed: int = 0,
) -> tuple[CascadeSet, tuple[DistributionSummary, DistributionSummary]]:
    """Simulate one cascade per held-out cascade, from its true source, over
    the held-out window, and summarize both sets against each other."""
    check_universe(trained, test)
    sources = [c.source for c in test]
    simulated = simulate_set(
        trained, model, len(test), test.window, sources=sources, rng_seed=rng_seed
    )
    return simulated, (summarize_cascades(test, simulated), summarize_cascades(simulated, test))
