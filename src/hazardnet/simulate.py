"""Synthetic ground truth: Kronecker networks, random edge parameters, and
exact cascade sampling.

Sampling draws one uniform per node up front and infects the node when its
cumulative hazard reaches -log(1 - u), i.e. maps the uniform through the
inverse CDF. Every node carries a running state of the hazard its infected
parents have built up: the sums of alpha and alpha * t_j over its parents
for the exponential kernel; their total alpha and the alpha-weighted mean
and spread of their times for the rayleigh kernel; the hazard spent up to
its latest parent, that parent's time and the log-multiplier since then for
a baseline. When an event commits, every susceptible node the new
infection touches updates its state and has its tentative time re-inverted
in closed form, all in one array pass. Only power-kernel targets with
several parents are solved one by one, by bisection.

A state changes only when a parent with nonzero influence arrives, so a
tentative time is a pure function of that node's own parents and the
sampled cascade does not depend on the refresh schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .shaping import Baseline, POWER, RAYLEIGH, ShapingFunction
from .types import ADDITIVE, MULTIPLICATIVE, Cascade, CascadeSet, Network

KRONECKER_SEEDS = {
    "core-periphery": np.array([[0.9, 0.5], [0.5, 0.3]]),
    "hierarchical": np.array([[0.9, 0.1], [0.1, 0.9]]),
    "random": np.array([[0.5, 0.5], [0.5, 0.5]]),
}

_BISECT_TOL = 1e-10


class ScaleOverflowError(ValueError):
    """Raised when the requested average degree needs edge probabilities > 1."""


@dataclass(frozen=True)
class KroneckerSpec:
    """Recipe for a stochastic Kronecker graph on 2**scale nodes."""

    seed_matrix: np.ndarray
    scale: int
    target_avg_degree: float
    rng_seed: int = 0

    def __post_init__(self) -> None:
        seed = np.array(self.seed_matrix, dtype=np.float64, copy=True)
        if seed.shape != (2, 2):
            raise ValueError("seed_matrix must be 2 x 2")
        if np.any(seed < 0.0) or np.any(seed > 1.0):
            raise ValueError("seed entries must be probabilities in [0, 1]")
        if self.scale < 1:
            raise ValueError("scale must be at least 1")
        if not self.target_avg_degree > 0.0:
            raise ValueError("target_avg_degree must be positive")
        seed.flags.writeable = False
        object.__setattr__(self, "seed_matrix", seed)

    @property
    def num_nodes(self) -> int:
        return 2**self.scale


@dataclass(frozen=True)
class ParamDistribution:
    """Uniform law for edge parameters.

    Additive draws are rates on [low, high] with low > 0; multiplicative
    draws are magnitudes on [low, high], negated with probability
    ``negative_prob``.
    """

    kind: str
    low: float
    high: float
    negative_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in (ADDITIVE, MULTIPLICATIVE):
            raise ValueError(f"unknown network kind {self.kind!r}")
        if not (self.low <= self.high):
            raise ValueError("need low <= high")
        if self.kind == ADDITIVE and not self.low > 0.0:
            raise ValueError("additive rates must stay strictly positive")
        if self.kind == MULTIPLICATIVE and self.low < 0.0:
            raise ValueError("multiplicative magnitudes must be nonnegative")
        if not (0.0 <= self.negative_prob <= 1.0):
            raise ValueError("negative_prob must be a probability")


def generate_kronecker(spec: KroneckerSpec) -> np.ndarray:
    """Sample a directed edge set, returned as an (E, 2) array of (u, v).

    Edge probabilities are the scale-fold Kronecker power of the seed,
    rescaled so the expected number of (non-loop) edges matches
    num_nodes * target_avg_degree. Raises :class:`ScaleOverflowError` when
    that would push some probability past 1.
    """
    probs = spec.seed_matrix
    for _ in range(spec.scale - 1):
        probs = np.kron(probs, spec.seed_matrix)
    probs = probs.copy()
    np.fill_diagonal(probs, 0.0)
    total = probs.sum()
    if total == 0.0:
        return np.zeros((0, 2), dtype=np.int64)
    factor = spec.num_nodes * spec.target_avg_degree / total
    probs *= factor
    if probs.max() > 1.0 + 1e-12:
        raise ScaleOverflowError(
            f"average degree {spec.target_avg_degree} needs an edge probability "
            f"of {probs.max():.4f} > 1; lower the degree or grow the graph"
        )
    np.clip(probs, 0.0, 1.0, out=probs)
    rng = np.random.default_rng(spec.rng_seed)
    hits = rng.random(probs.shape) < probs
    np.fill_diagonal(hits, False)
    return np.argwhere(hits).astype(np.int64)


def assign_parameters(
    num_nodes: int, edges: np.ndarray, dist: ParamDistribution, rng_seed: int = 0
) -> Network:
    """Draw one parameter per edge and assemble the dense network."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        raise ValueError("edge endpoint outside the node universe")
    if np.any(edges[:, 0] == edges[:, 1]):
        raise ValueError("self-loops are not allowed")
    rng = np.random.default_rng(rng_seed)
    values = rng.uniform(dist.low, dist.high, size=edges.shape[0])
    if dist.kind == MULTIPLICATIVE and dist.negative_prob > 0.0:
        flip = rng.random(edges.shape[0]) < dist.negative_prob
        values = np.where(flip, -values, values)
    params = np.zeros((num_nodes, num_nodes))
    params[edges[:, 0], edges[:, 1]] = values
    return Network(params, dist.kind)


def _bisect(fn, lo: float, hi: float, target: float) -> float:
    """Locate fn crossing ``target`` on [lo, hi]; fn nondecreasing."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= _BISECT_TOL * max(1.0, abs(hi)):
            return mid
        if fn(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _invert_power(
    shaping: ShapingFunction,
    parent_times: np.ndarray,
    alphas: np.ndarray,
    target: float,
    t_max: float,
) -> float:
    """Earliest t <= t_max at which the power-kernel hazard of several
    parents (every alpha > 0) reaches ``target``; inf when it does not.

    Each parent switches on ``delta`` after its infection. The crossing is
    located on the grid of switch-on points, then solved in closed form if
    one parent is live there and by bisection otherwise.
    """
    starts = parent_times + shaping.delta
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
    if act_times.size > 1:
        lam = lambda t: float(act_alphas @ np.asarray(shaping.cumulative(act_times, t)))
        return _bisect(lam, a, b, float(cumhaz[seg - 1]) + residual)
    tp = float(act_times[0])
    return tp + (a - tp) * math.exp(residual / float(act_alphas[0]))


class _KernelSums:
    """Hazard state of each target under the exponential kernel.

    s0 and s1 are the sums of alpha and alpha * t_j over the target's
    infected parents. From its latest parent on, the cumulative hazard is
    s0*t - s1, and the tentative time is its root at the target.
    """

    def __init__(self, targets: np.ndarray) -> None:
        self.targets = targets
        self.s0, self.s1 = np.zeros(targets.size), np.zeros(targets.size)

    def add_parent(self, idx: np.ndarray, alphas: np.ndarray, t: float) -> None:
        self.s0[idx] += alphas
        self.s1[idx] += alphas * t

    def times(self, idx: np.ndarray) -> np.ndarray:
        s0, top = self.s0[idx], self.s1[idx] + self.targets[idx]
        return np.divide(top, s0, out=np.full(idx.size, math.inf), where=s0 > 0.0)


class _RayleighMoments:
    """Hazard state of each target under the rayleigh kernel.

    ``weight`` is the sum of alpha over the target's infected parents,
    ``mean`` the alpha-weighted mean of their times and ``spread`` the sum of
    alpha * (t_j - mean)**2, all kept by weighted Welford updates. From its
    latest parent on, the cumulative hazard is
    (weight * (t - mean)**2 + spread) / 2, inverted without the cancellation
    that raw power sums of the times suffer.
    """

    def __init__(self, targets: np.ndarray) -> None:
        self.targets = targets
        self.weight, self.mean, self.spread = (np.zeros(targets.size) for _ in range(3))

    def add_parent(self, idx: np.ndarray, alphas: np.ndarray, t: float) -> None:
        weight = self.weight[idx] + alphas
        shift = t - self.mean[idx]
        mean = self.mean[idx] + alphas / weight * shift
        self.spread[idx] += alphas * shift * (t - mean)
        self.weight[idx], self.mean[idx] = weight, mean

    def times(self, idx: np.ndarray) -> np.ndarray:
        weight = self.weight[idx]
        square = np.divide(
            2.0 * self.targets[idx] - self.spread[idx], weight,
            out=np.full(idx.size, math.inf), where=weight > 0.0,
        )
        return self.mean[idx] + np.sqrt(np.maximum(square, 0.0))


class _PowerKernel:
    """Hazard state of each target under the power kernel.

    A target with one parent, infected at t_p with rate alpha, has the
    closed-form time t_p + delta * exp(target / alpha). Targets with several
    parents keep their (t_j, alpha) lists for :func:`_invert_power`.
    """

    def __init__(self, shaping: ShapingFunction, targets: np.ndarray, window: float) -> None:
        self.shaping, self.targets, self.window = shaping, targets, window
        self.count = np.zeros(targets.size, dtype=np.int64)
        self.last_time, self.last_alpha = np.zeros(targets.size), np.zeros(targets.size)
        self.parents: list[list[tuple[float, float]]] = [[] for _ in range(targets.size)]

    def add_parent(self, idx: np.ndarray, alphas: np.ndarray, t: float) -> None:
        self.count[idx] += 1
        self.last_time[idx] = t
        self.last_alpha[idx] = alphas
        for k, alpha in zip(idx.tolist(), alphas.tolist()):
            self.parents[k].append((t, alpha))

    def times(self, idx: np.ndarray) -> np.ndarray:
        count = self.count[idx]
        out = np.full(idx.size, math.inf)
        lone = idx[count == 1]
        with np.errstate(over="ignore"):
            growth = np.exp(self.targets[lone] / self.last_alpha[lone])
        out[count == 1] = self.last_time[lone] + self.shaping.delta * growth
        for j in np.flatnonzero(count > 1).tolist():
            times, alphas = np.array(self.parents[idx[j]]).T
            out[j] = _invert_power(self.shaping, times, alphas, self.targets[idx[j]], self.window)
        return out


class _BaselineExposure:
    """Hazard state of each target under a multiplicative baseline.

    ``spent`` is the cumulative hazard up to ``since``, the time of the
    target's latest nonzero parent, and ``log_mult`` the sum of its parents'
    influences in force from then on. The tentative time inverts the
    baseline integral from ``since`` at (target - spent) / exp(log_mult).
    """

    def __init__(self, baseline: Baseline, targets: np.ndarray) -> None:
        self.baseline, self.targets = baseline, targets
        self.spent, self.since, self.log_mult = (np.zeros(targets.size) for _ in range(3))

    def add_parent(self, idx: np.ndarray, alphas: np.ndarray, t: float) -> None:
        since = self.since[idx]
        self.spent[idx] += np.exp(self.log_mult[idx]) * self.baseline.integral(since, t)
        self.since[idx] = t
        self.log_mult[idx] += alphas

    def times(self, idx: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", divide="ignore"):
            mass = (self.targets[idx] - self.spent[idx]) / np.exp(self.log_mult[idx])
        return self.baseline.invert_integral(self.since[idx], mass)


def _running_hazard(model: ShapingFunction | Baseline, targets: np.ndarray, window: float):
    """Fresh hazard state, before any parent, for nodes with these targets."""
    if isinstance(model, Baseline):
        return _BaselineExposure(model, targets)
    if model.variant == POWER:
        return _PowerKernel(model, targets, window)
    if model.variant == RAYLEIGH:
        return _RayleighMoments(targets)
    return _KernelSums(targets)


def _check_pairing(net: Network, model: ShapingFunction | Baseline) -> None:
    if isinstance(model, ShapingFunction):
        if net.kind != ADDITIVE:
            raise ValueError("shaping functions pair with additive networks")
    elif net.kind != MULTIPLICATIVE:
        raise ValueError("baselines pair with multiplicative networks")


def infection_time_from_uniform(
    net: Network,
    model: ShapingFunction | Baseline,
    history: Cascade,
    node: int,
    u: float,
    t_max: float,
) -> float:
    """Infection time of ``node`` implied by uniform draw ``u``, given a fixed
    history of parent infections; inf when the node survives past ``t_max``.

    The history is replayed through the cascade sampler's own state update
    for this one node, so this is the sampler's inversion step, exposed so
    its law can be tested against the closed-form CDFs.
    """
    if not (0.0 <= u < 1.0):
        raise ValueError("u must lie in [0, 1)")
    if np.any(history.nodes == node):
        raise ValueError("node is already part of the history")
    _check_pairing(net, model)
    state = _running_hazard(model, np.array([-math.log1p(-u)]), t_max)
    only = np.zeros(1, dtype=np.int64)
    t = float(state.times(only)[0])
    for parent, t_parent in zip(history.nodes.tolist(), history.times.tolist()):
        if t <= t_parent:
            break  # infected before this parent arrives
        alpha = float(net.params[parent, node])
        if alpha != 0.0:
            state.add_parent(only, np.array([alpha]), t_parent)
            t = float(state.times(only)[0])
    return t if t <= t_max else math.inf


def _draw_targets(u: np.ndarray) -> np.ndarray:
    return -np.log1p(-u)


def simulate_cascade(
    net: Network,
    model: ShapingFunction | Baseline,
    source: int,
    window: float,
    rng_seed: int = 0,
    uniforms: np.ndarray | None = None,
    recompute_all: bool = False,
) -> Cascade:
    """Sample one cascade started by ``source`` at time 0.

    ``uniforms`` (one per node, in [0, 1)) can be supplied to make the draw
    a pure function of the network; otherwise they come from ``rng_seed``.
    ``recompute_all`` refreshes every susceptible node after each event
    instead of only those whose hazard changed — slower, same cascade.
    """
    N = net.num_nodes
    if not (0 <= source < N):
        raise ValueError(f"source {source} outside universe of {N} nodes")
    if not window > 0.0:
        raise ValueError("window must be positive")
    _check_pairing(net, model)
    if uniforms is None:
        uniforms = np.random.default_rng(rng_seed).random(N)
    else:
        uniforms = np.asarray(uniforms, dtype=np.float64)
        if uniforms.shape != (N,) or np.any(uniforms < 0.0) or np.any(uniforms >= 1.0):
            raise ValueError("uniforms must be N values in [0, 1)")
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
            state.add_parent(changed, row[changed], t)
        # the source's pass covers every node, since a baseline exposes them all
        refresh = susceptible.nonzero()[0] if recompute_all or count == 1 else changed
        if refresh.size:
            tentative[refresh] = state.times(refresh)
        node = int(tentative.argmin())
        t = float(tentative[node])
        if not (t <= window):
            break
        if t <= hist_times[count - 1]:  # ulp-level ties keep the order strict
            t = float(np.nextafter(hist_times[count - 1], math.inf))
            if t > window:
                break

    return Cascade(hist_nodes[:count].copy(), hist_times[:count].copy())


def simulate_set(
    net: Network,
    model: ShapingFunction | Baseline,
    num_cascades: int,
    window: float,
    sources: Sequence[int] | None = None,
    rng_seed: int = 0,
) -> CascadeSet:
    """Sample independent cascades; deterministic in ``rng_seed``.

    Sources are drawn uniformly at random unless given. Each cascade uses a
    seed spawned from ``rng_seed`` by index.
    """
    if num_cascades < 0:
        raise ValueError("num_cascades must be nonnegative")
    if sources is not None and len(sources) != num_cascades:
        raise ValueError("need exactly one source per cascade")
    N = net.num_nodes
    children = np.random.SeedSequence(rng_seed).spawn(num_cascades)

    def build(k: int) -> Cascade:
        rng = np.random.default_rng(children[k])
        source = int(sources[k]) if sources is not None else int(rng.integers(N))
        return simulate_cascade(net, model, source, window, uniforms=rng.random(N))

    return CascadeSet(N, window, tuple(build(k) for k in range(num_cascades)))
