"""Synthetic ground truth: Kronecker networks, random edge parameters, and
exact cascade sampling.

Sampling draws one uniform per node up front and infects the node when its
cumulative hazard reaches -log(1 - u), i.e. maps the uniform through the
inverse CDF. Every node carries a running state of the hazard its infected
parents have built up: the sums of alpha and alpha * t_j over its parents
for the exponential kernel; their total alpha and the alpha-weighted mean
and spread of their times for the rayleigh kernel; the hazard spent up to
its latest parent, that parent's time and the log-multiplier since then for
a baseline. A power-kernel target keeps its parents' times and rates, and
the targets with several parents are solved together: their crossing
segments in one array pass, then the crossings themselves by Newton's
method, one array pass per step over every target not yet settled. Each
target stops on its own step, so its time depends only on its own parents.

A set is sampled block by block: the cascades of a block advance in
lockstep, each step committing the next event of every cascade still
running. The states of all (cascade, node) pairs of the block sit in flat
arrays, so one step updates every susceptible node any of the new
infections touches and re-inverts all their tentative times in one array
pass. Every entry's state sees its own parents in its own order, so each
cascade equals the one sampled on its own, bit for bit.

A state changes only when a parent with nonzero influence arrives, so a
tentative time is a pure function of that node's own parents and the
sampled cascade does not depend on the refresh schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .shaping import Baseline, Model, POWER, RAYLEIGH, ShapingFunction
from .types import ADDITIVE, MULTIPLICATIVE, Cascade, CascadeSet, Network, check_model, check_node

KRONECKER_SEEDS = {
    "core-periphery": np.array([[0.9, 0.5], [0.5, 0.3]]),
    "hierarchical": np.array([[0.9, 0.1], [0.1, 0.9]]),
    "random": np.array([[0.5, 0.5], [0.5, 0.5]]),
}

_BLOCK_CASCADES = 64  # cascades that simulate_set advances together


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


class _KernelSums:
    """Hazard state of each target under the exponential kernel.

    Like every hazard state below, it holds one entry per target, and
    ``add_parent`` gives each listed entry a parent with its own rate and
    infection time.

    s0 and s1 are the sums of alpha and alpha * t_j over the target's
    infected parents. From its latest parent on, the cumulative hazard is
    s0*t - s1, and the tentative time is its root at the target.
    """

    def __init__(self, targets: np.ndarray) -> None:
        self.targets = targets
        self.s0, self.s1 = np.zeros(targets.size), np.zeros(targets.size)

    def add_parent(self, idx: np.ndarray, alphas: np.ndarray, t: np.ndarray) -> None:
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

    def add_parent(self, idx: np.ndarray, alphas: np.ndarray, t: np.ndarray) -> None:
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


def _parent_sum(rates: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Sum over axis 1 (a row's parents) of rate * value, in list order.

    The last column of a cumulative sum adds the terms one at a time, so a
    row's sum does not depend on how many zero-rate columns pad it.
    """
    return np.cumsum(rates[:, :, None] * values, axis=1)[:, -1]


class _PowerKernel:
    """Hazard state of each target under the power kernel.

    Each target keeps its parents' infection times and rates, in arrival
    order, in its row of two (targets x width) arrays. Past its parents a
    row holds time inf and rate 0, and the width grows so that every row
    keeps at least one such empty slot. A target with one parent, infected
    at t_p with rate alpha, has the closed-form time
    t_p + delta * exp(target / alpha). The targets with several parents are
    inverted together by :meth:`_invert`, by a per-row Newton solve.
    """

    def __init__(self, shaping: ShapingFunction, targets: np.ndarray, window: float) -> None:
        self.shaping, self.targets, self.window = shaping, targets, window
        self.count = np.zeros(targets.size, dtype=np.int64)
        self.parent_time = np.full((targets.size, 3), math.inf)
        self.parent_rate = np.zeros((targets.size, 3))

    def add_parent(self, idx: np.ndarray, alphas: np.ndarray, t: np.ndarray) -> None:
        slot = self.count[idx]
        width = self.parent_time.shape[1]
        if slot.size and slot.max() + 1 >= width:
            more = np.full((self.targets.size, width), math.inf)
            self.parent_time = np.concatenate([self.parent_time, more], axis=1)
            self.parent_rate = np.concatenate([self.parent_rate, np.zeros_like(more)], axis=1)
        self.parent_time[idx, slot] = t
        self.parent_rate[idx, slot] = alphas
        self.count[idx] = slot + 1

    def times(self, idx: np.ndarray) -> np.ndarray:
        count = self.count[idx]
        out = np.empty(idx.size)
        out.fill(math.inf)
        lone = count == 1
        first = idx[lone]
        if first.size:
            with np.errstate(over="ignore"):
                growth = np.exp(self.targets[first] / self.parent_rate[first, 0])
            out[lone] = self.parent_time[first, 0] + self.shaping.delta * growth
        many = (count > 1).nonzero()[0]
        if many.size:
            out[many] = self._invert(idx[many], int(count.max()))
        return out

    def _invert(self, entries: np.ndarray, width: int) -> np.ndarray:
        """Earliest t <= window at which the hazard of each entry's parents
        (two or more, every rate > 0) reaches its target; inf when it does not.

        Each parent switches on delta after its infection. An entry's
        crossing is located on the grid of its switch-on points and the
        window. On that segment the hazard sum_j alpha_j * log((t - t_j) /
        delta) of the parents already on is concave and increasing, so
        Newton's method climbs to the crossing from a start left of it, all
        such entries in one array pass per step. Each entry stops on its own
        once its step is no longer above 1e-15 * t, so its time depends only
        on its own parents.
        """
        shaping, window = self.shaping, self.window
        tp = self.parent_time[entries, : width + 1]
        rates = self.parent_rate[entries, : width + 1]
        starts = tp + shaping.delta
        # the sorted switch-on points inside the window, then the window
        # itself, which the empty last slot supplies to every row
        grid = np.minimum(np.sort(starts, axis=1), window)
        cumhaz = _parent_sum(rates, shaping.cumulative(tp[:, :, None], grid[:, None, :]))
        target = self.targets[entries]
        # the crossing lies on [grid[seg - 1], grid[seg]]; seg = 0 puts it at
        # the first switch-on point and seg = width + 1 past the window
        seg = (cumhaz < target[:, None]).sum(axis=1)
        first = grid[:, 0]
        out = np.where((seg == 0) & (first < window), first, math.inf)
        rows = ((seg > 0) & (seg <= width)).nonzero()[0]
        if not rows.size:
            return out
        seg = seg[rows]
        a, b, goal = grid[rows, seg - 1], grid[rows, seg], target[rows]
        tp = tp[rows]
        rates = np.where(starts[rows] <= a[:, None], rates[rows], 0.0)
        # with every live rate moved onto the latest live parent, the hazard
        # reaches the goal here: at or left of the crossing, and on it when
        # that parent is the only live one
        last = np.where(rates > 0.0, tp, -math.inf).max(axis=1)
        with np.errstate(over="ignore"):
            growth = np.exp((goal - cumhaz[rows, seg - 1]) / rates.cumsum(axis=1)[:, -1])
        t = np.clip(last + (a - last) * growth, a, b)
        todo = np.arange(rows.size)
        for _ in range(50):
            now, weights = t[todo, None, None], rates[todo]
            value = _parent_sum(weights, shaping.cumulative(tp[todo, :, None], now))[:, 0]
            slope = _parent_sum(weights, shaping.hazard(tp[todo, :, None], now))[:, 0]
            # a zero slope means t sits on the switch-on point, within
            # rounding of the crossing
            step = np.divide(goal[todo] - value, slope, out=np.zeros(todo.size), where=slope > 0.0)
            t[todo] = np.clip(t[todo] + step, a[todo], b[todo])
            todo = todo[step > 1e-15 * t[todo]]
            if not todo.size:
                break
        out[rows] = t
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

    def add_parent(self, idx: np.ndarray, alphas: np.ndarray, t: np.ndarray) -> None:
        since = self.since[idx]
        self.spent[idx] += np.exp(self.log_mult[idx]) * self.baseline.integral(since, t)
        self.since[idx] = t
        self.log_mult[idx] += alphas

    def times(self, idx: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", divide="ignore"):
            mass = (self.targets[idx] - self.spent[idx]) / np.exp(self.log_mult[idx])
        return self.baseline.invert_integral(self.since[idx], mass)


def _running_hazard(model: Model, targets: np.ndarray, window: float):
    """Fresh hazard state, before any parent, for nodes with these targets."""
    if isinstance(model, Baseline):
        return _BaselineExposure(model, targets)
    if model.variant == POWER:
        return _PowerKernel(model, targets, window)
    if model.variant == RAYLEIGH:
        return _RayleighMoments(targets)
    return _KernelSums(targets)


def _check_window(window: float) -> None:
    if not (window > 0.0 and math.isfinite(window)):
        raise ValueError("window must be a positive finite length")


def infection_time_from_uniform(
    net: Network,
    model: Model,
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
    node = check_node(node, net.num_nodes)
    for parent in history.nodes.tolist():
        check_node(parent, net.num_nodes, "history node")
    if np.any(history.nodes == node):
        raise ValueError("node is already part of the history")
    _check_window(t_max)
    check_model(net, model)
    state = _running_hazard(model, np.array([-math.log1p(-u)]), t_max)
    only = np.zeros(1, dtype=np.int64)
    t = float(state.times(only)[0])
    for parent, t_parent in zip(history.nodes.tolist(), history.times.tolist()):
        if t <= t_parent:
            break  # infected before this parent arrives
        alpha = float(net.params[parent, node])
        if alpha != 0.0:
            state.add_parent(only, np.array([alpha]), np.array([t_parent]))
            t = float(state.times(only)[0])
    return t if t <= t_max else math.inf


def _draw_targets(u: np.ndarray) -> np.ndarray:
    return -np.log1p(-u)


def _sample_rows(
    net: Network,
    model: Model,
    sources: np.ndarray,
    uniforms: np.ndarray,
    window: float,
    recompute_all: bool = False,
) -> list[Cascade]:
    """One cascade per row of ``uniforms`` (rows x N), started by that row's
    source at time 0, all advanced in lockstep.

    The hazard state holds entry row * N + node. Each step records the
    latest event of every live row, adds it as a parent to the susceptible
    nodes it touches, re-inverts those entries (every susceptible entry on
    the first step, since a baseline exposes them all, or on every step with
    ``recompute_all``), and takes each live row's earliest tentative time as
    its next event. A row stops when that time falls outside the window.
    """
    rows, N = uniforms.shape
    params = net.params
    state = _running_hazard(model, _draw_targets(uniforms).reshape(-1), window)
    hist_nodes = np.empty((rows, N), dtype=np.int64)
    hist_times = np.empty((rows, N))
    sizes = np.empty(rows, dtype=np.int64)
    susceptible = np.ones((rows, N), dtype=bool)
    tentative = np.full((rows, N), math.inf)
    flat_tentative = tentative.reshape(-1)
    live, node, t = np.arange(rows), np.asarray(sources, dtype=np.int64), np.zeros(rows)
    offsets = live * N  # flat index of each live row's first entry
    step = 0
    while live.size:
        hist_nodes[live, step], hist_times[live, step] = node, t
        step += 1
        susceptible[live, node] = False
        tentative[live, node] = math.inf
        open_rows = susceptible[live]
        edges = params[node]
        r, c = (open_rows & (edges != 0.0)).nonzero()
        changed = offsets[r] + c
        if changed.size:
            state.add_parent(changed, edges[r, c], t[r])
        if recompute_all or step == 1:
            r, c = open_rows.nonzero()
            refresh = offsets[r] + c
        else:
            refresh = changed
        if refresh.size:
            flat_tentative[refresh] = state.times(refresh)
        ahead = tentative[live]
        node, t_next = ahead.argmin(axis=1), ahead.min(axis=1)
        tie = t_next <= t  # ulp-level ties keep each row's order strict
        if tie.any():
            t_next[tie] = np.nextafter(t[tie], math.inf)
        going = t_next <= window
        if not going.all():
            sizes[live[~going]] = step
            live, offsets, node, t_next = live[going], offsets[going], node[going], t_next[going]
        t = t_next
    # each cascade owns a copy of its row, so it keeps none of the block alive
    return [
        Cascade._trusted(hist_nodes[k, :n].copy(), hist_times[k, :n].copy())
        for k, n in enumerate(sizes.tolist())
    ]


def simulate_cascade(
    net: Network,
    model: Model,
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
    source = check_node(source, N, "source")
    _check_window(window)
    check_model(net, model)
    if uniforms is None:
        uniforms = np.random.default_rng(rng_seed).random(N)
    else:
        uniforms = np.asarray(uniforms, dtype=np.float64)
        if uniforms.shape != (N,) or np.any(uniforms < 0.0) or np.any(uniforms >= 1.0):
            raise ValueError("uniforms must be N values in [0, 1)")
    return _sample_rows(net, model, np.array([source]), uniforms[None, :], window, recompute_all)[0]


def simulate_set(
    net: Network,
    model: Model,
    num_cascades: int,
    window: float,
    sources: Sequence[int] | None = None,
    rng_seed: int = 0,
) -> CascadeSet:
    """Sample independent cascades; deterministic in ``rng_seed``.

    Sources are drawn uniformly at random unless given; each must be an
    integer node id. Each cascade uses a seed spawned from ``rng_seed`` by
    index, which draws its source (when not given) and then its uniforms.
    The cascades advance in lockstep, a block of them at a time, one event
    per running cascade per step; each comes out bit for bit the cascade
    :func:`simulate_cascade` samples from the same source and uniforms.
    """
    if num_cascades < 0:
        raise ValueError("num_cascades must be nonnegative")
    _check_window(window)
    check_model(net, model)
    N = net.num_nodes
    if sources is not None:
        if len(sources) != num_cascades:
            raise ValueError("need exactly one source per cascade")
        sources = [check_node(s, N, "source", f" of cascade {k}") for k, s in enumerate(sources)]
    children = np.random.SeedSequence(rng_seed).spawn(num_cascades)
    cascades: list[Cascade] = []
    for first in range(0, num_cascades, _BLOCK_CASCADES):
        block = range(first, min(first + _BLOCK_CASCADES, num_cascades))
        starts = np.empty(len(block), dtype=np.int64)
        uniforms = np.empty((len(block), N))
        for row, k in enumerate(block):
            rng = np.random.default_rng(children[k])
            starts[row] = sources[k] if sources is not None else rng.integers(N)
            uniforms[row] = rng.random(N)
        cascades += _sample_rows(net, model, starts, uniforms, window)
    return CascadeSet(N, window, tuple(cascades))
