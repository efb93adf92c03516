"""Likelihood, gradient and constrained MLE for the additive risk model.

The cascade log-likelihood splits into a log-hazard term per non-source
infection, an exposure term per (parent, infected) pair, and a survival term
per (infected, uninfected) pair. The negative log-likelihood is convex in
the rate matrix and separates over target-node columns, so the solver runs
one projected-gradient subproblem per column. Each column's data (exposure
coefficients, parents and kernel values of each explained infection) is
gathered from the packed cascade set of :mod:`hazardnet.optim`; the set
gradient reads the same columns, and the shared column runner there solves
them one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .optim import PackedCascades, Segments, relative_change, segment_sums, solve_columns
from .shaping import ShapingFunction
from .types import (
    ADDITIVE,
    Cascade,
    CascadeSet,
    InferenceResult,
    Network,
    check_kind,
    check_window,
)

_ARMIJO = 1e-4
_MIN_STEP = 1e-20


@dataclass(frozen=True)
class AdditiveConfig:
    """Solver knobs for :func:`infer_additive`."""

    shaping: ShapingFunction
    max_iters: int = 2000
    tol: float = 1e-8

    def __post_init__(self) -> None:
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


def additive_cascade_loglik(
    net: Network, shaping: ShapingFunction, cascade: Cascade, window: float
) -> float:
    """Log-likelihood of one cascade under the additive model.

    Evaluated in array form over the parent x event matrix of infection ages:
    entry (p, e) is the kernel of the p-th infected node at the e-th
    infection time, which the kernels define as zero unless p was infected
    first. Column sums of the rate-weighted kernels give each infection's
    total hazard; the weighted cumulative kernels give the exposure term.

    Returns -inf when some non-source infection has zero total hazard at its
    own infection time, i.e. no parameter value can explain the event.
    Raises ValueError when an infection lies beyond ``window``.
    """
    check_kind(net, ADDITIVE)
    check_window(cascade, window)
    A = net.params
    nodes, times = cascade.nodes, cascade.times
    from_infected = A[nodes]
    among_infected = from_infected[:, nodes]
    parent_times, event_times = times[:, None], times[None, :]
    gamma = shaping.hazard(parent_times, event_times)
    rates = (among_infected * gamma).sum(axis=0)[1:]
    if (rates <= 0.0).any():
        return -math.inf
    ll = float(np.log(rates).sum())
    ll -= float((among_infected * shaping.cumulative(parent_times, event_times)).sum())
    uninfected_mass = from_infected.sum(axis=1) - among_infected.sum(axis=1)
    if np.any(uninfected_mass != 0.0):
        survival = np.asarray(shaping.cumulative(times, window))
        ll -= float(survival @ uninfected_mass)
    return ll


def additive_set_loglik(net: Network, shaping: ShapingFunction, cs: CascadeSet) -> float:
    """Sum of per-cascade log-likelihoods over the whole set."""
    return float(sum(additive_cascade_loglik(net, shaping, c, cs.window) for c in cs))


def independent_cascade_loglik(
    net: Network, shaping: ShapingFunction, cascade: Cascade, window: float
) -> float:
    """Same likelihood computed through the pairwise-transmission route.

    Each infection's density is assembled in probability space as (sum of
    pairwise hazards) times (product of pairwise survivals), the way the
    independent cascade family defines it; uninfected nodes contribute the
    product of their pairwise survivals past the window.
    """
    check_kind(net, ADDITIVE)
    check_window(cascade, window)
    A = net.params
    nodes, times = cascade.nodes, cascade.times
    ll = 0.0
    for r in range(1, nodes.size):
        parents, pt, ti = nodes[:r], times[:r], times[r]
        alphas = A[parents, nodes[r]]
        pair_hazards = alphas * np.asarray(shaping.hazard(pt, ti))
        pair_survivals = np.exp(-alphas * np.asarray(shaping.cumulative(pt, ti)))
        density = float(pair_hazards.sum()) * float(np.prod(pair_survivals))
        if density <= 0.0:
            return -math.inf
        ll += math.log(density)
    all_nodes = np.arange(net.num_nodes)
    uninfected = np.setdiff1d(all_nodes, nodes, assume_unique=True)
    if uninfected.size:
        survival = np.asarray(shaping.cumulative(times, window))
        for n in uninfected:
            prob = float(np.prod(np.exp(-A[nodes, n] * survival)))
            if prob <= 0.0:
                return -math.inf
            ll += math.log(prob)
    return ll


def additive_gradient(net: Network, shaping: ShapingFunction, cs: CascadeSet) -> np.ndarray:
    """Gradient of the set log-likelihood with respect to the rate matrix.

    Entry (j, i) accumulates gamma/IR - G over cascades where both are
    infected with j first (IR the total hazard at i's infection), and -G(T)
    where j is infected and i is not. Each column is the negated column-NLL
    gradient the solver uses, gathered from the packed cascade set.
    Diagonal entries stay zero.
    """
    check_kind(net, ADDITIVE)
    packed = PackedCascades(cs)
    grad = np.zeros((net.num_nodes, net.num_nodes))
    for i in range(net.num_nodes):
        column = _column(packed, shaping, i)
        rates = _rates(column, net.params[:, i])
        if np.any(rates <= 0.0):
            raise ValueError(
                "zero hazard at an observed infection: the log-likelihood "
                "is -inf here and has no gradient"
            )
        grad[:, i] = -_nll_gradient(column, rates)
    return grad


def additive_kkt_violation(net: Network, shaping: ShapingFunction, cs: CascadeSet) -> float:
    """Largest first-order optimality violation of the nonnegative MLE.

    For the negative log-likelihood g: |g| on strictly positive entries,
    max(0, -g) on entries at the zero boundary. Diagonal excluded.
    """
    nll_grad = -additive_gradient(net, shaping, cs)
    off = ~np.eye(net.num_nodes, dtype=bool)
    positive = off & (net.params > 0.0)
    boundary = off & (net.params == 0.0)
    worst = 0.0
    if positive.any():
        worst = max(worst, float(np.abs(nll_grad[positive]).max()))
    if boundary.any():
        worst = max(worst, float(np.maximum(-nll_grad[boundary], 0.0).max()))
    return worst


class _Column(NamedTuple):
    """One target column's likelihood data: the linear NLL coefficients
    plus one ragged gamma row per explained infection."""

    exposure: np.ndarray
    parents: np.ndarray
    gamma: np.ndarray
    segments: Segments


def _column(packed: PackedCascades, shaping: ShapingFunction, target: int) -> _Column:
    """Gather the target column's data from the packed cascade set.

    Every event before the target's infection (or all events, where it
    stays uninfected) adds its kernel integral up to that infection (or the
    window) to the exposure; the ones before an infection are its parents.
    """
    events, segments, hit = packed.prefix(target)
    infected = hit >= 0
    ends = np.where(infected, packed.times[hit], packed.window)[segments.ids]
    nodes, times = packed.nodes[events], packed.times[events]
    exposure = np.bincount(
        nodes, weights=shaping.cumulative(times, ends), minlength=packed.num_nodes
    )
    explained = infected[segments.ids]
    gamma = np.asarray(shaping.hazard(times[explained], ends[explained]))
    return _Column(
        exposure, nodes[explained], gamma, Segments.of_lengths(segments.lengths[infected])
    )


def _rates(column: _Column, x: np.ndarray) -> np.ndarray:
    """Total hazard at each explained infection."""
    return segment_sums(x[column.parents] * column.gamma, column.segments)


def _nll_gradient(column: _Column, rates: np.ndarray) -> np.ndarray:
    """Gradient of the column NLL, given the hazards :func:`_rates` returns."""
    weights = column.gamma / rates[column.segments.ids]
    return column.exposure - np.bincount(
        column.parents, weights=weights, minlength=column.exposure.size
    )


def _solve_column(
    target: int, column: _Column, cfg: AdditiveConfig, x0: np.ndarray
) -> tuple[np.ndarray, list[float], bool, int]:
    """Projected gradient with Armijo backtracking on one column NLL."""
    exposure = column.exposure
    N = exposure.size
    if column.parents.size == 0:
        # Only survival pressure: the nonnegative minimizer is exactly zero.
        return np.zeros(N), [0.0], True, 0

    def value(x: np.ndarray) -> float:
        sums = _rates(column, x)
        if np.any(sums <= 0.0):
            return math.inf
        return float(exposure @ x - np.log(sums).sum())

    def gradient(x: np.ndarray) -> np.ndarray:
        return _nll_gradient(column, _rates(column, x))

    x = x0.copy()
    x[target] = 0.0
    f = value(x)
    trace = [f]
    grad = gradient(x)
    step = 1.0
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iters + 1):
        step *= 2.0
        while True:
            cand = np.maximum(x - step * grad, 0.0)
            f_cand = value(cand)
            if f_cand <= f + _ARMIJO * float(grad @ (cand - x)):
                break
            step *= 0.5
            if step < _MIN_STEP:
                return x, trace, True, iterations - 1
        previous = f
        x, f = cand, f_cand
        trace.append(f)
        if relative_change(previous, f) < cfg.tol:
            converged = True
            break
        grad = gradient(x)
    return x, trace, converged, iterations


def infer_additive(
    cs: CascadeSet,
    cfg: AdditiveConfig,
    init: Network | np.ndarray | None = None,
) -> InferenceResult:
    """Nonnegativity-constrained MLE of the additive rate matrix.

    The objective separates over target columns; each column is solved
    independently. Columns whose node is never infected after another node
    are zero immediately.
    """
    if len(cs) == 0:
        raise ValueError("need at least one cascade to infer from")
    packed = PackedCascades(cs)

    def solve(i: int, x0: np.ndarray):
        column = _column(packed, cfg.shaping, i)
        if np.any(segment_sums(column.gamma, column.segments) <= 0.0):
            raise ValueError(
                f"node {i} has an infection that no parameter can explain "
                "(all parent kernels vanish at its infection time)"
            )
        return _solve_column(i, column, cfg, x0)

    return solve_columns(cs, ADDITIVE, init, 0.1, solve)
