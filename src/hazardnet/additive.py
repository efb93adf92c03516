"""Likelihood, gradient and constrained MLE for the additive risk model.

The cascade log-likelihood splits into a log-hazard term per non-source
infection, an exposure term per (parent, infected) pair, and a survival term
per (infected, uninfected) pair. The negative log-likelihood is convex in
the rate matrix and separates over target-node columns, so the solver runs
one projected-Newton subproblem per column, each step one LU solve, and
stops it on the column's KKT residual. Each column is its exposure
coefficients plus the dense explained infection x parent kernel matrix G:
(G @ x)[k] is the total hazard at explained infection k. A column is built
in one pass over the cascades of the packed set (:mod:`hazardnet.optim`)
that infect its target after their source; the exposure the other cascades
add ends at the window, and one matrix product over the packed set gives it
for every column at once. The solver, the set gradient and the KKT residual
all read that one layout, and the shared column runner in
:mod:`hazardnet.optim` solves the columns one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .optim import ColumnFit, PackedCascades, pseudo_gradient, solve_columns
from .shaping import ShapingFunction
from .types import (
    ADDITIVE,
    Cascade,
    CascadeSet,
    InferenceResult,
    Network,
    check_model,
    check_pairing,
    check_universe,
    check_window,
)

_ARMIJO = 1e-4
_MIN_STEP = 1e-20
_EPSILON_CAP = 0.1  # largest epsilon-active threshold
_START = 0.1  # every off-diagonal rate's start without an ``init``
_RIDGE = 1e-12  # Hessian ridge, relative to its largest diagonal entry


@dataclass(frozen=True)
class AdditiveConfig:
    """Solver knobs for :func:`infer_additive`.

    A column is converged once its KKT residual (|gradient| on positive
    entries, the negative part of the gradient on zero entries) is at most
    ``tol * max(1, largest exposure coefficient of the column)``; the
    exposure coefficients are the linear part of the column NLL, so the
    bound scales with the data. ``max_iters`` caps the Newton steps per
    column.
    """

    shaping: ShapingFunction
    max_iters: int = 2000
    tol: float = 1e-8

    def __post_init__(self) -> None:
        check_pairing(self.shaping, ADDITIVE)
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
    check_model(net, shaping, ADDITIVE)
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
        ll -= float(shaping.cumulative(times, window) @ uninfected_mass)
    return ll


def additive_set_loglik(net: Network, shaping: ShapingFunction, cs: CascadeSet) -> float:
    """Sum of per-cascade log-likelihoods over the whole set."""
    check_model(net, shaping, ADDITIVE)
    check_universe(net, cs)
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
    check_model(net, shaping, ADDITIVE)
    check_window(cascade, window)
    A = net.params
    nodes, times = cascade.nodes, cascade.times
    ll = 0.0
    for r in range(1, nodes.size):
        parents, pt, ti = nodes[:r], times[:r], times[r]
        alphas = A[parents, nodes[r]]
        pair_hazards = alphas * shaping.hazard(pt, ti)
        pair_survivals = np.exp(-alphas * shaping.cumulative(pt, ti))
        density = float(pair_hazards.sum()) * float(np.prod(pair_survivals))
        if density <= 0.0:
            return -math.inf
        ll += math.log(density)
    all_nodes = np.arange(net.num_nodes)
    uninfected = np.setdiff1d(all_nodes, nodes, assume_unique=True)
    if uninfected.size:
        survival = shaping.cumulative(times, window)
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
    where j is infected and i is not. Column i is (1 / (K @ x)) @ K - exposure
    for the column's kernel matrix K, the negated column-NLL gradient the
    solver uses. Diagonal entries stay zero.
    """
    check_model(net, shaping, ADDITIVE)
    check_universe(net, cs)
    packed = PackedCascades(cs)
    window = _window_exposure(packed, shaping)
    grad = np.zeros((net.num_nodes, net.num_nodes))
    for i in range(net.num_nodes):
        exposure, G = _column(packed, shaping, i, window[:, i])
        rates = G @ net.params[:, i]
        if np.any(rates <= 0.0):
            raise ValueError(
                "zero hazard at an observed infection: the log-likelihood "
                "is -inf here and has no gradient"
            )
        grad[:, i] = (1.0 / rates) @ G - exposure
    return grad


def additive_kkt_violation(net: Network, shaping: ShapingFunction, cs: CascadeSet) -> float:
    """Largest first-order optimality violation of the nonnegative MLE.

    For the negative log-likelihood gradient g: |g| on strictly positive
    entries, max(0, -g) on entries at the zero boundary, the nonnegative
    unpenalized case of :func:`hazardnet.optim.pseudo_gradient`. The
    diagonal's gradient is zero, so it adds none.
    """
    grad = -additive_gradient(net, shaping, cs)
    return float(np.abs(pseudo_gradient(net.params, grad, 0.0, signed=False)[0]).max())


class _Column(NamedTuple):
    """One target column's likelihood data: the linear NLL coefficients and
    the M x N kernel matrix, whose row k holds the kernel values of explained
    infection k's parents, so (kernels @ x)[k] is its total hazard."""

    exposure: np.ndarray
    kernels: np.ndarray


def _window_exposure(packed: PackedCascades, shaping: ShapingFunction) -> np.ndarray:
    """Entry (j, i): node j's kernel integral from its infection to the
    window, summed over the cascades that leave node i uninfected.

    Column i is the exposure those cascades add to column i, for every
    target at once: the C x N matrix of window integrals (zero where a node
    is absent) times the C x N "uninfected" indicator.
    """
    integrals = np.zeros(packed.positions.shape)
    integrals[packed.cascades.ids, packed.nodes] = shaping.cumulative(packed.times, packed.window)
    return integrals.T @ (packed.positions < 0).astype(np.float64)


def _column(
    packed: PackedCascades, shaping: ShapingFunction, target: int, uninfected: np.ndarray
) -> _Column:
    """Build the target column from the packed cascade set.

    Only the cascades that infect the target after their source are read:
    each event before that infection is one of its parents, adds its kernel
    integral up to the infection to the exposure and fills the infection's
    row of the kernel matrix. ``uninfected`` is the exposure the other
    cascades add, column ``target`` of :func:`_window_exposure`.
    """
    events, segments, hit = packed.prefix(target, infected_only=True)
    ends = packed.times[hit][segments.ids]
    nodes, times = packed.nodes[events], packed.times[events]
    N, M = packed.num_nodes, hit.size
    exposure = np.bincount(nodes, weights=shaping.cumulative(times, ends), minlength=N)
    kernels = np.bincount(
        segments.ids * N + nodes, weights=shaping.hazard(times, ends), minlength=M * N
    )
    return _Column(exposure + uninfected, kernels.reshape(M, N))


def _solve_column(column: _Column, cfg: AdditiveConfig, x0: np.ndarray) -> ColumnFit:
    """Projected Newton (Bertsekas 1982) on one column NLL.

    The NLL is exposure @ x - sum(log(G @ x)) over x >= 0; its Hessian is
    W.T @ W with W = G / (G @ x). Entries with no kernel mass at any
    explained infection (their node is never its parent) carry only the
    linear term with exposure >= 0 and end at exactly 0. Zero entries of a
    start that leaves an infection unexplained start at 0.1 instead. Each
    step takes a Newton step on the free entries (one LU solve, see
    :func:`_newton_step`) and a Hessian-diagonal-scaled gradient step on
    the epsilon-active ones
    ({x <= eps, g > 0}, eps = min(0.1, residual)), with Armijo backtracking
    along the projection arc. The column stops with status "kkt_ok" once its
    KKT residual is at most tol * max(1, max(exposure)), "stalled" when the
    line search finds no step and "iteration_cap" at ``max_iters`` steps.
    """
    exposure, G = column
    x = np.zeros(exposure.size)
    evidence = G.any(axis=0)
    if not evidence.any():
        return x, 0.0, 0, "kkt_ok"
    G, coef, v = G[:, evidence], exposure[evidence], x0[evidence]
    limit = cfg.tol * max(1.0, float(exposure.max()))
    rates = G @ v
    if np.any(rates <= 0.0):
        # the start leaves an infection unexplained: lift its zero entries
        v = np.where(v > 0.0, v, _START)
        rates = G @ v
    squares = G * G
    iterations = 0
    while True:
        inverse = 1.0 / rates
        grad = coef - inverse @ G
        worst = float(np.abs(pseudo_gradient(v, grad, 0.0, signed=False)[0]).max())
        if worst <= limit:
            status = "kkt_ok"
            break
        if iterations == cfg.max_iters:
            status = "iteration_cap"
            break
        active = (v <= min(_EPSILON_CAP, worst)) & (grad > 0.0)
        free = ~active
        curvature = (inverse * inverse) @ squares
        direction = -grad / curvature
        if free.any():
            W = G[:, free]
            W *= inverse[:, None]
            direction[free] = _newton_step(W, grad[free], curvature[free])
        slope = float(grad[free] @ direction[free])
        step = 1.0
        while step >= _MIN_STEP:
            delta = np.maximum(v + step * direction, 0.0) - v
            change = G @ delta
            ratio = change / rates
            if (ratio > -1.0).all():
                decrease = float(coef @ delta - np.log1p(ratio).sum())
                bound = step * slope + float(grad[active] @ delta[active])
                if decrease <= _ARMIJO * bound:
                    break
            step *= 0.5
        if step < _MIN_STEP:
            status = "stalled"
            break
        v = v + delta
        rates = rates + change
        iterations += 1
    x[evidence] = v
    return x, float(coef @ v - np.log(G @ v).sum()), iterations, status


def _newton_step(W: np.ndarray, grad: np.ndarray, curvature: np.ndarray) -> np.ndarray:
    """-(W.T @ W)^-1 @ grad with a tiny ridge, by one LU solve.

    Falls back to the diagonal step -grad / curvature when the solve finds
    the matrix singular, or returns a non-finite step or one that is not a
    descent direction.
    """
    H = W.T @ W
    H.flat[:: H.shape[0] + 1] += _RIDGE * float(curvature.max())
    try:
        step = np.linalg.solve(H, -grad)
    except np.linalg.LinAlgError:
        return -grad / curvature
    if np.isfinite(step).all() and float(grad @ step) < 0.0:
        return step
    return -grad / curvature


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
    packed = PackedCascades(cs)
    window = _window_exposure(packed, cfg.shaping)

    def solve(i: int, x0: np.ndarray):
        column = _column(packed, cfg.shaping, i, window[:, i])
        if not column.kernels.any(axis=1).all():
            raise ValueError(
                f"node {i} has an infection that no parameter can explain "
                "(all parent kernels vanish at its infection time)"
            )
        return _solve_column(column, cfg, x0)

    return solve_columns(cs, ADDITIVE, init, _START, solve)
