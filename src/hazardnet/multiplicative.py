"""Likelihood, gradient, support restriction and L1 MLE for the
multiplicative risk model.

Influences enter the hazard as exp(alpha), so the cascade log-likelihood is
a linear term (one count per ordered co-infection) minus a sum of
exponentials of partial influence totals — convex in the matrix. Pairs never
co-infected in order carry no upward pressure and would run off to -inf, so
they are frozen at zero through a support mask built from the data; the
remaining entries are estimated by proximal gradient with soft-thresholding.

The packed cascade set of :mod:`hazardnet.optim` supplies the interval
weights, the co-infection counts (the support mask is count > 0) and each
column's exposure intervals; the set gradient reads the same columns, and
the shared column runner there solves them one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .optim import (
    PackedCascades,
    Segments,
    relative_change,
    segment_cumsum,
    segment_reverse_cumsum,
    soft_threshold,
    solve_columns,
)
from .shaping import Baseline
from .types import (
    MULTIPLICATIVE,
    Cascade,
    CascadeSet,
    InferenceResult,
    Network,
    check_kind,
    check_window,
)

_MIN_STEP = 1e-20


@dataclass(frozen=True)
class MultiplicativeConfig:
    """Solver knobs for :func:`infer_multiplicative`.

    ``l1_penalty`` of None picks the scale-aware default
    0.01 * num_cascades / num_nodes at solve time.
    """

    baseline: Baseline
    l1_penalty: float | None = None
    max_iters: int = 2000
    tol: float = 1e-8
    accelerate: bool = False

    def __post_init__(self) -> None:
        if self.l1_penalty is not None and self.l1_penalty < 0.0:
            raise ValueError("l1_penalty must be nonnegative")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


@dataclass(frozen=True)
class SupportMask:
    """Boolean matrix of ordered pairs that co-occur in some cascade.

    Entry (j, i) is True iff a cascade infected both with j strictly first.
    Parameters outside the mask stay frozen at zero everywhere.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=bool, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("mask must be square")
        if np.any(np.diagonal(m)):
            raise ValueError("mask diagonal must be False")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def num_nodes(self) -> int:
        return int(self.matrix.shape[0])

    def count(self) -> int:
        return int(self.matrix.sum())


class SignedEdge(NamedTuple):
    source: int
    target: int
    sign: int
    weight: float


def build_support(cs: CascadeSet) -> SupportMask:
    """Mask of ordered node pairs co-infected in at least one cascade."""
    return SupportMask(PackedCascades(cs).coinfection_counts() > 0.0)


def _masked_params(net: Network, mask: SupportMask) -> np.ndarray:
    if mask.num_nodes != net.num_nodes:
        raise ValueError("mask and network sizes differ")
    return np.where(mask.matrix, net.params, 0.0)


def _interval_weights(cascade: Cascade, baseline: Baseline, window: float) -> np.ndarray:
    """Baseline integral of each inter-event interval, last one ending at T.

    A target infected at event position r accumulates the first r weights;
    an uninfected target accumulates all of them.
    """
    rights = np.concatenate([cascade.times[1:], [window]])
    return np.asarray(baseline.integral(cascade.times, rights), dtype=np.float64)


def multiplicative_cascade_loglik(
    net: Network, baseline: Baseline, mask: SupportMask, cascade: Cascade, window: float
) -> float:
    """Log-likelihood of one cascade, restricted to masked parameters.

    Per non-source infection: masked influences of earlier nodes, plus the
    log baseline rate, minus the cumulative hazard up to the infection.
    Uninfected nodes contribute their cumulative hazard over the window.

    Evaluated in array form over the event x node matrix of masked
    influences: its running sum down the events is every node's influence
    prefix, and the running sum of exp(prefix) times the interval weights is
    every node's cumulative hazard. An infected target reads both at the row
    before its own event, an uninfected node reads the hazard at the last row.

    Returns -inf when an infection falls where the baseline rate is zero
    (e.g. before the inverse baseline's ``epsilon``). Raises ValueError when
    an infection lies beyond ``window``.
    """
    check_kind(net, MULTIPLICATIVE)
    check_window(cascade, window)
    A = _masked_params(net, mask)
    nodes, times = cascade.nodes, cascade.times
    weights = _interval_weights(cascade, baseline, window)
    prefix = np.cumsum(A[nodes], axis=0)
    # a node's cells past its own infection are never read and may overflow
    with np.errstate(over="ignore"):
        exposure = np.cumsum(np.exp(prefix) * weights[:, None], axis=0)
    before, targets = np.arange(nodes.size - 1), nodes[1:]
    ll = float(prefix[before, targets].sum())
    ll += float(np.sum(baseline.log_rate(times[1:])))
    ll -= float(exposure[before, targets].sum())
    uninfected = np.ones(net.num_nodes, dtype=bool)
    uninfected[nodes] = False
    ll -= float(exposure[-1, uninfected].sum())
    return ll


def multiplicative_set_loglik(
    net: Network, baseline: Baseline, mask: SupportMask, cs: CascadeSet
) -> float:
    """Sum of per-cascade log-likelihoods over the whole set.

    Only parameters inside ``mask`` enter; -inf if any cascade is -inf.
    """
    return float(
        sum(multiplicative_cascade_loglik(net, baseline, mask, c, cs.window) for c in cs)
    )


def multiplicative_gradient(
    net: Network, baseline: Baseline, mask: SupportMask, cs: CascadeSet
) -> np.ndarray:
    """Gradient of the masked set log-likelihood; zero outside the mask.

    Entry (k, i): one per cascade where k precedes i's infection, minus the
    part of i's cumulative exposure accrued while k was already infected.
    Each column is the negated column-NLL gradient the solver uses, gathered
    from the packed cascade set.
    """
    check_kind(net, MULTIPLICATIVE)
    A = _masked_params(net, mask)
    packed = PackedCascades(cs)
    weights = packed.interval_weights(baseline)
    counts = packed.coinfection_counts()
    grad = np.zeros((net.num_nodes, net.num_nodes))
    for i in range(net.num_nodes):
        column = _column(packed, weights, i)
        _, lam = _exposure(column, A[:, i])
        grad[:, i] = -_nll_gradient(column, lam, counts[:, i])
    grad[~mask.matrix] = 0.0
    return grad


def multiplicative_kkt_violation(
    net: Network,
    baseline: Baseline,
    mask: SupportMask,
    cs: CascadeSet,
    l1_penalty: float,
) -> float:
    """Largest violation of the L1-subdifferential optimality conditions."""
    nll_grad = -multiplicative_gradient(net, baseline, mask, cs)
    worst = 0.0
    active = mask.matrix & (net.params != 0.0)
    zero = mask.matrix & (net.params == 0.0)
    if active.any():
        resid = nll_grad[active] + l1_penalty * np.sign(net.params[active])
        worst = max(worst, float(np.abs(resid).max()))
    if zero.any():
        resid = np.maximum(np.abs(nll_grad[zero]) - l1_penalty, 0.0)
        worst = max(worst, float(resid.max()))
    return worst


def extract_signed_edges(net: Network, threshold: float) -> list[SignedEdge]:
    """Edges with |influence| above ``threshold``, labeled by sign."""
    check_kind(net, MULTIPLICATIVE)
    out: list[SignedEdge] = []
    for j, i in np.argwhere(np.abs(net.params) > threshold):
        w = float(net.params[j, i])
        out.append(SignedEdge(int(j), int(i), 1 if w > 0 else -1, w))
    return out


class _Column(NamedTuple):
    """The target's exposure intervals across cascades: the node whose
    influence enters each interval and the interval's baseline integral."""

    nodes: np.ndarray
    weights: np.ndarray
    segments: Segments


def _column(packed: PackedCascades, weights: np.ndarray, target: int) -> _Column:
    events, segments, _ = packed.prefix(target)
    return _Column(packed.nodes[events], weights[events], segments)


def _exposure(column: _Column, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Cumulative hazard of the column's target and its per-interval terms."""
    with np.errstate(over="ignore"):
        prefix = segment_cumsum(x[column.nodes], column.segments)
        lam = np.exp(prefix) * column.weights
    return float(lam.sum()), lam


def _nll_gradient(column: _Column, lam: np.ndarray, count_col: np.ndarray) -> np.ndarray:
    """Gradient of the column NLL from the terms :func:`_exposure` returns."""
    pulls = segment_reverse_cumsum(lam, column.segments)
    return np.bincount(column.nodes, weights=pulls, minlength=count_col.size) - count_col


def _solve_column_mult(
    free: np.ndarray,
    count_col: np.ndarray,
    const: float,
    column: _Column,
    penalty: float,
    cfg: MultiplicativeConfig,
    x0: np.ndarray,
) -> tuple[np.ndarray, list[float], bool, int]:
    """Proximal gradient with backtracking on one column's penalized NLL.

    With ``accelerate`` the extrapolated step is used, restarting the
    momentum whenever it would increase the objective, so the recorded
    trace stays nonincreasing in both modes.
    """
    N = count_col.size

    def value_and_cache(x: np.ndarray) -> tuple[float, np.ndarray]:
        exposure, lam = _exposure(column, x)
        return float(exposure - count_col @ x - const), lam

    def penalized(smooth_value: float, x: np.ndarray) -> float:
        return smooth_value + penalty * float(np.abs(x[free]).sum())

    x = np.zeros(N)
    x[free] = x0[free]
    if free.size == 0:
        return x, [value_and_cache(x)[0]], True, 0
    f, lam = value_and_cache(x)
    grad = _nll_gradient(column, lam, count_col)
    objective = penalized(f, x)
    trace = [objective]
    base, f_base, grad_base = x, f, grad  # extrapolation point (== x when plain)
    t_k = 1.0
    step = 1.0
    converged = False
    iterations = 0

    def prox_step_from(point, f_point, grad_point, step):
        while True:
            cand = np.zeros(N)
            cand[free] = soft_threshold(point[free] - step * grad_point[free], step * penalty)
            f_cand, lam_cand = value_and_cache(cand)
            diff = cand[free] - point[free]
            model = f_point + float(grad_point[free] @ diff) + float(diff @ diff) / (2.0 * step)
            if math.isfinite(f_cand) and f_cand <= model + 1e-12 * abs(model):
                return cand, f_cand, lam_cand, step
            step *= 0.5
            if step < _MIN_STEP:
                return None, f_point, None, step

    for iterations in range(1, cfg.max_iters + 1):
        step *= 2.0
        cand, f_cand, lam_cand, step = prox_step_from(base, f_base, grad_base, step)
        if cand is None:
            return x, trace, True, iterations - 1
        if cfg.accelerate and penalized(f_cand, cand) > objective and base is not x:
            # momentum overshoot: restart from the last accepted point
            t_k = 1.0
            cand, f_cand, lam_cand, step = prox_step_from(x, f, grad, step)
            if cand is None:
                return x, trace, True, iterations - 1
        previous_x, previous_obj = x, objective
        x, f = cand, f_cand
        grad = _nll_gradient(column, lam_cand, count_col)
        objective = penalized(f, x)
        trace.append(objective)
        if relative_change(previous_obj, objective) < cfg.tol:
            converged = True
            break
        if cfg.accelerate:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_k * t_k))
            base = x + ((t_k - 1.0) / t_next) * (x - previous_x)
            t_k = t_next
            f_base, lam_at_base = value_and_cache(base)
            grad_base = _nll_gradient(column, lam_at_base, count_col)
        else:
            base, f_base, grad_base = x, f, grad
    return x, trace, converged, iterations


def infer_multiplicative(
    cs: CascadeSet,
    cfg: MultiplicativeConfig,
    init: Network | np.ndarray | None = None,
) -> InferenceResult:
    """L1-regularized MLE of the multiplicative influence matrix.

    Parameters outside the data's support mask are frozen at zero and never
    enter the objective. Columns solve independently.
    """
    if len(cs) == 0:
        raise ValueError("need at least one cascade to infer from")
    packed = PackedCascades(cs)
    counts = packed.coinfection_counts()
    penalty = cfg.l1_penalty if cfg.l1_penalty is not None else 0.01 * len(cs) / cs.num_nodes
    weights = packed.interval_weights(cfg.baseline)
    infections = packed.rank > 0
    rates = np.asarray(cfg.baseline.log_rate(packed.times[infections]))
    if not np.all(np.isfinite(rates)):
        raise ValueError(
            "an infection time lies outside the baseline's support "
            "(log rate is -inf there)"
        )
    const = np.bincount(packed.nodes[infections], weights=rates, minlength=cs.num_nodes)

    def solve(i: int, x0: np.ndarray):
        free = np.nonzero(counts[:, i])[0]
        column = _column(packed, weights, i)
        return _solve_column_mult(free, counts[:, i], float(const[i]), column, penalty, cfg, x0)

    return solve_columns(cs, MULTIPLICATIVE, init, 0.0, solve)
