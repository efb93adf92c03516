"""Likelihood, gradient, support restriction and L1 MLE for the
multiplicative risk model.

Influences enter the hazard as exp(alpha), so the cascade log-likelihood is
a linear term (one count per ordered co-infection) minus a sum of
exponentials of partial influence totals — convex in the matrix. Pairs never
co-infected in order carry no upward pressure and would run off to -inf, so
they are frozen at zero through a support mask built from the data; the
remaining entries are the L1-penalized MLE, solved column by column by a
working-set orthant-wise Newton method that stops on the column's KKT
residual (see :class:`MultiplicativeConfig`).

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
    ColumnFit,
    PackedCascades,
    Segments,
    pseudo_gradient,
    segment_cumsum,
    segment_reverse_cumsum,
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
    check_model,
    check_pairing,
    check_universe,
    check_window,
)

_ARMIJO = 1e-4
_MIN_STEP = 1e-20
_GROWTH = 10  # violators a working set takes beyond its support's size
_WAITING = 0.1  # inner bound, relative to the worst violator left out of W
_TINY = np.finfo(np.float64).tiny
_CHUNK = 1 << 16  # blocks per Hessian accumulation


@dataclass(frozen=True)
class MultiplicativeConfig:
    """Solver knobs for :func:`infer_multiplicative`.

    ``l1_penalty`` of None picks the scale-aware default
    0.01 * num_cascades / num_nodes at solve time; a given one must be
    finite and nonnegative. A column is converged once its KKT residual
    (|g + l1_penalty * sign(x)| on nonzero entries, |g| - l1_penalty past
    zero on zero ones, over the entries inside the support mask) is at most
    ``tol * max(1, largest co-infection count of the column)``; the counts
    are the linear part of the column NLL, so the bound scales with the
    data. ``max_iters`` caps the Newton steps per column.
    """

    baseline: Baseline
    l1_penalty: float | None = None
    max_iters: int = 2000
    tol: float = 1e-8

    def __post_init__(self) -> None:
        check_pairing(self.baseline, MULTIPLICATIVE)
        if self.l1_penalty is not None and not 0.0 <= self.l1_penalty < math.inf:
            raise ValueError("l1_penalty must be finite and nonnegative")
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
    check_model(net, baseline, MULTIPLICATIVE)
    check_window(cascade, window)
    A = _masked_params(net, mask)
    nodes, times = cascade.nodes, cascade.times
    weights = baseline.integral(times, np.append(times[1:], window))
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
    check_model(net, baseline, MULTIPLICATIVE)
    check_universe(net, cs)
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
    check_model(net, baseline, MULTIPLICATIVE)
    check_universe(net, cs)
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
    """Largest violation of the L1-subdifferential optimality conditions.

    For the negative log-likelihood gradient g, over the entries inside the
    mask: |g + l1_penalty * sign(x)| on nonzero entries, max(0, |g| -
    l1_penalty) on zero ones, the |pseudo-gradient| of
    :func:`hazardnet.optim.pseudo_gradient`.
    """
    nll_grad = -multiplicative_gradient(net, baseline, mask, cs)
    pg = pseudo_gradient(net.params, nll_grad, l1_penalty, signed=True)[0]
    return float(np.abs(pg[mask.matrix]).max(initial=0.0))


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


class _Blocks(NamedTuple):
    """A column restricted to a working set W of its nodes.

    Each cascade segment is cut wherever a W node enters; a block runs from
    that entry to the next one (or the segment's end) and carries the summed
    weights of its intervals. The intervals before a segment's first W entry
    keep a fixed hazard and are left out. Block b is preceded by
    ``earlier[b]`` entries of its cascade, and ``pairs`` lists, block by
    block, the flat Hessian index node(a) * |W| + node(b) of each of them;
    ``pair_ends[b]`` is where block b's run ends. A full working set over
    thousands of cascades has millions of pairs, so they are kept as int32.
    """

    nodes: np.ndarray  # position in W of each block's entering node
    weights: np.ndarray
    segments: Segments
    earlier: np.ndarray
    pairs: np.ndarray
    pair_ends: np.ndarray


def _restrict(column: _Column, working: np.ndarray, size: int) -> _Blocks:
    """The column's blocks for the working set ``working`` of ``size`` nodes."""
    local = np.full(size, -1)
    local[working] = np.arange(working.size)
    position = local[column.nodes]
    entry = position >= 0
    starts = np.flatnonzero(entry)
    seen = np.cumsum(entry)
    offsets, ids = column.segments.offsets, column.segments.ids
    inside = seen > (seen[offsets] - entry[offsets])[ids]
    weights = np.bincount(seen[inside] - 1, weights=column.weights[inside], minlength=starts.size)
    lengths = np.bincount(ids[starts], minlength=offsets.size)
    segments = Segments.of_lengths(lengths[lengths > 0])
    nodes = position[starts]
    first = segments.offsets[segments.ids]
    earlier = np.arange(starts.size) - first
    pair_ends = np.cumsum(earlier)
    # the k-th pair of block b, at pair_ends[b] - earlier[b] + k, is entry first[b] + k
    partner = np.arange(pair_ends[-1], dtype=np.int32)  # every W node enters somewhere
    partner -= np.repeat((pair_ends - earlier - first).astype(np.int32), earlier)
    narrow = nodes.astype(np.int32)
    pairs = narrow[partner]
    del partner  # as large as pairs: free it before the next temporary
    pairs *= working.size
    pairs += np.repeat(narrow, earlier)
    return _Blocks(nodes, weights, segments, earlier, pairs, pair_ends)


def _block_hazards(blocks: _Blocks, v: np.ndarray) -> np.ndarray:
    """Hazard accrued in each block at working-set values ``v``."""
    return np.exp(segment_cumsum(v[blocks.nodes], blocks.segments)) * blocks.weights


def _hazard_change(blocks: _Blocks, lam: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Change of each block's hazard ``lam`` when the values move by ``delta``."""
    return lam * np.expm1(segment_cumsum(delta[blocks.nodes], blocks.segments))


def _block_pulls(blocks: _Blocks, lam: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Each block's pull (its hazard plus that of every later block of its
    cascade) and each W node's summed pulls, the exposure part of the
    restricted column NLL's gradient."""
    pulls = segment_reverse_cumsum(lam, blocks.segments)
    return pulls, np.bincount(blocks.nodes, weights=pulls, minlength=size)


def _block_hessian(blocks: _Blocks, pulls: np.ndarray, own: np.ndarray) -> np.ndarray:
    """Exact Hessian of the restricted column NLL: H[j, k] sums the pull of
    the later of j's and k's entries over the cascades both enter, and the
    diagonal is ``own``, each node's summed pulls. The pairs are summed
    ``_CHUNK`` blocks at a time to keep the temporaries small."""
    size = own.size
    upper = 0.0  # a float sum even where bincount returns ints (no pairs)
    for lo in range(0, pulls.size, _CHUNK):
        hi = min(lo + _CHUNK, pulls.size)
        run = blocks.pairs[blocks.pair_ends[lo] - blocks.earlier[lo] : blocks.pair_ends[hi - 1]]
        weights = np.repeat(pulls[lo:hi], blocks.earlier[lo:hi])
        upper = upper + np.bincount(run, weights=weights, minlength=size * size)
    upper = upper.reshape(size, size)
    hess = upper + upper.T
    hess.flat[:: size + 1] = own
    return hess


def _orthant_direction(
    hess: np.ndarray,
    own: np.ndarray,
    pg: np.ndarray,
    orthant: np.ndarray,
    entering: np.ndarray,
    pinned: np.ndarray,
) -> np.ndarray:
    """Newton direction for the pseudo-gradient ``pg``; ``pinned`` entries
    stay put and ``entering`` ones are zero entries free to leave zero.

    An entering entry whose Newton component leaves its orthant is dropped
    from the solve and takes the diagonal step -pg/H_jj (``own`` is H's
    diagonal), and the rest is solved once more; a result that is no
    descent direction gives way to the diagonal step. ``hess`` is
    overwritten.
    """
    direction = _pinned_solve(hess, pg, pinned)
    if direction is not None and entering.any():
        leaving = entering & (np.sign(direction) != orthant)
        if leaving.any():
            direction = _pinned_solve(hess, pg, leaving)
            if direction is not None:
                direction[leaving] = -pg[leaving] / np.maximum(own[leaving], _TINY)
                direction[entering & (np.sign(direction) != orthant)] = 0.0
    if direction is not None and float(pg @ direction) < 0.0:
        return direction
    return -pg / np.maximum(own, _TINY)


def _pinned_solve(hess: np.ndarray, pg: np.ndarray, pinned: np.ndarray) -> np.ndarray | None:
    """-H^-1 pg with the ``pinned`` entries (and those pinned before, whose
    rows ``hess`` already holds as identity rows) held at zero; None when
    H is singular."""
    if pinned.any():
        hess[pinned] = 0.0
        hess[:, pinned] = 0.0
        hess[pinned, pinned] = 1.0
        pg = np.where(pinned, 0.0, pg)
    try:
        return -np.linalg.solve(hess, pg)
    except np.linalg.LinAlgError:
        return None


def _newton_steps(
    blocks: _Blocks,
    v: np.ndarray,
    count_w: np.ndarray,
    penalty: float,
    limit: float,
    budget: int,
) -> tuple[np.ndarray, int, bool]:
    """Orthant-wise Newton (Byrd et al. 2016) on the column restricted to W.

    Runs from ``v`` for at most ``budget`` steps. Returns the values, the
    steps taken, and whether the line search stalled; it stops early once
    the restricted KKT residual is at most ``limit``. The orthant and the
    entering and pinned zero entries are those of the pseudo-gradient
    (:func:`hazardnet.optim.pseudo_gradient`). Each trial clips the entries
    that cross zero and is accepted on the exact change of the objective,
    which must be finite and meet the Armijo condition along a move that
    decreases the orthant's linear model.
    """
    lam = _block_hazards(blocks, v)
    for taken in range(budget):
        pulls, own = _block_pulls(blocks, lam, v.size)
        pg, orthant, entering = pseudo_gradient(v, own - count_w, penalty, signed=True)
        if np.abs(pg).max() <= limit:
            return v, taken, False
        hess = _block_hessian(blocks, pulls, own)
        pinned = (v == 0.0) ^ entering
        direction = _orthant_direction(hess, own, pg, orthant, entering, pinned)
        # every trial stays in the closed orthant, where the penalty is linear
        linear = penalty * orthant - count_w
        step = 1.0
        while step >= _MIN_STEP:
            trial = v + step * direction
            trial[trial * orthant < 0.0] = 0.0  # crossed zero: stop there
            delta = trial - v
            slope = float(pg @ delta)
            if slope < 0.0:
                change = _hazard_change(blocks, lam, delta)
                decrease = float(change.sum() + linear @ delta)
                if math.isfinite(decrease) and decrease <= _ARMIJO * slope:
                    break
            step *= 0.5
        else:
            return v, taken, True
        v, lam = trial, lam + change
    return v, budget, False


def _solve_column_mult(
    free: np.ndarray,
    count_col: np.ndarray,
    const: float,
    column: _Column,
    penalty: float,
    cfg: MultiplicativeConfig,
    x0: np.ndarray,
) -> ColumnFit:
    """Working-set orthant-wise Newton on one column's penalized NLL.

    Each outer pass evaluates the whole column and its penalized objective.
    Its KKT residual over the free entries (the |pseudo-gradient|) decides
    convergence: the column stops with status "kkt_ok" at a residual of at
    most ``tol * max(1, largest co-infection count)``. Otherwise the working
    set W becomes the support plus the zero entries of largest positive
    residual (the violators), at most as many as the support has plus
    ``_GROWTH``, and Newton steps on W (see :func:`_newton_steps`) run until
    its own residual meets the bound, or a ``_WAITING`` fraction of the
    worst violator left out of W while there is one. A W on which the line search stalled, or that took no step, ends
    the column "stalled" when the next pass picks it again; reaching
    ``max_iters`` Newton steps in all ends it at "iteration_cap".
    """
    N = count_col.size
    x = np.zeros(N)
    x[free] = x0[free]
    limit = cfg.tol * max(1.0, float(count_col.max()))
    iterations = 0
    stuck = None
    while True:
        exposure, lam = _exposure(column, x)
        grad = _nll_gradient(column, lam, count_col)
        v, g = x[free], grad[free]
        objective = float(exposure - count_col @ x - const + penalty * np.abs(v).sum())
        residual = np.abs(pseudo_gradient(v, g, penalty, signed=True)[0])
        if free.size == 0 or residual.max() <= limit:
            status = "kkt_ok"
            break
        if iterations == cfg.max_iters:
            status = "iteration_cap"
            break
        support = np.nonzero(v)[0]
        violators = np.nonzero((v == 0.0) & (residual > 0.0))[0]
        ranked = violators[np.argsort(-residual[violators], kind="stable")]
        room = support.size + _GROWTH
        working = free[np.sort(np.concatenate([support, ranked[:room]]))]
        if stuck is not None and np.array_equal(working, stuck):
            status = "stalled"
            break
        # while violators wait outside W, W need not be solved to the bound
        inner = limit if ranked.size <= room else max(limit, _WAITING * residual[ranked[room]])
        blocks = _restrict(column, working, N)
        with np.errstate(over="ignore", invalid="ignore"):
            x[working], taken, stalled = _newton_steps(
                blocks, x[working], count_col[working], penalty, inner, cfg.max_iters - iterations
            )
        iterations += taken
        stuck = working if stalled or taken == 0 else None
    return x, objective, iterations, status


def infer_multiplicative(
    cs: CascadeSet,
    cfg: MultiplicativeConfig,
    init: Network | np.ndarray | None = None,
) -> InferenceResult:
    """L1-regularized MLE of the multiplicative influence matrix.

    Parameters outside the data's support mask are frozen at zero and never
    enter the objective. Columns solve independently.
    """
    packed = PackedCascades(cs)
    counts = packed.coinfection_counts()
    penalty = cfg.l1_penalty if cfg.l1_penalty is not None else 0.01 * len(cs) / cs.num_nodes
    weights = packed.interval_weights(cfg.baseline)
    infections = packed.rank > 0
    rates = cfg.baseline.log_rate(packed.times[infections])
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
