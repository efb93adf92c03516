"""Per-node hazard, survival and density evaluation for both risk models.

Everything here is a pure function of immutable inputs. The additive model
sums parent kernels weighted by edge rates; the multiplicative model scales
a baseline by the product of influences of previously infected nodes, so its
cumulative hazard is a sum of per-interval baseline integrals, one interval
per prefix of the cascade's event history.
"""

from __future__ import annotations

import math

import numpy as np

from .shaping import Baseline, ShapingFunction
from .types import ADDITIVE, MULTIPLICATIVE, Cascade, Network, check_kind, check_node


def _parents_before(cascade: Cascade, node: int, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Events strictly before ``t``, excluding ``node`` itself."""
    cut = np.searchsorted(cascade.times, t, side="left")
    nodes = cascade.nodes[:cut]
    times = cascade.times[:cut]
    keep = nodes != node
    return nodes[keep], times[keep]


def _require_susceptible(cascade: Cascade, node: int, t: float) -> None:
    hit = np.nonzero(cascade.nodes == node)[0]
    if hit.size and cascade.times[hit[0]] < t:
        raise ValueError(f"node {node} is already infected before t={t}")


def additive_hazard(
    net: Network, shaping: ShapingFunction, cascade: Cascade, node: int, t: float
) -> float:
    """Instantaneous additive risk of ``node`` at time ``t``.

    Sum over nodes infected strictly before ``t`` of their edge rate times
    the shaping kernel evaluated at the parent's age.
    """
    check_kind(net, ADDITIVE)
    node = check_node(node, net.num_nodes)
    parents, times = _parents_before(cascade, node, t)
    if parents.size == 0:
        return 0.0
    return float(net.params[parents, node] @ shaping.hazard(times, t))


def additive_cumulative_hazard(
    net: Network, shaping: ShapingFunction, cascade: Cascade, node: int, t: float
) -> float:
    """Integral of :func:`additive_hazard` over [0, t], in closed form."""
    check_kind(net, ADDITIVE)
    node = check_node(node, net.num_nodes)
    parents, times = _parents_before(cascade, node, t)
    if parents.size == 0:
        return 0.0
    return float(net.params[parents, node] @ shaping.cumulative(times, t))


def additive_cdf(
    net: Network, shaping: ShapingFunction, cascade: Cascade, node: int, t: float
) -> float:
    """Probability that ``node`` is infected by time ``t`` given its parents."""
    return 1.0 - math.exp(-additive_cumulative_hazard(net, shaping, cascade, node, t))


def additive_density(
    net: Network, shaping: ShapingFunction, cascade: Cascade, node: int, t: float
) -> float:
    """Infection time density of ``node`` at ``t``: hazard times survival."""
    lam = additive_hazard(net, shaping, cascade, node, t)
    if lam == 0.0:
        return 0.0
    return lam * math.exp(-additive_cumulative_hazard(net, shaping, cascade, node, t))


def multiplicative_hazard(
    net: Network, baseline: Baseline, cascade: Cascade, node: int, t: float
) -> float:
    """Baseline rate at ``t`` scaled by exp(sum of influences of prior infections)."""
    check_kind(net, MULTIPLICATIVE)
    node = check_node(node, net.num_nodes)
    _require_susceptible(cascade, node, t)
    parents, _ = _parents_before(cascade, node, t)
    log_mult = float(net.params[parents, node].sum()) if parents.size else 0.0
    return float(baseline.rate(t)) * math.exp(log_mult)


def multiplicative_cumulative_hazard(
    net: Network, baseline: Baseline, cascade: Cascade, node: int, t: float
) -> float:
    """Integral of :func:`multiplicative_hazard` over [0, t], in closed form.

    [0, t] is partitioned at the infection times of other nodes; on each
    piece the hazard is the baseline scaled by a constant, so the integral
    is a sum of baseline interval integrals weighted by exp of the running
    influence total.
    """
    check_kind(net, MULTIPLICATIVE)
    node = check_node(node, net.num_nodes)
    if t <= 0.0:
        return 0.0
    _require_susceptible(cascade, node, t)
    # the source, infected at 0 < t, is always a parent and opens the first piece
    parents, times = _parents_before(cascade, node, t)
    log_mult = np.cumsum(net.params[parents, node])
    widths = baseline.integral(times, np.append(times[1:], t))
    return float(np.exp(log_mult) @ widths)


def multiplicative_cdf(
    net: Network, baseline: Baseline, cascade: Cascade, node: int, t: float
) -> float:
    return 1.0 - math.exp(-multiplicative_cumulative_hazard(net, baseline, cascade, node, t))


def multiplicative_density(
    net: Network, baseline: Baseline, cascade: Cascade, node: int, t: float
) -> float:
    """Infection time density of ``node`` at ``t`` under the multiplicative model."""
    lam = multiplicative_hazard(net, baseline, cascade, node, t)
    if lam == 0.0:
        return 0.0
    return lam * math.exp(-multiplicative_cumulative_hazard(net, baseline, cascade, node, t))
