"""Per-node hazard, survival and density evaluation for both risk models.

Everything here is a pure function of immutable inputs, and each takes the
model that drives the network: a :class:`ShapingFunction` for an additive
network, a :class:`Baseline` for a multiplicative one. The additive model
sums parent kernels weighted by edge rates; the multiplicative model scales
a baseline by the product of influences of previously infected nodes, so its
cumulative hazard is a sum of per-interval baseline integrals, one interval
per prefix of the cascade's event history. The CDF 1 - exp(-Λ) and the
density λ·exp(-Λ) follow from either hazard alike.
"""

from __future__ import annotations

import math

import numpy as np

from .shaping import Baseline, Model
from .types import Cascade, Network, check_model, check_node


def _parents(net: Network, model: Model, cascade: Cascade, node: int, t: float):
    """The edge parameters into ``node`` of the events strictly before ``t``,
    and their times; ``node`` must still be susceptible at ``t``."""
    check_model(net, model)
    node = check_node(node, net.num_nodes)
    cut = np.searchsorted(cascade.times, t, side="left")
    parents = cascade.nodes[:cut]
    if np.any(parents == node):
        raise ValueError(f"node {node} is already infected before t={t}")
    return net.params[parents, node], cascade.times[:cut]


def infection_hazard(net: Network, model: Model, cascade: Cascade, node: int, t: float) -> float:
    """Instantaneous risk of ``node`` at time ``t``.

    Additive: the sum over nodes infected strictly before ``t`` of their
    edge rate times the shaping kernel at the parent's age. Multiplicative:
    the baseline rate at ``t`` scaled by exp(sum of their influences).
    """
    alphas, times = _parents(net, model, cascade, node, t)
    if isinstance(model, Baseline):
        return float(model.rate(t)) * math.exp(float(alphas.sum()))
    return float(alphas @ model.hazard(times, t)) if alphas.size else 0.0


def infection_cumulative_hazard(
    net: Network, model: Model, cascade: Cascade, node: int, t: float
) -> float:
    """Integral of :func:`infection_hazard` over [0, t], in closed form.

    For the multiplicative model [0, t] is partitioned at the infection
    times of other nodes; on each piece the hazard is the baseline scaled by
    a constant, so the integral is a sum of baseline interval integrals
    weighted by exp of the running influence total.
    """
    alphas, times = _parents(net, model, cascade, node, t)
    if alphas.size == 0:
        return 0.0
    if isinstance(model, Baseline):
        # the source, infected at 0 < t, opens the first piece
        widths = model.integral(times, np.append(times[1:], t))
        return float(np.exp(np.cumsum(alphas)) @ widths)
    return float(alphas @ model.cumulative(times, t))


def infection_cdf(net: Network, model: Model, cascade: Cascade, node: int, t: float) -> float:
    """Probability that ``node`` is infected by time ``t`` given its parents."""
    return 1.0 - math.exp(-infection_cumulative_hazard(net, model, cascade, node, t))


def infection_density(net: Network, model: Model, cascade: Cascade, node: int, t: float) -> float:
    """Infection time density of ``node`` at ``t``: hazard times survival."""
    lam = infection_hazard(net, model, cascade, node, t)
    if lam == 0.0:
        return 0.0
    return lam * math.exp(-infection_cumulative_hazard(net, model, cascade, node, t))
