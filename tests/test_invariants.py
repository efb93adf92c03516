"""Metamorphic invariants of both fits.

Each transformation of the cascade set has a known effect on the MLE:
relabelling the nodes relabels the fit and permutes the per-column
objectives; reordering the cascades leaves the fit; duplicating them
doubles every objective and, for the additive model, leaves the fit as it
is; for the multiplicative model, duplicating them and doubling λ leaves the
fit as it is. These catch layout bugs in the packed cascade set that a
fixed-answer test can miss. Objectives are compared at 1e-9 relative.
Parameters are compared only on sets where every column certifies its KKT
bound and the rates stay small, so they are well identified; on such sets
the fits here agree to ~1e-14.
"""

import dataclasses

import numpy as np
import pytest

import hazardnet as hn
from conftest import additive_instance, multiplicative_instance

OBJECTIVE_RTOL = 1e-9
PARAMS_ATOL = 1e-9


def relabelled(cs, perm):
    """``cs`` with node k renamed perm[k]."""
    cascades = tuple(hn.Cascade(perm[c.nodes], c.times) for c in cs)
    return hn.CascadeSet(cs.num_nodes, cs.window, cascades)


def with_cascades(cs, cascades):
    return hn.CascadeSet(cs.num_nodes, cs.window, tuple(cascades))


def assert_same_fit(fit, other, scale=1.0, perm=None):
    """``other`` is ``fit`` with its objectives times ``scale`` and, with
    ``perm``, its nodes renamed k -> perm[k]."""
    params, objectives = other.network.params, other.objectives
    if perm is not None:
        params, objectives = params[np.ix_(perm, perm)], objectives[perm]
    np.testing.assert_allclose(objectives, scale * fit.objectives, rtol=OBJECTIVE_RTOL)
    np.testing.assert_allclose(params, fit.network.params, rtol=0.0, atol=PARAMS_ATOL)


def well_identified(fit):
    return fit.converged and np.abs(fit.network.params).max() < 10.0


# (seed, nodes, cascades, family, window, delta): windows and delays short
# enough that most cascades leave some node uninfected, so the survival
# terms and their layout count
ADDITIVE_SETS = [
    (70, 8, 150, hn.EXPONENTIAL, 1.0, 0.05),
    (71, 8, 150, hn.RAYLEIGH, 1.5, 0.05),
    (72, 8, 200, hn.POWER, 1.0, 0.3),
]
# (seed, nodes, cascades, family, log_scale, λ)
MULTIPLICATIVE_SETS = [
    (80, 6, 80, hn.CONSTANT, -1.5, 0.5),
    (81, 8, 120, hn.LINEAR, -1.5, 1.0),
    (82, 6, 60, hn.INVERSE, -1.5, 0.3),
]


@pytest.fixture(params=ADDITIVE_SETS, ids=lambda p: p[3], scope="module")
def additive_fit(request):
    seed, n_nodes, n_cascades, variant, window, delta = request.param
    _, shaping, cs = additive_instance(seed, n_nodes, n_cascades, variant, window, delta)
    cfg = hn.AdditiveConfig(shaping=shaping)
    fit = hn.infer_additive(cs, cfg)
    assert well_identified(fit)
    return cs, cfg, fit


@pytest.fixture(params=MULTIPLICATIVE_SETS, ids=lambda p: p[3], scope="module")
def multiplicative_fit(request):
    seed, n_nodes, n_cascades, variant, log_scale, penalty = request.param
    _, baseline, _, cs = multiplicative_instance(seed, n_nodes, n_cascades, variant,
                                                 log_scale=log_scale)
    cfg = hn.MultiplicativeConfig(baseline=baseline, l1_penalty=penalty)
    fit = hn.infer_multiplicative(cs, cfg)
    assert well_identified(fit)
    return cs, cfg, fit


class TestAdditiveFit:
    def test_relabelling_nodes_relabels_the_fit(self, additive_fit):
        cs, cfg, fit = additive_fit
        perm = np.random.default_rng(1).permutation(cs.num_nodes)
        assert_same_fit(fit, hn.infer_additive(relabelled(cs, perm), cfg), perm=perm)

    def test_reordering_cascades_leaves_the_fit(self, additive_fit):
        cs, cfg, fit = additive_fit
        order = np.random.default_rng(2).permutation(len(cs))
        other = hn.infer_additive(with_cascades(cs, [cs.cascades[k] for k in order]), cfg)
        assert_same_fit(fit, other)

    def test_duplicating_cascades_doubles_the_objectives(self, additive_fit):
        cs, cfg, fit = additive_fit
        assert_same_fit(fit, hn.infer_additive(with_cascades(cs, cs.cascades * 2), cfg), 2.0)


class TestMultiplicativeFit:
    def test_relabelling_nodes_relabels_the_fit(self, multiplicative_fit):
        cs, cfg, fit = multiplicative_fit
        perm = np.random.default_rng(3).permutation(cs.num_nodes)
        other = hn.infer_multiplicative(relabelled(cs, perm), cfg)
        assert_same_fit(fit, other, perm=perm)

    def test_reordering_cascades_leaves_the_fit(self, multiplicative_fit):
        cs, cfg, fit = multiplicative_fit
        order = np.random.default_rng(4).permutation(len(cs))
        other = hn.infer_multiplicative(with_cascades(cs, [cs.cascades[k] for k in order]), cfg)
        assert_same_fit(fit, other)

    def test_duplicating_cascades_and_doubling_lambda_leaves_the_fit(self, multiplicative_fit):
        cs, cfg, fit = multiplicative_fit
        doubled = dataclasses.replace(cfg, l1_penalty=2 * cfg.l1_penalty)
        other = hn.infer_multiplicative(with_cascades(cs, cs.cascades * 2), doubled)
        assert_same_fit(fit, other, 2.0)
