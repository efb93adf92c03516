"""Validation contracts of the domain types."""

import copy
import dataclasses
import pickle

import numpy as np
import pytest

import hazardnet as hn


class TestCascade:
    def test_events_sorted_by_time(self):
        c = hn.Cascade.from_events([(2, 0.0), (0, 1.5), (1, 0.7)])
        assert c.events() == [(2, 0.0), (1, 0.7), (0, 1.5)]

    def test_source_must_be_at_zero(self):
        with pytest.raises(ValueError, match="time 0"):
            hn.Cascade.from_events([(0, 0.5)])

    def test_simultaneous_infections_rejected(self):
        with pytest.raises(ValueError, match="[Ss]imultaneous"):
            hn.Cascade.from_events([(0, 0.0), (1, 1.0), (2, 1.0)])

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError):
            hn.Cascade.from_events([(0, 0.0), (0, 1.0)])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hn.Cascade(np.array([], dtype=int), np.array([]))

    def test_immutable(self):
        c = hn.Cascade.from_events([(0, 0.0), (1, 1.0)])
        with pytest.raises(ValueError):
            c.times[0] = 3.0

    def test_has_no_instance_dict(self):
        c = hn.Cascade.from_events([(0, 0.0), (1, 1.0)])
        assert not hasattr(c, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            c.extra = 1

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))])
    def test_copies_keep_equal_frozen_arrays(self, clone):
        c = hn.Cascade.from_events([(4, 0.0), (2, 0.5), (7, 1.25)])
        back = clone(c)
        assert back.events() == c.events()
        for arr in (back.nodes, back.times):
            assert not arr.flags.writeable
        assert back.nodes.dtype == np.int64 and back.times.dtype == np.float64

    def test_value_equality_and_hash(self):
        c = hn.Cascade.from_events([(0, 0.0), (1, 0.5), (2, 1.0)])
        same = hn.Cascade.from_events([(2, 1.0), (0, -0.0), (1, 0.5)])
        later = hn.Cascade.from_events([(0, 0.0), (1, 0.5), (2, 1.5)])
        other_node = hn.Cascade.from_events([(0, 0.0), (1, 0.5), (3, 1.0)])
        shorter = hn.Cascade.from_events([(0, 0.0), (1, 0.5)])
        assert c == same and hash(c) == hash(same)
        assert c != later and c != other_node and c != shorter
        assert c != c.events()
        assert {c, same, later, other_node} == {c, later, other_node}
        assert same in {c} and shorter not in {c}

    def test_source_and_duration(self):
        c = hn.Cascade.from_events([(3, 0.0), (1, 2.5)])
        assert c.source == 3
        assert c.duration == 2.5
        assert hn.Cascade.from_events([(0, 0.0)]).duration == 0.0


class TestCascadeSet:
    def test_node_ids_must_fit_universe(self):
        c = hn.Cascade.from_events([(0, 0.0), (5, 1.0)])
        with pytest.raises(ValueError, match="outside"):
            hn.CascadeSet(3, 2.0, (c,))

    def test_times_must_fit_window(self):
        c = hn.Cascade.from_events([(0, 0.0), (1, 3.0)])
        with pytest.raises(ValueError, match="window"):
            hn.CascadeSet(2, 2.0, (c,))

    def test_window_positive(self):
        with pytest.raises(ValueError):
            hn.CascadeSet(2, 0.0, ())

    def test_empty_set_is_fine(self):
        cs = hn.CascadeSet(4, 1.0, ())
        assert len(cs) == 0

    def test_value_equality_and_hash(self):
        a = hn.Cascade.from_events([(0, 0.0), (1, 0.5)])
        b = hn.Cascade.from_events([(2, 0.0), (0, 0.25), (1, 0.75)])
        cs = hn.CascadeSet(3, 2.0, (a, b))
        copy_ = hn.CascadeSet(3, 2.0, [copy.deepcopy(a), copy.deepcopy(b)])
        assert cs == copy_ and hash(cs) == hash(copy_)
        assert cs != hn.CascadeSet(3, 2.0, (b, a))
        assert cs != hn.CascadeSet(3, 3.0, (a, b))
        assert cs != hn.CascadeSet(4, 2.0, (a, b))
        assert len({cs, copy_}) == 1


class TestNetwork:
    def test_diagonal_must_be_zero(self):
        with pytest.raises(ValueError, match="diagonal"):
            hn.Network(np.eye(3), hn.ADDITIVE)

    def test_additive_requires_nonnegative(self):
        params = np.zeros((2, 2))
        params[0, 1] = -0.5
        with pytest.raises(ValueError, match="nonnegative"):
            hn.Network(params, hn.ADDITIVE)
        hn.Network(params, hn.MULTIPLICATIVE)  # signed is fine here

    def test_entries_must_be_finite(self):
        params = np.zeros((2, 2))
        params[0, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            hn.Network(params, hn.ADDITIVE)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            hn.Network(np.zeros((2, 2)), "bayesian")

    def test_edges_and_count(self):
        params = np.zeros((3, 3))
        params[0, 1] = 0.5
        params[2, 0] = -0.2
        net = hn.Network(params, hn.MULTIPLICATIVE)
        assert net.edge_count() == 2
        assert net.edge_count(0.3) == 1
        assert [tuple(e) for e in net.edges()] == [(0, 1), (2, 0)]

    def test_value_equality_and_hash(self):
        params = np.zeros((3, 3))
        params[0, 1] = 0.5
        net = hn.Network(params, hn.ADDITIVE)
        same = hn.Network(params.copy(), hn.ADDITIVE)
        assert net == same and hash(net) == hash(same)
        assert net != hn.Network(params, hn.MULTIPLICATIVE)
        assert net != hn.Network(2.0 * params, hn.ADDITIVE)
        assert net != hn.Network(np.zeros((2, 2)), hn.ADDITIVE)
        assert net != None  # noqa: E711
        negated_zero = hn.Network(-np.zeros((3, 3)), hn.MULTIPLICATIVE)
        zero = hn.Network(np.zeros((3, 3)), hn.MULTIPLICATIVE)
        assert negated_zero == zero and hash(negated_zero) == hash(zero)
        assert {net, same, zero} == {net, zero}

    def test_immutable(self):
        net = hn.Network(np.zeros((2, 2)), hn.ADDITIVE)
        with pytest.raises(ValueError):
            net.params[0, 1] = 1.0



EXP = hn.ShapingFunction(hn.EXPONENTIAL)
CONST = hn.Baseline(hn.CONSTANT, 0.0)
SET_FUNCTIONS = [
    hn.additive_set_loglik,
    hn.additive_gradient,
    hn.additive_kkt_violation,
    hn.multiplicative_set_loglik,
    hn.multiplicative_gradient,
    hn.multiplicative_kkt_violation,
    hn.predict_distributions,
]


class TestCheckUniverse:
    """Every function of a network and a cascade set rejects a network over
    another node universe, naming both sizes."""

    @staticmethod
    def call(fn, num_nodes):
        """``fn`` at a network of ``num_nodes`` nodes, every rate 0.3, and
        the 3-node set of one cascade, 0 -> 1 at 0.5 in a window of 2."""
        signed = fn.__name__.startswith("multiplicative")
        params = np.full((num_nodes, num_nodes), 0.3)
        np.fill_diagonal(params, 0.0)
        net = hn.Network(params, hn.MULTIPLICATIVE if signed else hn.ADDITIVE)
        cs = hn.CascadeSet(3, 2.0, (hn.Cascade.from_events([(0, 0.0), (1, 0.5)]),))
        if not signed:
            return fn(net, EXP, cs)
        mask = hn.SupportMask(~np.eye(num_nodes, dtype=bool))
        return fn(net, CONST, mask, cs, *([0.1] if "kkt" in fn.__name__ else []))

    @pytest.mark.parametrize("fn", SET_FUNCTIONS, ids=lambda fn: fn.__name__)
    @pytest.mark.parametrize("num_nodes", [2, 4])
    def test_rejects_another_universe(self, fn, num_nodes):
        with pytest.raises(ValueError, match=f"{num_nodes} nodes .* has 3"):
            self.call(fn, num_nodes)

    @pytest.mark.parametrize("fn", SET_FUNCTIONS, ids=lambda fn: fn.__name__)
    def test_accepts_the_same_universe(self, fn):
        self.call(fn, 3)


C01 = hn.Cascade.from_events([(0, 0.0), (1, 0.5)])
CS01 = hn.CascadeSet(3, 2.0, (C01,))
MASK3 = hn.SupportMask(~np.eye(3, dtype=bool))
# each function of a network and a model, the model family it serves (None
# for both), and a call on the 3-node cascade 0 -> 1 at 0.5, window 2
MODEL_FUNCTIONS = {
    fn.__name__: (family, call)
    for fn, family, call in [
        (hn.infection_hazard, None, lambda f, net, m: f(net, m, C01, 2, 1.0)),
        (hn.infection_cumulative_hazard, None, lambda f, net, m: f(net, m, C01, 2, 1.0)),
        (hn.infection_cdf, None, lambda f, net, m: f(net, m, C01, 2, 1.0)),
        (hn.infection_density, None, lambda f, net, m: f(net, m, C01, 2, 1.0)),
        (hn.infection_time_from_uniform, None, lambda f, net, m: f(net, m, C01, 2, 0.5, 2.0)),
        (hn.simulate_cascade, None, lambda f, net, m: f(net, m, 0, 2.0)),
        (hn.simulate_set, None, lambda f, net, m: f(net, m, 2, 2.0)),
        (hn.predict_distributions, None, lambda f, net, m: f(net, m, CS01)),
        (hn.additive_cascade_loglik, hn.ADDITIVE, lambda f, net, m: f(net, m, C01, 2.0)),
        (hn.independent_cascade_loglik, hn.ADDITIVE, lambda f, net, m: f(net, m, C01, 2.0)),
        (hn.additive_set_loglik, hn.ADDITIVE, lambda f, net, m: f(net, m, CS01)),
        (hn.additive_gradient, hn.ADDITIVE, lambda f, net, m: f(net, m, CS01)),
        (hn.additive_kkt_violation, hn.ADDITIVE, lambda f, net, m: f(net, m, CS01)),
        (hn.multiplicative_cascade_loglik, hn.MULTIPLICATIVE,
         lambda f, net, m: f(net, m, MASK3, C01, 2.0)),
        (hn.multiplicative_set_loglik, hn.MULTIPLICATIVE,
         lambda f, net, m: f(net, m, MASK3, CS01)),
        (hn.multiplicative_gradient, hn.MULTIPLICATIVE,
         lambda f, net, m: f(net, m, MASK3, CS01)),
        (hn.multiplicative_kkt_violation, hn.MULTIPLICATIVE,
         lambda f, net, m: f(net, m, MASK3, CS01, 0.1)),
    ]
}
MODELS = {hn.ADDITIVE: EXP, hn.MULTIPLICATIVE: CONST}
OTHER = {hn.ADDITIVE: hn.MULTIPLICATIVE, hn.MULTIPLICATIVE: hn.ADDITIVE}


class TestCheckModel:
    """Every function of a network and a model rejects a model of the other
    family with one message that names the pairing; a function that serves
    one family also rejects a consistent pair of the other."""

    CASES = [(name, kind) for name, (family, _) in MODEL_FUNCTIONS.items()
             for kind in ([family] if family else list(MODELS))]

    @staticmethod
    def call(name, kind, model_kind):
        params = np.full((3, 3), 0.3)
        np.fill_diagonal(params, 0.0)
        _, call = MODEL_FUNCTIONS[name]
        return call(getattr(hn, name), hn.Network(params, kind), MODELS[model_kind])

    @pytest.mark.parametrize("name,kind", CASES)
    def test_rejects_a_model_of_the_other_family(self, name, kind):
        model = "shaping functions" if kind == hn.MULTIPLICATIVE else "baselines"
        with pytest.raises(ValueError, match=f"^{model} pair with {OTHER[kind]} networks$"):
            self.call(name, kind, OTHER[kind])

    @pytest.mark.parametrize("name,kind", CASES)
    def test_accepts_its_pairing(self, name, kind):
        self.call(name, kind, kind)

    @pytest.mark.parametrize("fn", SET_FUNCTIONS, ids=lambda fn: fn.__name__)
    def test_set_functions_check_the_pairing_on_an_empty_set(self, fn):
        signed = fn.__name__.startswith("multiplicative")
        net = hn.Network(np.zeros((3, 3)), hn.ADDITIVE if signed else hn.MULTIPLICATIVE)
        model = CONST if signed else EXP
        args = (MASK3, hn.CascadeSet(3, 2.0, ())) if signed else (hn.CascadeSet(3, 2.0, ()),)
        with pytest.raises(ValueError, match="pair with"):
            fn(net, model, *args, *([0.1] if "kkt" in fn.__name__ and signed else []))

    CONFIGS = {hn.ADDITIVE: hn.AdditiveConfig, hn.MULTIPLICATIVE: hn.MultiplicativeConfig}

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_configs_reject_a_model_of_the_other_family(self, kind):
        model = "shaping functions" if kind == hn.MULTIPLICATIVE else "baselines"
        with pytest.raises(ValueError, match=f"^{model} pair with {OTHER[kind]} networks$"):
            self.CONFIGS[kind](MODELS[OTHER[kind]])

    @pytest.mark.parametrize("kind", sorted(MODELS))
    def test_configs_accept_their_pairing(self, kind):
        assert self.CONFIGS[kind](MODELS[kind]).max_iters == 2000

    @pytest.mark.parametrize(
        "name", [name for name, (family, _) in MODEL_FUNCTIONS.items() if family]
    )
    def test_family_functions_reject_the_other_family(self, name):
        family, _ = MODEL_FUNCTIONS[name]
        with pytest.raises(ValueError, match=f"expected an? {family} network"):
            self.call(name, OTHER[family], OTHER[family])


class TestInferenceResult:
    def test_reports_per_column_and_is_frozen(self):
        net = hn.Network(np.zeros((3, 3)), hn.ADDITIVE)
        result = hn.InferenceResult(net, [1.5, 0.0, 2.0], [4, 0, 7],
                                    ["kkt_ok", "kkt_ok", "iteration_cap"])
        assert not result.converged
        assert result.iterations == 7 and isinstance(result.iterations, int)
        assert result.status == ("kkt_ok", "kkt_ok", "iteration_cap")
        assert result.objectives.dtype == np.float64 and result.steps.dtype == np.int64
        with pytest.raises(ValueError):
            result.objectives[0] = 0.0
        with pytest.raises(ValueError):
            result.steps[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.converged = True
        assert hn.InferenceResult(net, [0.0] * 3, [0] * 3, ["kkt_ok"] * 3).converged
