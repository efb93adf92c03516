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

    def test_immutable(self):
        net = hn.Network(np.zeros((2, 2)), hn.ADDITIVE)
        with pytest.raises(ValueError):
            net.params[0, 1] = 1.0
