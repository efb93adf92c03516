"""Round-trips and parse errors for the two text formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hazardnet as hn
from hazardnet.fileio import _fmt, write_csv

EXP = hn.ShapingFunction(hn.EXPONENTIAL)


def roundtrip_network(tmp_path, net):
    path = str(tmp_path / "net.txt")
    hn.write_network(path, net, metadata={"seed": 42})
    return hn.read_network(path)


class TestNetworkFormat:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        params = rng.uniform(-1, 1, (7, 7)) * (rng.random((7, 7)) < 0.4)
        np.fill_diagonal(params, 0.0)
        net = hn.Network(params, hn.MULTIPLICATIVE)
        back = roundtrip_network(tmp_path, net)
        assert back.kind == net.kind
        np.testing.assert_array_equal(back.params, net.params)

    @given(
        values=st.lists(
            st.floats(
                min_value=1e-12, max_value=1e6, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_seventeen_digits_roundtrip_floats(self, tmp_path_factory, values):
        tmp = tmp_path_factory.mktemp("fmt")
        params = np.zeros((len(values) + 1, len(values) + 1))
        for k, v in enumerate(values):
            params[k, k + 1] = v
        net = hn.Network(params, hn.ADDITIVE)
        back = roundtrip_network(tmp, net)
        np.testing.assert_array_equal(back.params, net.params)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("wrong v1 additive 3\n")
        with pytest.raises(ValueError, match="netinf-network"):
            hn.read_network(str(path))

    def test_rejects_duplicate_entry(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("netinf-network v1 additive 3\n0 1 0.5\n0 1 0.6\n")
        with pytest.raises(ValueError, match="duplicate"):
            hn.read_network(str(path))

    def test_rejects_out_of_range_node(self, tmp_path):
        path = tmp_path / "oob.txt"
        path.write_text("netinf-network v1 additive 2\n0 5 0.5\n")
        with pytest.raises(ValueError, match="universe"):
            hn.read_network(str(path))

    @pytest.mark.parametrize(
        "body, message",
        [
            ("0 1 nan\n", "bad.txt:4: edge parameters must be finite"),
            ("0 1 inf\n", "bad.txt:4: edge parameters must be finite"),
            ("0 1 -0.5\n", "bad.txt:4: additive rates must be nonnegative"),
        ],
    )
    def test_rejects_bad_value_with_location(self, tmp_path, body, message):
        # the comment and the blank line count toward the line number
        path = tmp_path / "bad.txt"
        path.write_text("netinf-network v1 additive 3\n# seed 1\n\n" + body)
        with pytest.raises(ValueError, match=message):
            hn.read_network(str(path))

    def test_negative_multiplicative_influence_is_read(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("netinf-network v1 multiplicative 2\n0 1 -0.5\n")
        assert hn.read_network(str(path)).params[0, 1] == -0.5

    @pytest.mark.parametrize("count", ["-3", "0", "two"])
    def test_rejects_bad_node_count_with_path(self, tmp_path, count):
        path = tmp_path / "count.txt"
        path.write_text(f"netinf-network v1 additive {count}\n")
        with pytest.raises(ValueError, match="count.txt: bad node count"):
            hn.read_network(str(path))

    def test_metadata_comments_are_skipped(self, tmp_path):
        path = tmp_path / "meta.txt"
        path.write_text("netinf-network v1 additive 2\n# seed 7\n# note hello\n0 1 0.25\n")
        net = hn.read_network(str(path))
        assert net.params[0, 1] == 0.25


class TestCascadeFormat:
    def test_roundtrip_is_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        params = rng.uniform(0.2, 1.0, (6, 6))
        np.fill_diagonal(params, 0.0)
        net = hn.Network(params, hn.ADDITIVE)
        cs = hn.simulate_set(net, EXP, 25, 3.0, rng_seed=2)
        path = str(tmp_path / "c.txt")
        hn.write_cascades(path, cs, metadata={"seed": 2})
        back = hn.read_cascades(path)
        assert back.num_nodes == cs.num_nodes
        assert back.window == cs.window
        assert len(back) == len(cs)
        for a, b in zip(back, cs):
            np.testing.assert_array_equal(a.nodes, b.nodes)
            np.testing.assert_array_equal(a.times, b.times)

    def test_events_render_as_seventeen_digit_numpy_scalars(self, tmp_path):
        # the writer formats Python numbers; its bytes must equal the
        # per-event rendering of the arrays' own numpy scalars
        rng = np.random.default_rng(3)
        window = 1e300
        cascades = []
        for k in range(40):
            size = int(rng.integers(1, 12))
            gaps = rng.choice(
                [5e-324, 1e-310, 1e-20, 0.1, 1.0, 3.0, 7.25, 1e17, 1e290], size - 1
            ) * rng.choice([1.0, rng.uniform(0.5, 2.0)], size - 1)
            times = np.concatenate([[0.0], np.cumsum(gaps)])
            times = np.maximum.accumulate(times)
            keep = np.concatenate([[True], np.diff(times) > 0.0])
            nodes = rng.permutation(50)[: size][keep]
            cascades.append(hn.Cascade(nodes, times[keep]))
        cs = hn.CascadeSet(50, window, tuple(cascades))
        path = tmp_path / "c.txt"
        hn.write_cascades(str(path), cs)
        expected = [f"netinf-cascades v1 50 {_fmt(window)}"] + [
            ",".join(f"{n}:{_fmt(t)}" for n, t in zip(c.nodes, c.times)) for c in cs
        ]
        assert path.read_bytes() == ("\n".join(expected) + "\n").encode()
        assert any(0.0 < t < 1e-300 for c in cs for t in c.times)  # subnormal times
        assert any(t > 1e200 for c in cs for t in c.times)
        assert any(t == int(t) and t > 0.0 for c in cs for t in c.times)

    def test_empty_body_is_a_valid_empty_set(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("netinf-cascades v1 5 4\n")
        cs = hn.read_cascades(str(path))
        assert len(cs) == 0
        assert cs.num_nodes == 5

    def test_rejects_malformed_event(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("netinf-cascades v1 3 2\n0:0,1-0.5\n")
        with pytest.raises(ValueError, match="node:time"):
            hn.read_cascades(str(path))

    def test_rejects_nonzero_first_time_with_location(self, tmp_path):
        path = tmp_path / "bad2.txt"
        path.write_text("netinf-cascades v1 3 2\n0:0.5,1:1.0\n")
        with pytest.raises(ValueError, match="bad2.txt:2"):
            hn.read_cascades(str(path))

    def test_location_counts_comment_and_blank_lines(self, tmp_path):
        path = tmp_path / "bad4.txt"
        path.write_text("netinf-cascades v1 3 2\n# seed 1\n0:0,1:1.0\n\n0:0.5,1:1.0\n")
        with pytest.raises(ValueError, match="bad4.txt:5: the source"):
            hn.read_cascades(str(path))

    def test_rejects_node_outside_universe(self, tmp_path):
        path = tmp_path / "bad3.txt"
        path.write_text("netinf-cascades v1 2 2\n0:0,7:1.0\n")
        with pytest.raises(ValueError, match="outside"):
            hn.read_cascades(str(path))


class TestCsv:
    def test_fixed_column_order_and_metadata(self, tmp_path):
        path = str(tmp_path / "m.csv")
        write_csv(path, ["metric", "value"], [("a", 1.5), ("b", 2)], metadata={"seed": 3})
        lines = open(path).read().splitlines()
        assert lines[0] == "# seed 3"
        assert lines[1] == "metric,value"
        assert lines[2] == "a,1.5"
        assert lines[3] == "b,2"
