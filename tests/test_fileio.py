"""Round-trips and parse errors for the two text formats."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hazardnet as hn
from conftest import additive_instance, multiplicative_instance
from hazardnet.fileio import _CHUNK_LINES, _fmt, write_csv
from hazardnet.types import check_fits

EXP = hn.ShapingFunction(hn.EXPONENTIAL)


def oracle_read_cascades(path):
    """The per-line cascade reader the chunked one replaced: each line through
    the validating constructor. Kept as the reference for what the reader
    accepts, what it builds and what it says."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise ValueError(f"{path}: empty file, expected a header line")
    header = raw[0].split()
    if len(header) != 4 or header[0] != "netinf-cascades" or header[1] != "v1":
        raise ValueError(f"{path}: not a netinf-cascades v1 file")
    try:
        universe = hn.CascadeSet(int(header[2]), float(header[3]), ())
    except ValueError as e:
        raise ValueError(f"{path}: bad header {' '.join(header)!r}: {e}") from e
    num_nodes, window = universe.num_nodes, universe.window
    cascades = []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        nodes, times = [], []
        for token in line.strip().split(","):
            node_part, sep, time_part = token.partition(":")
            if not sep:
                raise ValueError(f"{path}:{lineno}: expected 'node:time', got {token!r}")
            try:
                nodes.append(int(node_part))
                times.append(float(time_part))
            except ValueError as e:
                raise ValueError(f"{path}:{lineno}: bad event {token!r}") from e
        try:
            cascades.append(hn.Cascade(np.array(nodes), np.array(times)))
            check_fits(cascades[-1], num_nodes, window)
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from e
    return hn.CascadeSet(num_nodes, window, tuple(cascades))


def assert_reads_like_the_oracle(path):
    """The reader builds the oracle's set, or raises the oracle's error."""
    path = str(path)
    try:
        expected = oracle_read_cascades(path)
    except (ValueError, OverflowError) as e:
        with pytest.raises(type(e)) as info:
            hn.read_cascades(path)
        assert str(info.value) == str(e)
        return None
    got = hn.read_cascades(path)
    assert got == expected
    assert (got.num_nodes, got.window) == (expected.num_nodes, expected.window)
    for a, b in zip(got, expected):
        assert a.nodes.dtype == np.int64 and a.times.dtype == np.float64
        assert not a.nodes.flags.writeable and not a.times.flags.writeable
        assert a.nodes.base is None and a.times.base is None  # owns its events
        assert a.times.tobytes() == b.times.tobytes()  # -0.0 stays -0.0
    return got


def extreme_set():
    """Cascades whose times span subnormal gaps to 1e290, in a 1e300 window."""
    rng = np.random.default_rng(3)
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
    return hn.CascadeSet(50, 1e300, tuple(cascades))


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
        cs = extreme_set()
        path = tmp_path / "c.txt"
        hn.write_cascades(str(path), cs)
        expected = [f"netinf-cascades v1 50 {_fmt(cs.window)}"] + [
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

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0:0,7:1.0", "bad.txt:4: cascade references a node id outside the universe"),
            ("0:0,1:2.5", "bad.txt:4: infection time beyond the observation window"),
        ],
    )
    def test_rejects_cascade_outside_the_set_with_location(self, tmp_path, line, message):
        # the comment above the bad line counts toward its number
        path = tmp_path / "bad.txt"
        path.write_text(f"netinf-cascades v1 3 2\n0:0,1:1.0\n# seed 1\n{line}\n")
        with pytest.raises(ValueError, match=message):
            hn.read_cascades(str(path))

    def test_rejects_bad_header_with_path(self, tmp_path):
        path = tmp_path / "head.txt"
        path.write_text("netinf-cascades v1 0 2\n")
        with pytest.raises(ValueError, match="head.txt: bad header .*num_nodes must be positive"):
            hn.read_cascades(str(path))


# each line replaces one cascade of a valid file, below a comment and a blank line
MUTATED_LINES = {
    "unsorted events": "0:0,2:1.5,1:0.5",
    "two colons in a token": "0:0,1:2:3,4",
    "empty token": "0:0,,1:1",
    "trailing comma": "0:0,1:1,",
    "node +3": "0:0,+3:1",
    "node with a space": "0:0, 3:1",
    "node 3.0": "0:0,3.0:1",
    "node 1e2": "0:0,1e2:1",
    "time nan": "0:0,1:nan",
    "time inf": "0:0,1:inf",
    "time 1_0.5": "0:0,1:1_0.5",
    "time 0_1.5": "0:0,1:0_1.5",
    "negative node": "0:0,-1:1",
    "node past the universe": "0:0,6:1",
    "node past int64": "0:0,99999999999999999999:1",
    "time past the window": "0:0,1:5.5",
    "repeated node": "0:0,1:1,1:2",
    "nonzero source time": "0:0.5,1:1",
    "negative zero source": "0:-0.0,1:1",
}


class TestChunkedReader:
    """The chunked reader against the per-line oracle: equal sets, or the
    same message naming the same ``path:line``."""

    @pytest.mark.parametrize("variant", [hn.EXPONENTIAL, hn.POWER, hn.RAYLEIGH])
    def test_additive_writer_output(self, tmp_path, variant):
        _, _, cs = additive_instance(11, n_nodes=10, n_cascades=3 * _CHUNK_LINES + 5,
                                     variant=variant)
        hn.write_cascades(str(tmp_path / "c.txt"), cs, metadata={"seed": 11})
        assert assert_reads_like_the_oracle(tmp_path / "c.txt") == cs

    @pytest.mark.parametrize("variant", [hn.CONSTANT, hn.LINEAR, hn.INVERSE])
    def test_multiplicative_writer_output(self, tmp_path, variant):
        _, _, _, cs = multiplicative_instance(12, n_nodes=10, n_cascades=3 * _CHUNK_LINES + 5,
                                              variant=variant)
        hn.write_cascades(str(tmp_path / "c.txt"), cs, metadata={"seed": 12})
        assert assert_reads_like_the_oracle(tmp_path / "c.txt") == cs

    def test_subnormal_and_huge_times(self, tmp_path):
        cs = extreme_set()
        hn.write_cascades(str(tmp_path / "c.txt"), cs)
        assert assert_reads_like_the_oracle(tmp_path / "c.txt") == cs

    @pytest.mark.parametrize("where", ["first chunk", "later chunk"])
    @pytest.mark.parametrize("name", sorted(MUTATED_LINES))
    def test_mutated_line(self, tmp_path, name, where):
        valid = [f"0:0,{1 + k % 4}:{0.5 + k % 3}" for k in range(2 * _CHUNK_LINES)]
        at = 3 if where == "first chunk" else _CHUNK_LINES + 7
        lines = valid[:at] + ["# note", "", MUTATED_LINES[name]] + valid[at + 1:]
        path = tmp_path / "c.txt"
        path.write_text("netinf-cascades v1 6 5\n# seed 1\n" + "\n".join(lines) + "\n")
        assert_reads_like_the_oracle(path)

    @pytest.mark.parametrize("num_nodes", [2**62, 2**63 - 1, 2**70])
    def test_huge_universe(self, tmp_path, num_nodes):
        # keys of (line, node) pairs wrap around int64 here
        top = min(num_nodes, 2**63) - 1
        lines = [f"0:0,{top - k}:1,{top // 3 + k}:2" for k in range(_CHUNK_LINES + 3)]
        path = tmp_path / "c.txt"
        path.write_text(f"netinf-cascades v1 {num_nodes} 5\n" + "\n".join(lines) + "\n")
        assert len(assert_reads_like_the_oracle(path)) == _CHUNK_LINES + 3

    def test_first_failing_line_is_named_across_chunks(self, tmp_path):
        # a later chunk that does not split into tokens cannot mask an
        # earlier chunk's failed check
        lines = ["0:0,1:1"] * (2 * _CHUNK_LINES)
        lines[5] = "0:0,1:9"
        lines[_CHUNK_LINES + 2] = "0:0,1:1:1"
        path = tmp_path / "c.txt"
        path.write_text("netinf-cascades v1 3 5\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="c.txt:7: infection time beyond"):
            hn.read_cascades(str(path))
        assert_reads_like_the_oracle(path)


class TestCsv:
    def test_fixed_column_order_and_metadata(self, tmp_path):
        path = str(tmp_path / "m.csv")
        write_csv(path, ["metric", "value"], [("a", 1.5), ("b", 2)], metadata={"seed": 3})
        lines = open(path).read().splitlines()
        assert lines[0] == "# seed 3"
        assert lines[1] == "metric,value"
        assert lines[2] == "a,1.5"
        assert lines[3] == "b,2"
