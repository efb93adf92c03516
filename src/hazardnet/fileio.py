"""Line-oriented text formats for networks and cascades, plus CSV output.

Network files:
    netinf-network v1 <kind> <num_nodes>
    <j> <i> <alpha>          one line per nonzero entry, ids 0-based

Cascade files:
    netinf-cascades v1 <num_nodes> <window>
    <node>:<time>,<node>:<time>,...    one cascade per line, ascending times

Floats are written with 17 significant digits so write-then-read reproduces
the in-memory objects exactly. Lines starting with '#' after the header are
metadata comments (e.g. the seed that produced the file) and are skipped.
"""

from __future__ import annotations

import math
import os
from typing import Iterable, Mapping, Sequence

import numpy as np

from .types import ADDITIVE, Cascade, CascadeSet, Network, NETWORK_KINDS

NETWORK_MAGIC = "netinf-network"
CASCADE_MAGIC = "netinf-cascades"
FORMAT_VERSION = "v1"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _metadata_lines(metadata: Mapping[str, object] | None) -> list[str]:
    if not metadata:
        return []
    return [f"# {key} {value}" for key, value in metadata.items()]


def _content_lines(path: str) -> tuple[list[str], list[tuple[int, str]]]:
    """The header's fields, and the lines after it that are neither blank
    nor comments, each with its line number in the file."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read().splitlines()
    if not raw:
        raise ValueError(f"{path}: empty file, expected a header line")
    body = [(n, ln) for n, ln in enumerate(raw[1:], start=2)
            if ln.strip() and not ln.lstrip().startswith("#")]
    return raw[0].split(), body


def write_network(path: str, net: Network, metadata: Mapping[str, object] | None = None) -> None:
    lines = [f"{NETWORK_MAGIC} {FORMAT_VERSION} {net.kind} {net.num_nodes}"]
    lines += _metadata_lines(metadata)
    for j, i in np.argwhere(net.params != 0.0):
        lines.append(f"{j} {i} {_fmt(net.params[j, i])}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_network(path: str) -> Network:
    header, body = _content_lines(path)
    if len(header) != 4 or header[0] != NETWORK_MAGIC or header[1] != FORMAT_VERSION:
        raise ValueError(f"{path}: not a {NETWORK_MAGIC} {FORMAT_VERSION} file")
    kind = header[2]
    if kind not in NETWORK_KINDS:
        raise ValueError(f"{path}: unknown network kind {kind!r}")
    try:
        num_nodes = int(header[3])
    except ValueError:
        num_nodes = 0
    if num_nodes < 1:
        raise ValueError(f"{path}: bad node count {header[3]!r}")
    params = np.zeros((num_nodes, num_nodes))
    seen: set[tuple[int, int]] = set()
    for lineno, line in body:
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'j i alpha'")
        try:
            j, i, alpha = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: bad entry {line!r}") from e
        if not (0 <= j < num_nodes and 0 <= i < num_nodes):
            raise ValueError(f"{path}:{lineno}: node id outside universe")
        if j == i:
            raise ValueError(f"{path}:{lineno}: diagonal entries are not allowed")
        if not math.isfinite(alpha):
            raise ValueError(f"{path}:{lineno}: edge parameters must be finite")
        if kind == ADDITIVE and alpha < 0.0:
            raise ValueError(f"{path}:{lineno}: additive rates must be nonnegative")
        if (j, i) in seen:
            raise ValueError(f"{path}:{lineno}: duplicate entry for ({j}, {i})")
        seen.add((j, i))
        params[j, i] = alpha
    return Network(params, kind)


def write_cascades(path: str, cs: CascadeSet, metadata: Mapping[str, object] | None = None) -> None:
    lines = [f"{CASCADE_MAGIC} {FORMAT_VERSION} {cs.num_nodes} {_fmt(cs.window)}"]
    lines += _metadata_lines(metadata)
    for cascade in cs:
        # Python ints and floats format faster than numpy scalars, and
        # "%.17g" renders a float exactly as _fmt does
        events = zip(cascade.nodes.tolist(), cascade.times.tolist())
        lines.append(",".join(["%d:%.17g" % event for event in events]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_cascades(path: str) -> CascadeSet:
    header, body = _content_lines(path)
    if len(header) != 4 or header[0] != CASCADE_MAGIC or header[1] != FORMAT_VERSION:
        raise ValueError(f"{path}: not a {CASCADE_MAGIC} {FORMAT_VERSION} file")
    try:
        num_nodes = int(header[2])
        window = float(header[3])
    except ValueError as e:
        raise ValueError(f"{path}: bad header {' '.join(header)!r}") from e
    cascades = []
    for lineno, line in body:
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
            cascades.append(Cascade(np.array(nodes), np.array(times)))
        except ValueError as e:
            raise ValueError(f"{path}:{lineno}: {e}") from e
    try:
        return CascadeSet(num_nodes, window, tuple(cascades))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from e


def write_csv(
    path: str,
    columns: Sequence[str],
    rows: Iterable[Sequence[object]],
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Tiny CSV writer with a fixed column order and '#' metadata comments."""
    lines = _metadata_lines(metadata)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def ensure_exists(path: str, what: str) -> str:
    if not os.path.exists(path):
        raise FileNotFoundError(f"{what} not found: {path}")
    return path
