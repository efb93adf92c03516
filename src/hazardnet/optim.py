"""The packed cascade set, segmented scans and the column runner shared by
the two solvers.

Both likelihoods separate over target-node columns, and every column reads
the events each cascade shows before the target's infection (all of them
where the target stays uninfected). The cascade set is packed once into flat
arrays, and each column gathers those events from them in cascade order:
the additive column scatters them into its kernel matrix, the
multiplicative one keeps them as ragged per-cascade segments that the
scans below run over in the order of a per-cascade loop. The runner solves
the columns one after another, each built and dropped in turn: memory stays
O(events + C * N).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .types import ADDITIVE, CascadeSet, InferenceResult, Network, aggregate_traces


class Segments(NamedTuple):
    """Layout of consecutive non-empty segments tiling a flat array."""

    offsets: np.ndarray  # first element of each segment
    lengths: np.ndarray
    ids: np.ndarray  # segment index of every element

    @classmethod
    def of_lengths(cls, lengths: np.ndarray) -> "Segments":
        lengths = np.asarray(lengths, dtype=np.int64)
        offsets = np.cumsum(lengths) - lengths
        return cls(offsets, lengths, np.repeat(np.arange(lengths.size), lengths))


def segment_cumsum(values: np.ndarray, segments: Segments) -> np.ndarray:
    """Inclusive cumulative sum restarting at every segment start."""
    if values.size == 0:
        return values.copy()
    cs = np.cumsum(values)
    base = cs[segments.offsets] - values[segments.offsets]
    return cs - base[segments.ids]


def segment_reverse_cumsum(values: np.ndarray, segments: Segments) -> np.ndarray:
    """Inclusive suffix sums within each segment."""
    if values.size == 0:
        return values.copy()
    cs = np.cumsum(values)
    ends = cs[segments.offsets + segments.lengths - 1]
    return ends[segments.ids] - cs + values


class PackedCascades:
    """A cascade set as flat event arrays, built in one pass.

    ``nodes``/``times`` concatenate the cascades, ``cascades`` segments them
    (``offsets`` the starts, ``lengths`` the sizes, ``ids`` each event's
    cascade), ``rank`` is each event's index inside its cascade, and
    ``positions[c, n]`` is node n's rank in cascade c, -1 where it is absent.
    """

    def __init__(self, cs: CascadeSet) -> None:
        self.num_nodes, self.window = cs.num_nodes, cs.window
        self.cascades = Segments.of_lengths([c.size for c in cs])
        self.nodes = np.concatenate([np.zeros(0, dtype=np.int64), *(c.nodes for c in cs)])
        self.times = np.concatenate([np.zeros(0), *(c.times for c in cs)])
        self.rank = np.arange(self.nodes.size) - self.cascades.offsets[self.cascades.ids]
        self.positions = np.full((len(cs), cs.num_nodes), -1, dtype=np.int64)
        self.positions[self.cascades.ids, self.nodes] = self.rank

    def interval_weights(self, baseline) -> np.ndarray:
        """Per event, the baseline integral up to the next event (the window
        after a cascade's last one). A target infected at event index r
        accumulates its cascade's first r weights, an uninfected one all."""
        rights = np.append(self.times[1:], self.window)
        rights[self.cascades.offsets + self.cascades.lengths - 1] = self.window
        return baseline.integral(self.times, rights)

    def coinfection_counts(self) -> np.ndarray:
        """(j, i): number of cascades that infect both j and i, j first."""
        counts = np.zeros((self.num_nodes, self.num_nodes))
        for i in range(self.num_nodes):
            rows = self.positions[self.positions[:, i] > 0]
            counts[:, i] = ((rows >= 0) & (rows < rows[:, i, None])).sum(axis=0)
        return counts

    def prefix(self, target: int) -> tuple[np.ndarray, Segments, np.ndarray]:
        """The events each cascade shows before ``target``'s infection.

        Returns their flat indices in cascade order, one segment per cascade
        that has any, and per segment the flat index of the target's
        infection (-1 where the target stays uninfected).
        """
        position = self.positions[:, target]
        upto = np.where(position < 0, self.cascades.lengths, position)
        kept = np.nonzero(upto)[0]
        segments = Segments.of_lengths(upto[kept])
        starts = self.cascades.offsets[kept]
        events = np.arange(segments.ids.size) + (starts - segments.offsets)[segments.ids]
        hit = np.where(position[kept] < 0, -1, starts + position[kept])
        return events, segments, hit


ColumnSolution = tuple[np.ndarray, list[float], bool, int]


def solve_columns(
    cs: CascadeSet,
    kind: str,
    init: Network | np.ndarray | None,
    default: float,
    solve: Callable[[int, np.ndarray], ColumnSolution],
) -> InferenceResult:
    """Solve every target column and assemble the fitted network.

    ``solve(i, x0)`` returns (column, objective trace, converged, iterations)
    for column i started at ``x0``. Without ``init`` every off-diagonal entry
    starts at ``default``.
    """
    N = cs.num_nodes
    if init is None:
        start = np.full((N, N), default)
        np.fill_diagonal(start, 0.0)
    else:
        start = np.array(init.params if isinstance(init, Network) else init, dtype=np.float64)
        if start.shape != (N, N):
            raise ValueError("init must be an N x N matrix")
        if not np.all(np.isfinite(start)):
            raise ValueError("init must be finite")
        if kind == ADDITIVE and np.any(start < 0.0):
            raise ValueError("init must be nonnegative")
    results = list(map(solve, range(N), start.T))
    params = np.column_stack([r[0] for r in results])
    np.fill_diagonal(params, 0.0)
    return InferenceResult(
        network=Network(params, kind),
        objective_trace=aggregate_traces([np.asarray(r[1]) for r in results]),
        converged=all(r[2] for r in results),
        iterations=max(r[3] for r in results),
    )
