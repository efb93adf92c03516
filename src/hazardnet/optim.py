"""The packed cascade set, segmented scans, the KKT rule and the column
runner shared by the two solvers.

Both likelihoods separate over target-node columns, and every column reads
the events each cascade shows before the target's infection. The cascade set
is packed once into flat arrays, and each column gathers those events from
them in cascade order. The multiplicative column keeps them as ragged
per-cascade segments, all events of a cascade where the target stays
uninfected included, and the scans below run over them in the order of a
per-cascade loop. The additive column gathers only the cascades that infect
the target after their source and scatters those events into its kernel
matrix; its exposure to the cascades that leave the target uninfected ends
at the window and comes from one matrix product shared by all columns. The
runner solves the columns one after another, each built and dropped in
turn: memory stays O(events + (C + N) * N). Each column reports its own
final objective, Newton steps and status, and both solvers measure their
stop by one pseudo-gradient: the additive problem (x >= 0) is the
nonnegative, unpenalized case of the multiplicative L1 problem.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .types import CascadeSet, InferenceResult, Network


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

    def prefix(
        self, target: int, infected_only: bool = False
    ) -> tuple[np.ndarray, Segments, np.ndarray]:
        """The events each cascade shows before ``target``'s infection.

        Returns their flat indices in cascade order, one segment per cascade
        that has any, and per segment the flat index of the target's
        infection (-1 where the target stays uninfected). A cascade where
        the target stays uninfected contributes all its events, or none
        with ``infected_only``: then every segment ends at an infection of
        the target after its cascade's source.
        """
        position = self.positions[:, target]
        upto = np.where(position < 0, 0 if infected_only else self.cascades.lengths, position)
        kept = np.nonzero(upto)[0]
        segments = Segments.of_lengths(upto[kept])
        starts = self.cascades.offsets[kept]
        events = np.arange(segments.ids.size) + (starts - segments.offsets)[segments.ids]
        hit = np.where(position[kept] < 0, -1, starts + position[kept])
        return events, segments, hit


def pseudo_gradient(
    x: np.ndarray, grad: np.ndarray, penalty: float, signed: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pseudo-gradient of NLL + penalty * |x|_1 (Andrew & Gao 2007).

    ``grad`` is the NLL gradient. With ``signed`` the entries may take either
    sign; otherwise they are held at x >= 0, and the additive model's
    constraint is the case ``penalty`` = 0. The orthant is sign(x), and at
    zero the side the gradient points into: -sign(g), or +1 when not
    ``signed``. A zero entry is entering where moving into that orthant
    decreases the objective, orthant * g < -penalty; the other zero entries
    are pinned and get 0. Returns (pg, orthant, entering); |pg| is each
    entry's KKT residual.
    """
    zero = x == 0.0
    orthant = np.sign(np.where(zero, -grad, x)) if signed else np.where(zero, 1.0, np.sign(x))
    entering = zero & (orthant * grad < -penalty)
    pg = grad + penalty * orthant
    pg[zero ^ entering] = 0.0
    return pg, orthant, entering


# a column's parameters, final objective, Newton steps and status
ColumnFit = tuple[np.ndarray, float, int, str]


def solve_columns(
    cs: CascadeSet,
    kind: str,
    init: Network | np.ndarray | None,
    default: float,
    solve: Callable[[int, np.ndarray], ColumnFit],
) -> InferenceResult:
    """Solve every target column and assemble the fitted network.

    ``solve(i, x0)`` returns column i's fit started at ``x0``: its
    parameters, its objective there, its Newton steps and its status, which
    :class:`InferenceResult` carries per column. ``init`` must be a valid
    ``kind`` network over the set's nodes; without it every off-diagonal
    entry starts at ``default``.
    """
    if len(cs) == 0:
        raise ValueError("need at least one cascade to infer from")
    N = cs.num_nodes
    if init is None:
        init = default * (1.0 - np.eye(N))
    start = Network(init.params if isinstance(init, Network) else init, kind).params
    if start.shape != (N, N):
        raise ValueError("init must be an N x N matrix")
    columns, objectives, steps, status = zip(*map(solve, range(N), start.T))
    return InferenceResult(Network(np.column_stack(columns), kind), objectives, steps, status)
