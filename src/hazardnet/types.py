"""Domain types shared by every part of the toolkit.

All types are immutable after construction (arrays are frozen read-only), so
they can be shared freely without defensive copies.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable

import numpy as np

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
NETWORK_KINDS = (ADDITIVE, MULTIPLICATIVE)


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _float_key(arr: np.ndarray) -> bytes:
    """Bytes of a float array with -0.0 read as 0.0, so that arrays equal
    under ``np.array_equal`` hash alike."""
    return (arr + 0.0).tobytes()


@dataclass(frozen=True, eq=False)
class Cascade:
    """The trace of one contagion: which nodes got infected, and when.

    Nodes absent from ``nodes`` stayed uninfected for the whole observation
    window. Times are cascade-relative: the earliest infection (the source)
    sits at exactly 0, and simultaneous infections are rejected, so the event
    order is strict. Two cascades are equal when their events are.
    """

    # slots without a per-instance dict; declared here rather than with
    # dataclass(slots=True), whose rebuilt class makes Python 3.11's frozen
    # __setattr__ raise TypeError instead of FrozenInstanceError
    __slots__ = ("nodes", "times")

    nodes: np.ndarray
    times: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.ascontiguousarray(self.nodes, dtype=np.int64)
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        if nodes.ndim != 1 or nodes.shape != times.shape:
            raise ValueError("nodes and times must be 1-d arrays of equal length")
        if nodes.size == 0:
            raise ValueError("a cascade needs at least one infection (its source)")
        order = np.lexsort((nodes, times))
        nodes, times = nodes[order].copy(), times[order].copy()
        if not np.all(np.isfinite(times)):
            raise ValueError("infection times must be finite; omit uninfected nodes")
        if times[0] != 0.0:
            raise ValueError("the source must be at time 0 (normalize times upstream)")
        if np.any(np.diff(times) <= 0.0):
            raise ValueError("simultaneous infections are not allowed (perturb upstream)")
        if np.any(nodes < 0):
            raise ValueError("node ids must be nonnegative")
        if np.unique(nodes).size != nodes.size:
            raise ValueError("a node can be infected at most once per cascade")
        object.__setattr__(self, "nodes", _freeze(nodes))
        object.__setattr__(self, "times", _freeze(times))

    @classmethod
    def _trusted(cls, nodes: np.ndarray, times: np.ndarray) -> "Cascade":
        """A cascade of events the caller has already made valid, without the
        constructor's checks and copies: a 1-d int64 ``nodes`` and a float64
        ``times`` of the same length, sorted, strictly increasing and finite
        from a source at time 0, with no node twice. The cascade takes both
        arrays as they are and freezes them.
        """
        cascade = object.__new__(cls)
        object.__setattr__(cascade, "nodes", _freeze(nodes))
        object.__setattr__(cascade, "times", _freeze(times))
        return cascade

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cascade):
            return NotImplemented
        return np.array_equal(self.nodes, other.nodes) and np.array_equal(self.times, other.times)

    def __hash__(self) -> int:
        return hash((self.nodes.tobytes(), _float_key(self.times)))

    def __reduce__(self):
        # rebuild through the constructor, so copies and unpickled cascades
        # are validated and frozen like any other
        return (Cascade, (self.nodes, self.times))

    @classmethod
    def from_events(cls, events: Iterable[tuple[int, float]]) -> "Cascade":
        pairs = list(events)
        nodes = np.array([n for n, _ in pairs], dtype=np.int64)
        times = np.array([t for _, t in pairs], dtype=np.float64)
        return cls(nodes, times)

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    @property
    def source(self) -> int:
        return int(self.nodes[0])

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0])

    def events(self) -> list[tuple[int, float]]:
        return [(int(n), float(t)) for n, t in zip(self.nodes, self.times)]


@dataclass(frozen=True)
class CascadeSet:
    """A node universe plus the cascades recorded over it.

    ``window`` is the shared observation length: every infection time lies in
    [0, window], and nodes that do not appear in a cascade survived past it.
    """

    num_nodes: int
    window: float
    cascades: tuple[Cascade, ...]

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        if not (self.window > 0.0 and np.isfinite(self.window)):
            raise ValueError("observation window must be a positive finite length")
        cascades = tuple(self.cascades)
        for c in cascades:
            if int(c.nodes.max()) >= self.num_nodes:
                raise ValueError("cascade references a node id outside the universe")
            if float(c.times[-1]) > self.window:
                raise ValueError("infection time beyond the observation window")
        object.__setattr__(self, "cascades", cascades)
        object.__setattr__(self, "window", float(self.window))
        object.__setattr__(self, "num_nodes", int(self.num_nodes))

    def __len__(self) -> int:
        return len(self.cascades)

    def __iter__(self):
        return iter(self.cascades)


@dataclass(frozen=True, eq=False)
class Network:
    """Dense matrix of directed edge parameters.

    ``params[j, i]`` is the influence of node j on node i. The diagonal is
    fixed at zero. Additive networks hold nonnegative rates; multiplicative
    networks hold log-influences of either sign. Two networks are equal when
    their kinds and parameters are.
    """

    params: np.ndarray
    kind: str

    def __post_init__(self) -> None:
        params = np.array(self.params, dtype=np.float64, copy=True)
        if params.ndim != 2 or params.shape[0] != params.shape[1]:
            raise ValueError("params must be a square matrix")
        if not np.all(np.isfinite(params)):
            raise ValueError("edge parameters must be finite")
        if np.any(np.diagonal(params) != 0.0):
            raise ValueError("self-influence is not modeled: the diagonal must be zero")
        if self.kind not in NETWORK_KINDS:
            raise ValueError(f"unknown network kind {self.kind!r}")
        if self.kind == ADDITIVE and np.any(params < 0.0):
            raise ValueError("additive rates must be nonnegative")
        object.__setattr__(self, "params", _freeze(params))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return self.kind == other.kind and np.array_equal(self.params, other.params)

    def __hash__(self) -> int:
        return hash((self.kind, _float_key(self.params)))

    @property
    def num_nodes(self) -> int:
        return int(self.params.shape[0])

    def edge_count(self, threshold: float = 0.0) -> int:
        return int(np.count_nonzero(np.abs(self.params) > threshold))

    def edges(self, threshold: float = 0.0) -> np.ndarray:
        """(E, 2) array of (j, i) pairs with |params[j, i]| > threshold."""
        return np.argwhere(np.abs(self.params) > threshold)


def check_kind(net: Network, kind: str) -> None:
    """Reject a network of the other model."""
    if net.kind != kind:
        article = "an" if kind == ADDITIVE else "a"
        raise ValueError(f"expected {article} {kind} network, got {net.kind}")


def check_universe(net: Network, cs: CascadeSet) -> None:
    """Reject a network and a cascade set over different node universes."""
    if net.num_nodes != cs.num_nodes:
        raise ValueError(
            f"the network has {net.num_nodes} nodes but the cascade set "
            f"has {cs.num_nodes}: they cover different universes"
        )


def check_node(node, num_nodes: int, role: str = "node", where: str = "") -> int:
    """``node`` as a node id; rejects non-integers and ids outside the universe.

    ``role`` and ``where`` frame the id in the error message.
    """
    try:
        index = operator.index(node)
    except TypeError:
        raise ValueError(f"{role} {node}{where} is not an integer node id") from None
    if not 0 <= index < num_nodes:
        raise ValueError(f"{role} {index}{where} outside universe of {num_nodes} nodes")
    return index


def check_window(cascade: Cascade, window: float) -> None:
    if cascade.times[-1] > window:
        raise ValueError("cascade has infections beyond the observation window")


@dataclass(frozen=True)
class InferenceResult:
    """An inferred network plus each target column's solver report.

    Entry i of ``objectives`` is column i's minimized objective at the
    returned parameters: its negative log-likelihood, plus the L1 penalty
    over the support mask for the multiplicative model, so the entries sum to
    the set's objective. ``steps[i]`` counts column i's Newton steps, and
    ``status[i]`` says why it stopped: ``"kkt_ok"`` when its KKT residual met
    its solver's bound (see ``AdditiveConfig`` and ``MultiplicativeConfig``),
    ``"iteration_cap"`` at ``max_iters`` steps, ``"stalled"`` when the line
    search could make no progress.
    """

    network: Network
    objectives: np.ndarray
    steps: np.ndarray
    status: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "objectives", _freeze(np.array(self.objectives, dtype=float)))
        object.__setattr__(self, "steps", _freeze(np.array(self.steps, dtype=np.int64)))
        object.__setattr__(self, "status", tuple(self.status))

    @property
    def converged(self) -> bool:
        """True when every column stopped on its KKT bound."""
        return all(s == "kkt_ok" for s in self.status)

    @property
    def iterations(self) -> int:
        """The largest per-column count of Newton steps."""
        return int(self.steps.max())
