"""Slave-node model.

A node contributes map slots and reduce slots to the cluster and has a
relative *speed factor* (1.0 = nominal).  The paper's Section IV-D.1
("periodical slot checking") reacts to heterogeneous node speeds, so speed is
a first-class attribute rather than an afterthought.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from ..common.errors import ConfigError


class FreeSlotIndex:
    """Positions of the nodes that have a free slot of one kind.

    A :class:`~repro.cluster.cluster.Cluster` keeps one index for map
    slots and one for reduce slots; each attached :class:`Node` adds its
    position when its free count of that kind rises from 0 and removes
    it when the count drops to 0.  ``positions`` stays sorted, so reading
    it gives the free nodes in the cluster's deterministic order.
    """

    __slots__ = ("positions",)

    def __init__(self) -> None:
        self.positions: list[int] = []

    def add(self, position: int) -> None:
        insort(self.positions, position)

    def remove(self, position: int) -> None:
        self.positions.remove(position)


@dataclass
class Node:
    """One slave node of the simulated cluster.

    Attributes
    ----------
    node_id:
        Stable identifier, e.g. ``node_007``.
    rack:
        Identifier of the rack containing this node.
    speed:
        Relative processing speed.  A task with nominal duration ``d`` takes
        ``d / speed`` seconds on this node.
    map_slots / reduce_slots:
        Capacity for concurrent map / reduce tasks.
    """

    node_id: str
    rack: str
    speed: float = 1.0
    map_slots: int = 1
    reduce_slots: int = 1
    #: Map task attempts currently running (attempt ids).
    running_maps: set[str] = field(default_factory=set)
    #: Reduce task attempts currently running (attempt ids).
    running_reduces: set[str] = field(default_factory=set)
    #: Whether the slot checker has excluded this node from the next round.
    excluded: bool = False
    #: Whether the tasktracker is down (fault injection).  Unlike
    #: ``excluded`` — advisory and owned by the slot checker — an offline
    #: node accepts no tasks under any policy.
    offline: bool = False
    #: Transiently cleared by the driver's heartbeat dispatch mode so that
    #: only the currently-heartbeating node is offered work.
    accepting: bool = True
    #: The owning cluster's free-slot indexes and this node's position in
    #: it; ``None`` for a node outside any cluster.
    _map_index: FreeSlotIndex | None = field(
        default=None, init=False, repr=False, compare=False)
    _reduce_index: FreeSlotIndex | None = field(
        default=None, init=False, repr=False, compare=False)
    _position: int = field(default=-1, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.speed <= 0:
            raise ConfigError(f"{self.node_id}: speed must be positive")
        if self.map_slots < 0 or self.reduce_slots < 0:
            raise ConfigError(f"{self.node_id}: slot counts must be non-negative")

    def attach(self, position: int, map_index: FreeSlotIndex,
               reduce_index: FreeSlotIndex) -> None:
        """Join a cluster at ``position``; slot transitions update its indexes."""
        if self._map_index is not None:
            raise ConfigError(f"{self.node_id}: node already belongs to a cluster")
        self._map_index = map_index
        self._reduce_index = reduce_index
        self._position = position
        if self.free_map_slots > 0:
            map_index.add(position)
        if self.free_reduce_slots > 0:
            reduce_index.add(position)

    # ------------------------------------------------------------- map slots
    @property
    def free_map_slots(self) -> int:
        return self.map_slots - len(self.running_maps)

    def acquire_map_slot(self, attempt_id: str) -> None:
        if self.free_map_slots <= 0:
            raise ConfigError(f"{self.node_id}: no free map slot for {attempt_id}")
        if attempt_id in self.running_maps:
            raise ConfigError(f"{self.node_id}: duplicate map attempt {attempt_id}")
        self.running_maps.add(attempt_id)
        if self._map_index is not None and self.free_map_slots == 0:
            self._map_index.remove(self._position)

    def release_map_slot(self, attempt_id: str) -> None:
        try:
            self.running_maps.remove(attempt_id)
        except KeyError:
            raise ConfigError(
                f"{self.node_id}: releasing unknown map attempt {attempt_id}") from None
        if self._map_index is not None and self.free_map_slots == 1:
            self._map_index.add(self._position)

    # ---------------------------------------------------------- reduce slots
    @property
    def free_reduce_slots(self) -> int:
        return self.reduce_slots - len(self.running_reduces)

    def acquire_reduce_slot(self, attempt_id: str) -> None:
        if self.free_reduce_slots <= 0:
            raise ConfigError(f"{self.node_id}: no free reduce slot for {attempt_id}")
        if attempt_id in self.running_reduces:
            raise ConfigError(f"{self.node_id}: duplicate reduce attempt {attempt_id}")
        self.running_reduces.add(attempt_id)
        if self._reduce_index is not None and self.free_reduce_slots == 0:
            self._reduce_index.remove(self._position)

    def release_reduce_slot(self, attempt_id: str) -> None:
        try:
            self.running_reduces.remove(attempt_id)
        except KeyError:
            raise ConfigError(
                f"{self.node_id}: releasing unknown reduce attempt {attempt_id}") from None
        if self._reduce_index is not None and self.free_reduce_slots == 1:
            self._reduce_index.add(self._position)

    @property
    def idle(self) -> bool:
        """True when the node runs no task at all."""
        return not self.running_maps and not self.running_reduces
