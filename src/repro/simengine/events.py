"""Event primitives for the discrete-event engine.

The engine is a classic calendar queue: a binary heap of
``(time, priority, seq, event)`` tuples.  The ``seq`` tiebreaker makes
execution order deterministic for events scheduled at the same instant
(FIFO in scheduling order), which the test suite relies on.  Because
``seq`` is unique, no two keys tie and the heap never compares the
:class:`ScheduledEvent` itself: every comparison is a tuple comparison of
floats and ints, done in C.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable

#: Signature of an event callback: receives the firing time.
EventCallback = Callable[[float], None]


#: A heap entry: ``(time, priority, seq, event)``.
_Entry = tuple[float, int, int, "ScheduledEvent"]


@dataclass(slots=True)
class ScheduledEvent:
    """A callback scheduled to run at a simulation time.

    The cancellable handle :meth:`EventQueue.push` returns; the queue
    orders it by ``(time, priority, seq)``.
    """

    time: float
    priority: int
    seq: int
    callback: EventCallback = field(compare=False)
    label: str = field(compare=False, default="")
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        self.cancelled = True


class EventQueue:
    """Deterministic min-heap of :class:`ScheduledEvent`.

    >>> q = EventQueue()
    >>> fired = []
    >>> _ = q.push(2.0, lambda t: fired.append(("b", t)))
    >>> _ = q.push(1.0, lambda t: fired.append(("a", t)))
    >>> ev = q.pop(); ev.callback(ev.time); fired
    [('a', 1.0)]
    """

    def __init__(self) -> None:
        self._heap: list[_Entry] = []
        self._seq = itertools.count()

    def push(self, time: float, callback: EventCallback, *,
             priority: int = 0, label: str = "") -> ScheduledEvent:
        """Schedule ``callback`` at absolute ``time``; returns a cancellable handle."""
        seq = next(self._seq)
        ev = ScheduledEvent(time, priority, seq, callback, label)
        heappush(self._heap, (time, priority, seq, ev))
        return ev

    def pop(self) -> ScheduledEvent:
        """Remove and return the earliest non-cancelled event.

        Raises ``IndexError`` when the queue is empty.
        """
        ev = self.pop_due()
        if ev is None:
            raise IndexError("pop from an empty event queue")
        return ev

    def pop_due(self, until: float | None = None) -> ScheduledEvent | None:
        """Pop the earliest non-cancelled event due at or before ``until``.

        Returns ``None`` when the queue is empty or its earliest event
        lies after ``until`` (which stays queued); ``until=None`` means
        no horizon.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[3].cancelled:
                heappop(heap)
            elif until is not None and entry[0] > until:
                return None
            else:
                heappop(heap)
                return entry[3]
        return None

    def peek_time(self) -> float | None:
        """Time of the earliest pending event, or ``None`` when empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heappop(heap)
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() is not None
