"""A deterministic discrete-event queue.

Ties are broken by insertion order, so simulations are reproducible
independent of callback identity.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from ..errors import SimulationError


class EventQueue:
    """Min-heap of timed callbacks.

    :meth:`schedule_all` adds a batch of events (a run's arrivals) with
    one heapify, and :meth:`schedule_in` pushes one; :meth:`run` pops and
    fires events in ``(time, insertion)`` order, inline in its loop, and
    counts them in :attr:`processed`."""

    def __init__(self):
        self._heap: list = []
        self._sequence = itertools.count()
        self.now = 0.0
        self.processed = 0

    def schedule_all(self, events: list) -> None:
        """Schedule each ``(when, callback, args)`` of ``events`` to fire as
        ``callback(*args)`` at absolute time ``when``.

        Insertion order is list order, after every event already
        scheduled, so events pop exactly as if pushed one at a time; the
        heap is restored once, by one ``heapify``.  Raises, scheduling
        none of them, when any time is before the current one."""
        entries = [
            (when, seq, callback, args)
            for (when, callback, args), seq in zip(events, self._sequence)
        ]
        earliest = min(entries)[0] if entries else self.now
        if earliest < self.now - 1e-15:
            raise SimulationError(
                f"cannot schedule at {earliest} before current time {self.now}"
            )
        heap = self._heap
        heap += entries
        heapq.heapify(heap)

    def schedule_in(self, delay: float, callback: Callable, *args) -> None:
        """Schedule relative to the current time."""
        when = self.now + delay
        if when < self.now - 1e-15:
            raise SimulationError(
                f"cannot schedule at {when} before current time {self.now}"
            )
        heapq.heappush(self._heap, (when, next(self._sequence), callback, args))

    def run(self, until: float | None = None, max_events: int = 10_000_000) -> float:
        """Drain the queue (optionally up to time ``until``, where the
        clock then stands even if the queue emptied earlier); returns the
        final simulation time."""
        heap = self._heap
        heappop = heapq.heappop
        for _ in range(max_events):
            if not heap or (until is not None and heap[0][0] > until):
                if until is not None:
                    self.now = max(self.now, until)
                return self.now
            when, _seq, callback, args = heappop(heap)
            self.now = when
            callback(*args)
            self.processed += 1
        raise SimulationError(f"exceeded {max_events} events — runaway simulation?")
