"""Latency-insensitive inter-block interface model.

Every soft block communicates through a latency-insensitive (ready/valid)
interface (paper Section 2.1).  On real hardware, ViTAL implements these as
pipelined elastic channels; the cost is a few cycles of added latency per
boundary crossing — the source of the 3-8% latency overhead measured in
Table 4.

This module models that cost analytically so the timing model and the
partition-quality evaluation can account for it.  It also provides a small
cycle-level functional model of an elastic channel used by the unit tests to
validate the latency formula against behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MappingError


@dataclass(frozen=True)
class LatencyInsensitiveInterface:
    """Static description of one elastic channel.

    Attributes:
        width_bits: payload width.
        stages: number of pipeline register stages inserted on the channel
            (ViTAL inserts stages to cross virtual-block boundaries; more
            stages for longer physical distance).
        throughput: words accepted per cycle at steady state (1.0 for a
            fully elastic channel).
    """

    width_bits: int
    stages: int = 2
    throughput: float = 1.0

    def __post_init__(self):
        if self.width_bits < 0:
            raise MappingError("interface width must be non-negative")
        if self.stages < 1:
            raise MappingError("an elastic channel has at least one stage")

    def transfer_cycles(self, words: int) -> int:
        """Cycles until the last of ``words`` emerges (fill + stream).

        The first word spends ``stages`` cycles in flight; each further
        word follows at the channel throughput.
        """
        if words <= 0:
            return 0
        steady = int((words - 1) / self.throughput)
        return self.stages + steady


class ElasticChannel:
    """Cycle-level model of a latency-insensitive channel.

    Used by tests to confirm :class:`LatencyInsensitiveInterface` formulas:
    push words in, step cycles, observe arrival times.  Backpressure is
    modelled by a bounded skid buffer at the consumer side.
    """

    def __init__(self, interface: LatencyInsensitiveInterface, buffer_depth: int = 4):
        self.interface = interface
        self.buffer_depth = buffer_depth
        # Each in-flight word is [remaining_stage_count, payload].
        self._pipe: list[list] = []
        self._output: list = []
        self.cycles = 0

    def can_accept(self) -> bool:
        """Producer-side ready signal."""
        in_flight = len(self._pipe) + len(self._output)
        return in_flight < self.buffer_depth + self.interface.stages

    def push(self, payload) -> bool:
        """Offer a word this cycle; returns False when stalled."""
        if not self.can_accept():
            return False
        self._pipe.append([self.interface.stages, payload])
        return True

    def step(self) -> None:
        """Advance one cycle."""
        self.cycles += 1
        matured = []
        for entry in self._pipe:
            entry[0] -= 1
            if entry[0] <= 0:
                matured.append(entry)
        for entry in matured:
            if len(self._output) < self.buffer_depth:
                self._pipe.remove(entry)
                self._output.append(entry[1])

    def pop(self):
        """Consume the oldest delivered word, or ``None`` when empty."""
        if self._output:
            return self._output.pop(0)
        return None

    @property
    def idle(self) -> bool:
        """True when nothing is in flight or buffered."""
        return not self._pipe and not self._output


def boundary_overhead_cycles(crossings: int, stages: int = 2) -> int:
    """Total added latency for a datum that crosses ``crossings`` boundaries.

    This is what the virtualized accelerator pays per dependent chain of
    computation relative to the monolithic baseline: each virtual-block
    boundary on the chain adds ``stages`` cycles.
    """
    if crossings < 0:
        raise MappingError("crossings must be non-negative")
    return crossings * stages
