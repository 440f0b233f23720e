"""Seeded fault injection: board failures and repairs as DES events.

The injector turns a per-board MTBF/MTTR model into first-class events on
the :class:`~repro.cluster.simulator.ClusterSimulator`: each board draws an
alternating exponential up/down timeline from one seeded
:class:`random.Random`, and every transition is scheduled through
``schedule_external`` so failures and repairs bump the resource version and
re-dispatch the queue exactly like task starts and finishes do.  Boards are
visited in sorted id order and all draws come from the single seeded
stream, so a (seed, mtbf, mttr, horizon) tuple always produces the same
timeline — chaos runs are reproducible bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import SimulationError
from ..vital.virtual_block import BoardHealth


@dataclass(frozen=True)
class FaultModelParameters:
    """Per-board failure process: exponential time-to-fail and time-to-repair."""

    #: Mean time between failures per board (seconds of simulated time).
    mtbf_s: float = 1.0
    #: Mean time to repair per failure.
    mttr_s: float = 0.05
    #: RNG seed; the whole timeline is a pure function of this.
    seed: int = 1
    #: Fraction of faults that degrade (drain) instead of failing hard:
    #: degraded boards keep serving residents but take no new placements.
    degraded_fraction: float = 0.0


class FaultInjector:
    """Schedules a reproducible failure/repair timeline on one simulator."""

    def __init__(self, simulator, controller, params: FaultModelParameters | None = None):
        self.simulator = simulator
        self.controller = controller
        self.params = params or FaultModelParameters()
        self.failures_injected = 0
        self.repairs_applied = 0
        self._down_since: dict[str, float] = {}
        self._downtime_s = 0.0

    # -- scheduling ----------------------------------------------------------

    def arm(self, horizon_s: float) -> int:
        """Draw and schedule the full timeline up to ``horizon_s``.

        Returns the number of events scheduled.  Failures are only drawn
        before the horizon; each failure's repair is scheduled even when it
        lands past the horizon, so every down board eventually returns to
        service (the run's makespan may extend slightly).
        """
        params = self.params
        if params.mtbf_s <= 0 or params.mttr_s <= 0:
            raise SimulationError(
                f"MTBF and MTTR must be positive "
                f"(got {params.mtbf_s}, {params.mttr_s})"
            )
        rng = random.Random(params.seed)
        scheduled = 0
        for fpga_id in sorted(self.controller.cluster.boards):
            at = rng.expovariate(1.0 / params.mtbf_s)
            while at < horizon_s:
                down_for = rng.expovariate(1.0 / params.mttr_s)
                degraded = rng.random() < params.degraded_fraction
                self._schedule_failure(fpga_id, at, degraded)
                self._schedule_repair(fpga_id, at + down_for)
                scheduled += 2
                at += down_for + rng.expovariate(1.0 / params.mtbf_s)
        return scheduled

    def _schedule_failure(self, fpga_id: str, at: float, degraded: bool) -> None:
        delay = at - self.simulator.queue.now
        self.simulator.schedule_external(
            delay,
            lambda now, f=fpga_id, d=degraded: self._fail(f, d, now),
        )

    def _schedule_repair(self, fpga_id: str, at: float) -> None:
        delay = at - self.simulator.queue.now
        self.simulator.schedule_external(
            delay, lambda now, f=fpga_id: self._repair(f, now)
        )

    # -- event bodies --------------------------------------------------------

    def _fail(self, fpga_id: str, degraded: bool, now: float) -> None:
        board = self.controller.cluster.board(fpga_id)
        if board.health is not BoardHealth.HEALTHY:
            return  # already down
        if degraded:
            self.controller.on_board_degraded(board)
        else:
            self.controller.on_board_failure(board, now)
        self.failures_injected += 1
        self._down_since[fpga_id] = now

    def _repair(self, fpga_id: str, now: float) -> None:
        board = self.controller.cluster.board(fpga_id)
        if board.health is BoardHealth.HEALTHY:
            return  # already repaired (overlapping schedules)
        self.controller.on_board_repair(board)
        self.repairs_applied += 1
        began = self._down_since.pop(fpga_id, now)
        self._downtime_s += now - began

    # -- metrics -------------------------------------------------------------

    def availability(self, horizon_s: float) -> float:
        """Fraction of board-time the cluster was placeable over the run.

        Downtime counts every non-HEALTHY interval (DEGRADED boards serve
        residents but are unavailable for placement); boards still down at
        the horizon are charged up to it.
        """
        if horizon_s <= 0 or not self.controller.cluster.boards:
            return 1.0
        down = self._downtime_s + sum(
            horizon_s - began
            for began in self._down_since.values()
            if began < horizon_s
        )
        total = len(self.controller.cluster.boards) * horizon_s
        return max(0.0, 1.0 - down / total)
