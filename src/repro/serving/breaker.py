"""Per-board circuit breakers: open on failures, drain, probe, re-admit.

A breaker watches one board's recent failure/latency signal and keeps the
serving edge from routing work onto a board that keeps killing it:

* ``CLOSED``    — healthy; failures accumulate in a sliding window of
  :data:`WINDOW_S`, and a mass of :data:`FAILURE_THRESHOLD` opens it.
* ``OPEN``      — too much recent failure mass: the board is *drained*
  through the health machinery (``HEALTHY -> DEGRADED``), which removes it
  from every placement query via the
  :class:`~repro.runtime.controller.PlacementIndex` without the placement
  policies knowing breakers exist.  Residents keep serving.
* ``HALF_OPEN`` — after a cooldown (:data:`COOLDOWN_S`) the board is
  re-admitted and must serve :data:`PROBE_BUDGET` on-deadline completions
  to close; any failure while half-open re-opens with a doubled cooldown
  (capped at 8x).

Signals are fed by the frontend: hard board failures (``BoardHealth``
transitions observed via ``subscribe_health``) weigh 1.0, completions that
missed their deadline weigh 0.5.  Every state change is reported to the
breaker's ``listener`` (the frontend's), whichever path made it.  The
breaker never *causes* state loss — opening is always a drain, so a false
positive costs capacity, not work.

The thresholds are fixed policy, module constants, the same for every
breaker and every run.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


#: Weighted failure mass inside the window that opens a breaker.
FAILURE_THRESHOLD = 2.0
#: Sliding window the failure mass is counted over.
WINDOW_S = 0.5
#: Time a breaker stays open before a half-open probe; doubles per
#: consecutive open, capped at 8x.
COOLDOWN_S = 0.2
#: Successful completions a half-open board must serve to close.
PROBE_BUDGET = 2
#: Hard cap on the cooldown growth (2^3 = 8x the base).
MAX_COOLDOWN_DOUBLINGS = 3

#: Signal weights.
FAILURE_WEIGHT = 1.0
SLOW_WEIGHT = 0.5


@dataclass
class CircuitBreaker:
    """Failure-mass window + state machine for one board."""

    fpga_id: str
    state: BreakerState = BreakerState.CLOSED
    #: (time, weight) samples inside the sliding window.
    _samples: deque = field(default_factory=deque)
    #: Successful probes served while half-open.
    probe_successes: int = 0
    #: Consecutive opens without an intervening close (cooldown doubling).
    consecutive_opens: int = 0
    #: True while this breaker holds the board DEGRADED (so it only
    #: repairs a drain it initiated, never an injector's).
    draining: bool = False
    #: Called as ``listener(breaker, old_state)`` after every state change.
    listener: object = field(default=None, repr=False, compare=False)

    def _move(self, state: BreakerState) -> None:
        old_state = self.state
        self.state = state
        if self.listener is not None:
            self.listener(self, old_state)

    def _prune(self, now: float) -> None:
        while self._samples and self._samples[0][0] < now - WINDOW_S:
            self._samples.popleft()

    def failure_mass(self, now: float) -> float:
        self._prune(now)
        return sum(weight for _, weight in self._samples)

    def cooldown_s(self) -> float:
        doublings = min(
            max(0, self.consecutive_opens - 1), MAX_COOLDOWN_DOUBLINGS
        )
        return COOLDOWN_S * (2 ** doublings)

    # -- signal intake -------------------------------------------------------

    def record_failure(self, now: float, weight: float = FAILURE_WEIGHT) -> bool:
        """Feed one failure sample; returns True when this opens the
        breaker (caller drains the board and schedules the probe)."""
        if self.state is BreakerState.OPEN:
            return False
        if self.state is BreakerState.HALF_OPEN:
            # A failed probe: straight back to OPEN, longer cooldown.
            self._open(now)
            return True
        self._samples.append((now, weight))
        if self.failure_mass(now) >= FAILURE_THRESHOLD:
            self._open(now)
            return True
        return False

    def record_slow(self, now: float) -> bool:
        """A completion that missed its deadline on this board."""
        return self.record_failure(now, weight=SLOW_WEIGHT)

    def record_success(self, now: float) -> bool:
        """An on-deadline completion; returns True when a half-open
        breaker closes."""
        if self.state is not BreakerState.HALF_OPEN:
            return False
        self.probe_successes += 1
        if self.probe_successes >= PROBE_BUDGET:
            self.consecutive_opens = 0
            self._samples.clear()
            self._move(BreakerState.CLOSED)
            return True
        return False

    # -- transitions ---------------------------------------------------------

    def _open(self, now: float) -> None:
        self.consecutive_opens += 1
        self.probe_successes = 0
        self._samples.clear()
        self._move(BreakerState.OPEN)

    def half_open(self) -> None:
        """Cooldown elapsed: re-admit the board for probing."""
        if self.state is BreakerState.OPEN:
            self.probe_successes = 0
            self._move(BreakerState.HALF_OPEN)
