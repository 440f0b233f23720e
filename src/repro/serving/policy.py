"""Serving-edge policy: admission, deadlines, retries, brownout.

:class:`ServingParameters` holds what a run may set: the queue bound, the
default deadline, the retry budget, the jitter seed and whether brownout
runs at all.  The backoff schedule and the brownout band are fixed system
policy, module constants here; the circuit-breaker constants live in
:mod:`repro.serving.breaker`.  Defaults are tuned for the four-board paper
cluster serving the small benchmark models; a larger pool wants
proportionally larger queue bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..units import ms

#: First retry backoff; doubles per failure, jittered.
RETRY_BASE_S = ms(2.0)
#: Ceiling on one backoff delay.
RETRY_CAP_S = ms(32.0)
#: Jitter fraction: the delay is scaled by a uniform draw from
#: ``[1 - jitter, 1 + jitter]`` so synchronized failures don't retry in
#: lockstep.
RETRY_JITTER = 0.5

#: Cluster block-utilisation fraction that enters brownout.
BROWNOUT_HIGH_WATERMARK = 0.85
#: Utilisation at which brownout exits; strictly below the high mark (the
#: hysteresis band), so a transition never flips back at unchanged
#: utilisation.
BROWNOUT_LOW_WATERMARK = 0.60
#: Queue depth at which a model counts as *hot* (eligible for a
#: scale-down switch while brownout holds).
BROWNOUT_HOT_DEPTH = 4


def backoff_s(attempt: int) -> float:
    """The un-jittered backoff delay after failure number ``attempt``
    (1-based); the frontend applies jitter on top."""
    return min(RETRY_CAP_S, RETRY_BASE_S * (2 ** max(0, attempt - 1)))


@dataclass(frozen=True)
class ServingParameters:
    """Policy knobs for the overload-robust serving edge."""

    # -- admission control ----------------------------------------------------
    #: Per-model bounded queue: arrivals past this depth are shed at the
    #: door (tail drop).
    max_queue_depth: int = 12

    # -- deadlines ------------------------------------------------------------
    #: Deadline granted to requests that do not carry their own: a request
    #: not *started* by ``arrival + default_deadline_s`` expires at that
    #: deadline and never occupies a board.
    default_deadline_s: float = 0.5

    # -- retry budget ---------------------------------------------------------
    #: Genuine placement failures a request may absorb before it is
    #: abandoned (waiting for a busy deployment does not count).
    retry_budget: int = 4
    #: Seed for the backoff jitter stream (the only randomness in the
    #: frontend).
    seed: int = 0

    # -- brownout / graceful degradation --------------------------------------
    brownout_enabled: bool = True

    def __post_init__(self):
        if self.max_queue_depth < 1:
            raise ReproError("max_queue_depth must be >= 1")
        if self.retry_budget < 0:
            raise ReproError("retry_budget must be >= 0")
