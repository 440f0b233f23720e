"""Serving-edge policy knobs: admission, deadlines, retries, brownout.

Everything the :class:`~repro.serving.frontend.ServingFrontend` decides is
parameterised here so the bench can sweep policies without code changes.
Defaults are tuned for the four-board paper cluster serving the small
benchmark models; a larger pool wants proportionally larger queue bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..units import ms


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
    #: First retry backoff; doubles per failure, jittered.
    retry_base_s: float = ms(2.0)
    #: Ceiling on one backoff delay.
    retry_cap_s: float = ms(32.0)
    #: Jitter fraction: the delay is scaled by a uniform draw from
    #: ``[1 - jitter, 1 + jitter]`` so synchronized failures don't retry in
    #: lockstep.
    retry_jitter: float = 0.5
    #: Seed for the jitter stream (the only randomness in the frontend).
    seed: int = 0

    # -- circuit breakers -----------------------------------------------------
    breaker_enabled: bool = True
    #: Weighted failure mass inside the window that opens a breaker
    #: (a board failure counts 1.0, a deadline-missing completion 0.5).
    breaker_threshold: float = 2.0
    #: Sliding window the failure mass is counted over.
    breaker_window_s: float = 0.5
    #: Time a breaker stays open before a half-open probe; doubles per
    #: consecutive open, capped at 8x.
    breaker_cooldown_s: float = 0.2
    #: Successful completions a half-open board must serve to close.
    breaker_probe_budget: int = 2

    # -- brownout / graceful degradation --------------------------------------
    brownout_enabled: bool = True
    #: Cluster block-utilisation fraction that enters brownout.
    brownout_high_watermark: float = 0.85
    #: Utilisation at which brownout exits (hysteresis band).
    brownout_low_watermark: float = 0.60
    #: Queue depth at which a model counts as *hot* (eligible for a
    #: scale-down switch while brownout holds).
    brownout_hot_depth: int = 4

    def __post_init__(self):
        if self.max_queue_depth < 1:
            raise ReproError("max_queue_depth must be >= 1")
        if self.retry_budget < 0:
            raise ReproError("retry_budget must be >= 0")
        if not 0.0 <= self.retry_jitter < 1.0:
            raise ReproError("retry_jitter must be in [0, 1)")
        if not 0.0 < self.brownout_low_watermark <= self.brownout_high_watermark <= 1.0:
            raise ReproError(
                "brownout watermarks must satisfy 0 < low <= high <= 1"
            )

    def backoff_s(self, attempt: int) -> float:
        """The un-jittered backoff delay after failure number ``attempt``
        (1-based); the frontend applies jitter on top."""
        return min(self.retry_cap_s, self.retry_base_s * (2 ** max(0, attempt - 1)))
