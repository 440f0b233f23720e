"""Autoscaling policy: the fixed control loop and the knobs a run sets.

The :class:`~repro.autoscale.autoscaler.Autoscaler`'s cadence, replica
floor, queue-depth watermarks, rate smoothing and fault suppression are
fixed system policy, module constants here; :class:`AutoscaleParameters`
holds what a run may set (the replica ceiling, the two cooldowns and the
scale-down headroom).  The two watermarks form a hysteresis band on queue
depth — scale-up fires at or above the high mark, scale-down is only
*considered* at or below the low mark — and each direction carries its own
cooldown, so a steady arrival rate whose queue depth straddles one
threshold cannot make the scaler flap.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..units import ms

#: Decision cadence: the autoscaler evaluates every model once per tick,
#: each tick a first-class DES event.
INTERVAL_S = ms(5.0)
#: Replica-unit floor per model (a deployment contributes its plan's
#: replica count).  Scale-down never goes below this.
MIN_REPLICAS = 1
#: Queue depth at or above which a model is under-provisioned.
HIGH_WATERMARK = 6
#: Queue depth at or below which scale-down may be considered; strictly
#: below :data:`HIGH_WATERMARK` (the hysteresis band).
LOW_WATERMARK = 1
#: EWMA smoothing factor for the per-model arrival-rate estimate
#: (per-tick instantaneous rate blended at this weight).
RATE_ALPHA = 0.3
#: Scale-ups are suppressed for this long after the fault-recovery
#: machinery performs a scale-down-fallback restore (or any board
#: failure): the cluster just shrank because capacity *vanished*, and
#: re-growing before the repair lands would flap against recovery.
FAULT_SUPPRESS_S = ms(150.0)
#: Scale-down requires the model's busy-deployment fraction at or below
#: this (capacity in use is capacity the trough still needs).
DOWN_BUSY_FRACTION = 0.5
#: Recent (per-tick window) SLO attainment below this floor counts as
#: scale-up pressure even before the queue reaches the high watermark.
SLO_FLOOR = 0.9


@dataclass(frozen=True)
class AutoscaleParameters:
    """Policy knobs for elastic replica autoscaling."""

    #: Replica-unit ceiling per model.  Scale-up never goes above this.
    max_replicas: int = 4
    #: Minimum time between scale-ups of one model.
    up_cooldown_s: float = ms(25.0)
    #: Minimum time between scale-downs of one model — and after a
    #: scale-up, so a grow is never immediately undone.
    down_cooldown_s: float = ms(100.0)
    #: Scale-down requires the EWMA arrival rate to fit within this
    #: utilisation of the capacity that would *remain* after the action.
    down_target_util: float = 0.6

    def __post_init__(self):
        if self.max_replicas < MIN_REPLICAS:
            raise ReproError(f"max_replicas must be >= {MIN_REPLICAS}")
        if not 0.0 < self.down_target_util <= 1.0:
            raise ReproError("down_target_util must be in (0, 1]")
        if self.up_cooldown_s < 0 or self.down_cooldown_s < 0:
            raise ReproError("cooldowns must be >= 0")
