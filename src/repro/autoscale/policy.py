"""Autoscaling policy knobs.

Everything the :class:`~repro.autoscale.autoscaler.Autoscaler` decides is
parameterised here, mirroring :class:`~repro.serving.policy.
ServingParameters`.  The two watermarks form a hysteresis band on queue
depth — scale-up fires at or above the high mark, scale-down is only
*considered* at or below the low mark — and each direction carries its own
cooldown, so a steady arrival rate whose queue depth straddles one
threshold cannot make the scaler flap.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..units import ms

#: Scale-down requires the model's busy-deployment fraction at or below
#: this (capacity in use is capacity the trough still needs).
DOWN_BUSY_FRACTION = 0.5
#: Recent (per-tick window) SLO attainment below this floor counts as
#: scale-up pressure even before the queue reaches the high watermark.
SLO_FLOOR = 0.9


@dataclass(frozen=True)
class AutoscaleParameters:
    """Policy knobs for elastic replica autoscaling."""

    #: Decision cadence: the autoscaler evaluates every model once per
    #: tick, each tick a first-class DES event.
    interval_s: float = ms(5.0)
    #: Replica-unit floor per model (a deployment contributes its plan's
    #: replica count).  Scale-down never goes below this.
    min_replicas: int = 1
    #: Replica-unit ceiling per model.  Scale-up never goes above this.
    max_replicas: int = 4
    #: Queue depth at or above which a model is under-provisioned.
    high_watermark: int = 6
    #: Queue depth at or below which scale-down may be considered.  Must
    #: be strictly below ``high_watermark`` (the hysteresis band).
    low_watermark: int = 1
    #: EWMA smoothing factor for the per-model arrival-rate estimate
    #: (per-tick instantaneous rate blended at this weight).
    rate_alpha: float = 0.3
    #: Minimum time between scale-ups of one model.
    up_cooldown_s: float = ms(25.0)
    #: Minimum time between scale-downs of one model — and after a
    #: scale-up, so a grow is never immediately undone.
    down_cooldown_s: float = ms(100.0)
    #: Scale-down requires the EWMA arrival rate to fit within this
    #: utilisation of the capacity that would *remain* after the action.
    down_target_util: float = 0.6
    #: Scale-ups are suppressed for this long after the fault-recovery
    #: machinery performs a scale-down-fallback restore (or any board
    #: failure): the cluster just shrank because capacity *vanished*, and
    #: re-growing before the repair lands would flap against recovery.
    fault_suppress_s: float = ms(150.0)
    #: Whether scale-up may switch an idle deployment to a wider plan
    #: (more replicas, lower service time) before adding a deployment.
    widen_enabled: bool = True

    def __post_init__(self):
        if self.interval_s <= 0:
            raise ReproError("autoscale interval must be positive")
        if self.min_replicas < 1:
            raise ReproError("min_replicas must be >= 1")
        if self.max_replicas < self.min_replicas:
            raise ReproError("max_replicas must be >= min_replicas")
        if self.low_watermark >= self.high_watermark:
            raise ReproError(
                "watermarks must satisfy low < high (the hysteresis band)"
            )
        if self.low_watermark < 0:
            raise ReproError("low_watermark must be >= 0")
        if not 0.0 < self.rate_alpha <= 1.0:
            raise ReproError("rate_alpha must be in (0, 1]")
        if not 0.0 < self.down_target_util <= 1.0:
            raise ReproError("down_target_util must be in (0, 1]")
        if self.up_cooldown_s < 0 or self.down_cooldown_s < 0:
            raise ReproError("cooldowns must be >= 0")
