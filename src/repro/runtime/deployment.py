"""Live deployment records.

A deployment is one accelerator (possibly scaled down into replicas)
resident on the cluster: which boards host which replica, how many virtual
blocks each occupies, and whether a task is currently running on it.
Deployments persist between tasks of the same model (persistent-NN serving)
and are evicted LRU when the controller needs their blocks.

A resident deployment's ``state`` belongs to its controller, because the
controller indexes idle deployments:
:meth:`~repro.runtime.controller.SystemController.acquire` and
:meth:`~repro.runtime.controller.SystemController.release` make the
IDLE <-> BUSY moves of a task's start and finish, and
:meth:`~repro.runtime.controller.SystemController.set_state` every other
move.  Nothing here writes it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .catalog import DeploymentPlan


class DeploymentState(enum.Enum):
    IDLE = "idle"
    BUSY = "busy"
    #: Being moved to other boards: source and destination blocks are both
    #: occupied, and the deployment can neither serve nor be evicted until
    #: the move completes (:mod:`repro.migration.engine`).
    MIGRATING = "migrating"
    #: Being rebuilt after a board failure: destination blocks are held
    #: while the last checkpoint streams back in; not servable or
    #: evictable until the restore completes (:mod:`repro.faults`).
    RECOVERING = "recovering"


#: Hot-path alias: an enum member read through its class costs a
#: descriptor call per access.
_IDLE = DeploymentState.IDLE


@dataclass
class ReplicaPlacement:
    """One replica resident on one board."""

    fpga_id: str
    device_type: str
    virtual_blocks: int
    block_indices: list = field(default_factory=list)


@dataclass
class Deployment:
    """One resident accelerator."""

    deployment_id: str
    model_key: str
    plan: DeploymentPlan
    placements: list = field(default_factory=list)
    state: DeploymentState = DeploymentState.IDLE
    #: Cached per-task service latency (seconds), computed at creation.
    service_s: float = 0.0
    #: Last time this deployment finished a task (LRU eviction key).
    last_used_s: float = 0.0
    tasks_served: int = 0
    #: Completed live migrations (defrag moves included).
    migrations: int = 0
    #: When this deployment was instantiated (anchors checkpoint cadence).
    created_s: float = 0.0
    #: Time the periodic-checkpoint clock last restarted: creation, or the
    #: completion of a recovery (a restore *is* a fresh checkpoint).
    checkpoint_origin_s: float = 0.0
    #: Set when a board under this deployment failed while it was busy,
    #: migrating or mid-restore; the recovery manager picks it up at the
    #: next state transition instead of yanking blocks out from under the
    #: in-flight operation.
    pending_recovery: bool = False
    #: Completed failure recoveries.
    recoveries: int = 0
    #: Owning tenant (the tenant the controller instantiated it for;
    #: ``""`` = untenanted).  Quota accounting and the preemption victim
    #: scan key off this.
    tenant: str = ""
    #: Creation sequence within the controller (the ``n`` of ``dep-n``):
    #: ties in reuse, LRU eviction and residency order break on it.
    seq: int = 0
    #: The controller this deployment is resident in (``None`` before
    #: instantiation and after discard); state changes go through it.
    controller: object = field(default=None, repr=False, compare=False)
    #: The task running on it (set and cleared by the system that starts
    #: the task; ``None`` while none runs).
    task: object = field(default=None, repr=False, compare=False)

    @property
    def member_fpgas(self) -> list:
        return [placement.fpga_id for placement in self.placements]

    def last_checkpoint_s(self, now: float, interval_s: float) -> float:
        """Most recent periodic-checkpoint time at or before ``now``.

        The cadence policy is arithmetic rather than event-driven: a
        checkpoint is taken every ``interval_s`` seconds starting at
        :attr:`checkpoint_origin_s`, so the last one needs no per-deployment
        DES events to track.  Work since that instant is what a failure
        loses.
        """
        if interval_s <= 0 or now <= self.checkpoint_origin_s:
            return self.checkpoint_origin_s
        periods = int((now - self.checkpoint_origin_s) / interval_s)
        return self.checkpoint_origin_s + periods * interval_s

    @property
    def is_idle(self) -> bool:
        return self.state is _IDLE
