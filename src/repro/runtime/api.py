"""The high-level system API (paper Fig. 7).

"This system controller also provides APIs for communicating with the
high-level system to enable an easy system integration."  This module is
that surface: a hypervisor/orchestrator integrates against
:class:`HypervisorAPI` without touching virtual blocks, catalogs or the
low-level controller directly.

The API is synchronous and handle-based: ``submit`` reserves an accelerator
for one inference task (deploying or queueing as needed) and returns a
:class:`TaskHandle`; ``complete`` releases it.  ``status`` reports cluster
occupancy for dashboards/schedulers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import DeploymentError
from .controller import SystemController


@dataclass(frozen=True)
class TaskHandle:
    """Opaque handle for one admitted task."""

    handle_id: int
    model_key: str
    deployment_id: str
    fpga_ids: tuple
    #: Predicted service time (seconds), including any reconfiguration the
    #: admission triggered.
    predicted_service_s: float


@dataclass
class ClusterStatus:
    """Occupancy snapshot for the high-level system."""

    free_blocks: dict = field(default_factory=dict)
    deployments: list = field(default_factory=list)
    models_resident: list = field(default_factory=list)


class HypervisorAPI:
    """What the hypervisor calls (Fig. 7's top arrow)."""

    def __init__(self, controller: SystemController):
        self._controller = controller
        self._handles: dict[int, TaskHandle] = {}
        self._ids = itertools.count(1)

    # -- task lifecycle ---------------------------------------------------------

    def submit(self, model_key: str, now: float = 0.0) -> TaskHandle | None:
        """Admit one inference task for ``model_key``.

        Reuses an idle deployment when one is resident, deploys otherwise,
        and returns ``None`` when the cluster cannot serve the task right
        now (the caller queues and retries — admission control stays with
        the high-level system).
        """
        deployment = self._controller.find_idle_deployment(model_key)
        reconfig = 0.0
        if deployment is None:
            placed = self._controller.try_deploy(model_key, now=now, waited_s=0.0)
            if placed.__class__ is not tuple:
                return None  # a refusal reason
            deployment, reconfig = placed
        self._controller.acquire(deployment)
        handle = TaskHandle(
            handle_id=next(self._ids),
            model_key=model_key,
            deployment_id=deployment.deployment_id,
            fpga_ids=tuple(deployment.member_fpgas),
            predicted_service_s=reconfig + deployment.service_s,
        )
        self._handles[handle.handle_id] = handle
        return handle

    def complete(self, handle: TaskHandle, now: float = 0.0) -> None:
        """Report a task finished; frees its accelerator for reuse."""
        if self._handles.pop(handle.handle_id, None) is None:
            raise DeploymentError(
                f"unknown or already-completed handle {handle.handle_id}"
            )
        deployment = self._controller.deployments.get(handle.deployment_id)
        if deployment is None:
            raise DeploymentError(
                f"deployment {handle.deployment_id} no longer exists"
            )
        self._controller.release(deployment, now)

    def in_flight(self) -> int:
        """Tasks admitted but not yet completed."""
        return len(self._handles)

    # -- introspection -------------------------------------------------------------

    def status(self) -> ClusterStatus:
        """Cluster occupancy snapshot."""
        controller = self._controller
        return ClusterStatus(
            free_blocks=controller.cluster.total_free_blocks(),
            deployments=[
                {
                    "id": d.deployment_id,
                    "model": d.model_key,
                    "state": d.state.value,
                    "fpgas": d.member_fpgas,
                    "tasks_served": d.tasks_served,
                }
                for d in controller.deployments.values()
            ],
            models_resident=sorted(
                {d.model_key for d in controller.deployments.values()}
            ),
        )

    def evict_idle(self, model_key: str) -> int:
        """Explicitly evict idle deployments of one model (hypervisor-driven
        reclamation); returns how many were torn down."""
        victims = self._controller.idle_of(model_key)
        for victim in victims:
            self._controller.evict(victim)
        return len(victims)
