"""Automatic failure recovery: rebuild deployments lost to board faults.

When a board fails its resident replica configurations are gone.  The
recovery manager rebuilds every affected deployment from its last periodic
checkpoint, whose restore
:meth:`~repro.migration.engine.MigrationEngine.host_stream_s` prices:

1. tear the broken deployment down (releasing whatever blocks survive);
2. re-place the *same* deployment plan on healthy boards and stream the
   checkpoint back in — restore cost is destination reconfiguration plus
   the checkpoint's architectural state over the host PCIe link;
3. when no same-width placement exists, fall back to the paper's
   scale-down optimisation: any other width in the mapping database, paid
   for with a cold weight reload (a checkpoint taken at one replica width
   does not restore onto another);
4. when nothing fits at all, retry with bounded exponential backoff —
   capacity usually returns within an MTTR.

Restores and retries are timed events on the controller's bound
:class:`~repro.cluster.simulator.ClusterSimulator`; recovering without
one raises :class:`~repro.errors.ReproError`.

Checkpoint cadence is arithmetic (see
:meth:`~repro.runtime.deployment.Deployment.last_checkpoint_s`): a
checkpoint every :data:`CHECKPOINT_INTERVAL_S` starting at the deployment's
``checkpoint_origin_s``, so lost work is computable without per-deployment
DES events.  Busy, migrating and mid-restore deployments are not yanked:
the failure marks them ``pending_recovery`` and the controller/engine runs
the recovery at their next state transition.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..perf.latency import weight_load_seconds
from ..runtime.deployment import Deployment, DeploymentState
from ..units import ms
from ..workloads.deepbench import model_by_key


#: Periodic checkpoint interval; work since the last tick is lost on
#: failure.
CHECKPOINT_INTERVAL_S = ms(50.0)
#: First redeploy retry delay; doubles per attempt.
RETRY_BASE_S = ms(2.0)
#: Ceiling on the backoff delay.
RETRY_CAP_S = ms(64.0)
#: Attempts before the deployment is abandoned (it can still be
#: re-created by the next task for its model, but the failure is
#: counted).
MAX_RETRIES = 8


def backoff_s(attempt: int) -> float:
    """The capped backoff delay scheduled before retry ``attempt``."""
    return min(RETRY_CAP_S, RETRY_BASE_S * (2 ** attempt))


@dataclass(frozen=True)
class RecoveryAbandoned:
    """Structured event: a deployment could not be rebuilt.

    Emitted through :meth:`~repro.runtime.controller.SystemController.
    emit_event` when the recovery manager gives up after its final backoff
    retry.  The model stays servable: its next task re-deploys from the
    catalog; what is lost is the warm deployment and its checkpoint.
    """

    model_key: str
    replicas: int
    attempts: int
    at_s: float


class RecoveryManager:
    """Re-places deployments broken by board failures (one per controller)."""

    def __init__(self, controller):
        self.controller = controller
        self.restores_started = 0

    # -- failure intake ------------------------------------------------------

    def on_board_failure(self, board, now: float) -> None:
        """A board just went FAILED: account and recover its residents.

        Lost work (time since the last periodic checkpoint) is charged at
        failure time for every affected deployment, whatever its state.
        Idle deployments recover immediately; busy/migrating/restoring ones
        are flagged and picked up at their next state transition.
        """
        controller = self.controller
        # Reverse residency index: O(residents on the board), not O(fleet)
        # — at 1000 boards the old full-fleet scan dominated every storm.
        affected = controller.deployments_on(board.fpga_id)
        for deployment in affected:
            controller.stats.deployments_failed += 1
            lost = now - deployment.last_checkpoint_s(
                now, CHECKPOINT_INTERVAL_S
            )
            controller.stats.lost_work_s += lost
            if deployment.state is DeploymentState.IDLE:
                self.recover(deployment, now)
            else:
                deployment.pending_recovery = True

    def recover(self, deployment: Deployment, now: float) -> None:
        """Tear the broken deployment down and rebuild it elsewhere.  The
        rebuild is timed work, so without a simulator this raises before it
        changes anything."""
        self.controller._clock()
        deployment.pending_recovery = False
        self.controller.discard(deployment)
        self._replace(
            deployment.model_key, deployment.plan, now, attempt=0,
            tenant=deployment.tenant,
        )

    # -- re-placement --------------------------------------------------------

    def _replace(
        self, model_key: str, plan, now: float, attempt: int, tenant: str = ""
    ) -> None:
        controller = self.controller
        if controller._any_plan_could_fit(model_key):
            # Same width first: the checkpoint restores exactly onto it.
            assignment = controller._find_placement(plan)
            if assignment is not None:
                self._restore(plan, assignment, now, scale_down=False,
                              tenant=tenant)
                return
            # Scale-down fallback: any other width from the same mapping
            # database.  A cross-width restore restarts from weights, so
            # it is charged as a cold start, not a checkpoint restore.
            for candidate in controller.catalog.entry_by_key(
                model_key
            ).sorted_plans():
                if candidate.replicas == plan.replicas:
                    continue
                assignment = controller._find_placement(candidate)
                if assignment is not None:
                    self._restore(candidate, assignment, now, scale_down=True,
                                  tenant=tenant)
                    return
        self._schedule_retry(model_key, plan, now, attempt, tenant=tenant)

    def _restore(
        self, plan, assignment: list, now: float, scale_down: bool,
        tenant: str = "",
    ) -> None:
        controller = self.controller
        simulator = controller._clock()
        # A rebuilt deployment stays charged to its original tenant.
        deployment, _ = controller._instantiate(plan, assignment, now, tenant)
        cost = self._restore_cost(deployment, from_checkpoint=not scale_down)
        self.restores_started += 1
        controller.set_state(deployment, DeploymentState.RECOVERING)

        def complete(fire_now, deployment=deployment, scale_down=scale_down):
            self._complete_recovery(deployment, fire_now, scale_down)

        simulator.schedule_external(cost, complete)

    def _restore_cost(self, deployment: Deployment, from_checkpoint: bool) -> float:
        """Time to bring the replacement deployment into service.

        Checkpoint restores pay destination reconfiguration plus the
        checkpoint's architectural state streamed over the host PCIe link
        (checkpoints live in host memory, not on the dead board).  Cold
        restarts (scale-down fallback) pay reconfiguration plus a full
        weight reload instead.
        """
        controller = self.controller
        reconfig = sum(
            placement.virtual_blocks for placement in deployment.placements
        ) * controller.reconfig_s_per_block
        if not from_checkpoint:
            return reconfig + weight_load_seconds(
                model_by_key(deployment.model_key).parameter_count
            )
        return controller.migration.host_stream_s(deployment, reconfig)

    def _complete_recovery(
        self, deployment: Deployment, now: float, scale_down: bool
    ) -> None:
        controller = self.controller
        if deployment.deployment_id not in controller.deployments:
            return  # torn down while restoring (eviction or a lost race)
        if deployment.pending_recovery:
            # A board under the restore target failed mid-flight: the
            # freshly configured blocks are gone too, so go around again.
            self.recover(deployment, now)
            return
        controller.set_state(deployment, DeploymentState.IDLE, now)
        # A completed restore is a fresh checkpoint: restart the cadence.
        deployment.checkpoint_origin_s = now
        deployment.recoveries += 1
        controller.stats.recoveries += 1
        if scale_down:
            controller.stats.scale_down_recoveries += 1

    # -- backoff -------------------------------------------------------------

    def _schedule_retry(
        self, model_key: str, plan, now: float, attempt: int, tenant: str = ""
    ) -> None:
        controller = self.controller
        if attempt >= MAX_RETRIES:
            controller.stats.recovery_failures += 1
            controller.emit_event(
                RecoveryAbandoned(
                    model_key=model_key,
                    replicas=plan.replicas,
                    attempts=attempt,
                    at_s=now,
                )
            )
            return
        simulator = controller._clock()
        delay = backoff_s(attempt)
        controller.stats.recovery_retries += 1
        controller.stats.recovery_backoff_s += delay

        def retry(
            fire_now, model_key=model_key, plan=plan, attempt=attempt,
            tenant=tenant,
        ):
            self._replace(model_key, plan, fire_now, attempt + 1, tenant=tenant)

        simulator.schedule_external(delay, retry)
