"""Weighted fair-share + strict-priority scheduling with preemption.

:class:`TenantScheduler` is a :class:`~repro.cluster.simulator.Scheduler`
layered over an inner scheduler — a bare
:class:`~repro.runtime.systems.ProposedSystem` or a
:class:`~repro.serving.frontend.ServingFrontend` (which keeps admission
control, deadlines, retries and breakers; the tenancy layer wraps it the
way the frontend wraps the system).  It adds:

* **tenant identities** — every task carries ``task.tenant``; per-tenant
  state tracks running work, fair-share virtual time and outcome
  counters (queued work is the simulator's ``tenant_depth``);
* **quotas** — block ceilings enforced *at the allocation point*:
  the layer installs :meth:`TenantScheduler._quota_allows` as the
  controller's ``quota`` once, and the controller asks it for the tenant
  each placement is for, so a tenant can be declined but never overshoot
  (zero-violation by construction), with instantaneous usage read off the
  :class:`~repro.autoscale.accounting.ReplicaLedger`'s tenant axis;
* **dispatch order** — the simulator's optional ``dispatch_key`` hook,
  which replaces the system's locality order: strict priority classes
  first, start-time fair queueing within a class (each start advances the
  tenant's virtual time by ``service/weight``, so a weight-2 tenant
  receives twice the share of a weight-1 peer under contention);
* **preemption = checkpoint + requeue** — when a higher-priority tenant's
  task fails placement on *capacity* (``task.decline == "capacity"``, not
  ``"quota"``), lower-priority preemptible deployments on the best board
  are drained, checkpointed to host memory (priced by
  :meth:`~repro.migration.engine.MigrationEngine.host_stream_s`, the cost
  recovery restores and autoscaler retires pay too) and discarded; a
  running victim task (``deployment.task``) is aborted and requeued, and
  on its next start it is charged only the checkpoint-restore stream plus
  its *remaining* service, so the preempted tenant loses the round trip
  but not the work.

The layer calls its inner layer directly for the hooks it works around
(``try_start``, ``on_finish``, ``bind_simulator``), and probes only
``admit`` and ``requeue``, which a bare system does not define.  It
learns why an inner start declined from ``task.decline``, and writes its
own reason, ``"preempt"``, there when a teardown for the model is pending
or the decline started a sweep; ``task.retry_at`` is then ``math.inf``,
to wait for the teardown, as after ``"quota"`` for a release.  The queue
view the system reads is the simulator's, and the tenant a placement is
for travels as an argument (``task.tenant``, which the system passes to
the controller), so nothing here forwards either.

Everything is off by default at the system level: untenanted runs never
construct this class, ``task.tenant == ""`` everywhere, and the fig12
goldens are bit-identical.  The layer must be bound to a simulator
before its first :meth:`TenantScheduler.admit`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..autoscale.accounting import ReplicaLedger
from ..cluster.simulator import Task
from ..errors import ReproError
from ..runtime.deployment import Deployment, DeploymentState
from .policy import (
    MAX_VICTIMS,
    PREEMPT_COOLDOWN_S,
    TenancyParameters,
    TenantParameters,
)


@dataclass
class TenantState:
    """Mutable runtime state of one tenant.  Its queued work is not here:
    the simulator's queues hold it."""

    params: TenantParameters
    #: Start-time fair-queueing virtual time; advanced by
    #: ``service / weight`` at every start, floor-normalised on activation
    #: so an idle tenant cannot hoard credit.
    vtime: float = 0.0
    running: int = 0
    offered: int = 0
    shed: int = 0
    completed: int = 0
    #: Task runs of this tenant aborted by preemption.
    preempted: int = 0
    #: Preemption sweeps this tenant triggered as the starved party.
    preemptions_triggered: int = 0
    latencies_s: list = field(default_factory=list)


@dataclass(slots=True)
class TenancyRecord:
    """The tenancy layer's state for one admitted request until it
    finishes (``task.tenancy``): its tenant's :class:`TenantState`, set
    once at admission, the ``(remaining_service_s, restore_stream_s)``
    credit owed to its next start after a preemption, the finish time of
    its current run, and whether it was ever preempted.  Why its last
    start declined is ``task.decline``."""

    state: TenantState
    resume_credit: tuple | None = None
    finish_s: float = 0.0
    preempted: bool = False


@dataclass
class TenancyStats:
    """Aggregate tenancy-layer counters."""

    preemption_sweeps: int = 0
    deployments_preempted: int = 0
    #: Abort events (a task preempted twice counts twice).
    tasks_preempted: int = 0
    #: Distinct tasks ever preempted (the recovery-rate denominator).
    preempted_distinct: int = 0
    #: Distinct preempted tasks that subsequently ran to completion.
    preempted_completed: int = 0
    #: Arrivals shed by a tenant's admission quota.  No contract sets one
    #: yet, so it reads 0; the tenancy bench reports it.
    quota_sheds: int = 0
    #: Total drain + checkpoint-stream time charged to teardowns.
    checkpoint_s: float = 0.0
    #: Total restore-stream time charged to preempted tasks' restarts.
    restore_s: float = 0.0


class TenantScheduler:
    """Multi-tenant fairness layer over one inner scheduler."""

    name = "tenancy"

    def __init__(
        self,
        inner,
        tenants,
        params: TenancyParameters | None = None,
    ):
        self.inner = inner
        #: The inner layer's admission (a frontend's), or ``None`` for a
        #: bare system, which has none.
        self._inner_admit = getattr(inner, "admit", None)
        #: The placement-owning system (the frontend exposes its wrapped
        #: system; a bare system is its own).
        self.system = getattr(inner, "system", inner)
        self.controller = self.system.controller
        self.params = params or TenancyParameters()
        self.stats = TenancyStats()
        self._tenants: dict[str, TenantState] = {}
        for tenant in tenants:
            if not isinstance(tenant, TenantParameters):
                raise ReproError(
                    f"tenants must be TenantParameters, got {tenant!r}"
                )
            if tenant.name in self._tenants:
                raise ReproError(f"duplicate tenant {tenant.name!r}")
            self._tenants[tenant.name] = TenantState(params=tenant)
        #: Lowest priority class holding a preemptible tenant (``inf``
        #: when no tenant is preemptible).  A starved task at or below it
        #: has no possible victim, so only a task above it plans a sweep;
        #: tenants :meth:`_state` registers later are never preemptible,
        #: so this cannot go stale.
        self._lowest_preemptible = min(
            (
                state.params.priority
                for state in self._tenants.values()
                if state.params.preemptible
            ),
            default=math.inf,
        )
        # Quota usage is read off the ledger's tenant axis; adopt the
        # controller's ledger when one is already attached (autoscale
        # composition shares it) and attach one otherwise.
        if self.controller.ledger is None:
            self.controller.ledger = ReplicaLedger()
        self.ledger = self.controller.ledger
        self.controller.tenant_isolation = self.params.isolation
        self.controller.quota = self._quota_allows
        self._simulator = None
        #: model_key -> preemption teardowns in flight (their completion
        #: frees the blocks the starved model is waiting for).
        self._preempt_pending: dict[str, int] = {}
        #: Earliest time the next preemption sweep may run.
        self._preempt_gate_s = 0.0

    # -- tenant registry -----------------------------------------------------

    def _state(self, name: str) -> TenantState:
        state = self._tenants.get(name)
        if state is None:
            # Unknown (incl. untenanted "") tenants get neutral defaults:
            # lowest priority, weight 1, no quotas, never preempted.
            state = TenantState(
                params=TenantParameters(name=name, preemptible=False)
            )
            self._tenants[name] = state
        return state

    def tenant_report(self) -> dict:
        """Per-tenant outcome summary."""
        report = {}
        for name in sorted(self._tenants):
            state = self._tenants[name]
            latencies = sorted(state.latencies_s)
            report[name] = {
                "priority": state.params.priority,
                "weight": state.params.weight,
                "block_quota": state.params.block_quota,
                "offered": state.offered,
                "shed": state.shed,
                "completed": state.completed,
                "preempted": state.preempted,
                "peak_open_blocks": self.ledger.peak_open_blocks.get(name, 0),
                "mean_latency_s": (
                    sum(latencies) / len(latencies) if latencies else 0.0
                ),
            }
        return report

    def quota_violations(self) -> dict:
        """Tenants whose *peak* resident blocks ever exceeded their quota —
        empty by construction (the quota declines before the allocator),
        and the bench asserts exactly that."""
        violations = {}
        for name, state in self._tenants.items():
            quota = state.params.block_quota
            peak = self.ledger.peak_open_blocks.get(name, 0)
            if quota is not None and peak > quota:
                violations[name] = {"kind": "blocks", "peak": peak,
                                    "quota": quota}
        return violations

    # -- Scheduler protocol --------------------------------------------------

    def bind_simulator(self, simulator) -> None:
        self._simulator = simulator
        self.inner.bind_simulator(simulator)

    def dispatch_key(self, task: Task) -> tuple:
        """Strict priority classes, fair-share virtual time within one; the
        simulator breaks ties by arrival FIFO."""
        state = task.tenancy.state
        return (-state.params.priority, state.vtime)

    def admit(self, task: Task, now: float) -> bool:
        simulator = self._simulator
        if simulator is None:
            raise ReproError("TenantScheduler.admit before bind_simulator")
        tenant = task.tenant
        state = self._state(tenant)
        state.offered += 1
        inner_admit = self._inner_admit
        if inner_admit is not None and not inner_admit(task, now):
            state.shed += 1
            return False
        if not state.running and not simulator.tenant_depth(tenant):
            # Activation floor: an idle tenant (nothing queued or running)
            # re-enters at the active minimum, not at its stale (possibly
            # tiny) virtual time — otherwise a long-idle tenant would lock
            # out its class.
            active = [
                other.vtime for name, other in self._tenants.items()
                if other is not state and (
                    other.running or simulator.tenant_depth(name)
                )
            ]
            if active:
                state.vtime = max(state.vtime, min(active))
        task.tenancy = TenancyRecord(state)
        return True

    def try_start(self, task: Task, now: float) -> float | None:
        if self._preempt_pending.get(task.model_key, 0) > 0:
            # Blocks for this model are already being reclaimed; starting
            # another sweep before they land would over-evict.
            task.decline = "preempt"
            task.retry_at = math.inf
            return None
        record = task.tenancy
        state = record.state
        service = self.inner.try_start(task, now)
        if service is None:
            if (
                task.decline == "capacity"
                and state.params.priority > self._lowest_preemptible
                and self._maybe_preempt(task, state, now)
            ):
                task.decline = "preempt"
            if task.decline in ("quota", "preempt"):
                # Only a version bump helps: a release or a discard, or the
                # teardown's completion (an external event).
                task.retry_at = math.inf
            return None
        state.running += 1
        credit = record.resume_credit
        if credit is not None:
            record.resume_credit = None
            # Checkpointed restart: pay whatever placement overhead the
            # inner start actually charged (reconfig + weight load for a
            # fresh deployment), the checkpoint's restore stream, and only
            # the service the preempted run had left.
            remaining, restore = credit
            overhead = max(0.0, service - task.placement.service_s)
            service = overhead + restore + remaining
            self.stats.restore_s += restore
        state.vtime += service / state.params.weight
        record.finish_s = now + service
        return service

    def on_finish(self, task: Task, now: float) -> None:
        record = task.tenancy
        state = record.state
        state.running -= 1
        state.completed += 1
        state.latencies_s.append(now - task.arrival_s)
        if record.preempted:
            self.stats.preempted_completed += 1
        task.tenancy = None  # nothing reads it after the finish
        self.inner.on_finish(task, now)

    # -- quota ---------------------------------------------------------------

    def _quota_allows(self, tenant: str, plan) -> bool:
        """Whether ``tenant`` may hold ``plan`` on top of what it holds
        now (the controller's ``quota``).  A tenant with no quota, or one
        not registered, may hold anything."""
        state = self._tenants.get(tenant)
        if state is None:
            return True
        blocks = state.params.block_quota
        return blocks is None or (
            self.ledger.open_blocks(tenant) + plan.footprint <= blocks
        )

    # -- preemption ----------------------------------------------------------

    def _maybe_preempt(self, task: Task, state: TenantState,
                       now: float) -> bool:
        """A capacity-starved task above the lowest preemptible class (the
        caller checks): drain, checkpoint and discard enough lower-class
        preemptible deployments on one board per needed replica.  Returns
        whether a sweep started."""
        if now < self._preempt_gate_s:
            return False
        priority = state.params.priority
        controller = self.controller
        entry = controller.catalog.entry_by_key(task.model_key)
        plans = sorted(entry.sorted_plans(), key=controller.plan_footprint)
        for plan in plans:
            if not self._quota_allows(task.tenant, plan):
                continue  # reclaiming blocks the tenant may not hold is moot
            victims = self._plan_victims(plan, priority)
            if victims is not None:
                self._execute_preemption(victims, task, state, now)
                return True
        return False

    def _victim_ok(self, deployment: Deployment, priority: int) -> bool:
        if deployment.state not in (DeploymentState.IDLE,
                                    DeploymentState.BUSY):
            return False
        if deployment.pending_recovery:
            return False
        owner = self._tenants.get(deployment.tenant)
        if owner is None:
            return False  # unknown/untenanted deployments are never victims
        return (
            owner.params.preemptible and owner.params.priority < priority
        )

    def _plan_victims(self, plan, priority: int) -> list | None:
        """Choose victims opening one hole per replica of ``plan``, or
        ``None``.  Per device type, boards are scanned in stable id order;
        on each board idle victims go first, then busy LRU, and a board
        qualifies when its free blocks plus its victims' blocks cover one
        replica image."""
        controller = self.controller
        for device_type in plan.feasible_types:
            image = plan.images[device_type]
            needed = image.virtual_blocks
            taken: set[str] = set()
            victims: list[Deployment] = []
            boards_found = 0
            for board in controller.index.boards_by_id(device_type):
                candidates = [
                    d
                    for d in controller.deployments_on(board.fpga_id)
                    if d.deployment_id not in taken
                    and self._victim_ok(d, priority)
                ]
                candidates.sort(
                    key=lambda d: (not d.is_idle, d.last_used_s)
                )
                free = board.free_blocks
                chosen: list[Deployment] = []
                for victim in candidates:
                    if free >= needed:
                        break
                    free += sum(
                        p.virtual_blocks
                        for p in victim.placements
                        if p.fpga_id == board.fpga_id
                    )
                    chosen.append(victim)
                if free < needed or not chosen:
                    continue  # board can't be opened (or is already open)
                if len(victims) + len(chosen) > MAX_VICTIMS:
                    continue
                victims.extend(chosen)
                taken.update(v.deployment_id for v in chosen)
                boards_found += 1
                if boards_found == plan.replicas:
                    return victims
        return None

    def _execute_preemption(self, victims: list, task: Task,
                            state: TenantState, now: float) -> None:
        controller = self.controller
        engine = controller.migration
        self.stats.preemption_sweeps += 1
        state.preemptions_triggered += 1
        for victim in victims:
            # The checkpoint streams out after the drain, and the same
            # state streams back when the victim's task restarts.
            restore_s = engine.host_stream_s(victim)
            teardown_s = engine.DRAIN_S + restore_s
            self.stats.checkpoint_s += teardown_s
            if victim.state is DeploymentState.BUSY:
                self._abort_victim_task(victim, restore_s, now)
            # Blocks stay held through the drain + checkpoint stream; the
            # MIGRATING state keeps the deployment unservable and
            # unevictable until the teardown lands.
            controller.set_state(victim, DeploymentState.MIGRATING)
            self.stats.deployments_preempted += 1
            model_key = task.model_key
            self._preempt_pending[model_key] = (
                self._preempt_pending.get(model_key, 0) + 1
            )

            def teardown(fire_now, victim=victim, model_key=model_key):
                controller.discard(victim)
                self._preempt_pending[model_key] -= 1

            self._simulator.schedule_external(teardown_s, teardown)
        self._preempt_gate_s = now + PREEMPT_COOLDOWN_S

    def _abort_victim_task(self, victim: Deployment, restore_s: float,
                           now: float) -> None:
        """Checkpoint + requeue the task running on a busy victim."""
        victim_task = victim.task
        if victim_task is None:
            return  # acquired outside a start: no task to requeue
        self.system.abort_task(victim_task)
        record = victim_task.tenancy
        record.resume_credit = (max(0.0, record.finish_s - now), restore_s)
        if not record.preempted:
            record.preempted = True
            self.stats.preempted_distinct += 1
        owner = record.state
        owner.running -= 1
        owner.preempted += 1
        self.stats.tasks_preempted += 1
        # The simulator requeues the task first, so a frontend that finds
        # it late can drop it at once.
        self._simulator.abort_running(victim_task)
        requeue = getattr(self.inner, "requeue", None)
        if requeue is not None:
            requeue(victim_task, now)
