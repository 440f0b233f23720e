"""The system controller (paper Fig. 7).

Maintains the mapping database (catalog), performs resource allocation with
the greedy runtime policy — "sorts the mapping results based on the number
of soft blocks in ascending order [and] tries to find a feasible allocation
starting from the first mapping result" — and sends configuration requests
to the HS abstraction's low-level controller.

Placement queries run against a :class:`PlacementIndex`: a per-device-type
bisect-maintained list of ``(free_blocks, fpga_id)`` entries kept current
by board occupancy notifications, so candidate selection is an index probe
instead of a cluster scan.  Deployment lookups are likewise indexed: per
model, and — since the controller is the one writer of deployment state
(:meth:`SystemController.acquire`, :meth:`~SystemController.release` and
:meth:`~SystemController.set_state`) — per idle deployment, so reuse, LRU
eviction and wake hints read only idle copies.  Real FPGA-virtualization
runtimes keep allocator state incremental for the same reason; the
policies themselves are unchanged.

``same_type_only=True`` is the *restricted* policy of Fig. 12 that
emulates existing HS abstractions (one accelerator may only span FPGAs of
one device type).  Deployments are always timed with the pattern-guided
partitioner; the ViTAL-partitioner ablation is measured on the cycle model
directly (``benchmarks/test_ablations.py``).
"""

from __future__ import annotations

import bisect
import enum
import heapq
import itertools
from dataclasses import dataclass
from operator import attrgetter

from ..accel.timing import CycleModel, VirtualizationContext
from ..cluster.topology import FPGACluster
from ..errors import AllocationError, DeploymentError, ReproError
from ..perf.latency import single_fpga_latency, weight_load_seconds
from ..perf.overlap import scaleout_latency
from ..units import ms
from ..vital.bitstream import LowLevelController
from ..vital.virtual_block import BoardHealth
from ..workloads.deepbench import model_by_key
from .catalog import Catalog, DeploymentPlan
from .deployment import Deployment, DeploymentState, ReplicaPlacement


#: Hot-path aliases: an enum member read through its class costs a
#: descriptor call per access.
_IDLE = DeploymentState.IDLE
_BUSY = DeploymentState.BUSY


class PlacementPolicy(enum.Enum):
    """How boards are chosen among feasible candidates."""

    #: Fill the fullest board that still fits (packs small tasks tightly).
    BEST_FIT = "best_fit"
    #: Emptiest board first (spreads load; worst packing — ablation).
    WORST_FIT = "worst_fit"


#: Sort key over ``(free, fpga_id)`` entries per placement policy; ``None``
#: is the entries' own ascending order (best-fit: fullest that fits first).
_POLICY_ORDER = {
    PlacementPolicy.BEST_FIT: None,
    PlacementPolicy.WORST_FIT: lambda entry: (-entry[0], entry[1]),
}


class PlanOrder(enum.Enum):
    """In which order deployment plans are tried (paper Section 2.3).

    The paper's greedy policy minimises the number of allocated FPGAs to
    minimise inter-FPGA communication; ``WIDEST_FIRST`` is the ablation that
    prefers maximum parallelism and pays the communication instead.
    """

    #: The paper's policy: fewest FPGAs first.
    FEWEST_FPGAS = "fewest_fpgas"
    #: Ablation: widest (most-FPGA) plans first.
    WIDEST_FIRST = "widest_first"


@dataclass
class ControllerStats:
    deployments_created: int = 0
    deployments_evicted: int = 0
    placement_failures: int = 0
    reuse_hits: int = 0
    #: :meth:`SystemController.deploy` calls, whether they place or raise.
    deploy_calls: int = 0
    #: Full placement searches actually run (post fast-reject).
    placement_searches: int = 0
    #: Boards examined across all placement searches (the scan-cost metric:
    #: the index's bisect slices keep it sub-linear in cluster size).
    boards_probed: int = 0
    #: Placement attempts answered by the capacity fast-reject alone,
    #: probed or repeated from :meth:`SystemController.try_deploy`'s memo
    #: of the generation it last refused at.
    fast_rejects: int = 0
    #: Defragmentation plans issued (migration subsystem enabled only).
    defrag_plans: int = 0
    #: Board failures observed (fault subsystem).
    boards_failed: int = 0
    #: Boards put into drain mode (DEGRADED).
    boards_degraded: int = 0
    #: Boards returned to service.
    boards_repaired: int = 0
    #: Deployments lost to board failures.
    deployments_failed: int = 0
    #: Deployments successfully rebuilt after a failure.
    recoveries: int = 0
    #: Recoveries that had to re-plan at a different width (the paper's
    #: scale-down optimisation as a failure fallback).
    scale_down_recoveries: int = 0
    #: Backoff redeploy retries scheduled by the recovery manager.
    recovery_retries: int = 0
    #: Deployments abandoned after exhausting recovery retries.
    recovery_failures: int = 0
    #: Total backoff delay the recovery manager actually scheduled (the
    #: surfaced retry schedule; capped per attempt at ``RETRY_CAP_S``).
    recovery_backoff_s: float = 0.0
    #: Simulated work lost to failures (time since last checkpoint).
    lost_work_s: float = 0.0
    #: Placement attempts rejected by a tenant quota (counted apart
    #: from ``placement_failures``: a quota rejection is not a capacity
    #: shortfall, so it must trigger neither preemption nor defrag).
    quota_rejections: int = 0


class PlacementIndex:
    """Per-device-type sorted free-capacity index over a set of boards.

    Each device type keeps a bisect-maintained ascending list of
    ``(free_blocks, fpga_id)``; boards push occupancy deltas through the
    :meth:`PhysicalFPGA.subscribe` hook, so the index stays exact even when
    callers allocate on boards directly (tests do).  Queries — best-fit
    candidate order, max free capacity, count of boards above a threshold —
    are O(log n) probes plus the slice actually consumed.

    Board health is surfaced here too: only ``HEALTHY`` boards carry index
    entries, so failed and draining boards are excluded from every
    placement query without the policies having to know about faults.  The
    index subscribes to :meth:`PhysicalFPGA.subscribe_health` and drops or
    re-admits entries on transitions.

    The constructor accepts either a whole :class:`FPGACluster` or any
    iterable of boards.  The controller keeps one index over the whole
    cluster: a search consumes only the bisect slice of boards that can
    host its image, so its cost follows the boards it picks from, not the
    cluster size.
    """

    def __init__(self, boards):
        if isinstance(boards, FPGACluster):
            boards = boards.boards.values()
        self._boards: dict[str, object] = {b.fpga_id: b for b in boards}
        self._by_type: dict[str, list[tuple[int, str]]] = {}
        self._id_order: dict[str, list] = {}
        #: Bumped by every free-block or health change on any board, so a
        #: reader can tell that neither moved since it last looked.
        self.generation = 0
        for board in self._boards.values():
            if board.health is BoardHealth.HEALTHY:
                self._by_type.setdefault(board.model.name, []).append(
                    (board.free_blocks, board.fpga_id)
                )
            else:
                self._by_type.setdefault(board.model.name, [])
            self._id_order.setdefault(board.model.name, []).append(board)
            board.subscribe(self._on_change)
            board.subscribe_health(self._on_health)
        for entries in self._by_type.values():
            entries.sort()
        for boards_of_type in self._id_order.values():
            boards_of_type.sort(key=lambda b: b.fpga_id)
        #: The device types present, sorted once: boards never change type.
        self._types = sorted(self._by_type)

    def _pop_exact(self, entries: list, expected: tuple) -> None:
        """Remove ``expected`` from ``entries``, verifying it is present.

        A stale or duplicated notification used to pop whatever entry the
        bisect landed on — silently removing a *different* board's entry
        and corrupting the index.  Now a mismatch raises instead.
        """
        at = bisect.bisect_left(entries, expected)
        if at >= len(entries) or entries[at] != expected:
            raise AllocationError(
                f"placement index corruption: expected entry {expected!r} "
                f"is not present (stale or duplicate board notification)"
            )
        entries.pop(at)

    def _on_change(self, board, old_free: int) -> None:
        self.generation += 1
        if board.health is not BoardHealth.HEALTHY:
            return  # unhealthy boards carry no entry to move
        entries = self._by_type[board.model.name]
        self._pop_exact(entries, (old_free, board.fpga_id))
        bisect.insort(entries, (board.free_blocks, board.fpga_id))

    def _on_health(self, board, old_health) -> None:
        self.generation += 1
        was_placeable = old_health is BoardHealth.HEALTHY
        if was_placeable == (board.health is BoardHealth.HEALTHY):
            return  # DEGRADED <-> FAILED: absent either way
        entries = self._by_type[board.model.name]
        if was_placeable:
            self._pop_exact(entries, (board.free_blocks, board.fpga_id))
        else:
            bisect.insort(entries, (board.free_blocks, board.fpga_id))

    # -- queries -------------------------------------------------------------

    def device_types(self) -> list:
        return self._types

    def max_free(self, device_type: str) -> int:
        """Largest free-block count on any board of ``device_type``."""
        entries = self._by_type.get(device_type)
        return entries[-1][0] if entries else 0

    def count_with_at_least(self, device_type: str, blocks: int) -> int:
        """How many boards of ``device_type`` have ``>= blocks`` free."""
        entries = self._by_type.get(device_type, [])
        return len(entries) - bisect.bisect_left(entries, (blocks, ""))

    def boards_best_fit(self, device_type: str) -> list:
        """Boards of one type, fullest-that-fits first ((free, id) order)."""
        boards = self._boards
        return [
            boards[fpga_id] for _, fpga_id in self._by_type.get(device_type, [])
        ]

    def boards_worst_fit(self, device_type: str) -> list:
        """Boards of one type, emptiest first ((-free, id) order)."""
        entries = self._by_type.get(device_type, [])
        boards = self._boards
        ordered = sorted(entries, key=lambda entry: (-entry[0], entry[1]))
        return [boards[fpga_id] for _, fpga_id in ordered]

    def boards_by_id(self, device_type: str) -> list:
        """Placeable boards of one type in stable fpga-id order."""
        return [
            board
            for board in self._id_order.get(device_type, [])
            if board.health is BoardHealth.HEALTHY
        ]

    def entries_with_at_least(self, device_type: str, blocks: int) -> list:
        """Sorted ``(free, fpga_id)`` entries with ``free >= blocks``.

        The ascending slice the placement policies consume: best-fit wants
        it as-is, worst-fit re-keys it descending.  Positioning is one
        bisect, so the infeasible prefix is never touched.
        """
        entries = self._by_type.get(device_type, [])
        return entries[bisect.bisect_left(entries, (blocks, "")) :]

    def iter_candidates(self, requirements: dict, policy: PlacementPolicy):
        """Boards able (by free count) to host their type's image, in
        placement-policy order.

        ``requirements`` maps device type -> minimum free blocks (the
        type's replica-image footprint).  Each type contributes the bisect
        slice of its entries that qualifies; with several types the slices
        merge on the policy's key — ``(free, fpga_id)`` for best-fit,
        ``(-free, fpga_id)`` for worst-fit — which is unique per board, so
        the order is total.  Boards are
        yielded lazily: a search stops consuming once it has its replicas.
        """
        key = _POLICY_ORDER[policy]
        slices = [
            self.entries_with_at_least(device_type, requirements[device_type])
            for device_type in sorted(requirements)
        ]
        if key is not None:
            slices = [sorted(entries, key=key) for entries in slices]
        boards = self._boards
        for _, fpga_id in heapq.merge(*slices, key=key):
            yield boards[fpga_id]

    def check_consistent(self) -> bool:
        """Index entries match a from-scratch recount (invariant tests).

        Only ``HEALTHY`` boards may carry entries, so the recount skips
        unhealthy boards — an entry for a failed board is an inconsistency.
        """
        for device_type, entries in self._by_type.items():
            expected = sorted(
                (board.recount_free_blocks(), board.fpga_id)
                for board in self._id_order[device_type]
                if board.health is BoardHealth.HEALTHY
            )
            if entries != expected:
                return False
        return True


class SystemController:
    """Resource allocation over one cluster, one catalog."""

    #: Partial-reconfiguration time per virtual block configured.
    reconfig_s_per_block = ms(4.0)
    #: How long an idle deployment must sit unused before eviction may
    #: reclaim it for another model.
    eviction_patience_s = ms(25.0)

    def __init__(
        self,
        cluster: FPGACluster,
        catalog: Catalog,
        low_level: LowLevelController,
        same_type_only: bool = False,
        placement: PlacementPolicy = PlacementPolicy.BEST_FIT,
        plan_order: "PlanOrder" = None,
        migration_enabled: bool = False,
        recovery_enabled: bool = False,
    ):
        self.cluster = cluster
        self.catalog = catalog
        self.low_level = low_level
        self.same_type_only = same_type_only
        self.placement = placement
        self.plan_order = plan_order or PlanOrder.FEWEST_FPGAS
        #: Migration + defrag layer; OFF by default so existing schedules
        #: (and the Fig. 12 goldens) are untouched.
        self.migration_enabled = migration_enabled
        self._migration_engine = None
        #: Fault-recovery layer; OFF by default for the same reason.
        self.recovery_enabled = recovery_enabled
        self._recovery_manager = None
        #: The DES driving this controller (see :meth:`_clock`); ``None``
        #: until one binds.
        self._simulator = None
        self.deployments: dict[str, Deployment] = {}
        self.index = PlacementIndex(cluster)
        #: fpga_id -> deployment ids with a replica on that board, so the
        #: fault path scales with the board's residents, not the fleet.
        self._residents_by_board: dict[str, set] = {}
        self.stats = ControllerStats()
        #: Structured operational events (recovery abandonments, serving
        #: transitions); bounded so long chaos runs cannot grow it without
        #: limit.  Consumers read, they don't poll — it is a log, not a bus.
        self.events: list = []
        self.max_events = 4096
        #: Serving brownout: when set, ``deploy`` orders plans by block
        #: footprint ascending (narrowest scale-down plan first) so hot
        #: models shrink instead of monopolising the cluster.
        self.prefer_narrow = False
        self._ids = itertools.count(1)
        #: model key -> resident deployments in creation order.
        self._by_model: dict[str, list[Deployment]] = {}
        #: The idle index, kept by :meth:`acquire`, :meth:`release` and
        #: :meth:`set_state`: model key -> its idle deployments as ``(seq,
        #: deployment)`` in creation order (lists may be empty) ...
        self._idle_by_model: dict[str, list] = {}
        #: ... and every idle deployment as ``(last_used_s, seq,
        #: deployment)``, least recently used first, ties in creation order.
        self._idle_lru: list = []
        #: Optional :class:`~repro.autoscale.ReplicaLedger`: when set, every
        #: instantiation/discard is reported so resident capacity can be
        #: integrated exactly over time (the autoscale bench's cost metric).
        self.ledger = None
        #: Optional tenant quota ``callable(tenant, plan) -> bool`` that
        #: :meth:`try_deploy` and :meth:`place_plan` ask for the tenant
        #: they place for; the tenancy scheduler installs it once, before
        #: any placement, ``None`` otherwise.  It may read only the ledger
        #: and fixed tenant contracts: :meth:`try_deploy` repeats a refusal
        #: while the placement index's generation stands.
        self.quota = None
        #: When True, :meth:`find_idle_deployment` only reuses deployments
        #: owned by the asking tenant — tenants never ride each other's
        #: resident accelerators, so quota attribution stays exact.
        self.tenant_isolation = False
        #: ``(model key, tenant)`` -> the :attr:`PlacementIndex.generation`
        #: of its last capacity fast reject (:meth:`try_deploy`).
        self._refused: dict[tuple, int] = {}

    # -- public API (what the hypervisor calls) -------------------------------------

    def bind_simulator(self, simulator) -> None:
        """Adopt the DES driving this controller: recovery restores,
        backoff retries, defrag completions and reconfiguration holds are
        timed events on it."""
        self._simulator = simulator

    def _clock(self):
        """The bound simulator, for every path that needs simulated time.

        Placement, eviction and release run without one (the
        ``cluster-status`` CLI and :class:`~repro.runtime.api.HypervisorAPI`
        call them that way); a restore, retry, defrag, hold or replica
        ledger booking raises :class:`~repro.errors.ReproError` here.
        """
        if self._simulator is None:
            raise ReproError("SystemController needs a bound simulator for timed work")
        return self._simulator

    def _now(self) -> float:
        """Current simulated time (paths that already carry ``now`` should
        pass it instead of calling this)."""
        return self._clock().queue.now

    def deployments_of(self, model_key: str) -> list:
        """Resident deployments of one model, in creation order."""
        return list(self._by_model.get(model_key, ()))

    def models_resident(self) -> list:
        """Model keys with at least one resident deployment."""
        return list(self._by_model)

    def find_idle_deployment(
        self, model_key: str, tenant: str = ""
    ) -> Deployment | None:
        """The earliest-created idle deployment of this model, if any.

        With :attr:`tenant_isolation` on, only deployments owned by
        ``tenant`` qualify — reuse across tenants would let one tenant
        serve from blocks charged to another's quota.
        """
        idle = self._idle_by_model.get(model_key)
        if not idle:
            return None
        if not self.tenant_isolation:
            return idle[0][1]
        for _, deployment in idle:
            if deployment.tenant == tenant:
                return deployment
        return None

    def idle_of(self, model_key: str) -> list:
        """Idle deployments of one model, in creation order."""
        return [entry[1] for entry in self._idle_by_model.get(model_key, ())]

    def deployment_count(self, model_key: str) -> int:
        """Resident deployments of one model (busy or idle)."""
        return len(self._by_model.get(model_key, ()))

    def deploy(
        self,
        model_key: str,
        now: float = 0.0,
        waited_s: float = 0.0,
        allow_mixed: bool = True,
        tenant: str = "",
    ) -> tuple:
        """Create a new deployment for ``model_key``, owned by ``tenant``.

        Returns ``(deployment, reconfig_seconds)``; raises
        :class:`AllocationError` when the model cannot currently be placed.
        A thin wrapper over :meth:`try_deploy` (same policy, same counters)
        for callers that want a refusal as an exception: the message for
        its reason — a tenant-quota refusal, or the largest free hole per
        device type — is built only here, so the scheduler's hot decline
        path, which calls :meth:`try_deploy`, never formats one.
        """
        placed = self.try_deploy(model_key, now, waited_s, allow_mixed, tenant)
        if placed.__class__ is tuple:
            return placed
        if placed == "quota":
            raise AllocationError(
                f"tenant quota: no plan for {model_key} fits within the "
                f"quota of tenant {tenant!r}"
            )
        # Diagnostic from the index tails (O(types)), not a cluster walk.
        largest = {
            device_type: self.index.max_free(device_type)
            for device_type in self.index.device_types()
        }
        raise AllocationError(
            f"no feasible allocation for {model_key} "
            f"(largest free hole per type: {largest})"
        )

    def try_deploy(
        self,
        model_key: str,
        now: float = 0.0,
        waited_s: float = 0.0,
        allow_mixed: bool = True,
        tenant: str = "",
    ) -> tuple | str:
        """Create a new deployment for ``model_key``, owned by ``tenant``,
        or say why not.

        Returns ``(deployment, reconfig_seconds)``.  Follows the greedy
        policy: try the fewest-FPGAs plan first; when no placement exists,
        evict idle deployments LRU and retry; give up when the model cannot
        currently be placed.  Only plans :attr:`quota` allows ``tenant``
        are tried.  A refusal returns its reason: ``"quota"`` when the
        quota allows no plan (counted in ``stats.quota_rejections``),
        ``"capacity"`` otherwise (counted in ``stats.placement_failures``).

        ``waited_s`` is how long the requesting task has queued.  Eviction
        is gated twice to prevent reconfiguration thrash on mixed streams:
        the model must have no resident deployment, and the requester must
        have waited out the patience window (which batches same-model work
        between reconfigurations).

        Under a deep backlog almost every call is refused, so a refusal
        raises nothing and formats nothing: it returns a constant and
        leaves the diagnostic to :meth:`deploy`.  Most refusals repeat one:
        a call that fails the capacity fast reject stores the index's
        :attr:`PlacementIndex.generation` for its ``(model, tenant)``, and
        a later call at that generation answers its first fast reject from
        that memo, bumping the same counter; one that may not evict then
        refuses at once, before the quota.  The fast reject and the quota
        read nothing the generation does not cover: the fast reject reads
        the largest free holes, and the quota reads the ledger, which
        moves with block allocations and frees (a drop without one, a
        discard of blocks a repair already reclaimed, and an eviction only
        widen what the quota allows).  One that may evict asks the quota
        as before and then tries its eviction, which reads the idle set
        and the clock; an eviction moves the generation, so the next turn
        probes afresh.  A refusal after a search (which reads
        ``allow_mixed``) stores nothing.
        """
        stats = self.stats
        stats.deploy_calls += 1
        may_evict = waited_s >= self.eviction_patience_s
        key = (model_key, tenant)
        refused = self._refused.get(key) == self.index.generation
        if refused and not may_evict:
            stats.fast_rejects += 1
            stats.placement_failures += 1
            return "capacity"
        entry = self.catalog.entry_by_key(model_key)
        plans = entry.sorted_plans()
        if self.prefer_narrow:
            plans = sorted(plans, key=self.plan_footprint)
        elif self.plan_order is PlanOrder.WIDEST_FIRST:
            plans = list(reversed(plans))
        quota = self.quota
        if quota is not None:
            allowed = [plan for plan in plans if quota(tenant, plan)]
            if not allowed:
                # Every plan would bust the tenant's quota.  Deliberately
                # not a placement_failure: quota exhaustion is a policy
                # outcome, and counting it as capacity would make the
                # serving retry/preemption machinery fight the quota.
                stats.quota_rejections += 1
                return "quota"
            plans = allowed
        while True:
            if refused:
                refused = False  # the memo answers this generation only
                stats.fast_rejects += 1
            elif self._any_plan_could_fit(model_key):
                for plan in plans:
                    assignment = self._find_placement(plan, allow_mixed=allow_mixed)
                    if assignment is not None:
                        return self._instantiate(plan, assignment, now, tenant)
            else:
                stats.fast_rejects += 1
                self._refused[key] = self.index.generation
            if not may_evict or not self._evict_one_idle(now, model_key, tenant):
                stats.placement_failures += 1
                return "capacity"

    def emit_event(self, event) -> None:
        """Append a structured operational event (bounded ring)."""
        self.events.append(event)
        if len(self.events) > self.max_events:
            del self.events[: len(self.events) - self.max_events]

    @staticmethod
    def plan_footprint(plan: DeploymentPlan) -> int:
        """Total virtual blocks a plan occupies in its cheapest per-type
        image — the size ordering brownout and scale-down switches use
        (stored on the plan when the catalog built it)."""
        return plan.footprint

    def place_plan(
        self, plan: DeploymentPlan, now: float, tenant: str = ""
    ) -> tuple | None:
        """Place one specific plan right now for ``tenant``, without
        eviction or plan search.  Returns ``(deployment,
        reconfig_seconds)``, or ``None`` when :attr:`quota` refuses the
        plan or no placement exists — the serving layer's brownout switch
        and the autoscaler use this to target an exact width."""
        quota = self.quota
        if quota is not None and not quota(tenant, plan):
            return None
        assignment = self._find_placement(plan)
        if assignment is None:
            return None
        return self._instantiate(plan, assignment, now, tenant)

    def swap_plan(
        self, deployment: Deployment, target_plan: DeploymentPlan, now: float
    ) -> tuple | None:
        """Discard-first width switch (brownout and autoscale): the old
        deployment's blocks fund ``target_plan``'s placement; when it does
        not fit, the original width goes back into the space just freed
        (best effort).  Both belong to the old deployment's tenant, under
        its quota.  Whatever was placed is held until ready.  Returns the
        new ``(deployment, reconfig_seconds)``, or ``None`` when the switch
        failed."""
        self._clock()  # raise before the old width is discarded
        original_plan = deployment.plan
        tenant = deployment.tenant
        self.discard(deployment)
        placed = self.place_plan(target_plan, now, tenant)
        held = placed or self.place_plan(original_plan, now, tenant)
        if held is not None:
            self.hold_until_ready(*held)
        return placed

    def hold_until_ready(self, deployment: Deployment, reconfig_s: float) -> None:
        """A freshly placed deployment is unusable until its blocks are
        configured: it waits in RECOVERING for ``reconfig_s`` of simulated
        time."""
        simulator = self._clock()
        self.set_state(deployment, DeploymentState.RECOVERING)
        simulator.schedule_external(
            reconfig_s, lambda now: self.finish_reconfiguration(deployment, now)
        )

    def finish_reconfiguration(self, deployment: Deployment, now: float) -> None:
        """A held deployment's blocks are configured: it goes idle, unless
        a board under it failed meanwhile (then it recovers, or is
        discarded without recovery) or it was torn down."""
        if deployment.deployment_id not in self.deployments:
            return
        if deployment.pending_recovery:
            if self.recovery_enabled:
                self.recovery.recover(deployment, now)
            else:
                self.discard(deployment)
            return
        self.set_state(deployment, _IDLE, now)
        deployment.checkpoint_origin_s = now

    def acquire(self, deployment: Deployment) -> None:
        """Start a task on an idle resident deployment: IDLE -> BUSY, and
        out of the idle index."""
        if deployment.controller is not self or deployment.state is not _IDLE:
            raise DeploymentError(
                f"deployment {deployment.deployment_id} is not idle in this "
                f"controller"
            )
        self._unindex_idle(deployment)
        deployment.state = _BUSY

    def release(self, deployment: Deployment, now: float) -> None:
        """Return a deployment to idle after a task completes: BUSY ->
        IDLE, stamped ``last_used_s = now`` and back in the idle index.

        Releases come in time order from the simulator, so the LRU entry
        usually belongs at its tail and is appended; one released out of
        time order (a synchronous caller) is inserted at its place.

        If a board under the deployment failed while it was busy, the
        recovery deferred to this transition runs now — the task's results
        had already streamed out, but the replica configuration is gone and
        must be rebuilt before the deployment can serve again.
        """
        if deployment.controller is not self or deployment.state is not _BUSY:
            raise DeploymentError(
                f"deployment {deployment.deployment_id} is not busy in this "
                f"controller"
            )
        deployment.state = _IDLE
        deployment.last_used_s = now
        deployment.tasks_served += 1
        seq = deployment.seq
        bisect.insort(self._idle_by_model[deployment.model_key],
                      (seq, deployment))
        lru = self._idle_lru
        entry = (now, seq, deployment)
        # Seqs are unique, so the comparison never reaches the deployment.
        if not lru or lru[-1] < entry:
            lru.append(entry)
        else:
            bisect.insort(lru, entry)
        if deployment.pending_recovery and self.recovery_enabled:
            self.recovery.recover(deployment, now)

    # -- deployment state (the one writer) ----------------------------------------------

    def set_state(
        self, deployment: Deployment, state: DeploymentState,
        now: float | None = None,
    ) -> None:
        """Move a resident deployment to ``state``.

        With :meth:`acquire` and :meth:`release`, which own the IDLE <->
        BUSY moves of a task's start and finish, every write of
        ``Deployment.state`` goes through here, so the idle index cannot
        drift.  A move to IDLE stamps ``last_used_s = now`` (when given).
        Only deployments resident here may move: indexing one that was
        discarded would hand it out for reuse.
        """
        if deployment.controller is not self:
            raise DeploymentError(
                f"deployment {deployment.deployment_id} is not resident in "
                f"this controller"
            )
        if deployment.state is _IDLE:
            self._unindex_idle(deployment)
        deployment.state = state
        if state is _IDLE:
            if now is not None:
                deployment.last_used_s = now
            self._index_idle(deployment)

    def _index_idle(self, deployment: Deployment) -> None:
        seq = deployment.seq
        bisect.insort(self._idle_by_model[deployment.model_key], (seq, deployment))
        bisect.insort(self._idle_lru, (deployment.last_used_s, seq, deployment))

    def _unindex_idle(self, deployment: Deployment) -> None:
        seq = deployment.seq
        idle = self._idle_by_model[deployment.model_key]
        lru = self._idle_lru
        at = bisect.bisect_left(idle, (seq,))
        at_lru = bisect.bisect_left(lru, (deployment.last_used_s, seq))
        try:
            found = idle[at][1] is deployment and lru[at_lru][2] is deployment
        except IndexError:
            found = False
        if not found:
            raise DeploymentError(
                f"idle index corruption: {deployment.deployment_id} is not "
                f"where its seq and last_used_s place it (state or "
                f"last_used_s written around the controller)"
            )
        del idle[at]
        del lru[at_lru]

    def check_idle_consistent(self) -> bool:
        """The idle index equals a from-scratch rebuild over
        :attr:`deployments`: the same members, per-model lists in creation
        order, and the LRU sequence in ``(last_used_s, creation)`` order
        (invariant tests)."""
        resident = list(self.deployments.values())
        seqs = [d.seq for d in resident]
        if seqs != sorted(set(seqs)):
            return False  # creation sequence must follow insertion order
        idle = [d for d in resident if d.is_idle]
        expected_by_model: dict[str, list] = {}
        for d in idle:
            expected_by_model.setdefault(d.model_key, []).append(d.deployment_id)
        by_model = {
            model_key: [d.deployment_id for _, d in entries]
            for model_key, entries in self._idle_by_model.items()
            if entries
        }
        expected_lru = sorted(
            (d.last_used_s, d.seq, d.deployment_id) for d in idle
        )
        lru = [(t, seq, d.deployment_id) for t, seq, d in self._idle_lru]
        live = all(
            self.deployments.get(d.deployment_id) is d
            for *_, d in self._idle_lru
        )
        return live and by_model == expected_by_model and lru == expected_lru

    def evict(self, deployment: Deployment) -> None:
        """Tear a deployment down and free its blocks."""
        if deployment.state is not DeploymentState.IDLE:
            raise AllocationError(
                f"cannot evict {deployment.state.value} deployment "
                f"{deployment.deployment_id}"
            )
        self.discard(deployment)
        self.stats.deployments_evicted += 1

    def discard(self, deployment: Deployment) -> None:
        """Drop a deployment regardless of state (the failure path).

        Releases whatever blocks it still holds — releasing on a failed
        board is mechanical bookkeeping, and blocks already reclaimed by a
        repair re-image release as a no-op — and removes it from the
        deployment indexes.  Callers outside the failure path want
        :meth:`evict`, which enforces idleness and counts the eviction.
        """
        for placement in deployment.placements:
            board = self.cluster.board(placement.fpga_id)
            self.low_level.release(board, deployment.deployment_id)
            self.untrack_resident(placement.fpga_id, deployment.deployment_id)
        if deployment.controller is self:
            if deployment.state is DeploymentState.IDLE:
                self._unindex_idle(deployment)
            deployment.controller = None
        self.deployments.pop(deployment.deployment_id, None)
        if self.ledger is not None:
            self.ledger.on_discard(deployment, self._now())
        siblings = self._by_model.get(deployment.model_key)
        if siblings is not None:
            try:
                siblings.remove(deployment)
            except ValueError:
                pass
            if not siblings:
                del self._by_model[deployment.model_key]

    # -- board-residency reverse index ---------------------------------------------------

    def track_resident(self, fpga_id: str, deployment_id: str) -> None:
        """Record that a deployment has a replica on ``fpga_id``."""
        self._residents_by_board.setdefault(fpga_id, set()).add(deployment_id)

    def untrack_resident(self, fpga_id: str, deployment_id: str) -> None:
        residents = self._residents_by_board.get(fpga_id)
        if residents is not None:
            residents.discard(deployment_id)
            if not residents:
                del self._residents_by_board[fpga_id]

    def deployments_on(self, fpga_id: str) -> list:
        """Live deployments with a replica on ``fpga_id``, in creation
        order.  The failure-intake path uses this instead of scanning
        every deployment in the fleet."""
        residents = self._residents_by_board.get(fpga_id, ())
        return sorted(
            (
                self.deployments[deployment_id]
                for deployment_id in residents
                if deployment_id in self.deployments
            ),
            key=attrgetter("seq"),
        )

    def check_residents_consistent(self) -> bool:
        """The reverse residency index equals a from-scratch rebuild from
        the deployment placement records (invariant tests)."""
        expected: dict[str, set] = {}
        for deployment in self.deployments.values():
            for placement in deployment.placements:
                expected.setdefault(placement.fpga_id, set()).add(
                    deployment.deployment_id
                )
        return expected == self._residents_by_board

    # -- board health (fault subsystem) -------------------------------------------------

    @property
    def recovery(self):
        """The failure-recovery manager (created on first use; import is
        lazy to keep :mod:`repro.faults` off the placement hot path)."""
        if self._recovery_manager is None:
            from ..faults.recovery import RecoveryManager

            self._recovery_manager = RecoveryManager(self)
        return self._recovery_manager

    def on_board_failure(self, board, now: float) -> None:
        """A board died: exclude it from placement and recover residents.

        The health transition drops the board from the placement index;
        with recovery enabled every resident deployment is handed to the
        recovery manager (idle ones re-place immediately, busy/migrating/
        restoring ones defer to their next state transition).
        """
        if board.health is BoardHealth.FAILED:
            return
        board.set_health(BoardHealth.FAILED)
        self.stats.boards_failed += 1
        if self.recovery_enabled:
            self.recovery.on_board_failure(board, now)

    def on_board_degraded(self, board) -> None:
        """Put a board in drain mode: residents keep serving, no new
        placements land on it (the index drops it like a failure, but no
        state is lost and no recovery runs)."""
        if board.health is not BoardHealth.HEALTHY:
            return
        board.set_health(BoardHealth.DEGRADED)
        self.stats.boards_degraded += 1

    def on_board_repair(self, board) -> None:
        """Return a board to service.

        Repairing a FAILED board re-images it: it comes back empty, so any
        blocks still attributed to deployments awaiting deferred recovery
        are reclaimed here (their teardown release later is a no-op).  A
        DEGRADED board simply resumes taking placements.
        """
        if board.health is BoardHealth.HEALTHY:
            return
        if board.health is BoardHealth.FAILED:
            board.reset()
        board.set_health(BoardHealth.HEALTHY)
        self.stats.boards_repaired += 1

    # -- migration / defragmentation ---------------------------------------------------

    @property
    def migration(self):
        """The migration engine (created on first use; import is lazy to
        keep :mod:`repro.migration` optional on the placement hot path)."""
        if self._migration_engine is None:
            from ..migration.engine import MigrationEngine

            self._migration_engine = MigrationEngine(self)
        return self._migration_engine

    def fragmentation(self) -> dict:
        """Per-device-type external fragmentation (see
        :func:`repro.migration.defrag.cluster_fragmentation`)."""
        from ..migration.defrag import cluster_fragmentation

        return cluster_fragmentation(self.index)

    def plan_defrag(self, model_key: str):
        """The cheapest migration set that would let ``model_key`` place,
        or ``None`` — only when the subsystem is enabled and the failure
        is fragmentation rather than capacity.  Planning is cluster-wide:
        victims and destinations may sit on any healthy board."""
        if not self.migration_enabled:
            return None
        from ..migration.defrag import plan_defrag

        plan = plan_defrag(self, model_key, self.migration)
        if plan is not None:
            self.stats.defrag_plans += 1
        return plan

    def begin_defrag(self, defrag_plan, now: float) -> float:
        """Start every migration in ``defrag_plan``; source and
        destination blocks stay occupied until :meth:`finish_defrag`.
        Returns the total charged cost (the caller schedules the finish
        that far in the future)."""
        total = 0.0
        for migration_plan in defrag_plan.migrations:
            total += self.migration.begin(migration_plan, now)
        return total

    def finish_defrag(self, defrag_plan, now: float) -> None:
        """Complete every migration in ``defrag_plan``."""
        for migration_plan in defrag_plan.migrations:
            self.migration.finish(migration_plan, now)

    # -- placement search --------------------------------------------------------------

    def _any_plan_could_fit(self, model_key: str) -> bool:
        """Capacity fast-reject: every placement needs at least one board
        able to host one replica image, so when no board has that much
        free the whole plan loop is skipped.  One memoised catalog probe
        per device type against the index's largest free hole."""
        index = self.index
        feasible = self.catalog.placement_feasible
        for device_type in index.device_types():
            if feasible(model_key, device_type, index.max_free(device_type)):
                return True
        return False

    def _find_placement(
        self, plan: DeploymentPlan, allow_mixed: bool = True
    ) -> list | None:
        """Choose one board per replica; ``None`` when impossible now.

        Among feasible assignments the controller prefers the lowest
        estimated service time (so a heterogeneous pairing is used only when
        no faster same-type pair is free), then packs best-fit.
        ``allow_mixed=False`` suppresses cross-type assignments (callers use
        it to keep scarce device types free for other queued models).

        Candidates stream lazily out of the index's bisect slices in
        policy order, so a search touches the few boards it actually picks
        from instead of the whole cluster.
        """
        self.stats.placement_searches += 1
        options: list = []
        for device_type in plan.feasible_types:
            image = plan.images[device_type]
            # Summary probe: a same-type assignment needs `replicas` boards
            # with enough free blocks — skip the pick when too few exist.
            if (
                self.index.count_with_at_least(device_type, image.virtual_blocks)
                < plan.replicas
            ):
                continue
            chosen = self._pick_boards(
                plan,
                self.index.iter_candidates(
                    {device_type: image.virtual_blocks}, self.placement
                ),
            )
            if chosen is not None:
                options.append(chosen)
        if options:
            # Same-type assignments first: they are exactly what the
            # restricted policy would choose, so the unrestricted policy is
            # a strict superset — mixed pairings only when same-type is
            # impossible right now.
            return min(
                options,
                key=lambda assignment: self._estimate_service(plan, assignment),
            )
        if not self.same_type_only and plan.replicas > 1 and allow_mixed:
            requirements = {
                device_type: plan.images[device_type].virtual_blocks
                for device_type in plan.feasible_types
            }
            return self._pick_boards(
                plan, self.index.iter_candidates(requirements, self.placement)
            )
        return None

    def _hop_signature(self, assignment: list) -> int:
        """Ring-distance identity of an assignment: the worst pairwise hop
        count among its boards.  ``_service_time`` depends on the member
        boards only through the all-to-all exchange's critical path, which
        is exactly this number — so it is the one piece of placement
        identity the service cache must key on (beside the ring parameters
        that every assignment of one controller shares; see
        :meth:`_estimate_service`)."""
        if len(assignment) < 2:
            return 0
        network = self.cluster.network
        if network is None:
            return 0
        ids = [board.fpga_id for board, _ in assignment]
        return max(
            network.hops(a, b)
            for at, a in enumerate(ids)
            for b in ids[at + 1 :]
        )

    def service_time(self, plan: DeploymentPlan, placements: list) -> float:
        """Per-task latency of ``plan`` on ``placements`` (the simulator's
        service time), read through the catalog's service cache
        (:meth:`_estimate_service`) — the migration engine re-times a moved
        deployment with this."""
        return self._estimate_service(
            plan,
            [
                (self.cluster.board(placement.fpga_id),
                 plan.image_for(placement.device_type))
                for placement in placements
            ],
        )

    def _estimate_service(self, plan: DeploymentPlan, assignment: list) -> float:
        """Service time of a ``(board, image)`` assignment.

        Read from the catalog's service cache, which every controller over
        that catalog shares: the mapping database holds service times as it
        holds plans.  The key is (model, replicas, ordered device types,
        ring-hop signature) plus the one input that can differ between
        controllers sharing one catalog — the ring's parameters (``None``
        without a ring) — and the latency is a pure function of exactly
        those inputs.
        Keying on the type mix alone (an old key) let two assignments with
        identical types but different ring adjacency share one entry, so
        ``_find_placement``'s min() could pick the slower pair on the stale
        number.  Ranking candidates, stamping the winner's ``service_s`` in
        :meth:`_instantiate` and re-timing a migrated deployment
        (:meth:`service_time`) all read it, so the cycle model evaluates a
        placement shape once per catalog, not once per deployment or run.
        """
        network = self.cluster.network
        key = (
            plan.model_key,
            plan.replicas,
            tuple(board.model.name for board, _ in assignment),
            self._hop_signature(assignment),
            None if network is None else network.params,
        )
        cache = self.catalog._service_cache
        cached = cache.get(key)
        if cached is None:
            placements = [
                ReplicaPlacement(
                    fpga_id=board.fpga_id,
                    device_type=board.model.name,
                    virtual_blocks=image.virtual_blocks,
                )
                for board, image in assignment
            ]
            cached = cache[key] = self._service_time(plan, placements)
        return cached

    def _pick_boards(self, plan: DeploymentPlan, boards) -> list | None:
        """First ``plan.replicas`` feasible boards from an iterable.

        One pass: candidate feasibility (image exists for the board's type,
        enough free blocks) is static while a search runs, so taking the
        first k feasible boards in stream order chooses exactly what the
        old per-replica rescan over a materialised list chose.
        """
        chosen: list = []
        probed = 0
        for board in boards:
            probed += 1
            image = plan.images.get(board.model.name)
            if image is not None and board.can_host(image.virtual_blocks):
                chosen.append((board, image))
                if len(chosen) == plan.replicas:
                    break
        self.stats.boards_probed += probed
        return chosen if len(chosen) == plan.replicas else None

    def _evict_one_idle(
        self, now: float, requesting_model: str, tenant: str = ""
    ) -> bool:
        """Reclaim the least-recently-used *stale* idle deployment.

        Victims must be idle past the patience window and belong to a
        different model — hot models keep their copies, over-provisioned
        ones shrink (the rebalancing that keeps mixed streams from
        thrashing while still adapting to skew).  Under tenant isolation
        the same-model exemption only shields the requesting ``tenant``'s
        own copies: another tenant's idle deployment cannot be reused anyway,
        so leaving it unevictable would wedge same-model cross-tenant
        traffic on a full cluster.
        """
        patience = self.eviction_patience_s
        isolation = self.tenant_isolation
        for last_used_s, _, victim in self._idle_lru:
            if now - last_used_s < patience:
                return False  # every later entry is fresher still
            if victim.model_key != requesting_model or (
                isolation and victim.tenant != tenant
            ):
                self.evict(victim)
                return True
        return False

    # -- instantiation ------------------------------------------------------------------

    def _instantiate(
        self, plan: DeploymentPlan, assignment: list, now: float,
        tenant: str = "",
    ) -> tuple:
        seq = next(self._ids)
        deployment_id = f"dep-{seq}"
        placements = []
        reconfig = 0.0
        for board, image in assignment:
            indices = self.low_level.configure(board, deployment_id, image.artifact)
            placements.append(
                ReplicaPlacement(
                    fpga_id=board.fpga_id,
                    device_type=board.model.name,
                    virtual_blocks=image.virtual_blocks,
                    block_indices=indices,
                )
            )
            reconfig += image.virtual_blocks * self.reconfig_s_per_block
        # Creating a deployment also loads the model's weights.
        reconfig += weight_load_seconds(
            model_by_key(plan.model_key).parameter_count
        )
        deployment = Deployment(
            deployment_id=deployment_id,
            model_key=plan.model_key,
            plan=plan,
            placements=placements,
            last_used_s=now,
            created_s=now,
            checkpoint_origin_s=now,
            tenant=tenant,
            seq=seq,
            controller=self,
        )
        deployment.service_s = self._estimate_service(plan, assignment)
        self.deployments[deployment_id] = deployment
        for placement in placements:
            self.track_resident(placement.fpga_id, deployment_id)
        self._by_model.setdefault(plan.model_key, []).append(deployment)
        self._idle_by_model.setdefault(plan.model_key, [])
        self._index_idle(deployment)  # born IDLE
        self.stats.deployments_created += 1
        if self.ledger is not None:
            self.ledger.on_instantiate(deployment, now)
        return deployment, reconfig

    def _service_time(self, plan: DeploymentPlan, placements: list) -> float:
        """Per-task latency on ``placements``, evaluated by the cycle model
        (uncached: callers want :meth:`service_time`)."""
        if plan.replicas == 1:
            image = plan.image_for(placements[0].device_type)
            virt = VirtualizationContext(virtual_blocks=image.virtual_blocks)
            return single_fpga_latency(
                plan.programs[0],
                image.instance,
                virtualization=virt,
                frequency_hz=image.frequency_hz,
            ).seconds
        members = [p.fpga_id for p in placements]
        worst = 0.0
        for index, placement in enumerate(placements):
            image = plan.image_for(placement.device_type)
            virt = VirtualizationContext(virtual_blocks=image.virtual_blocks)
            model = CycleModel(image.instance.with_frequency(image.frequency_hz))
            report = scaleout_latency(
                plan.programs[min(index, len(plan.programs) - 1)],
                model,
                self.cluster.network,
                members,
                virtualization=virt,
            )
            worst = max(worst, report.total_s)
        return worst
