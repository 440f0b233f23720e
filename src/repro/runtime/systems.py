"""The three systems compared in the evaluation (Fig. 12).

* :class:`ProposedSystem` — the full multi-layer framework: virtual-block
  sharing, heterogeneous multi-FPGA deployment, scale-out overlap.
* :class:`RestrictedSystem` — same framework, but one accelerator may only
  span FPGAs of one device type (emulates the multi-FPGA support of
  existing HS abstractions).
* :class:`BaselineSystem` — AS ISA only: per-device allocation of the
  statically compiled device-matched accelerator, no spatial sharing, no
  communication/computation overlap for multi-FPGA models.

All three implement the :class:`~repro.cluster.simulator.Scheduler`
protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..accel.config import AcceleratorConfig
from ..accel.codegen import build_scaleout_programs
from ..accel.timing import CycleModel
from ..cluster.simulator import Task
from ..cluster.topology import FPGACluster
from ..errors import ReproError, SimulationError
from ..perf.latency import BASE_INSTANCES, weight_load_seconds
from ..perf.overlap import scaleout_latency
from ..vital.bitstream import LowLevelController
from ..workloads.deepbench import ModelSpec, model_by_key
from .catalog import Catalog
from .controller import SystemController


class ProposedSystem:
    """The full multi-layer virtualization framework."""

    name = "proposed"

    def __init__(self, cluster: FPGACluster, catalog: Catalog,
                 defrag: bool = False, recovery: bool = False,
                 batching=None):
        self.cluster = cluster
        self.controller = SystemController(
            cluster,
            catalog,
            LowLevelController(catalog.compiler.store),
            same_type_only=self._same_type_only(),
            migration_enabled=defrag,
            recovery_enabled=recovery,
        )
        #: Optional request-coalescing functional executor
        #: (:class:`repro.runtime.batching.BatchExecutor`).  Off by
        #: default: pure-timing runs never touch the functional simulator,
        #: and timestamps are identical either way — batching only decides
        #: *how* task outputs are computed, never *when* events fire.  It
        #: executes every submitted task when the driving simulator's run
        #: ends (see :meth:`bind_simulator`).
        self.batch_executor = None
        if batching is not None:
            from .batching import BatchExecutor, BatchingParameters

            if isinstance(batching, BatchingParameters):
                self.batch_executor = BatchExecutor(batching)
            else:
                self.batch_executor = batching
        #: Reactive queue-pressure expansion (grow an already-deployed
        #: model on demand).  An attached :class:`~repro.autoscale.
        #: Autoscaler` clears this and takes ownership of elasticity —
        #: two uncoordinated growth loops over-provision and fight each
        #: other's scale-downs.
        self.expansion_enabled = True
        #: model key -> in-flight defrag (avoid planning duplicates).
        self._defrag_pending: set[str] = set()
        #: The driving DES (see :meth:`bind_simulator`); its
        #: ``queue_view`` is the queue pressure every decision reads.
        self._simulator = None
        #: model key -> tasks seen (each counted on its first attempt), and
        #: their running total.
        self._seen_models: dict[str, int] = {}
        self._seen_total = 0

    @staticmethod
    def _same_type_only() -> bool:
        return False

    # -- Scheduler protocol -------------------------------------------------------

    #: Queue depth that justifies growing an already-deployed model by
    #: evicting someone else's stale idle copy.
    EXPANSION_PRESSURE = 4

    def bind_simulator(self, simulator) -> None:
        """Adopt the driving DES: its queue view feeds expansion and
        hints, the controller schedules defrag, recovery and
        reconfiguration on it, the batch executor runs the submitted
        tasks when the run ends, and then the controller's books are
        recounted (:meth:`_check_books`)."""
        self._simulator = simulator
        self.controller.bind_simulator(simulator)
        if self.batch_executor is not None:
            simulator.add_run_end(self._drain_outputs)
        simulator.add_run_end(self._check_books)

    def _drain_outputs(self) -> None:
        # Looked up per call: a wrapper installed on ``flush`` after this
        # system was bound still sees the drain.
        self.batch_executor.flush()

    def _check_books(self) -> None:
        """Raise :class:`SimulationError` unless the placement, residency
        and idle indexes each equal a from-scratch recount: one pass over
        the boards and deployments per run, so a layer that leaks blocks
        or deployment state fails the run that did it."""
        controller = self.controller
        for books, consistent in (
            ("placement index", controller.index.check_consistent),
            ("residency index", controller.check_residents_consistent),
            ("idle index", controller.check_idle_consistent),
        ):
            if not consistent():
                raise SimulationError(
                    f"{self.name}: the {books} differs from a recount at run end"
                )

    def dispatch_key(self, task: Task) -> tuple:
        """Locality: models with an idle copy resident start first."""
        return (self.controller.find_idle_deployment(task.model_key) is None,)

    def _expansion_allowed(self, model_key: str) -> bool:
        """Fairness: a model with copies yields space to pending models
        that have none at all.

        A model has copies exactly when its key is in the controller's
        per-model index (``discard`` deletes a key with its last copy), so
        the check is a membership probe per queued model, not a count.
        """
        if not self.expansion_enabled:
            return False
        view = self._simulator.queue_view
        resident = self.controller._by_model
        for key, depth in view.items():
            if depth > 0 and key not in resident and key != model_key:
                return False
        return view.get(model_key, 0) >= 2

    def try_start(self, task: Task, now: float) -> float | None:
        seen = self._seen_models
        if not task.attempted:
            # Count each task once (on its first attempt), so the observed
            # model mix is a property of the stream, not of how often the
            # dispatch loop happened to retry a blocked task.
            task.attempted = True
            seen[task.model_key] = seen.get(task.model_key, 0) + 1
            self._seen_total += 1
        if task.model_key in self._defrag_pending:
            # A compaction for this model is in flight; until it completes
            # the controller provably cannot place it, so don't charge a
            # placement failure for re-asking.
            task.decline = "defrag"
            task.retry_at = math.inf  # its completion bumps the version
            return None
        controller = self.controller
        tenant = task.tenant
        deployment = controller.find_idle_deployment(task.model_key, tenant)
        reconfig = 0.0
        if deployment is None:
            # A model has copies exactly when its key is in the per-model
            # index (see :meth:`_expansion_allowed`).
            resident = task.model_key in controller._by_model
            if resident and not self._expansion_allowed(task.model_key):
                # Wait for the busy copy instead of expanding.
                task.decline = "busy"
                task.retry_at = self.earliest_retry(task, now)
                return None
            waited = now - task.arrival_s
            if resident:
                # Expansion uses free blocks; eviction only under strong
                # queue pressure.
                if (
                    self._simulator.queue_view.get(task.model_key, 0)
                    < self.EXPANSION_PRESSURE
                ):
                    waited = 0.0
            # A heterogeneous (mixed-type) pairing takes a scarce device
            # type away from single-FPGA models.  The controller adapts to
            # the observed workload: mixed pairs are only worthwhile when
            # the stream is essentially single-model (otherwise the scarce
            # type serves the other models better).
            total_seen = self._seen_total
            other_seen = total_seen - seen.get(task.model_key, 0)
            allow_mixed = other_seen <= 0.05 * total_seen
            placed = controller.try_deploy(
                task.model_key, now, waited_s=waited, allow_mixed=allow_mixed,
                tenant=tenant,
            )
            if placed.__class__ is not tuple:
                task.decline = placed  # "capacity" or "quota"
                if placed == "capacity" and controller.migration_enabled:
                    # A quota refusal is policy: compaction cannot help it.
                    self._maybe_defrag(task.model_key, now)
                # After the deploy and any defrag: either can move the hint.
                task.retry_at = self.earliest_retry(task, now)
                return None
            deployment, reconfig = placed
        else:
            controller.stats.reuse_hits += 1
        controller.acquire(deployment)
        task.placement = deployment
        task.decline = None
        deployment.task = task
        if self.batch_executor is not None:
            self.batch_executor.submit(task, deployment.plan.replicas)
        return reconfig + deployment.service_s

    def on_finish(self, task: Task, now: float) -> None:
        # The batch executor keeps the task's lane to run end: nothing in
        # the simulation reads outputs.
        deployment = task.placement
        task.placement = None
        deployment.task = None
        self.controller.release(deployment, now)

    def abort_task(self, task: Task):
        """Detach a running task from its deployment without releasing it
        (priority preemption: the deployment is being checkpointed and torn
        down by the tenancy layer, not returned to idle).  Returns the
        deployment the task was running on."""
        deployment = task.placement
        task.placement = None
        deployment.task = None
        if self.batch_executor is not None:
            # The aborted run's lane is dropped unexecuted; the requeued
            # task re-submits on its next start.
            self.batch_executor.withdraw(task)
        return deployment

    # -- defragmentation (migration subsystem; off unless ``defrag=True``) ---------

    def _maybe_defrag(self, model_key: str, now: float) -> bool:
        """After a capacity refusal with migration enabled, start the
        cheapest compaction that would open a hole for ``model_key``; its
        moves finish as one timed event on the controller's simulator.
        Returns whether a defrag was started."""
        controller = self.controller
        if model_key in self._defrag_pending:
            return False
        plan = controller.plan_defrag(model_key)
        if plan is None:
            return False
        simulator = controller._clock()
        cost = controller.begin_defrag(plan, now)
        self._defrag_pending.add(model_key)

        def complete(finish_now: float, plan=plan, key=model_key) -> None:
            controller.finish_defrag(plan, finish_now)
            self._defrag_pending.discard(key)

        simulator.schedule_external(cost, complete)
        return True

    def wake_key(self, task: Task):
        """The inputs a decline of ``task`` and its hint read, or ``None``
        with defrag or recovery on (a decline may start a compaction, a
        release may re-place a failed deployment).

        A decline reads the free blocks and board health, the resident set
        (:meth:`_expansion_allowed`) and the model's copies, all of which
        move only with :attr:`PlacementIndex.generation`; whether the task
        has a usable idle copy; and its model's queue depth against 2
        (fairness) and :attr:`EXPANSION_PRESSURE` (the eviction gate and
        the hint).  Other models' depths can only hold this model back,
        and while it stays blocked its share of the observed mix only
        shrinks, so ``allow_mixed`` never turns a refusal into a fit.  The
        key reads neither, so no arrival of another model can move it (the
        simulator does not ask it again then).  A
        hint from the eviction branch of :meth:`earliest_retry` also reads
        the oldest foreign idle copy, which a start or finish can change.
        """
        controller = self.controller
        if controller.migration_enabled or controller.recovery_enabled:
            return None
        model_key = task.model_key
        simulator = self._simulator
        depth = simulator.queue_view.get(model_key, 0)
        pressured = depth >= self.EXPANSION_PRESSURE
        # Any idle copy is usable unless tenants are isolated.
        idle = controller._idle_by_model.get(model_key)
        if idle and controller.tenant_isolation:
            idle = controller.find_idle_deployment(model_key, task.tenant)
        key = (controller.index.generation, not idle, depth >= 2, pressured)
        # The hint's eviction branch (see :meth:`earliest_retry`); a model
        # has copies exactly when its key is in the per-model index.
        if (
            (pressured and self.expansion_enabled
             or model_key not in controller._by_model)
            and simulator.queue.now - task.arrival_s
            >= controller.eviction_patience_s
        ):
            return (*key, self._stale_at(task))
        return key

    def earliest_retry(self, task: Task, now: float) -> float:
        """Earliest time a declined task could start absent releases: its
        ``retry_at`` at a decline here or at a serving frontend's gates.

        Two of the controller's gates open purely with the clock: the
        requester ageing past the eviction-patience window, and an idle
        foreign deployment going stale enough to evict.  Everything else
        (queue pressure, deployment counts, free blocks) only moves on
        starts, finishes and arrivals.  Besides the clock and the task, a
        hint reads the model's own depth in the simulator's queue view,
        deployment counts, defrag state and the idle set, each of which
        :meth:`wake_key` covers.  Hints are biased a hair early so float
        rounding can only cause a harmless extra attempt, never a missed
        one.
        """
        controller = self.controller
        depth = self._simulator.queue_view.get(task.model_key, 0)
        if task.model_key in self._defrag_pending:
            # A compaction is in flight for this model; its completion is
            # an external event that bumps the resource version itself.
            return math.inf
        patience = controller.eviction_patience_s
        if task.model_key in controller._by_model:  # it has copies
            if not self.expansion_enabled:
                # Elasticity belongs to the autoscaler: only a release or
                # its next scaling event (an external event that bumps the
                # resource version) can unblock this task.
                return math.inf
            if depth < self.EXPANSION_PRESSURE:
                # Expansion without pressure never evicts (waited is zeroed):
                # only a queue/resource change can help.
                return math.inf
        if now - task.arrival_s < patience:
            return task.arrival_s + patience - 1e-12
        # Eviction was allowed but found no stale victim: wake when the
        # oldest idle foreign deployment crosses the staleness window.
        return self._stale_at(task)

    def _stale_at(self, task: Task) -> float:
        """When the oldest idle foreign deployment crosses the staleness
        window (``math.inf`` with none).  "Foreign" matches the eviction
        filter: another model, or — under tenant isolation — another
        tenant's unreusable same-model copy."""
        controller = self.controller
        isolation = controller.tenant_isolation
        for last_used_s, _, d in controller._idle_lru:
            if d.model_key != task.model_key or (
                isolation and d.tenant != task.tenant
            ):
                return last_used_s + controller.eviction_patience_s - 1e-12
        return math.inf


class RestrictedSystem(ProposedSystem):
    """Framework with the same-device-type restriction of Fig. 12."""

    name = "restricted"

    @staticmethod
    def _same_type_only() -> bool:
        return True


@dataclass
class _BaselineBoardState:
    """One board in the baseline system: statically programmed with the
    device-matched full accelerator, busy or free as a whole.

    ``resident_model`` tracks whose weights currently occupy the on-chip
    matrix memory; serving a different model first reloads weights over
    PCIe/DRAM (persistent-NN serving makes weight residency the asset)."""

    fpga_id: str
    device_type: str
    instance: AcceleratorConfig
    busy_until_task: int | None = None
    resident_model: str | None = None


class BaselineSystem:
    """AS ISA only: per-device granularity, static allocation.

    Every board permanently hosts its device-matched accelerator instance
    (resource allocation is fixed at offline compile time), one task runs
    per board, and models too large for one board occupy two boards with
    *manually partitioned*, non-overlapped communication (the paper's
    description of scale-out without the framework).  Boards prefer tasks
    of their resident model; switching models costs a weight reload.
    """

    name = "baseline"

    def __init__(self, cluster: FPGACluster):
        self.cluster = cluster
        self.boards = [
            _BaselineBoardState(
                fpga_id=board.fpga_id,
                device_type=board.model.name,
                instance=BASE_INSTANCES[board.model.name].with_frequency(
                    board.model.frequency_hz
                ),
            )
            for board in cluster.boards.values()
        ]
        self._latency_cache: dict = {}
        #: model key -> boards it was statically assigned to at "compile
        #: time".  Computed from the model pool without knowledge of the
        #: runtime composition — the static inflexibility the paper attacks.
        self._assignment: dict[str, list] = {}
        self._build_static_assignment()

    def _build_static_assignment(self) -> None:
        """Round-robin the known model pool over the boards offline."""
        from ..workloads.deepbench import MODEL_POOL

        pool = sorted(
            {spec.key: spec for specs in MODEL_POOL.values() for spec in specs}.values(),
            key=lambda spec: spec.key,
        )
        cursor = 0
        for spec in pool:
            placed = False
            for attempt in range(len(self.boards)):
                board = self.boards[(cursor + attempt) % len(self.boards)]
                if self._single_latency(spec, board) is not None:
                    self._assignment[spec.key] = [board]
                    cursor += attempt + 1
                    placed = True
                    break
            if placed:
                continue
            # Oversized model: statically assign a feasible board pair.
            for i, first in enumerate(self.boards):
                for second in self.boards[i + 1 :]:
                    if self._pair_latency(spec, [first, second]) is not None:
                        self._assignment[spec.key] = [first, second]
                        placed = True
                        break
                if placed:
                    break

    # -- latency ---------------------------------------------------------------------

    def _single_latency(self, spec: ModelSpec, board: _BaselineBoardState) -> float | None:
        key = ("single", spec.key, board.device_type)
        if key not in self._latency_cache:
            model = CycleModel(board.instance)
            program = spec.program()
            self._latency_cache[key] = (
                model.latency(program).seconds if model.fits(program) else None
            )
        return self._latency_cache[key]

    def _pair_latency(self, spec: ModelSpec, pair: list) -> float | None:
        types = tuple(sorted(b.device_type for b in pair))
        key = ("pair", spec.key, types)
        if key not in self._latency_cache:
            self._latency_cache[key] = self._compute_pair_latency(spec, pair)
        return self._latency_cache[key]

    def _compute_pair_latency(self, spec: ModelSpec, pair: list) -> float | None:
        if spec.hidden % 2 != 0:
            return None
        # Manual partitioning: no reordering tool, so communication is
        # fully exposed (the overlap window is empty).
        try:
            programs = build_scaleout_programs(
                spec.kind, spec.metadata_weights(), spec.timesteps, 2,
                reorder=False,
            )
        except ReproError:
            return None
        members = [b.fpga_id for b in pair]
        worst = 0.0
        for board, program in zip(pair, programs):
            model = CycleModel(board.instance)
            if not model.fits(program):
                return None
            report = scaleout_latency(
                program, model, self.cluster.network, members
            )
            worst = max(worst, report.total_s)
        return worst

    # -- Scheduler protocol ----------------------------------------------------------------

    @staticmethod
    def _switch_cost(spec: ModelSpec, boards: list) -> float:
        """Weight reload time for boards not already holding this model."""
        if all(board.resident_model == spec.key for board in boards):
            return 0.0
        return weight_load_seconds(spec.parameter_count)

    def _occupy(self, task: Task, spec: ModelSpec, boards: list) -> None:
        for board in boards:
            board.busy_until_task = task.task_id
            board.resident_model = spec.key
        task.placement = boards

    def try_start(self, task: Task, now: float) -> float | None:
        spec = model_by_key(task.model_key)
        boards = self._assignment.get(task.model_key)
        if boards is None:
            # A model outside the offline pool: assign it now, permanently,
            # without touching the pool's offline assignment.
            self._assign_extra(spec)
            boards = self._assignment.get(task.model_key)
        if boards is None:
            task.decline = "capacity"  # no board can ever host it
        elif any(b.busy_until_task is not None for b in boards):
            task.decline = "busy"
        else:
            # The static assignment holds only boards the model fits.
            if len(boards) == 1:
                latency = self._single_latency(spec, boards[0])
            else:
                latency = self._pair_latency(spec, boards)
            cost = self._switch_cost(spec, boards)
            self._occupy(task, spec, boards)
            task.decline = None
            return cost + latency
        # Static allocation has no time gates: only a finish can help.
        task.retry_at = math.inf
        return None

    def _assign_extra(self, spec: ModelSpec) -> None:
        """Statically place a model that was not in the offline pool."""
        for board in self.boards:
            if self._single_latency(spec, board) is not None:
                self._assignment[spec.key] = [board]
                return
        for i, first in enumerate(self.boards):
            for second in self.boards[i + 1 :]:
                if self._pair_latency(spec, [first, second]) is not None:
                    self._assignment[spec.key] = [first, second]
                    return

    def on_finish(self, task: Task, now: float) -> None:
        for board in task.placement:
            board.busy_until_task = None
        task.placement = None


def build_system(
    name: str,
    cluster: FPGACluster,
    catalog: Catalog | None = None,
    defrag: bool = False,
    recovery: bool = False,
    batching=None,
):
    """Factory over the three evaluated systems.

    ``defrag=True`` arms live migration and defragmentation on the
    framework systems (the baseline has no virtualization layer to migrate
    through); ``recovery=True`` arms failure recovery from periodic
    checkpoints (:mod:`repro.faults`).  Both schedule their work on the
    simulator that binds the system.  ``batching`` (a
    :class:`repro.runtime.batching.BatchingParameters`) arms the
    request-coalescing functional executor.  The defaults keep schedules
    bit-identical to the pre-migration, pre-faults implementation.
    """
    if name == "baseline":
        return BaselineSystem(cluster)
    if catalog is None:
        raise ReproError(f"system {name!r} needs a catalog")
    if name == "proposed":
        return ProposedSystem(cluster, catalog, defrag=defrag,
                              recovery=recovery, batching=batching)
    if name == "restricted":
        return RestrictedSystem(cluster, catalog, defrag=defrag,
                                recovery=recovery, batching=batching)
    raise ReproError(f"unknown system {name!r}")
