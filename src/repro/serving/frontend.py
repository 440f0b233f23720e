"""The overload-robust serving edge (admission -> deadline -> retry -> start).

:class:`ServingFrontend` wraps a framework scheduler (:class:`~repro.
runtime.systems.ProposedSystem` or the restricted variant) and implements
the :class:`~repro.cluster.simulator.Scheduler` hooks it changes, so a
:class:`~repro.cluster.simulator.ClusterSimulator` drives it unchanged.
It forwards nothing it does not change: the simulator owns the queue view
the system reads, and takes the dispatch order from the wrapped system
(``frontend.system``).  On top of the inner scheduler it layers the
mechanisms that keep goodput graceful when offered load exceeds capacity
or boards fail:

* **Admission control** — a per-model bound on the requests queued in
  the simulator (the only queue); an arrival past it is shed at the door
  (tail drop).
* **Deadlines** — every admitted request carries an absolute deadline.
  One expiry timer per frontend (a single ``schedule_external`` event,
  armed at the earliest deadline of a still-queued request) expires every
  queued request whose deadline has come, *at* its deadline, and takes it
  out of the simulator's queue then (``drop_queued``), so it never
  occupies a board.  A request started at its deadline could not finish
  on time anyway: service time is positive.  An abandon leaves the queue
  the same way, at the event that condemns it.
* **Retry budget** — genuine placement failures (the system declined
  the start for ``"capacity"``) consume a per-request budget with
  jittered exponential backoff; exhaustion abandons the request, whose
  decline reason stays ``"capacity"`` (its outcome says it left).
  Waiting behind a busy deployment costs nothing — that is queueing, not
  failure.  A decline's ``retry_at`` reads a per-model record of the
  queued requests backing off, not the backlog.
* **Circuit breakers** — per-board failure/latency windows
  (:mod:`repro.serving.breaker`); an open breaker drains its board
  through the health machinery (``HEALTHY -> DEGRADED``, dropping it from
  the placement index), half-open probes re-admit it.  A completion is
  attributed at finish to the boards of the deployment it ran on (read
  off ``task.placement``), and only when it can move a breaker: it was
  late, or some breaker is half-open.  A request is rejected without a
  placement search while none of the boards its model could land on is
  usable (breaker not open, board not failed); the frontend keeps that
  count per model, moved by the breakers' own transitions and by board
  health changes, not by a walk per request.
* **Brownout** — above a utilisation high watermark the frontend flips
  the controller to narrowest-plan-first dispatch and switches hot
  models' idle deployments to the narrowest catalog plan (a cross-width
  switch is a cold restart, mirroring the recovery manager's scale-down
  fallback), exiting at a low watermark with hysteresis.  A start or
  finish evaluates it only when occupancy moved since the last
  evaluation (a comparison before the call, not inside it).

Everything is opt-in: no behaviour of the wrapped system changes unless a
frontend is constructed around it, so the Fig. 12 golden path is
untouched.  A frontend serves only once a simulator binds it (the
simulator's constructor does); an earlier ``admit`` raises ``ReproError``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from heapq import heappop, heappush

from ..cluster.simulator import Task
from ..errors import ReproError, SimulationError
from ..vital.virtual_block import BoardHealth
from .breaker import BreakerState, CircuitBreaker
from .policy import (
    BROWNOUT_HIGH_WATERMARK,
    BROWNOUT_HOT_DEPTH,
    BROWNOUT_LOW_WATERMARK,
    RETRY_JITTER,
    ServingParameters,
    backoff_s,
)
from .request import RequestOutcome, RequestRecord


#: Hot-path aliases: an enum member read through its class costs a
#: descriptor call per access.
_OPEN = BreakerState.OPEN
_FAILED = BoardHealth.FAILED
_PENDING = RequestOutcome.PENDING


class _UsableBoards(dict):
    """model key -> how many boards the model could land on are usable
    (breaker not open, board not failed); ``None`` when no board could
    take the model.  A model is counted at its first read."""

    __slots__ = ("_count",)

    def __init__(self, count):
        super().__init__()
        self._count = count

    def __missing__(self, model_key: str):
        usable = self[model_key] = self._count(model_key)
        return usable


def _delay_to(due_s: float, now: float) -> float:
    """The delay that the event queue, adding it to ``now <= due_s``, lands
    exactly on ``due_s`` (``due_s - now`` alone may round an ulp off)."""
    delay = due_s - now
    while now + delay > due_s:
        delay = math.nextafter(delay, 0.0)
    while now + delay < due_s:
        delay = math.nextafter(delay, math.inf)
    return delay


@dataclass
class ServingStats:
    """Serving-edge counters for one frontend lifetime."""

    offered: int = 0
    admitted: int = 0
    shed: int = 0
    expired: int = 0
    abandoned: int = 0
    breaker_rejections: int = 0
    started: int = 0
    completed: int = 0
    #: Completions that finished at or before their deadline.
    slo_hits: int = 0
    #: Genuine placement failures absorbed into backoff.
    placement_retries: int = 0
    breaker_opens: int = 0
    breaker_half_opens: int = 0
    breaker_closes: int = 0
    brownout_entries: int = 0
    brownout_exits: int = 0
    brownout_switches: int = 0
    #: Latency (seconds) of every completed request, in completion order.
    latencies_s: list = field(default_factory=list)

    def slo_attainment(self) -> float:
        """On-deadline fraction of completed (admitted) requests."""
        return self.slo_hits / self.completed if self.completed else 1.0

    def shed_rate(self) -> float:
        return self.shed / self.offered if self.offered else 0.0


class ServingFrontend:
    """Admission/deadline/retry/breaker/brownout edge over one scheduler.

    Its gates read kept state: per model, the usable-board count (moved
    by breaker transitions, which each breaker reports, and by board
    health) and the record of queued requests backing off (written at a
    backoff, pruned lazily); and the cluster's free-block total (moved by
    board occupancy).  :meth:`_check_books` recounts the first two at run
    end."""

    name = "serving"

    def __init__(self, system, params: ServingParameters | None = None):
        self.system = system
        self.controller = system.controller
        self.cluster = system.cluster
        self.params = params or ServingParameters()
        self.stats = ServingStats()
        self._rng = random.Random(self.params.seed)
        #: Min-heap of ``(deadline_s, task_id, task)`` of queued requests,
        #: every model's; entries of requests that left the queue are
        #: popped when the expiry timer reaches them.
        self._expiry: list = []
        #: Due time of the armed expiry timer (``inf``: none armed).
        self._armed_s = math.inf
        #: Expiry timers armed so far (one DES event each).
        self.timers_armed = 0
        self._breakers = {
            fpga_id: CircuitBreaker(fpga_id, listener=self._on_breaker)
            for fpga_id in self.cluster.boards
        }
        #: Boards whose breaker is half-open: only these (and a late
        #: completion) make a finish walk its boards.
        self._half_open: set[str] = set()
        #: The breaker gate's counts (see :class:`_UsableBoards`), the
        #: ``(breaker, board)`` candidates of each counted model, and
        #: fpga id -> the counted models it is a candidate of.
        self._usable = _UsableBoards(self._count_usable)
        self._candidates: dict[str, list] = {}
        self._gated_on: dict[str, list] = {}
        #: Latest backoff expiry ever set: at or before ``now``, no queued
        #: request is backing off.
        self._backoff_until = 0.0
        #: model key -> ``{seq: task}`` of its requests that were queued
        #: backing off when their backoff was set.  An entry whose backoff
        #: expired or whose request left (started, dropped) is stale and
        #: pruned when a hint reads the record.
        self._backing_off: dict[str, dict] = {}
        self._total_blocks = sum(
            len(board.blocks) for board in self.cluster.boards.values()
        )
        #: Free blocks over every board, healthy or not.
        self._free_blocks = 0
        for board in self.cluster.boards.values():
            self._free_blocks += board.free_blocks
            board.subscribe(self._on_occupancy)
        self.brownout = False
        #: Free blocks at the last brownout evaluation (``None``: none yet).
        self._settled_free: int | None = None
        self._simulator = None
        #: Optional elastic autoscaler (:mod:`repro.autoscale`); it sets
        #: itself here when built, and observes every offered arrival.
        self.autoscaler = None

    # -- simulator adoption --------------------------------------------------

    def bind_simulator(self, simulator) -> None:
        """Adopt the driving DES; the frontend's kept records are recounted
        when its run ends (:meth:`_check_books`).

        Board health is watched from here on: a breaker sample needs the
        simulator's clock.  A board that failed before is seen by the
        breaker gate all the same, since a model's usable boards are
        counted at the gate's first read of it."""
        self._simulator = simulator
        self.system.bind_simulator(simulator)
        simulator.add_run_end(self._check_books)
        for board in self.cluster.boards.values():
            board.subscribe_health(self._on_board_health)

    def _check_books(self) -> None:
        """Raise :class:`SimulationError` naming each kept record that
        differs from a from-scratch recount (:meth:`_recount`)."""
        differs = self._recount(self._simulator.queue.now)
        if differs:
            raise SimulationError(
                f"{self.name}: the {' and the '.join(differs)} differ from "
                f"a recount at run end"
            )

    def _recount(self, now: float) -> list:
        """The kept records that differ from a recount at ``now``: the
        usable-board count of every counted model, and, per model, the
        live entries of the backoff record against the queued requests
        whose backoff runs past ``now``."""
        differs = []
        for model_key, candidates in self._candidates.items():
            usable = sum(
                breaker.state is not _OPEN and board.health is not _FAILED
                for breaker, board in candidates
            )
            if self._usable[model_key] != usable:
                differs.append("usable-board counts")
                break
        simulator = self._simulator
        for model_key in set(self._backing_off) | set(simulator.queued_models()):
            live = {
                seq for seq, task in self._backing_off.get(model_key, {}).items()
                if task.serving.next_attempt_s > now
                and task.serving.outcome is _PENDING
            }
            queued = {
                task.seq for task in simulator.queued_tasks(model_key)
                if task.serving.next_attempt_s > now
            }
            if live != queued:
                differs.append("backoff records")
                break
        return differs

    # -- deadlines -----------------------------------------------------------

    def _watch_deadline(self, task: Task, now: float) -> None:
        """Arm the deadline of a request the simulator queues (admitted)
        or holds again (requeued)."""
        deadline = task.serving.deadline_s
        if deadline <= now:
            # Requeued after its deadline: it expires now.
            self._condemn(task, RequestOutcome.EXPIRED)
            self.stats.expired += 1
            return
        if deadline < math.inf:
            heappush(self._expiry, (deadline, task.task_id, task))
        if deadline < self._armed_s:
            self._arm(deadline)

    def _condemn(self, task: Task, outcome: RequestOutcome) -> None:
        """Give a queued request its terminal drop outcome: it leaves the
        simulator's queue now."""
        task.serving.outcome = outcome
        self._simulator.drop_queued(task)

    # -- deadline expiry -----------------------------------------------------

    def _arm(self, due_s: float) -> None:
        """Arm the expiry timer at ``due_s``; a timer armed before it, due
        later, is superseded and fires as a no-op."""
        self._armed_s = due_s
        self.timers_armed += 1
        self._simulator.schedule_external(
            _delay_to(due_s, self._simulator.queue.now),
            lambda now: self._on_timer(due_s, now),
        )

    def _on_timer(self, due_s: float, now: float) -> None:
        if due_s == self._armed_s:
            self._armed_s = math.inf
            self._expire(now)

    def _expire(self, now: float) -> None:
        """Condemn every queued request whose deadline is at or before
        ``now``, pop the entries of requests that left the queue, and arm
        the timer at the earliest deadline left."""
        expiry = self._expiry
        while expiry:
            deadline, _, task = expiry[0]
            record = task.serving
            if record.outcome is RequestOutcome.PENDING and not record.started:
                if deadline > now:
                    self._arm(deadline)
                    return
                self._condemn(task, RequestOutcome.EXPIRED)
                self.stats.expired += 1
            heappop(expiry)

    # -- Scheduler protocol: admission ---------------------------------------

    def admit(self, task: Task, now: float) -> bool:
        """Arrival-time admission: a bounded queue.  Every offered request
        gets its record here."""
        if self._simulator is None:
            raise ReproError("ServingFrontend.admit before bind_simulator")
        deadline = getattr(task, "deadline_s", 0.0)
        if deadline <= 0.0:
            deadline = task.arrival_s + self.params.default_deadline_s
        task.serving = record = RequestRecord(deadline_s=deadline)
        self.stats.offered += 1
        model = task.model_key
        if self.autoscaler is not None:
            self.autoscaler.observe_arrival(model, now)
        if record.deadline_s <= now:
            # Late on arrival: it expires at the door and is never queued.
            record.outcome = RequestOutcome.EXPIRED
            self.stats.admitted += 1
            self.stats.expired += 1
            return False
        if self._simulator.queued_depth(model) >= self.params.max_queue_depth:
            record.outcome = RequestOutcome.SHED
            self.stats.shed += 1
            return False
        self._watch_deadline(task, now)
        self.stats.admitted += 1
        return True

    # -- Scheduler protocol: placement ---------------------------------------

    def try_start(self, task: Task, now: float) -> float | None:
        record = task.serving
        if now < record.next_attempt_s:
            task.decline = "backoff"  # retry backoff gate
        elif self._usable[task.model_key] == 0:
            # Every board the model could land on is held open or failed.
            self.stats.breaker_rejections += 1
            task.decline = "breaker"
        else:
            service = self.system.try_start(task, now)
            if service is not None:
                # Started: let brownout react to the new utilisation.  The
                # simulator takes the task off its queue once this returns.
                record.started = True
                self.stats.started += 1
                if self._free_blocks != self._settled_free:
                    self._update_brownout(now, starting=task.model_key)
                return service
            if task.decline == "capacity":
                self._placement_failed(task, now)
            # After an abandon, which takes the task off its queue.
            task.retry_at = self._backoff_hint(task, now, task.retry_at)
            return None
        # A gate declined before the system saw the task: the system's
        # hint is asked only if the backoff record leaves it a term.
        task.retry_at = self._backoff_hint(task, now)
        return None

    def _placement_failed(self, task: Task, now: float) -> None:
        record = task.serving
        record.attempts += 1
        if record.attempts > self.params.retry_budget:
            self._condemn(task, RequestOutcome.ABANDONED)
            self.stats.abandoned += 1
            return
        self.stats.placement_retries += 1
        delay = backoff_s(record.attempts) * (
            1.0 - RETRY_JITTER + 2.0 * RETRY_JITTER * self._rng.random()
        )
        record.next_attempt_s = now + delay
        if record.next_attempt_s > self._backoff_until:
            self._backoff_until = record.next_attempt_s
        self._backing_off.setdefault(task.model_key, {})[task.seq] = task
        # Wake the dispatcher when the backoff expires.
        self._simulator.schedule_external(delay, lambda _now: None)

    def requeue(self, task: Task, now: float) -> None:
        """Return a started request to its queue (tenancy preemption): the
        start bookkeeping is reversed exactly, so the deadline governs the
        re-run like any queued request.  The simulator must already hold
        the task again (``abort_running``): a request requeued after its
        deadline is dropped at once."""
        record = task.serving
        if record is None or not record.started:
            return
        record.started = False
        self._watch_deadline(task, now)

    # -- Scheduler protocol: completion --------------------------------------

    def on_finish(self, task: Task, now: float) -> None:
        # The deployment the request finished on; the inner system
        # detaches it from the task.
        deployment = task.placement
        self.system.on_finish(task, now)
        record = task.serving
        if record is None:
            return
        record.outcome = RequestOutcome.COMPLETED
        on_time = now <= record.deadline_s
        self.stats.completed += 1
        self.stats.latencies_s.append(now - task.arrival_s)
        if on_time:
            self.stats.slo_hits += 1
        # An on-time completion moves only half-open breakers.
        if not on_time or self._half_open:
            for placement in deployment.placements:
                breaker = self._breakers.get(placement.fpga_id)
                if breaker is None:
                    continue
                if on_time:
                    if breaker.record_success(now):
                        self.stats.breaker_closes += 1
                elif breaker.record_slow(now):
                    self._drain(breaker)
        if self._free_blocks != self._settled_free:
            self._update_brownout(now)

    # -- retry hints ---------------------------------------------------------

    def _backoff_hint(self, task: Task, now: float,
                      inner: float | None = None) -> float:
        """The ``task.retry_at`` of a decline: a conservative per-model
        gate, the earliest moment *any* queued request of this model could
        act — its backoff expiry when backing off, the system's hint
        otherwise (and with nothing of the model queued).

        The requests backing off are the live entries of the model's
        backoff record, pruned here.  The system's hint is ``inner`` when
        the decline has it already; else it is asked only when a queued
        request of the model is not backing off."""
        model_key = task.model_key
        hint = math.inf
        backing_off = 0
        if self._backoff_until > now:  # else nothing queued is backing off
            record = self._backing_off.get(model_key)
            if record:
                stale = []
                for seq, other in record.items():
                    serving = other.serving
                    next_s = serving.next_attempt_s
                    if next_s <= now or serving.outcome is not _PENDING:
                        stale.append(seq)
                    elif next_s < hint:
                        hint = next_s
                for seq in stale:
                    del record[seq]
                backing_off = len(record)
        if not backing_off or (
            backing_off < self._simulator.queued_depth(model_key)
        ):
            if inner is None:
                inner = self.system.earliest_retry(task, now)
            if inner < hint:
                hint = inner
        return hint

    # -- circuit breakers ----------------------------------------------------

    def breaker(self, fpga_id: str) -> CircuitBreaker:
        return self._breakers[fpga_id]

    def _on_breaker(self, breaker: CircuitBreaker, old_state) -> None:
        """A breaker changed state, on any path: keep the half-open set,
        and the usable-board counts when it opened or left OPEN on a
        board that has not failed."""
        fpga_id = breaker.fpga_id
        state = breaker.state
        if state is BreakerState.HALF_OPEN:
            self._half_open.add(fpga_id)
        else:
            self._half_open.discard(fpga_id)
        if (state is _OPEN) is not (old_state is _OPEN) and (
            self.cluster.board(fpga_id).health is not _FAILED
        ):
            self._move_usable(fpga_id, -1 if state is _OPEN else 1)

    def _on_board_health(self, board, old_health) -> None:
        failed = board.health is _FAILED
        if failed == (old_health is _FAILED):
            return  # HEALTHY <-> DEGRADED: usable either way
        breaker = self._breakers[board.fpga_id]
        if breaker.state is not _OPEN:
            self._move_usable(board.fpga_id, -1 if failed else 1)
        if failed and breaker.record_failure(self._simulator.queue.now):
            self._drain(breaker)

    def _move_usable(self, fpga_id: str, delta: int) -> None:
        """One board became usable (``delta`` 1) or unusable (-1)."""
        usable = self._usable
        for model_key in self._gated_on.get(fpga_id, ()):
            usable[model_key] += delta

    def _count_usable(self, model_key: str) -> int | None:
        """Count a model's usable candidate boards, at the gate's first
        read of the model, and list it on each candidate board for the
        transitions to come.  ``None`` (the gate does not apply) with no
        board the model could land on."""
        types = set(self.controller.catalog.compatible_types(model_key))
        candidates = [
            (self._breakers[board.fpga_id], board)
            for board in self.cluster.boards.values()
            if board.model.name in types
        ]
        if not candidates:
            return None
        self._candidates[model_key] = candidates
        for _, board in candidates:
            self._gated_on.setdefault(board.fpga_id, []).append(model_key)
        return sum(
            breaker.state is not _OPEN and board.health is not _FAILED
            for breaker, board in candidates
        )

    def _drain(self, breaker: CircuitBreaker) -> None:
        """An opened breaker drains its board via the health machinery and
        schedules the half-open probe."""
        self.stats.breaker_opens += 1
        board = self.cluster.board(breaker.fpga_id)
        if board.health is BoardHealth.HEALTHY:
            self.controller.on_board_degraded(board)
            breaker.draining = True
        self._schedule_half_open(breaker)

    def _schedule_half_open(self, breaker: CircuitBreaker) -> None:
        self._simulator.schedule_external(
            breaker.cooldown_s(),
            lambda _now, b=breaker: self._probe(b),
        )

    def _probe(self, breaker: CircuitBreaker) -> None:
        board = self.cluster.board(breaker.fpga_id)
        if board.health is BoardHealth.FAILED:
            # Still hard-down (fault injector owns it): probe again later.
            self._schedule_half_open(breaker)
            return
        if breaker.state is not BreakerState.OPEN:
            return
        breaker.half_open()
        self.stats.breaker_half_opens += 1
        if breaker.draining and board.health is BoardHealth.DEGRADED:
            self.controller.on_board_repair(board)
        breaker.draining = False

    # -- brownout ------------------------------------------------------------

    def _on_occupancy(self, board, old_free: int) -> None:
        self._free_blocks += board.free_blocks - old_free

    def utilisation(self) -> float:
        """Occupied fraction of every virtual block in the cluster."""
        if not self._total_blocks:
            return 0.0
        return 1.0 - self._free_blocks / self._total_blocks

    def _update_brownout(self, now: float, starting: str = "") -> None:
        """Enter or leave brownout at the current utilisation.  ``starting``
        names the model of a task that has started but is still on the
        simulator's queue (its :meth:`try_start` has not returned).

        An evaluation stays right until occupancy moves, so a start or
        finish calls this only when the free-block total differs from
        :attr:`_settled_free`: the low watermark sits strictly below the
        high one, so neither transition flips back at the utilisation
        that made it."""
        self._settled_free = self._free_blocks
        if not self.params.brownout_enabled:
            return
        util = self.utilisation()
        if not self.brownout and util >= BROWNOUT_HIGH_WATERMARK:
            self.brownout = True
            self.controller.prefer_narrow = True
            self.stats.brownout_entries += 1
            self._shrink_hot_models(now, starting)
        elif self.brownout and util <= BROWNOUT_LOW_WATERMARK:
            self.brownout = False
            self.controller.prefer_narrow = False
            self.stats.brownout_exits += 1

    def _shrink_hot_models(self, now: float, starting: str) -> None:
        """Switch hot models' idle deployments to the narrowest catalog
        plan (cross-width, so a cold restart — the recovery manager's
        scale-down fallback applied proactively).  A model is hot when
        its queued requests, ``starting`` not counted, reach
        :data:`~repro.serving.policy.BROWNOUT_HOT_DEPTH`."""
        controller = self.controller
        simulator = self._simulator
        for model_key in simulator.queued_models():
            depth = simulator.queued_depth(model_key) - (model_key == starting)
            if depth < BROWNOUT_HOT_DEPTH:
                continue
            plans = controller.catalog.entry_by_key(model_key).sorted_plans()
            if len(plans) < 2:
                continue
            narrow = min(plans, key=controller.plan_footprint)
            deployment = controller.find_idle_deployment(model_key)
            if deployment is None:
                continue
            if (
                controller.plan_footprint(deployment.plan)
                <= controller.plan_footprint(narrow)
            ):
                continue
            self._switch_plan(deployment, narrow, now)

    def _switch_plan(self, deployment, narrow_plan, now: float) -> None:
        if self.controller.swap_plan(deployment, narrow_plan, now) is not None:
            self.stats.brownout_switches += 1
