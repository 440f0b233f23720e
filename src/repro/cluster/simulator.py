"""Discrete-event cluster simulator.

Drives the Fig. 12 system evaluation: a stream of inference tasks arrives,
a *scheduler* (one of the three systems under comparison — proposed,
restricted-policy, AS-ISA baseline) places each task on the cluster, tasks
occupy resources for their service time, and aggregate throughput is
measured as completed tasks per second of makespan.

The simulator is system-agnostic: schedulers implement the small
:class:`Scheduler` protocol.  Pending tasks wait in per-(tenant, model)
FIFO queues ordered by ``(arrival_s, enqueue seq)``, so results are
deterministic.  One dispatch pass visits them in a merged order: a heap
holds each queue's next task keyed by the queue's class prefix
(:meth:`Scheduler.dispatch_key`: locality or the tenancy order, frozen for
the pass) followed by that FIFO tail.  A pass that finds one queue holding
work walks it in FIFO order instead: with nothing to merge, no prefix can
change the order, so none is asked.

Dispatch is incremental: when a model's task fails to start, the simulator
records a *watermark* — the resource-state version it failed under, the
hint the declining layer wrote in ``task.retry_at``, the task that
declined and that decline's wake key (:meth:`Scheduler.wake_key`) — and
parks every task of that model while the clock is short of the hint and
either the version is unchanged or the visit is to the task that declined
and its wake key still equals the recorded one.  Every arrival, start,
finish, drop, preemption and external event moves the version.  A parked
attempt is one the scheduler would provably have declined, with the same
hint and no side effect, so schedules (and therefore experiment
outputs) are identical to those of a task-by-task walk that retries every
blocked model after every event, while the number of placement attempts
drops by orders of magnitude.  Parking costs O(1) per queue, not per task:
a blocked model's queues leave the heap and, after the next version bump,
re-enter at their first task past the merge position (a bisect), so a pass
is O(queues + attempts), not O(backlog).  A task the scheduler condemns
while it waits (a serving deadline or abandon) leaves its queue at that
moment (:meth:`ClusterSimulator.drop_queued`), so a pass never visits it.

Each model's watermark is one record, written in place, which all the
model's queues point at.  A wake key is asked again only when it could
have moved: a key reads no other model's queue depth or admission state,
so an arrival moves no key but its own model's.  The simulator keeps a
*key stamp* that everything but arrivals moves (starts, finishes, drops,
preemptions, external events, and declines, since a decline may evict),
and a record keeps the stamp its key was read at; a visit asks the key
only when the stamp moved or an arrival of the model came since.

These queues are the only record of queued work: the layers above read
their depths and order here instead of keeping copies.

A pass runs only when something is queued, and only a pass rebuilds the
per-model queue depths the layers above read
(:attr:`ClusterSimulator.queue_view`), first thing and only when they
changed since the last rebuild: a dispatch that empties the backlog
rebuilds nothing, since every reader of the view runs inside a later pass,
which rebuilds it first.  A pass in which every queued model holds its
watermark ends after one watermark read (and at most one wake key) per
queue, before it asks the scheduler for anything else; after an arrival
into a backlog of held models it asks at most the arriving model's key.

Most requests wait for no other: an arrival that finds the backlog empty,
with no pass running, is tried at once by a *direct start*, without a
pass.  It is queued alone and shows the view ``{model: 1}`` while it is
tried, so every queue read sees what a one-queue pass would show, and it
books its start or its decline's watermark through the same code as a
pass.  It skips only what cannot matter for one fresh task: the
enqueue's lookups, the view copy and the check for a model holding its
watermark (the arrival moved the version, and the task never declined);
its queue looks up the model's watermark only if it declines.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush, heapreplace
from itertools import chain, count
from typing import Protocol

from ..errors import SimulationError
from .events import EventQueue


def _run_state(default=None):
    """A field its owning layer sets during a run (not in ``__init__``,
    ``repr`` or ``==``)."""
    return field(default=default, init=False, repr=False, compare=False)


@dataclass(slots=True)
class Task:
    """One inference task, and the one record of its per-request state.

    ``model_key`` identifies the benchmark model (e.g. ``"gru-h1536-t375"``);
    the scheduler resolves it against its catalog.  The fields after
    ``tenant`` belong to the layers a run drives the task through, each
    written only by its owner (``decline`` and ``retry_at`` by whichever
    layer declined the last start); a task runs in one simulation only.
    """

    task_id: int
    model_key: str
    arrival_s: float
    size_class: str = ""
    start_s: float = -1.0
    finish_s: float = -1.0
    #: Optional functional-execution input stream ``(timesteps, input_dim)``.
    #: Consumed by the request-coalescing executor
    #: (:mod:`repro.runtime.batching`); ``None`` means a deterministic
    #: per-task stream is generated on demand.  Ignored by pure-timing runs.
    payload: object = None
    #: Final hidden state once a batch executor has run this task.
    output: object = None
    #: Owning tenant (multi-tenancy layer); ``""`` means untenanted and
    #: preserves the single-tenant paths bit-identically.
    tenant: str = ""
    #: Simulator: enqueue seq, the FIFO tiebreak after arrival (``None``
    #: until offered to a run, ``-1`` until admitted), and the run epoch a
    #: preemption bumps.
    seq: int | None = _run_state()
    run_epoch: int = _run_state(0)
    #: System: the running ``Deployment`` (the baseline: its boards;
    #: ``None`` unless running), and whether the model mix counted it.
    placement: object = _run_state()
    attempted: bool = _run_state(False)
    #: Why the last ``try_start`` declined, in the words of the layer that
    #: declined it (``None`` once a start placed the task): the system's
    #: ``"defrag"``, ``"busy"``, ``"capacity"`` or ``"quota"`` (the
    #: baseline's ``"busy"`` or ``"capacity"``), the serving
    #: frontend's ``"backoff"`` or ``"breaker"``, the tenancy layer's
    #: ``"preempt"``.  A drop leaves it as it was.
    decline: str | None = _run_state()
    #: Written beside ``decline``: the earliest time a retry could succeed
    #: with no release in between, never later than the true one (``inf``
    #: when only a release can help).  The default, for a scheduler that
    #: writes none, retries the model every pass.
    retry_at: float = _run_state(float("-inf"))
    #: The serving frontend's ``RequestRecord`` and the tenant scheduler's
    #: ``TenancyRecord``.
    serving: object = _run_state()
    tenancy: object = _run_state()

    @property
    def latency_s(self) -> float:
        """Queueing + service latency (valid after completion)."""
        return self.finish_s - self.arrival_s

    @property
    def service_s(self) -> float:
        return self.finish_s - self.start_s


class Scheduler(Protocol):
    """What a system-under-test must implement.

    The simulator reads every hook off the scheduler once when it is built
    and again when :meth:`ClusterSimulator.run` starts, never during a run:
    a wrapper (a tracer, a test spy) must be installed before ``run``.
    """

    def try_start(self, task: Task, now: float) -> float | None:
        """Attempt to start ``task``; returns its service time in seconds,
        or ``None`` when resources are currently unavailable.  The
        framework's layers write why in ``task.decline``, for the layers
        above them to read, and when a retry could succeed in
        ``task.retry_at``, which the simulator reads to skip provably
        fruitless attempts."""

    def on_finish(self, task: Task, now: float) -> None:
        """Release whatever ``try_start`` reserved."""

    def admit(self, task: Task, now: float) -> bool:
        """Optional (serving layer): called once at arrival, before the
        task is queued.  Returning ``False`` sheds the task — it is recorded
        in :attr:`SimulationResult.dropped` and never dispatched.  The
        simulator's queue depths do not count the task yet."""

    def wake_key(self, task: Task):
        """Optional: after ``try_start`` declined ``task`` with a hint (its
        ``retry_at``) still ahead of the clock, a value summarising every
        input that decline and its hint read, or ``None`` for no key.
        Asked right after the decline, and again, in a later resource
        version, when a pass visits the same task while the clock is short
        of its hint.  The contract: with the same key, the same task and
        the clock short of the hint, a repeat ``try_start`` declines again
        with the same ``retry_at`` and no side effect — so the simulator
        parks the model instead of asking.  Read off the outermost
        scheduler only; without the hook every version bump retries every
        blocked model.  A scheduler whose decline may preempt or spend a
        retry budget must leave it out.  A decline may itself evict: the
        key is read after it, and a key moves with whatever a later decline
        evicts.  A key must not read another model's queue depth or any
        admission state: an arrival re-asks only its own model's key (the
        key is asked again only once a start, finish, drop, preemption,
        external event or decline came since it was read, or an arrival
        of its model)."""

    def dispatch_key(self, task: Task) -> tuple:
        """Optional: the class prefix of ``task``'s queue in one pass's
        merged order.  The tenancy layer orders by priority class, then
        fair-share virtual time; :class:`~repro.runtime.systems.
        ProposedSystem` orders for locality, ``(no idle copy of the
        model,)``, so a cold task never evicts a hot model out from under
        its queued work.  The simulator appends the FIFO tail
        ``(arrival_s, enqueue seq)`` itself, so the key must be constant
        over a (tenant, model) queue: it is asked once per queue at the
        start of a pass over two or more queues, of the queue's head, and
        frozen until the pass ends; state updated by starts feeds the next
        pass.  A pass over one queue does not ask.  When the outermost
        scheduler has no such hook, the simulator asks the placement
        system it wraps (its ``system``)."""


@dataclass
class SimulationResult:
    """Aggregate outcome of one run."""

    system: str
    completed: list = field(default_factory=list)
    #: Tasks shed at admission or dropped from the queue when the scheduler
    #: condemned them (serving layer only; empty for schedulers without
    #: admission control).
    dropped: list = field(default_factory=list)
    makespan_s: float = 0.0

    @property
    def throughput(self) -> float:
        """Completed tasks per second (the Fig. 12 metric)."""
        if self.makespan_s <= 0:
            return 0.0
        return len(self.completed) / self.makespan_s

    def mean_latency(self) -> float:
        if not self.completed:
            return 0.0
        return sum(t.latency_s for t in self.completed) / len(self.completed)


#: A watermark's hint once its model started a task: no clock is short
#: of it, so the model holds nothing.
_NO_HINT = float("-inf")


class _Watermark:
    """One model's watermark, shared by the model's (tenant, model) queues
    and written in place.

    ``version`` is the resource version the model last declined or held
    at, ``hint`` the declining layer's ``retry_at`` (a start sets
    :data:`_NO_HINT`), ``task`` the task that declined and ``key`` its wake
    key (``None`` for no key; a keyless run writes neither).  ``stamp`` is
    the key stamp (see :meth:`ClusterSimulator._declined`) at which the key
    was last read against a queue view that showed the model's true depth,
    or ``-1`` when it must be asked again.
    """

    __slots__ = ("version", "hint", "task", "key", "stamp")

    def __init__(self):
        self.version = -1
        self.hint = _NO_HINT
        self.task: Task | None = None
        self.key = None
        self.stamp = -1


class _Queue:
    """One (tenant, model) FIFO of pending tasks.

    ``entries`` holds ``(arrival_s, seq, task)`` sorted by ``(arrival_s,
    seq)``; ``record`` is its model's watermark (a direct start's queue
    takes it at its decline); the other fields are the current dispatch
    pass's merge state.
    """

    __slots__ = ("key", "model_key", "entries", "record", "prefix", "cursor",
                 "token")

    def __init__(self, key: tuple, entry: tuple,
                 record: _Watermark | None = None):
        self.key = key
        self.model_key = key[1]
        #: A queue is made for its first entry and deleted when it empties.
        self.entries: list = [entry]
        self.record = record
        #: Class prefix of every task here, frozen for the current pass.
        self.prefix: tuple = ()
        #: Index of the next entry the pass visits; while the queue is
        #: parked, the first entry it skips.
        self.cursor = 0
        #: Token of the queue's live heap entry; ``None`` while parked or
        #: once the pass is done with the queue.
        self.token: int | None = None


class ClusterSimulator:
    """Runs one task stream against one scheduler."""

    #: Re-dispatch interval while tasks wait on time-gated policies
    #: (eviction staleness windows).
    RETRY_INTERVAL_S = 0.005
    #: Consecutive fruitless retries with nothing running => deadlock.
    MAX_IDLE_RETRIES = 64

    def __init__(self, scheduler: Scheduler, system_name: str = "system"):
        self.scheduler = scheduler
        self.system_name = system_name
        self.queue = EventQueue()
        #: (tenant, model key) -> non-empty pending queue, in the order the
        #: queues were first filled.
        self._queues: dict[tuple, _Queue] = {}
        #: Tasks in ``_queues``.
        self._queued = 0
        #: ``{model key: tasks in _queues}`` summed over tenants, without
        #: zero entries, kept by enqueue and take.
        self._counts: dict[str, int] = {}
        #: Whether ``_counts`` changed since ``queue_view`` was last
        #: rebuilt.
        self._counts_dirty = True
        #: A copy of ``_counts`` as it stood at the start of the last pass
        #: that found it changed (a direct start's is ``{model: 1}``): a
        #: fresh dict per rebuild, frozen for the pass, since expansion,
        #: hints and wake keys read it as a schedule input.  An emptied
        #: backlog leaves it stale (see :meth:`_dispatch`).
        self.queue_view: dict[str, int] = {}
        self._seqs = count()
        #: Tasks requeued by :meth:`abort_running` during a pass or a direct
        #: start; they join their queues when it ends.
        self._requeued: list[Task] = []
        self._result = SimulationResult(system=system_name)
        self._dispatching = False
        self._running_count = 0
        self._retry_scheduled = False
        self._idle_retries = 0
        #: Monotonic count of the events other than arrivals that could
        #: change a model's try_start outcome (a start, a finish, a drop, a
        #: preemption, an external event).  The *version* a watermark holds
        #: at is this plus ``_arrivals``, so every such event and every
        #: arrival moves it.
        self._resource_version = 0
        #: Admitted arrivals.
        self._arrivals = 0
        #: Declines under a wake key.  The *key stamp* is this plus
        #: ``_resource_version``: it moves with everything but arrivals,
        #: which change no other model's wake key.
        self._declines = 0
        #: model key -> its :class:`_Watermark` (a plain dict, so a lookup
        #: costs no ``__missing__`` call).
        self._watermarks: dict[str, _Watermark] = {}
        #: Scheduler-driven events in flight (live migrations): they hold
        #: resources and will bump the version when they complete, so an
        #: idle queue is not a deadlock while any are outstanding.
        self._external_inflight = 0
        #: ``try_start`` calls made by dispatch passes and direct starts.
        self.try_start_attempts = 0
        #: Queued tasks a pass passed over because their model was blocked
        #: at the current resource version (parked or skipped).
        self.watermark_skips = 0
        #: Passes ended before any ``try_start``, every queued model
        #: holding its watermark (see :meth:`_dispatch_pass`).
        self.parked_passes = 0
        #: :meth:`schedule_external` events fired.
        self.external_events = 0
        #: Running tasks aborted and requeued by :meth:`abort_running`.
        self.aborted_runs = 0
        #: Callbacks :meth:`run` fires once the event queue is empty.
        self._run_end: list = []
        bind = getattr(scheduler, "bind_simulator", None)
        if bind is not None:
            bind(self)
        self._resolve_hooks()

    def _resolve_hooks(self) -> None:
        """Read the scheduler's hooks (``None`` when absent) once, not on
        every arrival or pass; :meth:`run` reads them again, so wrappers
        installed after construction are seen."""
        scheduler = self.scheduler
        self._try_start = scheduler.try_start
        self._on_finish = scheduler.on_finish
        self._admit = getattr(scheduler, "admit", None)
        self._dispatch_key = getattr(scheduler, "dispatch_key", None)
        if self._dispatch_key is None:
            self._dispatch_key = getattr(
                getattr(scheduler, "system", scheduler), "dispatch_key", None)
        self._wake_key = getattr(scheduler, "wake_key", None)

    # -- pending queues -----------------------------------------------------------

    def _watermark(self, model_key: str) -> _Watermark:
        """``model_key``'s watermark, made at its first use."""
        record = self._watermarks.get(model_key)
        if record is None:
            record = self._watermarks[model_key] = _Watermark()
        return record

    def _enqueue(self, task: Task) -> None:
        """Queue ``task`` at its ``(arrival_s, seq)`` place in its queue."""
        model_key = task.model_key
        key = (task.tenant, model_key)
        entry = (task.arrival_s, task.seq, task)
        queue = self._queues.get(key)
        if queue is None:
            record = self._watermark(model_key)
            self._queues[key] = _Queue(key, entry, record)
        else:
            insort(queue.entries, entry)
            record = queue.record
        # The model's depth moved, which its wake key reads: ask it again.
        record.stamp = -1
        self._queued += 1
        counts = self._counts
        counts[model_key] = counts.get(model_key, 0) + 1
        self._counts_dirty = True

    def _take(self, queue: _Queue, index: int,
              service: float | None = None) -> None:
        """Remove one queued task: a dropped one, or, given its service
        time, one that starts now.  A start is booked here for a pass and
        a direct start alike: the task runs until its finish event.  (A
        pass then clears its model's hint; a direct start's model holds
        nothing, since its arrival moved the version and the backlog held
        no decliner.)"""
        task = queue.entries[index][2]
        if service is not None and service < 0:
            raise SimulationError(
                f"scheduler returned negative service time {service}"
            )
        del queue.entries[index]
        self._queued -= 1
        counts = self._counts
        left = counts[queue.model_key] - 1
        if left:
            counts[queue.model_key] = left
        else:
            del counts[queue.model_key]
        self._counts_dirty = True
        if not queue.entries:
            del self._queues[queue.key]
        if service is None:
            return
        task.start_s = self.queue.now
        self._running_count += 1
        # Starting a task reshapes resources (allocation, possible
        # evictions, the idle set).
        self._resource_version += 1
        self.queue.schedule_in(service, self._finish, task, task.run_epoch)
        self._idle_retries = 0

    def _declined(self, task: Task, now: float, record: _Watermark) -> bool:
        """Write ``task``'s declined start into its model's watermark
        ``record``, for a pass and a direct start alike; returns whether it
        parks the model (its ``retry_at`` is ahead of the clock).

        Under a wake key the decline also moves the key stamp, since a
        decline may evict, and the key is read after it.  The key counts
        as read at the new stamp unless the frozen queue view shows the
        model at another depth than its queues (a start of the model
        earlier in this pass): then the next pass, which rebuilds the
        view, must ask it again."""
        retry_at = task.retry_at
        record.version = self._resource_version + self._arrivals
        record.hint = retry_at
        wake_key = self._wake_key
        if wake_key is None:
            return now < retry_at
        self._declines += 1
        record.task = task
        if now < retry_at:
            record.key = wake_key(task)
            model_key = task.model_key
            if (self._counts_dirty and self._counts.get(model_key)
                    != self.queue_view.get(model_key)):
                record.stamp = -1
            else:
                record.stamp = self._resource_version + self._declines
            return True
        record.key = None
        return False

    def _join_requeued(self) -> None:
        """Queue the tasks :meth:`abort_running` requeued during a pass or
        a direct start, now that it has ended."""
        for task in self._requeued:
            self._enqueue(task)
        self._requeued.clear()

    def drop_queued(self, task: Task) -> None:
        """Drop a queued task the scheduler has condemned (a serving
        deadline or abandon): it leaves its queue now, is
        recorded in :attr:`SimulationResult.dropped` and never occupies a
        board.  Safe inside a dispatch pass, a direct start included, where
        the only task a pass can condemn is the one it just tried, or one
        requeued during it."""
        requeued = self._requeued
        for index, other in enumerate(requeued):
            if other is task:
                del requeued[index]
                break
        else:
            self._unqueue(task)
        self._result.dropped.append(task)
        # The queue view hints read has changed.
        self._resource_version += 1

    def _unqueue(self, task: Task) -> None:
        """Take ``task`` out of its queue, keeping a running pass's cursor
        on the entry it would visit next."""
        queue = self._queues[(task.tenant, task.model_key)]
        index = bisect_left(queue.entries, (task.arrival_s, task.seq))
        if index < queue.cursor:
            queue.cursor -= 1
        self._take(queue, index)

    @property
    def pending_count(self) -> int:
        """Tasks waiting to start: queued, or requeued during this pass."""
        return self._queued + len(self._requeued)

    # Queue reads for the layers above.  Like :attr:`pending_count`, each
    # counts a task requeued during the running pass.  Each visits the
    # per-model counts or the non-empty queues (at most one per tenant and
    # model), never the backlog.

    def queued_depth(self, model_key: str) -> int:
        """Tasks of one model waiting to start, summed over tenants."""
        depth = self._counts.get(model_key, 0)
        if self._requeued:
            depth += sum(t.model_key == model_key for t in self._requeued)
        return depth

    def tenant_depth(self, tenant: str) -> int:
        """Tasks of one tenant waiting to start, summed over models."""
        depth = 0
        for (owner, _), queue in self._queues.items():
            if owner == tenant:
                depth += len(queue.entries)
        if self._requeued:
            depth += sum(t.tenant == tenant for t in self._requeued)
        return depth

    def queued_models(self) -> list:
        """Sorted keys of the models with a task waiting to start."""
        return sorted({queue.model_key for queue in self._queues.values()}
                      | {task.model_key for task in self._requeued})

    def queued_tasks(self, model_key: str) -> list:
        """One model's tasks waiting to start, every tenant's, in
        ``(arrival_s, seq)`` order."""
        runs = [queue.entries for queue in self._queues.values()
                if queue.model_key == model_key]
        if self._requeued:
            runs += [[(task.arrival_s, task.seq, task)]
                     for task in self._requeued
                     if task.model_key == model_key]
        if len(runs) == 1:
            return [entry[2] for entry in runs[0]]
        return [entry[2] for entry in sorted(chain.from_iterable(runs))]

    # -- scheduler-driven events (live migrations) -------------------------------

    def schedule_external(self, delay_s: float, callback) -> None:
        """Schedule a first-class non-task event ``callback(now)``.

        The migration engine uses this to hold source and destination
        blocks for the duration of a move: resources change at *begin*
        (immediately, in the scheduler's own call) and again at *finish*
        (this event), so migrations compete honestly with serving traffic.
        Completion invalidates every watermark and re-dispatches.
        """
        if delay_s < 0:
            raise SimulationError(f"negative external-event delay {delay_s}")
        self._external_inflight += 1
        self.queue.schedule_in(delay_s, self._external_fire, callback)

    def add_run_end(self, callback) -> None:
        """Call ``callback()`` at the end of every :meth:`run`, after the
        last event and before the pending-task check (the batch executor
        runs every submitted task here)."""
        self._run_end.append(callback)

    def _external_fire(self, callback) -> None:
        self._external_inflight -= 1
        callback(self.queue.now)
        self.external_events += 1
        self._resource_version += 1
        if self._queued:
            self._dispatch()

    # -- preemption (tenancy layer) ----------------------------------------------

    def abort_running(self, task: Task) -> None:
        """Abort a *running* task and requeue it (preemption).

        The task's already-scheduled finish event becomes stale (epoch
        guard) and the task re-enters its queue at its original
        ``(arrival_s, seq)`` place — at once, or, when a dispatch pass or a
        direct start is running, as soon as it ends: a pass's merge never
        sees a task requeued during it.  The caller (the tenancy scheduler) is
        responsible for the board-side teardown and for crediting any
        checkpointed progress on the next start.
        """
        if task.start_s < 0 or task.finish_s >= 0:
            raise SimulationError(
                f"abort_running: task {task.task_id} is not running"
            )
        task.run_epoch += 1
        self._running_count -= 1
        task.start_s = -1.0
        if self._dispatching:
            self._requeued.append(task)
        else:
            self._enqueue(task)
        self.aborted_runs += 1
        self._resource_version += 1
        self._dispatch()

    # -- event handlers ----------------------------------------------------------

    def _arrive(self, task: Task) -> None:
        admit = self._admit
        if admit is not None and not admit(task, self.queue.now):
            # Shed at the door: never queued, never dispatched.  Admission
            # state (queue depth bounds, quotas) is the scheduler's.
            self._result.dropped.append(task)
            return
        task.seq = next(self._seqs)
        self._arrivals += 1
        if self._queued or self._dispatching:
            self._enqueue(task)
            self._dispatch()
            return
        # Into an empty backlog, with no pass running: a direct start.  The
        # task is queued alone, as _enqueue would queue it, so every queue
        # read sees it while it is tried, under the view a pass would
        # rebuild (the counts are always dirty once the backlog empties).
        # It cannot hold its model: the arrival moved the version, and the
        # task never declined.  Its queue takes the model's watermark only
        # if it declines.
        model_key = task.model_key
        key = (task.tenant, model_key)
        queue = self._queues[key] = _Queue(key, (task.arrival_s, task.seq,
                                                 task))
        self._queued = 1
        self._counts[model_key] = 1
        self._counts_dirty = False
        self.queue_view = {model_key: 1}
        now = self.queue.now
        self._dispatching = True
        try:
            self.try_start_attempts += 1
            service = self._try_start(task, now)
            if service is None:
                queue.record = record = self._watermark(model_key)
                self._declined(task, now, record)
            else:
                self._take(queue, 0, service)
        finally:
            self._dispatching = False
        if self._requeued:
            self._join_requeued()
        if service is None or self._queued:
            self._dispatch(service is not None)

    def _dispatch(self, progress: bool = True) -> None:
        """Start every pending task the scheduler can place right now.

        Head-of-line blocking is intentional *per model class only*: a pass
        visits every queue so a small task can slip past a blocked large one
        (all three evaluated systems admit out-of-order placement), but
        tasks of one (tenant, model) queue are visited in FIFO order.
        Passes repeat while one starts a task, and never run with nothing
        queued.  After a direct start (:meth:`_arrive`) that started its
        task, passes follow while preempted tasks were requeued;
        ``progress`` is ``False`` after one that started nothing, which
        runs no pass and only polls.  A dispatch that empties the backlog
        leaves :attr:`queue_view` as it was: the next pass or direct start
        rebuilds it, before anything reads it.
        """
        if self._dispatching:
            return  # avoid re-entrant scans from nested on_finish calls
        self._dispatching = True
        try:
            # Outside a pass nothing waits in ``_requeued``, so the queued
            # count is the whole backlog; a pass that takes no task leaves
            # tasks queued.
            while progress and self._queued:
                progress = self._dispatch_pass()
        finally:
            self._dispatching = False
        if progress or self._retry_scheduled:
            return
        # Time-gated policies (eviction staleness) need the clock to advance
        # before a blocked task can be placed; poll.
        if self._running_count == 0 and self._external_inflight == 0:
            self._idle_retries += 1
            if self._idle_retries > self.MAX_IDLE_RETRIES:
                raise SimulationError(
                    f"{self.system_name}: {self.pending_count} tasks "
                    f"stuck with an idle cluster (models: "
                    f"{self.queued_models()})"
                )
        self._retry_scheduled = True
        self.queue.schedule_in(self.RETRY_INTERVAL_S, self._retry)

    def _dispatch_pass(self) -> bool:
        """One pass over the pending queues in merged order; returns whether
        a task started.

        With one queue holding work the pass walks it in FIFO order, with
        no heap and no class prefix; every visit follows the same rules as
        in a merge, and a park ends the walk (nothing else is queued to
        resume it past the parked task).  A start and a decline are booked
        as in a direct start (:meth:`_take`, :meth:`_declined`).

        A model holds its watermark while the clock is short of the hint
        and either the version is the one it failed under or the visited
        task is the one that declined and its wake key is unchanged (the
        watermark then moves to the current version, where the reference's
        repeat decline would have recorded it).  The key is asked only when
        the key stamp moved since it was last read, or when its model's
        depth did (an arrival of that model): nothing else can move it.  A
        held model is parked
        without consulting the scheduler: the skip parks every queue of the
        model, and a version bump returns each parked queue to the heap at
        its first task whose key exceeds the one just visited, exactly where
        a task-by-task walk would have resumed.  A task condemned while it
        is tried (an abandon) leaves at once (:meth:`drop_queued`), and the
        pass goes on at the next task in merged order.

        A pass that could only park ends before it tries anything: when
        every queue's head would hold its model, each queue's first visit
        would park its whole model, and parking changes no state, so the
        pass's one effect is the skip count, and moving each watermark to
        the current version.  That check reads wake keys, and stamps the
        ones it read, but moves no watermark's version unless the whole
        pass parks: a decline earlier in a full pass may evict, which
        moves keys without a version bump (and moves the stamp).  Such a
        pass counts in :attr:`parked_passes`.
        """
        now = self.queue.now
        # The version is the count of other events plus arrivals; no
        # arrival comes during a pass, so only the first can move here.
        arrivals = self._arrivals
        moved = self._resource_version
        version = moved + arrivals
        queues = self._queues
        if self._counts_dirty:
            # Queue pressure per model, for expansion decisions, hints and
            # wake keys.
            self._counts_dirty = False
            self.queue_view = self._counts.copy()
        wake_key = self._wake_key
        stamp = moved + self._declines
        # Nothing is requeued when a pass starts (the last pass queued its
        # requeues as it ended), so when every queued model holds, the pass
        # would only count its tasks as skipped.
        for queue in queues.values():
            record = queue.record
            if now >= record.hint:
                break
            if record.version != version:
                if (record.key is None
                        or record.task is not queue.entries[0][2]):
                    break
                if record.stamp != stamp:
                    if wake_key(record.task) != record.key:
                        break
                    record.stamp = stamp
        else:
            # At the current version, where the reference's repeat declines
            # would have recorded them: a later decline in this version may
            # evict and move a key.  A record held by its version keeps its
            # stamp: no key was checked.
            for queue in queues.values():
                queue.record.version = version
            self.watermark_skips += self._queued
            self.parked_passes += 1
            return False
        try_start = self._try_start
        # A lone queue is walked in FIFO order: with nothing to merge it
        # with, no class prefix can change its order, so none is asked.
        merge = len(queues) > 1
        if merge:
            # Class prefixes are resolved before anything starts and hold
            # for the whole pass.
            dispatch_key = self._dispatch_key
            tokens = count()
            heap = []
            by_model: dict = {}
            for queue in queues.values():
                arrival, seq, head = queue.entries[0]
                queue.prefix = (
                    dispatch_key(head) if dispatch_key is not None else ()
                )
                queue.cursor = 0
                queue.token = token = next(tokens)
                heap.append((queue.prefix, arrival, seq, token, queue))
                by_model.setdefault(queue.model_key, []).append(queue)
            heapify(heap)
        else:
            (queue,) = queues.values()
            queue.cursor = 0

        parked: list = []
        skips = attempts = 0
        progress = False
        while True:
            if merge:
                if not heap:
                    break
                # Peek, not pop: entries pushed while this task is handled
                # all sort after it, so it stays at the root until replaced.
                prefix, arrival, seq, token, queue = heap[0]
                if token != queue.token:
                    heappop(heap)  # the queue was parked after this push
                    continue
            index = queue.cursor
            task = queue.entries[index][2]
            queue.cursor = index + 1
            park = False
            record = queue.record
            if now < record.hint:
                if record.version == version:
                    park = True
                elif record.key is not None and record.task is task:
                    # The view shows the model's true depth here: a start
                    # of the model in this pass cleared its hint, and a
                    # drop takes only the task just tried.
                    stamp = self._resource_version + self._declines
                    if record.stamp == stamp or wake_key(task) == record.key:
                        record.version = version
                        record.stamp = stamp
                        park = True
            if park:
                queue.cursor = index  # park from this task on
            else:
                attempts += 1
                service = try_start(task, now)
                if service is None:
                    park = self._declined(task, now, record)
                else:
                    self._take(queue, index, service)
                    record.hint = _NO_HINT
                    queue.cursor = index
                    progress = True
            if self._resource_version != moved:
                moved = self._resource_version
                version = moved + arrivals
                if parked:
                    skips += self._unpark(parked, heap, tokens,
                                          (prefix, arrival, seq))
            if not merge:
                if park:
                    # Nothing else is queued to resume the walk past it.
                    parked.append(queue)
                    break
                if queue.cursor == len(queue.entries):
                    break  # the walk is done (a walk starts non-empty)
                continue
            if park:
                for other in by_model[queue.model_key]:
                    if other.token is not None:
                        other.token = None
                        if other.cursor < len(other.entries):
                            parked.append(other)
            entries = queue.entries
            if queue.token == token and queue.cursor < len(entries):
                arrival, seq, _ = entries[queue.cursor]
                queue.token = token = next(tokens)
                heapreplace(heap, (queue.prefix, arrival, seq, token, queue))
            else:
                heappop(heap)
                queue.token = None
        for queue in parked:
            skips += len(queue.entries) - queue.cursor
        self.watermark_skips += skips
        self.try_start_attempts += attempts
        if self._requeued:
            self._join_requeued()
        return progress

    @staticmethod
    def _unpark(parked: list, heap: list, tokens, key: tuple) -> int:
        """Return every parked queue to the heap at its first task past
        ``key`` (the merge key just visited); returns the tasks skipped."""
        prefix, arrival, seq = key
        skipped = 0
        for queue in parked:
            entries = queue.entries
            start = queue.cursor
            if queue.prefix < prefix:
                resume = len(entries)
            elif queue.prefix > prefix:
                resume = start
            else:
                # Seqs are integers: the first entry after (arrival, seq).
                resume = bisect_left(entries, (arrival, seq + 1), start)
            skipped += resume - start
            queue.cursor = resume
            if resume < len(entries):
                queue.token = token = next(tokens)
                heappush(heap, (queue.prefix, entries[resume][0],
                                entries[resume][1], token, queue))
        parked.clear()
        return skipped

    def _retry(self) -> None:
        self._retry_scheduled = False
        if self._queued:
            self._dispatch()

    def _finish(self, task: Task, epoch: int) -> None:
        if task.run_epoch != epoch:
            # Stale completion of a preempted run: the task was aborted and
            # requeued after this event was scheduled.  Ignore it.
            return
        task.finish_s = self.queue.now
        self._running_count -= 1
        self._on_finish(task, self.queue.now)
        self._result.completed.append(task)
        self._resource_version += 1
        if self._queued:
            self._dispatch()

    # -- entry point -----------------------------------------------------------------

    def _offer(self, tasks: list) -> float:
        """Mark every task offered and schedule its arrival, all in one
        :meth:`EventQueue.schedule_all` (list order breaks arrival ties);
        returns the first arrival time."""
        arrive = self._arrive
        arrivals = []
        first = math.inf
        for task in tasks:
            if task.seq is not None:  # listed twice, or another run's
                raise SimulationError(
                    f"task {task.task_id} already arrived in a run")
            task.seq = -1  # offered; arrival gives it its place
            arrival = task.arrival_s
            if arrival < first:
                first = arrival
            arrivals.append((arrival, arrive, (task,)))
        self.queue.schedule_all(arrivals)
        return first

    def run(self, tasks: list) -> SimulationResult:
        """Simulate the full task stream to completion.

        Raises :class:`SimulationError` on a task listed twice or already
        run, and when the run ends with a task neither completed nor
        dropped exactly once (counted, not matched by id), or one still
        running."""
        if not tasks:
            raise SimulationError("no tasks to simulate")
        self._resolve_hooks()
        first = self._offer(tasks)
        self.queue.run()
        for callback in self._run_end:
            callback()
        if self.pending_count:
            raise SimulationError(
                f"{self.system_name}: {self.pending_count} tasks never placed "
                f"(models: {self.queued_models()}) — scheduler cannot "
                f"serve this workload"
            )
        result = self._result
        if self._running_count or (
            len(result.completed) + len(result.dropped) != len(tasks)
        ):
            raise SimulationError(
                f"{self.system_name}: {len(tasks)} tasks offered, "
                f"{len(result.completed)} completed, {len(result.dropped)} "
                f"dropped, {self._running_count} still running"
            )
        result.makespan_s = self.queue.now - first
        return result
