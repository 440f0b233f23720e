"""The per-queue merge dispatcher against the sort-and-walk loop it replaced.

:class:`ReferenceSimulator` keeps the old dispatcher as a test-only
reference: every pass copies the whole backlog, sorts it by the class key
plus arrival time (stably over queue order; the tenancy order broke ties
by ``(arrival_s, task_id)``) and walks it task by task, skipping each task
of a model below its watermark one at a time.  It rebuilds ``queue_view``
at every pass, shares only the queue removal of ``drop_queued`` with its
own backlog, and answers the queue reads of the layers above (depths, a
model's queued tasks) from that backlog.  It also keeps the old wake rule — every arrival, start
and finish retries every blocked model — and never asks ``wake_key``.
It has no lone-queue shortcut: it sorts and walks (and asks every class
prefix) even when one (tenant, model) queue holds all the work, where the
merge dispatcher walks that queue without a heap or a prefix.  It keeps
the simulator's backlog count ``_queued`` in step with its own backlog,
since passes run only while that count is non-zero.  It keeps the old
arrival too, enqueue and then a pass, where the merge dispatcher starts
an arrival into an empty backlog directly, without a pass.
Randomized small workloads run through both dispatchers; the schedules,
the dropped sets and the DES event counts must match exactly.  So must
the sequence of ``(task_id, now)`` ``try_start`` calls and the
watermark-skip and attempt totals, unless the scheduler answers
``wake_key``: then the merge dispatcher's calls must be a subsequence of
the reference's, and every call it skipped must have declined without
evicting anything.
"""

import hashlib
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterSimulator, Task, scaled_cluster
from repro.cluster.topology import paper_cluster
from repro.errors import SimulationError
from repro.faults import FaultInjector, FaultModelParameters
from repro.runtime import BaselineSystem, Catalog, build_system
from repro.serving import (
    Request,
    ServingFrontend,
    ServingParameters,
)
from repro.tenancy import TenancyParameters, TenantParameters, TenantScheduler
from repro.vital import VitalCompiler
from tests.queueing import queue_tasks

SMALL = ("gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25")
#: Table 1 mix #7's models: single- and multi-replica plans.
MIXED = SMALL + ("gru-h1536-t375", "lstm-h1536-t50", "gru-h2304-t250")


@pytest.fixture(scope="module")
def shared_catalog():
    return Catalog(VitalCompiler())


class ReferenceSimulator(ClusterSimulator):
    """:class:`ClusterSimulator` with the sort-and-walk dispatch pass."""

    def __init__(self, scheduler, system_name="reference"):
        self._pending = []
        #: Its own watermarks: model key -> ``(version, hint)``.
        self._blocked = {}
        self.skips = 0
        self.attempts = 0
        super().__init__(scheduler, system_name)

    def _resolve_hooks(self):
        super()._resolve_hooks()
        self._wake_key = None  # every event wakes every model

    def _arrive(self, task):
        """The old arrival, with no direct start: queue, then a pass."""
        if self._admit is not None and not self._admit(task, self.queue.now):
            self._result.dropped.append(task)
            return
        task.seq = next(self._seqs)
        self._enqueue(task)
        self._resource_version += 1
        self._dispatch()

    def _enqueue(self, task):
        self._pending.append(task)
        self._queued += 1

    def _waiting(self):
        """Every task waiting to start, in ``(arrival_s, seq)`` order."""
        return sorted(self._pending + self._requeued,
                      key=lambda t: (t.arrival_s, t.seq))

    def queued_depth(self, model_key):
        return sum(t.model_key == model_key for t in self._waiting())

    def tenant_depth(self, tenant):
        return sum(t.tenant == tenant for t in self._waiting())

    def queued_models(self):
        return sorted({task.model_key for task in self._waiting()})

    def queued_tasks(self, model_key):
        return [t for t in self._waiting() if t.model_key == model_key]

    def _unqueue(self, task):
        self._pending = [t for t in self._pending if t is not task]
        self._queued -= 1

    def _dispatch_pass(self):
        scheduler = self.scheduler
        progress = False
        # Every pass rebuilds the view at its start, changed or not, as the
        # old pass did.
        self.queue_view = counts = {}
        for task in self._pending:
            counts[task.model_key] = counts.get(task.model_key, 0) + 1
        scan = list(self._pending)
        # The old pass sorted a layer that owns the order (tenancy, over a
        # placement system of its own) by key, arrival and task id, and the
        # system's locality key stably by arrival alone.
        system = getattr(scheduler, "system", scheduler)
        if system is not scheduler and hasattr(scheduler, "dispatch_key"):
            scan.sort(key=lambda t: (*scheduler.dispatch_key(t), t.arrival_s,
                                     t.task_id))
        elif hasattr(system, "dispatch_key"):
            key_by_model = {}
            for task in scan:
                if task.model_key not in key_by_model:
                    key_by_model[task.model_key] = system.dispatch_key(task)
            scan.sort(key=lambda t: (*key_by_model[t.model_key],
                                     t.arrival_s))
        now = self.queue.now
        for task in scan:
            watermark = self._blocked.get(task.model_key)
            if (
                watermark is not None
                and watermark[0] == self._resource_version
                and now < watermark[1]
            ):
                self.skips += 1
                continue
            self.attempts += 1
            service = scheduler.try_start(task, now)
            if service is None:
                self._blocked[task.model_key] = (self._resource_version,
                                                 task.retry_at)
                continue
            self._unqueue(task)
            task.start_s = now
            self._running_count += 1
            self._blocked.pop(task.model_key, None)
            self._resource_version += 1
            self.queue.schedule_in(service, self._finish, task,
                                   task.run_epoch)
            progress = True
            self._idle_retries = 0
        # A task requeued during the pass was not in its snapshot.
        for task in self._requeued:
            self._enqueue(task)
        self._requeued.clear()
        return progress


def _digest(result) -> str:
    lines = sorted(f"{t.task_id}:{t.start_s!r}:{t.finish_s!r}"
                   for t in result.completed)
    lines += sorted(f"dropped:{t.task_id}" for t in result.dropped)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _run_both(build, expected_digest=None) -> list:
    """Run ``build(simulator_class) -> (simulator, tasks)`` under the
    reference and the merge dispatcher; assert every observable matches,
    and the schedule digest equals ``expected_digest`` when one is given.
    The merge dispatcher must have started some arrival directly, and
    its direct starts and lone walks are counted (:func:`_count_walks`,
    as ``walks`` on it).  Returns both simulators (reference first)."""
    outcomes, simulators = [], []
    for cls in (ReferenceSimulator, ClusterSimulator):
        simulator, tasks = build(cls)
        scheduler = simulator.scheduler
        calls = []

        # The baseline has no controller, and evicts nothing.
        controller = getattr(scheduler, "controller", None)
        stats = (controller.stats if controller is not None
                 else SimpleNamespace(deployments_evicted=0))

        def try_start(task, now, inner=scheduler.try_start, calls=calls,
                      stats=stats):
            evicted = stats.deployments_evicted
            service = inner(task, now)
            calls.append((task.task_id, now, service is None,
                          stats.deployments_evicted - evicted))
            return service

        scheduler.try_start = try_start
        if cls is ClusterSimulator:
            simulator.walks = _count_walks(simulator)
        result = simulator.run(tasks)
        if cls is ReferenceSimulator:
            counters = (simulator.skips, simulator.attempts)
        else:
            counters = (simulator.watermark_skips,
                        simulator.try_start_attempts)
        outcomes.append({
            "digest": _digest(result),
            "dropped": sorted(t.task_id for t in result.dropped),
            "calls": calls,
            "counters": counters,
            "events": simulator.queue.processed,
        })
        simulators.append(simulator)
    reference, merged = outcomes
    assert merged["digest"] == reference["digest"]
    assert merged["dropped"] == reference["dropped"]
    # The same retry polls and external events.
    assert merged["events"] == reference["events"]
    if hasattr(simulators[1].scheduler, "wake_key"):
        _assert_pure_skips(reference["calls"], merged["calls"])
        assert merged["counters"][1] <= reference["counters"][1]
    else:
        assert merged["calls"] == reference["calls"]
        assert merged["counters"] == reference["counters"]
    assert len(reference["calls"]) == reference["counters"][1]
    # A reference that never dispatched would agree with anything, and
    # a merge dispatcher that never started directly tested nothing new.
    assert reference["counters"][1] > 0
    assert simulators[1].walks["direct"]["tries"] > 0
    if expected_digest is not None:
        assert reference["digest"] == expected_digest
    return simulators


def _assert_pure_skips(reference: list, merged: list) -> None:
    """``merged`` is a subsequence of ``reference``, and every call
    ``reference`` made that ``merged`` skipped declined and evicted
    nothing."""
    calls = iter(reference)
    for call in merged:
        for ref in calls:
            if ref == call:
                break
            task_id, now, declined, evicted = ref
            assert declined and evicted == 0, (
                f"skipped try_start({task_id}, {now}) was not a pure decline"
            )
        else:
            raise AssertionError(f"{call} is not in the reference's order")
    for task_id, now, declined, evicted in calls:
        assert declined and evicted == 0


def _tied_arrivals(rng, count: int, slots: int, span_s: float) -> list:
    """``count`` sorted arrival times drawn from ``slots`` evenly spaced
    instants, so many tasks arrive at exactly the same time."""
    return sorted(rng.randrange(slots) * span_s / slots for _ in range(count))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fast_path_system_with_arrival_ties(shared_catalog, seed):
    rng = random.Random(seed)
    count = 96
    arrivals = _tied_arrivals(rng, count, slots=12, span_s=0.004)
    models = [rng.choice(MIXED) for _ in range(count)]
    # Ids in shuffled order: a tie goes to the task queued first.
    ids = rng.sample(range(count), count)

    def build(cls):
        system = build_system("proposed", scaled_cluster(16), shared_catalog)
        tasks = [Task(task_id=i, model_key=m, arrival_s=a)
                 for i, m, a in zip(ids, models, arrivals)]
        return cls(system, "proposed"), tasks

    reference, merged = _run_both(build)
    assert reference.skips > 0
    # Some merge passes ended before asking anything, every queued model
    # parked.
    assert merged.parked_passes > 0
    assert len(set(arrivals)) < count


#: Schedule digests of :func:`test_tenancy_with_preemption`, pinned so an
#: inexact change to victim planning fails here even when both
#: dispatchers agree with each other.
TENANCY_DIGESTS = {
    (4, False):
        "4fc81be81b405589d6966063ee020f0f730d46947477c2bc02614b3fe13d835b",
    (4, True):
        "66aae333f4761fa8a5319b5afc519fe43f90935e0bd2e715d6a53539210e710c",
    (5, False):
        "09d34462c99f33ebf31a7d77c820c9e1b2cc1e65612c218f05d94c576009cfd3",
    (5, True):
        "2df91a95b4ed42f89d14bb48bd7d5d19471b92acee501707795497d8a0993640",
}


@pytest.mark.parametrize("with_frontend", [False, True])
@pytest.mark.parametrize("seed", [4, 5])
def test_tenancy_with_preemption(shared_catalog, seed, with_frontend):
    rng = random.Random(seed)
    count = 120
    arrivals = _tied_arrivals(rng, count, slots=60, span_s=0.01)
    draws = [
        ("premium", SMALL[0]) if rng.random() < 0.25
        else ("besteffort", rng.choice(SMALL[1:]))
        for _ in range(count)
    ]

    def build(cls):
        cluster = scaled_cluster(8)
        system = build_system("proposed", cluster, shared_catalog)
        inner = system
        if with_frontend:
            inner = ServingFrontend(system, ServingParameters(
                default_deadline_s=0.02))
        total = sum(len(board.blocks) for board in cluster.boards.values())
        tenancy = TenantScheduler(inner, [
            TenantParameters(name="premium", priority=1, weight=2.0,
                             block_quota=int(total * 0.3), preemptible=False),
            TenantParameters(name="besteffort", priority=0, weight=1.0,
                             block_quota=int(total * 0.8), preemptible=True),
        ], TenancyParameters())
        tasks = [Task(task_id=i, model_key=m, arrival_s=a, size_class="S",
                      tenant=t)
                 for i, (a, (t, m)) in enumerate(zip(arrivals, draws))]
        return cls(tenancy, "tenancy"), tasks

    simulators = _run_both(build, TENANCY_DIGESTS[(seed, with_frontend)])
    # Every preemption aborts its victim from inside a try_start, i.e. in
    # the middle of a dispatch pass.
    for simulator in simulators:
        assert simulator.scheduler.stats.tasks_preempted > 0
        assert simulator.aborted_runs > 0
    # Passes ended before asking anything count their skips as the
    # reference's walk does (the totals match exactly here).
    assert simulators[1].parked_passes > 0


#: Schedule digest of :func:`test_lone_queue_walk_meets_park_abandon_requeue`.
LONE_QUEUE_DIGEST = (
    "8966c5b8fc835b04a27305c4cea7b64e27321f3de22df1d407f24a24b5c3854f")


def test_lone_queue_walk_meets_park_abandon_requeue(shared_catalog):
    """Tenancy over serving, one model: a pass sees one queue whenever
    only one tenant has work queued.  Best-effort work fills eight boards,
    then premium requests arrive with no retry budget, so the walks over
    the premium queue alone park, abandon a request inside its
    ``try_start`` (the cursor steps back over it) and preempt running
    best-effort tasks (requeued when the pass ends)."""
    rng = random.Random(0)
    stream = sorted(
        [(rng.uniform(0.0, 0.004), "besteffort") for _ in range(60)]
        + [(0.006 + rng.uniform(0.0, 0.01), "premium") for _ in range(30)])
    def build(cls):
        cluster = scaled_cluster(8)
        system = build_system("proposed", cluster, shared_catalog)
        frontend = ServingFrontend(system, ServingParameters(
            default_deadline_s=0.05, retry_budget=0))
        total = sum(len(board.blocks) for board in cluster.boards.values())
        tenancy = TenantScheduler(frontend, [
            TenantParameters(name="premium", priority=1, weight=2.0,
                             block_quota=int(total * 0.3), preemptible=False),
            TenantParameters(name="besteffort", priority=0, weight=1.0,
                             block_quota=int(total * 0.8), preemptible=True),
        ], TenancyParameters())
        tasks = [Request(task_id=i, model_key=SMALL[2], arrival_s=a,
                         size_class="S", tenant=t)
                 for i, (a, t) in enumerate(stream)]
        return cls(tenancy, "tenancy"), tasks

    _, merged = _run_both(build, LONE_QUEUE_DIGEST)
    lone = merged.walks["lone"]
    assert all(lone.values()), lone


#: Schedule digests of the direct-start edge tests below.
DIRECT_START_DIGESTS = {
    "queued":
        "c7230820e7e8bae678d8987c2c60c6f11e78f881f3977f0a99e89d90164f7a6d",
    "abandon":
        "a5c09f8b3d7f057299e6f8ca2a10fee5a20eaca2485a05e33b5799662529c3f0",
    "preempt":
        "47e12f0a12e0a71d85173ff05e1c64e63339bd1865907025341546943b8b0c4d",
}


def test_arrivals_under_the_pass_flag_only_queue(shared_catalog):
    """An arrival made under the flag a running pass sets
    (:func:`tests.queueing.queue_tasks` offers tasks by hand that way)
    queues and starts nothing, even into an empty backlog: the next
    dispatch tries it, as the reference's does.  Every other task arrives
    as in a run, and the last one dispatches whatever is still queued."""
    rng = random.Random(3)
    count = 60
    arrivals = sorted(rng.uniform(0.0, 0.3) for _ in range(count))
    models = [rng.choice(MIXED) for _ in range(count)]
    into_empty = []

    def build(cls):
        system = build_system("proposed", scaled_cluster(8), shared_catalog)
        simulator = cls(system, "proposed")

        def arrive(task, inner=simulator._arrive):
            if (simulator._dispatching or task.task_id % 2
                    or task.task_id == count - 1):
                return inner(task)
            queued = simulator.pending_count
            # Re-enters this spy with the flag set.
            assert queue_tasks(system, [task]) == [True]
            assert task.start_s == -1.0
            assert simulator.pending_count == queued + 1
            if cls is ClusterSimulator and not queued:
                into_empty.append(task.task_id)

        simulator._arrive = arrive
        tasks = [Task(task_id=i, model_key=m, arrival_s=a)
                 for i, (a, m) in enumerate(zip(arrivals, models))]
        return simulator, tasks

    _run_both(build, DIRECT_START_DIGESTS["queued"])
    assert into_empty


def test_abandon_inside_a_direct_start(shared_catalog):
    """Serving with no retry budget on three boards, arrivals spread over
    half a second: most find the backlog empty, and a direct start whose
    placement fails for capacity abandons its request inside
    ``try_start``.  The emptied queue goes with it (the spy recounts the
    queues), and the dispatch then polls as the reference's does (the
    DES event counts match)."""
    rng = random.Random(3)
    count = 30
    arrivals = sorted(rng.uniform(0.0, 0.5) for _ in range(count))
    models = [rng.choice(MIXED) for _ in range(count)]

    def build(cls):
        system = build_system("proposed", scaled_cluster(3), shared_catalog)
        frontend = ServingFrontend(system, ServingParameters(
            default_deadline_s=0.05, retry_budget=0))
        tasks = [Request(task_id=i, model_key=m, arrival_s=a, size_class="S")
                 for i, (a, m) in enumerate(zip(arrivals, models))]
        return cls(frontend, "serving"), tasks

    _, merged = _run_both(build, DIRECT_START_DIGESTS["abandon"])
    assert merged.walks["direct"]["drops"] > 0


def test_preemption_inside_a_direct_start(shared_catalog):
    """Eleven best-effort tasks arrive at once and fill three boards,
    leaving nothing queued; premium tasks then arrive into an empty
    backlog, and their direct starts preempt running best-effort tasks.
    Each victim waits in the requeue list until the direct start returns
    and then joins its queue (the spy recounts the queues), where the
    passes that follow find it."""
    stream = ([(0.0, "besteffort", SMALL[0])] * 11
              + [(0.002 + 0.01 * k, "premium", SMALL[2]) for k in range(4)])

    def build(cls):
        cluster = scaled_cluster(3)
        system = build_system("proposed", cluster, shared_catalog)
        tenancy = TenantScheduler(system, [
            TenantParameters(name="premium", priority=1, weight=2.0,
                             preemptible=False),
            TenantParameters(name="besteffort", priority=0, weight=1.0,
                             preemptible=True),
        ], TenancyParameters())
        tasks = [Task(task_id=i, model_key=m, arrival_s=a, tenant=t)
                 for i, (a, t, m) in enumerate(stream)]
        return cls(tenancy, "tenancy"), tasks

    _, merged = _run_both(build, DIRECT_START_DIGESTS["preempt"])
    assert merged.walks["direct"]["requeues"] > 0
    assert merged.scheduler.stats.tasks_preempted > 0


def _count_walks(simulator) -> dict:
    """Spy on the merge dispatcher ``simulator`` (before ``run``): count
    its direct starts and its passes over one queue, and the declines,
    parks, drops and preemptions inside them.  A direct start tries one
    task, which starts, is dropped, or declines and stays queued; when it
    returns, its tasks requeued by a preemption have joined their queues
    and an emptied queue is gone (:func:`_assert_queues_recount`)."""
    walks = {
        "direct": dict.fromkeys(("tries", "declines", "drops", "requeues"),
                                0),
        "lone": dict.fromkeys(("passes", "parks", "drops", "requeues"), 0),
    }
    walking = []  # the counts of each running pass, None for a merge

    def arrive(task, inner=simulator._arrive):
        if simulator.pending_count or simulator._dispatching:
            return inner(task)
        # Into an empty backlog, with no pass running: once admitted, the
        # task is tried directly.
        counts = walks["direct"]
        attempts = simulator.try_start_attempts
        walking.append(counts)
        try:
            inner(task)
        finally:
            walking.pop()
        if simulator.try_start_attempts > attempts:
            counts["tries"] += 1
            counts["declines"] += any(
                queued is task
                for queued in simulator.queued_tasks(task.model_key))
        _assert_queues_recount(simulator)

    def dispatch_pass(inner=simulator._dispatch_pass):
        counts = walks["lone"] if len(simulator._queues) == 1 else None
        walking.append(counts)
        parked, skips = simulator.parked_passes, simulator.watermark_skips
        try:
            return inner()
        finally:
            walking.pop()
            if counts is not None:
                counts["passes"] += 1
                # A walk skips tasks only past a park.
                counts["parks"] += (simulator.parked_passes == parked
                                    and simulator.watermark_skips > skips)

    def drop_queued(task, inner=simulator.drop_queued):
        if walking and walking[-1] is not None:
            walking[-1]["drops"] += 1
        inner(task)

    def abort_running(task, inner=simulator.abort_running):
        if walking and walking[-1] is not None:
            walking[-1]["requeues"] += 1
        inner(task)

    simulator._arrive = arrive
    simulator._dispatch_pass = dispatch_pass
    simulator.drop_queued = drop_queued
    simulator.abort_running = abort_running
    return walks


def _assert_queues_recount(simulator) -> None:
    """Outside a pass: every queue is non-empty, nothing waits to be
    requeued, and the per-model counts and the backlog count recount."""
    counts = {}
    for key, queue in simulator._queues.items():
        assert queue.entries and queue.key == key
        counts[queue.model_key] = (counts.get(queue.model_key, 0)
                                   + len(queue.entries))
    assert not simulator._requeued
    assert simulator._counts == counts
    assert simulator._queued == sum(counts.values())


#: Schedule digests of the serving tests below, pinned so that a request
#: dropped at any other moment than its condemnation fails here even when
#: both dispatchers agree with each other.
SERVING_DIGESTS = {
    7: "654f2e6b5b09b5ac9c649c0461de8527b89c2d9b965ff02f0aeec5218f1ddb19",
    8: "c8b85177d0688858a9aab31a7663fa1ed9769f2ba3177c5616df4eaaf2a0714c",
    "no_retry":
        "8650a816ed979d6a397acc8915deccfaca353a932332d3f0f46e428f395eaf0a",
}


def _serving_build(catalog, seed, **overrides):
    """300 requests over 60 ms on the paper cluster, 10 ms deadlines and
    faults every ~50 ms: deep enough for expiries, backoffs and blocked
    models side by side."""
    rng = random.Random(seed)
    count = 300
    arrivals = sorted(rng.uniform(0.0, 0.06) for _ in range(count))

    def build(cls):
        system = build_system("proposed", paper_cluster(), catalog,
                              recovery=True)
        frontend = ServingFrontend(system, ServingParameters(
            default_deadline_s=0.01, seed=seed, **overrides))
        simulator = cls(frontend, "serving")
        simulator.injector = FaultInjector(
            simulator, system.controller,
            FaultModelParameters(mtbf_s=0.05, mttr_s=0.01, seed=seed))
        simulator.injector.arm(arrivals[-1])
        tasks = [Request(task_id=i, model_key=SMALL[i % 3], arrival_s=a,
                         size_class="S")
                 for i, a in enumerate(arrivals)]
        return simulator, tasks

    return build


@pytest.mark.parametrize("seed", [7, 8])
def test_serving_with_deadlines_and_faults(shared_catalog, seed):
    reference, _ = _run_both(_serving_build(shared_catalog, seed),
                             SERVING_DIGESTS[seed])
    assert reference.scheduler.stats.expired > 0
    assert reference.injector.failures_injected > 0


def test_one_expiry_timer_per_frontend(shared_catalog):
    """The frontend keeps one expiry timer armed at the earliest queued
    deadline instead of a wake per admission: past one timer per expiring
    deadline, it arms timers for fewer than 5 % of its admissions."""
    simulator, tasks = _serving_build(shared_catalog, 7)(ClusterSimulator)
    simulator.run(tasks)
    frontend = simulator.scheduler
    stats = frontend.stats
    assert (stats.admitted, stats.expired) == (219, 191)
    assert frontend.timers_armed == 192
    assert frontend.timers_armed - stats.expired < 0.05 * stats.admitted


@pytest.mark.parametrize("variant", ["no_retry"])
def test_serving_condemned_requests(shared_catalog, variant):
    """Requests condemned while queued — abandoned on an exhausted retry
    budget — leave the queue at once, even when their model is blocked,
    and both dispatchers drop them alike."""
    overrides = {"no_retry": {"retry_budget": 0}}[variant]
    build = _serving_build(shared_catalog, 7, **overrides)
    reference, _ = _run_both(build, SERVING_DIGESTS[variant])
    assert reference.scheduler.stats.abandoned > 0


def test_retry_at_equals_the_backlog_scan(shared_catalog):
    """Every frontend decline's ``retry_at`` equals a scan of the model's
    queued requests: the earliest future backoff expiry among them, the
    system's hint for the rest.  Each decline, the frontend's own gates'
    included, asks the system's hint at most once, and not at all only
    when every queued request of the model is backing off."""
    simulator, tasks = _serving_build(shared_catalog, 7)(ClusterSimulator)
    frontend = simulator.scheduler
    system = frontend.system
    inner_hints = []
    checked = {"hints": 0, "backing_off": 0, "settled": 0}

    def earliest_retry(task, now, inner=system.earliest_retry):
        inner_hints.append(inner(task, now))
        return inner_hints[-1]

    def try_start(task, now, outer=frontend.try_start):
        service = outer(task, now)
        if service is not None:
            assert not inner_hints
            return service
        (inner,) = inner_hints or (None,)
        inner_hints.clear()
        backoffs = [queued.serving.next_attempt_s
                    for queued in simulator.queued_tasks(task.model_key)]
        if inner is None:
            assert backoffs and all(next_s > now for next_s in backoffs)
            checked["settled"] += 1
        assert task.retry_at == min((next_s if next_s > now else inner
                                     for next_s in backoffs), default=inner)
        checked["hints"] += 1
        checked["backing_off"] += any(next_s > now for next_s in backoffs)
        return service

    system.earliest_retry = earliest_retry
    frontend.try_start = try_start
    simulator.run(tasks)
    assert frontend.stats.placement_retries > 0
    assert checked["backing_off"] > checked["settled"] > 0
    assert checked["hints"] > checked["backing_off"]


#: Schedule digests of :func:`test_eviction_heavy_backlog`, pinned so an
#: inexact idle lookup (reuse order, LRU victim or wake hint) fails here
#: even when both dispatchers agree with each other.
EVICTION_DIGESTS = {
    False:
        "2bdae4809f6d87103e2564ebf728868a057d27b5e82d2dabbf752136c4484911",
    True:
        "0429fc35d8d52eae278b808649aecf91fe2f5e2665b4875b25a6a8d320e00d05",
}


@pytest.mark.parametrize("isolation", [False, True])
def test_eviction_heavy_backlog(shared_catalog, isolation):
    """A deep mixed-model backlog on eight boards: most models wait out
    the patience window, evict another model's stale idle copy, or sleep
    until a wake hint says one has gone stale.  With tenant isolation two
    tenants share each model, so same-model copies of the other tenant are
    eviction victims and wake sources too."""
    rng = random.Random(11)
    count = 240
    arrivals = sorted(rng.uniform(0.0, 0.01) for _ in range(count))
    draws = [(rng.choice(MIXED), rng.choice("ab")) for _ in range(count)]
    wakes = []

    def build(cls):
        system = build_system("proposed", scaled_cluster(8), shared_catalog)
        system.controller.tenant_isolation = isolation
        patience = system.controller.eviction_patience_s

        def try_start(task, now, inner=system.try_start):
            service = inner(task, now)
            if (service is None and now - task.arrival_s >= patience
                    and task.retry_at != float("inf")):
                wakes.append(task.retry_at)
            return service

        system.try_start = try_start
        tasks = [Task(task_id=i, model_key=m, arrival_s=a,
                      tenant=t if isolation else "")
                 for i, (a, (m, t)) in enumerate(zip(arrivals, draws))]
        return cls(system, "proposed"), tasks

    simulators = _run_both(build, EVICTION_DIGESTS[isolation])
    for simulator in simulators:
        assert simulator.scheduler.controller.stats.deployments_evicted > 0
    assert wakes
    assert simulators[1].parked_passes > 0


#: Schedule digests of :func:`test_idle_copies_go_stale_between_arrivals`.
STALE_IDLE_DIGESTS = {
    1: "342508109a4687e3d8e39b86214151c67bdb7d688eb98132a06af7c4b7204a5f",
    5: "e99af515c428a19040afada7897a9c1a6e19e22faafd9b88cb2317692a737811",
}


@pytest.mark.parametrize("seed", [1, 5])
def test_idle_copies_go_stale_between_arrivals(shared_catalog, seed):
    """Arrivals spread over half a second on eight boards: idle copies
    outlive the patience window while tasks still arrive, and a failed
    placement evicts one before the next arrival.  A declined task's wake
    key must see both: it reads the oldest foreign idle copy once the task
    has waited out the patience window, and the eviction moves the board
    generation, so the key parks some repeat visits and not others."""
    rng = random.Random(seed)
    count = 240
    arrivals = sorted(rng.uniform(0.0, 0.5) for _ in range(count))
    models = [rng.choice(MIXED) for _ in range(count)]
    keys = {}  # task id -> every wake key asked of it, in order

    def build(cls):
        system = build_system("proposed", scaled_cluster(8), shared_catalog)

        def wake_key(task, inner=system.wake_key):
            key = inner(task)
            keys.setdefault(task.task_id, []).append(key)
            return key

        system.wake_key = wake_key
        tasks = [Task(task_id=i, model_key=m, arrival_s=a)
                 for i, (a, m) in enumerate(zip(arrivals, models))]
        return cls(system, "proposed"), tasks

    _run_both(build, STALE_IDLE_DIGESTS[seed])
    # Only the merge dispatcher asks: once per decline with a hint ahead,
    # and once per later visit to the task that declined.
    asked = [answers for answers in keys.values() if len(answers) > 1]
    assert any(a == b for answers in asked for a, b in zip(answers, answers[1:]))
    assert any(a != b for answers in asked for a, b in zip(answers, answers[1:]))
    # Keys from the eviction branch carry the oldest foreign copy's stale
    # time; some are finite, i.e. an idle copy was waiting to go stale.
    stale = [key[-1] for answers in keys.values() for key in answers
             if len(key) == 5]
    assert stale and any(at != float("inf") for at in stale)


#: Schedule digests of :func:`test_a_nearly_single_model_stream`.
SINGLE_MODEL_DIGESTS = {
    1: "e5a3faba19a9c3eac1589185c2666eb7c755c5a61bb8a899b4c0372f1f202768",
    2: "63a9e7a13535da166fd4f936b9497b63841ca1bdcbeba7733e72f28a1c318d52",
}


@pytest.mark.parametrize("seed", [1, 2])
def test_a_nearly_single_model_stream(shared_catalog, seed):
    """95 % of 240 tasks are one multi-replica model.  Its placements may
    take a mixed-type pair only while its share of the tasks seen so far
    is at least 95 % (``allow_mixed``), and a task is seen at its first
    attempt.  The calls the merge dispatcher skips must leave both the
    flag and that first count as the reference's."""
    rng = random.Random(seed)
    count = 240
    arrivals = sorted(rng.uniform(0.0, 0.2) for _ in range(count))
    others = set(rng.sample(range(count), count // 20))
    models = [rng.choice(SMALL) if i in others else MIXED[3]
              for i in range(count)]
    allow_mixed = []

    def build(cls):
        system = build_system("proposed", scaled_cluster(6), shared_catalog)
        controller = system.controller

        def try_deploy(model_key, now, waited_s=0.0, allow_mixed=True,
                       tenant="", inner=controller.try_deploy,
                       flags=allow_mixed):
            flags.append(allow_mixed)
            return inner(model_key, now, waited_s, allow_mixed, tenant)

        controller.try_deploy = try_deploy
        tasks = [Task(task_id=i, model_key=m, arrival_s=a)
                 for i, (a, m) in enumerate(zip(arrivals, models))]
        return cls(system, "proposed"), tasks

    reference, merged = _run_both(build, SINGLE_MODEL_DIGESTS[seed])
    assert True in allow_mixed and False in allow_mixed
    assert merged.try_start_attempts < reference.attempts


#: Schedule digests of :func:`test_watermark_behind_the_head`.
BEHIND_HEAD_DIGESTS = {
    4: "69718b0b111774b97a32d893c5a5930f0b85798a8d2e7520de9d854f51274e05",
    14: "2525b6a30099fbfef96377d7adf02b086efa4dbb056dc077d3e2c2da8e0af98b",
}


@pytest.mark.parametrize("seed", [4, 14])
def test_watermark_behind_the_head(shared_catalog, seed):
    """A parked queue that resumes past its oldest tasks records its
    watermark from a later task.  The reference's next arrival retries the
    model at its oldest task instead: another waiting time, another wake
    hint, a first count in the observed mix.  Two isolated tenants on six
    boards make that retry act (an eviction, a start), so a visit to any
    task but the one that declined must be tried.  Seed 14 also wedges if
    the check before a pass refreshes a watermark whose key still matches
    while a later queue makes the pass run: a decline earlier in that pass
    evicts, which moves the key without a version bump."""
    rng = random.Random(seed)
    count = 100
    arrivals = sorted(rng.uniform(0.0, 0.3) for _ in range(count))
    draws = [(rng.choice(MIXED), rng.choice("ab")) for _ in range(count)]

    def build(cls):
        system = build_system("proposed", scaled_cluster(6), shared_catalog)
        system.controller.tenant_isolation = True
        tasks = [Task(task_id=i, model_key=m, arrival_s=a, tenant=t)
                 for i, (a, (m, t)) in enumerate(zip(arrivals, draws))]
        return cls(system, "proposed"), tasks

    _run_both(build, BEHIND_HEAD_DIGESTS[seed])


@settings(deadline=None)
@given(
    boards=st.integers(min_value=4, max_value=16),
    count=st.integers(min_value=1, max_value=120),
    span_s=st.floats(min_value=0.0, max_value=0.5),
    isolation=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    models=st.integers(min_value=1, max_value=len(MIXED)),
)
# Counterexamples to wrong wake rules.  The first un-parked a model the
# reference skips when a pass in which every model held left the
# watermarks it had checked by key at their old version: a later evicting
# decline in that version moved the key.  It also parks a model the
# reference tries when a decline's key, read against a queue view that a
# start of its model earlier in the pass left stale (task 18 declines
# after task 6 starts, reading depth 2 where one task is queued), counts
# as read: the arrival of task 19 must ask it again.  The second parks one
# when the pass in which every model holds stamps a record it held by its
# version alone, whose key no one checked.  The last two broke per-event
# wake sets (a stale hint kept over an arrival or a finish).
@example(boards=15, count=81, span_s=0.125, isolation=False, seed=71,
         models=len(MIXED))
@example(boards=5, count=107, span_s=0.328125, isolation=True, seed=1974,
         models=len(MIXED))
@example(boards=4, count=4, span_s=0.0, isolation=False, seed=0,
         models=len(MIXED))
@example(boards=6, count=120, span_s=0.1953125, isolation=False, seed=32084,
         models=len(MIXED))
def test_arrival_wake_matches_the_reference(shared_catalog, boards, count,
                                            span_s, isolation, seed, models):
    """The standing oracle for the per-model wake: a bare proposed system
    on random clusters, streams over the first ``models`` of the mix and
    arrival spreads (one tenant, or two isolated ones) schedules exactly
    as when every arrival, start and finish wakes every model, and only
    skips calls that decline purely.  A one-model, one-tenant stream
    walks a lone queue in every pass.  Every decline writes its
    ``retry_at`` (:func:`_check_hints`)."""
    rng = random.Random(seed)
    arrivals = sorted(rng.uniform(0.0, span_s) for _ in range(count))
    draws = [(rng.choice(MIXED[:models]), rng.choice("ab") if isolation
              else "")
             for _ in range(count)]

    def build(cls):
        system = build_system("proposed", scaled_cluster(boards),
                              shared_catalog)
        system.controller.tenant_isolation = isolation
        tasks = [Task(task_id=i, model_key=m, arrival_s=a, tenant=t)
                 for i, (a, (m, t)) in enumerate(zip(arrivals, draws))]
        if cls is ClusterSimulator:
            _check_hints(system)
        return cls(system, "proposed"), tasks

    _run_both_or_wedge(build, isolation)


def _run_both_or_wedge(build, may_wedge: bool) -> list | None:
    """:func:`_run_both`, except that where ``may_wedge`` (tenant
    isolation or quotas) both dispatchers may wedge instead, alike (then
    ``None``)."""
    try:
        return _run_both(build)
    except SimulationError:
        # An isolated tenant can wait forever for a copy only the other
        # tenant may use, and a tenant whose quota no plan fits for ever;
        # both dispatchers must then wedge alike.
        assert may_wedge
        errors = []
        for cls in (ReferenceSimulator, ClusterSimulator):
            simulator, tasks = build(cls)
            with pytest.raises(SimulationError) as raised:
                simulator.run(tasks)
            errors.append(str(raised.value))
        assert errors[0] == errors[1]


#: The stacks the layered oracle runs, outermost layer first; every
#: framework stack is over a proposed system.
STACKS = ("bare", "serving", "tenancy", "tenancy-serving", "baseline")

#: Every reason a layer of the framework writes in ``task.decline``.
DECLINE_REASONS = frozenset({"defrag", "busy", "capacity", "quota",
                             "backoff", "breaker", "preempt"})


def _check_declines(scheduler) -> None:
    """Wrap the outermost ``try_start`` (before ``run``): a start leaves
    ``task.decline`` at ``None``, a decline at a reason that agrees with
    the counters the layers keep — a quota rejection iff ``"quota"``, a
    placement failure iff ``"capacity"`` or a ``"preempt"`` that started
    a preemption sweep.  The baseline keeps no such counters: its
    reason is ``"busy"``, or ``"capacity"`` iff the model has no static
    assignment."""
    if isinstance(scheduler, BaselineSystem):
        _check_baseline_declines(scheduler)
        return
    stats = scheduler.controller.stats
    tenancy = scheduler.stats if isinstance(scheduler, TenantScheduler) else None
    inner = scheduler.try_start
    unset = object()

    def try_start(task, now):
        failures = stats.placement_failures
        quotas = stats.quota_rejections
        sweeps = tenancy.preemption_sweeps if tenancy is not None else 0
        task.decline = unset
        service = inner(task, now)
        reason = task.decline
        if service is not None:
            assert reason is None
            return service
        assert reason in DECLINE_REASONS, reason
        swept = tenancy is not None and tenancy.preemption_sweeps > sweeps
        assert (stats.quota_rejections > quotas) == (reason == "quota")
        assert (stats.placement_failures > failures) == (
            reason == "capacity" or reason == "preempt" and swept)
        return service

    scheduler.try_start = try_start


def _check_baseline_declines(scheduler) -> None:
    """:func:`_check_declines` for the baseline, which has no controller."""
    inner = scheduler.try_start
    unset = object()

    def try_start(task, now):
        task.decline = unset
        service = inner(task, now)
        reason = task.decline
        if service is not None:
            assert reason is None
            return service
        assert reason in ("busy", "capacity"), reason
        assert (reason == "capacity") == (
            task.model_key not in scheduler._assignment)
        return service

    scheduler.try_start = try_start


def _check_hints(scheduler) -> None:
    """Wrap the outermost ``try_start`` (before ``run``): each call
    starts with a sentinel in ``task.retry_at``, and a decline must have
    overwritten it.  A decline exit that writes no ``retry_at`` would
    leave an older decline's time there, and the simulator would park the
    model until then."""
    inner = scheduler.try_start
    stale = object()

    def try_start(task, now):
        task.retry_at = stale
        service = inner(task, now)
        if service is None:
            assert task.retry_at is not stale, (task.task_id, task.decline)
        return service

    scheduler.try_start = try_start


# Each stack draws an equal share of the profile's examples: 20 each in
# tier-1, 400 each under the ``oracle`` profile.
@pytest.mark.parametrize("stack", STACKS)
@settings(max_examples=settings.default.max_examples // len(STACKS),
          deadline=None)
@given(
    boards=st.integers(min_value=4, max_value=12),
    count=st.integers(min_value=1, max_value=80),
    span_s=st.floats(min_value=0.0, max_value=0.2),
    isolation=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**16),
    models=st.integers(min_value=1, max_value=len(MIXED)),
    deadline_s=st.floats(min_value=0.002, max_value=0.05),
    retry_budget=st.sampled_from([0, 4]),
    max_queue_depth=st.integers(min_value=1, max_value=32),
    quotas=st.tuples(*[st.one_of(st.none(), st.floats(min_value=0.02,
                                                       max_value=1.0))] * 2),
)
def test_layered_stacks_match_the_reference(
        shared_catalog, stack, boards, count, span_s, isolation, seed,
        models, deadline_s, retry_budget, max_queue_depth, quotas):
    """The oracle over the whole stack: a bare system, serving over it,
    tenancy over it, and tenancy over serving, on random clusters and
    streams, and the AS-ISA baseline beside them.  Serving draws its deadline, retry budget and queue bound;
    tenancy serves a premium tenant over a preemptible best-effort one,
    with preemption on, each with no block quota or a drawn fraction of
    the cluster's blocks.  Isolation is drawn for the bare system only.  A
    layered stack answers no ``woken_models``, so its schedule, drops,
    ``try_start`` calls and counters, the controller's included
    (``quota_rejections`` among them), must equal the reference's
    exactly.  On the merge dispatcher every decline's reason is checked
    against those counters (:func:`_check_declines`; the baseline's
    against its static assignment), every decline of every stack must
    write its ``retry_at`` (:func:`_check_hints`), and
    every drawn run that completes must have started some arrival
    directly (:func:`_run_both`), so the comparison covers the direct
    start."""
    isolation = isolation and stack == "bare"
    rng = random.Random(seed)
    arrivals = sorted(rng.uniform(0.0, span_s) for _ in range(count))
    tenanted = stack.startswith("tenancy")
    draws = [(rng.choice(MIXED[:models]),
              rng.choice(("premium", "besteffort")) if tenanted
              else rng.choice("ab") if isolation else "")
             for _ in range(count)]

    def build(cls):
        cluster = scaled_cluster(boards)
        tasks = [Request(task_id=i, model_key=m, arrival_s=a,
                         size_class="S", tenant=t)
                 for i, (a, (m, t)) in enumerate(zip(arrivals, draws))]
        if stack == "baseline":
            scheduler = build_system("baseline", cluster)
            if cls is ClusterSimulator:
                _check_declines(scheduler)
                _check_hints(scheduler)
            return cls(scheduler, stack), tasks
        system = build_system("proposed", cluster, shared_catalog)
        system.controller.tenant_isolation = isolation
        scheduler = system
        if stack.endswith("serving"):
            scheduler = ServingFrontend(system, ServingParameters(
                default_deadline_s=deadline_s, retry_budget=retry_budget,
                max_queue_depth=max_queue_depth, seed=seed))
        if tenanted:
            total = sum(len(board.blocks) for board in cluster.boards.values())
            premium, besteffort = (
                None if share is None else max(1, int(total * share))
                for share in quotas)
            scheduler = TenantScheduler(scheduler, [
                TenantParameters(name="premium", priority=1, weight=2.0,
                                 preemptible=False, block_quota=premium),
                TenantParameters(name="besteffort", priority=0,
                                 preemptible=True, block_quota=besteffort),
            ], TenancyParameters(isolation=False))
        if cls is ClusterSimulator:
            _check_declines(scheduler)
            _check_hints(scheduler)
        return cls(scheduler, stack), tasks

    quota_drawn = tenanted and quotas != (None, None)
    simulators = _run_both_or_wedge(build, isolation or quota_drawn)
    if stack not in ("bare", "baseline") and simulators is not None:
        reference, merged = (vars(simulator.scheduler.controller.stats)
                             for simulator in simulators)
        assert merged == reference
