"""A pass over one queue walks it; a pass or a direct start rebuilds the view.

When exactly one (tenant, model) queue holds work, a dispatch pass walks
its entries in FIFO order and asks no class prefix (``dispatch_key``):
with nothing to merge the queue with, no prefix can change the order.  A
dispatch that leaves nothing queued does not rebuild the simulator's
``queue_view``; the next pass, or the direct start of an arrival that
finds the backlog empty, rebuilds it first, so every ``try_start`` (and
the ``retry_at`` its decline writes) and ``wake_key`` still reads the
current counts.
"""

import pytest

from repro.cluster import ClusterSimulator, scaled_cluster
from repro.runtime import Catalog, build_system
from repro.serving import Request, ServingFrontend, ServingParameters
from repro.tenancy import TenancyParameters, TenantParameters, TenantScheduler
from repro.vital import VitalCompiler
from tests.test_dispatch_equivalence import MIXED, SMALL
from tests.test_parked_passes import _Gated, _Layer, _task


@pytest.fixture(scope="module")
def shared_catalog():
    return Catalog(VitalCompiler())


@pytest.mark.parametrize("scheduler_class", [_Layer, _Gated],
                         ids=["fast-path", "tenancy"])
def test_a_lone_queue_asks_no_prefix(scheduler_class):
    """Tasks of one model are only ever in one queue: no pass of the run
    asks a prefix.  A second model's arrival makes its pass merge two
    queues, which asks one prefix per queue."""
    lone = scheduler_class()
    result = ClusterSimulator(lone, "lone").run(
        [_task(i, "a", 0.01 * i) for i in range(4)])
    assert len(result.completed) == 4
    hooks = {hook for hook, _ in lone.calls}
    assert hooks == {"try_start", "wake_key"}

    merged = scheduler_class()
    ClusterSimulator(merged, "merged").run(
        [_task(0, "a"), _task(1, "a", 0.01), _task(2, "b", 0.02)])
    asked = [now for hook, now in merged.calls if hook == "dispatch_key"]
    assert asked[:2] == [0.02, 0.02]


def _bare(catalog):
    system = build_system("proposed", scaled_cluster(8), catalog)
    return system, system


def _serving(catalog):
    system = build_system("proposed", scaled_cluster(4), catalog)
    return system, ServingFrontend(system, ServingParameters(
        default_deadline_s=0.05))


def _tenancy(catalog):
    cluster = scaled_cluster(8)
    system = build_system("proposed", cluster, catalog)
    total = sum(len(board.blocks) for board in cluster.boards.values())
    return system, TenantScheduler(system, [
        TenantParameters(name="a", priority=1, block_quota=total // 2,
                         preemptible=False),
        TenantParameters(name="b", priority=0, preemptible=True),
    ], TenancyParameters())


@pytest.mark.parametrize("stack", [_bare, _serving, _tenancy],
                         ids=["bare", "serving", "tenancy"])
def test_the_view_is_pushed_by_passes_only(shared_catalog, stack):
    """Bursts that drain between them: the backlog empties many times,
    and the view is not rebuilt then.  Only a pass rebuilds it, exactly
    when its counts are dirty, parked passes included, and every
    ``try_start`` (its decline's ``retry_at`` included) and ``wake_key``
    reads the counts its pass began with.  An arrival that finds the backlog empty starts
    directly, without a pass: it shows a fresh view, the counts as they
    stand once it is queued alone, to the hooks its start asks."""
    system, scheduler = stack(shared_catalog)
    simulator = ClusterSimulator(scheduler, "spied")
    # The counts the running pass began with; for a direct start, the view
    # it found, until its first read.
    in_pass = []
    rebuilt = []  # the view of each pass or direct start that rebuilt it
    emptied = []  # dispatches that emptied the backlog
    direct = []  # the model of each direct start

    def counts_now():
        counts = {}
        for queue in simulator._queues.values():
            counts[queue.model_key] = (counts.get(queue.model_key, 0)
                                       + len(queue.entries))
        return counts

    def dispatch_pass(inner=simulator._dispatch_pass):
        in_pass.append(counts_now())
        view, dirty = simulator.queue_view, simulator._counts_dirty
        try:
            return inner()
        finally:
            in_pass.pop()
            assert (simulator.queue_view is not view) == dirty
            if simulator.queue_view is not view:
                rebuilt.append(simulator.queue_view)

    def check_emptied(queued):
        if queued and not simulator.pending_count:
            emptied.append(simulator.queue.now)
            # Stale: still the counts of the pass or direct start that
            # emptied the backlog.
            assert simulator.queue_view is rebuilt[-1] != {}

    def dispatch(progress=True, inner=simulator._dispatch):
        nested = simulator._dispatching
        queued = simulator.pending_count
        inner(progress)
        if not nested:
            check_emptied(queued)

    def arrive(task, inner=simulator._arrive):
        if simulator.pending_count or simulator._dispatching:
            return inner(task)
        attempts = simulator.try_start_attempts
        in_pass.append(("direct", simulator.queue_view))
        try:
            inner(task)
        finally:
            in_pass.pop()
        if simulator.try_start_attempts > attempts:
            direct.append(task.model_key)
            check_emptied(1)

    def reads_view(hook):
        def spy(*args, inner=getattr(scheduler, hook)):
            assert in_pass, hook
            if isinstance(in_pass[-1], tuple):
                # A direct start's first read, its try_start: the view is
                # fresh, and the counts with the task queued alone.
                assert hook == "try_start"
                assert simulator.queue_view is not in_pass[-1][1]
                in_pass[-1] = counts_now()
                assert in_pass[-1] == {args[0].model_key: 1}
                rebuilt.append(simulator.queue_view)
            assert simulator.queue_view == in_pass[-1], hook
            return inner(*args)
        return spy

    simulator._arrive = arrive
    simulator._dispatch_pass = dispatch_pass
    simulator._dispatch = dispatch
    for hook in ("try_start", "wake_key"):
        if hasattr(scheduler, hook):
            setattr(scheduler, hook, reads_view(hook))
    tasks = [
        Request(task_id=i, model_key=MIXED[i % 4] if stack is _bare
                else SMALL[i % 3], arrival_s=0.05 * (i // 12) + 1e-4 * i,
                size_class="S", tenant="ab"[i % 2] if stack is _tenancy
                else "")
        for i in range(96)
    ]
    result = simulator.run(tasks)
    assert len(result.completed) + len(result.dropped) == len(tasks)
    assert len(emptied) >= 8
    assert rebuilt and {} not in rebuilt
    # Most arrivals find the backlog empty and start directly.
    assert len(direct) > len(tasks) // 2
