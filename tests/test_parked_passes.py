"""A dispatch pass in which every queued model is parked asks nothing.

When each queued model holds its watermark — hint still ahead, and either
the current resource version or a head that is the task that declined
with an unchanged wake key — every queue's first visit would park its
whole model, so :meth:`ClusterSimulator._dispatch_pass` ends at once: it
counts the queued tasks as skipped and the pass in ``parked_passes``,
moves every watermark to the current version and asks the scheduler
nothing but wake keys.  It asks a key only when the key stamp moved since
the key was last read (a start, finish, drop, preemption, external event
or decline) or its model's depth did (an arrival of that model), so an
arrival of one model asks at most that model's key.  Any watermark whose
key moved, whose decliner is not its queue's head or whose hint is due
runs the whole pass.  Every pass, parked or not, first rebuilds a queue
view whose counts changed, since the keys read it.
"""

import pytest

from repro.cluster import ClusterSimulator, Task
from tests.queueing import queue_tasks

OPEN_S = 0.05


class _Gated:
    """Declines every task until ``OPEN_S``, writing that instant as its
    ``retry_at``; its wake key never changes.  Records every hook the simulator calls as
    ``(hook, now)``, and each new simulator queue view a hook read as
    ``(now, view)``.  Its own order hook stands for the tenancy layer's
    (the "tenancy" cases)."""

    def __init__(self):
        self._simulator = None
        self.calls = []
        self.views = []
        #: The task of every wake key asked, in order.
        self.keyed = []

    def bind_simulator(self, simulator):
        self._simulator = simulator

    def _called(self, hook):
        now = self._simulator.queue.now
        self.calls.append((hook, now))
        view = self._simulator.queue_view
        if not self.views or self.views[-1][1] is not view:
            self.views.append((now, view))

    def try_start(self, task, now):
        self._called("try_start")
        if now >= OPEN_S:
            return 0.01
        task.retry_at = OPEN_S
        return None

    def on_finish(self, task, now):
        pass

    def wake_key(self, task):
        self._called("wake_key")
        self.keyed.append(task.task_id)
        return ()

    def dispatch_key(self, task):
        self._called("dispatch_key")
        return (0,)


class _Layer:
    """A layer with no order hook of its own over a :class:`_Gated`
    ``system``: the simulator asks the system for ``dispatch_key``, as it
    asks a proposed system for its locality key under a serving frontend
    (the "fast-path" cases)."""

    def __init__(self):
        self.system = _Gated()
        self.calls = self.system.calls
        self.views = self.system.views
        self.keyed = self.system.keyed

    @property
    def _simulator(self):
        return self.system._simulator

    def bind_simulator(self, simulator):
        self.system.bind_simulator(simulator)

    def try_start(self, task, now):
        return self.system.try_start(task, now)

    def on_finish(self, task, now):
        pass

    def wake_key(self, task):
        return self.system.wake_key(task)


def _task(task_id, model_key, arrival_s=0.0):
    return Task(task_id=task_id, model_key=model_key, arrival_s=arrival_s)


@pytest.fixture(params=[_Layer, _Gated], ids=["fast-path", "tenancy"])
def parked(request):
    """A simulator whose two queued models (two tasks of ``a``, one of
    ``b``) both declined in one pass at time 0, and one more task of ``a``
    arrived after it."""
    scheduler = request.param()
    queue_tasks(scheduler, [_task(0, "a"), _task(1, "a"), _task(2, "b")])
    simulator = scheduler._simulator
    assert simulator._dispatch_pass() is False
    assert [hook for hook, _ in scheduler.calls].count("try_start") == 2
    queue_tasks(scheduler, [_task(3, "a")])
    scheduler.calls.clear()
    scheduler.keyed.clear()
    return simulator


def test_a_parked_pass_asks_the_scheduler_nothing(parked):
    """After the arrival each model's head is its decliner.  The pass asks
    the key of ``a``, whose depth moved, and not that of ``b``, which
    declined last (nothing has moved its key since), and moves both
    watermarks to the current version, so the next parked pass asks
    nothing at all."""
    skips = parked.watermark_skips
    assert parked._dispatch_pass() is False
    assert parked.scheduler.calls == [("wake_key", 0.0)]
    assert parked.scheduler.keyed == [0]
    # The version: every event but arrivals, plus arrivals.
    assert {record.version for record in parked._watermarks.values()} == {
        parked._resource_version + parked._arrivals}
    # Rebuilt first: the keys read the view.
    assert parked.queue_view == {"a": 3, "b": 1}
    assert parked.scheduler.views[-1][1] is parked.queue_view
    parked.scheduler.calls.clear()
    assert parked._dispatch_pass() is False
    assert parked.scheduler.calls == []
    assert parked.watermark_skips - skips == 2 * parked.pending_count == 8
    assert parked.parked_passes == 2
    assert parked.try_start_attempts == 2


@pytest.mark.parametrize("model", ["a", "b"])
def test_an_arrival_asks_only_its_own_models_key(parked, model):
    """Once a parked pass has read every key, an arrival of one model
    asks that model's key, of its decliner, and no other."""
    assert parked._dispatch_pass() is False
    parked.scheduler.keyed.clear()
    queue_tasks(parked.scheduler, [_task(4, model)])
    assert parked._dispatch_pass() is False
    assert parked.scheduler.keyed == [{"a": 0, "b": 2}[model]]
    assert parked.parked_passes == 2


@pytest.mark.parametrize("stale", ["version", "decliner", "hint"])
def test_one_stale_watermark_runs_the_whole_pass(parked, stale):
    record = parked._watermarks["b"]
    record.version -= 1
    if stale == "version":
        # A key that moved, read again since the record is unverified.
        record.key, record.stamp = ("moved",), -1
    elif stale == "decliner":
        record.task = _task(9, "b")
    else:
        record.hint = parked.queue.now
    view = parked.queue_view
    parked._dispatch_pass()
    hooks = [hook for hook, _ in parked.scheduler.calls]
    assert parked.parked_passes == 0
    # Rebuilt at the pass start, before any hook read it.
    assert parked.queue_view is not view
    assert parked.scheduler.views[-1][1] is parked.queue_view
    assert parked.queue_view == {"a": 3, "b": 1}
    # Only b's watermark is stale: a's queue parks on its unchanged key,
    # b's head is asked again.
    assert hooks.count("try_start") == 1


def test_the_next_pass_that_asks_shows_every_arrival():
    """Arrivals while both models wait for the gate run only parked
    passes; the pass at the gate tries every task with a view of all of
    them."""
    scheduler = _Gated()
    tasks = [_task(0, "a"), _task(1, "b"), _task(2, "a", 0.01),
             _task(3, "b", 0.02), _task(4, "b", 0.03)]
    simulator = ClusterSimulator(scheduler, "gated")
    result = simulator.run(tasks)
    assert len(result.completed) == 5
    assert simulator.parked_passes >= 9  # every retry poll before the gate
    assert all(now == 0.0 or now >= OPEN_S
               for hook, now in scheduler.calls if hook != "wake_key")
    assert scheduler.views[1] == (0.0, {"a": 1, "b": 1})
    # The keys of the parked passes read each arrival's view, and the
    # pass at the gate starts all five tasks under the last one.
    assert scheduler.views[-1][1] == {"a": 2, "b": 3}
    asked = [hook for hook, now in scheduler.calls if now >= OPEN_S]
    assert asked.count("try_start") == 5
    assert "wake_key" not in asked
