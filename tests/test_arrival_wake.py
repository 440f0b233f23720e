"""A declined model stays parked while its decline's wake key is unchanged.

Every arrival, start and finish moves ``ClusterSimulator``'s resource
version.  A visit to the task whose decline recorded a model's watermark,
in a later version but with the clock short of its hint, parks the model
when its key equals the one recorded; without the hook, or on ``None``,
every version bump retries every blocked model.  The key is asked again
only when something but an arrival moved since it was read (a start,
finish, drop, preemption, external event or decline), or an arrival of
its own model did: a key reads no other model's depth.
``ProposedSystem``'s key is the board generation (free blocks and
health), whether the task has a usable idle copy, its model's depth
against 2 and ``EXPANSION_PRESSURE``, and — for a task past the patience
window — when the oldest foreign idle copy goes stale; with defrag or
recovery on it is ``None``.
"""

import pytest

import random

from repro.cluster import ClusterSimulator, Task, paper_cluster, scaled_cluster
from repro.runtime import Catalog, build_system
from repro.vital import VitalCompiler
from tests.queueing import show_counts

MODEL = "gru-h512-t1"
OTHER = "lstm-h256-t150"


@pytest.fixture(scope="module")
def shared_catalog():
    return Catalog(VitalCompiler())


# -- ProposedSystem's key ----------------------------------------------------------


def _task(model_key=MODEL, arrival_s=0.0, task_id=0):
    return Task(task_id=task_id, model_key=model_key, arrival_s=arrival_s)


def _system(catalog, counts=None, **options):
    """A proposed system shown ``counts`` as its queue view."""
    system = build_system("proposed", paper_cluster(), catalog, **options)
    show_counts(system, counts or {MODEL: 1, OTHER: 1})
    return system


def test_quiet_cluster_wakes_only_the_arriving_model(shared_catalog):
    """An arrival moves only its own model's depth, so no other model's
    key; its own only where the depth crosses 2 (the next test covers
    ``EXPANSION_PRESSURE``)."""
    system = _system(shared_catalog)
    mine, other = _task(), _task(OTHER, task_id=1)
    before = system.wake_key(mine), system.wake_key(other)
    show_counts(system, {MODEL: 1, OTHER: 2})
    crossed = system.wake_key(other)
    assert system.wake_key(mine) == before[0] and crossed != before[1]
    show_counts(system, {MODEL: 1, OTHER: 3})
    assert system.wake_key(mine) == before[0]
    assert system.wake_key(other) == crossed


@pytest.mark.parametrize("depth", [3, 4])
def test_an_arrival_at_pressure_keeps_its_own_models_decline(shared_catalog,
                                                             depth):
    """One more queued task changes its model's key when the depth
    reaches ``EXPANSION_PRESSURE``, and not beyond."""
    system = _system(shared_catalog, {MODEL: depth})
    assert system.EXPANSION_PRESSURE == 4
    key = system.wake_key(_task())
    show_counts(system, {MODEL: depth + 1})
    assert (system.wake_key(_task()) == key) == (depth >= 4)


def test_defrag_wakes_every_model(shared_catalog):
    system = _system(shared_catalog, defrag=True)
    assert system.wake_key(_task()) is None


def test_recovery_wakes_every_model(shared_catalog):
    system = _system(shared_catalog, recovery=True)
    assert system.wake_key(_task()) is None


def test_an_eviction_since_the_last_arrival_wakes_every_model(shared_catalog):
    """A deployment or an eviction moves free blocks, so every key."""
    system = _system(shared_catalog)
    controller = system.controller
    tasks = (_task(), _task(OTHER, task_id=1))
    before = [system.wake_key(task) for task in tasks]
    deployment, _ = controller.deploy("lstm-h512-t25", now=0.0)
    deployed = [system.wake_key(task) for task in tasks]
    assert all(a != b for a, b in zip(before, deployed))
    controller.evict(deployment)
    assert all(a != b for a, b in
               zip(deployed, [system.wake_key(task) for task in tasks]))


def test_starts_and_finishes_wake_at_most_their_own_model(shared_catalog):
    """A finish adds an idle copy of its model and frees no block: only
    that model's key moves.  A reuse start takes that copy again."""
    system = _system(shared_catalog, {MODEL: 2, OTHER: 1})
    first, second = _task(task_id=0), _task(task_id=1)
    service = system.try_start(first, 0.0)
    assert service is not None
    waiting = (_task(task_id=2), _task(OTHER, task_id=3))
    busy = [system.wake_key(task) for task in waiting]
    system.on_finish(first, service)
    idle = [system.wake_key(task) for task in waiting]
    assert idle[0] != busy[0] and idle[1] == busy[1]
    assert system.try_start(second, service) is not None
    assert system.controller.stats.reuse_hits == 1
    assert [system.wake_key(task) for task in waiting] == busy


def test_a_stale_idle_deployment_wakes_every_model(shared_catalog):
    """Past the patience window a task's key reads when the oldest
    foreign idle copy goes stale, which is also its hint: once the clock
    reaches it, every model waiting on that copy is retried."""
    system = _system(shared_catalog)
    controller = system.controller
    simulator = system._simulator
    patience = controller.eviction_patience_s
    waiting = _task()
    young = system.wake_key(waiting)
    simulator.queue.run(until=patience)
    assert system.wake_key(waiting)[:4] == young
    assert system.wake_key(waiting)[4] == float("inf")
    deployment, _ = controller.deploy(OTHER, now=patience)
    controller.acquire(deployment)
    controller.release(deployment, patience)
    stale_at = system.wake_key(waiting)[4]
    assert stale_at == pytest.approx(2 * patience)
    assert system.earliest_retry(waiting, patience) == stale_at


# -- the simulator's wake rule ---------------------------------------------------


class _OneBoard:
    """Model ``"a"`` runs for a second; ``"b"`` is declined until an
    ``"a"`` task has finished.  With ``wakes_all`` given, its wake key is
    ``None`` (``True``), or the finishes so far (``False``)."""

    def __init__(self, wakes_all=None):
        self.calls = []
        self.finished = 0
        if wakes_all is not None:
            self.wake_key = lambda task: None if wakes_all else self.finished

    def try_start(self, task, now):
        self.calls.append((task.model_key, now))
        if task.model_key == "b" and not self.finished:
            task.retry_at = float("inf")
            return None
        return 1.0

    def on_finish(self, task, now):
        self.finished += 1


def _run(scheduler):
    tasks = [Task(task_id=0, model_key="b", arrival_s=0.0),
             Task(task_id=1, model_key="a", arrival_s=0.25),
             Task(task_id=2, model_key="a", arrival_s=0.5)]
    result = ClusterSimulator(scheduler).run(tasks)
    assert len(result.completed) == 3
    return scheduler.calls


def test_without_the_hook_every_arrival_retries_every_model():
    assert _run(_OneBoard()) == [
        ("b", 0.0), ("b", 0.25), ("a", 0.25), ("b", 0.25),
        ("b", 0.5), ("a", 0.5), ("b", 0.5), ("b", 1.25),
    ]


@pytest.mark.parametrize("wakes_all", [True, False])
def test_a_quiet_arrival_retries_only_its_own_model(wakes_all):
    calls = _run(_OneBoard(wakes_all))
    if wakes_all:
        assert calls == _run(_OneBoard())
    else:
        # Neither the arrivals nor the starts of "a" move the key of "b";
        # the first finish does.
        assert calls == [("b", 0.0), ("a", 0.25), ("a", 0.5), ("b", 1.25)]


class _Gated:
    """Model ``"b"`` is declined until ``OPEN_S`` whatever else happens,
    with that instant as its ``retry_at``; ``"a"`` runs for 0.1 s.  Its
    wake key never changes."""

    OPEN_S = 0.5

    def __init__(self):
        self.calls = []
        self.hints = []
        self.keys = []

    def try_start(self, task, now):
        self.calls.append((task.model_key, now))
        if task.model_key == "b" and now < self.OPEN_S:
            self.hints.append((task.task_id, now))
            task.retry_at = self.OPEN_S
            return None
        return 0.1

    def on_finish(self, task, now):
        pass

    def wake_key(self, task):
        self.keys.append(task.task_id)
        return ()


def test_a_quiet_start_or_finish_neither_retries_nor_rehints():
    scheduler = _Gated()
    tasks = [Task(task_id=0, model_key="b", arrival_s=0.0),
             Task(task_id=1, model_key="a", arrival_s=0.25)]
    simulator = ClusterSimulator(scheduler)
    result = simulator.run(tasks)
    assert len(result.completed) == 2
    # "b" is tried at its arrival and once its gate opens, and writes a
    # hint only at its one decline; the arrival, start and finish of "a"
    # each ask its key instead.
    assert scheduler.calls[:2] == [("b", 0.0), ("a", 0.25)]
    [(model_key, now)] = scheduler.calls[2:]
    assert model_key == "b" and now == pytest.approx(_Gated.OPEN_S)
    assert scheduler.hints == [(0, 0.0)]
    assert set(scheduler.keys) == {0} and len(scheduler.keys) >= 3


#: Table 1 mix #7's models.
MIXED = ("gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25", "gru-h1536-t375",
         "lstm-h1536-t50", "gru-h2304-t250")


def test_a_mixed_backlog_asks_few_wake_keys(shared_catalog):
    """400 tasks of the six models, evenly mixed, arrive within 5 ms on 16
    boards, so most passes start at an arrival into a backlog of parked
    models.  Each asks at most its own model's key: 3 245 keys in all,
    where re-asking every parked model at every arrival asked 5 157."""
    rng = random.Random(7)
    arrivals = sorted(rng.uniform(0.0, 0.005) for _ in range(400))
    models = [MIXED[i % len(MIXED)] for i in range(400)]
    rng.shuffle(models)
    system = build_system("proposed", scaled_cluster(16), shared_catalog)
    asked = []

    def wake_key(task, inner=system.wake_key):
        asked.append(task.task_id)
        return inner(task)

    system.wake_key = wake_key
    simulator = ClusterSimulator(system, "mixed")
    result = simulator.run([Task(task_id=i, model_key=m, arrival_s=a)
                            for i, (a, m) in enumerate(zip(arrivals, models))])
    assert len(result.completed) == 400
    assert simulator.try_start_attempts == 848
    assert len(asked) <= 3_300
