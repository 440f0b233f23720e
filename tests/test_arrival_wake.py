"""An event retries only the models the scheduler says it can wake.

``ClusterSimulator`` asks ``woken_models`` after each arrival, start and
finish; without the hook, or on ``None``, every blocked model is retried.
Otherwise only the named models, and a model whose watermark a task behind
its oldest queued one recorded, are; after a start or finish every other
blocked model is re-hinted at its next visit instead of retried.
``ProposedSystem`` answers ``None`` exactly when a decline could act or
another model's answer could move: defrag or recovery on, a deployment
created or evicted since the last answer, or an idle deployment already
past the patience window.
"""

import pytest

from repro.cluster import ClusterSimulator, Task, paper_cluster
from repro.runtime import Catalog, build_system
from repro.vital import VitalCompiler
from tests.queueing import show_counts

MODEL = "gru-h512-t1"
EVENTS = ("arrive", "start", "finish")


@pytest.fixture(scope="module")
def shared_catalog():
    return Catalog(VitalCompiler())


# -- ProposedSystem's answer -------------------------------------------------------


def _task(model_key=MODEL, arrival_s=0.0, task_id=0):
    return Task(task_id=task_id, model_key=model_key, arrival_s=arrival_s)


def _quiet_system(catalog, **options):
    """A proposed system whose last answer already saw every deployment."""
    system = build_system("proposed", paper_cluster(), catalog, **options)
    system.woken_models("arrive", _task(), 0.0)
    return system


def test_quiet_cluster_wakes_only_the_arriving_model(shared_catalog):
    system = build_system("proposed", paper_cluster(), shared_catalog)
    assert system.woken_models("arrive", _task(), 0.0) == (MODEL,)


def test_defrag_wakes_every_model(shared_catalog):
    system = _quiet_system(shared_catalog, defrag=True)
    for event in EVENTS:
        assert system.woken_models(event, _task(), 0.0) is None


def test_recovery_wakes_every_model(shared_catalog):
    system = _quiet_system(shared_catalog, recovery=True)
    for event in EVENTS:
        assert system.woken_models(event, _task(), 0.0) is None


def test_an_eviction_since_the_last_arrival_wakes_every_model(shared_catalog):
    system = _quiet_system(shared_catalog)
    controller = system.controller
    deployment, _ = controller.deploy("lstm-h256-t150", now=0.0)
    controller.evict(deployment)
    assert system.woken_models("arrive", _task(), 0.0) is None
    # Seen once: the next event with no new deployment or eviction is quiet.
    assert system.woken_models("arrive", _task(), 0.0) == (MODEL,)


def test_a_stale_idle_deployment_wakes_every_model(shared_catalog):
    system = _quiet_system(shared_catalog)
    controller = system.controller
    controller.deploy("lstm-h256-t150", now=0.0)
    patience = controller.eviction_patience_s
    # The deployment is a creation: the first answer after it wakes all.
    assert system.woken_models("arrive", _task(), 0.0) is None
    assert system.woken_models("arrive", _task(), patience / 2) == (MODEL,)
    assert system.woken_models("arrive", _task(), patience) is None


def test_starts_and_finishes_wake_at_most_their_own_model(shared_catalog):
    system = _quiet_system(shared_catalog)
    show_counts(system, {MODEL: 2})
    first, second = _task(task_id=0), _task(task_id=1)
    service = system.try_start(first, 0.0)
    assert service is not None
    # A deploying start changes free blocks and the resident set.
    assert system.woken_models("start", first, 0.0) is None
    system.on_finish(first, service)
    assert system.woken_models("finish", first, service) == (MODEL,)
    # A reuse start: the simulator drops the starting model's watermark.
    assert system.try_start(second, service) is not None
    assert system.controller.stats.reuse_hits == 1
    assert system.woken_models("start", second, service) == ()


@pytest.mark.parametrize("depth", [3, 4])
def test_an_arrival_at_pressure_keeps_its_own_models_decline(shared_catalog,
                                                             depth):
    """The arriving model wakes unless its hint saw a queue depth of at
    least ``EXPANSION_PRESSURE``: one more task then changes nothing."""
    system = _quiet_system(shared_catalog)
    assert system.EXPANSION_PRESSURE == 4
    show_counts(system, {MODEL: depth})
    system.retry_hint(_task(), 0.0)
    woken = system.woken_models("arrive", _task(task_id=1), 0.0)
    assert woken == (() if depth >= 4 else (MODEL,))


# -- the simulator's wake rule ---------------------------------------------------


class _OneBoard:
    """Model ``"a"`` runs for a second; ``"b"`` is declined until an
    ``"a"`` task has finished.  With ``wakes_all`` given, an arrival wakes
    every model (``True``) or only its own (``False``); starts and
    finishes wake every model."""

    def __init__(self, wakes_all=None):
        self.calls = []
        self.finished = 0
        if wakes_all is not None:
            def woken_models(event, task, now):
                if event == "arrive" and not wakes_all:
                    return (task.model_key,)
                return None

            self.woken_models = woken_models

    def try_start(self, task, now):
        self.calls.append((task.model_key, now))
        if task.model_key == "b" and not self.finished:
            return None
        return 1.0

    def on_finish(self, task, now):
        self.finished += 1

    def retry_hint(self, task, now):
        return float("inf")


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
        # An arrival of "a" skips the retry of "b" ahead of it; the start
        # of "a" still changes resources, so the next pass retries "b".
        assert calls == [
            ("b", 0.0), ("a", 0.25), ("b", 0.25),
            ("a", 0.5), ("b", 0.5), ("b", 1.25),
        ]


class _Gated:
    """Model ``"b"`` is declined until ``OPEN_S`` whatever else happens;
    ``"a"`` runs for 0.1 s.  Every event wakes only its own model."""

    OPEN_S = 0.5

    def __init__(self):
        self.calls = []
        self.hints = []

    def try_start(self, task, now):
        self.calls.append((task.model_key, now))
        if task.model_key == "b" and now < self.OPEN_S:
            return None
        return 0.1

    def on_finish(self, task, now):
        pass

    def retry_hint(self, task, now):
        self.hints.append((task.task_id, now))
        return self.OPEN_S

    def woken_models(self, event, task, now):
        return () if event == "start" else (task.model_key,)


def test_a_quiet_start_or_finish_rehints_instead_of_retrying():
    scheduler = _Gated()
    tasks = [Task(task_id=0, model_key="b", arrival_s=0.0),
             Task(task_id=1, model_key="a", arrival_s=0.25)]
    simulator = ClusterSimulator(scheduler)
    result = simulator.run(tasks)
    assert len(result.completed) == 2
    # "b" is tried at its arrival and once its gate opens; the start and
    # the finish of "a" each re-ask its hint instead.
    assert scheduler.calls[:2] == [("b", 0.0), ("a", 0.25)]
    [(model_key, now)] = scheduler.calls[2:]
    assert model_key == "b" and now == pytest.approx(_Gated.OPEN_S)
    assert scheduler.hints == [(0, 0.0), (0, 0.25), (0, 0.35)]
    assert simulator.rehints == 2
