"""An arrival retries only its own model unless the scheduler says more.

``ClusterSimulator`` asks ``arrival_wakes_all`` at each arrival; without
the hook, or on ``True``, every blocked model is retried.  On ``False``
only the arriving model, and a model whose watermark a task behind its
oldest queued one recorded, are.  ``ProposedSystem`` answers ``True``
exactly when a decline could act: defrag on, an eviction since the last
arrival, or an idle deployment already past the patience window.
"""

import pytest

from repro.cluster import ClusterSimulator, Task, paper_cluster
from repro.runtime import Catalog, build_system
from repro.vital import VitalCompiler


@pytest.fixture(scope="module")
def shared_catalog():
    return Catalog(VitalCompiler())


# -- ProposedSystem's answer -------------------------------------------------------


def _task(model_key="gru-h512-t1", arrival_s=0.0):
    return Task(task_id=0, model_key=model_key, arrival_s=arrival_s)


def test_quiet_cluster_wakes_only_the_arriving_model(shared_catalog):
    system = build_system("proposed", paper_cluster(), shared_catalog)
    assert system.arrival_wakes_all(_task(), 0.0) is False


def test_defrag_wakes_every_model(shared_catalog):
    system = build_system("proposed", paper_cluster(), shared_catalog,
                          defrag=True)
    assert system.arrival_wakes_all(_task(), 0.0) is True


def test_an_eviction_since_the_last_arrival_wakes_every_model(shared_catalog):
    system = build_system("proposed", paper_cluster(), shared_catalog)
    controller = system.controller
    deployment, _ = controller.deploy("lstm-h256-t150", now=0.0)
    controller.evict(deployment)
    assert system.arrival_wakes_all(_task(), 0.0) is True
    # Seen once: the next arrival with no new eviction is quiet again.
    assert system.arrival_wakes_all(_task(), 0.0) is False


def test_a_stale_idle_deployment_wakes_every_model(shared_catalog):
    system = build_system("proposed", paper_cluster(), shared_catalog)
    controller = system.controller
    controller.deploy("lstm-h256-t150", now=0.0)
    patience = controller.eviction_patience_s
    assert system.arrival_wakes_all(_task(), patience / 2) is False
    assert system.arrival_wakes_all(_task(), patience) is True


# -- the simulator's wake rule ---------------------------------------------------


class _OneBoard:
    """Model ``"a"`` runs for a second; ``"b"`` is declined until an
    ``"a"`` task has finished."""

    def __init__(self, wakes_all=None):
        self.calls = []
        self.finished = 0
        if wakes_all is not None:
            self.arrival_wakes_all = lambda task, now: wakes_all

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
