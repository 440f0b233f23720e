"""Deferred functional execution: the batch executor runs nothing during
a run, and the simulator's run-end step executes every submitted task, in
chunks of ``max_batch`` per (model, plan width).

Outputs must equal the forced-scalar run's bitwise, timestamps must equal
the executor-off run's, every completed task must hold its output when
``run()`` returns, and no task runs twice — also through the serving and
tenancy wrappers, where tasks are shed, expired and preempted.
"""

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, Task, paper_cluster, scaled_cluster
from repro.runtime import BatchExecutor, BatchingParameters, Catalog, build_system
from repro.serving import Request, ServingFrontend, ServingParameters
from repro.tenancy import TenancyParameters, TenantParameters, TenantScheduler
from repro.vital import VitalCompiler
from repro.workloads import poisson_arrivals

MODEL = "gru-h512-t1"  # the cheapest zoo model to actually execute


@pytest.fixture(scope="module")
def catalog():
    return Catalog(VitalCompiler())


def _params(force_scalar=False):
    return BatchingParameters(max_batch=8, force_scalar=force_scalar)


def _lanes(stats) -> int:
    return stats.batched_lanes + stats.scalar_lanes


def _assert_counts_consistent(stats) -> None:
    assert stats.executions == sum(stats.batch_sizes.values())
    assert _lanes(stats) == sum(
        size * count for size, count in stats.batch_sizes.items()
    )


def _outputs(result) -> dict:
    return {task.task_id: task.output for task in result.completed}


def _assert_outputs_match(result, reference) -> None:
    want = _outputs(reference)
    assert want.keys() == _outputs(result).keys()
    for task in result.completed:
        assert task.output is not None
        assert task.output.dtype == want[task.task_id].dtype
        assert np.array_equal(task.output, want[task.task_id])


class TestExecutorUnit:
    def test_flush_runs_each_key_in_chunks_of_max_batch(self):
        executor = BatchExecutor(BatchingParameters(max_batch=2))
        tasks = [Task(i, MODEL, 0.0) for i in range(4)]
        for task in tasks[:3]:
            executor.submit(task, replicas=1)
        executor.submit(tasks[3], replicas=2)
        assert executor.stats.executions == 0
        assert all(task.output is None for task in tasks)
        executor.flush()
        stats = executor.stats
        assert stats.batch_sizes == {2: 1, 1: 2}
        assert all(task.output is not None for task in tasks)
        _assert_counts_consistent(stats)

    def test_withdraw_removes_only_that_lane(self):
        executor = BatchExecutor(BatchingParameters(max_batch=8))
        tasks = [Task(i, MODEL, 0.0) for i in range(3)]
        for task in tasks:
            executor.submit(task, replicas=1)
        executor.withdraw(tasks[1])
        executor.withdraw(tasks[1])  # no longer recorded: a no-op
        executor.flush()
        assert tasks[1].output is None
        assert executor.stats.batch_sizes == {2: 1}
        # A withdrawn task re-submits as a fresh lane.
        executor.submit(tasks[1], replicas=1)
        executor.flush()
        assert tasks[1].output is not None
        assert executor.stats.batch_sizes == {2: 1, 1: 1}

    def test_withdrawing_the_last_lane_drops_the_group(self):
        executor = BatchExecutor(BatchingParameters(max_batch=8))
        task = Task(0, MODEL, 0.0)
        executor.submit(task, replicas=1)
        executor.withdraw(task)
        executor.flush()
        assert executor.stats.executions == 0

    def test_restart_is_executed_exactly_once(self):
        """A restart overwrites the task's plan width and keeps its place;
        the task runs once, at the width of its last start."""
        executor = BatchExecutor(BatchingParameters(max_batch=8))
        task, other = Task(0, MODEL, 0.0), Task(1, MODEL, 0.0)
        executor.submit(task, replicas=1)
        executor.submit(other, replicas=2)
        executor.submit(task, replicas=1)
        executor.submit(task, replicas=2)
        assert list(executor._submitted) == [0, 1]
        executor.flush()
        assert executor.stats.batch_sizes == {2: 1}
        reference = BatchExecutor(BatchingParameters(max_batch=8))
        alone = Task(0, MODEL, 0.0)
        reference.submit(alone, replicas=2)
        reference.flush()
        assert np.array_equal(task.output, alone.output)
        # Forgotten once run: a second flush executes nothing.
        executor.flush()
        assert executor.stats.executions == 1


class TestFullWidthThroughDES:
    """21 back-to-back tasks (each finishes before the next starts) run as
    8 + 8 + 5 lanes instead of 21 singletons."""

    COUNT = 21
    GAP_S = 0.025

    def _run(self, catalog, batching):
        system = build_system("proposed", paper_cluster(), catalog,
                              batching=batching)
        tasks = [Task(i, MODEL, i * self.GAP_S, size_class="S")
                 for i in range(self.COUNT)]
        result = ClusterSimulator(system, "deferred").run(tasks)
        return result, system

    def test_groups_fill_across_completions(self, catalog):
        timing, _ = self._run(catalog, None)
        batched, system = self._run(catalog, _params())
        scalar, _ = self._run(catalog, _params(force_scalar=True))
        order = sorted(timing.completed, key=lambda t: t.task_id)
        assert len(order) == self.COUNT
        assert all(a.finish_s <= b.start_s for a, b in zip(order, order[1:]))

        stats = system.batch_executor.stats
        assert stats.batch_sizes == {8: 2, 5: 1}
        assert stats.scalar_lanes == 0
        _assert_counts_consistent(stats)
        # Every output exists when run() returns, equal to the scalar run's.
        _assert_outputs_match(batched, scalar)

        def schedule(result):
            return sorted((t.task_id, t.start_s, t.finish_s)
                          for t in result.completed)

        assert schedule(batched) == schedule(timing)
        assert schedule(scalar) == schedule(timing)


class TestThroughWrappers:
    def _serving(self, catalog, force_scalar):
        """A burst on the paper cluster with a short queue bound and a
        tight deadline: some requests are shed, some expire."""
        system = build_system("proposed", paper_cluster(), catalog,
                              batching=_params(force_scalar))
        frontend = ServingFrontend(
            system, ServingParameters(max_queue_depth=4,
                                      default_deadline_s=0.02),
        )
        keys = (MODEL, "lstm-h512-t25")
        tasks = [Request(task_id=i, model_key=keys[i % 2], arrival_s=i * 1e-4,
                         size_class="S") for i in range(32)]
        result = ClusterSimulator(frontend, "serving").run(tasks)
        return result, system, frontend

    def test_serving_frontend(self, catalog):
        result, system, frontend = self._serving(catalog, False)
        reference, *_ = self._serving(catalog, True)
        assert frontend.stats.shed >= 1 and frontend.stats.expired >= 1
        _assert_outputs_match(result, reference)
        assert all(task.output is None for task in result.dropped)
        stats = system.batch_executor.stats
        assert _lanes(stats) == len(result.completed)
        _assert_counts_consistent(stats)

    def _tenancy(self, catalog, force_scalar, serving=False):
        """Best effort saturates a 4-board cluster; the premium tenant
        preempts its way in (with ``serving``, through a frontend with a
        short queue bound and a tight deadline: some requests are shed,
        some expire)."""
        cluster = scaled_cluster(4)
        system = build_system("proposed", cluster, catalog,
                              batching=_params(force_scalar))
        inner, kind = system, Task
        if serving:
            inner, kind = ServingFrontend(
                system, ServingParameters(max_queue_depth=4,
                                          default_deadline_s=0.02),
            ), Request
        blocks = sum(len(board.blocks) for board in cluster.boards.values())
        scheduler = TenantScheduler(inner, [
            TenantParameters(name="premium", priority=1, weight=2.0,
                             block_quota=int(blocks * 0.3),
                             preemptible=False),
            TenantParameters(name="besteffort", priority=0, weight=1.0,
                             block_quota=int(blocks * 0.8),
                             preemptible=True),
        ], TenancyParameters())
        tasks = [
            kind(task_id=i, model_key=MODEL, arrival_s=a, size_class="S",
                 tenant="premium")
            for i, a in enumerate(poisson_arrivals(6, 3200.0, seed=17))
        ] + [
            kind(task_id=100 + i, model_key="lstm-h512-t25", arrival_s=a,
                 size_class="S", tenant="besteffort")
            for i, a in enumerate(poisson_arrivals(18, 9600.0, seed=18))
        ]
        tasks.sort(key=lambda task: (task.arrival_s, task.task_id))
        result = ClusterSimulator(scheduler, "tenancy").run(tasks)
        return result, system, scheduler

    def test_tenant_scheduler_with_preemption(self, catalog):
        result, system, scheduler = self._tenancy(catalog, False)
        reference, *_ = self._tenancy(catalog, True)
        assert scheduler.stats.tasks_preempted >= 1
        assert len(result.completed) == 24
        _assert_outputs_match(result, reference)
        # No task runs twice and none is lost to a withdrawal.
        stats = system.batch_executor.stats
        assert _lanes(stats) == len(result.completed)
        _assert_counts_consistent(stats)

    def test_tenancy_over_serving_with_deadlines(self, catalog):
        result, system, scheduler = self._tenancy(catalog, False, serving=True)
        reference, *_ = self._tenancy(catalog, True, serving=True)
        frontend = scheduler.inner
        assert scheduler.stats.tasks_preempted >= 1
        assert frontend.stats.shed >= 1 and frontend.stats.expired >= 1
        _assert_outputs_match(result, reference)
        assert all(task.output is None for task in result.dropped)
        stats = system.batch_executor.stats
        assert _lanes(stats) == len(result.completed)
        _assert_counts_consistent(stats)
