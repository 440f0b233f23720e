"""Request-coalescing tests: the :class:`BatchExecutor` contract (record
on ``submit``, execute nothing until ``flush``, then each key's tasks in
chunks of ``max_batch``; one-lane groups batched too), batched-vs-scalar
output equality through the executor, and —
the integration invariant — unchanged DES event timing with batching on,
off, or forced scalar."""

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, Task, paper_cluster
from repro.errors import ReproError
from repro.runtime import (
    BatchExecutor,
    BatchingParameters,
    Catalog,
    build_system,
)
from repro.vital import VitalCompiler

MODEL = "gru-h512-t1"  # the cheapest zoo model to actually execute


def _task(task_id: int, arrival_s: float = 0.0) -> Task:
    return Task(task_id=task_id, model_key=MODEL, arrival_s=arrival_s,
                size_class="S")


def _execute(executor, tasks, replicas: int = 1) -> None:
    """Submit ``tasks`` at one plan width and run them."""
    for task in tasks:
        executor.submit(task, replicas=replicas)
    executor.flush()


class TestBatchingParameters:
    def test_defaults(self):
        params = BatchingParameters()
        assert params.max_batch == 8 and not params.force_scalar

    def test_max_batch_validated(self):
        with pytest.raises(ReproError, match="max_batch"):
            BatchingParameters(max_batch=0)


class TestBatchExecutor:
    def test_default_payload_deterministic(self):
        executor = BatchExecutor()
        a = executor.default_payload(_task(7))
        b = executor.default_payload(_task(7))
        c = executor.default_payload(_task(8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert a.shape == (1, 512)

    def test_full_group_waits_for_flush(self):
        executor = BatchExecutor(BatchingParameters(max_batch=2))
        tasks = [_task(0), _task(1)]
        for task in tasks:
            executor.submit(task, replicas=1)
        assert executor.stats.executions == 0
        assert all(task.output is None for task in tasks)
        executor.flush()
        assert executor.stats.executions == 1
        assert executor.stats.batched_lanes == 2
        for task in tasks:
            assert task.output is not None and task.output.shape == (512,)

    def test_partial_group_flushes_as_one_execution(self):
        executor = BatchExecutor(BatchingParameters(max_batch=8))
        tasks = [_task(i) for i in range(3)]
        for task in tasks:
            executor.submit(task, replicas=1)
        assert executor.stats.executions == 0
        executor.flush()
        assert executor.stats.executions == 1
        assert executor.stats.batch_sizes == {3: 1}
        assert all(task.output is not None for task in tasks)
        # Nothing left waiting: a second drain is a no-op.
        executor.flush()
        assert executor.stats.executions == 1

    def test_resubmit_is_idempotent(self):
        executor = BatchExecutor(BatchingParameters(max_batch=8))
        task = _task(0)
        executor.submit(task, replicas=1)
        executor.submit(task, replicas=1)
        executor.flush()
        assert executor.stats.batch_sizes == {1: 1}

    def test_singleton_flush_runs_batched(self):
        """A one-lane group runs on the batched simulator, bitwise equal to
        the scalar reference."""
        executor = BatchExecutor(BatchingParameters(max_batch=8))
        task = _task(0)
        _execute(executor, [task])
        assert executor.stats.batched_lanes == 1
        assert executor.stats.scalar_lanes == 0
        reference = BatchExecutor(BatchingParameters(max_batch=8, force_scalar=True))
        scalar = _task(0)
        _execute(reference, [scalar])
        assert np.array_equal(task.output, scalar.output)

    def test_batched_outputs_equal_forced_scalar(self):
        """The executor inherits the simulator's bit-identity contract."""
        fast = BatchExecutor(BatchingParameters(max_batch=4))
        slow = BatchExecutor(BatchingParameters(max_batch=4, force_scalar=True))
        fast_tasks = [_task(i) for i in range(4)]
        slow_tasks = [_task(i) for i in range(4)]
        _execute(fast, fast_tasks)
        _execute(slow, slow_tasks)
        assert fast.stats.batched_lanes == 4
        assert slow.stats.scalar_lanes == 4
        for got, want in zip(fast_tasks, slow_tasks):
            assert np.array_equal(got.output, want.output)

    def test_explicit_payload_respected(self):
        executor = BatchExecutor(BatchingParameters(max_batch=2))
        rng = np.random.default_rng(5)
        tasks = [_task(0), _task(1)]
        payloads = [rng.normal(0.0, 1.0, (1, 512)) for _ in tasks]
        for task, payload in zip(tasks, payloads):
            task.payload = payload
        _execute(executor, tasks)
        reference = BatchExecutor(
            BatchingParameters(max_batch=2, force_scalar=True)
        )
        ref_tasks = [_task(0), _task(1)]
        for task, payload in zip(ref_tasks, payloads):
            task.payload = payload
        _execute(reference, ref_tasks)
        for got, want in zip(tasks, ref_tasks):
            assert np.array_equal(got.output, want.output)

    def test_flush_drains_every_group(self):
        executor = BatchExecutor(BatchingParameters(max_batch=8))
        tasks = [_task(0), _task(1)]
        wide = [_task(2)]
        for task in tasks:
            executor.submit(task, replicas=1)
        executor.submit(wide[0], replicas=2)
        executor.flush()
        assert all(task.output is not None for task in tasks + wide)
        assert executor.stats.batch_sizes == {2: 1, 1: 1}

    def test_stats_snapshot(self):
        executor = BatchExecutor(BatchingParameters(max_batch=2))
        _execute(executor, [_task(i) for i in range(4)])
        stats = executor.stats
        assert stats.executions == 2
        assert stats.batched_lanes + stats.scalar_lanes == 4
        assert stats.batch_sizes == {2: 2}


class TestScaleOutExecution:
    def test_two_replica_group_matches_scalar(self):
        """Scale-out coalescing: batched k-replica co-simulation equals the
        per-lane scalar scale-out, gathered slice by slice."""
        fast = BatchExecutor(BatchingParameters(max_batch=2))
        slow = BatchExecutor(BatchingParameters(max_batch=2, force_scalar=True))
        fast_tasks = [_task(0), _task(1)]
        slow_tasks = [_task(0), _task(1)]
        _execute(fast, fast_tasks, replicas=2)
        _execute(slow, slow_tasks, replicas=2)
        for got, want in zip(fast_tasks, slow_tasks):
            assert got.output.shape == (512,)
            assert np.array_equal(got.output, want.output)


class TestDESIntegration:
    """Batching must not move a single event: same schedule with the
    executor off, on, or pinned to the scalar fallback."""

    def _run(self, batching):
        catalog = Catalog(VitalCompiler())
        cluster = paper_cluster()
        system = build_system("proposed", cluster, catalog, batching=batching)
        tasks = [_task(i, arrival_s=i * 1e-4) for i in range(6)]
        result = ClusterSimulator(system, "proposed").run(tasks)
        schedule = [
            (task.task_id, task.start_s, task.finish_s)
            for task in sorted(result.completed, key=lambda t: t.task_id)
        ]
        return schedule, result, system

    def test_timestamps_unchanged_and_outputs_present(self):
        baseline, base_result, _ = self._run(batching=None)
        batched, result, system = self._run(
            BatchingParameters(max_batch=4)
        )
        scalar, scalar_result, _ = self._run(
            BatchingParameters(max_batch=4, force_scalar=True)
        )
        assert len(baseline) == 6
        assert batched == baseline
        assert scalar == baseline
        # Off by default: no outputs without an executor.
        assert all(t.output is None for t in base_result.completed)
        # On: every completed task carries its hidden state, and the
        # batched outputs equal the forced-scalar ones bitwise.
        by_id = {t.task_id: t for t in result.completed}
        for task in scalar_result.completed:
            assert by_id[task.task_id].output is not None
            assert np.array_equal(by_id[task.task_id].output, task.output)
        # Nothing ran during the run: the run-end step ran every task, in
        # chunks of max_batch.
        assert system.batch_executor.stats.batch_sizes == {4: 1, 2: 1}
