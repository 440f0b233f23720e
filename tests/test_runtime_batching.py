"""Request-coalescing tests: the :class:`BatchExecutor` contract (buffer
until full, drain partial groups with ``flush``, one-lane groups batched
too), batched-vs-scalar output equality through the executor, and —
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

    def test_full_group_executes_immediately(self):
        executor = BatchExecutor(BatchingParameters(max_batch=2))
        tasks = [_task(0), _task(1)]
        for task in tasks:
            executor.submit(task, replicas=1, now=0.0)
        assert executor.stats.executions == 1
        assert executor.stats.full_batches == 1
        assert executor.stats.batched_lanes == 2
        for task in tasks:
            assert task.output is not None and task.output.shape == (512,)

    def test_partial_group_flushes_as_one_execution(self):
        executor = BatchExecutor(BatchingParameters(max_batch=8))
        tasks = [_task(i) for i in range(3)]
        for task in tasks:
            executor.submit(task, replicas=1, now=0.0)
        assert executor.stats.executions == 0
        executor.flush()
        assert executor.stats.executions == 1
        assert executor.stats.partial_flushes == 1
        assert executor.stats.batch_sizes == {3: 1}
        assert all(task.output is not None for task in tasks)
        # Nothing left waiting: a second drain is a no-op.
        executor.flush()
        assert executor.stats.executions == 1

    def test_resubmit_is_idempotent(self):
        executor = BatchExecutor(BatchingParameters(max_batch=8))
        task = _task(0)
        executor.submit(task, replicas=1, now=0.0)
        executor.submit(task, replicas=1, now=0.0)
        assert executor.stats.submitted == 1

    def test_singleton_flush_runs_batched(self):
        """A one-lane group runs on the batched simulator, bitwise equal to
        the scalar reference."""
        executor = BatchExecutor(BatchingParameters(max_batch=8))
        task = _task(0)
        executor.submit(task, replicas=1, now=0.0)
        executor.flush()
        assert executor.stats.batched_lanes == 1
        assert executor.stats.scalar_lanes == 0
        reference = BatchExecutor(BatchingParameters(max_batch=8, force_scalar=True))
        scalar = _task(0)
        reference.submit(scalar, replicas=1, now=0.0)
        reference.flush()
        assert np.array_equal(task.output, scalar.output)

    def test_batched_outputs_equal_forced_scalar(self):
        """The executor inherits the simulator's bit-identity contract."""
        fast = BatchExecutor(BatchingParameters(max_batch=4))
        slow = BatchExecutor(BatchingParameters(max_batch=4, force_scalar=True))
        for executor in (fast, slow):
            for i in range(4):
                executor.submit(_task(i), replicas=1, now=0.0)
        assert fast.stats.batched_lanes == 4
        assert slow.stats.scalar_lanes == 4
        # Re-run to capture the tasks (submit consumed fresh Task objects).
        fast_tasks = [_task(i) for i in range(4)]
        slow_tasks = [_task(i) for i in range(4)]
        for task in fast_tasks:
            fast.submit(task, replicas=1, now=0.0)
        for task in slow_tasks:
            slow.submit(task, replicas=1, now=0.0)
        for got, want in zip(fast_tasks, slow_tasks):
            assert np.array_equal(got.output, want.output)

    def test_explicit_payload_respected(self):
        executor = BatchExecutor(BatchingParameters(max_batch=2))
        rng = np.random.default_rng(5)
        tasks = [_task(0), _task(1)]
        payloads = [rng.normal(0.0, 1.0, (1, 512)) for _ in tasks]
        for task, payload in zip(tasks, payloads):
            task.payload = payload
            executor.submit(task, replicas=1, now=0.0)
        reference = BatchExecutor(
            BatchingParameters(max_batch=2, force_scalar=True)
        )
        ref_tasks = [_task(0), _task(1)]
        for task, payload in zip(ref_tasks, payloads):
            task.payload = payload
            reference.submit(task, replicas=1, now=0.0)
        for got, want in zip(tasks, ref_tasks):
            assert np.array_equal(got.output, want.output)

    def test_flush_drains_every_group(self):
        executor = BatchExecutor(BatchingParameters(max_batch=8))
        tasks = [_task(0), _task(1)]
        for task in tasks:
            executor.submit(task, replicas=1, now=0.0)
        executor.flush()
        assert all(task.output is not None for task in tasks)

    def test_stats_snapshot(self):
        executor = BatchExecutor(BatchingParameters(max_batch=2))
        for i in range(4):
            executor.submit(_task(i), replicas=1, now=0.0)
        stats = executor.stats
        assert stats.submitted == 4
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
        for task in fast_tasks:
            fast.submit(task, replicas=2, now=0.0)
        for task in slow_tasks:
            slow.submit(task, replicas=2, now=0.0)
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
        assert system.batch_executor.stats.submitted == 6
        assert system.batch_executor.stats.executions >= 1
