"""Edge-path coverage: non-convergence guards, scheduler deadlock
detection, reorder degenerate regions, and cache behaviours."""

import pytest

from repro.cluster.simulator import ClusterSimulator, Task
from repro.core.decompose import Decomposer
from repro.errors import DecomposeError, ISAError, SimulationError
from repro.isa.instructions import v_fill
from repro.isa.program import Program
from repro.isa.reorder import _schedule_region, reorder_for_overlap


class TestDecomposerGuards:
    def test_iteration_cap_raises(self, mini_design):
        tool = Decomposer(max_iterations=0)
        with pytest.raises(DecomposeError, match="converge"):
            tool.decompose(mini_design, control_modules={"decoder"})

    def test_enough_iterations_converge(self, mini_design):
        tool = Decomposer(max_iterations=8)
        result = tool.decompose(mini_design, control_modules={"decoder"})
        assert result.stats.iterations <= 8


class TestReorderDegenerate:
    def test_empty_region(self):
        assert _schedule_region([]) == []

    def test_single_instruction(self):
        inst = v_fill(0, 1.0, 4)
        assert _schedule_region([inst]) == [inst]

    def test_reorder_empty_program(self):
        out = reorder_for_overlap(Program(name="empty"))
        assert len(out) == 0

    def test_reorder_preserves_metadata(self):
        program = Program(name="meta")
        program.metadata["hidden"] = 64
        out = reorder_for_overlap(program)
        assert out.metadata["hidden"] == 64


class TestSimulatorDeadlockDetection:
    def test_idle_cluster_with_unplaceable_task(self):
        class NeverWithRetryBait:
            """Returns None forever; nothing ever runs."""

            def try_start(self, task, now):
                return None

            def on_finish(self, task, now):  # pragma: no cover
                pass

        tasks = [Task(task_id=0, model_key="m", arrival_s=0.0)]
        with pytest.raises(SimulationError):
            ClusterSimulator(NeverWithRetryBait(), "t").run(tasks)

    def test_retry_timer_eventually_places(self):
        class PlacesAfterTime:
            """Refuses until the clock passes 0.02 s (a staleness gate)."""

            def try_start(self, task, now):
                return 0.001 if now >= 0.02 else None

            def on_finish(self, task, now):
                pass

        tasks = [Task(task_id=0, model_key="m", arrival_s=0.0)]
        # Seed the queue with a second task that runs long enough for the
        # retry timer to carry the clock past the gate.
        inner = PlacesAfterTime()

        class Hybrid:
            def __init__(self):
                self.first_done = False

            def try_start(self, task, now):
                if task.task_id == 1:
                    return 0.05  # the long warmup task
                return inner.try_start(task, now)

            def on_finish(self, task, now):
                pass

        tasks.append(Task(task_id=1, model_key="w", arrival_s=0.0))
        result = ClusterSimulator(Hybrid(), "t").run(tasks)
        assert len(result.completed) == 2


class TestServiceEstimateCache:
    def test_cache_hit_across_deploys(self):
        from repro.cluster import paper_cluster
        from repro.runtime import Catalog, SystemController
        from repro.vital import LowLevelController, VitalCompiler

        catalog = Catalog(VitalCompiler())
        controller = SystemController(
            paper_cluster(), catalog, LowLevelController(catalog.compiler.store)
        )
        first, _ = controller.deploy("gru-h512-t1")
        cache_size = len(catalog._service_cache)
        second, _ = controller.deploy("gru-h512-t1")
        assert len(catalog._service_cache) == cache_size
        assert first.service_s == second.service_s


class TestCodegenScaleoutGuards:
    def test_three_replicas_with_indivisible_hidden(self):
        from repro.accel.codegen import RNNWeights, build_scaleout_programs

        weights = RNNWeights(
            kind="gru", hidden=64, input_dim=64,
            w=[None] * 3, u=[None] * 3, b=[None] * 3,
        )
        with pytest.raises(ISAError):
            build_scaleout_programs("gru", weights, 2, replicas=3)

    def test_four_replicas_divisible(self):
        from repro.accel.codegen import RNNWeights, build_scaleout_programs

        weights = RNNWeights(
            kind="gru", hidden=64, input_dim=64,
            w=[None] * 3, u=[None] * 3, b=[None] * 3,
        )
        programs = build_scaleout_programs("gru", weights, 2, replicas=4)
        assert len(programs) == 4
        for index, program in enumerate(programs):
            assert program.metadata["scaleout"]["replica_index"] == index
