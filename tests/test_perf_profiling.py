"""Hot-path counters live on the per-run stats of the layer that owns them."""

from repro.cluster import ClusterSimulator, paper_cluster
from repro.cluster.simulator import Task
from repro.runtime import Catalog, build_system
from repro.vital import VitalCompiler
from repro.workloads.deepbench import MODEL_POOL


def _run_six_tasks():
    spec = MODEL_POOL["S"][0]
    tasks = [
        Task(task_id=i, model_key=spec.key, arrival_s=i * 1e-4)
        for i in range(6)
    ]
    system = build_system(
        "proposed", paper_cluster(), Catalog(VitalCompiler())
    )
    simulator = ClusterSimulator(system, "proposed")
    result = simulator.run(tasks)
    assert len(result.completed) == 6
    return simulator, system.controller.stats


class TestRuntimeWiring:
    def test_simulation_populates_hot_path_counters(self):
        simulator, stats = _run_six_tasks()
        assert simulator.try_start_attempts == 9
        assert simulator.watermark_skips == 3
        assert simulator.queue.processed == 16
        assert stats.deploy_calls == 5
        assert stats.placement_searches == 5

    def test_runs_in_one_process_count_independently(self):
        first_sim, first_stats = _run_six_tasks()
        second_sim, second_stats = _run_six_tasks()
        assert first_stats is not second_stats
        for simulator in (first_sim, second_sim):
            assert simulator.try_start_attempts == 9
            assert simulator.queue.processed == 16
        for stats in (first_stats, second_stats):
            assert stats.deploy_calls == 5
            assert stats.placement_searches == 5
