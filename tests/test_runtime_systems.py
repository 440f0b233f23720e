"""Tests for the three evaluated systems as simulator schedulers."""

import copy
import math

import pytest

from repro.cluster import ClusterSimulator, Task, paper_cluster
from repro.runtime import Catalog, build_system
from repro.runtime.systems import BaselineSystem, ProposedSystem, RestrictedSystem
from repro.vital import VitalCompiler
from repro.workloads import generate_workload
from repro.workloads.synthetic import TABLE1_COMPOSITIONS
from repro.errors import ReproError, SimulationError


def _tasks(keys, gap=0.0):
    return [
        Task(task_id=i, model_key=key, arrival_s=i * gap, size_class="S")
        for i, key in enumerate(keys)
    ]


def _run(system, tasks):
    return ClusterSimulator(system, system.name).run(copy.deepcopy(tasks))


class TestFactory:
    def test_builds_each_system(self):
        cluster = paper_cluster()
        catalog = Catalog(VitalCompiler())
        assert isinstance(build_system("baseline", cluster), BaselineSystem)
        assert isinstance(
            build_system("proposed", cluster, catalog), ProposedSystem
        )
        assert isinstance(
            build_system("restricted", cluster, catalog), RestrictedSystem
        )

    def test_unknown_system(self):
        with pytest.raises(ReproError):
            build_system("magic", paper_cluster(), Catalog(VitalCompiler()))

    def test_proposed_without_catalog(self):
        with pytest.raises(ReproError):
            build_system("proposed", paper_cluster())


class TestProposedSystem:
    def test_completes_stream(self):
        system = build_system(
            "proposed", paper_cluster(), Catalog(VitalCompiler())
        )
        result = _run(system, _tasks(["gru-h512-t1"] * 10))
        assert len(result.completed) == 10

    def test_deployments_reused(self):
        system = build_system(
            "proposed", paper_cluster(), Catalog(VitalCompiler())
        )
        _run(system, _tasks(["lstm-h256-t150"] * 8, gap=1.0))
        stats = system.controller.stats
        assert stats.reuse_hits >= 6  # after the first deployment

    def test_hot_model_replicates(self):
        system = build_system(
            "proposed", paper_cluster(), Catalog(VitalCompiler())
        )
        _run(system, _tasks(["lstm-h256-t150"] * 30))
        copies = sum(
            1
            for d in system.controller.deployments.values()
            if d.model_key == "lstm-h256-t150"
        )
        assert copies >= 2

    def test_large_model_spans_two_boards(self):
        system = build_system(
            "proposed", paper_cluster(), Catalog(VitalCompiler())
        )
        _run(system, _tasks(["gru-h2560-t375"] * 3))
        deployment = next(iter(system.controller.deployments.values()))
        assert len(deployment.placements) == 2

    @pytest.mark.parametrize("books", ["placement", "residency", "idle"])
    def test_run_fails_when_its_books_do_not_recount(self, books):
        """The run recounts the controller's indexes when it ends: one
        written behind the controller's back fails the run."""
        system = build_system(
            "proposed", paper_cluster(), Catalog(VitalCompiler())
        )
        controller = system.controller

        def corrupt(_now):
            if books == "placement":
                # A block taken without telling the placement index.
                controller.cluster.board("vu37p-0").blocks[-1].owner = "ghost"
            elif books == "residency":
                controller._residents_by_board.setdefault(
                    "vu37p-0", set()).add("ghost")
            else:
                controller._idle_lru.pop()

        simulator = ClusterSimulator(system, "books")
        # Long after the last finish: every deployment is idle by then.
        simulator.schedule_external(1.0, corrupt)
        with pytest.raises(SimulationError, match=f"the {books} index"):
            simulator.run(_tasks(["gru-h512-t1", "lstm-h256-t150"] * 3))


class TestBaselineSystem:
    def test_static_assignment_precomputed(self):
        system = BaselineSystem(paper_cluster())
        # Every pool model has a static home.
        from repro.workloads.deepbench import MODEL_POOL

        for specs in MODEL_POOL.values():
            for spec in specs:
                assert spec.key in system._assignment

    def test_large_model_assigned_pair(self):
        system = BaselineSystem(paper_cluster())
        boards = system._assignment["gru-h2304-t250"]
        assert len(boards) == 2

    def test_tasks_stick_to_assigned_board(self):
        system = BaselineSystem(paper_cluster())
        result = _run(system, _tasks(["gru-h512-t1"] * 6))
        assert len(result.completed) == 6
        board = system._assignment["gru-h512-t1"][0]
        assert board.resident_model == "gru-h512-t1"

    def test_switch_cost_charged_once_model_resident(self):
        system = BaselineSystem(paper_cluster())
        result = _run(system, _tasks(["lstm-h512-t25"] * 5, gap=1.0))
        services = sorted(t.service_s for t in result.completed)
        # First task pays the weight load; later ones do not.
        assert services[-1] > 2 * services[0]

    @pytest.mark.parametrize("model, boards",
                             [("lstm-h1024-t25", 1), ("gru-h2560-t375", 2)])
    def test_model_outside_the_pool_gets_a_static_home(self, model, boards):
        """A model the offline assignment never saw is placed on first
        use, on one board or on a pair, and keeps that home."""
        from repro.workloads.deepbench import MODEL_POOL

        assert model not in {
            spec.key for specs in MODEL_POOL.values() for spec in specs
        }
        system = BaselineSystem(paper_cluster())
        pool_assignment = dict(system._assignment)
        result = _run(system, _tasks([model] * 3))
        assert len(result.completed) == 3
        assert len(system._assignment[model]) == boards
        del system._assignment[model]
        assert system._assignment == pool_assignment

    def test_declines_say_why(self):
        """A start clears ``task.decline``; a decline names its cause,
        ``"busy"`` boards or no static home (``"capacity"``), and only a
        finish can help either."""
        system = BaselineSystem(paper_cluster())
        first, second = _tasks(["gru-h512-t1"] * 2)
        first.decline = "busy"
        assert system.try_start(first, 0.0) is not None
        assert first.decline is None
        assert system.try_start(second, 0.0) is None
        assert (second.decline, second.retry_at) == ("busy", math.inf)
        system._assign_extra = lambda spec: None  # no board can host it
        (homeless,) = _tasks(["lstm-h1024-t25"])
        assert system.try_start(homeless, 0.0) is None
        assert (homeless.decline, homeless.retry_at) == ("capacity", math.inf)

    def test_whole_board_occupied(self):
        system = BaselineSystem(paper_cluster())
        # Two tasks of the same model serialise on their single board even
        # though the cluster has four boards.
        result = _run(system, _tasks(["gru-h512-t1"] * 2))
        first, second = sorted(result.completed, key=lambda t: t.start_s)
        assert second.start_s >= first.finish_s


class TestSystemComparison:
    @pytest.mark.parametrize("set_index", [0, 6])
    def test_proposed_beats_baseline(self, set_index):
        """The Fig. 12 headline on compositions with robust margins (the
        pure-L set's margin is within seed noise; the full averaged sweep
        lives in the benchmark harness)."""
        comp = TABLE1_COMPOSITIONS[set_index]
        tasks = generate_workload(comp, 80, arrival_rate_per_s=1e5, seed=42)
        throughput = {}
        for name in ("baseline", "proposed"):
            system = build_system(
                name, paper_cluster(), Catalog(VitalCompiler())
            )
            throughput[name] = _run(system, tasks).throughput
        assert throughput["proposed"] > throughput["baseline"]

    def test_heterogeneous_pairing_beats_restricted_on_pure_L(self):
        comp = TABLE1_COMPOSITIONS[2]  # 100% L
        tasks = generate_workload(comp, 60, arrival_rate_per_s=1e5, seed=7)
        throughput = {}
        for name in ("restricted", "proposed"):
            system = build_system(
                name, paper_cluster(), Catalog(VitalCompiler())
            )
            throughput[name] = _run(system, tasks).throughput
        assert throughput["proposed"] > 1.1 * throughput["restricted"]
