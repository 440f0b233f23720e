"""Live-migration subsystem tests.

Covers the layers separately and together:

* The state-size model every move, recovery and preemption is priced by.
* The migration engine: same-type and cross-type moves at runtime level,
  validation errors, and the begin/finish dual-occupancy window.
* Defragmentation: the fragmentation metric, compaction planning, and the
  end-to-end DES run where a placement failure triggers defrag.

The subsystem is off by default; the last test class pins that.
"""

import pytest

from repro.cluster import ClusterSimulator, Task, paper_cluster, scaled_cluster
from repro.errors import AllocationError, DeploymentError, ReproError
from repro.migration import (
    MigrationEngine,
    architectural_state_bytes,
    cluster_fragmentation,
    fragmentation,
    plan_defrag,
)
from repro.runtime import Catalog, build_system
from repro.runtime.controller import SystemController
from repro.runtime.deployment import DeploymentState
from repro.tenancy import TenantParameters, TenantScheduler
from repro.vital import LowLevelController, VitalCompiler
from repro.workloads.deepbench import all_models
from tests.queueing import queue_tasks


@pytest.fixture(scope="module")
def shared_catalog():
    return Catalog(VitalCompiler())


def _controller(catalog, **kwargs):
    cluster = paper_cluster()
    controller = SystemController(
        cluster,
        catalog,
        LowLevelController(catalog.compiler.store),
        migration_enabled=True,
        **kwargs,
    )
    return controller, cluster


class TestStateSizeModel:
    def test_program_footprint_never_exceeds_config_maximum(self, shared_catalog):
        entry = shared_catalog.entry_by_key("gru-h512-t1")
        plan = entry.sorted_plans()[0]
        for device_type in plan.feasible_types:
            config = plan.images[device_type].instance
            for program in plan.programs:
                sized = architectural_state_bytes(config, program)
                ceiling = architectural_state_bytes(config)
                assert 0 < sized <= ceiling

    def test_scales_with_model_size(self, shared_catalog):
        small = shared_catalog.entry_by_key("gru-h512-t1").sorted_plans()[0]
        large = shared_catalog.entry_by_key("gru-h1536-t375").sorted_plans()[0]
        device = small.feasible_types[0]
        assert architectural_state_bytes(
            large.images[device].instance, large.programs[0]
        ) > architectural_state_bytes(
            small.images[device].instance, small.programs[0]
        )


class TestHostStream:
    def test_one_method_prices_every_checkpoint_to_host(self, shared_catalog):
        """``host_stream_s`` is bit for bit the sum each caller pays: a
        recovery restore (reconfiguration first), an autoscaler retire
        (drain first) and a preemption's stream (no leading term; the
        teardown adds the drain in front of it)."""
        for spec in all_models():
            controller, cluster = _controller(shared_catalog)
            plan = shared_catalog.entry(spec).sorted_plans()[0]
            deployment, _ = controller.place_plan(plan, 0.0)
            engine = controller.migration
            drain = engine.DRAIN_S
            state_bytes = sum(
                engine.state_bytes(deployment, index)
                for index in range(len(deployment.placements))
            )
            link = cluster.host_link
            reconfig = sum(
                placement.virtual_blocks
                for placement in deployment.placements
            ) * controller.reconfig_s_per_block
            latency = link.latency_s
            transfer = state_bytes * 8.0 / link.bandwidth_bps
            assert engine.host_stream_s(deployment, reconfig) == (
                reconfig + latency + transfer
            ), spec.key
            assert engine.host_stream_s(deployment, drain) == (
                drain + latency + transfer
            ), spec.key
            assert engine.host_stream_s(deployment) == (
                latency + transfer
            ), spec.key


class TestMigrationEngine:
    def test_same_type_move(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h512-t1")
        src = deployment.placements[0].fpga_id
        src_type = deployment.placements[0].device_type
        service_before = deployment.service_s
        destinations = [
            board
            for board in cluster.boards.values()
            if board.model.name == src_type and board.fpga_id != src
        ]
        engine = controller.migration
        plan = engine.plan_move(deployment, {0: destinations[0]})
        engine.begin(plan, now=1.0)
        engine.finish(plan, now=1.0)
        placement = deployment.placements[0]
        assert placement.fpga_id == destinations[0].fpga_id
        assert cluster.board(src).free_blocks == len(cluster.board(src).blocks)
        assert destinations[0].owned_indices(deployment.deployment_id) == (
            placement.block_indices
        )
        assert deployment.state is DeploymentState.IDLE
        assert deployment.migrations == 1
        assert deployment.service_s == pytest.approx(service_before)
        assert plan.total_cost_s > 0
        assert controller.index.check_consistent()
        # The engine is the one owner of the move count: a direct move
        # is counted there, and the controller keeps no copy that could
        # miss it.
        assert engine.migrations_completed == 1
        assert engine.bytes_migrated == plan.state_bytes > 0
        assert not hasattr(controller.stats, "migrations_completed")

    def test_move_to_another_device_type(self, shared_catalog):
        """A replica moves to a board of another device type: the plan's
        image for that type is placed there and the indexes follow."""
        controller, cluster = _controller(shared_catalog)
        deployment, _ = controller.deploy("lstm-h256-t150")
        src_placement = deployment.placements[0]
        other_type = next(
            t
            for t in deployment.plan.feasible_types
            if t != src_placement.device_type
        )
        destination = next(
            board
            for board in cluster.boards.values()
            if board.model.name == other_type
        )

        engine = controller.migration
        plan = engine.plan_move(deployment, {0: destination})
        engine.begin(plan, now=2.0)
        engine.finish(plan, now=2.0)
        move = plan.moves[0]
        assert move.src_type != move.dst_type == other_type
        assert move.dst_blocks == deployment.plan.images[other_type].virtual_blocks
        new_placement = deployment.placements[0]
        assert new_placement.device_type == other_type
        assert new_placement.fpga_id == destination.fpga_id
        # Service time was re-estimated for the new device-type mix.
        assert deployment.service_s > 0
        assert controller.index.check_consistent()

    def test_move_costs_follow_the_model(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h512-t1")
        placement = deployment.placements[0]
        destination = next(
            board
            for board in cluster.boards.values()
            if board.model.name == placement.device_type
            and board.fpga_id != placement.fpga_id
        )
        engine = controller.migration
        plan = engine.plan_move(deployment, {0: destination})
        move = plan.moves[0]
        assert move.drain_s == engine.DRAIN_S
        assert move.transfer_s == cluster.network.transfer_time(
            move.src_fpga, move.dst_fpga, move.state_bytes
        )
        assert move.reconfig_s == pytest.approx(
            move.dst_blocks * controller.reconfig_s_per_block
        )
        assert move.cost_s == pytest.approx(
            move.drain_s + move.transfer_s + move.reconfig_s
        )

    def test_plan_rejects_busy_and_bad_targets(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h512-t1")
        engine = controller.migration
        src = cluster.board(deployment.placements[0].fpga_id)
        other = next(
            board
            for board in cluster.boards.values()
            if board.fpga_id != src.fpga_id
            and board.model.name in deployment.plan.images
        )
        with pytest.raises(DeploymentError, match="already resides"):
            engine.plan_move(deployment, {0: src})
        controller.acquire(deployment)
        with pytest.raises(DeploymentError, match="state is busy"):
            engine.plan_move(deployment, {0: other})
        controller.release(deployment, 0.0)
        with pytest.raises(ReproError, match="no replica"):
            engine.plan_move(deployment, {7: other})

    def test_plan_rejects_type_without_image(self, shared_catalog):
        """lstm-h1536-t50 maps onto the VU37P only — a KU115 target has no
        image in the mapping database and must be refused."""
        controller, cluster = _controller(shared_catalog)
        deployment, _ = controller.deploy("lstm-h1536-t50")
        assert list(deployment.plan.images) == ["XCVU37P"]
        ku115 = next(
            board
            for board in cluster.boards.values()
            if board.model.name == "XCKU115"
        )
        with pytest.raises(DeploymentError, match="no image"):
            controller.migration.plan_move(deployment, {0: ku115})

    def test_plan_rejects_full_destination(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h512-t1")
        placement = deployment.placements[0]
        destination = next(
            board
            for board in cluster.boards.values()
            if board.model.name == placement.device_type
            and board.fpga_id != placement.fpga_id
        )
        destination.allocate("squatter", destination.free_blocks)
        with pytest.raises(DeploymentError, match="cannot host"):
            controller.migration.plan_move(deployment, {0: destination})

    def test_begin_finish_dual_occupancy(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h512-t1")
        src = cluster.board(deployment.placements[0].fpga_id)
        src_used = src.used_blocks
        destination = next(
            board
            for board in cluster.boards.values()
            if board.model.name == src.model.name
            and board.fpga_id != src.fpga_id
        )
        engine = controller.migration
        plan = engine.plan_move(deployment, {0: destination})
        cost = engine.begin(plan, now=0.0)
        assert cost == pytest.approx(plan.total_cost_s)
        # Mid-move: the deployment holds blocks on BOTH boards and is
        # neither servable nor evictable.
        assert deployment.state is DeploymentState.MIGRATING
        assert src.used_blocks == src_used
        assert destination.used_blocks == plan.moves[0].dst_blocks
        with pytest.raises(AllocationError, match="cannot evict"):
            controller.evict(deployment)
        engine.finish(plan, now=cost)
        assert src.used_blocks == 0
        assert deployment.state is DeploymentState.IDLE
        assert controller.index.check_consistent()


def _shatter_vu37p(controller, cluster):
    """Block the KU115 and leave every VU37P board with an 8-block hole.

    12 four-block deployments fill the three VU37P boards; evicting one
    resident in every half-board leaves 8 free blocks per board — plenty
    of aggregate space, but no 14-block hole for gru-h1536-t375.
    """
    ku115 = cluster.board("ku115-0")
    ku115.allocate("pinned", ku115.free_blocks)
    deployments = [controller.deploy("gru-h512-t1")[0] for _ in range(12)]
    by_board: dict[str, list] = {}
    for deployment in deployments:
        by_board.setdefault(deployment.placements[0].fpga_id, []).append(
            deployment
        )
    assert sorted(by_board) == ["vu37p-0", "vu37p-1", "vu37p-2"]
    for residents in by_board.values():
        controller.evict(residents[0])
        controller.evict(residents[2])
    return by_board


class TestDefrag:
    def test_fragmentation_metric(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        index = controller.index
        # Classic external-fragmentation form: even an empty three-board
        # type reads 1 - 16/48 because the free space spans three holes.
        assert fragmentation(index, "XCVU37P") == pytest.approx(1 - 16 / 48)
        # All free space concentrated on one board: not fragmented.
        cluster.board("vu37p-1").allocate("a", 16)
        cluster.board("vu37p-2").allocate("b", 16)
        assert fragmentation(index, "XCVU37P") == 0.0
        # Shatter it: 6+2 free in two holes, largest covers three quarters.
        cluster.board("vu37p-0").allocate("c", 10)
        cluster.board("vu37p-1").release("a")
        cluster.board("vu37p-1").allocate("d", 14)
        assert fragmentation(index, "XCVU37P") == pytest.approx(1 - 6 / 8)
        report = cluster_fragmentation(index)
        assert report["XCKU115"] == 0.0  # one untouched 10-block hole
        assert 0 < report["overall"] < report["XCVU37P"]

    def test_full_type_is_not_fragmented(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        board = cluster.board("ku115-0")
        board.allocate("all", board.free_blocks)
        assert fragmentation(controller.index, "XCKU115") == 0.0

    def test_capacity_shortfall_yields_no_plan(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        for board in cluster.boards.values():
            keep = 2 if board.model.name == "XCVU37P" else 0
            board.allocate("wall", board.free_blocks - keep)
        # 6 free VU37P blocks < the 14 gru-h1536-t375 needs: capacity, not
        # fragmentation — no migration set can help.
        engine = MigrationEngine(controller)
        assert plan_defrag(controller, "gru-h1536-t375", engine) is None

    def test_plan_opens_a_hole_and_executes(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        _shatter_vu37p(controller, cluster)
        with pytest.raises(AllocationError):
            controller.deploy("gru-h1536-t375")
        frag_before = fragmentation(controller.index, "XCVU37P")
        plan = controller.plan_defrag("gru-h1536-t375")
        assert plan is not None
        assert plan.device_type == "XCVU37P"
        assert plan.needed_blocks == 14
        assert len(plan.target_fpgas) == 1
        # Two 4-block victims open a 16-hole.
        assert sum(len(m.moves) for m in plan.migrations) == 2
        cost = controller.begin_defrag(plan, now=0.0)
        assert cost == pytest.approx(plan.total_cost_s) and cost > 0
        controller.finish_defrag(plan, now=cost)
        assert fragmentation(controller.index, "XCVU37P") < frag_before
        deployment, _ = controller.deploy("gru-h1536-t375")
        assert deployment.placements[0].fpga_id in plan.target_fpgas
        assert controller.index.check_consistent()
        assert controller.stats.defrag_plans == 1
        assert controller.migration.migrations_completed == len(plan.migrations)

    def test_compaction_moves_victim_across_the_cluster(self, shared_catalog):
        """Defrag plans over the whole cluster: the only hole-opening move
        sends the victim from the first board to the far end of a
        64-board pool (boards 32 apart in declaration order)."""
        cluster = scaled_cluster(64)
        system = build_system("proposed", cluster, shared_catalog, defrag=True)
        controller = system.controller
        target, destination = cluster.board("vu37p-0"), cluster.board("vu37p-47")
        for board in cluster.boards.values():
            if board is not target:
                board.allocate("wall", board.free_blocks)
        victim, _ = controller.deploy("gru-h512-t1")  # 4 blocks
        assert victim.placements[0].fpga_id == target.fpga_id
        target.allocate("wall", 2)  # target: 10 free; needs 14
        destination.release("wall")
        destination.allocate("wall", 12)  # destination: 4 free
        with pytest.raises(AllocationError):
            controller.deploy("gru-h1536-t375")
        plan = controller.plan_defrag("gru-h1536-t375")
        assert plan is not None
        assert plan.target_fpgas == [target.fpga_id]
        assert sum(len(m.moves) for m in plan.migrations) == 1
        cost = controller.begin_defrag(plan, now=0.0)
        controller.finish_defrag(plan, now=cost)
        assert victim.placements[0].fpga_id == destination.fpga_id
        deployment, _ = controller.deploy("gru-h1536-t375", now=cost)
        assert deployment.placements[0].fpga_id == target.fpga_id
        assert controller.index.check_consistent()
        assert controller.check_residents_consistent()
        assert controller.check_idle_consistent()

    def test_busy_victims_block_the_plan(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        by_board = _shatter_vu37p(controller, cluster)
        for residents in by_board.values():
            controller.acquire(residents[1])
            controller.acquire(residents[3])
        assert controller.plan_defrag("gru-h1536-t375") is None

    def test_des_run_defrags_on_placement_failure(self, shared_catalog):
        system = build_system(
            "proposed", paper_cluster(), shared_catalog, defrag=True
        )
        controller = system.controller
        _shatter_vu37p(controller, controller.cluster)
        simulator = ClusterSimulator(system, system.name)
        result = simulator.run(
            [Task(task_id=0, model_key="gru-h1536-t375", arrival_s=0.0)]
        )
        assert len(result.completed) == 1
        assert controller.stats.defrag_plans >= 1
        assert controller.migration.migrations_completed >= 1
        # The migration window is real simulated time: the task could not
        # start before the defrag completed.
        assert result.completed[0].start_s > 0.0
        assert controller.index.check_consistent()
        assert controller.check_idle_consistent()
        assert simulator.external_events >= 1
        assert controller.migration.bytes_migrated > 0

    def test_a_task_waits_out_its_models_defrag(self, shared_catalog):
        """The capacity refusal that starts a compaction, then a decline
        that names it while it is in flight."""
        system = build_system(
            "proposed", paper_cluster(), shared_catalog, defrag=True
        )
        controller = system.controller
        _shatter_vu37p(controller, controller.cluster)
        ClusterSimulator(system, system.name)  # the defrag's clock
        task = Task(task_id=0, model_key="gru-h1536-t375", arrival_s=0.0)
        assert system.try_start(task, 0.0) is None
        assert task.decline == "capacity"
        assert controller.stats.defrag_plans == 1
        failures = controller.stats.placement_failures
        assert system.try_start(task, 0.0) is None
        assert task.decline == "defrag"
        assert controller.stats.placement_failures == failures

    def test_a_quota_refusal_starts_no_defrag(self, shared_catalog):
        """A tenant over its block quota is refused by policy, not by
        fragmentation: no compaction could let it place."""
        system = build_system(
            "proposed", paper_cluster(), shared_catalog, defrag=True
        )
        controller = system.controller
        _shatter_vu37p(controller, controller.cluster)
        scheduler = TenantScheduler(
            system, [TenantParameters(name="t", block_quota=2)]
        )
        task = Task(task_id=0, model_key="gru-h1536-t375", arrival_s=0.0,
                    tenant="t")
        queue_tasks(scheduler, [task])
        assert scheduler.try_start(task, 0.0) is None
        assert task.decline == "quota"
        assert controller.stats.quota_rejections == 1
        assert controller.stats.defrag_plans == 0

    def test_victims_remain_functional_after_defrag(self, shared_catalog):
        system = build_system(
            "proposed", paper_cluster(), shared_catalog, defrag=True
        )
        controller = system.controller
        _shatter_vu37p(controller, controller.cluster)
        simulator = ClusterSimulator(system, system.name)
        tasks = [
            Task(task_id=0, model_key="gru-h1536-t375", arrival_s=0.0),
            Task(task_id=1, model_key="gru-h512-t1", arrival_s=0.0),
            Task(task_id=2, model_key="gru-h512-t1", arrival_s=0.01),
        ]
        result = simulator.run(tasks)
        assert len(result.completed) == 3
        moved = [
            d
            for d in controller.deployments.values()
            if d.migrations > 0
        ]
        assert moved, "defrag should have migrated at least one victim"


class TestOffByDefault:
    def test_controller_defaults_disabled(self, shared_catalog):
        controller = SystemController(
            paper_cluster(),
            shared_catalog,
            LowLevelController(shared_catalog.compiler.store),
        )
        assert controller.migration_enabled is False
        assert controller.plan_defrag("gru-h1536-t375") is None
        assert controller.stats.defrag_plans == 0

    def test_build_system_defaults_disabled(self, shared_catalog):
        system = build_system("proposed", paper_cluster(), shared_catalog)
        assert system.controller.migration_enabled is False
