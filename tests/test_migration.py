"""Checkpoint/restore + live-migration subsystem tests.

Covers the three layers separately and together:

* ISA-level checkpoints: capture/serialise/restore identity, including
  mid-loop snapshots and scale-out fabrics with in-flight slices.
* The migration engine: same-type and cross-type moves at runtime level,
  validation errors, and the begin/finish dual-occupancy window.
* Defragmentation: the fragmentation metric, compaction planning, and the
  end-to-end DES run where a placement failure triggers defrag.

The subsystem is off by default; the last test class pins that.
"""

import numpy as np
import pytest

from repro.accel.codegen import (
    OUT_BASE,
    X_BASE,
    GRUCodegen,
    LSTMCodegen,
    build_scaleout_programs,
)
from repro.accel.functional import FunctionalSimulator, WeightImage, run_program
from repro.cluster import ClusterSimulator, Task, paper_cluster, scaled_cluster
from repro.errors import AllocationError, DeploymentError, ReproError
from repro.isa.assembler import assemble
from repro.isa.instructions import Instruction, Op, halt, v_rd
from repro.isa.program import Program
from repro.migration import (
    AcceleratorCheckpoint,
    FabricCheckpoint,
    MigrationEngine,
    architectural_state_bytes,
    checkpoint_scaleout,
    cluster_fragmentation,
    fragmentation,
    plan_defrag,
    restore_scaleout,
)
from repro.runtime import Catalog, build_system
from repro.runtime.controller import SystemController
from repro.runtime.deployment import DeploymentState
from repro.vital import LowLevelController, VitalCompiler


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


LOOP_SOURCE = (
    "v_fill v0, 0.0, 4\n"
    "v_fill v1, 1.0, 4\n"
    "loop 6\n"
    "vv_add v0, v0, v1, 4\n"
    "v_wr v0, 0x80, 4\n"
    "endloop\n"
    "halt\n"
)


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


class TestAcceleratorCheckpoint:
    def _mid_loop_sim(self):
        sim = FunctionalSimulator(assemble(LOOP_SOURCE, name="loopy"))
        # Step into the middle of the third loop iteration.
        for _ in range(12):
            sim.step()
        assert sim.loop_stack, "snapshot point must be mid-loop"
        return sim

    def test_mid_loop_capture_restore_identity(self):
        original = self._mid_loop_sim()
        checkpoint = AcceleratorCheckpoint.capture(original)
        restored = checkpoint.restore(assemble(LOOP_SOURCE, name="loopy"))
        original.run()
        restored.run()
        assert np.array_equal(restored.vector(0), original.vector(0))
        assert np.array_equal(
            restored.dram.read(0x80, 4), original.dram.read(0x80, 4)
        )
        assert restored.stats.instructions == original.stats.instructions

    def test_capture_does_not_alias_live_state(self):
        sim = self._mid_loop_sim()
        checkpoint = AcceleratorCheckpoint.capture(sim)
        before = checkpoint.vrf[0].copy()
        sim.run()  # keeps mutating v0 after the snapshot
        assert np.array_equal(checkpoint.vrf[0], before)

    def test_serialise_roundtrip(self):
        checkpoint = AcceleratorCheckpoint.capture(self._mid_loop_sim())
        clone = AcceleratorCheckpoint.from_bytes(checkpoint.to_bytes())
        assert clone.pc == checkpoint.pc
        assert clone.loop_stack == checkpoint.loop_stack
        for register, values in checkpoint.vrf.items():
            assert np.array_equal(clone.vrf[register], values)
        assert np.array_equal(clone.dram, checkpoint.dram)
        assert vars(clone.stats) == vars(checkpoint.stats)
        assert checkpoint.payload_bytes() == len(checkpoint.to_bytes())

    def test_serialise_preserves_matrix_shapes(self, gru_small):
        weights, xs = gru_small
        gen = GRUCodegen(weights, xs.shape[0])
        sim = FunctionalSimulator(gen.build())
        gen.preload(sim, xs)
        for _ in range(40):
            sim.step()
        checkpoint = AcceleratorCheckpoint.capture(sim)
        clone = AcceleratorCheckpoint.from_bytes(checkpoint.to_bytes())
        for register, matrix in checkpoint.mrf.items():
            assert clone.mrf[register].shape == matrix.shape
            assert np.array_equal(clone.mrf[register], matrix)

    def test_restore_keeps_inexact_products_bitwise(self):
        """Block scales spread over 2**-40..2**40 make the product inexact,
        so its float64 bits depend on the BLAS kernel: a restored matrix
        register keeps the column-major layout and resumes to the
        uninterrupted run's product bit for bit."""
        rng = np.random.default_rng(0)

        def spread(shape):
            return np.repeat(2.0 ** rng.integers(-40, 40, shape), 16, axis=-1)

        matrix = rng.normal(0.0, 1.0, (64, 256)) * spread((64, 16))
        x = rng.normal(0.0, 1.0, 256) * spread(16)
        program = Program(name="inexact")
        program.append(v_rd(0, 0x100, 256))
        program.append(Instruction(Op.M_RD, dst=0, addr=0x10000, length=64, imm=256.0))
        program.append(halt())
        sim = FunctionalSimulator(program)
        sim.dram.write(0x100, x)
        sim.dram.write(0x10000, matrix.ravel())
        sim.run()
        checkpoint = AcceleratorCheckpoint.capture(sim)
        resumed = AcceleratorCheckpoint.from_bytes(checkpoint.to_bytes()).restore(program)
        operand = sim._convert(sim.vector(0))[0]
        assert np.array_equal(resumed.mrf[0] @ operand, sim.mrf[0] @ operand)

    def test_lstm_mid_loop_roundtrip_on_paged_dram(self, lstm_small):
        """Inputs at X_BASE, weights from a resident image: the snapshot
        resumes to the uninterrupted run's output, bitwise."""
        weights, xs = lstm_small
        gen = LSTMCodegen(weights, xs.shape[0])
        program = gen.build()
        straight = FunctionalSimulator(program)
        gen.preload(straight, xs)
        straight.run()

        partial = FunctionalSimulator(program, image=WeightImage.build(
            gen.preload_weights))
        gen.preload_inputs(partial, xs)
        while partial.loop_stack == [] or partial.loop_stack[-1][2] < 2:
            partial.step()
        assert not partial.finished
        checkpoint = AcceleratorCheckpoint.capture(partial)
        assert checkpoint.dram.size == X_BASE + xs.size
        assert np.array_equal(checkpoint.dram[X_BASE:], xs.ravel())

        resumed = checkpoint.restore(program)
        resumed.run()
        assert np.array_equal(
            resumed.dram.read(OUT_BASE, weights.hidden),
            straight.dram.read(OUT_BASE, weights.hidden),
        )
        assert np.array_equal(resumed.dram.contents(), straight.dram.contents())

    def test_restore_rejects_wrong_program(self):
        checkpoint = AcceleratorCheckpoint.capture(self._mid_loop_sim())
        with pytest.raises(ReproError, match="cannot resume"):
            checkpoint.restore(assemble("halt\n", name="other"))

    def test_unknown_version_rejected(self):
        blob = AcceleratorCheckpoint.capture(self._mid_loop_sim()).to_bytes()
        tampered = blob.replace(b'"version": 1', b'"version": 99')
        with pytest.raises(ReproError, match="version"):
            AcceleratorCheckpoint.from_bytes(tampered)


class TestScaleOutCheckpoint:
    def _partial_scaleout(self, gru_small, replicas=2):
        weights, xs = gru_small
        t = xs.shape[0]
        programs = build_scaleout_programs("gru", weights, t, replicas)
        gens = [
            GRUCodegen(weights, t, replicas=replicas, replica_index=i)
            for i in range(replicas)
        ]
        from repro.accel.functional import ScaleOutFabric

        fabric = ScaleOutFabric(replicas)
        sims = [
            FunctionalSimulator(program, fabric=fabric, replica_index=i)
            for i, program in enumerate(programs)
        ]
        for i, sim in enumerate(sims):
            gens[i].preload(sim, xs)
        # Run replica 0 until it blocks on the exchange: its slice is now
        # in flight in the fabric while replica 1 has not sent yet.
        status = sims[0].run_until_blocked()
        assert status == "blocked"
        return sims, fabric, weights, xs

    def _drain(self, sims):
        while not all(sim.finished for sim in sims):
            progressed = False
            for sim in sims:
                if sim.finished:
                    continue
                before = sim.stats.instructions
                status = sim.run_until_blocked()
                if sim.stats.instructions > before or status == "halted":
                    progressed = True
            assert progressed, "scale-out deadlock after restore"

    def test_in_flight_slices_survive_migration(self, gru_small):
        sims, fabric, weights, xs = self._partial_scaleout(gru_small)
        replicas = len(sims)
        checkpoints, fabric_checkpoint = checkpoint_scaleout(sims, fabric)

        # Ship the snapshot over the wire (what the migration transfers).
        blobs = [c.to_bytes() for c in checkpoints]
        fabric_blob = fabric_checkpoint.to_bytes()
        restored_sims, restored_fabric = restore_scaleout(
            [AcceleratorCheckpoint.from_bytes(b) for b in blobs],
            FabricCheckpoint.from_bytes(fabric_blob),
            [sim.program for sim in sims],
        )

        self._drain(sims)
        self._drain(restored_sims)
        h = weights.hidden
        slice_rows = h // replicas
        for i in range(replicas):
            assert np.array_equal(
                restored_sims[i].dram.read(OUT_BASE + i * slice_rows, slice_rows),
                sims[i].dram.read(OUT_BASE + i * slice_rows, slice_rows),
            )
        assert restored_fabric.bytes_transferred == fabric.bytes_transferred

    def test_restore_count_mismatch(self, gru_small):
        sims, fabric, _, _ = self._partial_scaleout(gru_small)
        checkpoints, fabric_checkpoint = checkpoint_scaleout(sims, fabric)
        with pytest.raises(ReproError, match="checkpoints"):
            restore_scaleout(checkpoints, fabric_checkpoint, [sims[0].program])


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
        plan = engine.migrate(deployment, {0: destinations[0]}, now=1.0)
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
        # The engine is the one owner of the move count: a direct migrate
        # is counted there, and the controller keeps no copy that could
        # miss it.
        assert engine.migrations_completed == 1
        assert engine.bytes_migrated == plan.state_bytes > 0
        assert not hasattr(controller.stats, "migrations_completed")

    def test_cross_type_move_and_functional_identity(self, shared_catalog):
        """The acceptance property: checkpoint on one device type, restore
        on another board of another type, identical functional output."""
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

        # Run the deployment's program halfway on the source, checkpoint.
        program = deployment.plan.programs[0]
        straight = run_program(program)
        partial = FunctionalSimulator(program)
        for _ in range(len(program.instructions) // 2):
            partial.step()
        checkpoint = AcceleratorCheckpoint.capture(partial)

        engine = controller.migration
        plan = engine.migrate(deployment, {0: destination}, now=2.0)
        move = plan.moves[0]
        assert move.cross_type
        assert move.dst_blocks == deployment.plan.images[other_type].virtual_blocks
        new_placement = deployment.placements[0]
        assert new_placement.device_type == other_type
        assert new_placement.fpga_id == destination.fpga_id
        # Service time was re-estimated for the new device-type mix.
        assert deployment.service_s > 0
        assert controller.index.check_consistent()

        # Resume the shipped snapshot on the destination: same program (the
        # checkpoint is ISA-level), new board and type, identical output.
        resumed = AcceleratorCheckpoint.from_bytes(checkpoint.to_bytes()).restore(
            program
        )
        resumed.run()
        for register in straight.vrf:
            assert np.array_equal(resumed.vector(register), straight.vector(register))

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
        assert move.drain_s == engine.params.drain_s
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
        deployment.acquire()
        with pytest.raises(DeploymentError, match="state is busy"):
            engine.plan_move(deployment, {0: other})
        deployment.release(0.0)
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
        assert plan.move_count == 2  # two 4-block victims open a 16-hole
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
        assert plan.move_count == 1
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
            residents[1].acquire()
            residents[3].acquire()
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
