"""Fault-injection and failure-recovery tests (:mod:`repro.faults`).

Covers the health-state machine on boards and its placement-index
surfacing, the seeded injector's determinism, the recovery manager's four
paths (same-width checkpoint restore, deferred recovery at release,
scale-down fallback, backoff retry/abandonment) and the DES integration —
including that the whole subsystem is inert when disabled.
"""

import pytest

from repro.cluster import ClusterSimulator, Task, paper_cluster
from repro.errors import AllocationError, SimulationError
from repro.faults import FaultInjector, FaultModelParameters
from repro.faults.recovery import MAX_RETRIES, backoff_s
from repro.runtime import Catalog, build_system
from repro.runtime.deployment import Deployment, DeploymentState
from repro.vital import BoardHealth, VitalCompiler
from repro.vital.device import XCVU37P
from repro.vital.virtual_block import PhysicalFPGA


@pytest.fixture(scope="module")
def catalog():
    return Catalog(VitalCompiler())


def _system(catalog, recovery=True, **kwargs):
    cluster = paper_cluster()
    system = build_system("proposed", cluster, catalog, recovery=recovery,
                          **kwargs)
    return cluster, system


class TestBoardHealth:
    def test_healthy_board_is_placeable(self):
        board = PhysicalFPGA("b0", XCVU37P)
        assert board.health is BoardHealth.HEALTHY
        assert board.can_host(4)

    def test_degraded_and_failed_refuse_new_placements(self):
        board = PhysicalFPGA("b0", XCVU37P)
        board.set_health(BoardHealth.DEGRADED)
        assert not board.can_host(1)
        board.set_health(BoardHealth.FAILED)
        assert not board.can_host(1)
        with pytest.raises(AllocationError, match="failed"):
            board.allocate("d", 2)

    def test_degraded_board_can_still_release(self):
        board = PhysicalFPGA("b0", XCVU37P)
        board.allocate("d", 3)
        board.set_health(BoardHealth.DEGRADED)
        assert board.release("d") == 3

    def test_health_subscription_fires_once_per_transition(self):
        board = PhysicalFPGA("b0", XCVU37P)
        seen = []
        board.subscribe_health(lambda b, old: seen.append((old, b.health)))
        board.set_health(BoardHealth.FAILED)
        board.set_health(BoardHealth.FAILED)  # no-op
        board.set_health(BoardHealth.HEALTHY)
        assert seen == [
            (BoardHealth.HEALTHY, BoardHealth.FAILED),
            (BoardHealth.FAILED, BoardHealth.HEALTHY),
        ]

    def test_index_excludes_unhealthy_boards(self, catalog):
        cluster, system = _system(catalog, recovery=False)
        controller = system.controller
        board = cluster.board("vu37p-0")
        before = controller.index.count_with_at_least("XCVU37P", 1)
        controller.on_board_degraded(board)
        assert controller.index.count_with_at_least("XCVU37P", 1) == before - 1
        assert board not in controller.index.boards_by_id("XCVU37P")
        assert controller.index.check_consistent()
        controller.on_board_repair(board)
        assert controller.index.count_with_at_least("XCVU37P", 1) == before
        assert controller.index.check_consistent()

    def test_repair_reimages_failed_board(self, catalog):
        cluster, system = _system(catalog, recovery=False)
        controller = system.controller
        deployment, _ = controller.deploy("gru-h512-t1")
        board = cluster.board(deployment.placements[0].fpga_id)
        controller.on_board_failure(board, now=0.0)
        assert board.health is BoardHealth.FAILED
        assert board.used_blocks > 0  # blocks still attributed
        controller.on_board_repair(board)
        assert board.health is BoardHealth.HEALTHY
        assert board.used_blocks == 0  # re-imaged empty
        assert controller.index.check_consistent()
        # The stale deployment's later teardown is a harmless no-op.
        controller.evict(deployment)
        assert controller.index.check_consistent()


class TestCheckpointCadence:
    def test_last_checkpoint_arithmetic(self):
        deployment = Deployment(
            deployment_id="d", model_key="m", plan=None,
            checkpoint_origin_s=1.0,
        )
        assert deployment.last_checkpoint_s(1.24, 0.05) == pytest.approx(1.2)
        assert deployment.last_checkpoint_s(1.25, 0.05) == pytest.approx(1.25)
        assert deployment.last_checkpoint_s(0.5, 0.05) == 1.0  # before origin
        assert deployment.last_checkpoint_s(9.0, 0.0) == 1.0  # disabled


class TestRecovery:
    def test_idle_deployment_recovers_immediately(self, catalog):
        cluster, system = _system(catalog)
        controller = system.controller
        simulator = ClusterSimulator(system, "t")
        deployment, _ = controller.deploy("gru-h512-t1", now=0.0)
        failed_board = deployment.placements[0].fpga_id
        simulator.queue.run(until=0.13)
        controller.on_board_failure(cluster.board(failed_board), now=0.13)
        # The restore starts at the failure and completes as a timed event.
        restoring = controller.deployments_of("gru-h512-t1")
        assert [d.state for d in restoring] == [DeploymentState.RECOVERING]
        assert controller.recovery.restores_started == 1
        simulator.queue.run()
        stats = controller.stats
        assert stats.deployments_failed == 1
        assert stats.recoveries == 1
        assert deployment.deployment_id not in controller.deployments
        replacement = controller.find_idle_deployment("gru-h512-t1")
        assert replacement is not None
        assert failed_board not in replacement.member_fpgas
        assert replacement.recoveries == 1
        # Lost work = time since the last periodic checkpoint (50 ms grid).
        assert stats.lost_work_s == pytest.approx(0.03)
        assert controller.index.check_consistent()

    def test_busy_deployment_defers_recovery_to_release(self, catalog):
        cluster, system = _system(catalog)
        controller = system.controller
        simulator = ClusterSimulator(system, "t")
        deployment, _ = controller.deploy("gru-h512-t1", now=0.0)
        controller.acquire(deployment)
        board = cluster.board(deployment.placements[0].fpga_id)
        simulator.queue.run(until=0.01)
        controller.on_board_failure(board, now=0.01)
        # Not yanked mid-task: flagged, still accounted as failed.
        assert deployment.pending_recovery
        assert controller.stats.deployments_failed == 1
        assert controller.stats.recoveries == 0
        assert deployment.deployment_id in controller.deployments
        simulator.queue.run(until=0.02)
        controller.release(deployment, now=0.02)
        simulator.queue.run()
        assert controller.stats.recoveries == 1
        assert deployment.deployment_id not in controller.deployments
        replacement = controller.find_idle_deployment("gru-h512-t1")
        assert replacement is not None
        assert board.fpga_id not in replacement.member_fpgas

    def test_scale_down_fallback_when_same_width_cannot_fit(self, catalog):
        cluster, system = _system(catalog)
        controller = system.controller
        simulator = ClusterSimulator(system, "t")
        # lstm-h512-t25 plans: 1x5 VU37P (or 1x4 KU115), or 2x3 VU37P.
        cluster.board("ku115-0").allocate("blocker", 10)
        cluster.board("vu37p-1").allocate("blocker", 13)  # 3 free
        cluster.board("vu37p-2").allocate("blocker", 13)  # 3 free
        deployment, _ = controller.deploy("lstm-h512-t25", now=0.0)
        assert deployment.member_fpgas == ["vu37p-0"]
        assert deployment.plan.replicas == 1
        simulator.queue.run(until=0.01)
        controller.on_board_failure(cluster.board("vu37p-0"), now=0.01)
        simulator.queue.run()
        stats = controller.stats
        assert stats.recoveries == 1
        assert stats.scale_down_recoveries == 1
        replacement = controller.find_idle_deployment("lstm-h512-t25")
        assert replacement.plan.replicas == 2
        assert sorted(replacement.member_fpgas) == ["vu37p-1", "vu37p-2"]

    def test_recovery_abandoned_when_nothing_fits(self, catalog):
        cluster, system = _system(catalog)
        controller = system.controller
        simulator = ClusterSimulator(system, "t")
        cluster.board("ku115-0").allocate("blocker", 10)
        cluster.board("vu37p-1").allocate("blocker", 14)  # 2 free
        cluster.board("vu37p-2").allocate("blocker", 14)  # 2 free
        deployment, _ = controller.deploy("lstm-h512-t25", now=0.0)
        simulator.queue.run(until=0.01)
        controller.on_board_failure(cluster.board("vu37p-0"), now=0.01)
        simulator.queue.run()
        stats = controller.stats
        # Capacity never returns: every backoff retry fails, then the
        # failure is counted and the deployment given up.
        assert stats.recovery_retries == MAX_RETRIES
        assert stats.recovery_backoff_s == pytest.approx(
            sum(backoff_s(attempt) for attempt in range(MAX_RETRIES))
        )
        assert stats.recoveries == 0
        assert stats.recovery_failures == 1
        assert controller.find_idle_deployment("lstm-h512-t25") is None
        assert controller.index.check_consistent()

    def test_failure_under_a_restore_goes_around_again(self, catalog):
        cluster, system = _system(catalog)
        controller = system.controller
        simulator = ClusterSimulator(system, "t")
        deployment, _ = controller.deploy("gru-h512-t1", now=0.0)
        simulator.queue.run(until=0.01)
        controller.on_board_failure(
            cluster.board(deployment.placements[0].fpga_id), now=0.01
        )
        (restoring,) = controller.deployments_of("gru-h512-t1")
        assert restoring.state is DeploymentState.RECOVERING
        # The restore target fails while its blocks are being configured:
        # the restore is flagged, not yanked, and sits on a FAILED board.
        simulator.queue.run(until=0.011)
        target = cluster.board(restoring.placements[0].fpga_id)
        controller.on_board_failure(target, now=0.011)
        assert restoring.pending_recovery
        assert not restoring.is_idle
        assert restoring.deployment_id in controller.deployments
        # Its completion event starts a second restore elsewhere.
        simulator.queue.run()
        stats = controller.stats
        assert stats.deployments_failed == 2
        assert controller.recovery.restores_started == 2
        assert stats.recoveries == 1
        (replacement,) = controller.deployments_of("gru-h512-t1")
        assert replacement.is_idle
        assert target.fpga_id not in replacement.member_fpgas
        assert controller.index.check_consistent()

    def test_backoff_retries_succeed_when_capacity_returns(self, catalog):
        cluster, system = _system(catalog)
        controller = system.controller
        simulator = ClusterSimulator(system, "t")  # binds the DES
        cluster.board("ku115-0").allocate("blocker", 10)
        cluster.board("vu37p-1").allocate("blocker", 14)  # 2 free
        cluster.board("vu37p-2").allocate("blocker", 14)  # 2 free
        deployment, _ = controller.deploy("lstm-h512-t25", now=0.0)
        failed = cluster.board("vu37p-0")
        simulator.schedule_external(
            0.001, lambda now: controller.on_board_failure(failed, now)
        )
        # Capacity returns mid-backoff: the blocker drains off vu37p-1.
        simulator.schedule_external(
            0.02, lambda now: cluster.board("vu37p-1").release("blocker")
        )
        simulator.queue.run()
        stats = controller.stats
        assert stats.recovery_retries >= 3
        assert stats.recovery_failures == 0
        assert stats.recoveries == 1
        replacement = controller.find_idle_deployment("lstm-h512-t25")
        assert replacement is not None
        assert replacement.state is DeploymentState.IDLE
        assert replacement.member_fpgas == ["vu37p-1"]

    def test_recovery_disabled_leaves_broken_deployment_alone(self, catalog):
        cluster, system = _system(catalog, recovery=False)
        controller = system.controller
        deployment, _ = controller.deploy("gru-h512-t1", now=0.0)
        board = cluster.board(deployment.placements[0].fpga_id)
        controller.on_board_failure(board, now=0.01)
        assert controller.stats.deployments_failed == 0
        assert deployment.deployment_id in controller.deployments
        assert not deployment.pending_recovery


class TestFaultInjector:
    def _armed(self, catalog, params):
        cluster, system = _system(catalog)
        simulator = ClusterSimulator(system, "t")
        injector = FaultInjector(simulator, system.controller, params)
        return cluster, system, simulator, injector

    def test_timeline_is_deterministic_per_seed(self, catalog):
        params = FaultModelParameters(mtbf_s=0.3, mttr_s=0.05, seed=11)
        counts = []
        for _ in range(2):
            _, _, _, injector = self._armed(catalog, params)
            counts.append(injector.arm(2.0))
        assert counts[0] == counts[1] > 0

    def test_bad_params_rejected(self, catalog):
        _, _, simulator, _ = self._armed(catalog, None)
        bad = FaultInjector(
            simulator, simulator.scheduler.controller,
            FaultModelParameters(mtbf_s=0.0),
        )
        with pytest.raises(SimulationError, match="positive"):
            bad.arm(1.0)

    def test_availability_accounting(self, catalog):
        cluster, system = _system(catalog, recovery=False)
        simulator = ClusterSimulator(system, "t")
        injector = FaultInjector(simulator, system.controller)
        injector._fail("vu37p-0", False, 1.0)
        injector._repair("vu37p-0", 2.0)  # 1 s down
        injector._fail("vu37p-1", False, 3.0)  # still down at horizon
        # 2 board-seconds down out of 4 boards x 4 s.
        assert injector.availability(4.0) == pytest.approx(1.0 - 2.0 / 16.0)
        assert injector.failures_injected == 2
        assert injector.repairs_applied == 1

    def test_degraded_fraction_drains_instead_of_failing(self, catalog):
        cluster, system = _system(catalog)
        simulator = ClusterSimulator(system, "t")
        injector = FaultInjector(
            simulator, system.controller,
            FaultModelParameters(degraded_fraction=1.0),
        )
        injector._fail("vu37p-0", True, 0.5)
        board = cluster.board("vu37p-0")
        assert board.health is BoardHealth.DEGRADED
        assert system.controller.stats.boards_degraded == 1
        assert system.controller.stats.boards_failed == 0


class TestFaultsUnderSimulation:
    def _stream(self, count=36):
        keys = ("gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25")
        return [
            Task(task_id=i, model_key=keys[i % 3], arrival_s=i * 0.004,
                 size_class="S")
            for i in range(count)
        ]

    def _run(self, catalog, mtbf_s=0.15, seed=7):
        cluster, system = _system(catalog)
        simulator = ClusterSimulator(system, "t")
        tasks = self._stream()
        injector = FaultInjector(
            simulator, system.controller,
            FaultModelParameters(mtbf_s=mtbf_s, mttr_s=0.05, seed=seed),
        )
        injector.arm(tasks[-1].arrival_s)
        result = simulator.run(tasks)
        assert system.controller.check_residents_consistent()
        assert system.controller.check_idle_consistent()
        return system.controller.stats, injector, result

    def test_all_tasks_complete_despite_faults(self, catalog):
        stats, injector, result = self._run(catalog)
        assert len(result.completed) == 36
        assert injector.failures_injected > 0
        assert stats.boards_failed == injector.failures_injected
        # Every lost deployment was either rebuilt or is retrying at exit.
        assert stats.recoveries + stats.recovery_failures > 0

    def test_fault_runs_are_reproducible(self, catalog):
        first = self._run(catalog)
        second = self._run(catalog)
        assert repr(first[2].makespan_s) == repr(second[2].makespan_s)
        assert first[0].recoveries == second[0].recoveries
        assert first[0].lost_work_s == second[0].lost_work_s
        assert first[1].availability(first[2].makespan_s) == pytest.approx(
            second[1].availability(second[2].makespan_s)
        )
