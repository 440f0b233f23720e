"""Property-style invariants for the incremental allocator state.

The board free-count cache, the free-index heap, the controller's placement
index and the per-model deployment index are all maintained incrementally;
these tests hammer them with randomized allocate/deploy/release/evict/reset
sequences and assert they always equal a from-scratch recount.
"""

import random

import pytest

from repro.cluster import ClusterSimulator
from repro.cluster.topology import paper_cluster
from repro.errors import AllocationError
from repro.runtime import Catalog, build_system
from repro.runtime.deployment import DeploymentState
from repro.vital import VitalCompiler
from repro.vital.device import XCVU37P
from repro.vital.virtual_block import PhysicalFPGA
from repro.workloads.deepbench import MODEL_POOL


def _assert_board_consistent(board: PhysicalFPGA) -> None:
    assert board.free_blocks == board.recount_free_blocks()
    assert board.used_blocks == len(board.blocks) - board.free_blocks
    owned = {
        block.owner for block in board.blocks if block.owner is not None
    }
    assert board.owners() == owned


class TestBoardCounterInvariants:
    def test_random_allocate_release_sequences(self):
        rng = random.Random(42)
        board = PhysicalFPGA("b0", XCVU37P)
        live_owners: list[str] = []
        next_owner = 0
        for _ in range(2000):
            action = rng.random()
            if action < 0.55 or not live_owners:
                count = rng.randint(1, 6)
                owner = f"d{next_owner}"
                try:
                    indices = board.allocate(owner, count)
                except AllocationError:
                    assert count > board.free_blocks
                else:
                    assert len(indices) == count
                    live_owners.append(owner)
                    next_owner += 1
            elif action < 0.95:
                owner = live_owners.pop(rng.randrange(len(live_owners)))
                assert board.release(owner) > 0
            else:
                board.reset()
                live_owners.clear()
            _assert_board_consistent(board)

    def test_release_unknown_owner_is_noop(self):
        board = PhysicalFPGA("b0", XCVU37P)
        board.allocate("a", 3)
        assert board.release("ghost") == 0
        _assert_board_consistent(board)

    def test_allocation_reuses_lowest_indices(self):
        """The heap hands out the lowest-numbered free blocks, exactly like
        the old first-free scan did."""
        board = PhysicalFPGA("b0", XCVU37P)
        assert board.allocate("a", 3) == [0, 1, 2]
        assert board.allocate("b", 2) == [3, 4]
        board.release("a")
        assert board.allocate("c", 2) == [0, 1]
        _assert_board_consistent(board)

    def test_subscriber_sees_every_change(self):
        board = PhysicalFPGA("b0", XCVU37P)
        deltas: list[tuple[int, int]] = []
        board.subscribe(lambda b, old: deltas.append((old, b.free_blocks)))
        board.allocate("a", 4)
        board.release("a")
        board.allocate("b", 1)
        board.reset()
        total = len(board.blocks)
        assert deltas == [
            (total, total - 4),
            (total - 4, total),
            (total, total - 1),
            (total - 1, total),
        ]


@pytest.fixture(scope="module")
def deployed_controller():
    """A controller with a built catalog over the paper cluster."""
    cluster = paper_cluster()
    system = build_system("proposed", cluster, Catalog(VitalCompiler()))
    return cluster, system.controller


class TestControllerIndexInvariants:
    def test_random_deploy_evict_release(self, deployed_controller):
        cluster, controller = deployed_controller
        rng = random.Random(7)
        model_keys = sorted(
            {spec.key for specs in MODEL_POOL.values() for spec in specs}
        )[:6]
        live = []
        now = 0.0
        for _ in range(300):
            now += 0.01
            action = rng.random()
            if action < 0.5:
                key = rng.choice(model_keys)
                try:
                    deployment, _ = controller.deploy(key, now=now)
                except AllocationError:
                    pass
                else:
                    live.append(deployment)
            elif live:
                deployment = live.pop(rng.randrange(len(live)))
                controller.evict(deployment)
            # Every cached structure equals a from-scratch recount.
            for board in cluster.boards.values():
                _assert_board_consistent(board)
            assert controller.index.check_consistent()
            by_model: dict[str, int] = {}
            for deployment in controller.deployments.values():
                by_model[deployment.model_key] = (
                    by_model.get(deployment.model_key, 0) + 1
                )
            for key in model_keys:
                assert controller.deployment_count(key) == by_model.get(key, 0)

    def test_deploy_evict_storm_full_recount(self):
        """A denser storm than the mixed walk above: bursts of deploys up
        to allocation failure, then bursts of evictions, with a *complete*
        from-scratch recount of every cached structure after each burst."""
        cluster = paper_cluster()
        system = build_system("proposed", cluster, Catalog(VitalCompiler()))
        controller = system.controller
        rng = random.Random(1234)
        model_keys = sorted(
            {spec.key for specs in MODEL_POOL.values() for spec in specs}
        )
        live = []
        now = 0.0
        for _burst in range(25):
            # Deploy burst: hammer until a random number of failures.
            failures_allowed = rng.randint(1, 3)
            while failures_allowed:
                now += 0.001
                try:
                    deployment, _ = controller.deploy(
                        rng.choice(model_keys), now=now
                    )
                except AllocationError:
                    failures_allowed -= 1
                else:
                    live.append(deployment)
            # Evict burst: drop a random fraction of what is resident.
            for _ in range(rng.randint(1, max(1, len(live) // 2))):
                if not live:
                    break
                controller.evict(live.pop(rng.randrange(len(live))))
            # Full recount of every incrementally-maintained structure.
            for board in cluster.boards.values():
                _assert_board_consistent(board)
            assert controller.index.check_consistent()
            used = sum(b.used_blocks for b in cluster.boards.values())
            accounted = sum(
                p.virtual_blocks
                for d in controller.deployments.values()
                for p in d.placements
            )
            assert used == accounted
            assert controller.check_idle_consistent()
            for key in model_keys:
                expected = sum(
                    1
                    for d in controller.deployments.values()
                    if d.model_key == key
                )
                assert controller.deployment_count(key) == expected
        assert live, "storm should leave residents behind"

    def test_migration_storm_keeps_indexes_consistent(self):
        """Random live migrations interleaved with deploys/evicts: the
        placement index and block ownership must survive moves too."""
        cluster = paper_cluster()
        catalog = Catalog(VitalCompiler())
        system = build_system("proposed", cluster, catalog, defrag=True)
        controller = system.controller
        engine = controller.migration
        rng = random.Random(99)
        keys = ["gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25"]
        live = []
        now = 0.0
        migrated = 0
        for _ in range(200):
            now += 0.01
            action = rng.random()
            if action < 0.4:
                try:
                    deployment, _ = controller.deploy(rng.choice(keys), now=now)
                except AllocationError:
                    pass
                else:
                    live.append(deployment)
            elif action < 0.6 and live:
                controller.evict(live.pop(rng.randrange(len(live))))
            elif live:
                deployment = rng.choice(live)
                replica = rng.randrange(len(deployment.placements))
                candidates = [
                    board
                    for board in cluster.boards.values()
                    if board.model.name in deployment.plan.images
                    and board.fpga_id
                    not in {p.fpga_id for p in deployment.placements}
                    and board.free_blocks
                    >= deployment.plan.images[board.model.name].virtual_blocks
                ]
                if candidates:
                    plan = engine.plan_move(
                        deployment, {replica: rng.choice(candidates)}
                    )
                    engine.begin(plan, now)
                    engine.finish(plan, now)
                    migrated += 1
            for board in cluster.boards.values():
                _assert_board_consistent(board)
            assert controller.index.check_consistent()
            assert controller.check_residents_consistent()
            assert controller.check_idle_consistent()
            for deployment in controller.deployments.values():
                assert deployment.state is not DeploymentState.MIGRATING
                for placement in deployment.placements:
                    board = cluster.board(placement.fpga_id)
                    owned = board.owned_indices(deployment.deployment_id)
                    assert owned == placement.block_indices
                    assert len(owned) == placement.virtual_blocks
        assert migrated > 20, "storm should have exercised migration"

    def test_chaos_failure_repair_storm(self):
        """Random board failures and repairs interleaved with deploys,
        evicts and live migrations (recovery armed, restores and backoff
        retries timed on a bound simulator): the cached allocator
        structures must equal a from-scratch recount after every step, no
        two deployments may ever own the same block, and no placement may
        land on an unhealthy board."""
        from repro.vital.virtual_block import BoardHealth

        cluster = paper_cluster()
        system = build_system(
            "proposed", cluster, Catalog(VitalCompiler()), recovery=True
        )
        controller = system.controller
        simulator = ClusterSimulator(system, "chaos")
        engine = controller.migration
        rng = random.Random(2024)
        keys = ["gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25"]
        board_ids = sorted(cluster.boards)
        now = 0.0
        migrated = 0
        recovering_steps = 0
        for _step in range(400):
            now += 0.005
            simulator.queue.run(until=now)
            action = rng.random()
            if action < 0.35:
                try:
                    controller.deploy(rng.choice(keys), now=now)
                except AllocationError:
                    pass
            elif action < 0.45:
                idle = [
                    d for d in controller.deployments.values() if d.is_idle
                ]
                if idle:
                    controller.evict(rng.choice(idle))
            elif action < 0.60:
                idle = [
                    d for d in controller.deployments.values() if d.is_idle
                ]
                if idle:
                    deployment = rng.choice(idle)
                    replica = rng.randrange(len(deployment.placements))
                    occupied = {p.fpga_id for p in deployment.placements}
                    candidates = [
                        board
                        for board in cluster.boards.values()
                        if board.model.name in deployment.plan.images
                        and board.fpga_id not in occupied
                        and board.can_host(
                            deployment.plan.images[
                                board.model.name
                            ].virtual_blocks
                        )
                    ]
                    if candidates:
                        plan = engine.plan_move(
                            deployment, {replica: rng.choice(candidates)}
                        )
                        engine.begin(plan, now)
                        engine.finish(plan, now)
                        migrated += 1
            elif action < 0.70:
                board = cluster.board(rng.choice(board_ids))
                controller.on_board_degraded(board)
            elif action < 0.85:
                board = cluster.board(rng.choice(board_ids))
                controller.on_board_failure(board, now)
            else:
                board = cluster.board(rng.choice(board_ids))
                controller.on_board_repair(board)
            # Every cached structure equals a from-scratch recount, in
            # every health configuration.
            for board in cluster.boards.values():
                _assert_board_consistent(board)
            assert controller.index.check_consistent()
            assert controller.check_residents_consistent()
            assert controller.check_idle_consistent()
            # Never double-place: every block is owned by at most one
            # deployment, and every placement's record matches the board.
            claimed: dict = {}
            for deployment in controller.deployments.values():
                recovering_steps += (
                    deployment.state is DeploymentState.RECOVERING
                )
                on_failed = False
                for placement in deployment.placements:
                    board = cluster.board(placement.fpga_id)
                    owned = board.owned_indices(deployment.deployment_id)
                    assert len(owned) == placement.virtual_blocks
                    for index in owned:
                        slot = (placement.fpga_id, index)
                        assert slot not in claimed, (
                            f"block {slot} owned by both {claimed[slot]} "
                            f"and {deployment.deployment_id}"
                        )
                        claimed[slot] = deployment.deployment_id
                    on_failed |= board.health is BoardHealth.FAILED
                # A FAILED board's residents are recovered or gone, except
                # a restore in flight: it is flagged and goes around again
                # when its completion event fires.
                if on_failed:
                    assert deployment.pending_recovery
                    assert not deployment.is_idle
        simulator.queue.run()
        stats = controller.stats
        assert stats.boards_failed > 20, "storm should have failed boards"
        assert stats.deployments_failed > 0
        assert stats.recoveries > 0, "storm should have exercised recovery"
        assert migrated > 5, "storm should have exercised migration"
        # The paths only a clock reaches: backoff retries and restores in
        # flight.  (This seed fails no board under a restore in flight;
        # tests/test_faults.py covers that path.)
        assert stats.recovery_retries > 0
        assert recovering_steps > 0

    def test_index_tracks_direct_board_allocation(self, deployed_controller):
        """Tests (and tools) allocate on boards directly; the placement
        index must observe those too, not just controller-driven changes."""
        cluster, controller = deployed_controller
        board = cluster.board("vu37p-0")
        take = board.free_blocks
        if take:
            board.allocate("direct-blocker", take)
        assert controller.index.check_consistent()
        assert controller.index.max_free(board.model.name) == max(
            b.free_blocks
            for b in cluster.boards.values()
            if b.model.name == board.model.name
        )
        board.release("direct-blocker")
        assert controller.index.check_consistent()
