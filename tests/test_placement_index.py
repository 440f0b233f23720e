"""Placement index and controller bookkeeping tests.

Covers the index's candidate order for every placement policy (including
mixed-type merges), the two index-corruption regressions
(stale/duplicate notifications must raise, not silently corrupt), the
ring-adjacency service-estimate regression, the board-residency reverse
index, the simulator's per-(tenant, model) pending queues, and chaos
storms that recount the index after failure/repair churn.
"""

import math
import random

import pytest

from repro.cluster import ClusterSimulator, Task, scaled_cluster
from repro.cluster.topology import FPGACluster, paper_cluster
from repro.errors import AllocationError
from repro.runtime import Catalog, build_system
from repro.runtime.controller import PlacementIndex, PlacementPolicy
from repro.vital import VitalCompiler
from repro.vital.device import XCVU37P
from repro.vital.virtual_block import BoardHealth, PhysicalFPGA


@pytest.fixture(scope="module")
def shared_catalog():
    return Catalog(VitalCompiler())


def _proposed(cluster, catalog, **kwargs):
    return build_system("proposed", cluster, catalog, **kwargs)


class TestIterCandidates:
    """``iter_candidates`` yields exactly the qualifying boards, in the
    policy's total order, across device types."""

    def _randomly_loaded(self, seed):
        cluster = scaled_cluster(24)
        rng = random.Random(seed)
        for at, board in enumerate(cluster.boards.values()):
            blocks = rng.randint(0, board.free_blocks)
            if blocks:
                board.allocate(f"dep-{at}", blocks)
        cluster.board("vu37p-4").set_health(BoardHealth.FAILED)
        return cluster, PlacementIndex(cluster)

    @pytest.mark.parametrize("seed", [5, 23])
    @pytest.mark.parametrize("policy", list(PlacementPolicy))
    def test_order_matches_policy(self, seed, policy):
        cluster, index = self._randomly_loaded(seed)
        requirements = {"XCVU37P": 3, "XCKU115": 5}
        feasible = [
            (board.free_blocks, board.fpga_id)
            for board in cluster.boards.values()
            if board.health is BoardHealth.HEALTHY
            and board.free_blocks >= requirements[board.model.name]
        ]
        if policy is PlacementPolicy.BEST_FIT:
            expected = [fpga_id for _, fpga_id in sorted(feasible)]
        else:
            expected = [
                fpga_id
                for _, fpga_id in sorted(
                    feasible, key=lambda entry: (-entry[0], entry[1])
                )
            ]
        streamed = [
            board.fpga_id
            for board in index.iter_candidates(requirements, policy)
        ]
        assert streamed == expected
        assert "vu37p-4" not in streamed


class TestIndexCorruptionRegression:
    """A stale or duplicated board notification used to bisect-pop
    whatever entry was at the insertion point — another board's entry —
    and silently corrupt the index.  It must raise instead."""

    def _index(self):
        board = PhysicalFPGA("b0", XCVU37P)
        other = PhysicalFPGA("b1", XCVU37P)
        return PlacementIndex([board, other]), board

    def test_stale_occupancy_notification_raises(self):
        index, board = self._index()
        with pytest.raises(AllocationError, match="index corruption"):
            index._on_change(board, board.free_blocks - 3)
        assert index.check_consistent()

    def test_duplicate_occupancy_notification_raises(self):
        index, board = self._index()
        old_free = board.free_blocks
        board.allocate("d", 2)  # delivers the genuine notification
        with pytest.raises(AllocationError, match="index corruption"):
            index._on_change(board, old_free)  # replayed: entry already moved
        assert index.check_consistent()

    def test_duplicate_health_notification_raises(self):
        index, board = self._index()
        board.set_health(BoardHealth.FAILED)  # genuine removal
        with pytest.raises(AllocationError, match="index corruption"):
            index._on_health(board, BoardHealth.HEALTHY)  # replayed removal
        assert index.check_consistent()

    def test_mismatch_does_not_remove_other_boards_entry(self):
        index, board = self._index()
        try:
            index._on_change(board, board.free_blocks + 1)
        except AllocationError:
            pass
        # The neighbour's entry survived the bad notification.
        assert index.check_consistent()


class TestServiceEstimateAdjacency:
    """Two same-type-mix assignments with different ring adjacency must
    not share one cached service estimate (the old cache key bug let
    ``_find_placement``'s min() rank the slower pair with the faster
    pair's number)."""

    def _two_replica_plan(self, controller):
        entry = controller.catalog.entry_by_key("gru-h2560-t375")
        for plan in entry.sorted_plans():
            if plan.replicas == 2 and "XCVU37P" in plan.images:
                return plan
        raise AssertionError("expected a 2-replica XCVU37P plan")

    def test_adjacency_changes_the_estimate(self, shared_catalog):
        cluster = FPGACluster(
            [PhysicalFPGA(f"vu37p-{i}", XCVU37P) for i in range(6)]
        )
        system = _proposed(cluster, shared_catalog)
        controller = system.controller
        plan = self._two_replica_plan(controller)
        image = plan.images["XCVU37P"]
        boards = list(cluster.boards.values())
        adjacent = [(boards[0], image), (boards[1], image)]  # 1 hop
        far = [(boards[0], image), (boards[3], image)]  # 3 hops
        assert controller._hop_signature(adjacent) == 1
        assert controller._hop_signature(far) == 3
        est_adjacent = controller._estimate_service(plan, adjacent)
        est_far = controller._estimate_service(plan, far)
        assert est_far > est_adjacent

    def test_same_signature_still_shares_cache(self, shared_catalog):
        cluster = FPGACluster(
            [PhysicalFPGA(f"vu37p-{i}", XCVU37P) for i in range(6)]
        )
        system = _proposed(cluster, shared_catalog)
        controller = system.controller
        plan = self._two_replica_plan(controller)
        image = plan.images["XCVU37P"]
        boards = list(cluster.boards.values())
        controller._estimate_service(
            plan, [(boards[0], image), (boards[1], image)]
        )
        entries = len(shared_catalog._service_cache)
        # A different adjacent pair: same types, same hop signature.
        controller._estimate_service(
            plan, [(boards[2], image), (boards[3], image)]
        )
        assert len(shared_catalog._service_cache) == entries


class _Picky:
    """Starts each listed task id once (for 1 s) and declines the rest,
    without a retry hint, so every pass re-asks every queued task."""

    def __init__(self, accept=()):
        self.accept = set(accept)
        self.calls = []

    def try_start(self, task, now):
        self.calls.append(task.task_id)
        if task.task_id in self.accept:
            self.accept.discard(task.task_id)
            return 1.0
        return None

    def on_finish(self, task, now):
        pass


class _PreemptOnce(_Picky):
    """Starts ``victim``; the first attempt of any other task aborts it
    from inside ``try_start``, in the middle of a dispatch pass."""

    def __init__(self, victim):
        super().__init__({victim.task_id})
        self.victim = victim
        self.during = None

    def bind_simulator(self, simulator):
        self.simulator = simulator

    def try_start(self, task, now):
        if task is not self.victim and self.during is None:
            self.simulator.abort_running(self.victim)
            self.during = (self.simulator.pending_count,
                           _queued_ids(self.simulator))
        return super().try_start(task, now)


class _Condemning(_Picky):
    """:class:`_Picky` whose ``try_start`` first runs the action set for
    that task id (a ``drop_queued`` call), and whose declines' ``retry_at``
    parks the model (``inf``) once ``park`` is set."""

    def __init__(self, accept=()):
        super().__init__(accept)
        self.park = False
        self.actions = {}

    def bind_simulator(self, simulator):
        self.simulator = simulator

    def try_start(self, task, now):
        action = self.actions.pop(task.task_id, None)
        if action is not None:
            action()
        service = super().try_start(task, now)
        if service is None:
            task.retry_at = math.inf if self.park else now
        return service


def _queued_ids(simulator, key=("", "m")):
    queue = simulator._queues.get(key)
    return [task.task_id for _, _, task in queue.entries] if queue else []


class TestPendingQueues:
    """The simulator's per-(tenant, model) FIFO queues."""

    def test_removal_from_the_middle_of_a_queue(self):
        # The head declines, so the pass moves on and starts a later task
        # of the same model: it leaves from the middle of its queue.
        scheduler = _Picky(accept={1})
        simulator = ClusterSimulator(scheduler)
        tasks = [Task(task_id=i, model_key="m", arrival_s=0.0)
                 for i in range(3)]
        for task in tasks:
            simulator._arrive(task)
        assert tasks[1].start_s == 0.0
        assert _queued_ids(simulator) == [0, 2]
        assert simulator.pending_count == 2
        assert simulator.queue_view == {"m": 2}

    def test_observed_counts_per_model_over_tenants(self):
        scheduler = _Picky()
        simulator = ClusterSimulator(scheduler)
        for task_id, model, tenant in ((0, "b", "x"), (1, "a", "x"),
                                       (2, "b", "y"), (3, "b", "x")):
            simulator._arrive(Task(task_id=task_id, model_key=model,
                                   arrival_s=0.0, tenant=tenant))
        assert list(simulator.queue_view.items()) == [("b", 3), ("a", 1)]
        assert simulator.pending_count == 4
        assert _queued_ids(simulator, ("x", "b")) == [0, 3]

    def test_requeue_returns_to_original_place(self):
        scheduler = _Picky(accept={1})
        simulator = ClusterSimulator(scheduler)
        tasks = [Task(task_id=i, model_key="m", arrival_s=0.0)
                 for i in range(3)]
        for task in tasks:
            simulator._arrive(task)
        simulator.abort_running(tasks[1])
        assert tasks[1].start_s == -1.0
        assert _queued_ids(simulator) == [0, 1, 2]
        assert simulator.pending_count == 3

    def test_mid_pass_requeue_joins_when_the_pass_ends(self):
        victim = Task(task_id=0, model_key="m", arrival_s=0.0)
        scheduler = _PreemptOnce(victim)
        simulator = ClusterSimulator(scheduler)
        simulator._arrive(victim)
        assert victim.start_s == 0.0
        simulator._arrive(Task(task_id=1, model_key="m", arrival_s=0.0))
        # Counted at once, queued only after the pass that aborted it.
        assert scheduler.during == (2, [1])
        assert _queued_ids(simulator) == [0, 1]
        assert simulator.pending_count == 2
        assert scheduler.calls == [0, 1]

    @staticmethod
    def _backlog(scheduler, models):
        """A simulator holding one declined task per entry of ``models``,
        all arriving at 0 in that order (ids 0, 1, ...)."""
        simulator = ClusterSimulator(scheduler)
        tasks = [Task(task_id=i, model_key=m, arrival_s=0.0)
                 for i, m in enumerate(models)]
        for task in tasks:
            simulator._arrive(task)
        scheduler.calls.clear()
        return simulator, tasks

    def test_drop_the_task_just_tried(self):
        # Task 0 is dropped inside its own try_start (an abandon); the
        # pass goes on at task 1, the next in merged order, and starts it.
        scheduler = _Condemning()
        simulator, tasks = self._backlog(scheduler, "mmm")
        scheduler.accept = {1}
        scheduler.actions[0] = lambda: simulator.drop_queued(tasks[0])
        simulator._arrive(Task(task_id=3, model_key="m", arrival_s=0.0))
        assert scheduler.calls[:4] == [0, 1, 2, 3]
        assert tasks[1].start_s == 0.0
        assert [t.task_id for t in simulator._result.dropped] == [0]
        assert _queued_ids(simulator) == [2, 3]
        assert simulator.pending_count == 2

    def test_drop_before_a_parked_queues_cursor(self):
        # Task 0 declines and parks model m behind it; task 1 (model x)
        # drops it and starts.  The start resumes m at its first task past
        # task 1 in merged order: task 2, now at the queue's head.
        scheduler = _Condemning()
        simulator, tasks = self._backlog(scheduler, "mxmm")
        scheduler.park = True
        scheduler.accept = {1}
        scheduler.actions[1] = lambda: simulator.drop_queued(tasks[0])
        simulator._arrive(Task(task_id=4, model_key="y", arrival_s=0.0))
        assert scheduler.calls == [0, 1, 2, 4]
        assert _queued_ids(simulator) == [2, 3]
        assert simulator.pending_count == 3
        assert [t.task_id for t in simulator._result.dropped] == [0]

    def test_drop_a_task_requeued_mid_pass(self):
        # A task aborted inside a pass waits in the requeue list until the
        # pass ends; dropped there, it never rejoins its queue.
        scheduler = _Condemning(accept={0})
        simulator = ClusterSimulator(scheduler)
        victim = Task(task_id=0, model_key="m", arrival_s=0.0)
        simulator._arrive(victim)
        assert victim.start_s == 0.0

        def preempt_then_drop():
            simulator.abort_running(victim)
            assert simulator.pending_count == 2
            simulator.drop_queued(victim)
            assert simulator.pending_count == 1

        scheduler.actions[1] = preempt_then_drop
        simulator._arrive(Task(task_id=1, model_key="m", arrival_s=0.0))
        assert simulator._requeued == []
        assert _queued_ids(simulator) == [1]
        assert [t.task_id for t in simulator._result.dropped] == [0]

    def test_drop_a_queues_last_task(self):
        # Dropping a queue's only task removes the queue; a later arrival
        # of the model opens a fresh one.
        scheduler = _Condemning()
        simulator, tasks = self._backlog(scheduler, "m")
        simulator.drop_queued(tasks[0])
        assert simulator._queues == {}
        assert simulator.pending_count == 0
        assert [t.task_id for t in simulator._result.dropped] == [0]
        scheduler.accept = {1}
        simulator._arrive(Task(task_id=1, model_key="m", arrival_s=0.0))
        assert scheduler.calls == [1]
        assert simulator.pending_count == 0


class TestResidencyIndex:
    def test_tracks_deploys_and_evictions(self, shared_catalog):
        cluster = paper_cluster()
        controller = _proposed(cluster, shared_catalog).controller
        first, _ = controller.deploy("gru-h512-t1")
        second, _ = controller.deploy("lstm-h256-t150")
        assert controller.check_residents_consistent()
        on_board = controller.deployments_on(first.placements[0].fpga_id)
        assert first in on_board
        controller.evict(first)
        assert controller.check_residents_consistent()
        assert first not in controller.deployments_on(
            second.placements[0].fpga_id
        )

    def test_deployments_on_creation_order(self, shared_catalog):
        cluster = paper_cluster()
        controller = _proposed(cluster, shared_catalog).controller
        keys = ["gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25"]
        created = [controller.deploy(key)[0] for key in keys]
        shared = [
            board.fpga_id
            for board in cluster.boards.values()
            if len(board.owners()) >= 2
        ]
        assert shared, "expected spatial sharing on at least one board"
        residents = controller.deployments_on(shared[0])
        order = [created.index(d) for d in residents]
        assert order == sorted(order)

    def test_migration_updates_residency(self, shared_catalog):
        cluster = paper_cluster()
        system = _proposed(cluster, shared_catalog, defrag=True)
        controller = system.controller
        deployment, _ = controller.deploy("gru-h512-t1")
        src = deployment.placements[0].fpga_id
        image_types = deployment.plan.images
        destination = next(
            board
            for board in cluster.boards.values()
            if board.fpga_id != src
            and board.model.name in image_types
            and board.can_host(image_types[board.model.name].virtual_blocks)
        )
        engine = controller.migration
        plan = engine.plan_move(deployment, {0: destination})
        engine.begin(plan, now=0.0)
        engine.finish(plan, now=0.0)
        assert controller.check_residents_consistent()
        assert deployment not in controller.deployments_on(src)
        assert deployment in controller.deployments_on(destination.fpga_id)


def _chaos_storm(board_count, steps, seed, catalog):
    """Deploy/evict/fail/repair storm on a bound simulator, whose clock
    runs restores and backoff retries; returns (cluster, controller)."""
    cluster = scaled_cluster(board_count)
    system = _proposed(cluster, catalog, recovery=True)
    controller = system.controller
    simulator = ClusterSimulator(system, "chaos")
    rng = random.Random(seed)
    keys = ["gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25", "gru-h1536-t375"]
    board_ids = sorted(cluster.boards)
    live = []
    now = 0.0
    for _step in range(steps):
        now += 0.005
        simulator.queue.run(until=now)
        action = rng.random()
        if action < 0.5:
            try:
                deployment, _ = controller.deploy(rng.choice(keys), now=now)
            except AllocationError:
                pass
            else:
                live.append(deployment)
        elif action < 0.65 and live:
            deployment = live.pop(rng.randrange(len(live)))
            if deployment.deployment_id in controller.deployments:
                controller.evict(deployment)
        elif action < 0.85:
            board = cluster.board(rng.choice(board_ids))
            if board.health is BoardHealth.HEALTHY:
                controller.on_board_failure(board, now)
        else:
            board = cluster.board(rng.choice(board_ids))
            if board.health is not BoardHealth.HEALTHY:
                controller.on_board_repair(board)
        live = [
            d for d in live if d.deployment_id in controller.deployments
        ]
    simulator.queue.run()
    return cluster, controller


class TestChaosInvariants:
    def test_storm_keeps_index_consistent(self, shared_catalog):
        """Moderate scale in tier-1: failures/repairs/evictions across 64
        boards leave the placement index and the residency index equal to
        a from-scratch recount."""
        cluster, controller = _chaos_storm(
            64, steps=220, seed=77, catalog=shared_catalog
        )
        assert controller.index.check_consistent()
        assert controller.check_residents_consistent()
        assert controller.check_idle_consistent()
        for board in cluster.boards.values():
            assert board.free_blocks == board.recount_free_blocks()
        assert controller.stats.boards_failed > 0
        assert controller.stats.boards_repaired > 0

    @pytest.mark.slow
    def test_thousand_board_chaos_storm(self, shared_catalog):
        """The 1000-board acceptance storm (a ``slow`` test, run by its own
        CI step): the index stays consistent through sustained
        failure/repair churn at full scale."""
        cluster, controller = _chaos_storm(
            1000, steps=1500, seed=2025, catalog=shared_catalog
        )
        assert controller.index.check_consistent()
        assert controller.check_residents_consistent()
        assert controller.check_idle_consistent()
        for board in cluster.boards.values():
            assert board.free_blocks == board.recount_free_blocks()
        assert controller.stats.boards_failed > 100
        assert controller.stats.recoveries > 0
