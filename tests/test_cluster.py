"""Cluster-substrate tests: event queue, ring network, topology and the
discrete-event simulator."""

import copy
import random

import pytest

from repro.cluster import (
    ClusterSimulator,
    EventQueue,
    FPGACluster,
    NetworkParameters,
    RingNetwork,
    Task,
    paper_cluster,
)
from repro.errors import SimulationError
from repro.units import us
from repro.vital import XCKU115, XCVU37P, PhysicalFPGA


class TestEventQueue:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule_all([(2.0, fired.append, ("late",)),
                            (1.0, fired.append, ("early",))])
        queue.run()
        assert fired == ["early", "late"]

    def test_ties_break_by_insertion(self):
        queue = EventQueue()
        fired = []
        queue.schedule_all([(1.0, fired.append, ("first",)),
                            (1.0, fired.append, ("second",))])
        queue.schedule_all([(1.0, fired.append, ("third",))])
        queue.run()
        assert fired == ["first", "second", "third"]

    def test_schedule_in_relative(self):
        queue = EventQueue()
        fired = []
        queue.schedule_all([
            (1.0, lambda: queue.schedule_in(0.5, fired.append, "x"), ()),
        ])
        queue.run()
        assert queue.now == pytest.approx(1.5)

    def test_past_scheduling_rejected(self):
        queue = EventQueue()
        fired = []
        queue.schedule_all([(1.0, lambda: None, ())])
        queue.run()
        with pytest.raises(SimulationError):
            queue.schedule_all([(2.0, fired.append, ("kept out",)),
                                (0.5, fired.append, ("past",))])
        with pytest.raises(SimulationError):
            queue.schedule_in(-0.5, lambda: None)
        # A refused batch schedules none of its events.
        assert queue.run() == 1.0
        assert fired == []

    def test_run_until(self):
        queue = EventQueue()
        fired = []
        queue.schedule_all([(1.0, fired.append, ("a",)),
                            (5.0, fired.append, ("b",))])
        queue.run(until=2.0)
        assert fired == ["a"]
        assert queue.now == 2.0

    def test_run_until_advances_an_empty_queue(self):
        queue = EventQueue()
        queue.schedule_all([(1.0, lambda: None, ())])
        queue.run(until=3.0)
        assert queue.now == 3.0
        queue.schedule_in(0.5, lambda: None)
        assert queue.run() == 3.5

    def test_runaway_detected(self):
        queue = EventQueue()

        def rearm():
            queue.schedule_in(0.001, rearm)

        queue.schedule_all([(0.0, rearm, ())])
        with pytest.raises(SimulationError, match="runaway"):
            queue.run(max_events=100)

    @pytest.mark.parametrize("seed", range(5))
    def test_bulk_order_equals_one_at_a_time(self, seed):
        """One batch pops in the ``(time, insertion)`` order pushing its
        events one at a time gives, ties included, after events already
        scheduled and beside events pushed while it fires."""
        rng = random.Random(seed)
        times = [rng.choice((0.0, 0.5, 1.0, 1.5, rng.random()))
                 for _ in range(60)]
        fired = []
        queue = EventQueue()
        queue.schedule_in(1.0, fired.append, "before")
        queue.schedule_all([(when, fired.append, (index,))
                            for index, when in enumerate(times)])
        queue.schedule_in(0.5, fired.append, "after")
        queue.run()
        pushed = [(1.0, -1, "before")]
        pushed += [(when, index, index) for index, when in enumerate(times)]
        pushed.append((0.5, len(times), "after"))
        assert fired == [label for *_, label in sorted(pushed)]

class TestRingNetwork:
    def _ring(self, nodes=4, **kwargs):
        ids = [f"n{i}" for i in range(nodes)]
        return RingNetwork(ids, NetworkParameters(**kwargs))

    def test_needs_two_nodes(self):
        with pytest.raises(SimulationError):
            RingNetwork(["solo"])

    def test_hops_shortest_direction(self):
        ring = self._ring(4)
        assert ring.hops("n0", "n1") == 1
        assert ring.hops("n0", "n3") == 1  # wraps around
        assert ring.hops("n0", "n2") == 2

    def test_unknown_node(self):
        with pytest.raises(SimulationError):
            self._ring().hops("n0", "ghost")

    def test_transfer_time_same_node_serialisation_only(self):
        """Loopback transfers pay one serialisation pass, no link costs.

        A zero-byte loopback is genuinely free, a non-trivial one costs
        exactly the FIFO streaming time: no per-hop latency.
        """
        ring = self._ring()
        assert ring.transfer_time("n0", "n0", 0) == 0.0
        expected = 8.0 * 1000 / ring.params.bandwidth_bps
        loopback = ring.transfer_time("n0", "n0", 1000)
        assert loopback == pytest.approx(expected)
        # Strictly cheaper than the equivalent one-hop transfer.
        assert loopback < ring.transfer_time("n0", "n1", 1000)

    def test_transfer_time_same_node_validates_nodes(self):
        """src == dst must not bypass node-membership validation."""
        with pytest.raises(SimulationError):
            self._ring().transfer_time("ghost", "ghost", 1000)

    def test_transfer_time_scales_with_bytes_and_hops(self):
        ring = self._ring(4)
        one = ring.transfer_time("n0", "n1", 1024)
        two_hops = ring.transfer_time("n0", "n2", 1024)
        bigger = ring.transfer_time("n0", "n1", 4096)
        assert two_hops > one
        assert bigger > one

    def test_added_latency_knob(self):
        """The Fig. 11 counter+FIFO module: a pure additive delay."""
        ring = self._ring()
        base = ring.exchange_time(["n0", "n1"], 512)
        delayed = ring.exchange_time(["n0", "n1"], 512, added_latency_s=us(0.6))
        assert delayed - base == pytest.approx(us(0.6))

    def test_exchange_single_member_free(self):
        assert self._ring().exchange_time(["n0"], 512) == 0.0

    def test_exchange_worst_pair_dominates(self):
        ring = self._ring(6)
        near = ring.exchange_time(["n0", "n1"], 256)
        far = ring.exchange_time(["n0", "n3"], 256)
        assert far > near


class TestTopology:
    def test_paper_cluster_composition(self):
        cluster = paper_cluster()
        assert len(cluster.boards) == 4
        assert len(cluster.boards_of_type("XCVU37P")) == 3
        assert len(cluster.boards_of_type("XCKU115")) == 1
        assert cluster.device_types() == ["XCVU37P", "XCKU115"]

    def test_total_free_blocks(self):
        free = paper_cluster().total_free_blocks()
        assert free == {"XCVU37P": 48, "XCKU115": 10}

    def test_reset_releases_everything(self):
        cluster = paper_cluster()
        cluster.board("vu37p-0").allocate("d", 5)
        cluster.reset()
        assert cluster.board("vu37p-0").free_blocks == 16

    def test_duplicate_ids_rejected(self):
        boards = [PhysicalFPGA("same", XCVU37P), PhysicalFPGA("same", XCKU115)]
        with pytest.raises(SimulationError):
            FPGACluster(boards)

    def test_unknown_board(self):
        with pytest.raises(SimulationError):
            paper_cluster().board("nope")


class _OneSlotScheduler:
    """Test double: one task at a time, fixed service."""

    def __init__(self, service=1.0):
        self.service = service
        self.busy = False
        self.started = []

    def try_start(self, task, now):
        if self.busy:
            return None
        self.busy = True
        self.started.append(task.task_id)
        return self.service

    def on_finish(self, task, now):
        self.busy = False


class _ResidencyScheduler:
    """One-slot test double with the optional ``dispatch_key`` method:
    one model is 'resident' (hot), starts without reconfiguration, and
    its queue sorts first."""

    def __init__(self, hot="hot"):
        self.hot = hot
        self.busy = False
        self.order = []

    def dispatch_key(self, task):
        return (task.model_key != self.hot,)

    def try_start(self, task, now):
        if self.busy:
            return None
        self.busy = True
        self.order.append(task.model_key)
        return 0.01

    def on_finish(self, task, now):
        self.busy = False


class _TimeGatedScheduler:
    """Declines every task until it has aged past a fixed gate, and
    writes the gate in ``task.retry_at`` so the simulator can skip the
    provably fruitless attempts in between."""

    hinted = True

    def __init__(self, gate_s=0.1):
        self.gate_s = gate_s
        self.attempts = 0
        self.hints = 0

    def try_start(self, task, now):
        self.attempts += 1
        if now - task.arrival_s < self.gate_s:
            if self.hinted:
                self.hints += 1
                task.retry_at = task.arrival_s + self.gate_s
            return None
        return 0.001

    def on_finish(self, task, now):
        pass


class _UnhintedTimeGatedScheduler(_TimeGatedScheduler):
    """Same gate, no hint (``task.retry_at`` keeps its default)."""

    hinted = False


class TestOptionalSchedulerProtocol:
    """The simulator must work with and without the optional
    ``dispatch_key`` method (discovered via getattr) and a declining
    scheduler's ``task.retry_at``."""

    def test_fast_path_tasks_served_first(self):
        scheduler = _ResidencyScheduler(hot="hot")
        tasks = [
            Task(task_id=0, model_key="hot", arrival_s=0.0, size_class="S"),
            Task(task_id=1, model_key="cold", arrival_s=0.0, size_class="S"),
            Task(task_id=2, model_key="hot", arrival_s=0.0, size_class="S"),
        ]
        result = ClusterSimulator(scheduler, "t").run(tasks)
        assert len(result.completed) == 3
        # The first hot task takes the slot; cold and hot queue behind it.
        # FIFO would then serve cold first — the locality pass reorders the
        # scan so the resident model's queued work drains first.
        assert scheduler.order == ["hot", "hot", "cold"]

    def test_retry_at_gates_attempts(self):
        scheduler = _TimeGatedScheduler(gate_s=0.1)
        task = Task(task_id=0, model_key="m", arrival_s=0.0, size_class="S")
        result = ClusterSimulator(scheduler, "t").run([task])
        assert len(result.completed) == 1
        # One declined attempt sets the watermark; the hint then suppresses
        # every retry poll until the clock reaches the gate.
        assert scheduler.hints == 1
        assert scheduler.attempts == 2

    def test_no_hint_falls_back_to_exhaustive_retry(self):
        scheduler = _UnhintedTimeGatedScheduler(gate_s=0.1)
        task = Task(task_id=0, model_key="m", arrival_s=0.0, size_class="S")
        result = ClusterSimulator(scheduler, "t").run([task])
        assert len(result.completed) == 1
        assert scheduler.hints == 0
        # Without a hint the simulator re-attempts on every retry poll:
        # many more try_start calls for the identical schedule.
        assert scheduler.attempts > 10


class TestClusterSimulator:
    def _tasks(self, count, gap=0.0):
        return [
            Task(task_id=i, model_key="m", arrival_s=i * gap, size_class="S")
            for i in range(count)
        ]

    def test_serialises_on_one_slot(self):
        scheduler = _OneSlotScheduler(service=1.0)
        result = ClusterSimulator(scheduler, "test").run(self._tasks(3))
        assert len(result.completed) == 3
        assert result.makespan_s == pytest.approx(3.0)
        assert result.throughput == pytest.approx(1.0)

    def test_latency_accounts_queueing(self):
        scheduler = _OneSlotScheduler(service=1.0)
        result = ClusterSimulator(scheduler, "test").run(self._tasks(2))
        by_id = {t.task_id: t for t in result.completed}
        assert by_id[0].latency_s == pytest.approx(1.0)
        assert by_id[1].latency_s == pytest.approx(2.0)

    def test_no_tasks_rejected(self):
        with pytest.raises(SimulationError):
            ClusterSimulator(_OneSlotScheduler(), "t").run([])

    def test_task_runs_in_one_simulation_only(self):
        """A task carries its run's state (its enqueue seq, its run
        epoch), so a second run refuses it; a copy runs afresh."""
        tasks = self._tasks(2)
        pristine = copy.deepcopy(tasks)
        ClusterSimulator(_OneSlotScheduler(), "first").run(tasks)
        with pytest.raises(SimulationError, match="already arrived"):
            ClusterSimulator(_OneSlotScheduler(), "second").run(tasks)
        again = ClusterSimulator(_OneSlotScheduler(), "copy").run(pristine)
        assert len(again.completed) == 2

    def test_task_listed_twice_rejected(self):
        tasks = self._tasks(2)
        with pytest.raises(SimulationError, match="already arrived"):
            ClusterSimulator(_OneSlotScheduler(), "t").run(tasks + tasks[:1])

    def test_lost_task_fails_the_run(self):
        """The run counts its outcomes: a task that leaves the result
        without a drop is caught at run end."""

        class Losing(_OneSlotScheduler):
            def bind_simulator(self, simulator):
                self.simulator = simulator

            def on_finish(self, task, now):
                super().on_finish(task, now)
                completed = self.simulator._result.completed
                if completed:
                    completed.pop(0)  # forget an earlier finish

        with pytest.raises(SimulationError, match="3 tasks offered"):
            ClusterSimulator(Losing(), "t").run(self._tasks(3))

    def test_negative_service_rejected(self):
        class Bad:
            def try_start(self, task, now):
                return -1.0

            def on_finish(self, task, now):
                pass

        with pytest.raises(SimulationError, match="negative"):
            ClusterSimulator(Bad(), "t").run(self._tasks(1))

    def test_never_placeable_detected(self):
        class Never:
            def try_start(self, task, now):
                return None

            def on_finish(self, task, now):  # pragma: no cover
                pass

        with pytest.raises(SimulationError):
            ClusterSimulator(Never(), "t").run(self._tasks(1))

