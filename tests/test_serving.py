"""Serving-edge tests (:mod:`repro.serving`).

Covers the policy primitives (parameters, backoff), the admission path
(bounded queues, tail drop), deadline expiry and drops at the moment of
condemnation, the placement retry budget and abandonment, the per-board
circuit-breaker state machine (unit and DES-integrated), brownout
plan-switching, the new arrival processes, and the recovery-backoff
surfacing added alongside the frontend.
"""

import dataclasses
import math
import random

import pytest

from repro.cluster import ClusterSimulator, Task, paper_cluster, scaled_cluster
from repro.errors import ReproError
from repro.faults import RecoveryAbandoned
from repro.faults.recovery import MAX_RETRIES, RETRY_BASE_S, RETRY_CAP_S, backoff_s
from repro.runtime import Catalog, build_system
from repro.serving import (
    BreakerState,
    CircuitBreaker,
    Request,
    RequestOutcome,
    ServingFrontend,
    ServingParameters,
)
from repro.serving import policy
from repro.serving.breaker import COOLDOWN_S, SLOW_WEIGHT
from repro.vital import BoardHealth, VitalCompiler
from repro.workloads import diurnal_arrivals, mmpp_arrivals
from tests.queueing import queue_tasks


@pytest.fixture(scope="module")
def catalog():
    return Catalog(VitalCompiler())


def _frontend(catalog, recovery=True, **param_overrides):
    cluster = paper_cluster()
    system = build_system("proposed", cluster, catalog, recovery=recovery)
    params = ServingParameters(**param_overrides)
    return cluster, system, ServingFrontend(system, params)


def _spy_drops(simulator, frontend):
    """Record ``(task_id, now, outcome)`` at every ``drop_queued``, and
    check that each drop takes its task out of the simulator's queue then
    (installed on the simulator: the frontend calls it by attribute)."""
    drops = []
    drop_queued = simulator.drop_queued

    def spy(task):
        pending = simulator.pending_count
        drop_queued(task)
        assert simulator.pending_count == pending - 1
        outcome = task.serving.outcome
        drops.append((task.task_id, simulator.queue.now, outcome))

    simulator.drop_queued = spy
    return drops


def _fail_board(simulator, fpga_id, at, repair_after):
    """Fail one board ``at`` seconds into the run and repair it
    ``repair_after`` seconds later, through the controller's board events."""
    controller = simulator.scheduler.controller
    board = controller.cluster.board(fpga_id)
    simulator.schedule_external(
        at, lambda now: controller.on_board_failure(board, now)
    )
    simulator.schedule_external(
        at + repair_after, lambda _now: controller.on_board_repair(board)
    )


def _fill_cluster(cluster, spare=0):
    """Hold all but ``spare`` free blocks of each board with a blocker:
    with none spare each placement fails for capacity, and nothing can be
    evicted to make room."""
    for board in cluster.boards.values():
        board.allocate("blocker", board.free_blocks - spare)


def _requests(count, model_key="gru-h512-t1", gap_s=0.001, deadline_s=0.0):
    return [
        Request(
            task_id=index,
            model_key=model_key,
            arrival_s=index * gap_s,
            size_class="S",
            deadline_s=deadline_s,
        )
        for index in range(count)
    ]


class TestServingParameters:
    def test_defaults_validate(self):
        ServingParameters()

    def test_bad_knobs_rejected(self):
        with pytest.raises(ReproError):
            ServingParameters(max_queue_depth=0)
        with pytest.raises(ReproError):
            ServingParameters(retry_budget=-1)

    def test_backoff_doubles_and_caps(self):
        assert policy.backoff_s(1) == policy.RETRY_BASE_S == 0.002
        assert policy.backoff_s(2) == 0.004
        assert policy.backoff_s(5) == policy.RETRY_CAP_S == 0.032
        assert policy.backoff_s(9) == policy.RETRY_CAP_S  # capped


class TestAdmission:
    def test_tail_drop_sheds_arrivals_past_the_bound(self, catalog):
        _, _, frontend = _frontend(catalog, max_queue_depth=3)
        tasks = _requests(5)
        admitted = queue_tasks(frontend, tasks)
        assert admitted == [True, True, True, False, False]
        assert frontend.stats.offered == 5
        assert frontend.stats.admitted == 3
        assert frontend.stats.shed == 2
        for task in tasks[3:]:
            assert task.serving.outcome is RequestOutcome.SHED

    def test_queue_bound_sheds_are_counted(self, catalog):
        _, _, frontend = _frontend(catalog, max_queue_depth=1)
        queue_tasks(frontend, _requests(3))
        assert frontend.stats.shed == 2


class TestDeadlines:
    def test_expired_request_never_occupies_a_board(self, catalog):
        cluster, _, frontend = _frontend(catalog)
        for board in cluster.boards.values():
            board.set_health(BoardHealth.FAILED)
        simulator = ClusterSimulator(frontend, "expiry")
        tasks = _requests(4, deadline_s=0.005)
        result = simulator.run(tasks)
        assert not result.completed
        assert len(result.dropped) == 4
        assert frontend.stats.expired == 4
        assert all(task.start_s < 0 for task in result.dropped)
        for task in tasks:
            record = task.serving
            assert record.outcome is RequestOutcome.EXPIRED
            assert not record.started
        # Every board failed before the frontend was bound: the breaker
        # gate, counting at its first read, declined every attempt.
        assert frontend.stats.breaker_rejections > 0

    def test_expiry_is_an_exact_event_not_a_poll(self, catalog):
        cluster, _, frontend = _frontend(catalog)
        for board in cluster.boards.values():
            board.set_health(BoardHealth.FAILED)
        simulator = ClusterSimulator(frontend, "expiry-exact")
        deadline = 0.040
        result = simulator.run(_requests(1, deadline_s=deadline))
        # The run ends at the expiry timer, not at an idle-retry guess.
        assert result.makespan_s == pytest.approx(deadline)

    def test_expiry_lands_at_the_deadline(self, catalog):
        """A request still queued at its deadline expires then: the
        frontend's expiry timer fires at the deadline and takes it out of
        the simulator's queue at once."""
        _, _, frontend = _frontend(
            catalog, default_deadline_s=0.004, max_queue_depth=64
        )
        simulator = ClusterSimulator(frontend, "expiry-semantics")
        drops = _spy_drops(simulator, frontend)
        arrivals = mmpp_arrivals(240, 6000.0, seed=5)
        tasks = [
            Task(task_id=i, model_key=model, arrival_s=arrival,
                 size_class="S")
            for i, (arrival, model) in enumerate(zip(
                arrivals,
                ("gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25") * 80,
            ))
        ]
        result = simulator.run(tasks)
        expired = [(task_id, now) for task_id, now, outcome in drops
                   if outcome is RequestOutcome.EXPIRED]
        assert len(expired) == frontend.stats.expired > 0
        assert len(drops) == len(result.dropped) - frontend.stats.shed
        for task_id, now in expired:
            assert now == tasks[task_id].serving.deadline_s

    def test_condemned_requests_leave_the_queue_at_once(self, catalog):
        """An abandon leaves the simulator's queue at the failed placement
        that condemns it; a shed never entered it."""
        cluster, _, frontend = _frontend(
            catalog, retry_budget=1, max_queue_depth=2,
            default_deadline_s=30.0,
        )
        _fill_cluster(cluster)
        simulator = ClusterSimulator(frontend, "condemned")
        drops = _spy_drops(simulator, frontend)
        # Three arrivals at once into a queue of two: the third is shed at
        # the door.  The first fails placement, backs off (the second
        # waits behind its hint) and fails again past its budget of one;
        # the second then does the same once its model's hint lets it.
        result = simulator.run(_requests(3, gap_s=0.0))
        assert [(task_id, outcome) for task_id, _, outcome in drops] == [
            (0, RequestOutcome.ABANDONED),
            (1, RequestOutcome.ABANDONED),
        ]
        # The first backoff is the first draw of the seed-0 jitter stream.
        jitter = policy.RETRY_JITTER
        first_backoff = policy.backoff_s(1) * (
            1.0 - jitter + 2.0 * jitter * random.Random(0).random()
        )
        assert drops[0][1] == first_backoff < drops[1][1]
        assert [task.task_id for task in result.dropped] == [2, 0, 1]
        assert result.dropped[0].serving.outcome is RequestOutcome.SHED
        assert simulator.pending_count == 0

    def test_request_late_on_arrival_expires_at_the_door(self, catalog):
        _, _, frontend = _frontend(catalog)
        simulator = ClusterSimulator(frontend, "late-arrival")
        late = Request(task_id=0, model_key="gru-h512-t1", arrival_s=0.002,
                       size_class="S", deadline_s=0.001)
        result = simulator.run([late])
        assert result.dropped == [late] and late.start_s < 0
        assert late.serving.outcome is RequestOutcome.EXPIRED
        assert (frontend.stats.admitted, frontend.stats.expired) == (1, 1)
        assert simulator.pending_count == 0

    def test_default_deadline_granted_to_plain_tasks(self, catalog):
        _, _, frontend = _frontend(catalog, default_deadline_s=0.3)
        task = Task(task_id=0, model_key="gru-h512-t1", arrival_s=1.0,
                    size_class="S")
        queue_tasks(frontend, [task])
        assert task.serving.deadline_s == pytest.approx(1.3)


class TestRetryBudget:
    def test_placement_failures_consume_the_budget(self, catalog):
        cluster, _, frontend = _frontend(
            catalog, retry_budget=2, default_deadline_s=30.0,
        )
        _fill_cluster(cluster)
        simulator = ClusterSimulator(frontend, "abandon")
        tasks = _requests(1)
        result = simulator.run(tasks)
        assert not result.completed
        record = tasks[0].serving
        assert record.outcome is RequestOutcome.ABANDONED
        assert record.attempts == 3  # budget of 2 + the final straw
        assert frontend.stats.placement_retries == 2
        assert frontend.stats.abandoned == 1

    def test_waiting_for_busy_deployment_costs_nothing(self, catalog):
        _, _, frontend = _frontend(catalog, default_deadline_s=30.0)
        simulator = ClusterSimulator(frontend, "busy-wait")
        # Far more same-model requests than replicas: the later ones wait
        # behind busy deployments, which is queueing, not failure.
        tasks = _requests(8, gap_s=0.0)
        result = simulator.run(tasks)
        assert len(result.completed) == 8
        assert frontend.stats.abandoned == 0
        for task in tasks:
            assert task.serving.attempts == 0

    def test_retry_at_waits_for_the_earliest_backoff(self, catalog):
        """A model's hint is the earliest moment any of its queued requests
        could act: the inner hint once one is not backing off, else the
        earliest backoff expiry, even when the inner hint is earlier; with
        nothing of the model queued, or every backoff past, the inner
        hint.  A backoff decline writes it, over the system's hint."""
        _, system, frontend = _frontend(catalog)
        tasks = _requests(3, gap_s=0.0)
        assert all(queue_tasks(frontend, tasks))
        # Failures a second apart, each backing off for a few ms.
        for task, failed_at in zip(tasks, (2.0, 1.0, 3.0)):
            frontend._placement_failed(task, failed_at)
        next_s = [task.serving.next_attempt_s for task in tasks]
        assert 1.0 < next_s[1] < 1.5 < 2.0 < next_s[0] < 2.5 < 3.0 < next_s[2]
        system.earliest_retry = lambda task, now: 0.5
        assert frontend.try_start(tasks[0], 1.0) is None
        assert tasks[0].decline == "backoff"
        assert tasks[0].retry_at == next_s[1]
        assert frontend.try_start(tasks[0], 1.5) is None
        assert tasks[0].retry_at == 0.5
        assert frontend._backoff_hint(tasks[0], 4.0, 0.5) == 0.5
        other = _requests(1, model_key="lstm-h256-t150")[0]
        assert frontend._backoff_hint(other, 1.0, 0.5) == 0.5

    def test_backoff_is_jittered_and_bounded(self, catalog):
        _, _, frontend = _frontend(catalog, max_queue_depth=20)
        tasks = _requests(20, gap_s=0.0)
        assert all(queue_tasks(frontend, tasks))
        for task in tasks:
            frontend._placement_failed(task, 0.0)
        base = policy.backoff_s(1)
        delays = [task.serving.next_attempt_s for task in tasks]
        assert all(0.5 * base <= delay <= 1.5 * base for delay in delays)
        assert len(set(delays)) > 1


class TestCircuitBreakerUnit:
    def test_opens_at_threshold_mass(self):
        breaker = CircuitBreaker("b0")
        assert not breaker.record_failure(0.0)  # mass 1.0 < 2.0
        assert breaker.record_failure(0.1)  # mass 2.0 -> OPEN
        assert breaker.state is BreakerState.OPEN

    def test_window_forgets_old_failures(self):
        breaker = CircuitBreaker("b0")
        breaker.record_failure(0.0)
        assert not breaker.record_failure(1.0)  # first sample expired
        assert breaker.state is BreakerState.CLOSED

    def test_slow_completions_weigh_half(self):
        breaker = CircuitBreaker("b0")
        for _ in range(3):
            assert not breaker.record_slow(0.1)
        assert breaker.record_slow(0.1)  # 4 * 0.5 = 2.0 -> OPEN

    def test_half_open_probe_closes_after_budget(self):
        breaker = CircuitBreaker("b0")  # a probe budget of two
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.half_open()
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.record_success(0.3)
        assert breaker.record_success(0.4)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.consecutive_opens == 0

    def test_failed_probe_reopens_with_doubled_cooldown(self):
        breaker = CircuitBreaker("b0")
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        first_cooldown = breaker.cooldown_s()
        breaker.half_open()
        assert breaker.record_failure(0.5)  # failed probe: straight open
        assert breaker.state is BreakerState.OPEN
        assert breaker.cooldown_s() == pytest.approx(2 * first_cooldown)

    def test_cooldown_growth_is_capped(self):
        breaker = CircuitBreaker("b0")
        for _ in range(10):
            breaker.record_failure(0.0)
            breaker.record_failure(0.0)
            breaker.half_open()
        assert breaker.cooldown_s() == pytest.approx(COOLDOWN_S * 8)


class TestCircuitBreakerIntegration:
    def test_a_board_failed_before_binding_takes_no_sample(self, catalog):
        """A board that fails before a simulator binds the frontend gives
        its breaker no sample, since there is no clock yet; the breaker
        gate still counts the board unusable at its first read."""
        cluster, system, frontend = _frontend(catalog, default_deadline_s=30.0)
        cluster.board("vu37p-0").set_health(BoardHealth.FAILED)
        breaker = frontend.breaker("vu37p-0")
        assert breaker.state is BreakerState.CLOSED
        assert breaker.failure_mass(0.0) == 0
        simulator = ClusterSimulator(frontend, "failed-before-binding")
        result = simulator.run(_requests(4))
        assert len(result.completed) == 4
        assert not system.controller.deployments_on("vu37p-0")
        assert frontend.stats.breaker_opens == 0

    def test_repeated_board_failures_open_and_drain(self, catalog):
        cluster, _, frontend = _frontend(catalog, default_deadline_s=30.0)
        simulator = ClusterSimulator(frontend, "breaker-drain")
        # Two hard failures on one board inside the window: breaker opens
        # on the second and holds the board drained past its repair, until
        # the half-open probe.
        _fail_board(simulator, "vu37p-0", at=0.001, repair_after=0.002)
        _fail_board(simulator, "vu37p-0", at=0.02, repair_after=0.002)
        result = simulator.run(_requests(6, gap_s=0.01))
        assert len(result.completed) == 6
        breaker = frontend.breaker("vu37p-0")
        assert frontend.stats.breaker_opens == 1
        assert breaker.state in (BreakerState.OPEN, BreakerState.HALF_OPEN)

    def test_all_breakers_open_fast_rejects(self, catalog):
        cluster, _, frontend = _frontend(catalog)
        for breaker in frontend._breakers.values():
            breaker.record_failure(0.0)
            breaker.record_failure(0.0)
            assert breaker.state is BreakerState.OPEN
        task = _requests(1)[0]
        queue_tasks(frontend, [task])
        assert frontend.try_start(task, 0.0) is None
        assert task.decline == "breaker"
        assert frontend.stats.breaker_rejections == 1

    def test_late_completion_is_slow_on_every_board_it_ran_on(self, catalog):
        """A late completion is attributed at finish to the boards of the
        deployment it ran on: on a two-board deployment both breakers
        take one slow sample, and no other breaker takes any."""
        _, system, frontend = _frontend(catalog)
        simulator = ClusterSimulator(frontend, "late-pair")
        task = Request(task_id=0, model_key="gru-h2304-t250", arrival_s=0.0,
                       size_class="S", deadline_s=1e-6)
        result = simulator.run([task])
        assert result.completed == [task]
        assert task.finish_s > task.serving.deadline_s
        (deployment,) = system.controller.deployments_of("gru-h2304-t250")
        assert len(deployment.member_fpgas) == 2
        masses = {
            fpga_id: breaker.failure_mass(task.finish_s)
            for fpga_id, breaker in frontend._breakers.items()
        }
        assert masses == {
            fpga_id: SLOW_WEIGHT if fpga_id in deployment.member_fpgas else 0
            for fpga_id in masses
        }

    def test_half_open_set_follows_probe_and_close(self, catalog):
        """The probe puts its board in the half-open set, and the on-time
        completion that closes the breaker takes it out; at every finish
        the set names exactly the half-open breakers."""
        system = build_system("proposed", scaled_cluster(1), catalog,
                              recovery=True)
        frontend = ServingFrontend(
            system, ServingParameters(default_deadline_s=30.0))
        simulator = ClusterSimulator(frontend, "probe-close")
        # Two failures inside the window open the breaker.
        _fail_board(simulator, "vu37p-0", at=0.001, repair_after=0.001)
        _fail_board(simulator, "vu37p-0", at=0.003, repair_after=0.001)
        half_open_at_finish = []
        on_finish = frontend.on_finish

        def spy(task, now):
            on_finish(task, now)
            half_open = {
                fpga_id for fpga_id, breaker in frontend._breakers.items()
                if breaker.state is BreakerState.HALF_OPEN
            }
            assert frontend._half_open == half_open
            half_open_at_finish.append(bool(half_open))

        frontend.on_finish = spy
        result = simulator.run(_requests(10, gap_s=0.002))
        stats = frontend.stats
        assert len(result.completed) == 10
        assert (stats.breaker_opens, stats.breaker_half_opens,
                stats.breaker_closes) == (1, 1, 1)
        assert not half_open_at_finish[-1]

    def test_breaker_only_repairs_its_own_drain(self, catalog):
        cluster, _, frontend = _frontend(catalog)
        board = cluster.board("vu37p-0")
        # The fault (not the breaker) holds the board FAILED: the
        # half-open probe must not flip it back to HEALTHY while the
        # fault's repair is still pending.  The second failure opens the
        # breaker.
        simulator = ClusterSimulator(frontend, "no-repair")
        _fail_board(simulator, "vu37p-0", at=0.001, repair_after=0.002)
        _fail_board(simulator, "vu37p-0", at=0.01, repair_after=5.0)
        observed = []
        simulator.schedule_external(
            2.0, lambda now: observed.append(board.health)
        )
        simulator.run(_requests(3, gap_s=0.002, deadline_s=0.1))
        assert frontend.stats.breaker_opens == 1
        assert observed == [BoardHealth.FAILED]
        # After the fault's own repair the board is healthy again.
        assert board.health is BoardHealth.HEALTHY


class TestBrownout:
    def test_prefer_narrow_reorders_plan_choice(self, catalog):
        _, system, _ = _frontend(catalog)
        controller = system.controller
        controller.prefer_narrow = True
        deployment, _ = controller.deploy("lstm-h512-t25", now=0.0)
        narrow = min(
            catalog.entry_by_key("lstm-h512-t25").sorted_plans(),
            key=controller.plan_footprint,
        )
        assert (
            controller.plan_footprint(deployment.plan)
            == controller.plan_footprint(narrow)
        )

    def test_switch_plan_shrinks_an_idle_deployment(self, catalog):
        _, system, frontend = _frontend(catalog)
        controller = system.controller
        plans = catalog.entry_by_key("gru-h512-t1").sorted_plans()
        wide = max(plans, key=controller.plan_footprint)
        narrow = min(plans, key=controller.plan_footprint)
        simulator = ClusterSimulator(frontend, "t")
        deployment, _ = controller.place_plan(wide, now=0.0)
        frontend._switch_plan(deployment, narrow, now=0.0)
        assert frontend.stats.brownout_switches == 1
        simulator.queue.run()  # the narrow width is held until configured
        replacement = controller.find_idle_deployment("gru-h512-t1")
        assert (
            controller.plan_footprint(replacement.plan)
            == controller.plan_footprint(narrow)
        )
        assert controller.index.check_consistent()

    @pytest.mark.parametrize("queued, switches", [
        (policy.BROWNOUT_HOT_DEPTH, 0), (policy.BROWNOUT_HOT_DEPTH + 1, 1),
    ])
    def test_a_starting_request_does_not_make_its_model_hot(
        self, catalog, queued, switches
    ):
        """A start that enters brownout reads hot models off the
        simulator's queue, where the starting request stays until its
        ``try_start`` returns; it does not count.  With one request short
        of the hot depth queued behind it the model is not hot, and its
        idle wide deployment keeps its width; with the hot depth behind it
        the deployment is switched.  A blocker holds the rest of the
        cluster but a block per board (the narrow plan takes one more
        block of a board than the wide one frees), so the start finds it in
        brownout."""
        cluster, system, frontend = _frontend(catalog)
        controller = system.controller
        plans = catalog.entry_by_key("gru-h512-t1").sorted_plans()
        wide = max(plans, key=controller.plan_footprint)
        for _ in range(2):
            controller.place_plan(wide, now=0.0)
        _fill_cluster(cluster, spare=1)
        assert frontend.utilisation() >= policy.BROWNOUT_HIGH_WATERMARK
        assert not frontend.brownout
        tasks = _requests(queued)
        assert all(queue_tasks(frontend, tasks))
        assert frontend.try_start(tasks[0], 0.0) is not None
        assert frontend.brownout
        assert frontend.stats.brownout_switches == switches
        widths = sorted(
            controller.plan_footprint(deployment.plan)
            for deployment in controller.deployments_of("gru-h512-t1")
        )
        narrow = min(plans, key=controller.plan_footprint)
        assert widths == sorted(
            controller.plan_footprint(narrow if index < switches else wide)
            for index in range(2)
        )

    def test_watermark_hysteresis(self, catalog):
        cluster, system, frontend = _frontend(catalog)
        controller = system.controller
        # Brownout reads hot models off the simulator's queues.
        ClusterSimulator(frontend, "hysteresis")
        total = sum(len(board.blocks) for board in cluster.boards.values())

        def block(fraction, owner):
            remaining = math.ceil(fraction * total)
            for board in cluster.boards.values():
                take = min(remaining, board.free_blocks)
                if take:
                    board.allocate(owner, take)
                remaining -= take

        # Fill the band between the marks, then the rest up to the high
        # one: enters brownout.
        band = policy.BROWNOUT_LOW_WATERMARK + 0.05
        block(band, "band")
        block(policy.BROWNOUT_HIGH_WATERMARK - band, "top")
        frontend._update_brownout(0.0)
        assert frontend.brownout
        assert controller.prefer_narrow
        # Back inside the band: brownout holds (hysteresis).
        for board in cluster.boards.values():
            if "top" in board.owners():
                board.release("top")
        frontend._update_brownout(0.5)
        assert frontend.brownout
        # Drain it: exits at the low watermark.
        for board in cluster.boards.values():
            if "band" in board.owners():
                board.release("band")
        frontend._update_brownout(1.0)
        assert not frontend.brownout
        assert not controller.prefer_narrow
        assert frontend.stats.brownout_entries == 1
        assert frontend.stats.brownout_exits == 1


class TestArrivalProcesses:
    def test_mmpp_is_deterministic_and_ordered(self):
        first = mmpp_arrivals(200, 100.0, seed=3)
        second = mmpp_arrivals(200, 100.0, seed=3)
        assert first == second
        assert all(b > a for a, b in zip(first, first[1:]))
        assert mmpp_arrivals(200, 100.0, seed=4) != first

    def test_mmpp_preserves_mean_rate(self):
        arrivals = mmpp_arrivals(8000, 100.0, seed=1)
        observed = len(arrivals) / arrivals[-1]
        assert observed == pytest.approx(100.0, rel=0.1)

    def test_mmpp_is_burstier_than_poisson(self):
        arrivals = mmpp_arrivals(4000, 100.0, seed=2, burst_ratio=8.0)
        gaps = [b - a for a, b in zip(arrivals, arrivals[1:])]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        # Poisson gaps have CV^2 = 1; an MMPP is over-dispersed.
        assert var / mean**2 > 1.2

    def test_diurnal_is_deterministic_and_rate_preserving(self):
        first = diurnal_arrivals(4000, 100.0, seed=5)
        assert first == diurnal_arrivals(4000, 100.0, seed=5)
        assert all(b > a for a, b in zip(first, first[1:]))
        observed = len(first) / first[-1]
        assert observed == pytest.approx(100.0, rel=0.1)

    def test_parameter_validation(self):
        with pytest.raises(ReproError):
            mmpp_arrivals(10, 100.0, burst_ratio=0.5)
        with pytest.raises(ReproError):
            diurnal_arrivals(10, 100.0, amplitude=1.5)
        with pytest.raises(ReproError):
            mmpp_arrivals(0, 100.0)


class TestRecoveryBackoffSurfacing:
    def test_abandonment_emits_structured_event(self, catalog):
        cluster = paper_cluster()
        system = build_system("proposed", cluster, catalog, recovery=True)
        controller = system.controller
        simulator = ClusterSimulator(system, "t")
        cluster.board("ku115-0").allocate("blocker", 10)
        cluster.board("vu37p-1").allocate("blocker", 14)
        cluster.board("vu37p-2").allocate("blocker", 14)
        controller.deploy("lstm-h512-t25", now=0.0)
        simulator.queue.run(until=0.01)
        controller.on_board_failure(cluster.board("vu37p-0"), now=0.01)
        simulator.queue.run()
        # Capacity never returns: the recovery gives up after its last
        # backoff retry, and the structured event records when.
        events = [
            event
            for event in controller.events
            if isinstance(event, RecoveryAbandoned)
        ]
        assert len(events) == 1
        assert events[0].model_key == "lstm-h512-t25"
        assert events[0].attempts == MAX_RETRIES
        assert events[0].at_s == pytest.approx(
            0.01 + sum(backoff_s(a) for a in range(MAX_RETRIES))
        )

    def test_backoff_schedule_is_capped_and_surfaced(self):
        schedule = [backoff_s(attempt) for attempt in range(MAX_RETRIES)]
        assert schedule[0] == RETRY_BASE_S
        assert schedule[-1] == RETRY_CAP_S
        assert all(b >= a for a, b in zip(schedule, schedule[1:]))

    def test_event_buffer_is_bounded(self, catalog):
        cluster = paper_cluster()
        system = build_system("proposed", cluster, catalog)
        controller = system.controller
        controller.max_events = 10
        for index in range(25):
            controller.emit_event(index)
        assert len(controller.events) == 10
        assert controller.events == list(range(15, 25))


class TestOffByDefault:
    def test_no_frontend_means_no_serving_counters(self, catalog):
        cluster = paper_cluster()
        system = build_system("proposed", cluster, catalog)
        simulator = ClusterSimulator(system, "plain")
        tasks = [
            Task(task_id=index, model_key="gru-h512-t1",
                 arrival_s=index * 0.001, size_class="S")
            for index in range(5)
        ]
        result = simulator.run(tasks)
        assert len(result.completed) == 5
        assert result.dropped == []
        # Serving counters exist only on a frontend's ServingStats; the
        # controller keeps no copy of them.
        controller_fields = {
            field.name for field in dataclasses.fields(system.controller.stats)
        }
        assert not controller_fields & {
            "requests_shed", "requests_expired", "requests_abandoned",
            "breaker_rejections", "brownout_switches",
        }
