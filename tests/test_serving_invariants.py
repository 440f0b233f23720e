"""Property tests for the serving edge: rejected work never holds boards.

The central robustness invariant: a request that was shed, expired,
breaker-rejected or abandoned must never have occupied a board — all
cluster blocks are accounted for by live deployments at every point, and
the frontend's accounting identity (offered = terminal outcomes) closes
exactly.  Every storm also conserves tasks at every finish: completed,
dropped, queued (the simulator's queues, the only copy) and running
requests always add up to the requests offered so far, and the
frontend's set of half-open breakers is a recount of breaker states.
Exercised under randomized overload storms with the fault injector armed,
in the style of ``test_allocator_invariants``.
"""

import random

import pytest

from repro.cluster import ClusterSimulator, paper_cluster
from repro.faults import FaultInjector, FaultModelParameters
from repro.runtime import Catalog, build_system
from repro.serving import (
    BreakerState,
    Request,
    RequestOutcome,
    ServingFrontend,
    ServingParameters,
)
from repro.vital import VitalCompiler
from repro.workloads import mmpp_arrivals

MODELS = ("gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25")


@pytest.fixture(scope="module")
def catalog():
    return Catalog(VitalCompiler())


def _storm_tasks(count, rate_per_s, seed, deadline_jitter=False):
    arrivals = mmpp_arrivals(count, rate_per_s, seed=seed)
    rng = random.Random(seed)
    tasks = []
    for index, arrival_s in enumerate(arrivals):
        deadline = 0.0
        if deadline_jitter:
            deadline = arrival_s + rng.uniform(0.002, 0.2)
        tasks.append(
            Request(
                task_id=index,
                model_key=MODELS[index % len(MODELS)],
                arrival_s=arrival_s,
                size_class="S",
                deadline_s=deadline,
            )
        )
    return tasks


def _run_storm(catalog, seed, rate_per_s=4000.0, count=150, mtbf_s=None,
               before_run=None, **param_overrides):
    cluster = paper_cluster()
    system = build_system("proposed", cluster, catalog, recovery=True)
    defaults = dict(default_deadline_s=0.05, max_queue_depth=4)
    defaults.update(param_overrides)
    frontend = ServingFrontend(system, ServingParameters(**defaults))
    simulator = ClusterSimulator(frontend, f"storm-{seed}")
    if mtbf_s is not None:
        injector = FaultInjector(
            simulator,
            system.controller,
            FaultModelParameters(mtbf_s=mtbf_s, mttr_s=0.05, seed=seed),
        )
        injector.arm(count / rate_per_s * 4)
    tasks = _storm_tasks(count, rate_per_s, seed, deadline_jitter=True)
    finishes = _conserve_at_finishes(frontend, tasks)
    if before_run is not None:
        before_run(frontend)
    result = simulator.run(tasks)
    assert finishes
    return cluster, system, frontend, result


def _conserve_at_finishes(frontend, tasks) -> list:
    """At every finish, ``completed + dropped + queued + running ==
    offered``, with the queued requests read off the simulator and the
    running ones off the records on ``tasks``, and the half-open set
    (which gates the breaker walk of an on-time finish) names exactly the
    half-open breakers; returns the finish times checked."""
    simulator = frontend._simulator
    on_finish = frontend.on_finish
    finishes = []

    def spy(task, now):
        on_finish(task, now)
        stats = frontend.stats
        dropped = stats.shed + stats.expired + stats.abandoned
        running = sum(
            task.serving is not None and task.serving.started
            and task.serving.outcome is RequestOutcome.PENDING
            for task in tasks
        )
        assert (stats.completed + dropped + simulator.pending_count
                + running == stats.offered)
        assert frontend._half_open == {
            fpga_id for fpga_id, breaker in frontend._breakers.items()
            if breaker.state is BreakerState.HALF_OPEN
        }
        finishes.append(now)

    frontend.on_finish = spy
    return finishes


def _assert_utilisation(cluster, frontend):
    """The frontend's running free-block count, failed boards included,
    matches a recount."""
    total = sum(len(board.blocks) for board in cluster.boards.values())
    free = sum(board.recount_free_blocks() for board in cluster.boards.values())
    assert frontend.utilisation() == 1 - free / total


def _assert_invariants(cluster, system, frontend, result):
    stats = frontend.stats
    # 1. Accounting identity: every offered request reached exactly one
    #    terminal outcome.
    assert stats.offered == (
        stats.shed + stats.expired + stats.abandoned + stats.completed
    )
    # Sheds are rejected at the door, so they never count as admitted.
    assert stats.admitted == stats.offered - stats.shed
    assert stats.completed == len(result.completed)
    # 2. Rejected work never held a board: dropped tasks never started.
    for task in result.dropped:
        assert task.start_s < 0
        record = task.serving
        assert record.outcome in (
            RequestOutcome.SHED,
            RequestOutcome.EXPIRED,
            RequestOutcome.ABANDONED,
        )
        assert not record.started
        assert task.placement is None
    # 3. Completed requests did start, and only they did: every offered
    #    request either completed or was dropped, once.
    offered = result.completed + result.dropped
    assert len({id(task) for task in offered}) == len(offered) == stats.offered
    for task in result.completed:
        assert task.serving.started
    # 4. Occupancy closes: blocks in use are exactly the blocks owned by
    #    live deployments (nothing leaked by drops or recoveries).
    owners_by_board = {}
    for deployment in system.controller.deployments.values():
        for placement in deployment.placements:
            owners_by_board.setdefault(placement.fpga_id, 0)
            owners_by_board[placement.fpga_id] += placement.virtual_blocks
    for fpga_id, board in cluster.boards.items():
        assert board.used_blocks == owners_by_board.get(fpga_id, 0)
    _assert_utilisation(cluster, frontend)
    # 5. The placement, residency and idle indexes survived the storm.
    assert system.controller.index.check_consistent()
    assert system.controller.check_residents_consistent()
    assert system.controller.check_idle_consistent()
    # 6. The queue drained to zero, and no queued request is left in the
    #    expiry heap.
    assert frontend._simulator.pending_count == 0
    for _, task_id, task in frontend._expiry:
        record = task.serving
        assert record.outcome is not RequestOutcome.PENDING or record.started, (
            f"request {task_id} left queued in the expiry heap"
        )


class TestServingInvariants:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_overload_storm_without_faults(self, catalog, seed):
        cluster, system, frontend, result = _run_storm(catalog, seed)
        assert frontend.stats.shed > 0 or frontend.stats.expired > 0
        _assert_invariants(cluster, system, frontend, result)

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_overload_storm_with_faults(self, catalog, seed):
        cluster, system, frontend, result = _run_storm(
            catalog, seed, mtbf_s=0.2
        )
        _assert_invariants(cluster, system, frontend, result)

    def test_storm_with_dense_faults_and_brownout(self, catalog):
        cluster, system, frontend, result = _run_storm(
            catalog,
            9,
            mtbf_s=0.03,
        )
        # Probes re-admit boards, and some fail and re-open: the half-open
        # set is recounted at every finish across both, with brownout
        # entered on the way.
        assert frontend.stats.breaker_half_opens > 0
        assert frontend.stats.brownout_entries > 0
        _assert_invariants(cluster, system, frontend, result)

    def test_kept_records_match_a_recount_after_every_decline(self, catalog):
        """The frontend's usable-board counts (the breaker gate) and its
        record of queued requests backing off (the hint) equal a
        from-scratch recount after every decline it makes, through
        breaker opens, half-opens, breaker rejections and backoffs."""
        declines = []

        def recount_at_declines(frontend):
            try_start = frontend.try_start

            def spy(task, now):
                service = try_start(task, now)
                if service is None:
                    assert frontend._recount(now) == []
                    declines.append(task.decline)
                return service

            frontend.try_start = spy

        # Faults dense and long enough that every board a model could
        # land on is held open or failed at some decline.
        cluster, system, frontend, result = _run_storm(
            catalog,
            9,
            count=300,
            mtbf_s=0.03,
            before_run=recount_at_declines,
        )
        stats = frontend.stats
        assert stats.breaker_opens > 0 and stats.breaker_half_opens > 0
        assert stats.placement_retries > 0
        assert {"backoff", "breaker", "capacity"} <= set(declines)
        assert frontend._candidates
        _assert_invariants(cluster, system, frontend, result)

    def test_abandons_free_their_place_in_the_queue(self, catalog):
        """With no retry budget every genuine placement failure abandons
        its request; each abandon leaves the simulator's queue at once, so
        at every finish each model's depth the frontend reads is a recount
        of the requests queued."""
        checked = []

        def check_depth_at_finishes(frontend):
            on_finish = frontend.on_finish
            simulator = frontend._simulator

            def spy(task, now):
                on_finish(task, now)
                for model in MODELS:
                    assert simulator.queued_depth(model) == sum(
                        len(queue.entries)
                        for (_, queued_model), queue
                        in simulator._queues.items()
                        if queued_model == model
                    )
                checked.append(now)

            frontend.on_finish = spy

        cluster, system, frontend, result = _run_storm(
            catalog, 4, mtbf_s=0.2, retry_budget=0,
            before_run=check_depth_at_finishes,
        )
        assert frontend.stats.abandoned > 0
        assert checked
        for model in MODELS:
            assert frontend._simulator.queued_depth(model) == 0
        _assert_invariants(cluster, system, frontend, result)

    def test_goodput_survives_the_storm(self, catalog):
        """Graceful degradation: even at ~4x overload with faults, the
        admitted requests that complete overwhelmingly meet their SLO."""
        cluster, _, frontend, result = _run_storm(catalog, 10, mtbf_s=0.5)
        _assert_utilisation(cluster, frontend)
        stats = frontend.stats
        assert stats.completed > 0
        assert stats.slo_attainment() >= 0.9
