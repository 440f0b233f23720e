"""Multi-tenant fairness layer tests.

Covers tenant/policy parameter validation, the quota guard's
zero-violation contract (declines at the allocation point, ledger peaks
never exceed a quota), strict-priority and weighted fair-share dispatch,
checkpoint + requeue preemption (occupancy never lost, preempted
best-effort work always completes, resume-credit arithmetic), the
serving-frontend composition (including the requeue path), and a
preemption storm on a 64-board cluster mirroring the chaos storms in
:mod:`tests.test_placement_index`.
"""

import math
import random

import pytest

from repro.cluster import ClusterSimulator, Task, scaled_cluster
from repro.cluster.topology import paper_cluster
from repro.errors import ReproError
from repro.runtime import BatchingParameters, Catalog, build_system
from repro.serving import (
    RequestOutcome,
    ServingFrontend,
    ServingParameters,
)
from repro.tenancy import TenancyParameters, TenantParameters, TenantScheduler
from repro.tenancy.policy import PREEMPT_COOLDOWN_S
from repro.units import ms
from repro.vital import VitalCompiler
from repro.workloads import poisson_arrivals
from tests.queueing import queue_tasks


@pytest.fixture(scope="module")
def shared_catalog():
    return Catalog(VitalCompiler())


def _proposed(cluster, catalog, **kwargs):
    return build_system("proposed", cluster, catalog, **kwargs)


def _stream(tenant, model_keys, count, rate, seed, id_base=0):
    arrivals = poisson_arrivals(count, rate, seed=seed)
    return [
        Task(
            task_id=id_base + index,
            model_key=model_keys[index % len(model_keys)],
            arrival_s=arrival_s,
            size_class="S",
            tenant=tenant,
        )
        for index, arrival_s in enumerate(arrivals)
    ]


class TestParameterValidation:
    def test_tenant_defaults_valid(self):
        tenant = TenantParameters(name="acme")
        assert tenant.priority == 0
        assert tenant.weight == 1.0
        assert tenant.block_quota is None
        assert tenant.preemptible

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": 7},
            {"name": " padded"},
            {"name": "two\nlines"},
            {"name": "t", "weight": 0.0},
            {"name": "t", "weight": -1.0},
            {"name": "t", "block_quota": 0},
        ],
    )
    def test_bad_tenant_parameters_raise(self, kwargs):
        with pytest.raises(ReproError):
            TenantParameters(**kwargs)

    def test_duplicate_tenants_rejected(self, shared_catalog):
        system = _proposed(paper_cluster(), shared_catalog)
        with pytest.raises(ReproError, match="duplicate"):
            TenantScheduler(
                system,
                [TenantParameters(name="a"), TenantParameters(name="a")],
            )

    def test_non_tenant_parameters_rejected(self, shared_catalog):
        system = _proposed(paper_cluster(), shared_catalog)
        with pytest.raises(ReproError, match="TenantParameters"):
            TenantScheduler(system, ["acme"])


class TestDispatchOrdering:
    def _scheduler(self, catalog, tenants):
        system = _proposed(paper_cluster(), catalog)
        return TenantScheduler(system, tenants)

    def test_priority_dominates_key(self, shared_catalog):
        scheduler = self._scheduler(
            shared_catalog,
            [
                TenantParameters(name="hi", priority=2),
                TenantParameters(name="lo", priority=0),
            ],
        )
        # The low-priority tenant arrived earlier and has less virtual
        # time, yet strict priority still orders the high class first.
        late = Task(task_id=1, model_key="m", arrival_s=5.0, tenant="hi")
        early = Task(task_id=0, model_key="m", arrival_s=0.0, tenant="lo")
        queue_tasks(scheduler, [early, late])
        scheduler._state("lo").vtime = 0.0
        scheduler._state("hi").vtime = 99.0
        assert scheduler.dispatch_key(late) < scheduler.dispatch_key(early)

    def test_vtime_breaks_ties_within_class(self, shared_catalog):
        scheduler = self._scheduler(
            shared_catalog,
            [
                TenantParameters(name="a", weight=2.0),
                TenantParameters(name="b", weight=1.0),
            ],
        )
        task_a = Task(task_id=1, model_key="m", arrival_s=9.0, tenant="a")
        task_b = Task(task_id=0, model_key="m", arrival_s=0.0, tenant="b")
        queue_tasks(scheduler, [task_b, task_a])
        scheduler._state("a").vtime = 1.0
        scheduler._state("b").vtime = 2.0
        assert scheduler.dispatch_key(task_a) < scheduler.dispatch_key(task_b)

    def test_activation_floor_normalises_idle_vtime(self, shared_catalog):
        scheduler = self._scheduler(
            shared_catalog,
            [TenantParameters(name="a"), TenantParameters(name="b")],
        )
        # Tenant a has one task queued.
        assert queue_tasks(scheduler, [
            Task(task_id=1, model_key="m", arrival_s=0.0, tenant="a")
        ]) == [True]
        busy = scheduler._state("a")
        busy.vtime = 10.0
        idle = scheduler._state("b")
        idle.vtime = 0.0
        task = Task(task_id=0, model_key="m", arrival_s=0.0, tenant="b")
        assert queue_tasks(scheduler, [task]) == [True]
        # The returning tenant re-enters at the active minimum, so it
        # cannot replay its idle period as accumulated credit.
        assert idle.vtime == 10.0

    def test_weighted_share_under_contention(self, shared_catalog):
        """Two same-priority tenants with identical saturating streams:
        the weight-2 tenant's mean latency must beat the weight-1
        tenant's (it receives twice the share, so it drains faster)."""
        cluster = paper_cluster()
        system = _proposed(cluster, shared_catalog)
        scheduler = TenantScheduler(
            system,
            [
                TenantParameters(name="heavy", weight=2.0),
                TenantParameters(name="light", weight=1.0),
            ],
        )
        tasks = sorted(
            _stream("heavy", ["gru-h512-t1"], 40, 4000.0, seed=5)
            + _stream("light", ["gru-h512-t1"], 40, 4000.0, seed=5,
                      id_base=1000),
            key=lambda task: (task.arrival_s, task.task_id),
        )
        result = ClusterSimulator(scheduler, "wfq").run(tasks)
        assert len(result.completed) == 80
        heavy = scheduler._state("heavy")
        light = scheduler._state("light")
        mean_heavy = sum(heavy.latencies_s) / len(heavy.latencies_s)
        mean_light = sum(light.latencies_s) / len(light.latencies_s)
        assert mean_heavy < mean_light

    def test_strict_priority_under_contention(self, shared_catalog):
        """Identical streams, one tenant a class above: the premium
        tenant's mean latency must beat the best-effort tenant's."""
        cluster = paper_cluster()
        system = _proposed(cluster, shared_catalog)
        scheduler = TenantScheduler(
            system,
            [
                TenantParameters(name="prem", priority=1),
                TenantParameters(name="be", priority=0),
            ],
        )
        tasks = sorted(
            _stream("prem", ["gru-h512-t1"], 40, 4000.0, seed=9)
            + _stream("be", ["gru-h512-t1"], 40, 4000.0, seed=9,
                      id_base=1000),
            key=lambda task: (task.arrival_s, task.task_id),
        )
        result = ClusterSimulator(scheduler, "prio").run(tasks)
        assert len(result.completed) == 80
        prem = scheduler._state("prem")
        be = scheduler._state("be")
        assert (
            sum(prem.latencies_s) / len(prem.latencies_s)
            < sum(be.latencies_s) / len(be.latencies_s)
        )


class TestQuotaEnforcement:
    def test_guard_declines_over_quota_plan(self, shared_catalog):
        system = _proposed(paper_cluster(), shared_catalog)
        scheduler = TenantScheduler(
            system, [TenantParameters(name="capped", block_quota=4)]
        )
        quota = system.controller.quota
        entry = system.controller.catalog.entry_by_key("gru-h512-t1")
        plans = sorted(
            entry.sorted_plans(), key=system.controller.plan_footprint
        )
        small = plans[0]
        if system.controller.plan_footprint(small) <= 4:
            assert quota("capped", small)
        big = plans[-1]
        if system.controller.plan_footprint(big) > 4:
            assert not quota("capped", big)

    def test_no_quota_means_no_guard(self, shared_catalog):
        """A tenant without quotas, an unregistered tenant and the
        untenanted default may each hold any plan."""
        system = _proposed(paper_cluster(), shared_catalog)
        scheduler = TenantScheduler(system, [TenantParameters(name="free")])
        assert system.controller.quota == scheduler._quota_allows
        plans = system.controller.catalog.entry_by_key(
            "gru-h2560-t375").sorted_plans()
        for tenant in ("free", "stranger", ""):
            assert all(scheduler._quota_allows(tenant, p) for p in plans)

    def test_place_plan_asks_the_quota(self, shared_catalog):
        """An exact-width placement for a tenant is held to its quota; an
        untenanted one (the autoscaler's adds) is not."""
        system = _proposed(paper_cluster(), shared_catalog)
        controller = system.controller
        plans = sorted(
            controller.catalog.entry_by_key("gru-h512-t1").sorted_plans(),
            key=controller.plan_footprint,
        )
        narrow, wide = plans[0], plans[-1]
        assert controller.plan_footprint(narrow) < controller.plan_footprint(
            wide)
        scheduler = TenantScheduler(system, [TenantParameters(
            name="capped", block_quota=controller.plan_footprint(wide) - 1)])
        ClusterSimulator(scheduler, "t")  # the ledger books on its clock
        assert controller.place_plan(wide, 0.0, "capped") is None
        assert controller.stats.deployments_created == 0
        deployment, _ = controller.place_plan(narrow, 0.0, "capped")
        assert deployment.tenant == "capped"
        assert scheduler.ledger.open_blocks("capped") == (
            controller.plan_footprint(narrow))
        untenanted, _ = controller.place_plan(wide, 0.0)
        assert untenanted.tenant == ""

    def test_ledger_peak_never_exceeds_quota(self, shared_catalog):
        """End to end: a tightly capped tenant under backlog is declined
        at the allocation point — the ledger's peak resident blocks stay
        at or under the quota, and the declines are quota rejections,
        not placement failures."""
        cluster = paper_cluster()
        system = _proposed(cluster, shared_catalog)
        quota = 8
        scheduler = TenantScheduler(
            system,
            [TenantParameters(name="capped", block_quota=quota)],
        )
        tasks = _stream("capped", ["gru-h512-t1", "lstm-h256-t150"], 60,
                        20000.0, seed=3)
        result = ClusterSimulator(scheduler, "quota").run(tasks)
        assert len(result.completed) == 60
        assert scheduler.quota_violations() == {}
        assert scheduler.ledger.peak_open_blocks.get("capped", 0) <= quota
        assert system.controller.stats.quota_rejections > 0

    def test_quota_decline_hints_infinite_retry(self, shared_catalog):
        """A quota decline and a decline behind a pending teardown each
        overwrite the system's ``retry_at`` (here the end of the patience
        window) with ``inf``: only a version bump can help."""
        system = _proposed(paper_cluster(), shared_catalog)
        scheduler = TenantScheduler(system, [
            TenantParameters(name="t", block_quota=1)])
        task = Task(task_id=7, model_key="gru-h512-t1", arrival_s=0.0,
                    tenant="t")
        queue_tasks(scheduler, [task])
        assert system.earliest_retry(task, 0.0) < math.inf
        assert scheduler.try_start(task, 0.0) is None
        assert task.decline == "quota"
        assert task.retry_at == math.inf
        scheduler._preempt_pending[task.model_key] = 1
        task.retry_at = 0.0
        assert scheduler.try_start(task, 0.0) is None
        assert task.decline == "preempt"
        assert task.retry_at == math.inf


def _overload_setup(catalog, board_count=8, task_count=120,
                    rate=12800.0, seed=17):
    """Mixed premium/best-effort overload on a small cluster, with
    the best-effort stream sized to saturate so the premium tenant must
    preempt its way in.  Returns (scheduler, system, tasks)."""
    cluster = scaled_cluster(board_count)
    system = build_system("proposed", cluster, catalog)
    total_blocks = sum(len(b.blocks) for b in cluster.boards.values())
    tenants = [
        TenantParameters(
            name="premium", priority=1, weight=2.0,
            block_quota=max(1, int(total_blocks * 0.3)), preemptible=False,
        ),
        TenantParameters(
            name="besteffort", priority=0, weight=1.0,
            block_quota=max(1, int(total_blocks * 0.8)), preemptible=True,
        ),
    ]
    scheduler = TenantScheduler(system, tenants, TenancyParameters())
    premium_count = task_count // 4
    tasks = sorted(
        _stream("premium", ["gru-h512-t1"], premium_count, rate * 0.25,
                seed=seed)
        + _stream(
            "besteffort", ["lstm-h256-t150", "lstm-h512-t25"],
            task_count - premium_count, rate * 0.75, seed=seed + 1,
            id_base=10_000,
        ),
        key=lambda task: (task.arrival_s, task.task_id),
    )
    return scheduler, system, tasks


class TestTenancyRecord:
    def test_state_is_set_at_admission(self, shared_catalog):
        """Admission gives a record its tenant's state: a registered
        tenant's, and the neutral one it registers for an unknown tenant."""
        system = _proposed(paper_cluster(), shared_catalog)
        scheduler = TenantScheduler(system, [TenantParameters(name="t")])
        known = Task(task_id=0, model_key="gru-h512-t1", arrival_s=0.0,
                     tenant="t")
        stranger = Task(task_id=1, model_key="gru-h512-t1", arrival_s=0.0,
                        tenant="nobody")
        queue_tasks(scheduler, [known, stranger])
        assert known.tenancy.state is scheduler._tenants["t"]
        assert stranger.tenancy.state is scheduler._tenants["nobody"]
        assert not stranger.tenancy.state.params.preemptible

    def test_state_survives_a_preemption_requeue(self, shared_catalog):
        """Every start and finish, a preempted task's restart included,
        reads the state of the task's own tenant."""
        scheduler, _, tasks = _overload_setup(shared_catalog)
        inner_start, inner_finish = scheduler.try_start, scheduler.on_finish
        restarts = []

        def try_start(task, now):
            assert task.tenancy.state is scheduler._tenants[task.tenant]
            if task.tenancy.preempted:
                restarts.append(task.task_id)
            return inner_start(task, now)

        def on_finish(task, now):
            assert task.tenancy.state is scheduler._tenants[task.tenant]
            inner_finish(task, now)

        scheduler.try_start, scheduler.on_finish = try_start, on_finish
        ClusterSimulator(scheduler, "record").run(tasks)
        assert scheduler.stats.tasks_preempted > 0
        assert restarts


class TestPreemption:
    def test_checkpoint_requeue_never_loses_occupancy(self, shared_catalog):
        """After an overload run with real preemption sweeps, every
        board's free-block count equals a from-scratch recount, the
        placement and residency indexes are consistent, and the ledger
        holds no still-open intervals once the queues drain."""
        scheduler, system, tasks = _overload_setup(shared_catalog)
        result = ClusterSimulator(scheduler, "preempt").run(tasks)
        assert scheduler.stats.preemption_sweeps > 0
        assert len(result.completed) == len(tasks)
        controller = system.controller
        assert controller.index.check_consistent()
        assert controller.check_residents_consistent()
        for board in system.cluster.boards.values():
            assert board.free_blocks == board.recount_free_blocks()

    def test_preempted_best_effort_tasks_complete(self, shared_catalog):
        """Checkpoint + requeue loses the round trip, never the work:
        every distinct preempted task runs to completion."""
        scheduler, _, tasks = _overload_setup(shared_catalog)
        result = ClusterSimulator(scheduler, "recover").run(tasks)
        stats = scheduler.stats
        assert stats.tasks_preempted > 0
        assert stats.preempted_completed == stats.preempted_distinct
        assert len(result.completed) == len(tasks)
        assert scheduler._state("besteffort").preempted > 0
        # Checkpoint and restore streams were actually charged.
        assert stats.checkpoint_s > 0.0
        assert stats.restore_s > 0.0

    def test_quota_violations_empty_under_preemption(self, shared_catalog):
        scheduler, _, tasks = _overload_setup(shared_catalog)
        ClusterSimulator(scheduler, "violations").run(tasks)
        assert scheduler.quota_violations() == {}

    def test_non_preemptible_tenant_is_never_victimised(self, shared_catalog):
        """Flip the bench roles: the low-priority tenant is
        non-preemptible, so the starved premium tenant finds no victims
        and simply waits."""
        cluster = scaled_cluster(8)
        system = build_system("proposed", cluster, shared_catalog)
        scheduler = TenantScheduler(
            system,
            [
                TenantParameters(name="premium", priority=1,
                                 preemptible=False),
                TenantParameters(name="besteffort", priority=0,
                                 preemptible=False),
            ],
        )
        _, _, tasks = _overload_setup(shared_catalog)
        result = ClusterSimulator(scheduler, "novictims").run(tasks)
        assert scheduler.stats.deployments_preempted == 0
        assert scheduler._state("besteffort").preempted == 0
        assert len(result.completed) == len(tasks)

    def test_resume_credit_charges_restore_plus_remaining(
        self, shared_catalog
    ):
        """A preempted task's restart on a warm deployment is charged
        exactly the checkpoint-restore stream plus its remaining
        service — not a full rerun."""
        cluster = paper_cluster()
        system = _proposed(cluster, shared_catalog)
        scheduler = TenantScheduler(system, [TenantParameters(name="t")])
        first = Task(task_id=0, model_key="gru-h512-t1", arrival_s=0.0,
                     tenant="t")
        queue_tasks(scheduler, [first])
        service = scheduler.try_start(first, 0.0)
        assert service is not None
        scheduler.on_finish(first, service)
        # A warm idle deployment now exists: a fresh start pays only the
        # model's service time.
        second = Task(task_id=1, model_key="gru-h512-t1", arrival_s=0.0,
                      tenant="t")
        queue_tasks(scheduler, [second])
        remaining, restore = 0.5, 0.125
        second.tenancy.resume_credit = (remaining, restore)
        second.tenancy.preempted = True
        charged = scheduler.try_start(second, 0.0)
        assert charged == pytest.approx(remaining + restore)
        assert scheduler.stats.restore_s == pytest.approx(restore)

    def test_checkpoint_cost_uses_state_size_over_host_link(
        self, shared_catalog
    ):
        system = _proposed(paper_cluster(), shared_catalog)
        scheduler = TenantScheduler(system, [TenantParameters(name="t")])
        queue_tasks(scheduler, [])  # binds the teardown's clock
        deployment, _ = system.controller.deploy("gru-h512-t1", tenant="t")
        engine = system.controller.migration
        state_bytes = sum(
            engine.state_bytes(deployment, i)
            for i in range(len(deployment.placements))
        )
        link = system.cluster.host_link
        stream = link.latency_s + state_bytes * 8.0 / link.bandwidth_bps
        # A preempted victim's teardown pays the engine's drain, then the
        # checkpoint stream.
        scheduler._execute_preemption(
            [deployment], Task(task_id=0, model_key="gru-h512-t1",
                               arrival_s=0.0, tenant="t"),
            scheduler._state("t"), 0.0,
        )
        assert scheduler.stats.checkpoint_s == engine.DRAIN_S + stream

    @pytest.mark.parametrize(
        "tenants, starved, plans",
        [
            # Best effort has no class below it to take blocks from.
            ([TenantParameters(name="lo", priority=0),
              TenantParameters(name="peer", priority=0)], "lo", False),
            # The only lower class is non-preemptible.
            ([TenantParameters(name="hi", priority=1, preemptible=False),
              TenantParameters(name="lo", priority=0, preemptible=False)],
             "hi", False),
            # A preemptible lower class: victim planning still runs.
            ([TenantParameters(name="hi", priority=1, preemptible=False),
              TenantParameters(name="lo", priority=0)], "hi", True),
        ],
        ids=["lowest-class", "non-preemptible-below", "preemptible-below"],
    )
    def test_victim_planning_only_where_a_victim_can_exist(
        self, shared_catalog, monkeypatch, tenants, starved, plans
    ):
        system = _proposed(paper_cluster(), shared_catalog)
        scheduler = TenantScheduler(system, tenants)

        def declined(task, now):
            task.decline = "capacity"
            task.retry_at = now
            return None

        def planned(plan, priority):
            raise AssertionError("victim planning ran")

        monkeypatch.setattr(system, "try_start", declined)
        monkeypatch.setattr(scheduler, "_plan_victims", planned)
        task = Task(task_id=0, model_key="gru-h512-t1", arrival_s=0.0,
                    tenant=starved)
        queue_tasks(scheduler, [task])
        if plans:
            with pytest.raises(AssertionError, match="victim planning ran"):
                scheduler.try_start(task, 0.0)
        else:
            assert scheduler.try_start(task, 0.0) is None
            assert task.decline == "capacity"
            assert scheduler.stats.preemption_sweeps == 0
            assert scheduler._state(starved).preemptions_triggered == 0

    def test_cooldown_spaces_sweeps(self, shared_catalog):
        system = _proposed(paper_cluster(), shared_catalog)
        scheduler = TenantScheduler(
            system, [TenantParameters(name="hi", priority=1)]
        )
        task = Task(task_id=0, model_key="gru-h512-t1", arrival_s=0.0,
                    tenant="hi")
        state = scheduler._state("hi")
        scheduler._execute_preemption([], task, state, 1.0)
        assert scheduler._preempt_gate_s == 1.0 + PREEMPT_COOLDOWN_S
        # Inside the cooldown window no sweep may start, whatever the
        # cluster looks like.
        assert not scheduler._maybe_preempt(
            task, state, 1.0 + 0.99 * PREEMPT_COOLDOWN_S)


class TestFrontendComposition:
    def _frontend_stack(self, catalog, tenants, board_count=8):
        cluster = scaled_cluster(board_count)
        system = build_system("proposed", cluster, catalog)
        frontend = ServingFrontend(
            system,
            ServingParameters(
                max_queue_depth=64,
                default_deadline_s=5.0,
            ),
        )
        scheduler = TenantScheduler(frontend, tenants)
        return scheduler, frontend, system

    def _preempting_stream(self, catalog, seed, batching=None, **overrides):
        """Premium and preemptible best-effort tenants over a frontend with
        20 ms deadlines, 400 tasks in 10 ms on eight boards: preemptions
        and expiries side by side."""
        cluster = scaled_cluster(8)
        system = build_system("proposed", cluster, catalog, batching=batching)
        params = dict(default_deadline_s=ms(20.0))
        params.update(overrides)
        frontend = ServingFrontend(system, ServingParameters(**params))
        total = sum(len(board.blocks) for board in cluster.boards.values())
        scheduler = TenantScheduler(frontend, [
            TenantParameters(name="premium", priority=1, weight=2.0,
                             block_quota=int(total * 0.3), preemptible=False),
            TenantParameters(name="besteffort", priority=0, weight=1.0,
                             block_quota=int(total * 0.8), preemptible=True),
        ])
        rng = random.Random(seed)
        count = 400
        arrivals = sorted(rng.randrange(60) * ms(10.0) / 60
                          for _ in range(count))
        draws = [
            ("premium", "gru-h512-t1") if rng.random() < 0.25
            else ("besteffort",
                  rng.choice(["lstm-h256-t150", "lstm-h512-t25"]))
            for _ in range(count)
        ]
        tasks = [Task(task_id=i, model_key=m, arrival_s=a, size_class="S",
                      tenant=t)
                 for i, (a, (t, m)) in enumerate(zip(arrivals, draws))]
        return scheduler, frontend, tasks

    def test_layer_exposes_wrapped_system(self, shared_catalog):
        scheduler, frontend, system = self._frontend_stack(
            shared_catalog, [TenantParameters(name="t")]
        )
        assert scheduler.inner is frontend
        assert scheduler.system is system
        assert scheduler.controller is system.controller

    def test_brownout_switch_keeps_its_tenant_and_quota(self, shared_catalog):
        """A brownout switch places the narrow copy for the wide copy's
        tenant, so the tenant's ledger axis keeps counting it."""
        scheduler, frontend, system = self._frontend_stack(
            shared_catalog, [TenantParameters(name="acme", block_quota=64)]
        )
        controller = system.controller
        simulator = ClusterSimulator(scheduler, "switch")
        plans = shared_catalog.entry_by_key("gru-h512-t1").sorted_plans()
        wide = max(plans, key=controller.plan_footprint)
        narrow = min(plans, key=controller.plan_footprint)
        deployment, _ = controller.place_plan(wide, 0.0, "acme")
        frontend._switch_plan(deployment, narrow, now=0.0)
        assert frontend.stats.brownout_switches == 1
        simulator.queue.run()  # the narrow width is held until configured
        (replacement,) = controller.deployments_of("gru-h512-t1")
        assert replacement.tenant == "acme"
        assert replacement.plan is narrow
        assert scheduler.ledger.open_blocks("acme") == (
            controller.plan_footprint(narrow))

    def test_requeue_restores_queue_and_tenant_depth(self, shared_catalog):
        """A preempted request is back in the simulator's (tenant, model)
        queue when the frontend requeues it, and counts in its tenant's
        depth; the requeue reverses the frontend's start bookkeeping, and
        one requeued after its deadline leaves the queue at once."""
        scheduler, frontend, tasks = self._preempting_stream(shared_catalog, 7)
        simulator = ClusterSimulator(scheduler, "requeue-depth")
        requeued = []
        requeue = frontend.requeue

        def tenant_depth(tenant):
            depth = sum(
                len(queue.entries)
                for (owner, _), queue in simulator._queues.items()
                if owner == tenant
            ) + sum(task.tenant == tenant for task in simulator._requeued)
            assert simulator.tenant_depth(tenant) == depth
            return depth

        def spy_requeue(task, now):
            record = task.serving
            held = task in simulator._requeued or task in [
                entry[2]
                for entry in simulator._queues[(task.tenant, task.model_key)].entries
            ]
            assert held and record.started
            depth = tenant_depth(task.tenant)
            requeue(task, now)
            assert not record.started
            assert task.placement is None
            if record.outcome is RequestOutcome.PENDING:
                requeued.append(task.task_id)
                assert tenant_depth(task.tenant) == depth
            else:
                # Requeued after its deadline: it left the queue at once.
                assert tenant_depth(task.tenant) == depth - 1

        frontend.requeue = spy_requeue
        simulator.run(tasks)
        assert requeued

    def test_restart_is_attributed_to_the_deployment_it_finished_on(
            self, shared_catalog):
        """A request preempted and restarted on other boards is attributed,
        at finish, to the deployment it finished on: a late completion is
        slow on exactly the boards of its last start.  No breaker opens in
        this run, so none steers the schedule."""
        scheduler, frontend, tasks = self._preempting_stream(
            shared_catalog, 5, default_deadline_s=ms(40.0),
        )
        simulator = ClusterSimulator(scheduler, "restart-attribution")
        boards_at_start = {}
        slow = []
        moved_and_late = []
        try_start, on_finish = frontend.try_start, frontend.on_finish

        def spy_start(task, now):
            service = try_start(task, now)
            if service is not None:
                boards_at_start.setdefault(task.task_id, []).append(
                    task.placement.member_fpgas)
            return service

        def spy_finish(task, now):
            slow.clear()
            late = now > task.serving.deadline_s
            on_finish(task, now)
            starts = boards_at_start[task.task_id]
            assert slow == (starts[-1] if late else [])
            if late and starts[0] != starts[-1]:
                moved_and_late.append(task.task_id)

        for breaker in frontend._breakers.values():
            def record_slow(now, breaker=breaker, inner=breaker.record_slow):
                slow.append(breaker.fpga_id)
                return inner(now)

            breaker.record_slow = record_slow
        frontend.try_start, frontend.on_finish = spy_start, spy_finish
        simulator.run(tasks)
        assert scheduler.stats.tasks_preempted > 0
        assert frontend.stats.breaker_opens == 0
        assert moved_and_late

    def test_requeue_after_the_deadline_expires_at_once(self,
                                                       shared_catalog):
        """A preempted request requeued after its deadline expires at the
        requeue instant: it leaves the simulator's queue inside the
        requeue, so the pass that preempted it never restarts it."""
        scheduler, frontend, tasks = self._preempting_stream(shared_catalog, 7)
        simulator = ClusterSimulator(scheduler, "late-requeue")
        late, dropped_in = {}, {}
        requeuing = []
        requeue, drop_queued = frontend.requeue, simulator.drop_queued

        def spy_requeue(task, now):
            if now >= task.serving.deadline_s:
                late[task.task_id] = (now, task)
            requeuing.append(task.task_id)
            requeue(task, now)
            requeuing.pop()

        def spy_drop(task):
            pending = simulator.pending_count
            drop_queued(task)
            assert simulator.pending_count == pending - 1
            dropped_in[task.task_id] = (
                simulator.queue.now, requeuing[-1] if requeuing else None
            )

        frontend.requeue = spy_requeue
        simulator.drop_queued = spy_drop
        simulator.run(tasks)
        assert late
        for task_id, (now, task) in late.items():
            assert task.serving.outcome is RequestOutcome.EXPIRED
            assert dropped_in[task_id] == (now, task_id)

    def test_requeue_without_record_is_a_noop(self, shared_catalog):
        scheduler, frontend, _ = self._frontend_stack(
            shared_catalog, [TenantParameters(name="t")]
        )
        simulator = ClusterSimulator(scheduler, "noop")
        stranger = Task(task_id=99, model_key="gru-h512-t1", arrival_s=0.0)
        frontend.requeue(stranger, 0.0)
        assert simulator.pending_count == 0

    def test_overload_run_through_frontend(self, shared_catalog):
        """The full stack — TenantScheduler over ServingFrontend over the
        system — survives a mixed overload run with preemption, and the
        frontend's accounting covers every admitted request."""
        scheduler, frontend, system = self._frontend_stack(
            shared_catalog,
            [
                TenantParameters(name="premium", priority=1, weight=2.0,
                                 preemptible=False),
                TenantParameters(name="besteffort", priority=0,
                                 preemptible=True),
            ],
        )
        tasks = sorted(
            _stream("premium", ["gru-h512-t1"], 30, 3200.0, seed=21)
            + _stream(
                "besteffort", ["lstm-h256-t150", "lstm-h512-t25"], 90,
                9600.0, seed=22, id_base=10_000,
            ),
            key=lambda task: (task.arrival_s, task.task_id),
        )
        result = ClusterSimulator(scheduler, "stack").run(tasks)
        stats = frontend.stats
        assert stats.admitted == stats.offered - stats.shed
        assert (
            stats.completed + stats.expired + stats.abandoned
            <= stats.admitted
        )
        assert len(result.completed) == stats.completed
        controller = system.controller
        assert controller.index.check_consistent()
        assert controller.check_residents_consistent()
        for board in system.cluster.boards.values():
            assert board.free_blocks == board.recount_free_blocks()

    @pytest.mark.parametrize("seed", [4, 5])
    def test_dropped_tasks_leave_no_bookkeeping(self, shared_catalog, seed):
        """Tasks the frontend drops (deadline expiry) after a declined
        start or a preemption leave their tenant's depth as they leave
        the simulator's queue."""
        scheduler, _, tasks = self._preempting_stream(shared_catalog, seed)
        simulator = ClusterSimulator(scheduler, "drops")
        on_finish = scheduler.on_finish
        finishes = []

        def check_pending(task, now):
            on_finish(task, now)
            queued = {}
            for queue in simulator._queues.values():
                for _, _, waiting in queue.entries:
                    queued[waiting.tenant] = queued.get(waiting.tenant, 0) + 1
            for name in ("premium", "besteffort"):
                assert simulator.tenant_depth(name) == queued.get(name, 0)
            finishes.append(now)

        scheduler.on_finish = check_pending
        result = simulator.run(tasks)
        assert finishes
        assert result.dropped
        assert scheduler.stats.tasks_preempted > 0

    def test_composed_run_keeps_no_task_id_maps(self, shared_catalog):
        """Per-request state lives on the task: after a batched run of
        tenancy over serving over the system, with preemptions, sheds and
        abandons, no dict or set of the simulator, the system, its
        batch executor, the frontend or the tenancy layer holds a task id,
        and no resident deployment holds a task."""
        scheduler, frontend, tasks = self._preempting_stream(
            shared_catalog, 4, batching=BatchingParameters(),
            max_queue_depth=8, retry_budget=2)
        simulator = ClusterSimulator(scheduler, "one-record")
        result = simulator.run(tasks)
        assert scheduler.stats.tasks_preempted > 0
        assert frontend.stats.shed > 0
        assert frontend.stats.abandoned > 0
        assert len(result.completed) + len(result.dropped) == len(tasks)
        system = frontend.system
        assert all(task.output is not None for task in result.completed)
        task_ids = {task.task_id for task in tasks}
        for layer in (simulator, system, system.batch_executor, frontend,
                      scheduler):
            for name, value in vars(layer).items():
                if isinstance(value, (dict, set)):
                    assert not task_ids & set(value), (
                        f"{type(layer).__name__}.{name}")
        controller = system.controller
        assert controller.deployments
        assert all(d.task is None for d in controller.deployments.values())

    def test_abandoned_tasks_keep_their_capacity_reason(self,
                                                        shared_catalog):
        """An abandon drops its task inside the tenancy layer's own
        ``try_start``: its outcome says it left, and its decline reason
        stays the capacity refusal that spent its retry budget, unless
        the tenancy layer then started a sweep for it (it still preempts
        for a task that no longer waits) and wrote ``"preempt"``."""
        scheduler, frontend, tasks = self._preempting_stream(
            shared_catalog, 4, retry_budget=0)
        simulator = ClusterSimulator(scheduler, "abandons")
        simulator.run(tasks)
        abandoned = [task for task in tasks
                     if task.serving.outcome is RequestOutcome.ABANDONED]
        assert len(abandoned) == frontend.stats.abandoned > 0
        reasons = [task.decline for task in abandoned]
        assert set(reasons) == {"capacity", "preempt"}
        assert reasons.count("preempt") <= scheduler.stats.preemption_sweeps
        for name in ("premium", "besteffort"):
            assert simulator.tenant_depth(name) == 0


class TestLedgerTenantAxis:
    def test_peaks_and_open_usage_per_tenant(self, shared_catalog):
        system = _proposed(paper_cluster(), shared_catalog)
        scheduler = TenantScheduler(
            system,
            [TenantParameters(name="a"), TenantParameters(name="b")],
        )
        ClusterSimulator(scheduler, "t")  # the ledger books on its clock
        ledger = scheduler.ledger
        controller = system.controller
        first, _ = controller.deploy("gru-h512-t1", tenant="a")
        # The ledger books the plan's nominal footprint (what the quota
        # charges), not the per-device placement blocks.
        blocks_a = controller.plan_footprint(first.plan)
        assert ledger.open_blocks("a") == blocks_a
        assert ledger.open_blocks("b") == 0
        assert ledger.peak_open_blocks["a"] == blocks_a
        controller.discard(first)
        assert ledger.open_blocks("a") == 0
        # The peak survives the discard: it is the quota audit trail.
        assert ledger.peak_open_blocks["a"] == blocks_a

    def test_report_reads_ledger_peaks(self, shared_catalog):
        system = _proposed(paper_cluster(), shared_catalog)
        scheduler = TenantScheduler(
            system, [TenantParameters(name="a", block_quota=50)]
        )
        controller = system.controller
        controller.deploy("gru-h512-t1", tenant="a")
        report = scheduler.tenant_report()
        assert report["a"]["peak_open_blocks"] == (
            scheduler.ledger.peak_open_blocks["a"]
        )
        assert scheduler.quota_violations() == {}


class TestPreemptionStorm:
    """Chaos: three tenant classes hammering a 64-board cluster at
    sustained overload, driving repeated preemption sweeps — mirrors the
    chaos storm in :mod:`tests.test_placement_index` with preemption as
    the churn source instead of board failures."""

    def _storm(self, catalog, board_count, task_count, rate, seed):
        cluster = scaled_cluster(board_count)
        system = build_system("proposed", cluster, catalog)
        total_blocks = sum(
            len(board.blocks) for board in cluster.boards.values()
        )
        tenants = [
            TenantParameters(name="gold", priority=2, weight=4.0,
                             preemptible=False,
                             block_quota=max(1, total_blocks // 2)),
            TenantParameters(name="silver", priority=1, weight=2.0,
                             preemptible=True,
                             block_quota=max(1, total_blocks * 3 // 4)),
            TenantParameters(name="scavenger", priority=0, weight=1.0,
                             preemptible=True,
                             block_quota=max(1, total_blocks * 9 // 10)),
        ]
        scheduler = TenantScheduler(system, tenants)
        per_tenant = task_count // 3
        models = {
            "gold": ["gru-h512-t1"],
            "silver": ["lstm-h512-t25"],
            "scavenger": ["lstm-h256-t150", "lstm-h512-t25"],
        }
        tasks = sorted(
            (
                task
                for offset, name in enumerate(sorted(models))
                for task in _stream(
                    name, models[name], per_tenant, rate / 3.0,
                    seed=seed + offset, id_base=offset * 100_000,
                )
            ),
            key=lambda task: (task.arrival_s, task.task_id),
        )
        result = ClusterSimulator(scheduler, "storm").run(tasks)
        return cluster, system, scheduler, tasks, result

    def test_storm_keeps_cluster_consistent(self, shared_catalog):
        cluster, system, scheduler, tasks, result = self._storm(
            shared_catalog, board_count=64, task_count=240,
            rate=60000.0, seed=41,
        )
        controller = system.controller
        assert scheduler.stats.preemption_sweeps > 0
        # Nothing lost, nothing leaked: all work completes, every index
        # and per-board count matches a from-scratch recount, quotas
        # were never pierced, and every preempted task recovered.
        assert len(result.completed) == len(tasks)
        assert controller.index.check_consistent()
        assert controller.check_residents_consistent()
        assert controller.check_idle_consistent()
        for board in cluster.boards.values():
            assert board.free_blocks == board.recount_free_blocks()
        assert scheduler.quota_violations() == {}
        stats = scheduler.stats
        assert stats.preempted_completed == stats.preempted_distinct
        assert not scheduler._preempt_pending or all(
            count == 0 for count in scheduler._preempt_pending.values()
        )
