"""Autoscaler tests (:mod:`repro.autoscale`).

Covers the policy knobs (validation), the replica-second ledger, the
hysteresis band (a steady queue depth inside the band never moves the
fleet, and a grow is never immediately undone), both scale-up paths
(widen-in-place and add-a-deployment), both scale-down paths (retire and
narrow, idle-only so in-flight work cannot be lost), fault-coordination
suppression, single-owner elasticity (the base system's reactive
expansion defers to an attached autoscaler), and a diurnal storm with
the fault injector armed where the full accounting identity must still
close.
"""

from types import SimpleNamespace

import pytest

from repro.autoscale import (
    Autoscaler,
    AutoscaleParameters,
    ReplicaLedger,
    ScaleEvent,
)
from repro.autoscale.policy import (
    FAULT_SUPPRESS_S,
    HIGH_WATERMARK,
    LOW_WATERMARK,
    MIN_REPLICAS,
)
from repro.cluster import ClusterSimulator, paper_cluster
from repro.errors import ReproError
from repro.faults import FaultInjector, FaultModelParameters
from repro.runtime import Catalog, build_system
from repro.runtime.deployment import DeploymentState
from repro.serving import (
    Request,
    RequestOutcome,
    ServingFrontend,
    ServingParameters,
)
from repro.vital import VitalCompiler
from repro.workloads import diurnal_arrivals
from tests.queueing import queue_tasks

MODEL = "gru-h512-t1"


@pytest.fixture(scope="module")
def catalog():
    return Catalog(VitalCompiler())


def _frontend(catalog, recovery=True, **param_overrides):
    """A frontend bound to a simulator, as every serving stack is; its
    events run only where a test runs them."""
    cluster = paper_cluster()
    system = build_system("proposed", cluster, catalog, recovery=recovery)
    params = ServingParameters(**param_overrides)
    frontend = ServingFrontend(system, params)
    ClusterSimulator(frontend, "autoscale")
    return cluster, system, frontend


def _requests(count, model_key=MODEL, gap_s=0.001, deadline_s=0.0):
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


def _plan(controller, model_key=MODEL, replicas=1):
    entry = controller.catalog.entry_by_key(model_key)
    plans = [p for p in entry.sorted_plans() if p.replicas == replicas]
    assert plans, f"no replicas={replicas} plan for {model_key}"
    return plans[0]


def _place(controller, model_key=MODEL, replicas=1, now=0.0):
    placed = controller.place_plan(_plan(controller, model_key, replicas), now)
    assert placed is not None
    deployment, _ = placed
    return deployment


def _queue(frontend, count, model_key=MODEL):
    assert all(queue_tasks(frontend, _requests(count, model_key=model_key)))


def _drain_queue(frontend, model_key=MODEL):
    for task in frontend._simulator.queued_tasks(model_key):
        frontend._condemn(task, RequestOutcome.SHED)


class TestAutoscaleParameters:
    def test_defaults_valid(self):
        params = AutoscaleParameters()
        assert LOW_WATERMARK < HIGH_WATERMARK
        assert MIN_REPLICAS <= params.max_replicas

    def test_rejects_inverted_replica_bounds(self):
        with pytest.raises(ReproError):
            AutoscaleParameters(max_replicas=MIN_REPLICAS - 1)

    def test_rejects_bad_cooldowns_and_target_util(self):
        with pytest.raises(ReproError):
            AutoscaleParameters(up_cooldown_s=-1.0)
        with pytest.raises(ReproError):
            AutoscaleParameters(down_target_util=0.0)


class TestReplicaLedger:
    @staticmethod
    def _deployment(dep_id, replicas, blocks_per_replica=3, model_key=MODEL):
        plan = SimpleNamespace(replicas=replicas,
                               footprint=replicas * blocks_per_replica)
        return SimpleNamespace(
            deployment_id=dep_id, model_key=model_key, plan=plan
        )

    def test_integrates_replica_seconds_exactly(self):
        ledger = ReplicaLedger()
        ledger.on_instantiate(self._deployment("d1", replicas=2), 1.0)
        # Open deployments are charged up to the probe instant without
        # being closed.
        totals = ledger.totals(3.0)
        assert totals["replica_seconds"] == pytest.approx(4.0)
        assert totals["block_seconds"] == pytest.approx(12.0)
        ledger.on_discard(self._deployment("d1", replicas=2), 2.5)
        totals = ledger.totals(100.0)
        assert totals["replica_seconds"] == pytest.approx(3.0)
        assert ledger.open_replicas() == 0

    def test_unknown_discard_is_tolerated(self):
        ledger = ReplicaLedger()
        ledger.on_discard(self._deployment("ghost", replicas=1), 5.0)
        assert ledger.totals(10.0)["replica_seconds"] == 0.0

    def test_open_replicas_filters_by_model(self):
        ledger = ReplicaLedger()
        ledger.on_instantiate(self._deployment("a", 2, model_key="m1"), 0.0)
        ledger.on_instantiate(self._deployment("b", 1, model_key="m2"), 0.0)
        assert ledger.open_replicas() == 3
        assert ledger.open_replicas("m1") == 2


class TestHysteresis:
    def test_steady_depth_inside_band_never_moves_the_fleet(self, catalog):
        cluster, system, frontend = _frontend(catalog)
        _place(system.controller)
        scaler = Autoscaler(frontend, AutoscaleParameters())
        # Depth 3 sits strictly between low (1) and high (6): the band
        # absorbs it no matter how many ticks pass.
        _queue(frontend, 3)
        for tick in range(50):
            scaler.evaluate(0.005 * (tick + 1))
        assert scaler.stats.scale_ups == 0
        assert scaler.stats.scale_downs == 0
        assert scaler.replica_units(MODEL) == 1

    def test_grow_is_never_immediately_undone(self, catalog):
        cluster, system, frontend = _frontend(catalog)
        controller = system.controller
        _place(controller)
        params = AutoscaleParameters(down_cooldown_s=0.1)
        scaler = Autoscaler(frontend, params)
        _queue(frontend, HIGH_WATERMARK)
        scaler.evaluate(0.01)
        assert scaler.stats.scale_ups == 1
        # The burst is served instantly and the queue empties — but the
        # down cooldown (measured from the scale-up too) holds the wider
        # fleet through the post-burst lull.
        _drain_queue(frontend)
        scaler.evaluate(0.02)
        scaler.evaluate(0.05)
        assert scaler.stats.scale_downs == 0
        # The widened deployment's reconfiguration lands before 0.2 s.
        frontend._simulator.queue.run(until=0.2)
        scaler.evaluate(0.2)
        assert scaler.stats.scale_downs == 1

    def test_scale_up_stops_at_max_replicas(self, catalog):
        cluster, system, frontend = _frontend(catalog)
        controller = system.controller
        _place(controller, replicas=2)
        _place(controller, replicas=2)
        scaler = Autoscaler(
            frontend, AutoscaleParameters(max_replicas=4, up_cooldown_s=0.0)
        )
        _queue(frontend, 10)
        for tick in range(10):
            scaler.evaluate(0.01 * (tick + 1))
        assert scaler.replica_units(MODEL) == 4
        assert scaler.stats.scale_ups == 0


class TestScaleUpPaths:
    def test_widen_switches_idle_deployment_to_wider_plan(self, catalog):
        cluster, system, frontend = _frontend(catalog)
        controller = system.controller
        _place(controller, replicas=1)
        scaler = Autoscaler(frontend, AutoscaleParameters())
        _queue(frontend, 6)
        scaler.evaluate(0.01)
        assert scaler.stats.widenings == 1
        assert scaler.stats.additions == 0
        deployments = controller.deployments_of(MODEL)
        assert len(deployments) == 1
        assert deployments[0].plan.replicas == 2
        assert scaler.replica_units(MODEL) == 2

    def test_add_places_second_deployment_when_none_is_idle(self, catalog):
        """Scale-up widens an idle deployment first; with the only one
        busy there is nothing to widen, so it adds a deployment."""
        cluster, system, frontend = _frontend(catalog)
        controller = system.controller
        controller.acquire(_place(controller, replicas=1))
        scaler = Autoscaler(frontend, AutoscaleParameters())
        _queue(frontend, HIGH_WATERMARK)
        scaler.evaluate(0.01)
        assert scaler.stats.additions == 1
        assert scaler.stats.widenings == 0
        assert len(controller.deployments_of(MODEL)) == 2

    def test_scale_up_emits_event_on_controller_ring(self, catalog):
        cluster, system, frontend = _frontend(catalog)
        controller = system.controller
        _place(controller)
        scaler = Autoscaler(frontend, AutoscaleParameters())
        _queue(frontend, 6)
        scaler.evaluate(0.01)
        events = [e for e in controller.events if isinstance(e, ScaleEvent)]
        assert len(events) == 1
        assert events[0].action in ("widen", "add")
        assert events[0].units_after > events[0].units_before


class TestScaleDownPaths:
    def test_retires_least_recently_used_idle_deployment(self, catalog):
        cluster, system, frontend = _frontend(catalog)
        controller = system.controller
        cold = _place(controller)
        warm = _place(controller)
        controller.set_state(cold, DeploymentState.IDLE, now=0.0)
        controller.set_state(warm, DeploymentState.IDLE, now=1.0)
        scaler = Autoscaler(frontend, AutoscaleParameters())
        scaler.evaluate(5.0)
        frontend._simulator.queue.run()  # the checkpoint, then the discard
        assert scaler.stats.retirements == 1
        survivors = controller.deployments_of(MODEL)
        assert [d.deployment_id for d in survivors] == [warm.deployment_id]

    def test_narrow_when_single_deployment(self, catalog):
        cluster, system, frontend = _frontend(catalog)
        controller = system.controller
        _place(controller, replicas=2)
        scaler = Autoscaler(frontend, AutoscaleParameters())
        scaler.evaluate(5.0)
        frontend._simulator.queue.run()  # the migration to the narrow copy
        assert scaler.stats.narrowings == 1
        deployments = controller.deployments_of(MODEL)
        assert len(deployments) == 1
        assert deployments[0].plan.replicas == 1

    def test_scale_down_only_acts_on_idle_deployments(self, catalog):
        cluster, system, frontend = _frontend(catalog)
        controller = system.controller
        busy_a = _place(controller)
        busy_b = _place(controller)
        controller.acquire(busy_a)
        controller.acquire(busy_b)
        scaler = Autoscaler(frontend, AutoscaleParameters())
        scaler.evaluate(5.0)
        # Both deployments hold in-flight work: nothing may be touched.
        assert scaler.stats.scale_downs == 0
        assert len(controller.deployments_of(MODEL)) == 2

    def test_scale_down_respects_rate_headroom(self, catalog):
        cluster, system, frontend = _frontend(catalog)
        controller = system.controller
        _place(controller)
        _place(controller)
        scaler = Autoscaler(frontend, AutoscaleParameters())
        # An EWMA rate far beyond the surviving capacity blocks the
        # retirement even though the queue is momentarily empty.
        scaler._rate[MODEL] = 1e9
        scaler.evaluate(5.0)
        assert scaler.stats.scale_downs == 0

    def test_never_below_min_replicas(self, catalog):
        cluster, system, frontend = _frontend(catalog)
        controller = system.controller
        _place(controller)
        scaler = Autoscaler(frontend, AutoscaleParameters())
        for tick in range(20):
            scaler.evaluate(0.05 * (tick + 1))
        assert scaler.replica_units(MODEL) == 1
        assert scaler.stats.scale_downs == 0


class TestFaultCoordination:
    def test_board_failure_suppresses_scale_up(self, catalog):
        cluster, system, frontend = _frontend(catalog)
        controller = system.controller
        _place(controller)
        scaler = Autoscaler(frontend, AutoscaleParameters())
        _queue(frontend, 6)
        # The cluster just lost capacity: growing into the hole would
        # fight the repair, so pressure is suppressed for the window...
        controller.stats.boards_failed += 1
        scaler.evaluate(0.01)
        assert scaler.stats.suppressed == 1
        assert scaler.stats.scale_ups == 0
        scaler.evaluate(0.05)
        assert scaler.stats.scale_ups == 0
        # ...and honoured again once the window closes.
        scaler.evaluate(0.01 + FAULT_SUPPRESS_S + 0.001)
        assert scaler.stats.scale_ups == 1

    def test_scale_down_recovery_also_suppresses(self, catalog):
        cluster, system, frontend = _frontend(catalog)
        controller = system.controller
        _place(controller)
        scaler = Autoscaler(frontend, AutoscaleParameters())
        _queue(frontend, 6)
        controller.stats.scale_down_recoveries += 1
        scaler.evaluate(0.01)
        assert scaler.stats.suppressed == 1
        assert scaler.stats.scale_ups == 0


class TestSingleOwnerElasticity:
    def test_attaching_autoscaler_disables_reactive_expansion(self, catalog):
        cluster, system, frontend = _frontend(catalog)
        assert system.expansion_enabled
        Autoscaler(frontend, AutoscaleParameters())
        assert not system.expansion_enabled
        assert frontend.autoscaler is not None


def test_unbound_autoscaler_refuses_to_evaluate(catalog):
    system = build_system("proposed", paper_cluster(), catalog)
    scaler = Autoscaler(ServingFrontend(system), AutoscaleParameters())
    with pytest.raises(ReproError):
        scaler.evaluate(0.01)
    with pytest.raises(ReproError):
        scaler.arm(0.01)


def _storm(catalog, count=400, rate_per_s=3600.0, mtbf_s=None, seed=11):
    cluster, system, frontend = _frontend(
        catalog, max_queue_depth=64, default_deadline_s=0.25,
        brownout_enabled=False,
    )
    controller = system.controller
    ledger = ReplicaLedger()
    controller.ledger = ledger
    simulator = frontend._simulator
    models = ("lstm-h256-t150", "gru-h512-t1")
    arrivals = diurnal_arrivals(
        count, rate_per_s, seed=seed,
        period_s=count / rate_per_s / 2.0, amplitude=0.9,
    )
    tasks = [
        Request(
            task_id=index,
            model_key=models[index % len(models)],
            arrival_s=arrival_s,
            size_class="S",
            deadline_s=0.0,
        )
        for index, arrival_s in enumerate(arrivals)
    ]
    for model in models:
        _place(controller, model_key=model)
    params = AutoscaleParameters(
        up_cooldown_s=0.004, down_cooldown_s=0.02, max_replicas=4,
    )
    scaler = Autoscaler(frontend, params)
    scaler.arm(tasks[-1].arrival_s)
    if mtbf_s is not None:
        injector = FaultInjector(
            simulator, controller,
            FaultModelParameters(mtbf_s=mtbf_s, mttr_s=0.01, seed=seed),
        )
        injector.arm(tasks[-1].arrival_s)
    result = simulator.run(tasks)
    return cluster, system, frontend, scaler, ledger, result


def _assert_storm_invariants(cluster, system, frontend, scaler, result):
    stats = frontend.stats
    # Accounting identity: scale-downs never lose a request — every
    # offered request still reaches exactly one terminal outcome.
    assert stats.offered == (
        stats.shed + stats.expired + stats.abandoned + stats.completed
    )
    assert stats.completed == len(result.completed)
    # Occupancy closes: blocks in use are exactly the blocks owned by
    # live deployments (retire/narrow leaked nothing).
    owners_by_board = {}
    for deployment in system.controller.deployments.values():
        for placement in deployment.placements:
            owners_by_board.setdefault(placement.fpga_id, 0)
            owners_by_board[placement.fpga_id] += placement.virtual_blocks
    for fpga_id, board in cluster.boards.items():
        assert board.used_blocks == owners_by_board.get(fpga_id, 0)
    assert system.controller.index.check_consistent()
    assert system.controller.check_idle_consistent()
    assert frontend._simulator.pending_count == 0
    # Every decision stayed inside the replica-unit envelope.
    params = scaler.params
    for event in system.controller.events:
        if not isinstance(event, ScaleEvent):
            continue
        if event.action in ("retire", "narrow"):
            assert event.units_after >= MIN_REPLICAS
        else:
            assert event.units_after <= params.max_replicas


class TestAutoscaleStorm:
    def test_diurnal_storm_scales_and_conserves(self, catalog):
        cluster, system, frontend, scaler, ledger, result = _storm(catalog)
        assert scaler.stats.ticks > 10
        assert scaler.stats.scale_ups >= 1
        _assert_storm_invariants(cluster, system, frontend, scaler, result)
        # The ledger saw every placement and stays consistent with the
        # resident fleet at the end of the run.
        totals = ledger.totals(result.makespan_s)
        assert totals["replica_seconds"] > 0
        resident = sum(
            d.plan.replicas for d in system.controller.deployments.values()
        )
        assert ledger.open_replicas() == resident

    def test_storm_with_faults_still_conserves(self, catalog):
        cluster, system, frontend, scaler, ledger, result = _storm(
            catalog, mtbf_s=0.03, seed=13
        )
        _assert_storm_invariants(cluster, system, frontend, scaler, result)
