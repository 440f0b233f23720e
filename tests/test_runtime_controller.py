"""System-controller tests: the greedy policy, spatial sharing, eviction
and the restricted variant."""

import pytest

from repro.cluster import Task, paper_cluster
from repro.cluster.network import NetworkParameters
from repro.errors import AllocationError, ReproError
from repro.runtime import Catalog, build_system
from repro.runtime.controller import PlacementPolicy, SystemController
from repro.runtime.deployment import DeploymentState
from repro.units import us
from repro.vital import LowLevelController, VitalCompiler
from tests.test_migration import _shatter_vu37p


@pytest.fixture(scope="module")
def shared_catalog():
    return Catalog(VitalCompiler())


def _controller(catalog, cluster=None, **kwargs):
    cluster = cluster or paper_cluster()
    controller = SystemController(
        cluster,
        catalog,
        LowLevelController(catalog.compiler.store),
        **kwargs,
    )
    return controller, cluster


class TestDeploy:
    def test_greedy_prefers_fewest_fpgas(self, shared_catalog):
        controller, _ = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h512-t1")
        assert len(deployment.placements) == 1

    def test_two_fpga_model(self, shared_catalog):
        controller, _ = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h2560-t375")
        assert len(deployment.placements) == 2
        assert {p.device_type for p in deployment.placements} == {"XCVU37P"}

    def test_reconfig_cost_charged(self, shared_catalog):
        controller, _ = _controller(shared_catalog)
        deployment, reconfig = controller.deploy("gru-h512-t1")
        blocks = sum(p.virtual_blocks for p in deployment.placements)
        assert reconfig > blocks * controller.reconfig_s_per_block * 0.99

    def test_blocks_actually_reserved(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        free_before = sum(cluster.total_free_blocks().values())
        deployment, _ = controller.deploy("lstm-h256-t150")
        free_after = sum(cluster.total_free_blocks().values())
        used = sum(p.virtual_blocks for p in deployment.placements)
        assert free_before - free_after == used

    def test_spatial_sharing_multiple_models_one_board(self, shared_catalog):
        """The headline HS-abstraction property: small accelerators of
        different applications share one FPGA."""
        controller, cluster = _controller(shared_catalog)
        for key in ("gru-h512-t1", "lstm-h256-t150", "lstm-h512-t25"):
            controller.deploy(key)
        owners_per_board = [len(b.owners()) for b in cluster.boards.values()]
        assert max(owners_per_board) >= 2

    def test_service_time_positive_and_cached(self, shared_catalog):
        controller, _ = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h1536-t375")
        assert deployment.service_s > 0

    def test_find_idle_deployment(self, shared_catalog):
        controller, _ = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h512-t1", now=0.0)
        assert controller.find_idle_deployment("gru-h512-t1") is deployment
        controller.acquire(deployment)
        assert controller.find_idle_deployment("gru-h512-t1") is None


class TestCatalogServiceCache:
    """Service times live in the catalog: controllers sharing one time
    each placement shape once, and a controller whose timing inputs
    differ keys its own entries."""

    #: Two replicas first (the ring is timed too), then two that share
    #: what is left of the paper cluster.
    MODELS = ("gru-h2560-t375", "gru-h512-t1", "lstm-h256-t150")

    def test_controllers_share_one_evaluation_per_shape(self, monkeypatch):
        catalog = Catalog(VitalCompiler())
        timed = []

        def counting(self, plan, placements, inner=SystemController._service_time):
            timed.append(plan.model_key)
            return inner(self, plan, placements)

        monkeypatch.setattr(SystemController, "_service_time", counting)
        services, counts = [], []
        for _ in range(2):
            controller, _ = _controller(catalog)
            services.append([controller.deploy(key)[0].service_s
                             for key in self.MODELS])
            counts.append(len(timed))
        assert services[0] == services[1]
        # The first controller timed every shape it ranked, once each (a
        # search may rank several per model); the second timed none.
        assert set(timed) == set(self.MODELS)
        assert counts[0] == counts[1] == len(catalog._service_cache)

    @pytest.mark.parametrize("variant", ["network"])
    def test_other_timing_inputs_get_their_own_entry(self, shared_catalog,
                                                     variant):
        def options():
            return {
                "network": {"cluster": paper_cluster(
                    NetworkParameters(hop_latency_s=us(50.0)))},
            }[variant]

        model = self.MODELS[0]
        base, _ = _controller(shared_catalog)
        base_service = base.deploy(model)[0].service_s
        entries = len(shared_catalog._service_cache)
        shared, _ = _controller(shared_catalog, **options())
        service = shared.deploy(model)[0].service_s
        assert len(shared_catalog._service_cache) == entries + 1
        fresh, _ = _controller(Catalog(VitalCompiler()), **options())
        assert service == fresh.deploy(model)[0].service_s
        assert service != base_service


class TestEviction:
    def test_eviction_requires_patience(self, shared_catalog):
        controller, _ = _controller(shared_catalog)
        # Fill the cluster with L deployments.
        first, _ = controller.deploy("gru-h2560-t375", now=0.0)
        second, _ = controller.deploy("gru-h2304-t250", now=0.0)
        with pytest.raises(AllocationError):
            controller.deploy("lstm-h1536-t50", now=0.0, waited_s=0.0)

    def test_eviction_after_patience(self, shared_catalog):
        controller, _ = _controller(shared_catalog)
        controller.deploy("gru-h2560-t375", now=0.0)
        controller.deploy("gru-h2304-t250", now=0.0)
        deployment, _ = controller.deploy(
            "lstm-h1536-t50", now=1.0, waited_s=1.0
        )
        assert deployment.model_key == "lstm-h1536-t50"
        assert controller.stats.deployments_evicted >= 1

    def test_busy_deployments_never_evicted(self, shared_catalog):
        controller, _ = _controller(shared_catalog)
        a, _ = controller.deploy("gru-h2560-t375", now=0.0)
        b, _ = controller.deploy("gru-h2304-t250", now=0.0)
        controller.acquire(a)
        controller.acquire(b)
        with pytest.raises(AllocationError):
            controller.deploy("lstm-h1536-t50", now=10.0, waited_s=10.0)
        assert a.state is DeploymentState.BUSY

    def test_explicit_evict_frees_blocks(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h512-t1")
        free_before = sum(cluster.total_free_blocks().values())
        controller.evict(deployment)
        assert sum(cluster.total_free_blocks().values()) > free_before

    def test_evicting_busy_rejected(self, shared_catalog):
        controller, _ = _controller(shared_catalog)
        deployment, _ = controller.deploy("gru-h512-t1")
        controller.acquire(deployment)
        with pytest.raises(AllocationError):
            controller.evict(deployment)


class TestRestrictedPolicy:
    def test_same_type_pairs_only(self, shared_catalog):
        controller, _ = _controller(shared_catalog, same_type_only=True)
        deployment, _ = controller.deploy("gru-h2304-t250")
        types = {p.device_type for p in deployment.placements}
        assert len(types) == 1

    def test_mixed_pair_used_when_same_type_impossible(self, shared_catalog):
        controller, cluster = _controller(shared_catalog)
        # Occupy two of the three V37s so no same-type pair remains.
        cluster.board("vu37p-0").allocate("blocker", 16)
        cluster.board("vu37p-1").allocate("blocker", 16)
        deployment, _ = controller.deploy("gru-h2304-t250")
        types = {p.device_type for p in deployment.placements}
        assert types == {"XCVU37P", "XCKU115"}

    def test_restricted_fails_where_mixed_would_work(self, shared_catalog):
        controller, cluster = _controller(shared_catalog, same_type_only=True)
        cluster.board("vu37p-0").allocate("blocker", 16)
        cluster.board("vu37p-1").allocate("blocker", 16)
        with pytest.raises(AllocationError):
            controller.deploy("gru-h2304-t250")


class TestPlacementPolicies:
    def test_best_fit_packs(self, shared_catalog):
        controller, cluster = _controller(
            shared_catalog, placement=PlacementPolicy.BEST_FIT
        )
        controller.deploy("gru-h512-t1")
        controller.deploy("gru-h512-t1")
        used_boards = {
            b.fpga_id for b in cluster.boards.values() if b.used_blocks
        }
        assert len(used_boards) == 1  # both packed onto the same board

    def test_worst_fit_spreads(self, shared_catalog):
        controller, cluster = _controller(
            shared_catalog, placement=PlacementPolicy.WORST_FIT
        )
        controller.deploy("gru-h512-t1")
        controller.deploy("gru-h512-t1")
        used_boards = {
            b.fpga_id for b in cluster.boards.values() if b.used_blocks
        }
        assert len(used_boards) == 2


class TestPlanOrder:
    def test_widest_first_uses_more_fpgas(self, shared_catalog):
        from repro.runtime.controller import PlanOrder

        greedy, _ = _controller(shared_catalog)
        widest, _ = _controller(
            shared_catalog, plan_order=PlanOrder.WIDEST_FIRST
        )
        few, _ = greedy.deploy("gru-h1536-t375")
        many, _ = widest.deploy("gru-h1536-t375")
        assert len(few.placements) == 1
        assert len(many.placements) >= 2

    def test_default_is_fewest(self, shared_catalog):
        from repro.runtime.controller import PlanOrder

        controller, _ = _controller(shared_catalog)
        assert controller.plan_order is PlanOrder.FEWEST_FPGAS


def _unbound_recovery(catalog):
    system = build_system("proposed", paper_cluster(), catalog, recovery=True)
    controller = system.controller
    deployment, _ = controller.deploy("gru-h512-t1", now=0.0)
    board = controller.cluster.board(deployment.placements[0].fpga_id)
    return controller, lambda: controller.on_board_failure(board, now=0.01)


def _unbound_defrag(catalog):
    system = build_system("proposed", paper_cluster(), catalog, defrag=True)
    _shatter_vu37p(system.controller, system.cluster)
    task = Task(task_id=0, model_key="gru-h1536-t375", arrival_s=0.0)
    return system.controller, lambda: system.try_start(task, 0.0)


def _unbound_swap(catalog):
    controller, _ = _controller(catalog)
    deployment, _ = controller.deploy("lstm-h512-t25", now=0.0)
    narrow = min(
        catalog.entry_by_key("lstm-h512-t25").sorted_plans(),
        key=controller.plan_footprint,
    )
    return controller, lambda: controller.swap_plan(deployment, narrow, now=0.0)


@pytest.mark.parametrize(
    "timed_path", [_unbound_recovery, _unbound_defrag, _unbound_swap],
    ids=["recovery", "defrag", "swap_plan"],
)
def test_unbound_controller_refuses_timed_work(shared_catalog, timed_path):
    """Restores, defrag moves and reconfiguration holds complete as events
    on a bound simulator; without one the controller raises, before it
    moves or tears down any deployment."""
    controller, action = timed_path(shared_catalog)

    def resident():
        return {
            key: (d.state, [(p.fpga_id, tuple(p.block_indices))
                            for p in d.placements])
            for key, d in controller.deployments.items()
        }

    before = resident()
    with pytest.raises(ReproError, match="bound simulator"):
        action()
    assert resident() == before
