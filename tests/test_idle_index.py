"""The controller's idle index: reuse, LRU eviction and wake-hint order.

:meth:`SystemController.set_state` is the one writer of deployment state,
and it keeps two orders over idle deployments: per model in creation order
(reuse), and cluster-wide in ``(last_used_s, creation)`` order (eviction
and wake hints).  Each test here pins a case where the order in which
deployments *became* idle differs from the order the lookups must return,
so an index kept in plain insertion order fails it.
"""

import math

import pytest

from repro.cluster import Task, scaled_cluster
from repro.errors import AllocationError, DeploymentError
from repro.runtime import Catalog, build_system
from repro.runtime.deployment import DeploymentState
from repro.vital import VitalCompiler
from tests.queueing import show_counts

#: Four copies fill one VU37P board (4 blocks each).
SMALL = "gru-h512-t1"
#: Needs 3 blocks: one eviction of a SMALL copy makes room.
OTHER = "lstm-h256-t150"


@pytest.fixture(scope="module")
def catalog():
    return Catalog(VitalCompiler())


def _system(catalog, boards=1, isolation=False):
    system = build_system("proposed", scaled_cluster(boards), catalog)
    system.controller.tenant_isolation = isolation
    return system


def _lru(controller) -> list:
    """Every idle deployment, least recently used first."""
    return [entry[2] for entry in controller._idle_lru]


def _deploy(controller, model_key, now=0.0, tenant=""):
    deployment, _ = controller.deploy(model_key, now=now, tenant=tenant)
    return deployment


def _cycle(controller, deployment, now):
    """idle -> busy -> idle, ending idle at ``now``."""
    controller.acquire(deployment)
    controller.release(deployment, now)


class TestReuseOrder:
    def test_requeued_idle_deployment_keeps_its_creation_place(self, catalog):
        controller = _system(catalog).controller
        first = _deploy(controller, SMALL)
        second = _deploy(controller, SMALL)
        _cycle(controller, first, now=1.0)
        # ``first`` became idle last, but it was created first.
        assert controller.find_idle_deployment(SMALL) is first
        assert controller.idle_of(SMALL) == [first, second]
        controller.acquire(first)
        assert controller.find_idle_deployment(SMALL) is second
        assert controller.check_idle_consistent()

    def test_reuse_under_isolation_takes_the_tenants_earliest_copy(
        self, catalog
    ):
        controller = _system(catalog, isolation=True).controller
        _deploy(controller, SMALL, tenant="a")
        b_first = _deploy(controller, SMALL, tenant="b")
        b_second = _deploy(controller, SMALL, tenant="b")
        _cycle(controller, b_first, now=1.0)
        assert controller.find_idle_deployment(SMALL, "b") is b_first
        assert controller.find_idle_deployment(SMALL, "c") is None
        controller.acquire(b_first)
        assert controller.find_idle_deployment(SMALL, "b") is b_second
        assert controller.check_idle_consistent()


class TestEvictionOrder:
    def test_ties_on_last_used_break_by_creation_order(self, catalog):
        controller = _system(catalog).controller
        copies = [_deploy(controller, SMALL) for _ in range(4)]
        with pytest.raises(AllocationError):
            controller.deploy(SMALL)  # the board is full
        for deployment in copies:
            controller.acquire(deployment)
        # Released newest first, all at the same instant.
        for deployment in reversed(copies):
            controller.release(deployment, 1.0)
        assert _lru(controller) == copies
        patience = controller.eviction_patience_s
        controller.deploy(OTHER, now=2.0, waited_s=patience)
        assert controller.stats.deployments_evicted == 1
        assert controller.deployments_of(SMALL) == copies[1:]
        assert controller.check_idle_consistent()

    def test_least_recently_used_goes_first(self, catalog):
        controller = _system(catalog).controller
        copies = [_deploy(controller, SMALL) for _ in range(4)]
        for at, deployment in zip((3.0, 1.0, 4.0, 2.0), copies):
            _cycle(controller, deployment, now=at)
        assert _lru(controller) == [
            copies[1], copies[3], copies[0], copies[2]
        ]
        patience = controller.eviction_patience_s
        controller.deploy(OTHER, now=4.0 + patience, waited_s=patience)
        assert copies[1].deployment_id not in controller.deployments
        assert controller.check_idle_consistent()

    def test_fresh_copies_are_not_evicted(self, catalog):
        controller = _system(catalog).controller
        copies = [_deploy(controller, SMALL) for _ in range(4)]
        _cycle(controller, copies[0], now=1.0)
        patience = controller.eviction_patience_s
        # copies[1:] went stale; copies[0] did not, and is LRU-last.
        controller.deploy(OTHER, now=1.0 + patience / 2, waited_s=patience)
        assert copies[0].deployment_id in controller.deployments
        assert copies[1].deployment_id not in controller.deployments


class TestIsolationFilters:
    """Under tenant isolation another tenant's same-model copy cannot be
    reused, so eviction and wake hints must treat it as foreign."""

    def test_other_tenants_same_model_copy_is_evictable(self, catalog):
        controller = _system(catalog, isolation=True).controller
        mine = [_deploy(controller, SMALL, tenant="a") for _ in range(2)]
        theirs = [_deploy(controller, SMALL, tenant="b") for _ in range(2)]
        for deployment in mine + theirs:
            controller.acquire(deployment)
        for deployment in reversed(theirs):
            controller.release(deployment, 0.001)
        patience = controller.eviction_patience_s
        controller.deploy(SMALL, now=1.0, waited_s=patience, tenant="a")
        assert theirs[0].deployment_id not in controller.deployments
        assert theirs[1].deployment_id in controller.deployments
        assert all(d.deployment_id in controller.deployments for d in mine)
        assert controller.check_idle_consistent()

    def test_wake_hint_counts_other_tenants_same_model_copy(self, catalog):
        system = _system(catalog, isolation=True)
        controller = system.controller
        controller.acquire(_deploy(controller, SMALL, tenant="a"))
        theirs = _deploy(controller, SMALL, tenant="b")
        _cycle(controller, theirs, now=0.002)
        show_counts(system, {SMALL: system.EXPANSION_PRESSURE})
        patience = controller.eviction_patience_s
        task = Task(task_id=0, model_key=SMALL, arrival_s=0.0, tenant="a")
        hint = system.earliest_retry(task, now=patience)
        assert hint == 0.002 + patience - 1e-12
        controller.tenant_isolation = False
        # Without isolation the copy is reusable, not foreign: no wake.
        assert system.earliest_retry(task, now=patience) == math.inf

    def test_wake_hint_is_the_oldest_foreign_idle_copy(self, catalog):
        system = _system(catalog, boards=4)
        controller = system.controller
        other = _deploy(controller, OTHER)
        small = _deploy(controller, SMALL)
        # Idle transitions out of time order (synchronous callers may).
        _cycle(controller, other, now=0.003)
        _cycle(controller, small, now=0.001)
        patience = controller.eviction_patience_s
        show_counts(system, {})
        task = Task(task_id=0, model_key="lstm-h512-t25", arrival_s=0.0)
        hint = system.earliest_retry(task, now=patience)
        assert hint == 0.001 + patience - 1e-12


class TestConsistencyCheck:
    def test_write_around_the_owner_is_detected(self, catalog):
        controller = _system(catalog).controller
        deployment = _deploy(controller, SMALL)
        controller.acquire(deployment)
        assert controller.check_idle_consistent()
        deployment.state = DeploymentState.IDLE  # bypasses set_state
        assert not controller.check_idle_consistent()
        with pytest.raises(DeploymentError, match="idle index corruption"):
            controller.set_state(deployment, DeploymentState.BUSY)

    def test_discard_leaves_no_trace(self, catalog):
        controller = _system(catalog).controller
        kept = _deploy(controller, SMALL)
        gone = _deploy(controller, SMALL)
        controller.evict(gone)
        assert controller.idle_of(SMALL) == [kept]
        assert _lru(controller) == [kept]
        # The controller refuses to move a discarded deployment, so its
        # later transitions index nothing.
        with pytest.raises(DeploymentError, match="not idle in this"):
            controller.acquire(gone)
        with pytest.raises(DeploymentError, match="not busy in this"):
            controller.release(gone, 2.0)
        assert _lru(controller) == [kept]
        assert controller.check_idle_consistent()
        with pytest.raises(DeploymentError, match="not resident"):
            controller.set_state(gone, DeploymentState.MIGRATING)
