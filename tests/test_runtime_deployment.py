"""Deployment state-machine tests."""

import pytest

from repro.cluster import paper_cluster
from repro.errors import DeploymentError
from repro.runtime import Catalog
from repro.runtime.catalog import DeploymentPlan
from repro.runtime.controller import SystemController
from repro.runtime.deployment import (
    Deployment,
    DeploymentState,
    ReplicaPlacement,
)
from repro.vital import LowLevelController, VitalCompiler


@pytest.fixture(scope="module")
def catalog():
    return Catalog(VitalCompiler())


def _deployment() -> Deployment:
    plan = DeploymentPlan(model_key="gru-h512-t1", replicas=1)
    return Deployment(
        deployment_id="dep-test",
        model_key="gru-h512-t1",
        plan=plan,
        placements=[
            ReplicaPlacement(
                fpga_id="vu37p-0", device_type="XCVU37P", virtual_blocks=4
            )
        ],
        service_s=0.001,
    )


def _resident(catalog):
    """A controller and one idle deployment resident in it: the
    controller makes the IDLE <-> BUSY moves."""
    controller = SystemController(
        paper_cluster(), catalog, LowLevelController(catalog.compiler.store)
    )
    deployment, _ = controller.deploy("gru-h512-t1")
    return controller, deployment


class TestStateMachine:
    def test_starts_idle(self):
        deployment = _deployment()
        assert deployment.is_idle
        assert deployment.state is DeploymentState.IDLE

    def test_acquire_release_cycle(self, catalog):
        controller, deployment = _resident(catalog)
        controller.acquire(deployment)
        assert deployment.state is DeploymentState.BUSY
        controller.release(deployment, now=5.0)
        assert deployment.is_idle
        assert deployment.last_used_s == 5.0
        assert deployment.tasks_served == 1

    def test_double_acquire_rejected(self, catalog):
        controller, deployment = _resident(catalog)
        controller.acquire(deployment)
        with pytest.raises(DeploymentError):
            controller.acquire(deployment)

    def test_release_idle_rejected(self, catalog):
        controller, deployment = _resident(catalog)
        with pytest.raises(DeploymentError):
            controller.release(deployment, now=0.0)

    def test_member_fpgas(self):
        assert _deployment().member_fpgas == ["vu37p-0"]

    def test_tasks_served_accumulates(self, catalog):
        controller, deployment = _resident(catalog)
        for stamp in (1.0, 2.0, 3.0):
            controller.acquire(deployment)
            controller.release(deployment, now=stamp)
        assert deployment.tasks_served == 3
        assert deployment.last_used_s == 3.0
        assert controller.check_idle_consistent()
