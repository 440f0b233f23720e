"""Replica-second accounting: the cost side of the autoscaling trade.

A :class:`ReplicaLedger` integrates resident capacity over simulated time,
exactly: the controller notifies it at every deployment instantiation and
discard, so the integral is piecewise-exact rather than tick-sampled.  Two
measures are kept per model:

* **replica-seconds** — each deployment contributes its plan's replica
  count for its lifetime (the fleet-size metric the bench gates on);
* **block-seconds** — each deployment contributes its plan's block
  footprint (``DeploymentPlan.footprint``),
  the finer-grained rent a real cloud would bill.

Deployments still resident when a run ends are charged up to the
evaluation instant passed to :meth:`ReplicaLedger.totals` — callers
compare arms at one common horizon so an early-finishing run is not
undercharged.

The ledger also carries the **tenant axis** (multi-tenancy layer): every
entry is keyed by the deployment's owning tenant, instantaneous per-tenant
open blocks are maintained incrementally, and their *peak* is recorded —
``peak_open_blocks[tenant] <= quota`` is exactly the "zero quota
violations" check the tenancy bench gates on, with no sampling gap.
"""

from __future__ import annotations


class ReplicaLedger:
    """Exact integral of resident replicas (and blocks) over time."""

    def __init__(self):
        #: deployment_id -> (model_key, replicas, blocks, opened_s, tenant).
        self._open: dict[str, tuple] = {}
        #: model_key -> accumulated replica-seconds of closed deployments.
        self._replica_s: dict[str, float] = {}
        #: model_key -> accumulated block-seconds of closed deployments.
        self._block_s: dict[str, float] = {}
        #: tenant -> accumulated replica-seconds of closed deployments.
        self._replica_s_by_tenant: dict[str, float] = {}
        #: tenant -> accumulated block-seconds of closed deployments.
        self._block_s_by_tenant: dict[str, float] = {}
        #: tenant -> blocks currently resident (incremental, exact).
        self._open_blocks_by_tenant: dict[str, int] = {}
        #: tenant -> historical maximum of the instantaneous open blocks.
        self.peak_open_blocks: dict[str, int] = {}

    # -- controller notifications ---------------------------------------------

    def on_instantiate(self, deployment, now: float) -> None:
        plan = deployment.plan
        blocks = plan.footprint
        tenant = getattr(deployment, "tenant", "")
        self._open[deployment.deployment_id] = (
            deployment.model_key, plan.replicas, blocks, now, tenant
        )
        open_blocks = self._open_blocks_by_tenant.get(tenant, 0) + blocks
        self._open_blocks_by_tenant[tenant] = open_blocks
        if open_blocks > self.peak_open_blocks.get(tenant, 0):
            self.peak_open_blocks[tenant] = open_blocks

    def on_discard(self, deployment, now: float) -> None:
        entry = self._open.pop(deployment.deployment_id, None)
        if entry is None:
            return  # instantiated before the ledger was attached
        model_key, replicas, blocks, opened_s, tenant = entry
        lived = max(0.0, now - opened_s)
        self._replica_s[model_key] = (
            self._replica_s.get(model_key, 0.0) + replicas * lived
        )
        self._block_s[model_key] = (
            self._block_s.get(model_key, 0.0) + blocks * lived
        )
        self._replica_s_by_tenant[tenant] = (
            self._replica_s_by_tenant.get(tenant, 0.0) + replicas * lived
        )
        self._block_s_by_tenant[tenant] = (
            self._block_s_by_tenant.get(tenant, 0.0) + blocks * lived
        )
        self._open_blocks_by_tenant[tenant] -= blocks

    # -- queries ----------------------------------------------------------------

    def open_replicas(self, model_key: str | None = None) -> int:
        """Replica units currently resident, of one model (``None`` = all)."""
        return sum(
            replicas
            for key, replicas, _, _, _ in self._open.values()
            if model_key is None or key == model_key
        )

    def open_blocks(
        self, tenant: str | None = None, model_key: str | None = None
    ) -> int:
        """Virtual blocks currently resident, filtered by tenant and/or
        model.  The tenant-only form is O(1) — the quota guard sits on the
        placement hot path."""
        if model_key is None and tenant is not None:
            return self._open_blocks_by_tenant.get(tenant, 0)
        return sum(
            blocks
            for key, _, blocks, _, owner in self._open.values()
            if (model_key is None or key == model_key)
            and (tenant is None or owner == tenant)
        )

    def totals(self, at_s: float) -> dict:
        """Per-model, per-tenant and aggregate charge up to ``at_s``
        (non-destructive: still-open deployments are charged to ``at_s``
        without closing)."""
        replica_s = dict(self._replica_s)
        block_s = dict(self._block_s)
        tenant_replica_s = dict(self._replica_s_by_tenant)
        tenant_block_s = dict(self._block_s_by_tenant)
        for model_key, replicas, blocks, opened_s, tenant in self._open.values():
            lived = max(0.0, at_s - opened_s)
            replica_s[model_key] = replica_s.get(model_key, 0.0) + replicas * lived
            block_s[model_key] = block_s.get(model_key, 0.0) + blocks * lived
            tenant_replica_s[tenant] = (
                tenant_replica_s.get(tenant, 0.0) + replicas * lived
            )
            tenant_block_s[tenant] = (
                tenant_block_s.get(tenant, 0.0) + blocks * lived
            )
        return {
            "replica_seconds": sum(replica_s.values()),
            "block_seconds": sum(block_s.values()),
            "replica_seconds_by_model": {
                key: replica_s[key] for key in sorted(replica_s)
            },
            "block_seconds_by_model": {
                key: block_s[key] for key in sorted(block_s)
            },
            "replica_seconds_by_tenant": {
                key: tenant_replica_s[key] for key in sorted(tenant_replica_s)
            },
            "block_seconds_by_tenant": {
                key: tenant_block_s[key] for key in sorted(tenant_block_s)
            },
        }
