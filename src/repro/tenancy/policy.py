"""Tenant identities and tenancy policy knobs.

A :class:`TenantParameters` names one tenant and fixes its contract with
the cluster: a *priority class* (strict — a higher class is always served
first), a *weight* (fair-share ratio within one class), a resource quota
(virtual blocks concurrently resident), and whether the tenant's
deployments may be victimised by priority preemption.

:class:`TenancyParameters` configures the scheduler itself: whether idle
deployments are reused across tenants.  Preemption's bounds are fixed
policy, module constants here: the victims one sweep may take and the
sweep cooldown that keeps a starved premium tenant from levelling the
whole cluster in one pass.  A victim's drain and checkpoint are priced by
the migration engine.

Both are frozen dataclasses, mirroring
:class:`~repro.autoscale.policy.AutoscaleParameters`; a tenant's
contract is validated at construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..units import ms

#: Most deployments one preemption sweep may victimise.
MAX_VICTIMS = 4
#: Minimum spacing between preemption sweeps; within the window a starved
#: task simply waits for the in-flight teardowns to land.
PREEMPT_COOLDOWN_S = ms(1.0)


@dataclass(frozen=True)
class TenantParameters:
    """One tenant's identity, guarantees and limits."""

    #: Tenant name; ``""`` is reserved for untenanted (legacy) traffic.
    name: str
    #: Strict priority class — dispatch always prefers a higher class, and
    #: preemption may only take blocks *down* the priority order.
    priority: int = 0
    #: Fair-share weight among tenants of the same priority class (start-
    #: time fair queueing: a tenant at weight 2 accrues virtual time half
    #: as fast, so it receives twice the share under contention).
    weight: float = 1.0
    #: Maximum virtual blocks concurrently resident across the tenant's
    #: deployments (``None`` = unlimited).  Enforced at the allocation
    #: point, so it can never be exceeded, only declined.
    block_quota: int | None = None
    #: Whether a higher-priority tenant may reclaim this tenant's blocks
    #: via checkpoint + requeue.
    preemptible: bool = True

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ReproError("tenant name must be a string")
        if self.name != self.name.strip() or "\n" in self.name:
            raise ReproError(f"malformed tenant name {self.name!r}")
        if self.weight <= 0:
            raise ReproError("tenant weight must be positive")
        if self.block_quota is not None and self.block_quota < 1:
            raise ReproError("block_quota must be >= 1 (or None)")


@dataclass(frozen=True)
class TenancyParameters:
    """Policy knobs for the tenancy scheduler.  Preemption itself has no
    switch: a capacity-starved task above the lowest preemptible class
    always plans a sweep, and a contract with no preemptible tenant
    (:attr:`TenantParameters.preemptible`) never does."""

    #: When True the controller only reuses idle deployments owned by the
    #: requesting tenant, so block attribution (and therefore quota
    #: enforcement) is exact.  Off restores cross-tenant reuse.
    isolation: bool = True
