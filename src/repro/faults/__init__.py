"""Fault injection and automatic failure recovery (the reliability layer).

A production cluster serving heavy traffic must survive board failures,
partial-reconfiguration faults and operator drains — events the paper's
runtime (Section 2.3) never sees in a four-board lab deployment but which
dominate operations at fleet scale.  This package supplies both halves of
that story:

* :mod:`~repro.faults.injector` — a :class:`FaultInjector` that turns a
  per-board MTBF/MTTR model (deterministic, seeded) into first-class
  discrete-event failures and repairs via
  :meth:`repro.cluster.simulator.ClusterSimulator.schedule_external`;
* :mod:`~repro.faults.recovery` — a :class:`RecoveryManager` that rebuilds
  deployments lost to a failure from their last periodic checkpoint
  (priced by :meth:`~repro.migration.engine.MigrationEngine.host_stream_s`),
  falling back to the paper's scale-down optimisation when no same-width
  placement exists and retrying with bounded exponential backoff when the
  cluster is momentarily full.  Restores and retries are timed events on
  that simulator, so recovery needs one bound.

Board health itself (``HEALTHY``/``DEGRADED``/``FAILED``) lives on
:class:`~repro.vital.virtual_block.PhysicalFPGA` and is surfaced through
the controller's :class:`~repro.runtime.controller.PlacementIndex`, so
unhealthy boards drop out of every placement query without the policies
knowing about faults.

Everything here is off by default (``SystemController(recovery_enabled=
False)`` and no injector armed), so existing schedules — including the
Fig. 12 goldens — stay bit-identical.
"""

from ..vital.virtual_block import BoardHealth
from .injector import FaultInjector, FaultModelParameters
from .recovery import RecoveryAbandoned, RecoveryManager

__all__ = [
    "BoardHealth",
    "FaultInjector",
    "FaultModelParameters",
    "RecoveryAbandoned",
    "RecoveryManager",
]
