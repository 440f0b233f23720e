"""Live migration and defragmentation (the cloud-operations layer).

The framework's application-specific ISA makes accelerator state
*architectural*: everything a running NPU holds — vector/matrix register
files, the program counter and loop stack, undelivered synchronisation
slices — is visible at an instruction boundary, with no microarchitectural
residue.  A replica can therefore resume on any board whose mapping
database holds an image for the same program, *including boards of a
different device type* (the catalog compiles every plan per type), and the
cost of moving it is the size of that state.  The simulation charges that
cost; it never captures or restores a simulator.

Two layers plus a state-size model:

* :func:`~repro.migration.engine.architectural_state_bytes` — a replica's
  transferable state, derived from its accelerator config and program;
  every migration is priced through
  :meth:`~repro.migration.engine.MigrationEngine.state_bytes`, and every
  checkpoint to or from host memory (recovery, preemption, autoscaler
  retire and narrow) through
  :meth:`~repro.migration.engine.MigrationEngine.host_stream_s`;
* :mod:`~repro.migration.engine`     — planning and executing moves of a
  live deployment to other boards, charging drain + state transfer +
  virtual-block reconfiguration;
* :mod:`~repro.migration.defrag`     — a fragmentation metric and the
  compaction policy the controller invokes when placement fails despite
  sufficient aggregate free blocks.

Everything here is off by default (``SystemController(migration_enabled=
False)``); enabling it changes scheduling outcomes, so the Fig. 12 goldens
only pin the disabled path.
"""

from .defrag import DefragPlan, cluster_fragmentation, fragmentation, plan_defrag
from .engine import (
    MigrationEngine,
    MigrationPlan,
    ReplicaMove,
    architectural_state_bytes,
)

__all__ = [
    "DefragPlan",
    "MigrationEngine",
    "MigrationPlan",
    "ReplicaMove",
    "architectural_state_bytes",
    "cluster_fragmentation",
    "fragmentation",
    "plan_defrag",
]
