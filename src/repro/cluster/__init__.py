"""The FPGA cluster substrate.

Models the paper's custom-built evaluation platform (Section 4.2): four
FPGAs (3x XCVU37P + 1x XCKU115) attached to a host over PCIe, connected to
each other by a secondary bidirectional ring network.  Includes:

* :mod:`~repro.cluster.events`    — a deterministic discrete-event queue.
* :mod:`~repro.cluster.network`   — the ring network timing model, with the
  programmable added-latency knob of Section 4.3 (Fig. 11).
* :mod:`~repro.cluster.topology`  — cluster construction (boards + ring).
* :mod:`~repro.cluster.simulator` — the discrete-event system simulator
  behind the Fig. 12 throughput evaluation.
"""

from .events import EventQueue
from .network import RingNetwork, NetworkParameters
from .topology import FPGACluster, paper_cluster, scaled_cluster
from .simulator import ClusterSimulator, Task, SimulationResult

__all__ = [
    "ClusterSimulator",
    "EventQueue",
    "FPGACluster",
    "NetworkParameters",
    "RingNetwork",
    "SimulationResult",
    "Task",
    "paper_cluster",
    "scaled_cluster",
]
