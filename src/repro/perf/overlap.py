"""Communication/computation overlap for scale-out deployments (Fig. 11).

When one accelerator is scaled down into ``k`` replicas on ``k`` FPGAs
(Section 2.3), each timestep ends with every replica broadcasting its
hidden-state slice and begins (next iteration) with a combining receive.
After the reordering tool runs, every instruction scheduled *before* the
receive executes while the previous iteration's transfer is still in
flight — for LSTM/GRU that is the ``W x_t`` matrix work, exactly the
overlap the paper describes.

Steady-state per-step stall is therefore::

    stall = max(0, T_comm(added_latency) - T_overlap_window)

and the task latency is the replica's compute latency plus ``timesteps x
stall``.  With the reordering tool disabled the receive sits at the top of
the body, the window is empty, and the full transfer time is exposed — the
ablation benchmark measures that difference.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel.timing import CycleModel, VirtualizationContext
from ..cluster.network import RingNetwork
from ..errors import ReproError
from ..isa.instructions import Op
from ..isa.program import Program


def _loop_body(program: Program) -> list:
    """Instructions of the (single) timestep loop body."""
    body: list = []
    depth = 0
    for inst in program.instructions:
        if inst.op is Op.LOOP:
            depth += 1
            continue
        if inst.op is Op.ENDLOOP:
            depth -= 1
            continue
        if depth > 0:
            body.append(inst)
    return body


def overlap_window_seconds(
    program: Program,
    cycle_model: CycleModel,
    resident_fraction: float | None = None,
) -> float:
    """Seconds of loop-body work scheduled before the combining receive.

    Instruction costs are evaluated at full weight residency regardless of
    the model's actual residency: when weights stream from DRAM, that excess
    occupies the same DRAM interface the synchronisation template module
    uses (Fig. 8b), so DRAM-streaming time cannot hide *network* time and is
    excluded from the window.  ``resident_fraction`` is accepted for API
    symmetry but ignored.
    """
    del resident_fraction  # see docstring: windows use pure compute time
    body = _loop_body(program)
    cycles = 0.0
    for inst in body:
        if inst.is_recv:
            break
        if inst.is_send:
            continue
        streaming, fixed = cycle_model.instruction_cycles(inst, 1.0)
        cycles += streaming + fixed
    else:
        return 0.0  # no receive => no exchange in this program
    return cycles / cycle_model.config.frequency_hz


@dataclass
class ScaleOutLatency:
    """Breakdown of a multi-FPGA task latency."""

    total_s: float
    compute_s: float
    stall_per_step_s: float
    comm_per_step_s: float
    overlap_window_s: float
    timesteps: int

    @property
    def fully_hidden(self) -> bool:
        """True when inter-FPGA communication is completely overlapped."""
        return self.stall_per_step_s <= 1e-12


def scaleout_latency(
    replica_program: Program,
    cycle_model: CycleModel,
    network: RingNetwork,
    members: list,
    added_latency_s: float = 0.0,
    virtualization: VirtualizationContext | None = None,
) -> ScaleOutLatency:
    """End-to-end latency of one task on a k-FPGA scale-out deployment.

    ``replica_program`` must be a transformed replica program (with
    send/recv); all replicas are symmetric, so one replica's timeline is the
    task timeline.
    """
    meta = replica_program.metadata.get("scaleout")
    if meta is None:
        raise ReproError(
            f"{replica_program.name!r} is not a scale-out program (run "
            "insert_scaleout_communication first)"
        )
    timesteps = int(replica_program.metadata.get("timesteps", 1))
    slice_elements = int(meta["slice_length"])

    compute = cycle_model.latency(replica_program, virtualization=virtualization)
    window = overlap_window_seconds(
        replica_program, cycle_model, compute.resident_fraction
    )
    comm = network.exchange_time(members, slice_elements, added_latency_s)
    stall = max(0.0, comm - window)
    return ScaleOutLatency(
        total_s=compute.seconds + timesteps * stall,
        compute_s=compute.seconds,
        stall_per_step_s=stall,
        comm_per_step_s=comm,
        overlap_window_s=window,
        timesteps=timesteps,
    )
