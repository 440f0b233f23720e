"""Section 4.4's performance-isolation result.

"For evaluated LSTM/GRU benchmarks, the entire machine codes can be stored
in this buffer to largely minimize the number of DRAM accesses, thereby
avoiding contention on the shared DRAM interface.  This enables a
sufficient performance isolation and the inference latency in this
resource-sharing environment is comparable to that in a non-sharing
environment."

The driver measures each benchmark's virtualized latency alone vs sharing
an FPGA with two co-resident accelerators, twice: with the on-chip
instruction buffer (the paper's design) and with the buffer ablated (every
instruction fetch crosses the shared DRAM interface).  ``repro
isolation`` prints the table; the cluster-level question (one tenant's
latency alone vs sharing the cluster) is ``bench_tenancy``'s
``premium_solo`` vs ``mixed_tenancy`` arms.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..accel import BW_V37, CycleModel
from ..accel.timing import VirtualizationContext
from ..workloads.deepbench import TABLE4_BENCHMARKS, ModelSpec
from .report import format_table

#: Co-resident accelerators in the sharing scenario.
NEIGHBOURS = 2


@dataclass
class IsolationRow:
    """Sharing impact for one benchmark, with and without the buffer."""

    model: ModelSpec
    alone_s: float
    shared_s: float
    shared_no_buffer_s: float
    code_fits_buffer: bool

    @property
    def sharing_penalty(self) -> float:
        """Relative slowdown from sharing, with the instruction buffer."""
        return self.shared_s / self.alone_s - 1.0

    @property
    def sharing_penalty_no_buffer(self) -> float:
        """Relative slowdown from sharing when code spills to DRAM."""
        return self.shared_no_buffer_s / self.alone_s - 1.0


def run_isolation(benchmarks=TABLE4_BENCHMARKS) -> list:
    """Measure the isolation table on the VU37P instance."""
    model = CycleModel(BW_V37)
    virt = VirtualizationContext(virtual_blocks=14)
    rows = []
    for spec in benchmarks:
        program = spec.program()
        if not model.fits(program):
            continue
        alone = model.latency(program, virtualization=virt)
        shared = model.latency(
            program, virtualization=virt, sharing_neighbours=NEIGHBOURS
        )
        spilled = model.latency(
            program,
            virtualization=virt,
            sharing_neighbours=NEIGHBOURS,
            instruction_buffer=False,
        )
        rows.append(
            IsolationRow(
                model=spec,
                alone_s=alone.seconds,
                shared_s=shared.seconds,
                shared_no_buffer_s=spilled.seconds,
                code_fits_buffer=model.program_fits_buffer(program),
            )
        )
    return rows


def render(rows: list) -> str:
    body = [
        [
            row.model.key,
            "yes" if row.code_fits_buffer else "NO",
            f"{row.alone_s * 1e3:.4g}",
            f"{row.shared_s * 1e3:.4g}",
            f"{row.sharing_penalty * 100:.2f}%",
            f"{row.sharing_penalty_no_buffer * 100:.2f}%",
        ]
        for row in rows
    ]
    return format_table(
        [
            "Benchmark", "Code in buffer", "Alone (ms)", "Shared (ms)",
            "Sharing penalty", "Penalty w/o buffer",
        ],
        body,
        title=(
            "Section 4.4: performance isolation under FPGA sharing "
            f"({NEIGHBOURS} co-resident accelerators)"
        ),
    )
