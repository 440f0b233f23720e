"""Automatic insertion of inter-FPGA communication instructions.

This is the paper's custom tool for scale-out acceleration (Section 2.3,
Fig. 8): when one AS ISA-based accelerator is *scaled down* into ``k``
smaller replicas, each replica computes a ``hidden/k`` slice of the hidden
state per timestep and must exchange slices with its partners before the
next timestep.

The synchronisation template module (Fig. 8b) reuses the DRAM read/write
instructions at a pre-defined out-of-range address:

* a ``V_WR`` to the sync window **sends** the local slice to the partner
  accelerators through the inter-FPGA network;
* a ``V_RD`` from the sync window **blocks** until all partner slices arrive
  and returns the *combined* full vector — the module merges the received
  entries with the locally produced slice using its index register.

The tool operates on programs whose codegen tagged

* the instruction that produces the local hidden-state slice with
  ``produce:<name>`` and
* instructions that consume the *full* vector with ``consume:<name>``.

It inserts a tagged send after each producer and a tagged recv before the
first consumer of the following iteration (i.e. at the top of the loop
body), redirecting consumers to the combined register.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace

from ..errors import ISAError
from .instructions import Instruction, Op, SYNC_ADDRESS
from .program import Program


@dataclass(frozen=True)
class ScaleOutPlan:
    """Parameters of one scale-out transformation.

    Attributes:
        replicas: number of scaled-down accelerators (k).
        replica_index: which replica this program is for (0..k-1).
        value: the tag name of the exchanged state (e.g. ``"h"``).
        full_length: elements of the full vector.
        slice_register: VRF index holding the locally produced slice.
        combined_register: VRF index the combined full vector lands in.
    """

    replicas: int
    replica_index: int
    value: str
    full_length: int
    slice_register: int
    combined_register: int

    def __post_init__(self):
        if self.replicas < 2:
            raise ISAError("scale-out needs at least 2 replicas")
        if not 0 <= self.replica_index < self.replicas:
            raise ISAError(
                f"replica index {self.replica_index} out of range for "
                f"{self.replicas} replicas"
            )
        if self.full_length % self.replicas != 0:
            raise ISAError(
                f"full length {self.full_length} not divisible by "
                f"{self.replicas} replicas"
            )

    @property
    def slice_length(self) -> int:
        return self.full_length // self.replicas

    @property
    def send_address(self) -> int:
        """Each exchanged value gets its own sync sub-window.  CRC-32, not
        ``hash()``: string hashes change with ``PYTHONHASHSEED``, so the
        address (and whether two values collide) would change per process."""
        return SYNC_ADDRESS + zlib.crc32(self.value.encode()) % 256 * 0x1000


def insert_scaleout_communication(program: Program, plan: ScaleOutPlan) -> Program:
    """Return a new program with send/recv instructions inserted.

    Raises :class:`ISAError` when the program lacks the required
    ``produce:<value>``/``consume:<value>`` tags.
    """
    produce_tag = f"produce:{plan.value}"
    consume_tag = f"consume:{plan.value}"
    producers = [i for i in program.instructions if i.tag == produce_tag]
    consumers = [i for i in program.instructions if i.tag == consume_tag]
    if not producers:
        raise ISAError(f"program {program.name!r} has no {produce_tag!r} tags")
    if not consumers:
        raise ISAError(f"program {program.name!r} has no {consume_tag!r} tags")

    send = Instruction(
        Op.V_WR,
        a=plan.slice_register,
        addr=plan.send_address,
        length=plan.slice_length,
        tag=f"send:{plan.value}",
    )
    recv = Instruction(
        Op.V_RD,
        dst=plan.combined_register,
        addr=plan.send_address,
        length=plan.full_length,
        tag=f"recv:{plan.value}",
    )

    out = Program(
        name=f"{program.name}@{plan.replica_index}/{plan.replicas}",
        metadata=dict(program.metadata),
    )
    out.metadata["scaleout"] = {
        "replicas": plan.replicas,
        "replica_index": plan.replica_index,
        "value": plan.value,
        "slice_length": plan.slice_length,
        "sync_address": plan.send_address,
    }

    loop_depth = 0
    pending_recv_at_body_start = False
    for inst in program.instructions:
        if inst.op is Op.LOOP:
            out.append(inst)
            loop_depth += 1
            # Consumers read the previous iteration's combined vector; the
            # barrier belongs at the top of the loop body.
            if any(c.tag == consume_tag for c in program.instructions):
                out.append(recv)
                pending_recv_at_body_start = True
            continue
        if inst.op is Op.ENDLOOP:
            loop_depth -= 1
            out.append(inst)
            continue
        if inst.tag == consume_tag and pending_recv_at_body_start:
            # Redirect the consumer to the combined register.
            inst = _redirect_source(inst, plan)
        out.append(inst)
        if inst.tag == produce_tag:
            out.append(send)

    out.validate()
    return out


def _redirect_source(inst: Instruction, plan: ScaleOutPlan) -> Instruction:
    """Point a consumer at the combined register (field ``a`` or ``b``)."""
    if inst.a == plan.slice_register:
        return replace(inst, a=plan.combined_register)
    if inst.b == plan.slice_register:
        return replace(inst, b=plan.combined_register)
    # Consumer already reads the combined register (codegen pre-wired it).
    return inst
