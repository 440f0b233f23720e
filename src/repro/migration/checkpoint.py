"""ISA-level architectural snapshots of a running accelerator.

A checkpoint is taken at an instruction boundary and captures exactly the
state the ISA defines: the vector and matrix register files, the program
counter with its loop stack, the replica's DRAM contents, and the dynamic
execution counters.  For scale-out deployments the synchronisation fabric
is checkpointed alongside the replicas, so slices that were sent but not
yet combined (the in-flight queue) survive the move instead of needing a
barrier drain.

Snapshots are device-type agnostic by construction — nothing in them names
a board or an instance — which is what lets the migration engine resume a
deployment on a different device type using the catalog's per-type image.

The state-size *model* (:func:`architectural_state_bytes`) estimates a
replica's transferable state from the accelerator config (and, when known,
the program's register footprint) without materialising a snapshot; the
migration engine charges ring-transfer time against it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..accel.config import AcceleratorConfig
from ..accel.functional import DRAM, FunctionalSimulator, ScaleOutFabric, SimStats
from ..errors import ReproError
from ..isa.program import Program

#: Activations travel as float16 on the wire (the network's element size).
ACTIVATION_BYTES = 2
#: Fixed control state: program counter, loop stack, status registers.
CONTROL_STATE_BYTES = 256

_SERIAL_VERSION = 1


def architectural_state_bytes(
    config: AcceleratorConfig, program: Program | None = None
) -> int:
    """Transferable state of one replica, modelled from its config.

    Three components:

    * the vector register file (float16 activations),
    * the weight state resident in matrix registers / per-tile memory
      (``weight_bits`` per element, as stored on chip),
    * fixed control state (PC, loop stack, status).

    With ``program`` given, the register files are sized to the program's
    static footprint (a snapshot only ships registers the program can have
    written); without it, the architectural maximum from the config is
    used.
    """
    if program is not None:
        footprint = program.register_footprint()
        vector_regs = footprint.vector_registers
        vector_length = footprint.max_vector_length or config.max_vector_length
        matrix_bits = footprint.matrix_words * config.weight_bits
    else:
        vector_regs = config.vector_registers
        vector_length = config.max_vector_length
        # A matrix register holds up to max_vector_length x max_vector_length
        # weights, so the architectural ceiling is quadratic in the length.
        matrix_bits = (
            config.matrix_registers
            * config.max_vector_length ** 2
            * config.weight_bits
        )
    vrf_bytes = vector_regs * vector_length * ACTIVATION_BYTES
    return int(vrf_bytes + matrix_bits // 8 + CONTROL_STATE_BYTES)


def _encode_array(values: np.ndarray) -> list:
    return np.asarray(values, dtype=np.float64).ravel().tolist()


def _array_field(registers: dict) -> dict:
    return {str(index): _encode_array(values) for index, values in registers.items()}


def _decode_registers(payload: dict) -> dict:
    return {
        int(index): np.asarray(values, dtype=np.float64)
        for index, values in payload.items()
    }


@dataclass
class AcceleratorCheckpoint:
    """One replica's architectural state at an instruction boundary."""

    program_name: str
    replica_index: int
    pc: int
    halted: bool
    #: Loop stack frames ``[start_pc, remaining_trips, iteration_index]``.
    loop_stack: list = field(default_factory=list)
    vrf: dict = field(default_factory=dict)
    #: Matrix registers as ``index -> (rows x cols) array`` (BFP-quantised
    #: values exactly as resident on chip).
    mrf: dict = field(default_factory=dict)
    #: DRAM contents up to the last nonzero word (``DRAM.contents``).
    dram: np.ndarray = field(default_factory=lambda: np.zeros(0))
    stats: SimStats = field(default_factory=SimStats)

    # -- capture/restore -----------------------------------------------------

    @classmethod
    def capture(cls, sim: FunctionalSimulator) -> "AcceleratorCheckpoint":
        """Snapshot ``sim`` between instructions (any PC is a boundary)."""
        return cls(
            program_name=sim.program.name,
            replica_index=sim.replica_index,
            pc=sim.pc,
            halted=sim.halted,
            loop_stack=[list(frame) for frame in sim.loop_stack],
            vrf={index: values.copy() for index, values in sim.vrf.items()},
            mrf={index: values.copy() for index, values in sim.mrf.items()},
            dram=sim.dram.contents(),
            stats=SimStats(**vars(sim.stats)),
        )

    def restore(
        self,
        program: Program,
        fabric: ScaleOutFabric | None = None,
        **kwargs,
    ) -> FunctionalSimulator:
        """Rebuild a simulator resuming at the captured boundary.

        ``program`` must be the same program the snapshot was taken from
        (the checkpoint is positional state over its instruction stream);
        the hosting board/device type is free to differ.
        """
        if program.name != self.program_name:
            raise ReproError(
                f"checkpoint of {self.program_name!r} cannot resume "
                f"{program.name!r}"
            )
        sim = FunctionalSimulator(
            program, fabric=fabric, replica_index=self.replica_index, **kwargs
        )
        sim.pc = self.pc
        sim.halted = self.halted
        sim.loop_stack = [list(frame) for frame in self.loop_stack]
        sim.vrf = {index: values.copy() for index, values in self.vrf.items()}
        # Column-major, as every matrix register is (quantise_matrix): the
        # resumed MV_MULs run the same BLAS call as the uninterrupted run.
        sim.mrf = {index: np.array(values, order="F") for index, values in self.mrf.items()}
        sim.dram = DRAM.from_contents(self.dram)
        sim.stats = SimStats(**vars(self.stats))
        return sim

    # -- serialisation -------------------------------------------------------

    def to_bytes(self) -> bytes:
        payload = {
            "version": _SERIAL_VERSION,
            "program_name": self.program_name,
            "replica_index": self.replica_index,
            "pc": self.pc,
            "halted": self.halted,
            "loop_stack": [list(frame) for frame in self.loop_stack],
            "vrf": _array_field(self.vrf),
            "mrf": {
                str(index): {
                    "shape": list(values.shape),
                    "data": _encode_array(values),
                }
                for index, values in self.mrf.items()
            },
            "dram": _encode_array(self.dram),
            "stats": vars(self.stats),
        }
        return json.dumps(payload).encode()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AcceleratorCheckpoint":
        payload = json.loads(blob.decode())
        if payload.get("version") != _SERIAL_VERSION:
            raise ReproError(
                f"unsupported checkpoint version {payload.get('version')!r}"
            )
        return cls(
            program_name=payload["program_name"],
            replica_index=payload["replica_index"],
            pc=payload["pc"],
            halted=payload["halted"],
            loop_stack=[list(frame) for frame in payload["loop_stack"]],
            vrf=_decode_registers(payload["vrf"]),
            mrf={
                int(index): np.asarray(
                    entry["data"], dtype=np.float64
                ).reshape(entry["shape"])
                for index, entry in payload["mrf"].items()
            },
            dram=np.asarray(payload["dram"], dtype=np.float64),
            stats=SimStats(**payload["stats"]),
        )

    def payload_bytes(self) -> int:
        """Measured serialised size (the model above estimates this)."""
        return len(self.to_bytes())


@dataclass
class FabricCheckpoint:
    """In-flight synchronisation state of a scale-out deployment.

    Captures every sent-but-uncombined slice and each replica's receive
    round, so checkpointing does not require the replicas to reach a
    barrier first — the queue contents migrate with the deployment.
    """

    replicas: int
    #: ``addr -> per-replica list of pending slices``.
    sends: dict = field(default_factory=dict)
    #: ``(addr, replica) -> next receive round`` as a flat list of triples.
    recv_rounds: list = field(default_factory=list)
    bytes_transferred: int = 0

    @classmethod
    def capture(cls, fabric: ScaleOutFabric) -> "FabricCheckpoint":
        return cls(
            replicas=fabric.replicas,
            sends={
                addr: [[s.copy() for s in queue] for queue in queues]
                for addr, queues in fabric._sends.items()
            },
            recv_rounds=[
                [addr, replica, round_index]
                for (addr, replica), round_index in fabric._recv_round.items()
            ],
            bytes_transferred=fabric.bytes_transferred,
        )

    def restore(self) -> ScaleOutFabric:
        fabric = ScaleOutFabric(self.replicas)
        fabric._sends = {
            addr: [[s.copy() for s in queue] for queue in queues]
            for addr, queues in self.sends.items()
        }
        fabric._recv_round = {
            (addr, replica): round_index
            for addr, replica, round_index in self.recv_rounds
        }
        fabric.bytes_transferred = self.bytes_transferred
        return fabric

    def to_bytes(self) -> bytes:
        payload = {
            "version": _SERIAL_VERSION,
            "replicas": self.replicas,
            "sends": {
                str(addr): [[_encode_array(s) for s in queue] for queue in queues]
                for addr, queues in self.sends.items()
            },
            "recv_rounds": self.recv_rounds,
            "bytes_transferred": self.bytes_transferred,
        }
        return json.dumps(payload).encode()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FabricCheckpoint":
        payload = json.loads(blob.decode())
        if payload.get("version") != _SERIAL_VERSION:
            raise ReproError(
                f"unsupported checkpoint version {payload.get('version')!r}"
            )
        return cls(
            replicas=payload["replicas"],
            sends={
                int(addr): [
                    [np.asarray(s, dtype=np.float64) for s in queue]
                    for queue in queues
                ]
                for addr, queues in payload["sends"].items()
            },
            recv_rounds=[list(t) for t in payload["recv_rounds"]],
            bytes_transferred=payload["bytes_transferred"],
        )


def checkpoint_scaleout(sims: list, fabric: ScaleOutFabric) -> tuple:
    """Snapshot every replica plus the fabric of one scale-out deployment."""
    return (
        [AcceleratorCheckpoint.capture(sim) for sim in sims],
        FabricCheckpoint.capture(fabric),
    )


def restore_scaleout(
    checkpoints: list, fabric_checkpoint: FabricCheckpoint, programs: list, **kwargs
) -> tuple:
    """Rebuild the replica simulators and fabric from their snapshots."""
    if len(checkpoints) != len(programs):
        raise ReproError(
            f"{len(checkpoints)} checkpoints for {len(programs)} programs"
        )
    fabric = fabric_checkpoint.restore()
    sims = [
        checkpoint.restore(program, fabric=fabric, **kwargs)
        for checkpoint, program in zip(checkpoints, programs)
    ]
    return sims, fabric
