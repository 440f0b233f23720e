"""Pseudo-bitstream artifacts and the low-level controller.

The multi-layer framework reuses "the compilation tool provided by the
corresponding HS abstraction-based solution" and sends configuration
requests to its low-level controller (paper Fig. 7).  We model the artifact
side of that contract: compiling a cluster for a device type yields a
:class:`Bitstream` with a deterministic content id; the
:class:`LowLevelController` "configures" physical FPGAs by loading
bitstreams into allocated virtual blocks and tracks a configuration log the
tests assert against.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..errors import DeploymentError
from .virtual_block import PhysicalFPGA


@dataclass(frozen=True)
class Bitstream:
    """One compiled artifact: a cluster image for one device type."""

    artifact_id: str
    accelerator: str
    cluster_index: int
    device_type: str
    virtual_blocks: int
    #: Modelled compile wall-clock (seconds) — feeds the Section 4.3
    #: compilation-overhead experiment.
    compile_seconds: float = 0.0

    @staticmethod
    def make_id(
        accelerator: str, cluster_signature: str, device_type: str, blocks: int
    ) -> str:
        """Content address: structural signature + target, NOT the
        accelerator name — structurally identical clusters compiled for the
        same device share one artifact, which is what amortises scale-down
        compilation across accelerator instances (Section 4.3)."""
        blob = f"{cluster_signature}|{device_type}|{blocks}"
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


class BitstreamStore:
    """Content-addressed store; compiling the same cluster twice for the
    same device type is a cache hit (what amortises the scale-down compile
    cost across accelerator instances, Section 4.3)."""

    def __init__(self):
        self._store: dict[str, Bitstream] = {}
        self.hits = 0
        self.misses = 0

    def get_or_add(self, bitstream: Bitstream) -> tuple:
        """Returns ``(bitstream, was_cached)``."""
        existing = self._store.get(bitstream.artifact_id)
        if existing is not None:
            self.hits += 1
            return existing, True
        self.misses += 1
        self._store[bitstream.artifact_id] = bitstream
        return bitstream, False

    def lookup(self, artifact_id: str) -> Bitstream:
        try:
            return self._store[artifact_id]
        except KeyError:
            raise DeploymentError(f"unknown bitstream {artifact_id!r}") from None

    def __len__(self) -> int:
        return len(self._store)


@dataclass
class ConfigurationEvent:
    """One low-level configure/release action (the controller's log)."""

    action: str  # "configure" | "release"
    fpga_id: str
    owner: str
    artifact_id: str = ""
    blocks: list = field(default_factory=list)


class LowLevelController:
    """The HS-abstraction-side controller the framework sends requests to."""

    def __init__(self, store: BitstreamStore):
        self.store = store
        self.log: list[ConfigurationEvent] = []

    def configure(
        self, fpga: PhysicalFPGA, owner: str, artifact_id: str
    ) -> list:
        """Load a bitstream into free virtual blocks of ``fpga``."""
        bitstream = self.store.lookup(artifact_id)
        if bitstream.device_type != fpga.model.name:
            raise DeploymentError(
                f"bitstream {artifact_id} targets {bitstream.device_type}, "
                f"FPGA {fpga.fpga_id} is {fpga.model.name}"
            )
        indices = fpga.allocate(owner, bitstream.virtual_blocks)
        self.log.append(
            ConfigurationEvent(
                action="configure",
                fpga_id=fpga.fpga_id,
                owner=owner,
                artifact_id=artifact_id,
                blocks=indices,
            )
        )
        return indices

    def release(self, fpga: PhysicalFPGA, owner: str) -> int:
        """Free all blocks held by ``owner`` on ``fpga``."""
        released = fpga.release(owner)
        if released:
            self.log.append(
                ConfigurationEvent(action="release", fpga_id=fpga.fpga_id, owner=owner)
            )
        return released
