"""Cluster construction.

:func:`paper_cluster` reproduces the evaluation platform of Section 4.2:
three XCVU37P boards and one XCKU115, PCIe-attached to one host, joined by
a bidirectional ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from ..units import us, gbps
from ..vital.device import XCKU115, XCVU37P
from ..vital.virtual_block import PhysicalFPGA
from .network import NetworkParameters, RingNetwork


@dataclass(frozen=True)
class HostLink:
    """PCIe attachment characteristics (task dispatch path)."""

    latency_s: float = us(2.0)
    bandwidth_bps: float = gbps(100.0)


class FPGACluster:
    """A heterogeneous pool of physical FPGAs plus the ring network."""

    def __init__(
        self,
        boards: list,
        network_params: NetworkParameters | None = None,
    ):
        if not boards:
            raise SimulationError("a cluster needs at least one board")
        self.boards: dict[str, PhysicalFPGA] = {b.fpga_id: b for b in boards}
        if len(self.boards) != len(boards):
            raise SimulationError("duplicate FPGA ids in cluster")
        self.host_link = HostLink()
        if len(boards) >= 2:
            self.network = RingNetwork(
                [b.fpga_id for b in boards], network_params
            )
        else:
            self.network = None

    # -- queries -------------------------------------------------------------

    def board(self, fpga_id: str) -> PhysicalFPGA:
        try:
            return self.boards[fpga_id]
        except KeyError:
            raise SimulationError(f"unknown FPGA {fpga_id!r}") from None

    def boards_of_type(self, device_type: str) -> list:
        """Boards of one device type, stable order."""
        return [
            board
            for board in self.boards.values()
            if board.model.name == device_type
        ]

    def device_types(self) -> list:
        """Distinct device types present, stable order."""
        seen: list[str] = []
        for board in self.boards.values():
            if board.model.name not in seen:
                seen.append(board.model.name)
        return seen

    def total_free_blocks(self) -> dict:
        """Free virtual blocks per device type."""
        free: dict[str, int] = {}
        for board in self.boards.values():
            free[board.model.name] = free.get(board.model.name, 0) + board.free_blocks
        return free

    def reset(self) -> None:
        """Release every virtual block (fresh simulation run)."""
        for board in self.boards.values():
            board.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kinds = {}
        for board in self.boards.values():
            kinds[board.model.name] = kinds.get(board.model.name, 0) + 1
        return f"FPGACluster({kinds})"


def paper_cluster(network_params: NetworkParameters | None = None) -> FPGACluster:
    """The Section 4.2 evaluation platform: 3x XCVU37P + 1x XCKU115."""
    boards = [
        PhysicalFPGA("vu37p-0", XCVU37P),
        PhysicalFPGA("vu37p-1", XCVU37P),
        PhysicalFPGA("vu37p-2", XCVU37P),
        PhysicalFPGA("ku115-0", XCKU115),
    ]
    return FPGACluster(boards, network_params=network_params)


def scaled_cluster(
    board_count: int,
    network_params: NetworkParameters | None = None,
) -> FPGACluster:
    """A ``board_count``-board pool with the paper platform's 3:1
    VU37P:KU115 device mix, repeated along the ring (scale benches and
    1000-board chaos tests)."""
    if board_count < 1:
        raise SimulationError(
            f"cluster needs at least one board, got {board_count}"
        )
    boards = []
    vu = ku = 0
    for i in range(board_count):
        if i % 4 == 3:
            boards.append(PhysicalFPGA(f"ku115-{ku}", XCKU115))
            ku += 1
        else:
            boards.append(PhysicalFPGA(f"vu37p-{vu}", XCVU37P))
            vu += 1
    return FPGACluster(boards, network_params=network_params)
