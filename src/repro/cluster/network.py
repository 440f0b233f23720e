"""Inter-FPGA ring network timing model.

The cluster's FPGAs are connected by a "secondary bidirectional ring
network" (Section 4.2).  Section 4.3's Fig. 11 experiment inserts a
programmable counter+FIFO module to *add* latency to this network; the
``added_latency_s`` argument of :meth:`RingNetwork.exchange_time`
reproduces that knob.

The model:

* per-hop store-and-forward latency (serialisation + router),
* shared link bandwidth,
* an all-to-all *exchange* primitive matching the scale-out pattern: each of
  ``k`` replicas broadcasts its hidden-state slice to the others, and no
  replica proceeds until it holds the full vector (the barrier the sync
  module implements).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from ..units import gbps, us


@dataclass(frozen=True)
class NetworkParameters:
    """Ring link characteristics.

    Defaults model the serial transceiver links of the custom cluster:
    ~25.6 Gb/s usable per direction after protocol overhead, ~0.1 us of
    fixed per-hop latency (SerDes + elastic buffering at each end).
    """

    hop_latency_s: float = us(0.1)
    bandwidth_bps: float = gbps(25.6)
    bytes_per_element: int = 2  # float16 on the wire
    #: Store-and-forward stages on the exchange path: the synchronisation
    #: template module (Fig. 8b) buffers each slice through its FIFO at the
    #: sender and again at the receiver before the combining read can
    #: complete, so a slice pays serialisation twice.
    store_forward_stages: int = 2


class RingNetwork:
    """A bidirectional ring over named nodes."""

    def __init__(self, node_ids: list, params: NetworkParameters | None = None):
        if len(node_ids) < 2:
            raise SimulationError("a ring needs at least two nodes")
        self.node_ids = list(node_ids)
        self.params = params or NetworkParameters()
        self._position = {node: i for i, node in enumerate(self.node_ids)}

    def hops(self, src: str, dst: str) -> int:
        """Minimal hop count between two nodes (bidirectional ring)."""
        try:
            a, b = self._position[src], self._position[dst]
        except KeyError as missing:
            raise SimulationError(f"unknown ring node {missing}") from None
        distance = abs(a - b)
        return min(distance, len(self.node_ids) - distance)

    def transfer_time(self, src: str, dst: str, data_bytes: float) -> float:
        """One point-to-point transfer.

        The zero-hop case (``src == dst``) models intra-board state
        movement — a migration drain that lands back on the same board, a
        loopback through the sync module: the data still streams through
        one FIFO, so it is charged exactly one serialisation pass, but no
        per-hop link latency.
        """
        hops = self.hops(src, dst)
        serialisation = 8.0 * data_bytes / self.params.bandwidth_bps
        if hops == 0:
            return serialisation
        return hops * (self.params.hop_latency_s + serialisation)

    def exchange_time(
        self,
        members: list,
        slice_elements: int,
        added_latency_s: float = 0.0,
    ) -> float:
        """All-to-all slice exchange among ``members`` (the h_t barrier).

        Each member broadcasts its slice; a member is ready when the last
        slice arrives.  With full-duplex links the broadcasts proceed in
        parallel, so the critical path is the farthest pair: max hop count
        times (hop latency + serialisation of one slice), plus any latency
        the Fig. 11 knob added per direction.
        """
        if len(members) < 2:
            return 0.0
        slice_bytes = slice_elements * self.params.bytes_per_element
        serialisation = 8.0 * slice_bytes / self.params.bandwidth_bps
        worst_hops = max(
            self.hops(a, b) for a in members for b in members if a != b
        )
        return (
            worst_hops * self.params.hop_latency_s
            + self.params.store_forward_stages * serialisation
            + max(0, worst_hops - 1) * serialisation
            + added_latency_s
        )

