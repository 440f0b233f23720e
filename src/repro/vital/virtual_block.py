"""Physical FPGA instances and their virtual-block occupancy.

A :class:`PhysicalFPGA` is one board in the cluster: a device model plus the
runtime state of its virtual blocks.  The runtime allocator reserves
contiguous block counts (ViTAL compiles each cluster for a block *count*,
not specific positions — blocks are identical, so any free subset works),
and different accelerators share one device by occupying disjoint blocks
(the paper's fine-grained spatial sharing).

Occupancy bookkeeping is incremental: the board maintains a cached free
count, a min-heap of free indices (so allocation still hands out the
lowest-numbered free blocks, as the scan-based allocator did) and a
per-owner index map, all updated in O(k log n) per allocate/release instead
of rescanning every block.  Observers (the controller's placement index)
subscribe to occupancy changes so derived structures never rescan either.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass

from ..errors import AllocationError
from .device import FPGAModel


class BoardHealth(enum.Enum):
    """Runtime health of one physical board (the fault-injection model).

    ``HEALTHY`` boards accept new placements.  ``DEGRADED`` boards keep
    serving the deployments they already host but receive no new ones
    (drain mode — the operator pulls the board gracefully).  ``FAILED``
    boards have lost their configuration entirely: resident deployments
    are gone, and the board re-enters service empty after repair.
    """

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    FAILED = "failed"


@dataclass
class VirtualBlockState:
    """Occupancy record for one virtual block."""

    index: int
    owner: str | None = None  # deployment id, None when free

    @property
    def free(self) -> bool:
        return self.owner is None


class PhysicalFPGA:
    """One physical board: device model + virtual-block occupancy."""

    def __init__(self, fpga_id: str, model: FPGAModel):
        self.fpga_id = fpga_id
        self.model = model
        self.blocks = [
            VirtualBlockState(index=i) for i in range(model.usable_blocks)
        ]
        self._free_count = len(self.blocks)
        # Min-heap of free indices: pop order matches the old first-free scan.
        self._free_heap = list(range(len(self.blocks)))
        self._owned: dict[str, list[int]] = {}
        self._listeners: list = []
        self.health = BoardHealth.HEALTHY
        self._health_listeners: list = []

    # -- queries -------------------------------------------------------------

    @property
    def free_blocks(self) -> int:
        return self._free_count

    @property
    def used_blocks(self) -> int:
        return len(self.blocks) - self._free_count

    def owners(self) -> set:
        """Deployment ids currently resident on this board."""
        return set(self._owned)

    def can_host(self, block_count: int) -> bool:
        return (
            self.health is BoardHealth.HEALTHY
            and 0 < block_count <= self._free_count
        )

    def owned_indices(self, owner: str) -> list:
        """Block indices held by ``owner`` on this board (empty when none).

        Migration repoints placement records to the destination board's
        freshly configured blocks through this accessor.
        """
        return list(self._owned.get(owner, ()))

    def recount_free_blocks(self) -> int:
        """From-scratch recount over the occupancy records.

        The allocator itself never calls this; it exists so invariant tests
        can check the cached counter against ground truth.
        """
        return sum(1 for block in self.blocks if block.free)

    # -- observers -----------------------------------------------------------

    def subscribe(self, listener) -> None:
        """Register ``listener(board, old_free_count)`` for occupancy changes."""
        self._listeners.append(listener)

    def _notify(self, old_free: int) -> None:
        for listener in self._listeners:
            listener(self, old_free)

    def subscribe_health(self, listener) -> None:
        """Register ``listener(board, old_health)`` for health transitions."""
        self._health_listeners.append(listener)

    def set_health(self, health: BoardHealth) -> None:
        """Transition the board's health state, notifying subscribers.

        The board's occupancy bookkeeping stays mechanical across every
        state (a failed board can still ``release`` so teardown paths need
        no special cases); what changes is placement eligibility, which the
        controller's index tracks through the health subscription.
        """
        if health is self.health:
            return
        old = self.health
        self.health = health
        for listener in self._health_listeners:
            listener(self, old)

    # -- allocation ---------------------------------------------------------------

    def allocate(self, owner: str, block_count: int) -> list:
        """Reserve ``block_count`` free blocks for ``owner``.

        Returns the reserved block indices; raises
        :class:`AllocationError` when insufficient blocks are free.
        """
        if self.health is BoardHealth.FAILED:
            raise AllocationError(
                f"{self.fpga_id}: board is failed, cannot allocate"
            )
        if block_count <= 0:
            raise AllocationError(f"{self.fpga_id}: block count must be positive")
        if block_count > self._free_count:
            raise AllocationError(
                f"{self.fpga_id}: requested {block_count} blocks, "
                f"{self._free_count} free"
            )
        taken = [heapq.heappop(self._free_heap) for _ in range(block_count)]
        for index in taken:
            self.blocks[index].owner = owner
        self._owned.setdefault(owner, []).extend(taken)
        old_free = self._free_count
        self._free_count -= block_count
        self._notify(old_free)
        return taken

    def release(self, owner: str) -> int:
        """Free every block held by ``owner``; returns the count released."""
        indices = self._owned.pop(owner, None)
        if not indices:
            return 0
        for index in indices:
            self.blocks[index].owner = None
            heapq.heappush(self._free_heap, index)
        old_free = self._free_count
        self._free_count += len(indices)
        self._notify(old_free)
        return len(indices)

    def reset(self) -> None:
        """Release every block (fresh simulation run)."""
        if self._free_count == len(self.blocks):
            return
        for block in self.blocks:
            block.owner = None
        self._owned.clear()
        self._free_heap = list(range(len(self.blocks)))
        old_free = self._free_count
        self._free_count = len(self.blocks)
        self._notify(old_free)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PhysicalFPGA({self.fpga_id!r}, {self.model.name}, "
            f"{self.used_blocks}/{len(self.blocks)} blocks used)"
        )
