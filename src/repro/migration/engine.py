"""Planning and executing live moves of resident deployments.

A migration relocates one or more replicas of an idle deployment to other
boards — same device type or not: the catalog compiled every deployment
plan per feasible type, so a cross-type move is a lookup in the same
mapping database, not a recompile.  The charged cost per replica is

    drain                (run to an instruction boundary, flush queues)
  + state transfer       (architectural state over ``RingNetwork``)
  + reconfiguration      (destination virtual blocks x per-block time)

and both source and destination blocks stay occupied between
:meth:`MigrationEngine.begin` and :meth:`MigrationEngine.finish` — the
DES schedules ``finish`` at ``begin + cost``, so a migration competes with
serving traffic for real.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..accel.config import AcceleratorConfig
from ..errors import DeploymentError, ReproError
from ..isa.program import Program
from ..runtime.deployment import Deployment, DeploymentState, ReplicaPlacement
from ..units import us

#: Activations travel as float16 on the wire (the network's element size).
ACTIVATION_BYTES = 2
#: Fixed control state: program counter, loop stack, status registers.
CONTROL_STATE_BYTES = 256


def architectural_state_bytes(
    config: AcceleratorConfig, program: Program | None = None
) -> int:
    """Transferable state of one replica, modelled from its config.

    The AS-ISA makes this state architectural, so its size is known without
    capturing anything.  Three components:

    * the vector register file (float16 activations),
    * the weight state resident in matrix registers / per-tile memory
      (``weight_bits`` per element, as stored on chip),
    * fixed control state (PC, loop stack, status).

    With ``program`` given, the register files are sized to the program's
    static footprint (a move only ships registers the program can have
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


@dataclass(frozen=True)
class ReplicaMove:
    """One replica relocating from one board to another."""

    replica_index: int
    src_fpga: str
    dst_fpga: str
    src_type: str
    dst_type: str
    src_blocks: int
    dst_blocks: int
    state_bytes: int
    drain_s: float
    transfer_s: float
    reconfig_s: float

    @property
    def cost_s(self) -> float:
        return self.drain_s + self.transfer_s + self.reconfig_s


@dataclass
class MigrationPlan:
    """Every move of one deployment, plus the charged total."""

    deployment_id: str
    model_key: str
    moves: list = field(default_factory=list)

    @property
    def total_cost_s(self) -> float:
        """Moves of one deployment execute sequentially (one drain, one
        state stream through the sync module at a time)."""
        return sum(move.cost_s for move in self.moves)

    @property
    def state_bytes(self) -> int:
        return sum(move.state_bytes for move in self.moves)


class MigrationEngine:
    """Plans and executes deployment moves against one controller."""

    #: Time to let in-flight work reach an instruction boundary and flush
    #: the send queues (tile-boundary granularity keeps it short — the ISA
    #: has no long-running uninterruptible instruction).  A class constant,
    #: so callers holding ``controller.migration`` need no import.
    DRAIN_S = us(50.0)

    def __init__(self, controller):
        self.controller = controller
        self.migrations_planned = 0
        self.migrations_completed = 0
        self.bytes_migrated = 0

    # -- cost model ----------------------------------------------------------

    def state_bytes(self, deployment: Deployment, replica_index: int) -> int:
        """Transferable state of one replica (config + program derived).

        A constant of the plan, the replica and the device type it sits
        on, sized once per plan (:attr:`DeploymentPlan.state_bytes`): a
        plan's images and programs never change once built."""
        plan = deployment.plan
        device_type = deployment.placements[replica_index].device_type
        key = (device_type, replica_index)
        sized = plan.state_bytes.get(key)
        if sized is None:
            program = plan.programs[min(replica_index, len(plan.programs) - 1)]
            sized = plan.state_bytes[key] = architectural_state_bytes(
                plan.image_for(device_type).instance, program
            )
        return sized

    def host_stream_s(self, deployment: Deployment, lead_s: float = 0.0) -> float:
        """``lead_s`` plus the deployment's architectural state streamed
        over the host link: the one checkpoint-to-host (and restore) cost
        that a preemption, an autoscaler retire or narrow and a recovery
        restore all pay.  ``lead_s`` is the caller's leading term (a drain
        or a reconfiguration), added first so each caller's sum keeps its
        order."""
        state_bytes = sum(
            self.state_bytes(deployment, index)
            for index in range(len(deployment.placements))
        )
        link = self.controller.cluster.host_link
        return lead_s + link.latency_s + state_bytes * 8.0 / link.bandwidth_bps

    def _transfer_time(self, src_fpga: str, dst_fpga: str, data_bytes: int) -> float:
        network = self.controller.cluster.network
        if network is None:
            return 0.0
        return network.transfer_time(src_fpga, dst_fpga, data_bytes)

    # -- planning ------------------------------------------------------------

    def plan_move(self, deployment: Deployment, targets: dict) -> MigrationPlan:
        """Plan relocating ``targets``: ``{replica_index: destination board}``.

        Raises :class:`DeploymentError` when the deployment is not idle, a
        destination lacks an image for its device type, cannot host the
        image, or already hosts another replica of the same deployment.
        """
        if deployment.state is not DeploymentState.IDLE:
            raise DeploymentError(
                f"cannot migrate {deployment.deployment_id}: state is "
                f"{deployment.state.value}"
            )
        if not targets:
            raise ReproError("migration plan needs at least one replica move")
        # A destination may not coincide with ANY current placement (moved
        # or not): blocks are owned per (board, deployment-id), so landing
        # on a board the deployment already occupies would merge ownership
        # and corrupt the source release.
        occupied = {placement.fpga_id for placement in deployment.placements}
        plan = MigrationPlan(
            deployment_id=deployment.deployment_id,
            model_key=deployment.model_key,
        )
        for replica_index in sorted(targets):
            board = targets[replica_index]
            try:
                placement = deployment.placements[replica_index]
            except IndexError:
                raise ReproError(
                    f"{deployment.deployment_id} has no replica "
                    f"{replica_index}"
                ) from None
            if board.fpga_id == placement.fpga_id:
                raise DeploymentError(
                    f"replica {replica_index} already resides on "
                    f"{board.fpga_id}"
                )
            if board.fpga_id in occupied:
                raise DeploymentError(
                    f"{board.fpga_id} already hosts a replica of "
                    f"{deployment.deployment_id}"
                )
            dst_type = board.model.name
            if dst_type not in deployment.plan.images:
                raise DeploymentError(
                    f"{deployment.model_key} x{deployment.plan.replicas} has "
                    f"no image for {dst_type} (cannot remap to "
                    f"{board.fpga_id})"
                )
            image = deployment.plan.images[dst_type]
            if not board.can_host(image.virtual_blocks):
                raise DeploymentError(
                    f"{board.fpga_id} cannot host {image.virtual_blocks} "
                    f"blocks ({board.free_blocks} free)"
                )
            state_bytes = self.state_bytes(deployment, replica_index)
            plan.moves.append(
                ReplicaMove(
                    replica_index=replica_index,
                    src_fpga=placement.fpga_id,
                    dst_fpga=board.fpga_id,
                    src_type=placement.device_type,
                    dst_type=dst_type,
                    src_blocks=placement.virtual_blocks,
                    dst_blocks=image.virtual_blocks,
                    state_bytes=state_bytes,
                    drain_s=self.DRAIN_S,
                    transfer_s=self._transfer_time(
                        placement.fpga_id, board.fpga_id, state_bytes
                    ),
                    reconfig_s=image.virtual_blocks
                    * self.controller.reconfig_s_per_block,
                )
            )
            occupied.add(board.fpga_id)
        self.migrations_planned += 1
        return plan

    # -- execution -----------------------------------------------------------

    def begin(self, plan: MigrationPlan, now: float = 0.0) -> float:
        """Start executing ``plan``: configure destination blocks and take
        the deployment out of service.  Source *and* destination blocks are
        occupied until :meth:`finish`; returns the plan's total cost so the
        caller can schedule that call."""
        controller = self.controller
        deployment = controller.deployments.get(plan.deployment_id)
        if deployment is None:
            raise DeploymentError(
                f"deployment {plan.deployment_id} no longer exists"
            )
        if deployment.state is not DeploymentState.IDLE:
            raise DeploymentError(
                f"cannot migrate {plan.deployment_id}: state is "
                f"{deployment.state.value}"
            )
        controller.set_state(deployment, DeploymentState.MIGRATING)
        for move in plan.moves:
            board = controller.cluster.board(move.dst_fpga)
            image = deployment.plan.images[move.dst_type]
            controller.low_level.configure(
                board, deployment.deployment_id, image.artifact
            )
        return plan.total_cost_s

    def finish(self, plan: MigrationPlan, now: float = 0.0) -> None:
        """Complete ``plan``: release source blocks, repoint placements,
        re-estimate service time for the (possibly new) device-type mix."""
        controller = self.controller
        deployment = controller.deployments.get(plan.deployment_id)
        if deployment is None:
            raise DeploymentError(
                f"deployment {plan.deployment_id} no longer exists"
            )
        if deployment.state is not DeploymentState.MIGRATING:
            raise DeploymentError(
                f"finish on {plan.deployment_id} in state "
                f"{deployment.state.value}"
            )
        for move in plan.moves:
            src = controller.cluster.board(move.src_fpga)
            controller.low_level.release(src, deployment.deployment_id)
            controller.untrack_resident(move.src_fpga, deployment.deployment_id)
            dst = controller.cluster.board(move.dst_fpga)
            controller.track_resident(move.dst_fpga, deployment.deployment_id)
            image = deployment.plan.images[move.dst_type]
            deployment.placements[move.replica_index] = ReplicaPlacement(
                fpga_id=move.dst_fpga,
                device_type=move.dst_type,
                virtual_blocks=image.virtual_blocks,
                block_indices=list(dst.owned_indices(deployment.deployment_id)),
            )
            self.bytes_migrated += move.state_bytes
        deployment.service_s = controller.service_time(
            deployment.plan, deployment.placements
        )
        controller.set_state(deployment, DeploymentState.IDLE, now)
        deployment.migrations += 1
        self.migrations_completed += 1
        # A board under this deployment failed mid-move: the deferred
        # recovery runs now that the migration's block ownership is settled.
        if deployment.pending_recovery and controller.recovery_enabled:
            controller.recovery.recover(deployment, now)
