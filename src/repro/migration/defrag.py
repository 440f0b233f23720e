"""Cluster defragmentation: metric + compaction policy.

Virtual blocks are identical within a board, so fragmentation in this
system is a *cluster-level* phenomenon: free blocks scattered across many
boards in per-board amounts each too small to host a replica image, even
though the aggregate would fit it several times over.  The metric follows
the classic external-fragmentation form,

    fragmentation(type) = 1 - largest_free_hole / total_free

(0.0 when every free block sits on one board, approaching 1.0 as the free
space shatters; 0.0 too when nothing is free — a full cluster is not a
fragmented one).

The compaction policy answers one placement failure at a time: given a
model that could not be placed, greedily choose the cheapest set of
replica migrations that opens enough per-board holes for the model's
cheapest feasible plan, using the controller's :class:`PlacementIndex` for
candidate ordering.  Victims must be idle; busy and migrating deployments
never move.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..runtime.deployment import DeploymentState
from .engine import MigrationEngine


def fragmentation(index, device_type: str) -> float:
    """External fragmentation of one device type's free blocks."""
    total_free = sum(
        board.free_blocks for board in index.boards_by_id(device_type)
    )
    if total_free <= 0:
        return 0.0
    return 1.0 - index.max_free(device_type) / total_free


def cluster_fragmentation(index) -> dict:
    """Per-type fragmentation plus a free-block-weighted ``overall``."""
    report: dict[str, float] = {}
    weighted = 0.0
    total_free = 0
    for device_type in index.device_types():
        free = sum(
            board.free_blocks for board in index.boards_by_id(device_type)
        )
        frag = fragmentation(index, device_type)
        report[device_type] = frag
        weighted += frag * free
        total_free += free
    report["overall"] = weighted / total_free if total_free else 0.0
    return report


@dataclass
class DefragPlan:
    """The cheapest migration set that opens holes for one model."""

    model_key: str
    device_type: str
    #: Boards being opened up (one per replica the deployment plan needs).
    target_fpgas: list = field(default_factory=list)
    #: One :class:`MigrationPlan` per victim deployment, execution order.
    migrations: list = field(default_factory=list)
    needed_blocks: int = 0

    @property
    def total_cost_s(self) -> float:
        return sum(plan.total_cost_s for plan in self.migrations)


def _movable_deployments(controller, board):
    """Idle deployments with exactly one replica on ``board``, stable order."""
    victims = []
    for owner in sorted(board.owners()):
        deployment = controller.deployments.get(owner)
        if deployment is None or deployment.state is not DeploymentState.IDLE:
            continue
        on_board = [
            index
            for index, placement in enumerate(deployment.placements)
            if placement.fpga_id == board.fpga_id
        ]
        if len(on_board) == 1:
            victims.append((deployment, on_board[0]))
    return victims


def _cheapest_destination(
    engine: MigrationEngine,
    deployment,
    replica_index: int,
    excluded: set,
    tentative_free: dict,
):
    """Cheapest board that can absorb one replica, honouring tentative
    allocations from moves already chosen in this plan."""
    controller = engine.controller
    occupied = {placement.fpga_id for placement in deployment.placements}
    best = None
    for device_type in sorted(deployment.plan.images):
        image = deployment.plan.images[device_type]
        for board in controller.index.boards_best_fit(device_type):
            if board.fpga_id in excluded or board.fpga_id in occupied:
                continue
            free = tentative_free.get(board.fpga_id, board.free_blocks)
            if free < image.virtual_blocks:
                continue
            placement = deployment.placements[replica_index]
            state_bytes = engine.state_bytes(deployment, replica_index)
            cost = (
                engine.DRAIN_S
                + engine._transfer_time(
                    placement.fpga_id, board.fpga_id, state_bytes
                )
                + image.virtual_blocks * controller.reconfig_s_per_block
            )
            if best is None or (cost, board.fpga_id) < (best[0], best[1].fpga_id):
                best = (cost, board, image.virtual_blocks)
            break  # best-fit order: first feasible board is the tightest fit
    return best


def _open_hole(engine, board, need: int, excluded: set, tentative_free: dict):
    """Cheapest victim set freeing ``board`` up to ``need`` blocks.

    Returns ``(moves, cost)`` with ``moves`` as ``(deployment,
    replica_index, dst_board)`` triples, or ``None`` when the deficit
    cannot be covered by migrating idle single-replica residents.
    Destinations are re-evaluated after every pick (an earlier victim may
    consume a destination), and ``tentative_free`` is only updated when
    the whole hole opens — a failed attempt leaves no phantom
    allocations behind for the next candidate target.
    """
    controller = engine.controller
    local = dict(tentative_free)
    deficit = need - local.get(board.fpga_id, board.free_blocks)
    if deficit <= 0:
        return [], 0.0
    victims = _movable_deployments(controller, board)
    chosen: set[tuple] = set()
    moves = []
    total_cost = 0.0
    while deficit > 0:
        best = None
        for deployment, replica_index in victims:
            if (deployment.deployment_id, replica_index) in chosen:
                continue
            freed = deployment.placements[replica_index].virtual_blocks
            destination = _cheapest_destination(
                engine, deployment, replica_index, excluded, local
            )
            if destination is None:
                continue
            cost, dst_board, dst_blocks = destination
            # Cheapest cost per freed block; deployment id breaks ties.
            key = (cost / freed, cost, deployment.deployment_id)
            if best is None or key < best[0]:
                best = (key, deployment, replica_index, dst_board,
                        dst_blocks, freed, cost)
        if best is None:
            return None
        _, deployment, replica_index, dst_board, dst_blocks, freed, cost = best
        chosen.add((deployment.deployment_id, replica_index))
        moves.append((deployment, replica_index, dst_board))
        total_cost += cost
        local[dst_board.fpga_id] = (
            local.get(dst_board.fpga_id, dst_board.free_blocks) - dst_blocks
        )
        local[board.fpga_id] = (
            local.get(board.fpga_id, board.free_blocks) + freed
        )
        deficit -= freed
    tentative_free.update(local)
    return moves, total_cost


def plan_defrag(
    controller, model_key: str, engine: MigrationEngine
) -> DefragPlan | None:
    """The cheapest compaction that would let ``model_key`` place.

    Only worth attempting when the failure is fragmentation, not capacity:
    for each deployment plan (fewest replicas first) and feasible device
    type, if the aggregate free blocks could host every replica but too
    few boards have a large-enough hole, greedily open the missing holes
    on the boards closest to fitting.  Returns ``None`` when no migration
    set helps (genuinely full cluster, or victims are all busy).
    Candidate holes, victims and destinations span the whole cluster.
    """
    index = controller.index
    entry = controller.catalog.entry_by_key(model_key)
    best: DefragPlan | None = None
    for deployment_plan in entry.sorted_plans():
        for device_type in deployment_plan.feasible_types:
            need = deployment_plan.images[device_type].virtual_blocks
            holes = index.count_with_at_least(device_type, need)
            missing = deployment_plan.replicas - holes
            if missing <= 0:
                continue  # placement would not have failed on hole count
            total_free = sum(
                board.free_blocks for board in index.boards_by_id(device_type)
            )
            if total_free < need * deployment_plan.replicas:
                continue  # capacity problem, not fragmentation
            # Open holes on the boards closest to fitting (most free
            # first), excluding boards that already qualify.
            candidates = [
                board
                for board in index.boards_worst_fit(device_type)
                if board.free_blocks < need
            ]
            tentative_free: dict[str, int] = {}
            excluded = {
                board.fpga_id
                for board in index.boards_by_id(device_type)
                if board.free_blocks >= need
            }
            chosen_moves = []
            total_cost = 0.0
            targets = []
            for board in candidates:
                if len(targets) >= missing:
                    break
                excluded.add(board.fpga_id)
                opened = _open_hole(
                    engine, board, need, excluded, tentative_free
                )
                if opened is None:
                    excluded.discard(board.fpga_id)
                    continue
                moves, cost = opened
                chosen_moves.extend(moves)
                total_cost += cost
                targets.append(board.fpga_id)
            if len(targets) < missing:
                continue
            plan = DefragPlan(
                model_key=model_key,
                device_type=device_type,
                target_fpgas=targets,
                needed_blocks=need,
            )
            # Group chosen replica moves per victim deployment into
            # MigrationPlans (plan-only: execution is the caller's call).
            grouped: dict[str, dict] = {}
            order: list[str] = []
            for deployment, replica_index, dst_board in chosen_moves:
                if deployment.deployment_id not in grouped:
                    grouped[deployment.deployment_id] = (deployment, {})
                    order.append(deployment.deployment_id)
                grouped[deployment.deployment_id][1][replica_index] = dst_board
            try:
                for deployment_id in order:
                    victim, victim_targets = grouped[deployment_id]
                    plan.migrations.append(
                        engine.plan_move(victim, victim_targets)
                    )
            except Exception:
                continue  # a raced state change invalidated the plan
            if best is None or plan.total_cost_s < best.total_cost_s:
                best = plan
    return best
