"""The per-model elastic autoscaler (the paper's scale-out knob made dynamic).

The paper picks a replica count once, at deployment time.  The
:class:`Autoscaler` closes the loop at run time: it consumes the signals
the system already produces — the simulator's queue depth, a per-model
arrival-rate EWMA, recent SLO attainment, per-deployment busy state — and
drives each model's replica units between
:data:`~repro.autoscale.policy.MIN_REPLICAS` and ``max_replicas``:

* **Scale-up** first tries to *widen* an idle deployment to the next
  wider catalog plan via :meth:`~repro.runtime.controller.
  SystemController.place_plan` (the brownout hand-off pattern in reverse:
  discard, place wider, re-place the original width on failure), and
  falls back to *adding* a second deployment of the narrowest plan.
* **Scale-down** never evicts hot state blindly: it only acts on an
  *idle* deployment (idleness is the drain — in-flight work cannot be
  lost), and either *retires* it behind a drain + checkpoint-to-host
  cost, or *narrows* it to a smaller plan, holding old and new
  concurrently so the model never has a coverage gap.

Decisions run as first-class DES events (``schedule_external`` ticks on
the simulator bound to the controller, reached through its clock as
recovery and defrag reach it), so they interleave with serving traffic,
faults, and migrations at exact simulated times.  The two watermarks are
hysteretic and each direction has its own cooldown, so steady load cannot
make the scaler flap; a fault-recovery scale-down restore (or any board
failure) suppresses scale-up for
:data:`~repro.autoscale.policy.FAULT_SUPPRESS_S` — the fleet just
shrank because capacity *vanished*, and growing into the hole would
fight the repair.

Nothing here runs unless an ``Autoscaler`` is constructed and armed, so
the Fig. 12 golden path is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..runtime.deployment import DeploymentState
from .policy import (
    DOWN_BUSY_FRACTION,
    FAULT_SUPPRESS_S,
    HIGH_WATERMARK,
    INTERVAL_S,
    LOW_WATERMARK,
    MIN_REPLICAS,
    RATE_ALPHA,
    SLO_FLOOR,
    AutoscaleParameters,
)


@dataclass(frozen=True)
class ScaleEvent:
    """One autoscaling decision, emitted onto the controller's event ring."""

    at_s: float
    model_key: str
    #: ``widen`` | ``add`` | ``retire`` | ``narrow``.
    action: str
    units_before: int
    units_after: int
    reason: str


@dataclass
class AutoscaleStats:
    """Counters for one autoscaler lifetime."""

    ticks: int = 0
    scale_ups: int = 0
    scale_downs: int = 0
    #: Scale-ups that widened an idle deployment in place.
    widenings: int = 0
    #: Scale-ups that added a deployment.
    additions: int = 0
    #: Scale-downs that retired a whole deployment.
    retirements: int = 0
    #: Scale-downs that narrowed a deployment's plan.
    narrowings: int = 0
    #: Scale-up decisions suppressed by the fault-coordination window.
    suppressed: int = 0
    #: Scale-ups wanted but not placeable right now.
    blocked_by_capacity: int = 0
    #: Peak concurrent replica units observed, per model.
    peak_units: dict = field(default_factory=dict)


class Autoscaler:
    """Elastic replica scaling over one :class:`ServingFrontend`."""

    def __init__(self, frontend, params: AutoscaleParameters | None = None):
        self.frontend = frontend
        self.controller = frontend.controller
        self.params = params or AutoscaleParameters()
        self.stats = AutoscaleStats()
        self._horizon_s = 0.0
        #: model -> arrival-rate EWMA (requests/s).
        self._rate: dict[str, float] = {}
        #: model -> arrivals observed since the last tick.
        self._arrivals: dict[str, int] = {}
        self._last_up: dict[str, float] = {}
        self._last_down: dict[str, float] = {}
        self._last_tick_s = 0.0
        #: Scale-up suppressed until this instant (fault coordination).
        self._suppress_until = -1.0
        stats = self.controller.stats
        self._seen_scale_down_recoveries = stats.scale_down_recoveries
        self._seen_boards_failed = stats.boards_failed
        self._seen_completed = frontend.stats.completed
        self._seen_slo_hits = frontend.stats.slo_hits
        frontend.autoscaler = self
        # Single-owner elasticity: the base system's reactive
        # queue-pressure expansion defers to the autoscaler — two
        # uncoordinated growth loops over-provision and then fight each
        # other's scale-downs.
        if hasattr(frontend.system, "expansion_enabled"):
            frontend.system.expansion_enabled = False

    # -- decision ticks --------------------------------------------------------

    def arm(self, horizon_s: float) -> None:
        """Schedule decision ticks as DES events out to ``horizon_s``, on
        the simulator bound to the controller (``ReproError`` before one
        binds).

        Ticks self-perpetuate past the horizon while the simulator still
        holds queued requests (the backlog drain deserves scale decisions
        too) and stop once both the horizon has passed and the queues are
        empty, so the event queue always terminates.
        """
        self._horizon_s = horizon_s
        self.controller._clock().schedule_external(INTERVAL_S, self._tick)

    def _tick(self, now: float) -> None:
        self.evaluate(now)
        simulator = self.controller._clock()
        if (
            now + INTERVAL_S <= self._horizon_s
            or simulator.pending_count > 0
        ):
            simulator.schedule_external(INTERVAL_S, self._tick)

    # -- signal intake ---------------------------------------------------------

    def observe_arrival(self, model_key: str, now: float) -> None:
        """Called by the frontend at every offered request."""
        self._arrivals[model_key] = self._arrivals.get(model_key, 0) + 1

    def replica_units(self, model_key: str) -> int:
        """Resident replica units of one model: each deployment contributes
        its plan's replica count, whatever its state — a deployment mid
        reconfiguration already holds (or still holds) its blocks."""
        return sum(
            d.plan.replicas for d in self.controller.deployments_of(model_key)
        )

    def _recent_slo(self) -> float:
        """SLO attainment over completions since the last tick (1.0 when
        nothing completed — no evidence is not failure evidence)."""
        stats = self.frontend.stats
        completed = stats.completed - self._seen_completed
        hits = stats.slo_hits - self._seen_slo_hits
        self._seen_completed = stats.completed
        self._seen_slo_hits = stats.slo_hits
        return hits / completed if completed else 1.0

    def _check_fault_suppression(self, now: float) -> None:
        """Watch the controller's fault counters; any growth opens the
        scale-up suppression window."""
        stats = self.controller.stats
        if (
            stats.scale_down_recoveries > self._seen_scale_down_recoveries
            or stats.boards_failed > self._seen_boards_failed
        ):
            self._suppress_until = now + FAULT_SUPPRESS_S
        self._seen_scale_down_recoveries = stats.scale_down_recoveries
        self._seen_boards_failed = stats.boards_failed

    # -- the decision tick -----------------------------------------------------

    def evaluate(self, now: float) -> None:
        """One decision pass over every model with any signal history.

        Callable directly (tests) or via the armed DES tick, but only once
        a simulator is bound to the controller (``ReproError`` otherwise):
        queue depths are the simulator's, and retirements and narrowings
        complete as DES events.  At most one scaling action per model per
        tick — the cooldowns would gate a second anyway, and one-step
        moves keep the control loop damped.
        """
        simulator = self.controller._clock()
        self.stats.ticks += 1
        self._check_fault_suppression(now)
        recent_slo = self._recent_slo()
        interval = max(now - self._last_tick_s, 1e-12)
        self._last_tick_s = now
        models = sorted(
            set(self._rate)
            | set(self._arrivals)
            | set(self.controller.models_resident())
        )
        for model_key in models:
            inst = self._arrivals.pop(model_key, 0) / interval
            self._rate[model_key] = (
                RATE_ALPHA * inst
                + (1.0 - RATE_ALPHA) * self._rate.get(model_key, 0.0)
            )
            units = self.replica_units(model_key)
            if units > self.stats.peak_units.get(model_key, 0):
                self.stats.peak_units[model_key] = units
            depth = simulator.queued_depth(model_key)
            if self._should_scale_up(model_key, depth, recent_slo, units, now):
                self._scale_up(model_key, units, depth, now)
            elif self._should_scale_down(model_key, depth, units, now):
                self._scale_down(model_key, units, depth, now)

    # -- scale-up --------------------------------------------------------------

    def _should_scale_up(
        self, model_key: str, depth: int, recent_slo: float, units: int, now: float
    ) -> bool:
        pressured = depth >= HIGH_WATERMARK or (
            depth > 0 and recent_slo < SLO_FLOOR
        )
        if not pressured or units >= self.params.max_replicas:
            return False
        if now < self._suppress_until:
            self.stats.suppressed += 1
            return False
        last = self._last_up.get(model_key)
        return last is None or now - last >= self.params.up_cooldown_s

    def _scale_up(self, model_key: str, units: int, depth: int, now: float) -> None:
        """Widen an idle deployment, or else add one."""
        reason = f"depth={depth} rate={self._rate.get(model_key, 0.0):.0f}/s"
        if not self._try_widen(model_key, units, now, reason):
            self._try_add(model_key, units, now, reason)

    def _plans(self, model_key: str) -> list:
        return self.controller.catalog.entry_by_key(model_key).sorted_plans()

    def _try_widen(
        self, model_key: str, units: int, now: float, reason: str
    ) -> bool:
        """Switch an idle deployment to the next wider catalog plan."""
        controller = self.controller
        deployment = controller.find_idle_deployment(model_key)
        if deployment is None:
            return False
        current = deployment.plan.replicas
        wider = [
            plan
            for plan in self._plans(model_key)
            if plan.replicas > current
            and units - current + plan.replicas <= self.params.max_replicas
        ]
        if not wider:
            return False
        target = min(wider, key=lambda plan: plan.replicas)
        if controller.swap_plan(deployment, target, now) is None:
            self.stats.blocked_by_capacity += 1
            return False
        self.stats.scale_ups += 1
        self.stats.widenings += 1
        self._last_up[model_key] = now
        self._emit(
            now, model_key, "widen", units, units - current + target.replicas,
            reason,
        )
        return True

    def _try_add(
        self, model_key: str, units: int, now: float, reason: str
    ) -> None:
        """Place one more deployment of the narrowest plan that fits the
        unit budget (brownout's narrow-first preference: grow in the
        smallest increments the catalog offers)."""
        controller = self.controller
        candidates = [
            plan
            for plan in self._plans(model_key)
            if units + plan.replicas <= self.params.max_replicas
        ]
        if not candidates:
            return
        target = min(candidates, key=controller.plan_footprint)
        placed = controller.place_plan(target, now)
        if placed is None:
            self.stats.blocked_by_capacity += 1
            return
        new_deployment, reconfig = placed
        self.controller.hold_until_ready(new_deployment, reconfig)
        self.stats.scale_ups += 1
        self.stats.additions += 1
        self._last_up[model_key] = now
        self._emit(
            now, model_key, "add", units, units + target.replicas, reason
        )

    # -- scale-down ------------------------------------------------------------

    def _should_scale_down(
        self, model_key: str, depth: int, units: int, now: float
    ) -> bool:
        if depth > LOW_WATERMARK or units <= MIN_REPLICAS:
            return False
        for last in (self._last_down.get(model_key), self._last_up.get(model_key)):
            if last is not None and now - last < self.params.down_cooldown_s:
                return False
        controller = self.controller
        count = controller.deployment_count(model_key)
        if not count:
            return False
        busy = count - len(controller.idle_of(model_key))
        return busy / count <= DOWN_BUSY_FRACTION

    def _fits_after(self, model_key: str, removed_units: int) -> bool:
        """Would the EWMA arrival rate still fit ``down_target_util`` of
        the serving capacity remaining after removing ``removed_units``
        replica units?  Capacity is estimated from each deployment's
        cached service time (1/service_s requests/s), scaled by the
        surviving unit fraction — conservative and cheap."""
        deployments = self.controller.deployments_of(model_key)
        capacity = sum(
            1.0 / d.service_s for d in deployments if d.service_s > 0
        )
        units = sum(d.plan.replicas for d in deployments)
        if units <= 0 or capacity <= 0:
            return False
        remaining = capacity * (units - removed_units) / units
        return self._rate.get(model_key, 0.0) <= (
            self.params.down_target_util * remaining
        )

    def _scale_down(self, model_key: str, units: int, depth: int, now: float) -> None:
        """Retire the LRU idle deployment, or narrow it when it is the
        model's only one.  Idleness is the drain: nothing is in flight on
        the victim, and narrowing holds old and new concurrently, so no
        request is ever lost to a scale-down."""
        controller = self.controller
        deployments = controller.deployments_of(model_key)
        idle = controller.idle_of(model_key)
        if not idle:
            return
        victim = min(idle, key=lambda d: d.last_used_s)
        reason = f"depth={depth} rate={self._rate.get(model_key, 0.0):.0f}/s"
        if (
            len(deployments) > 1
            and units - victim.plan.replicas >= MIN_REPLICAS
        ):
            if self._fits_after(model_key, victim.plan.replicas):
                self._retire(victim, units, now, reason)
            return
        narrower = [
            plan
            for plan in self._plans(model_key)
            if plan.replicas < victim.plan.replicas
            and units - victim.plan.replicas + plan.replicas
            >= MIN_REPLICAS
        ]
        if not narrower:
            return
        target = max(narrower, key=lambda plan: plan.replicas)
        if not self._fits_after(
            model_key, victim.plan.replicas - target.replicas
        ):
            return
        self._narrow(victim, target, units, now, reason)

    def _retire(self, deployment, units: int, now: float, reason: str) -> None:
        """Drain + checkpoint-to-host, then discard.

        The deployment is idle (drained by definition); the charged cost
        is the migration drain window plus streaming its architectural
        state over the host link — the checkpoint is what lets a later
        scale-up restore warm state instead of cold-starting.
        """
        controller = self.controller
        model_key = deployment.model_key
        engine = controller.migration
        cost = engine.host_stream_s(deployment, engine.DRAIN_S)
        self.stats.scale_downs += 1
        self.stats.retirements += 1
        self._last_down[model_key] = now
        self._emit(
            now, model_key, "retire", units,
            units - deployment.plan.replicas, reason,
        )
        controller.set_state(deployment, DeploymentState.MIGRATING)

        def complete(fire_now, d=deployment):
            if d.deployment_id in controller.deployments:
                # pending_recovery is moot: the deployment is leaving.
                d.pending_recovery = False
                controller.discard(d)

        controller._clock().schedule_external(cost, complete)

    def _narrow(
        self, deployment, target, units: int, now: float, reason: str
    ) -> None:
        """Checkpoint + migrate the model's only deployment to a narrower
        plan, holding both widths so coverage never drops to zero."""
        controller = self.controller
        model_key = deployment.model_key
        placed = controller.place_plan(target, now)
        if placed is None:
            return  # no room for the narrow copy right now; try next tick
        new_deployment, reconfig = placed
        engine = controller.migration
        cost = reconfig + engine.host_stream_s(deployment, engine.DRAIN_S)
        self.stats.scale_downs += 1
        self.stats.narrowings += 1
        self._last_down[model_key] = now
        self._emit(
            now, model_key, "narrow", units,
            units - deployment.plan.replicas + target.replicas, reason,
        )
        controller.set_state(deployment, DeploymentState.MIGRATING)
        controller.set_state(new_deployment, DeploymentState.RECOVERING)

        def complete(fire_now, old=deployment, new=new_deployment):
            if old.deployment_id in controller.deployments:
                old.pending_recovery = False
                controller.discard(old)
            controller.finish_reconfiguration(new, fire_now)

        controller._clock().schedule_external(cost, complete)

    # -- shared mechanics ------------------------------------------------------

    def _emit(
        self,
        now: float,
        model_key: str,
        action: str,
        units_before: int,
        units_after: int,
        reason: str,
    ) -> None:
        self.controller.emit_event(
            ScaleEvent(
                at_s=now,
                model_key=model_key,
                action=action,
                units_before=units_before,
                units_after=units_after,
                reason=reason,
            )
        )
