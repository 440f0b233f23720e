"""Serving requests: tasks with deadlines and a terminal outcome.

A :class:`Request` is a :class:`~repro.cluster.simulator.Task` carrying an
absolute deadline; the :class:`~repro.serving.frontend.ServingFrontend`
gives every offered task a :class:`RequestRecord` of its admission/retry
state, held on the task itself (``task.serving``), so plain ``Task``
streams work too (they get the frontend's default deadline).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..cluster.simulator import Task


class RequestOutcome(enum.Enum):
    """Terminal disposition of one request at the serving edge."""

    #: Still queued or running.
    PENDING = "pending"
    #: Finished service (SLO attainment is judged separately).
    COMPLETED = "completed"
    #: Rejected by admission control (queue bound).
    SHED = "shed"
    #: Still queued at its deadline; expired then, and dropped without
    #: ever occupying a board.
    EXPIRED = "expired"
    #: Exhausted its placement-retry budget.
    ABANDONED = "abandoned"


@dataclass(slots=True)
class Request(Task):
    """One serving request: a task with an absolute deadline.

    ``deadline_s <= 0`` means "use the frontend's default" (arrival plus
    :attr:`~repro.serving.policy.ServingParameters.default_deadline_s`).
    """

    deadline_s: float = 0.0


@dataclass(slots=True)
class RequestRecord:
    """Frontend-side state for one offered request.

    It holds no board list: breaker attribution reads the boards of the
    deployment a request finished on from ``task.placement`` at finish."""

    #: Absolute deadline (resolved against the frontend default).
    deadline_s: float
    outcome: RequestOutcome = RequestOutcome.PENDING
    #: Genuine placement failures absorbed so far.
    attempts: int = 0
    #: Earliest time the next placement attempt may run (backoff gate).
    next_attempt_s: float = 0.0
    #: Whether the request occupied a board (a preemption requeue
    #: clears it until the request starts again).
    started: bool = False
