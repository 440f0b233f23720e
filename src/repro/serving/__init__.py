"""The online serving layer: overload-robust admission over the runtime.

The paper's runtime deploys a fixed task list; a cloud service faces an
open arrival stream from millions of users, and must stay predictable when
demand exceeds capacity or boards fail.  This package is that edge,
layered on :class:`~repro.runtime.controller.SystemController` and driven
by the :class:`~repro.cluster.simulator.ClusterSimulator`:

* :mod:`~repro.serving.policy`   — the policy knobs
  (:class:`ServingParameters`) and the fixed backoff and brownout
  constants;
* :mod:`~repro.serving.request`  — deadline-carrying :class:`Request`
  tasks and their terminal :class:`RequestOutcome`;
* :mod:`~repro.serving.breaker`  — per-board circuit breakers
  (open -> drain -> half-open probe -> close);
* :mod:`~repro.serving.frontend` — :class:`ServingFrontend`, the
  Scheduler-protocol wrapper that does admission control, deadline
  expiry on one timer, retry budgets with jittered backoff, breaker-driven
  board drains and brownout scale-down switching.

Everything is opt-in: constructing no frontend changes nothing, so the
Fig. 12 goldens stay bit-identical.  ``python -m repro serve`` runs a
stream through the frontend; ``repro.experiments.bench_serving`` sweeps
offered load with and without faults into ``BENCH_serving.json``.
"""

from .breaker import BreakerState, CircuitBreaker
from .frontend import ServingFrontend, ServingStats
from .policy import ServingParameters
from .request import Request, RequestOutcome, RequestRecord

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "Request",
    "RequestOutcome",
    "RequestRecord",
    "ServingFrontend",
    "ServingParameters",
    "ServingStats",
]
