"""Queue tasks in a simulator without running it, or set its queue view.

Admission reads the simulator's queues (the serving bound, the
tenancy activation floor), so a test that offers tasks to
a frontend or tenancy layer by hand queues them in a bound simulator.  A
proposed system's expansion and hints read the simulator's queue view, so
a test that drives the system by hand sets that view.
"""

from repro.cluster import ClusterSimulator


def queue_tasks(scheduler, tasks) -> list:
    """Arrive ``tasks`` one by one at the clock of the simulator bound to
    ``scheduler`` (a new one is bound when there is none), as the run
    would arrive them, and leave the admitted ones queued: nothing starts.
    Returns each task's admission answer."""
    simulator = scheduler._simulator or ClusterSimulator(scheduler, "queued")
    dropped = simulator._result.dropped
    admitted = []
    for task in tasks:
        # While a pass runs, an arrival queues and does not dispatch.
        simulator._dispatching = True
        try:
            simulator._arrive(task)
        finally:
            simulator._dispatching = False
        admitted.append(not dropped or dropped[-1] is not task)
    return admitted


def show_counts(system, counts) -> None:
    """Show ``system`` the queued counts a dispatch pass would: bind a
    simulator when none is bound, and set its ``queue_view``."""
    simulator = system._simulator or ClusterSimulator(system, "viewed")
    simulator.queue_view = dict(counts)
