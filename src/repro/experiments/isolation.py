"""Section 4.4's performance-isolation result.

"For evaluated LSTM/GRU benchmarks, the entire machine codes can be stored
in this buffer to largely minimize the number of DRAM accesses, thereby
avoiding contention on the shared DRAM interface.  This enables a
sufficient performance isolation and the inference latency in this
resource-sharing environment is comparable to that in a non-sharing
environment."

The driver measures each benchmark's virtualized latency alone vs sharing
an FPGA with two co-resident accelerators, twice: with the on-chip
instruction buffer (the paper's design) and with the buffer ablated (every
instruction fetch crosses the shared DRAM interface).

The cluster-level companion, :func:`run_tenant_isolation`, lifts the same
question to the multi-tenancy layer: each *tenant* (a labelled request
stream) runs once **solo** — the whole cluster to itself — and once
**shared** with every other tenant under a
:class:`~repro.tenancy.TenantScheduler`; the per-tenant interference
metric is the latency degradation (shared / solo) of its mean and p99.
The arrival shape is pluggable through the ``--trace`` flag (any name in
:data:`~repro.workloads.ARRIVAL_PROCESSES`), so the same experiment runs
under Poisson, bursty MMPP or heavy-tailed gaps.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

from ..accel import BW_V37, CycleModel
from ..accel.timing import VirtualizationContext
from ..workloads.deepbench import TABLE4_BENCHMARKS, ModelSpec
from .report import format_table, percentile

#: Co-resident accelerators in the sharing scenario.
NEIGHBOURS = 2


@dataclass
class IsolationRow:
    """Sharing impact for one benchmark, with and without the buffer."""

    model: ModelSpec
    alone_s: float
    shared_s: float
    shared_no_buffer_s: float
    code_fits_buffer: bool

    @property
    def sharing_penalty(self) -> float:
        """Relative slowdown from sharing, with the instruction buffer."""
        return self.shared_s / self.alone_s - 1.0

    @property
    def sharing_penalty_no_buffer(self) -> float:
        """Relative slowdown from sharing when code spills to DRAM."""
        return self.shared_no_buffer_s / self.alone_s - 1.0


def run_isolation(benchmarks=TABLE4_BENCHMARKS) -> list:
    """Measure the isolation table on the VU37P instance."""
    model = CycleModel(BW_V37)
    virt = VirtualizationContext(virtual_blocks=14)
    rows = []
    for spec in benchmarks:
        program = spec.program()
        if not model.fits(program):
            continue
        alone = model.latency(program, virtualization=virt)
        shared = model.latency(
            program, virtualization=virt, sharing_neighbours=NEIGHBOURS
        )
        spilled = model.latency(
            program,
            virtualization=virt,
            sharing_neighbours=NEIGHBOURS,
            instruction_buffer=False,
        )
        rows.append(
            IsolationRow(
                model=spec,
                alone_s=alone.seconds,
                shared_s=shared.seconds,
                shared_no_buffer_s=spilled.seconds,
                code_fits_buffer=model.program_fits_buffer(program),
            )
        )
    return rows


def render(rows: list) -> str:
    body = [
        [
            row.model.key,
            "yes" if row.code_fits_buffer else "NO",
            f"{row.alone_s * 1e3:.4g}",
            f"{row.shared_s * 1e3:.4g}",
            f"{row.sharing_penalty * 100:.2f}%",
            f"{row.sharing_penalty_no_buffer * 100:.2f}%",
        ]
        for row in rows
    ]
    return format_table(
        [
            "Benchmark", "Code in buffer", "Alone (ms)", "Shared (ms)",
            "Sharing penalty", "Penalty w/o buffer",
        ],
        body,
        title=(
            "Section 4.4: performance isolation under FPGA sharing "
            f"({NEIGHBOURS} co-resident accelerators)"
        ),
    )


# -- cluster-level tenant isolation ------------------------------------------

#: Default tenant mix: a premium interactive stream and a best-effort
#: batch stream over disjoint model sets.
DEFAULT_TENANT_MODELS = {
    "premium": ("gru-h512-t1",),
    "batch": ("lstm-h256-t150", "lstm-h512-t25"),
}
TENANT_RATE_PER_S = 400.0
TENANT_TASKS = 120
TENANT_SEED = 23


@dataclass
class TenantIsolationRow:
    """Interference one tenant suffers from sharing the cluster."""

    tenant: str
    solo_mean_s: float
    solo_p99_s: float
    shared_mean_s: float
    shared_p99_s: float
    completed_solo: int
    completed_shared: int

    @property
    def mean_degradation(self) -> float:
        """Shared / solo mean latency (1.0 = perfect isolation)."""
        return self.shared_mean_s / self.solo_mean_s if self.solo_mean_s else 1.0

    @property
    def p99_degradation(self) -> float:
        return self.shared_p99_s / self.solo_p99_s if self.solo_p99_s else 1.0


def _tenant_tasks(
    name: str,
    models: tuple,
    task_count: int,
    rate_per_s: float,
    trace: str,
    seed: int,
    id_base: int,
) -> list:
    from ..cluster import Task
    from ..workloads import arrival_process

    arrivals = arrival_process(trace)(task_count, rate_per_s, seed=seed)
    return [
        Task(
            task_id=id_base + index,
            model_key=models[index % len(models)],
            arrival_s=arrival_s,
            size_class="S",
            tenant=name,
        )
        for index, arrival_s in enumerate(arrivals)
    ]


def _run_tenant_arm(tasks: list, tenants: list, label: str):
    """One simulated arm; returns the bound :class:`TenantScheduler`."""
    from ..cluster import ClusterSimulator, paper_cluster
    from ..runtime import Catalog, build_system
    from ..tenancy import TenantScheduler
    from ..vital import VitalCompiler

    system = build_system("proposed", paper_cluster(), Catalog(VitalCompiler()))
    scheduler = TenantScheduler(system, tenants)
    ClusterSimulator(scheduler, label).run(sorted(tasks, key=lambda t: (t.arrival_s, t.task_id)))
    return scheduler


def run_tenant_isolation(
    tenants: list | None = None,
    tenant_models: dict | None = None,
    task_count: int = TENANT_TASKS,
    rate_per_s: float = TENANT_RATE_PER_S,
    trace: str = "poisson",
    seed: int = TENANT_SEED,
) -> list:
    """Per-tenant interference: each labelled stream solo vs shared.

    ``tenants`` is a list of :class:`~repro.tenancy.TenantParameters`
    (defaults to equal-priority tenants named by ``tenant_models``);
    ``trace`` names any registered arrival process.  Returns one
    :class:`TenantIsolationRow` per tenant.
    """
    from ..tenancy import TenantParameters

    models = tenant_models or DEFAULT_TENANT_MODELS
    if tenants is None:
        tenants = [TenantParameters(name=name) for name in sorted(models)]
    by_name = {t.name: t for t in tenants}
    if set(by_name) != set(models):
        raise ValueError(
            f"tenant labels {sorted(by_name)} != model map {sorted(models)}"
        )
    # Streams are rebuilt (seed-identical) per arm: the simulator stamps
    # start/finish state into Task objects, so arms must not share them.
    def streams():
        return {
            name: _tenant_tasks(
                name,
                tuple(models[name]),
                task_count,
                rate_per_s,
                trace,
                seed + offset,
                id_base=offset * task_count,
            )
            for offset, name in enumerate(sorted(models))
        }

    solo = {}
    for name, tasks in streams().items():
        scheduler = _run_tenant_arm(
            tasks, [by_name[name]], f"isolation-solo-{name}"
        )
        solo[name] = list(scheduler.tenant(name).latencies_s)
    mixed = [task for tasks in streams().values() for task in tasks]
    shared_scheduler = _run_tenant_arm(
        mixed, list(by_name.values()), "isolation-shared"
    )
    rows = []
    for name in sorted(models):
        shared = list(shared_scheduler.tenant(name).latencies_s)
        rows.append(
            TenantIsolationRow(
                tenant=name,
                solo_mean_s=sum(solo[name]) / len(solo[name]) if solo[name] else 0.0,
                solo_p99_s=percentile(solo[name], 0.99),
                shared_mean_s=sum(shared) / len(shared) if shared else 0.0,
                shared_p99_s=percentile(shared, 0.99),
                completed_solo=len(solo[name]),
                completed_shared=len(shared),
            )
        )
    return rows


def render_tenants(rows: list, trace: str = "poisson") -> str:
    body = [
        [
            row.tenant,
            str(row.completed_solo),
            str(row.completed_shared),
            f"{row.solo_mean_s * 1e3:.4g}",
            f"{row.shared_mean_s * 1e3:.4g}",
            f"{row.mean_degradation:.3f}x",
            f"{row.p99_degradation:.3f}x",
        ]
        for row in rows
    ]
    return format_table(
        [
            "Tenant", "Done solo", "Done shared", "Solo mean (ms)",
            "Shared mean (ms)", "Mean degradation", "p99 degradation",
        ],
        body,
        title=f"Cluster-level tenant interference ({trace} arrivals)",
    )


def main(argv=None) -> None:
    from ..workloads import ARRIVAL_PROCESSES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tenants",
        action="store_true",
        help="run the cluster-level per-tenant interference experiment",
    )
    parser.add_argument(
        "--trace",
        choices=sorted(ARRIVAL_PROCESSES),
        default="poisson",
        help="arrival process shaping every tenant's stream",
    )
    parser.add_argument("--tasks", type=int, default=TENANT_TASKS)
    parser.add_argument("--rate", type=float, default=TENANT_RATE_PER_S)
    parser.add_argument("--seed", type=int, default=TENANT_SEED)
    args = parser.parse_args(argv)
    print(render(run_isolation()))
    if args.tenants:
        rows = run_tenant_isolation(
            task_count=args.tasks,
            rate_per_s=args.rate,
            trace=args.trace,
            seed=args.seed,
        )
        print(render_tenants(rows, trace=args.trace))


if __name__ == "__main__":  # pragma: no cover - manual driver
    main()
