"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow:

* ``inventory``         — the system/substrate inventory.
* ``decompose``         — generate an instance and print its soft-block tree.
* ``partition``         — print the partition tree and frontiers.
* ``assemble``          — assemble an ISA source file to binary.
* ``disassemble``       — decode a binary back to assembly.
* ``table2 .. fig12``   — regenerate one table/figure.
* ``isolation``         — Section 4.4's sharing-isolation result.
* ``compile-overhead``  — Section 4.3's compile-cost accounting.
* ``inject-faults``     — seeded board-failure run with automatic recovery.
* ``serve``             — bursty stream through the overload-robust
  serving frontend (admission, deadlines, retries, breakers, brownout).
* ``tenancy``           — premium + best-effort tenant mix under overload
  (quotas, weighted fair share, priority preemption).
* ``cluster-status``    — per-board occupancy, free histograms, fragmentation.
* ``all``               — regenerate everything (what EXPERIMENTS.md records).
"""

from __future__ import annotations

import argparse
import sys

from . import __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Multi-layer virtualization framework for heterogeneous cloud "
            "FPGAs (ASPLOS'21 reproduction)"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("inventory", help="package/system inventory")

    for name, needs_tiles in (("decompose", True), ("partition", True)):
        p = sub.add_parser(name, help=f"{name} an accelerator instance")
        p.add_argument("--tiles", type=int, default=8,
                       help="tile engines in the instance (default 8)")
        p.add_argument("--device", default="XCVU37P",
                       choices=["XCVU37P", "XCKU115"])
        if name == "partition":
            p.add_argument("--iterations", type=int, default=2)
        else:
            p.add_argument("--depth", type=int, default=3,
                           help="tree rendering depth")

    p = sub.add_parser("assemble", help="assemble ISA source to binary")
    p.add_argument("source", help="assembly source file")
    p.add_argument("output", help="binary output file")

    p = sub.add_parser("disassemble", help="decode an ISA binary")
    p.add_argument("binary", help="binary input file")

    for name in ("table2", "table3", "table4", "fig11", "fig12",
                 "compile-overhead", "isolation", "all"):
        p = sub.add_parser(name, help=f"regenerate {name}")
        if name in ("fig12", "all"):
            p.add_argument("--tasks", type=int, default=150)
            p.add_argument("--seeds", type=int, default=1,
                           help="seeds to average over")

    p = sub.add_parser(
        "inject-faults",
        help="run the serving stream under seeded board failures with "
        "automatic checkpoint-based recovery",
    )
    p.add_argument("--mtbf", type=float, default=1.0,
                   help="per-board mean time between failures, seconds "
                   "(default 1.0)")
    p.add_argument("--mttr", type=float, default=0.08,
                   help="mean time to repair, seconds (default 0.08)")
    p.add_argument("--seed", type=int, default=7,
                   help="fault-timeline seed (default 7)")
    p.add_argument("--tasks", type=int, default=120,
                   help="tasks in the serving stream (default 120)")
    p.add_argument("--degraded-fraction", type=float, default=0.0,
                   help="fraction of faults that drain instead of failing "
                   "hard (default 0)")

    p = sub.add_parser(
        "serve",
        help="run a bursty request stream through the overload-robust "
        "serving frontend (admission control, deadlines, retries, "
        "breakers, brownout)",
    )
    p.add_argument("--tasks", type=int, default=240,
                   help="requests in the stream (default 240)")
    p.add_argument("--load", type=float, default=2.0,
                   help="offered load as a multiple of the saturating "
                   "rate (default 2.0)")
    p.add_argument("--deadline", type=float, default=0.25,
                   help="per-request deadline, seconds after arrival "
                   "(default 0.25)")
    p.add_argument("--queue-depth", type=int, default=12,
                   help="per-model admission queue bound (default 12)")
    p.add_argument("--mtbf", type=float, default=0.0,
                   help="arm the fault injector at this per-board MTBF "
                   "in seconds (0 = fault-free, the default)")
    p.add_argument("--seed", type=int, default=7,
                   help="fault-timeline seed (default 7)")
    p.add_argument("--autoscale", action="store_true",
                   help="arm the elastic replica autoscaler over the "
                   "frontend (repro.autoscale)")
    p.add_argument("--json", action="store_true",
                   help="emit the full metrics block (admission counters, "
                   "SLO attainment, drop counts) as JSON instead of prose")

    p = sub.add_parser(
        "tenancy",
        help="run a premium + best-effort tenant mix under 2x overload "
        "through the multi-tenant fairness layer (quotas, weighted fair "
        "share, priority preemption with checkpoint + requeue)",
    )
    p.add_argument("--tasks", type=int, default=160,
                   help="total tasks across both tenants (default 160)")
    p.add_argument("--output", default=None,
                   help="also write the full BENCH_tenancy-style report "
                   "to this path")
    p.add_argument("--json", action="store_true",
                   help="emit the full report as JSON instead of prose")

    p = sub.add_parser(
        "cluster-status",
        help="per-board occupancy, per-type free histograms, fragmentation",
    )
    p.add_argument(
        "--deploy",
        action="append",
        default=[],
        metavar="MODEL_KEY",
        help="deploy this model before reporting (repeatable); infeasible "
        "placements are reported, not fatal",
    )
    return parser


def _instance(args):
    from .accel.config import BW_K115, BW_V37

    base = BW_V37 if args.device == "XCVU37P" else BW_K115
    return base.with_tiles(args.tiles, name=f"cli-{args.tiles}t")


def _cmd_inventory(_args, out) -> int:
    from .accel import BW_K115, BW_V37
    from .vital.device import DEVICE_TYPES

    print(f"repro {__version__}", file=out)
    print("\naccelerator instances:", file=out)
    for config in (BW_V37, BW_K115):
        print(
            f"  {config.name}: {config.tiles} tiles, "
            f"{config.peak_flops / 1e12:.1f} TFLOPS peak",
            file=out,
        )
    print("\ndevice types:", file=out)
    for device in DEVICE_TYPES.values():
        print(
            f"  {device.name}: {device.usable_blocks} virtual blocks, "
            f"{device.frequency_hz / 1e6:.0f} MHz",
            file=out,
        )
    print("\nexperiments: table2 table3 table4 fig11 fig12 "
          "compile-overhead isolation", file=out)
    return 0


def _cmd_decompose(args, out) -> int:
    from .accel import CONTROL_MODULES, generate_accelerator
    from .core import decompose, render_tree

    decomposed = decompose(
        generate_accelerator(_instance(args)), CONTROL_MODULES
    )
    print(render_tree(decomposed.data_root, max_depth=args.depth), file=out)
    print(
        f"\nroot pattern: {decomposed.root_pattern.value}; "
        f"scale-down applicable: {decomposed.supports_scale_down()}",
        file=out,
    )
    return 0


def _cmd_partition(args, out) -> int:
    from .accel import CONTROL_MODULES, generate_accelerator
    from .core import decompose, partition
    from .core.visualize import render_partition

    decomposed = decompose(
        generate_accelerator(_instance(args)), CONTROL_MODULES
    )
    tree = partition(decomposed, iterations=args.iterations)
    print(render_partition(tree), file=out)
    print(f"\nfrontier sizes: {[len(f) for f in tree.frontiers()]}", file=out)
    return 0


def _cmd_assemble(args, out) -> int:
    from pathlib import Path

    from .isa import assemble, encode_program

    source = Path(args.source).read_text()
    program = assemble(source, name=Path(args.source).stem)
    blob = encode_program(program)
    Path(args.output).write_bytes(blob)
    print(
        f"{len(program)} instructions -> {len(blob)} bytes "
        f"({args.output})",
        file=out,
    )
    return 0


def _cmd_disassemble(args, out) -> int:
    from pathlib import Path

    from .isa import decode_program, disassemble

    program = decode_program(
        Path(args.binary).read_bytes(), name=Path(args.binary).stem
    )
    print(disassemble(program), file=out)
    return 0


def _cmd_cluster_status(args, out) -> int:
    from .cluster import paper_cluster
    from .runtime import Catalog, build_system
    from .vital import VitalCompiler

    cluster = paper_cluster()
    system = build_system("proposed", cluster, Catalog(VitalCompiler()))
    controller = system.controller
    for key in args.deploy:
        try:
            controller.deploy(key)
        except Exception as error:  # infeasible request: report, keep going
            print(f"deploy {key}: {error}", file=out)

    model_of = {
        deployment.deployment_id: deployment.model_key
        for deployment in controller.deployments.values()
    }
    print("board occupancy:", file=out)
    for fpga_id in sorted(cluster.boards):
        board = cluster.boards[fpga_id]
        residents = sorted(
            model_of.get(owner, owner) for owner in board.owners()
        )
        resident_text = ", ".join(residents) if residents else "-"
        print(
            f"  {fpga_id:10s} {board.model.name:9s} "
            f"{board.used_blocks:2d}/{len(board.blocks):2d} blocks used  "
            f"[{resident_text}]",
            file=out,
        )

    print("\nfree-block histogram per device type:", file=out)
    for device_type in controller.index.device_types():
        free_counts = sorted(
            board.free_blocks
            for board in controller.index.boards_by_id(device_type)
        )
        total = sum(free_counts)
        print(
            f"  {device_type:9s} free={free_counts} (total {total})",
            file=out,
        )

    print("\nfragmentation (1 - largest hole / total free):", file=out)
    for device_type, value in sorted(controller.fragmentation().items()):
        print(f"  {device_type:9s} {value:.3f}", file=out)
    return 0


def _cmd_inject_faults(args, out) -> int:
    from .experiments.bench_faults import _build_tasks, run_point

    tasks = _build_tasks(args.tasks)
    point = run_point(
        tasks,
        mtbf_s=args.mtbf,
        mttr_s=args.mttr,
        seed=args.seed,
        degraded_fraction=args.degraded_fraction,
    )
    print(
        f"stream: {point['completed']} tasks completed in "
        f"{point['makespan_s'] * 1e3:.1f} ms simulated "
        f"({point['throughput_tasks_per_s']:.1f} tasks/s)",
        file=out,
    )
    print(
        f"faults: {point['boards_failed']} board failures, "
        f"{point['boards_repaired']} repairs "
        f"(mtbf {args.mtbf:g}s, mttr {args.mttr:g}s, seed {args.seed})",
        file=out,
    )
    print(
        f"recovery: {point['deployments_failed']} deployments lost, "
        f"{point['recoveries']} recovered "
        f"({point['scale_down_recoveries']} scaled down, "
        f"{point['recovery_retries']} retries, "
        f"{point['recovery_failures']} abandoned)",
        file=out,
    )
    print(
        f"cost: {point['lost_work_s'] * 1e3:.2f} ms work lost, "
        f"availability {point['availability']:.3f}, "
        f"p99 latency {point['p99_latency_s'] * 1e3:.2f} ms",
        file=out,
    )
    return 0


def _cmd_serve(args, out) -> int:
    import json

    from .experiments.bench_serving import run_point, serving_parameters
    from dataclasses import replace

    params = replace(
        serving_parameters(),
        default_deadline_s=args.deadline,
        max_queue_depth=args.queue_depth,
    )
    point = run_point(
        args.tasks,
        args.load,
        mtbf_s=args.mtbf if args.mtbf > 0 else None,
        params=params,
        fault_seed=args.seed,
        autoscale=args.autoscale,
    )
    if args.json:
        print(json.dumps(point, indent=1), file=out)
        return 0
    print(
        f"stream: {point['offered']} offered at "
        f"{point['offered_rate_per_s']:.0f} req/s "
        f"(x{point['load_factor']:g} saturation), deadline "
        f"{args.deadline * 1e3:.0f} ms",
        file=out,
    )
    print(
        f"admission: {point['admitted']} admitted, {point['shed']} shed, "
        f"{point['expired']} expired, {point['abandoned']} abandoned, "
        f"{point['breaker_rejections']} breaker-rejected",
        file=out,
    )
    print(
        f"service: {point['completed']} completed, SLO attainment "
        f"{point['slo_admitted']:.3f} (admitted basis), "
        f"goodput {point['goodput_per_s']:.0f} req/s, "
        f"p50 {point['p50_latency_s'] * 1e3:.2f} ms, "
        f"p99 {point['p99_latency_s'] * 1e3:.2f} ms",
        file=out,
    )
    print(
        f"resilience: {point['placement_retries']} placement retries, "
        f"breakers {point['breaker_opens']} opened / "
        f"{point['breaker_half_opens']} half-open / "
        f"{point['breaker_closes']} closed, "
        f"brownout {point['brownout_entries']} entries / "
        f"{point['brownout_switches']} plan switches",
        file=out,
    )
    if point["mtbf_s"]:
        print(
            f"faults: {point['boards_failed']} board failures, "
            f"{point['recoveries']} deployments recovered "
            f"(mtbf {point['mtbf_s']:g}s, seed {args.seed})",
            file=out,
        )
    if "autoscale" in point:
        a = point["autoscale"]
        print(
            f"autoscale: {a['scale_ups']} ups "
            f"({a['widenings']} widened / {a['additions']} added), "
            f"{a['scale_downs']} downs "
            f"({a['retirements']} retired / {a['narrowings']} narrowed), "
            f"{a['suppressed']} fault-suppressed, peak units "
            f"{a['peak_units']}",
            file=out,
        )
    return 0


def _cmd_tenancy(args, out) -> int:
    import json

    from .experiments.bench_tenancy import PREMIUM, run_bench

    report = run_bench(task_count=args.tasks, output=args.output)
    if args.json:
        print(json.dumps(report, indent=1), file=out)
        return 0
    workload = report["workload"]
    print(
        f"workload: {workload['task_count']} tasks on "
        f"{workload['boards']} boards, "
        f"x{workload['overload_factor']:g} overload, {workload['trace']} "
        f"arrivals",
        file=out,
    )
    for tenant in workload["tenants"]:
        print(
            f"  tenant {tenant['name']}: priority {tenant['priority']}, "
            f"weight {tenant['weight']:g}, block quota "
            f"{tenant['block_quota']}, "
            f"{'preemptible' if tenant['preemptible'] else 'protected'}",
            file=out,
        )
    for key in ("premium_solo", "mixed_untenanted", "mixed_tenancy"):
        arm = report[key]
        premium = arm["tenants"].get(PREMIUM, {})
        print(
            f"{key}: {arm['completed']}/{arm['offered']} completed, "
            f"premium p99 {premium.get('p99_s', 0.0) * 1e3:.2f} ms, "
            f"quota rejections {arm['quota_rejections']}",
            file=out,
        )
    tenancy = report["mixed_tenancy"]["tenancy"]
    print(
        f"preemption: {tenancy['preemption_sweeps']} sweeps, "
        f"{tenancy['deployments_preempted']} deployments / "
        f"{tenancy['tasks_preempted']} tasks preempted, recovery rate "
        f"{tenancy['recovery_rate']:.3f}, checkpoint cost "
        f"{tenancy['checkpoint_s'] * 1e3:.3f} ms",
        file=out,
    )
    gate = report["gate"]
    print(
        f"gate: p99 ratio {gate['p99_ratio']:.2f} <= "
        f"{gate['p99_bound_factor']:g}, quota violations "
        f"{gate['quota_violations']}, recovery "
        f"{gate['recovery_rate']:.3f} -> "
        f"{'PASS' if gate['pass'] else 'FAIL'}",
        file=out,
    )
    return 0


def _run_experiment(name: str, args, out) -> int:
    from . import experiments
    from .experiments import (
        compile_overhead,
        fig11,
        fig12,
        isolation,
        table2,
        table3,
        table4,
    )

    if name == "table2":
        print(table2.render(experiments.run_table2()), file=out)
    elif name == "table3":
        print(table3.render(experiments.run_table3()), file=out)
    elif name == "table4":
        print(table4.render(experiments.run_table4()), file=out)
    elif name == "fig11":
        print(fig11.render(experiments.run_fig11()), file=out)
    elif name == "fig12":
        seeds = tuple(range(1, args.seeds + 1))
        rows = experiments.run_fig12(task_count=args.tasks, seeds=seeds)
        print(fig12.render(rows), file=out)
    elif name == "compile-overhead":
        print(compile_overhead.render(experiments.run_compile_overhead()),
              file=out)
    elif name == "isolation":
        print(isolation.render(experiments.run_isolation()), file=out)
    return 0


def main(argv=None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    args = _build_parser().parse_args(argv)
    command = args.command
    if command == "inventory":
        return _cmd_inventory(args, out)
    if command == "decompose":
        return _cmd_decompose(args, out)
    if command == "partition":
        return _cmd_partition(args, out)
    if command == "assemble":
        return _cmd_assemble(args, out)
    if command == "disassemble":
        return _cmd_disassemble(args, out)
    if command == "cluster-status":
        return _cmd_cluster_status(args, out)
    if command == "inject-faults":
        return _cmd_inject_faults(args, out)
    if command == "serve":
        return _cmd_serve(args, out)
    if command == "tenancy":
        return _cmd_tenancy(args, out)
    if command == "all":
        for name in ("table2", "table3", "table4", "fig11", "fig12",
                     "compile-overhead", "isolation"):
            print(f"\n=== {name} ===\n", file=out)
            _run_experiment(name, args, out)
        return 0
    return _run_experiment(command, args, out)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
