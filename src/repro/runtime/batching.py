"""Request coalescing: batch same-model functional executions.

The DES computes task *timing* from the cycle model; the functional
simulator computes task *outputs*.  Timing never depended on the
functional layer, so batching lives entirely on the output side: when the
runtime is asked to actually execute requests (``Task.payload`` inputs →
``Task.output`` hidden states), a :class:`BatchExecutor` coalesces tasks
of the same (model, plan width) into one
:class:`~repro.accel.batched.BatchedFunctionalSimulator` run instead of N
scalar runs.

Integration contract — *no change to DES event semantics*; the executor
runs nothing during a run:

* ``submit(task, replicas)`` is called by the scheduler inside
  ``try_start`` after the deployment is acquired.  It only records the
  task and its (model, plan width) key.
* ``withdraw(task)`` is called when a running task is preempted: its
  record goes, and the task submits again when it restarts, so its output
  comes from the plan width of the run that completes, and a task dropped
  after a preemption holds no output.
* ``flush()`` executes every recorded task, each key's tasks in chunks of
  ``max_batch`` lanes in submit order, and forgets them.  The scheduler
  registers it as a run-end step of the driving
  :class:`~repro.cluster.simulator.ClusterSimulator`, which fires once the
  event queue is empty and before ``run()`` returns.  Nothing in the
  simulation reads ``Task.output``, so every output exists when ``run()``
  returns, at unchanged timestamps — the fig12 goldens are bit-identical
  with the executor on or off.

The executor is **off by default** (like migration, faults and serving):
schedulers only create one when handed :class:`BatchingParameters`.

Tasks without a payload get a deterministic per-task input stream seeded
by ``task_id`` — the same stream the scalar path would generate — so
batched-vs-scalar equivalence is checkable end-to-end through the DES.

Execution is *weight-stationary across runs*: a model is compiled once
per process into its program and its weight layout, and every execution
after that only writes its inputs.  :data:`WEIGHT_STORE` keeps one
:class:`~repro.accel.functional.WeightImage` per model, its weights drawn
from :data:`WEIGHT_SEED`, built at the model's first execution in the process and then shared by
every executor and every later run, scalar or batched, and by every plan
width and replica of a scale-out (each FPGA's DRAM holds the whole
model); the image keeps its memoised quantised matrices, and the raw
weight tensors are dropped once it is built.  Programs come from
:data:`~repro.isa.progcache.PROGRAM_CACHE`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..accel.batched import run_batched, run_scaleout_batched
from ..accel.codegen import OUT_BASE, build_scaleout_programs, make_codegen
from ..accel.functional import WeightImage, run_scaleout
from ..errors import ReproError
from ..isa.progcache import ProgramCache
from ..workloads.deepbench import model_by_key

#: LRU bound of :data:`WEIGHT_STORE`: an entry holds a full weight image
#: and its quantised matrices (8-33 MB for an S model).
WEIGHT_STORE_CAPACITY = 16

#: Process-wide ``model_key -> WeightImage`` store (see
#: :func:`resident_weights`).
WEIGHT_STORE = ProgramCache(capacity=WEIGHT_STORE_CAPACITY)

#: Seed of the model weights every functional execution runs with.
WEIGHT_SEED = 0


def resident_weights(model_key: str) -> WeightImage:
    """The model's weight image, built on the model's first use in the
    process.  Every replica's DRAM holds the whole model, so one image
    serves every plan width and replica index (its matrix memo is keyed
    by region: each replica quantises only its own slices).  The weight
    tensors live only while the image is built."""

    def build() -> WeightImage:
        spec = model_by_key(model_key)
        return WeightImage.build(
            make_codegen(spec.kind, spec.real_weights(seed=WEIGHT_SEED),
                         spec.timesteps).preload_weights
        )

    return WEIGHT_STORE.get(model_key, build, copy=False)


def input_codegen(spec, replicas: int = 1, replica_index: int = 0):
    """A codegen for one replica's input writes and output slice, built
    over shape-only weights (it holds no tensors)."""
    return make_codegen(spec.kind, spec.metadata_weights(), spec.timesteps,
                        replicas=replicas, replica_index=replica_index)


@dataclass(frozen=True)
class BatchingParameters:
    """Knobs for the request-coalescing executor.

    ``max_batch`` bounds group size: the lanes, and so the memory, of one
    batched run (a key's tasks execute at run end in chunks of it);
    ``force_scalar`` pins every execution to the scalar simulator, the
    reference equivalence harnesses compare against (a one-lane group
    otherwise runs batched too).  The weights are always
    :data:`WEIGHT_SEED`'s.
    """

    max_batch: int = 8
    force_scalar: bool = False

    def __post_init__(self):
        if self.max_batch < 1:
            raise ReproError(f"max_batch must be >= 1, got {self.max_batch}")


@dataclass
class BatchingStats:
    """Coalescing effectiveness counters."""

    executions: int = 0
    batched_lanes: int = 0
    scalar_lanes: int = 0
    #: lane-count histogram over executions (size -> count).
    batch_sizes: dict = field(default_factory=dict)


class BatchExecutor:
    """Coalesces same-model functional executions into batched runs on
    the weight images of :data:`WEIGHT_STORE`."""

    def __init__(self, params: BatchingParameters | None = None):
        self.params = params or BatchingParameters()
        #: task_id -> (task, (model_key, replicas)) for every task to run
        #: at the next flush, in first-submit order.
        self._submitted: dict[int, tuple] = {}
        self.stats = BatchingStats()

    def default_payload(self, task) -> np.ndarray:
        """The deterministic input stream for a payload-less task."""
        spec = model_by_key(task.model_key)
        rng = np.random.default_rng(task.task_id)
        return rng.normal(0.0, 1.0, (spec.timesteps, spec.effective_input_dim))

    # -- coalescing ----------------------------------------------------------

    def submit(self, task, replicas: int) -> None:
        """Record ``task`` for execution at the next flush, at the plan
        width ``replicas`` of its latest start (a restart overwrites the
        width and keeps the task's place)."""
        self._submitted[task.task_id] = (task, (task.model_key, replicas))

    def withdraw(self, task) -> None:
        """Forget ``task`` unexecuted (preemption: the task submits again
        when it restarts)."""
        self._submitted.pop(task.task_id, None)

    def flush(self) -> None:
        """Execute every recorded task (the run-end step): each (model,
        plan width)'s tasks in chunks of ``max_batch`` lanes, in submit
        order."""
        groups: dict[tuple, list] = {}
        for task, key in self._submitted.values():
            groups.setdefault(key, []).append(task)
        self._submitted.clear()
        size = self.params.max_batch
        for key, tasks in groups.items():
            for at in range(0, len(tasks), size):
                self._execute(key, tasks[at : at + size])

    # -- execution -----------------------------------------------------------

    def _execute(self, key: tuple, tasks: list) -> None:
        model_key, replicas = key
        payloads = [
            task.payload if task.payload is not None else self.default_payload(task)
            for task in tasks
        ]
        spec = model_by_key(model_key)
        batch = len(tasks)
        if replicas <= 1:
            gen = input_codegen(spec)
            lanes = run_batched(
                spec.program(),
                [lambda view, xs=xs: gen.preload_inputs(view, xs) for xs in payloads],
                image=resident_weights(model_key),
                force_scalar=self.params.force_scalar,
            )
            outputs = [
                lanes.lane_dram_read(i, OUT_BASE, spec.hidden) for i in range(batch)
            ]
        else:
            outputs = self._execute_scaleout(spec, replicas, payloads)
        for task, output in zip(tasks, outputs):
            task.output = output
        self.stats.executions += 1
        self.stats.batch_sizes[batch] = self.stats.batch_sizes.get(batch, 0) + 1
        if self.params.force_scalar:
            self.stats.scalar_lanes += batch
        else:
            self.stats.batched_lanes += batch

    def _execute_scaleout(self, spec, replicas: int, payloads: list) -> list:
        gens = [input_codegen(spec, replicas, index) for index in range(replicas)]
        images = [resident_weights(spec.key)] * replicas
        programs = build_scaleout_programs(
            spec.kind, spec.metadata_weights(), spec.timesteps, replicas
        )
        if self.params.force_scalar:
            # The scalar reference: one scale-out co-simulation per lane.
            outputs = []
            for xs in payloads:
                sims, _fabric = run_scaleout(
                    programs,
                    preload=lambda sim, i: gens[i].preload_inputs(sim, xs),
                    images=images,
                )
                outputs.append(self._gather(sims, gens, spec, lane=None))
            return outputs
        lanes, _fabric = run_scaleout_batched(
            programs,
            [
                lambda view, i, xs=xs: gens[i].preload_inputs(view, xs)
                for xs in payloads
            ],
            images=images,
        )
        return [
            self._gather(lanes, gens, spec, lane=index)
            for index in range(len(payloads))
        ]

    @staticmethod
    def _gather(replica_sims, gens, spec, lane) -> np.ndarray:
        """Concatenate each replica's hidden-state slice into the full h."""
        parts = []
        for gen, sim in zip(gens, replica_sims):
            addr = OUT_BASE + gen.slice.start
            if lane is None:
                parts.append(sim.dram.read(addr, gen.slice.rows))
            else:
                parts.append(sim.lane_dram_read(lane, addr, gen.slice.rows))
        return np.concatenate(parts)
