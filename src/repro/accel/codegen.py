"""LSTM/GRU program generators for the AS ISA.

These are the DeepBench-style workloads the paper evaluates (Section 4.1):
GRU and LSTM inference at batch size one.  The codegen emits programs in the
*slice-parallel* form the accelerator executes: every replica (one for a
full-size accelerator, ``k`` for a scale-down deployment) owns a row slice
of each weight matrix and produces the matching slice of the hidden state.

Scale-out hooks: the instruction that produces the local hidden-state slice
is tagged ``produce:h``; consumers of the *full* previous hidden state are
tagged ``consume:h``; the single-accelerator full-state update is tagged
``broadcast:h`` and is replaced by send/recv when
:func:`repro.isa.comm_insertion.insert_scaleout_communication` transforms the
program (see :func:`build_scaleout_programs`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ISAError
from ..isa import comm_insertion
from ..isa.instructions import (
    Instruction,
    endloop,
    halt,
    loop,
    m_rd,
    mv_mul,
    v_copy,
    v_fill,
    v_rd,
    v_sigm,
    v_tanh,
    v_wr,
    vv_add,
    vv_mul,
    vv_sub,
)
from ..isa.progcache import PROGRAM_CACHE, program_cache_key
from ..isa.program import Program
from ..isa.reorder import reorder_for_overlap

# -- DRAM layout (word addresses) ---------------------------------------------

MAT_BASE = 0x0010_0000
BIAS_BASE = 0x0008_0000
X_BASE = 0x0100_0000
OUT_BASE = 0x0004_0000

# -- register allocation ---------------------------------------------------------

R_X = 0        # x_t (full input vector)
R_H_FULL = 1   # h_{t-1}, full (combined across replicas)
R_T0, R_T1, R_T2, R_T3, R_T4, R_T5 = 2, 3, 4, 5, 6, 7
R_B0, R_B1, R_B2 = 8, 9, 10  # gate g's bias is R_B0 + g (11: LSTM's 4th)
R_H_SLICE = 12  # local slice of h_t
R_ONES = 13
R_C_SLICE = 14  # LSTM cell state (row-local, never exchanged)


@dataclass
class RNNWeights:
    """Weight tensors for one GRU or LSTM model (numpy, row-major).

    ``w[gate]`` maps the input (``hidden x input_dim``), ``u[gate]`` the
    recurrent state (``hidden x hidden``), ``b[gate]`` the bias.  Gate order
    is ``r, z, n`` for GRU and ``i, f, g, o`` for LSTM.
    """

    kind: str
    hidden: int
    input_dim: int
    w: list = field(default_factory=list)
    u: list = field(default_factory=list)
    b: list = field(default_factory=list)

    @property
    def gates(self) -> int:
        return len(self.w)

    @property
    def parameter_count(self) -> int:
        """Total weights (matrices only; biases are negligible)."""
        return self.gates * (self.hidden * self.input_dim + self.hidden * self.hidden)

    @classmethod
    def random(
        cls, kind: str, hidden: int, input_dim: int | None = None, seed: int = 0
    ) -> "RNNWeights":
        """Random, inference-stable weights (scaled for bounded activations)."""
        kind = kind.lower()
        gates = {"gru": 3, "lstm": 4}.get(kind)
        if gates is None:
            raise ISAError(f"unknown RNN kind {kind!r}")
        input_dim = input_dim or hidden
        rng = np.random.default_rng(seed)
        scale_w = 1.0 / np.sqrt(input_dim)
        scale_u = 1.0 / np.sqrt(hidden)
        return cls(
            kind=kind,
            hidden=hidden,
            input_dim=input_dim,
            w=[rng.normal(0, scale_w, (hidden, input_dim)) for _ in range(gates)],
            u=[rng.normal(0, scale_u, (hidden, hidden)) for _ in range(gates)],
            b=[rng.normal(0, 0.1, hidden) for _ in range(gates)],
        )


@dataclass(frozen=True)
class _Slice:
    """The row slice one replica owns."""

    start: int
    rows: int


class _RNNCodegenBase:
    """Shared machinery for GRU/LSTM codegen.

    Parameters:
        weights: the model.
        timesteps: sequence length.
        replicas / replica_index: scale-down slicing (1/0 = whole model).
    """

    GATES: int = 0

    def __init__(
        self,
        weights: RNNWeights,
        timesteps: int,
        replicas: int = 1,
        replica_index: int = 0,
    ):
        if weights.gates != self.GATES:
            raise ISAError(
                f"{type(self).__name__} expects {self.GATES} gates, weights "
                f"have {weights.gates}"
            )
        if timesteps < 1:
            raise ISAError("timesteps must be >= 1")
        if weights.hidden % replicas != 0:
            raise ISAError(
                f"hidden {weights.hidden} not divisible by {replicas} replicas"
            )
        self.weights = weights
        self.timesteps = timesteps
        self.replicas = replicas
        self.replica_index = replica_index
        rows = weights.hidden // replicas
        self.slice = _Slice(start=replica_index * rows, rows=rows)

    # -- addresses --------------------------------------------------------------

    def _matrix_addr(self, which: str, gate: int) -> int:
        """Address of this replica's row slice of matrix ``which`` (w/u).

        Per-gate layout: ``W`` (h x d) then ``U`` (h x h), back to back.
        """
        h, d = self.weights.hidden, self.weights.input_dim
        base = MAT_BASE + gate * (h * d + h * h)
        if which == "w":
            return base + self.slice.start * d
        return base + h * d + self.slice.start * h

    def _bias_addr(self, gate: int) -> int:
        return BIAS_BASE + gate * self.weights.hidden + self.slice.start

    # -- DRAM image -----------------------------------------------------------------

    def preload(self, sim, xs: np.ndarray) -> None:
        """Write weights, biases and the input stream into a simulator's DRAM.

        ``xs`` is ``(timesteps, input_dim)``.  Every replica's DRAM receives
        the full image (each FPGA has its own DRAM copy); programs address
        only their own slice.
        """
        self.preload_weights(sim)
        self.preload_inputs(sim, xs)

    def preload_weights(self, sim) -> None:
        """The request-invariant half of the DRAM image (weights + biases).

        Split out so the batched simulator can write it once through a
        broadcast view shared by every lane of a batch.
        """
        h, d = self.weights.hidden, self.weights.input_dim
        for gate in range(self.GATES):
            base = MAT_BASE + gate * (h * d + h * h)
            sim.dram.write(base, self.weights.w[gate])
            sim.dram.write(base + h * d, self.weights.u[gate])
            sim.dram.write(BIAS_BASE + gate * h, self.weights.b[gate])

    def preload_inputs(self, sim, xs: np.ndarray) -> None:
        """The per-request half of the DRAM image: the input stream, one
        row-major block at ``X_BASE`` (``x_t`` at ``X_BASE + t * input_dim``)."""
        d = self.weights.input_dim
        xs = np.asarray(xs, dtype=np.float64)
        if xs.shape != (self.timesteps, d):
            raise ISAError(f"xs shape {xs.shape} != ({self.timesteps}, {d})")
        sim.dram.write(X_BASE, xs.ravel())

    # -- program assembly --------------------------------------------------------------

    def _prologue(self, prog: Program) -> None:
        h, d = self.weights.hidden, self.weights.input_dim
        rows = self.slice.rows
        for gate in range(self.GATES):
            prog.append(m_rd(self._mreg("w", gate), self._matrix_addr("w", gate),
                             rows, tag="load:w"))
            # cols ride in imm for M_RD (matrix shape) — see the ISA docs.
            prog.instructions[-1] = _with_imm(prog.instructions[-1], d)
            prog.append(m_rd(self._mreg("u", gate), self._matrix_addr("u", gate),
                             rows, tag="load:u"))
            prog.instructions[-1] = _with_imm(prog.instructions[-1], h)
            prog.append(v_rd(R_B0 + gate, self._bias_addr(gate), rows, tag="load:b"))
        prog.append(v_fill(R_ONES, 1.0, rows))
        prog.append(v_fill(R_H_FULL, 0.0, h))
        fill_slice = v_fill(R_H_SLICE, 0.0, rows, tag="produce:h")
        prog.append(fill_slice)

    def _mreg(self, which: str, gate: int) -> int:
        return gate * 2 + (0 if which == "w" else 1)

    def _load_x(self, prog: Program) -> None:
        d = self.weights.input_dim
        inst = v_rd(R_X, X_BASE, d, tag="load:x")
        # stride rides in imm for strided DRAM streams.
        prog.append(_with_imm(inst, d))

    def _mv_w(self, prog: Program, dst: int, gate: int) -> None:
        """dst <- W_gate[slice] @ x_t (independent of h — overlappable)."""
        inst = mv_mul(dst, self._mreg("w", gate), R_X, self.slice.rows,
                      tag="compute:x")
        prog.append(_with_imm(inst, self.weights.input_dim))

    def _mv_u(self, prog: Program, dst: int, gate: int) -> None:
        """dst <- U_gate[slice] @ h_{t-1} (consumes the full hidden state)."""
        inst = mv_mul(dst, self._mreg("u", gate), R_H_FULL, self.slice.rows,
                      tag="consume:h")
        prog.append(_with_imm(inst, self.weights.hidden))

    def _epilogue(self, prog: Program) -> None:
        prog.append(v_wr(R_H_SLICE, OUT_BASE + self.slice.start, self.slice.rows,
                         tag="store:h"))
        prog.append(halt())

    def _broadcast_h(self, prog: Program) -> None:
        """Single-accelerator full-state update (replaced by send/recv when
        the communication-insertion tool transforms the program)."""
        if self.replicas == 1:
            prog.append(v_copy(R_H_FULL, R_H_SLICE, self.weights.hidden,
                               tag="broadcast:h"))

    def build(self) -> Program:
        """Emit the program for this replica."""
        prog = Program(name=self._program_name())
        prog.metadata.update(
            model=self.weights.kind,
            hidden=self.weights.hidden,
            input_dim=self.weights.input_dim,
            timesteps=self.timesteps,
            replicas=self.replicas,
            replica_index=self.replica_index,
            slice_rows=self.slice.rows,
        )
        self._prologue(prog)
        prog.append(loop(self.timesteps))
        self._step_body(prog)
        self._broadcast_h(prog)
        prog.append(endloop())
        self._epilogue(prog)
        prog.validate()
        return prog

    def _program_name(self) -> str:
        h, t = self.weights.hidden, self.timesteps
        return f"{self.weights.kind}-h{h}-t{t}"

    def _step_body(self, prog: Program) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


def _with_imm(inst: Instruction, imm: float) -> Instruction:
    from dataclasses import replace

    return replace(inst, imm=float(imm))


class GRUCodegen(_RNNCodegenBase):
    """GRU inference::

        r = sigm(W_r x + U_r h + b_r)
        z = sigm(W_z x + U_z h + b_z)
        n = tanh(W_n x + r * (U_n h) + b_n)
        h = (1 - z) * n + z * h
    """

    GATES = 3

    def _step_body(self, prog: Program) -> None:
        rows = self.slice.rows
        self._load_x(prog)
        # r gate
        self._mv_w(prog, R_T0, 0)
        self._mv_u(prog, R_T1, 0)
        prog.append(vv_add(R_T0, R_T0, R_T1, rows))
        prog.append(vv_add(R_T0, R_T0, R_B0, rows))
        prog.append(v_sigm(R_T0, R_T0, rows))
        # z gate
        self._mv_w(prog, R_T2, 1)
        self._mv_u(prog, R_T3, 1)
        prog.append(vv_add(R_T2, R_T2, R_T3, rows))
        prog.append(vv_add(R_T2, R_T2, R_B1, rows))
        prog.append(v_sigm(R_T2, R_T2, rows))
        # candidate
        self._mv_w(prog, R_T4, 2)
        self._mv_u(prog, R_T5, 2)
        prog.append(vv_mul(R_T5, R_T0, R_T5, rows))
        prog.append(vv_add(R_T4, R_T4, R_T5, rows))
        prog.append(vv_add(R_T4, R_T4, R_B2, rows))
        prog.append(v_tanh(R_T4, R_T4, rows))
        # h update (slice-local elementwise)
        prog.append(vv_sub(R_T1, R_ONES, R_T2, rows))
        prog.append(vv_mul(R_T1, R_T1, R_T4, rows))
        prog.append(vv_mul(R_T3, R_T2, R_H_SLICE, rows))
        prog.append(vv_add(R_H_SLICE, R_T1, R_T3, rows).with_tag("produce:h"))


class LSTMCodegen(_RNNCodegenBase):
    """LSTM inference::

        i = sigm(W_i x + U_i h + b_i)     f = sigm(W_f x + U_f h + b_f)
        g = tanh(W_g x + U_g h + b_g)     o = sigm(W_o x + U_o h + b_o)
        c = f * c + i * g                 h = o * tanh(c)

    The cell state ``c`` is row-local (elementwise only), so scale-out
    replicas never exchange it — only ``h`` crosses FPGAs.
    """

    GATES = 4

    def _prologue(self, prog: Program) -> None:
        super()._prologue(prog)
        prog.append(v_fill(R_C_SLICE, 0.0, self.slice.rows))

    def _step_body(self, prog: Program) -> None:
        rows = self.slice.rows
        self._load_x(prog)
        gate_regs = (R_T0, R_T1, R_T2, R_T3)
        activations = (v_sigm, v_sigm, v_tanh, v_sigm)
        for gate, (reg, act) in enumerate(zip(gate_regs, activations)):
            self._mv_w(prog, reg, gate)
            self._mv_u(prog, R_T4, gate)
            prog.append(vv_add(reg, reg, R_T4, rows))
            prog.append(vv_add(reg, reg, R_B0 + gate, rows))
            prog.append(act(reg, reg, rows))
        # c = f*c + i*g
        prog.append(vv_mul(R_T5, R_T0, R_T2, rows))       # i*g
        prog.append(vv_mul(R_C_SLICE, R_T1, R_C_SLICE, rows))  # f*c
        prog.append(vv_add(R_C_SLICE, R_C_SLICE, R_T5, rows))
        # h = o * tanh(c)
        prog.append(v_tanh(R_T4, R_C_SLICE, rows))
        prog.append(vv_mul(R_H_SLICE, R_T3, R_T4, rows).with_tag("produce:h"))


def make_codegen(
    kind: str, weights: RNNWeights, timesteps: int, replicas: int = 1,
    replica_index: int = 0,
) -> _RNNCodegenBase:
    """Factory over the two model kinds."""
    cls = {"gru": GRUCodegen, "lstm": LSTMCodegen}.get(kind.lower())
    if cls is None:
        raise ISAError(f"unknown RNN kind {kind!r}")
    return cls(weights, timesteps, replicas=replicas, replica_index=replica_index)


def build_scaleout_programs(
    kind: str,
    weights: RNNWeights,
    timesteps: int,
    replicas: int,
    reorder: bool = True,
) -> list:
    """Emit the ``replicas`` programs for a scale-down deployment.

    Applies the communication-insertion tool (send after ``produce:h``,
    combining recv before ``consume:h``), strips the single-accelerator
    broadcast, and optionally runs the overlap reordering tool — exactly the
    offline pipeline of Section 2.3.

    Transformed programs are memoised in :data:`repro.isa.progcache
    .PROGRAM_CACHE` — the pipeline's output depends only on the model
    configuration and plan shape, never on the weight tensors, so repeat
    deployments of the same plan skip codegen/insertion/reordering.
    """

    def _build(index: int) -> Program:
        gen = make_codegen(kind, weights, timesteps, replicas=replicas,
                           replica_index=index)
        template = gen.build()
        plan = comm_insertion.ScaleOutPlan(
            replicas=replicas,
            replica_index=index,
            value="h",
            full_length=weights.hidden,
            slice_register=R_H_SLICE,
            combined_register=R_H_FULL,
        )
        transformed = comm_insertion.insert_scaleout_communication(template, plan)
        if reorder:
            transformed = reorder_for_overlap(transformed)
        return transformed

    programs = []
    for index in range(replicas):
        key = program_cache_key(
            kind.lower(),
            weights.hidden,
            weights.input_dim,
            timesteps,
            replicas=replicas,
            replica_index=index,
            reorder=reorder,
            stage="scaleout",
        )
        programs.append(
            PROGRAM_CACHE.get(key, lambda index=index: _build(index))
        )
    return programs


def reference_output(weights: RNNWeights, xs: np.ndarray) -> np.ndarray:
    """Float64 numpy reference (no quantisation) for end-to-end checks."""
    h = np.zeros(weights.hidden)
    xs = np.asarray(xs, dtype=np.float64)
    if weights.kind == "gru":
        for x in xs:
            r = _np_sigm(weights.w[0] @ x + weights.u[0] @ h + weights.b[0])
            z = _np_sigm(weights.w[1] @ x + weights.u[1] @ h + weights.b[1])
            n = np.tanh(weights.w[2] @ x + r * (weights.u[2] @ h) + weights.b[2])
            h = (1 - z) * n + z * h
        return h
    if weights.kind == "lstm":
        c = np.zeros(weights.hidden)
        for x in xs:
            i = _np_sigm(weights.w[0] @ x + weights.u[0] @ h + weights.b[0])
            f = _np_sigm(weights.w[1] @ x + weights.u[1] @ h + weights.b[1])
            g = np.tanh(weights.w[2] @ x + weights.u[2] @ h + weights.b[2])
            o = _np_sigm(weights.w[3] @ x + weights.u[3] @ h + weights.b[3])
            c = f * c + i * g
            h = o * np.tanh(c)
        return h
    raise ISAError(f"unknown RNN kind {weights.kind!r}")


def _np_sigm(values: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-values))
