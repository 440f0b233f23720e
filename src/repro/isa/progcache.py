"""Decoded-program cache: repeat deployments skip codegen entirely.

Every deployment of a model runs the same pipeline — codegen, loop
structuring, (for scale-out) communication insertion and reordering — and
the result is fully determined by the model configuration, the plan width
and the BFP format.  In a serving system that sees the same handful of
models millions of times, rebuilding that artifact per request/deployment
is pure waste; this cache memoises the built :class:`Program` under an
explicit key and counts its own ``hits`` / ``misses`` / ``evictions``
(:meth:`ProgramCache.stats`).

The cache takes *builder callbacks* rather than importing any codegen
module: ``repro.accel`` imports ``repro.isa``, so the cache (living in
``repro.isa``) cannot know how programs are built — call sites pass a
zero-argument closure invoked only on miss.

Cached programs are immutable by convention; :meth:`ProgramCache.get`
returns a shallow copy (fresh ``instructions`` list and ``metadata`` dict
over the same frozen :class:`Instruction` records) so callers that append
or tag instructions cannot corrupt the cached artifact.  Hot read-only
paths may pass ``copy=False``, which returns the cached object itself and
so lets a cache hold any immutable artifact, not only programs (the
functional weight store in :mod:`repro.runtime.batching` is one).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from .program import Program


def program_cache_key(
    kind: str,
    hidden: int,
    input_dim: int,
    timesteps: int,
    replicas: int = 1,
    replica_index: int = 0,
    reorder: bool = True,
    mantissa_bits: int = 6,
    block_size: int = 16,
    stage: str = "template",
) -> tuple:
    """The canonical cache key: model config × plan width × BFP format.

    ``stage`` separates pipeline products of the same configuration: the
    raw codegen ``"template"`` versus the ``"scaleout"`` program after
    communication insertion (and optional reordering).  The BFP format is
    part of the key even though today's codegen does not read it —
    quantisation-aware codegen would, and a stale hit across formats would
    be silently wrong.
    """
    return (
        "rnn",
        stage,
        kind,
        int(hidden),
        int(input_dim),
        int(timesteps),
        int(replicas),
        int(replica_index),
        bool(reorder),
        int(mantissa_bits),
        int(block_size),
    )


class ProgramCache:
    """A bounded, thread-safe memo table for built programs.

    LRU eviction keeps the footprint bounded when a workload generator
    sweeps many configurations; the default capacity comfortably holds
    every (model, width, replica) combination the benchmarks use.
    """

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("program cache capacity must be positive")
        self.capacity = capacity
        self._entries: OrderedDict[tuple, Program] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: tuple, builder, copy: bool = True) -> Program:
        """The program for ``key``, building via ``builder()`` on miss."""
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return self._copy(cached) if copy else cached
        # Build outside the lock: builders run codegen and may be slow.
        built = builder()
        with self._lock:
            # A racing builder may have inserted meanwhile; first wins so
            # every caller shares one artifact.
            cached = self._entries.get(key)
            if cached is None:
                self._entries[key] = cached = built
                self.misses += 1
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
        return self._copy(cached) if copy else cached

    @staticmethod
    def _copy(program: Program) -> Program:
        return Program(
            instructions=list(program.instructions),
            name=program.name,
            metadata=dict(program.metadata),
        )

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        self.hits = self.misses = self.evictions = 0

    def stats(self) -> dict:
        """JSON-serialisable counters (benchmark reports embed this)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "capacity": self.capacity,
        }


#: Process-wide cache the workload/catalog layers share.
PROGRAM_CACHE = ProgramCache()
