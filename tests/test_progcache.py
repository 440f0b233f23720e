"""Decoded-program cache tests: hit/miss/eviction accounting, LRU order,
copy-on-return isolation, key separation, and the memoised call sites
(``ModelSpec.program`` and ``build_scaleout_programs``)."""

import pytest

from repro.accel.codegen import build_scaleout_programs
from repro.isa.instructions import halt, v_fill
from repro.isa.program import Program
from repro.isa.progcache import PROGRAM_CACHE, ProgramCache, program_cache_key
from repro.workloads.deepbench import model_by_key


@pytest.fixture(autouse=True)
def _clean_global_cache():
    """Tests share the process-wide cache; keep their counters isolated."""
    PROGRAM_CACHE.clear()
    PROGRAM_CACHE.reset_stats()
    yield
    PROGRAM_CACHE.clear()
    PROGRAM_CACHE.reset_stats()


def _program(tag: str) -> Program:
    return Program([v_fill(0, 1.0, 4), halt()], name=tag)


def _key(**overrides) -> tuple:
    base = dict(kind="gru", hidden=32, input_dim=32, timesteps=4)
    base.update(overrides)
    return program_cache_key(**base)


class TestProgramCache:
    def test_miss_then_hit(self):
        cache = ProgramCache()
        builds = []

        def builder():
            builds.append(1)
            return _program("a")

        first = cache.get(_key(), builder)
        second = cache.get(_key(), builder)
        assert len(builds) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert first.name == second.name == "a"

    def test_counters_live_on_the_owning_cache(self):
        before = PROGRAM_CACHE.stats()
        cache = ProgramCache()
        other = ProgramCache()
        cache.get(_key(), lambda: _program("a"))
        cache.get(_key(), lambda: _program("a"))
        assert (cache.misses, cache.hits) == (1, 1)
        assert (other.misses, other.hits) == (0, 0)
        assert PROGRAM_CACHE.stats() == before

    def test_returned_copy_is_isolated(self):
        cache = ProgramCache()
        got = cache.get(_key(), lambda: _program("a"))
        got.instructions.append(halt())
        got.metadata["poison"] = True
        again = cache.get(_key(), lambda: _program("never"))
        assert len(again.instructions) == 2
        assert "poison" not in again.metadata

    def test_copy_false_returns_shared_object(self):
        cache = ProgramCache()
        first = cache.get(_key(), lambda: _program("a"), copy=False)
        second = cache.get(_key(), lambda: _program("a"), copy=False)
        assert first is second

    def test_lru_eviction(self):
        cache = ProgramCache(capacity=2)
        cache.get(_key(hidden=1), lambda: _program("a"))
        cache.get(_key(hidden=2), lambda: _program("b"))
        # Touch "a" so "b" is the least recently used.
        cache.get(_key(hidden=1), lambda: _program("a"))
        cache.get(_key(hidden=3), lambda: _program("c"))
        assert cache.evictions == 1
        assert _key(hidden=1) in cache and _key(hidden=3) in cache
        assert _key(hidden=2) not in cache
        assert len(cache) == 2

    def test_stats_shape(self):
        cache = ProgramCache(capacity=8)
        cache.get(_key(), lambda: _program("a"))
        stats = cache.stats()
        assert stats == {
            "hits": 0,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
            "capacity": 8,
        }

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            ProgramCache(capacity=0)

    def test_clear_and_reset(self):
        cache = ProgramCache()
        cache.get(_key(), lambda: _program("a"))
        cache.clear()
        cache.reset_stats()
        assert len(cache) == 0 and cache.stats()["misses"] == 0


class TestCacheKey:
    def test_distinct_configs_distinct_keys(self):
        base = _key()
        assert _key(hidden=64) != base
        assert _key(timesteps=8) != base
        assert _key(replicas=2) != base
        assert _key(replica_index=1, replicas=2) != _key(replicas=2)
        assert _key(mantissa_bits=4) != base
        assert _key(block_size=32) != base
        assert _key(reorder=False) != base

    def test_stage_separates_pipeline_products(self):
        """The raw codegen template and the comm-inserted scale-out program
        of the same configuration must never collide."""
        assert _key(stage="template") != _key(stage="scaleout")


class TestMemoisedCallSites:
    def test_model_spec_program_cached(self):
        spec = model_by_key("gru-h512-t1")
        first = spec.program()
        assert PROGRAM_CACHE.misses == 1
        second = spec.program()
        assert PROGRAM_CACHE.hits == 1
        assert [str(i) for i in first.instructions] == [
            str(i) for i in second.instructions
        ]
        # The shallow copy keeps the cached artifact safe from mutation.
        second.instructions.clear()
        assert len(spec.program().instructions) == len(first.instructions)

    def test_replica_programs_cached_separately(self):
        spec = model_by_key("gru-h512-t1")
        spec.program(replicas=2, replica_index=0)
        spec.program(replicas=2, replica_index=1)
        assert PROGRAM_CACHE.misses == 2
        spec.program(replicas=2, replica_index=0)
        assert PROGRAM_CACHE.hits == 1

    def test_build_scaleout_programs_cached(self, gru_small):
        weights, xs = gru_small
        t = xs.shape[0]
        first = build_scaleout_programs("gru", weights, t, 2)
        assert PROGRAM_CACHE.misses == 2 and PROGRAM_CACHE.hits == 0
        second = build_scaleout_programs("gru", weights, t, 2)
        assert PROGRAM_CACHE.hits == 2
        for a, b in zip(first, second):
            assert [str(i) for i in a.instructions] == [
                str(i) for i in b.instructions
            ]
