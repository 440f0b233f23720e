"""Latency-insensitive interface tests: the static formulas are validated
against the cycle-level elastic-channel model."""

import pytest
from hypothesis import given, strategies as st

from repro.core.interface import (
    ElasticChannel,
    LatencyInsensitiveInterface,
    boundary_overhead_cycles,
)
from repro.errors import MappingError


class TestInterfaceStatics:
    def test_transfer_cycles_zero_words(self):
        iface = LatencyInsensitiveInterface(width_bits=64)
        assert iface.transfer_cycles(0) == 0

    def test_transfer_cycles_single_word(self):
        iface = LatencyInsensitiveInterface(width_bits=64, stages=2)
        assert iface.transfer_cycles(1) == 2  # pipeline fill only

    def test_transfer_streams_at_throughput(self):
        iface = LatencyInsensitiveInterface(width_bits=64, stages=2)
        assert iface.transfer_cycles(10) == 2 + 9

    def test_invalid_stages(self):
        with pytest.raises(MappingError):
            LatencyInsensitiveInterface(width_bits=8, stages=0)

    def test_invalid_width(self):
        with pytest.raises(MappingError):
            LatencyInsensitiveInterface(width_bits=-1)


class TestBoundaryOverhead:
    def test_zero_crossings(self):
        assert boundary_overhead_cycles(0) == 0

    def test_linear_in_crossings(self):
        assert boundary_overhead_cycles(4, stages=2) == 8

    def test_negative_rejected(self):
        with pytest.raises(MappingError):
            boundary_overhead_cycles(-1)


class TestElasticChannel:
    def test_word_arrives_after_stage_count(self):
        iface = LatencyInsensitiveInterface(width_bits=8, stages=2)
        channel = ElasticChannel(iface)
        assert channel.push("x")
        arrivals = 0
        for _ in range(iface.stages):
            assert channel.pop() is None
            channel.step()
        assert channel.pop() == "x"

    def test_fifo_order(self):
        iface = LatencyInsensitiveInterface(width_bits=8, stages=1)
        channel = ElasticChannel(iface, buffer_depth=8)
        channel.push("a")
        channel.step()
        channel.push("b")
        channel.step()
        assert channel.pop() == "a"
        assert channel.pop() == "b"

    def test_backpressure_blocks_producer(self):
        iface = LatencyInsensitiveInterface(width_bits=8, stages=1)
        channel = ElasticChannel(iface, buffer_depth=1)
        accepted = 0
        for _ in range(10):
            if channel.push("w"):
                accepted += 1
        assert accepted == 2  # buffer + in-flight stage

    def test_drains_after_backpressure(self):
        iface = LatencyInsensitiveInterface(width_bits=8, stages=1)
        channel = ElasticChannel(iface, buffer_depth=1)
        channel.push("a")
        channel.push("b")
        channel.step()
        assert channel.pop() == "a"
        channel.step()
        assert channel.pop() == "b"
        assert channel.idle

    def test_idle_initially(self):
        iface = LatencyInsensitiveInterface(width_bits=8)
        assert ElasticChannel(iface).idle


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=30))
def test_channel_latency_matches_formula(stages, words):
    """The cycle-level model delivers the last word exactly when the static
    transfer formula predicts (no backpressure)."""
    iface = LatencyInsensitiveInterface(width_bits=8, stages=stages)
    channel = ElasticChannel(iface, buffer_depth=words + stages)
    received = 0
    cycle = 0
    sent = 0
    last_arrival = None
    while received < words and cycle < 1000:
        if sent < words:
            assert channel.push(sent)
            sent += 1
        channel.step()
        cycle += 1
        while channel.pop() is not None:
            received += 1
            last_arrival = cycle
    assert received == words
    assert last_arrival == iface.transfer_cycles(words)
