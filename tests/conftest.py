"""Shared fixtures for the test suite.

Provides small canonical designs (a lane-style accelerator in miniature),
small RNN models with real tensors, and pre-built catalogs — sized so the
whole suite stays fast while exercising every code path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.accel import BW_V37, generate_accelerator, CONTROL_MODULES
from repro.accel.codegen import RNNWeights
from repro.core import decompose, partition
from repro.rtl.builder import DesignBuilder

# Hypothesis profiles.  The default one is derandomized: every run of the
# suite draws the same examples, at each test's own example count, so a
# run fails only when the code changed.  ``pytest --hypothesis-profile
# oracle tests/test_dispatch_equivalence.py`` searches fresh random examples
# (2 000 per test that sets no count of its own) for new counterexamples.
settings.register_profile("tier1", derandomize=True)
settings.register_profile("oracle", max_examples=2000, derandomize=False,
                          database=None)
settings.load_profile("tier1")


@pytest.fixture
def mini_design():
    """A miniature lane-style accelerator: decoder (control) + 4 identical
    3-stage lanes.  Decomposes to DATA over per-lane PIPELINEs."""
    db = DesignBuilder("mini")

    m = db.module("decoder")
    m.inputs("clk", ("instr", 32)).outputs(("ctl", 16))
    m.instance("r0", "DFF", clk="clk")
    m.build()

    m = db.module("stage_a")
    m.inputs("clk", ("vin", 64)).outputs(("mid", 32))
    m.net("acc0", 24)
    m.instance("mac0", "BFP_MAC", clk="clk", acc_out="acc0")
    m.instance("mac1", "BFP_MAC", clk="clk", acc_in="acc0")
    m.build()

    m = db.module("stage_b")
    m.inputs("clk", ("mid", 32)).outputs(("acc", 24))
    m.instance("a0", "INT_ADD")
    m.build()

    m = db.module("stage_c")
    m.inputs("clk", ("acc", 24)).outputs(("res", 16))
    m.net("mo", 16)
    m.instance("m0", "FP16_MUL", clk="clk", y="mo")
    m.instance("a0", "FP16_ADD", clk="clk", a="mo")
    m.build()

    m = db.module("lane")
    m.inputs("clk", ("vin", 64)).outputs(("res", 16))
    m.nets(("mid", 32), ("acc", 24))
    m.instance("sa", "stage_a", clk="clk", vin="vin", mid="mid")
    m.instance("sb", "stage_b", clk="clk", mid="mid", acc="acc")
    m.instance("sc", "stage_c", clk="clk", acc="acc", res="res")
    m.build()

    m = db.module("top")
    m.inputs("clk", ("instr", 32), ("vec", 64))
    m.outputs(("out", 16))
    m.net("ctl", 16)
    m.instance("dec", "decoder", clk="clk", instr="instr", ctl="ctl")
    for index in range(4):
        m.net(f"res{index}", 16)
        m.instance(
            f"lane{index}", "lane", clk="clk", vin="vec", res=f"res{index}"
        )
    m.build()
    db.top("top")
    return db.build()


@pytest.fixture
def mini_decomposed(mini_design):
    """The miniature design decomposed (control = decoder)."""
    return decompose(mini_design, control_modules={"decoder"})


@pytest.fixture
def mini_partition(mini_decomposed):
    """Two-iteration partition tree of the miniature accelerator."""
    return partition(mini_decomposed, iterations=2)


@pytest.fixture(scope="session")
def small_accel_config():
    """A 4-tile instance — fast to generate/decompose in tests."""
    return BW_V37.with_tiles(4, name="test-4t")


@pytest.fixture(scope="session")
def small_accel_design(small_accel_config):
    return generate_accelerator(small_accel_config)


@pytest.fixture(scope="session")
def small_accel_decomposed(small_accel_design):
    return decompose(small_accel_design, CONTROL_MODULES)


@pytest.fixture(scope="session")
def gru_small():
    """A tiny GRU with real tensors (hidden=32) plus its input stream."""
    weights = RNNWeights.random("gru", 32, seed=11)
    xs = np.random.default_rng(12).normal(0.0, 0.5, (4, 32))
    return weights, xs


@pytest.fixture(scope="session")
def lstm_small():
    """A tiny LSTM with real tensors (hidden=32) plus its input stream."""
    weights = RNNWeights.random("lstm", 32, seed=21)
    xs = np.random.default_rng(22).normal(0.0, 0.5, (4, 32))
    return weights, xs
