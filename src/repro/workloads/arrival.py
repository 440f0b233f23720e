"""Arrival processes for synthetic workloads.

The paper's second benchmark set arrives "at a random time interval to
emulate the dynamic runtime environment" (Section 4.1).  The Fig. 12
experiment uses Poisson arrivals (:func:`poisson_arrivals`, at a rate that
saturates every system under comparison); the serving and autoscale
benches add the two load shapes a serving edge actually faces:

* :func:`mmpp_arrivals` — a two-state Markov-modulated Poisson process
  (calm/burst), the standard model for bursty cloud traffic;
* :func:`diurnal_arrivals` — a nonhomogeneous Poisson process whose rate
  follows a sinusoidal day/night cycle, generated by thinning.

Every generator is a pure function of its arguments (seeded NumPy
generators), returns strictly ordered absolute arrival times, and keeps
the requested *mean* rate so shapes compare at equal offered load.
"""

from __future__ import annotations

import numpy as np

from ..errors import ReproError


def _check(count: int, rate_per_s: float) -> None:
    if count < 1:
        raise ReproError("need at least one arrival")
    if rate_per_s <= 0:
        raise ReproError("arrival rate must be positive")


def poisson_arrivals(count: int, rate_per_s: float, seed: int = 0) -> list[float]:
    """``count`` arrival times with exponential inter-arrival gaps."""
    _check(count, rate_per_s)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate_per_s, size=count)
    return [float(at) for at in np.cumsum(gaps)]


def mmpp_arrivals(
    count: int,
    rate_per_s: float,
    seed: int = 0,
    burst_ratio: float = 4.0,
    calm_dwell_s: float = 0.5,
    burst_dwell_s: float = 0.125,
) -> list[float]:
    """``count`` arrivals from a two-state MMPP with mean rate ``rate_per_s``.

    The process alternates between a *calm* and a *burst* state with
    exponential dwell times (means ``calm_dwell_s``/``burst_dwell_s``); the
    burst state emits ``burst_ratio`` times the calm rate.  The two state
    rates are solved so the long-run time-weighted mean equals
    ``rate_per_s``, so sweeping shapes holds offered load constant.
    """
    _check(count, rate_per_s)
    if burst_ratio < 1.0:
        raise ReproError("burst_ratio must be >= 1")
    if calm_dwell_s <= 0 or burst_dwell_s <= 0:
        raise ReproError("dwell times must be positive")
    rng = np.random.default_rng(seed)
    calm_rate = (
        rate_per_s
        * (calm_dwell_s + burst_dwell_s)
        / (calm_dwell_s + burst_ratio * burst_dwell_s)
    )
    rates = (calm_rate, burst_ratio * calm_rate)
    dwells = (calm_dwell_s, burst_dwell_s)
    arrivals: list[float] = []
    now = 0.0
    state = 0
    state_end = float(rng.exponential(dwells[state]))
    while len(arrivals) < count:
        gap = float(rng.exponential(1.0 / rates[state]))
        if now + gap < state_end:
            now += gap
            arrivals.append(now)
        else:
            # No arrival before the state switches: advance to the switch
            # and redraw in the new state (memorylessness makes this exact).
            now = state_end
            state = 1 - state
            state_end = now + float(rng.exponential(dwells[state]))
    return arrivals


def diurnal_arrivals(
    count: int,
    rate_per_s: float,
    seed: int = 0,
    period_s: float = 2.0,
    amplitude: float = 0.8,
) -> list[float]:
    """``count`` arrivals whose rate follows a day/night sinusoid.

    A nonhomogeneous Poisson process with
    ``lambda(t) = rate_per_s * (1 + amplitude * sin(2*pi*t / period_s))``
    generated by thinning against the peak rate, so the time-averaged rate
    is ``rate_per_s``.  ``amplitude`` in [0, 1) controls how deep the
    trough is (0 degenerates to a plain Poisson process).
    """
    _check(count, rate_per_s)
    if not 0.0 <= amplitude < 1.0:
        raise ReproError("amplitude must be in [0, 1)")
    if period_s <= 0:
        raise ReproError("period must be positive")
    rng = np.random.default_rng(seed)
    peak = rate_per_s * (1.0 + amplitude)
    arrivals: list[float] = []
    now = 0.0
    while len(arrivals) < count:
        now += float(rng.exponential(1.0 / peak))
        rate_now = rate_per_s * (
            1.0 + amplitude * np.sin(2.0 * np.pi * now / period_s)
        )
        if rng.uniform() * peak <= rate_now:
            arrivals.append(now)
    return arrivals
