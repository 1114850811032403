"""Frequency measurement and diagnostic bookkeeping."""

import numpy as np
import pytest

from todalab.errors import ValidationError
from todalab.simulate import (
    Grid1D,
    KleinGordon,
    diagnostics,
    init_vacuum,
    measure_frequency,
    periodic_line,
)


def test_pure_tone_frequency():
    dt = 0.01
    t = dt * np.arange(20000)
    series = np.cos(0.8 * t + 0.3)
    omega = measure_frequency(series, dt)
    assert omega == pytest.approx(0.8, rel=5e-4)


def test_tone_with_offset_and_noise():
    rng = np.random.default_rng(0)
    dt = 0.02
    t = dt * np.arange(8192)
    series = 1.5 + np.cos(1.3 * t) + 0.01 * rng.normal(size=len(t))
    assert measure_frequency(series, dt) == pytest.approx(1.3, rel=1e-3)


def test_two_tone_rejected_when_isolation_requested():
    dt = 0.01
    t = dt * np.arange(16384)
    series = np.cos(0.8 * t) + 0.9 * np.cos(1.7 * t)
    # without the flag the dominant peak is returned
    omega = measure_frequency(series, dt)
    assert omega == pytest.approx(0.8, rel=1e-2)
    with pytest.raises(ValidationError, match="second comparable tone"):
        measure_frequency(series, dt, require_isolated=True)


def test_too_few_periods_rejected():
    dt = 0.01
    t = dt * np.arange(2000)  # 20 time units = 2.5 periods of 0.8
    series = np.cos(0.8 * t)
    with pytest.raises(ValidationError, match="periods"):
        measure_frequency(series, dt, min_periods=8.0)


def test_noise_floor_rejected():
    rng = np.random.default_rng(3)
    series = rng.normal(size=4096)
    with pytest.raises(ValidationError, match="noise floor"):
        measure_frequency(series, 0.01)


def test_vacuum_diagnostics_are_zero():
    geom = periodic_line(Grid1D(0.0, 10.0, 50))
    model = KleinGordon(m=1.0)
    d = diagnostics(init_vacuum(geom, model), model, geom, probes=(2.0, 5.0))
    assert d.energy == 0.0
    assert d.momentum == 0.0
    assert d.p_plus_u == 0.0
    assert d.probes == (0.0, 0.0)
