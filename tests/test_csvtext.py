"""The CSV table kernel writes every value byte for byte as ``'%.17g'``."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from todalab.simulate.csvtext import csv_text


def percent_loop(header, table):
    """The reference: one ``%`` row per line."""
    row = ",".join(["%.17g"] * table.shape[1])
    return "\n".join([header] + [row % tuple(r) for r in table.tolist()]) + "\n"


def _ulps(x):
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


def _near_ties():
    """Doubles x = m 2**(f + t) whose 17-digit scaled value x / 10**t is
    k + 1/2 +- 1/(2 5**t), from 0.1 to 2**-52 off a half; the kernel leaves
    those within 2**-40 of it to '%.17g'."""
    ties = []
    for t in range(1, 23):
        p = 5**t
        f = (10**16 * p).bit_length() - 52
        for r in ((p - 1) // 2, (p + 1) // 2):
            k = 10**16 + (-(10**16 * p + r) * pow(p, -1, 2**f)) % 2**f  # 2**f divides k p + r
            m = (k * p + r) >> f
            if m < 2**53:
                ties.append(math.ldexp(m, f + t))
    return ties


NAMED = {
    "zeros": [0.0, -0.0],
    "smallest subnormal": [5e-324, -5e-324],
    "smallest normal": [2.2250738585072014e-308, -2.2250738585072014e-308],
    "largest double": [1.7976931348623157e308, -1.7976931348623157e308],
    "powers of two": [2.0**k for k in range(-1074, 1024)],
    "powers of ten and their neighbours": [v for k in range(-307, 309) for v in _ulps(float(f"1e{k}"))],
    "the tie 2**-25": [2.0**-25, -(2.0**-25), 3 * 2.0**-25],
    "near ties": _near_ties(),
    "fixed to exponent below": _ulps(1e-5) + _ulps(1e-4),
    "fixed to exponent above": _ulps(1e16) + _ulps(1e17),
    "not finite": [np.nan, np.inf, -np.inf],
}


@pytest.mark.parametrize("values", NAMED.values(), ids=NAMED.keys())
def test_named_values_are_written_as_percent_writes_them(values):
    table = np.array(values, dtype=np.float64).reshape(-1, 1)
    assert csv_text("v", table) == percent_loop("v", table)
    assert csv_text("v", table.reshape(1, -1)) == percent_loop("v", table.reshape(1, -1))


def test_every_value_of_a_field_table_keeps_its_bytes():
    """Field-like rows: fixed and exponent notation, trailing zeros, grid
    coordinates with three decimals, and a zero column."""
    rng = np.random.default_rng(7)
    x = np.round(np.linspace(-40.0, 40.0, 3201), 3)
    rows = np.vstack([np.exp(-np.abs(x) * rng.uniform(0.1, 2.0)) * rng.standard_normal() for _ in range(20)])
    rows[:, 5] = 0.0
    times = np.arange(20) * 0.0125
    table = np.column_stack([times, rows])
    assert csv_text("t,x", times, rows) == percent_loop("t,x", table)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    hnp.arrays(np.uint64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40), elements=st.integers(0, 2**64 - 1))
)
def test_tables_of_raw_bit_patterns_give_the_text_of_the_percent_loop(bits):
    table = bits.view(np.float64)
    assert csv_text("h", table) == percent_loop("h", table)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=40), elements=st.floats()))
def test_tables_of_floats_give_the_text_of_the_percent_loop(table):
    assert csv_text("h", table) == percent_loop("h", table)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=30), elements=st.floats(-1e6, 1e6)))
def test_a_first_column_and_a_block_of_columns_give_the_stacked_table(rest):
    first = np.arange(len(rest)) * 0.1
    assert csv_text("h", first, rest) == percent_loop("h", np.column_stack([first, rest]))


def test_formatting_a_snapshot_table_holds_its_text_once():
    """49 rows of 3 203 values, the shape of a defect sweep's snapshots:
    the blocks are small and the text is grown in place, not joined."""
    rng = np.random.default_rng(3)
    times, rows = np.arange(49) * 0.0125, rng.standard_normal((49, 3202))
    csv_text("t", times[:1], rows[:1])  # the tables are built on the first call
    tracemalloc.start()
    try:
        text = csv_text("t", times, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(text) + 2**20
