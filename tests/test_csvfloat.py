"""The vectorised CSV renderer writes exactly the bytes format(x, ".15e") writes."""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quadsim._csvfloat import render_rows

POWERS = range(-300, 301)


def per_value(table: np.ndarray) -> bytes:
    """Reference: each value rendered on its own by format()."""
    return "".join(
        ",".join(format(x, ".15e") for x in row) + "\n" for row in table.tolist()
    ).encode()


def assert_renders(table) -> None:
    table = np.asarray(table, dtype=float)
    got, want = render_rows(table), per_value(table)
    if got != want:
        wrong = [(g, w) for g, w in zip(got.split(b"\n"), want.split(b"\n")) if g != w]
        pytest.fail(f"{len(wrong)} rows differ, the first: {wrong[:3]}")


@given(st.lists(st.floats(), min_size=1, max_size=40), st.booleans())
def test_any_float(values, as_row):
    # floats() draws zeros, subnormals, inf, nan and the extremes too
    assert_renders(np.reshape(values, (1, -1) if as_row else (-1, 1)))


SPECIALS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    np.inf,
    -np.inf,
    np.nan,
    1e300,
    -1e-300,
    1.7976931348623157e308,
    -1.7976931348623157e308,
]


def test_special_values_in_rows_with_fast_path_values():
    fast = [1.5, -0.25, 2.85e-3, -123456.789]
    values = [v for pair in zip(SPECIALS, fast * 3) for v in pair]
    assert_renders(np.reshape(values, (-1, 4)))
    assert render_rows(np.array([[-0.0, 1.0, np.nan]])) == (
        b"-0.000000000000000e+00,1.000000000000000e+00,nan\n"
    )


def test_powers_of_ten_and_their_neighbours():
    tens = np.array([float(f"1e{k}") for k in POWERS])
    below = np.nextafter(tens, 0)
    table = np.column_stack([np.nextafter(below, 0), below, tens, np.nextafter(tens, np.inf)])
    assert_renders(table)
    assert_renders(-table)
    # values below 10^k that round up to 1.000000000000000e(k), from 3-digit
    # exponents to 1: the set covers the carry
    carries = [
        x
        for k, row in zip(POWERS, table.tolist())
        for x in row
        if Fraction(x) < Fraction(10) ** k and format(x, ".15e").startswith("1.000000000000000e")
    ]
    assert len(carries) > 100 and min(carries) < 1e-100 and max(carries) > 1e100


def exact_ties() -> list[float]:
    """Doubles whose exact decimal has 17 significant digits, the last a 5:
    halfway between two 16-digit values.  m * 2^-j with m odd has the digits
    of m * 5^j, so m * 5^j must have 17 digits and m < 2^53."""
    ties = [2113662973114085.5]
    for j in range(1, 25):
        lo = -(-(10**16) // 5**j)
        hi = min(10**17 // 5**j, 2**53) - 1
        for m in {lo, hi, (lo + hi) // 2, lo + (hi - lo) // 7, lo + 3 * (hi - lo) // 5}:
            m |= 1
            if m <= hi:
                ties.append(m / 2**j)
    for x in ties:
        digits = Decimal(x).as_tuple().digits
        assert len(digits) == 17 and digits[-1] == 5, x
    return ties


def test_exact_decimal_ties():
    ties = exact_ties()
    assert len(ties) > 80
    assert_renders(np.reshape(ties + [-t for t in ties], (-1, 1)))


def test_bits_spread_over_every_exponent():
    # random 64-bit patterns: every exponent and sign, a few nan and inf
    bits = np.random.default_rng(8).integers(0, 2**64, size=20_000, dtype=np.uint64)
    assert_renders(bits.view(np.float64).reshape(-1, 8))


@pytest.mark.parametrize("shift", [-1.0, 1.0])
def test_wrong_exponent_estimate_takes_the_fallback(monkeypatch, shift):
    # E is only an estimate: one too low or too high, y leaves [10^15, 10^16)
    # and every value must be written by the fallback, with the same bytes
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + shift)
    values = np.random.default_rng(9).standard_normal(60) * 10.0 ** np.arange(-30, 30)
    assert_renders(np.reshape(values, (-1, 6)))
