"""The numpy text kernel of traces against ``repr`` and ``str``."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sumchase import _shortest
from sumchase._shortest import float_cells, int_cells


def _texts(cells: np.ndarray) -> list[str]:
    rows = cells.reshape(-1, cells.shape[-1])
    return [bytes(row[row != 0]).decode("ascii") for row in rows]


def _assert_repr(values) -> None:
    values = np.asarray(values, dtype=np.float64)
    assert _texts(float_cells(values)) == [repr(v) for v in values.tolist()]


def _from_bits(patterns) -> np.ndarray:
    return np.array(patterns, dtype=np.uint64).view(np.float64)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_kernel_equals_repr_on_any_bit_pattern(patterns):
    # bit patterns reach every exponent: subnormals, huge values, NaNs
    _assert_repr(_from_bits(patterns))


def test_kernel_equals_repr_on_random_doubles_of_every_exponent():
    rng = np.random.default_rng(2024)
    patterns = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64)
    _assert_repr(_from_bits(patterns))


def test_every_power_of_two():
    # a power of two has a rounding interval that reaches half as far down
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    _assert_repr(powers)
    _assert_repr(-powers)


def _just_below(value: float, steps: int) -> list[float]:
    out = [value]
    for _ in range(steps):
        out.append(math.nextafter(out[-1], 0.0))
    return out


@pytest.mark.parametrize("value", [
    5e-324, 1e-323, 2.0 ** -1022, 2.0 ** 1023, 1.7976931348623157e308,
    1e16, 1e-4, 1e23, 1e22, 9007199254740993.0, 0.1, 1 / 3, 1.0, 2.5,
    100.0, 123456789012345.6, 0.0, math.inf, math.nan,
], ids=str)
def test_edge_values_and_their_neighbours(value):
    # the switches to exponent notation sit at 1e-4 and 1e16
    near = _just_below(value, 4) if value and math.isfinite(value) else [
        value]
    _assert_repr(near + [-v for v in near])


def test_exact_ties_round_half_even():
    # v = c * 2**-10 with c = 2**5 * odd and v near 2**41 lies exactly
    # halfway between two 17-digit decimals 1e-4 apart
    rng = np.random.default_rng(5)
    odd = rng.integers(2 ** 46, 2 ** 47, 5_000) | 1
    values = np.ldexp((odd << 5).astype(np.float64), -10)
    ties = [v for v in values.tolist()
            if (Fraction(v) * 10 ** 4).denominator == 2]
    assert len(ties) == len(values)
    _assert_repr(values)


def test_layout_of_a_matrix_of_mixed_values():
    values = np.array([[1.0, -0.0, 1e-5, 12.5],
                       [1e16, 0.00012, -3.25e-300, np.nan]])
    cells = float_cells(values)
    assert cells.shape == values.shape + (_shortest.WIDE,)
    assert _texts(cells) == [repr(v) for v in values.ravel().tolist()]
    # with at most one digit before the point every value fits a narrow
    # cell, and its first byte is the sign
    narrow = float_cells(np.array([-0.5, 2.0, 1e100]))
    assert narrow.shape == (3, _shortest.NARROW)
    assert narrow[:, 0].tolist() == [ord("-"), 0, 0]


@pytest.mark.parametrize("values", [
    [0, 1, 9, 10, 99, 100, 1234567],
    [2 ** 63 - 1, 10 ** 18, 10 ** 18 - 1, 0],
    [-(2 ** 63), -1, 0, 7, 2 ** 63 - 1],
    list(range(1990, 2011)),
], ids=["small", "nineteen-digits", "signed", "steps"])
def test_int_cells_write_str(values):
    array = np.array(values, dtype=np.int64)
    cells = int_cells(array)
    assert _texts(cells) == [str(v) for v in values]
    assert cells.shape[-1] == max(len(str(v)) for v in values)


def _floor_log(base: int, x: Fraction) -> int:
    """floor(log(x) / log(base)) in exact arithmetic."""
    k = math.floor(math.log(x.numerator, base)
                   - math.log(x.denominator, base))
    while Fraction(base) ** k > x:
        k -= 1
    while Fraction(base) ** (k + 1) <= x:
        k += 1
    return k


def test_exponent_helpers_are_exact_over_their_range():
    for q in range(-1080, 980):
        power = Fraction(2) ** q
        assert _shortest._flog10pow2(q) == _floor_log(10, power)
        assert (_shortest._flog10_three_quarters_pow2(q)
                == _floor_log(10, Fraction(3, 4) * power))
    for e in range(-330, 330):
        assert _shortest._flog2pow10(e) == _floor_log(2, Fraction(10) ** e)


def test_tables_keep_products_inside_their_limbs():
    tables = _shortest._get_tables()
    normal = np.r_[1:2047, 2048 + 1:2048 + 2047]
    # four times a 53-bit significand, shifted, stays below 2**60
    assert tables.shift[normal].max() <= 7
    assert tables.g.max() < 2 ** 30
