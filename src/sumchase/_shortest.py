"""Shortest round-trip text of whole float64 and int64 columns in numpy.

:func:`float_cells` gives each float the bytes of ``repr(float(x))`` and
:func:`int_cells` each integer those of ``str(int(i))``, as the rows of
a uint8 array padded with NUL bytes: dropping the NULs of a row leaves
its text.  The padding may sit inside a row, so a caller can lay cells
side by side in one byte matrix and drop the padding of every row in
one pass.

The digits of a normal float come from Schubfach (Giulietti, "The
Schubfach way to render doubles", 2020), the method behind Java's
``Double.toString``: one 126-bit power of ten per decimal exponent, three
products with the middle and the ends of the float's rounding interval,
each rounded to odd, and a choice among four candidate decimals.  The
products are built from 30-bit limbs held in uint64.  The result is the
shortest decimal inside the rounding interval and, of those, the one
closest to the float, ties to even; Python's ``repr`` (Gay's ``dtoa`` in
its shortest mode) picks the same one.  The infinities, NaN and
subnormals go to ``repr`` one value at a time.

The text follows ``float.__repr__``: ``-`` for a set sign bit (but not
for NaN), plain notation with at least one digit after the point when
the decimal exponent lies in [-4, 16), and ``d.ddde±XX`` otherwise.
"""
from __future__ import annotations

import functools

import numpy as np

#: Bytes per float cell: the sign, the ``0.000`` in front of small
#: numbers, 17 digit slots each but the last followed by a slot for the
#: decimal point, and an exponent (``e-308``).  A narrow cell, for
#: values that all have at most one digit before the point, keeps only
#: the first point slot.
WIDE = 1 + 5 + 17 + 16 + 5
NARROW = WIDE - 15
#: Slots of the digits after the first, in a wide and a narrow cell.
_LATER_DIGITS = {WIDE: slice(8, 39, 2), NARROW: slice(8, 24)}

_U = np.uint64
_M30 = _U((1 << 30) - 1)
_M63 = _U((1 << 63) - 1)
_POW10_9 = _U(10 ** 9)
_SMALLEST_NORMAL = 2.2250738585072014e-308
_LARGEST = 1.7976931348623157e308

#: Decimal exponents k = floor(log10(2**q)) of normal doubles, whose
#: lowest significand bit is worth 2**q for q from -1074 to 971.
_K_MIN, _K_MAX = -324, 292
#: Decimal-point positions of normal doubles: digits ``d1 d2 ...`` stand
#: for ``0.d1d2... * 10**point``.
_POINT_MIN, _POINT_MAX = -307, 309


def _flog10pow2(q):
    """floor(q * log10(2)), exact for |q| <= 5456721."""
    return (q * 661_971_961_083) >> 41


def _flog10_three_quarters_pow2(q):
    """floor(log10(3/4 * 2**q)), exact for |q| <= 5456721."""
    return (q * 661_971_961_083 - 274_743_187_321) >> 41


def _flog2pow10(e):
    """floor(e * log2(10)), exact for |e| <= 1838394."""
    return (e * 913_124_641_741) >> 38


class _Tables:
    """Tables built on first use, in a few milliseconds.

    The first five are indexed by the biased exponent of a double, plus
    2048 when its significand bits are all zero:

    * ``k``: the decimal exponent of the candidates;
    * ``g``: ``floor(10**-k * 2**-r) + 1`` with ``r = flog2pow10(-k) -
      125``, a 126-bit integer, as five 30-bit limbs, least significant
      first, computed from exact Python ints;
    * ``shift``: the shift that lines the significand up with ``g``, so
      that ``g * (c << shift)`` is four times the double's value times
      ``10**-k``, scaled by ``2**127``;
    * ``up`` and ``down``: ``g`` times the distance from four times the
      significand to the ends of the rounding interval, shifted the same
      way, split as :func:`_product` splits a product.  The interval
      reaches two quarters of the lowest bit each way, or one quarter
      down for a power of two other than the smallest normal double.

    ``templates`` holds, for each decimal-point position, the fixed
    bytes of a wide and of a narrow float cell: the ``0.000`` prefix, the
    decimal point, the exponent, and the zeros that plain notation writes
    in the digit slots up to one past the point (``1.0``, ``100.0``).
    """

    def __init__(self) -> None:
        biased = np.arange(4096, dtype=np.int64) % 2048
        q = biased - 1075
        power_of_two = (np.arange(4096) >= 2048) & (biased > 1)
        k = np.where(power_of_two, _flog10_three_quarters_pow2(q),
                     _flog10pow2(q))
        k = np.clip(k, _K_MIN, _K_MAX)
        self.k = k
        h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
        self.shift = h + _U(2)
        powers = [1]
        for _ in range(-_K_MIN):
            powers.append(powers[-1] * 10)
        limbs = []
        for exponent in range(_K_MIN, _K_MAX + 1):
            r = _flog2pow10(-exponent) - 125
            if exponent > 0:
                g = (1 << -r) // powers[exponent] + 1
            elif r < 0:
                g = (powers[-exponent] << -r) + 1
            else:
                g = (powers[-exponent] >> r) + 1
            limbs.append([(g >> shift) & 0x3FFF_FFFF
                          for shift in range(0, 150, 30)])
        by_k = np.array(limbs, dtype=np.uint64).T
        self.g = np.ascontiguousarray(by_k[:, k - _K_MIN])
        lower = np.where(power_of_two, 1, 2).astype(np.uint64)
        self.up = np.stack(_product(self.g, _U(2) << h))
        self.down = np.stack(_product(self.g, lower << h))
        rows = []
        for point in range(_POINT_MIN, _POINT_MAX + 1):
            cell = bytearray(WIDE)
            if -3 <= point <= 0:
                cell[1:3 - point] = b"0." + b"0" * -point
            elif 1 <= point <= 16:
                cell[6:8 + 2 * point:2] = b"0" * (point + 1)
                cell[7 + 2 * (point - 1)] = ord(".")
            else:
                cell[7] = ord(".")
                text = f"e{point - 1:+03d}".encode()
                cell[39:39 + len(text)] = text
            rows.append(bytes(cell))
        wide = np.frombuffer(b"".join(rows), dtype=np.uint8
                             ).reshape(len(rows), WIDE)
        narrow = [slot for slot in range(WIDE)
                  if not (9 <= slot < 39 and slot % 2)]
        self.templates = {WIDE: wide, NARROW: wide[:, narrow].copy()}


@functools.cache
def _get_tables() -> _Tables:
    return _Tables()


def _product(g: np.ndarray, c: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bits 0 to 63, bits 64 to 126 and the bits from 127 up of ``g * c``,
    for ``g`` given as five 30-bit limbs of shape ``(5, n)`` and ``c``
    below ``2**60``."""
    c0 = c & _M30
    c1 = c >> _U(30)
    s30 = _U(30)
    # column t of the product in base 2**30: the partial products
    # g[i] * c[j] with i + j = t and the carry out of column t - 1; two
    # products below 2**60 and a carry add up without overflow
    col = g[0] * c0
    lo = col & _M30
    col >>= s30
    part = g[1] * c0
    col += part
    col += np.multiply(g[0], c1, out=part)
    lo |= (col & _M30) << s30
    col >>= s30
    col += np.multiply(g[2], c0, out=part)
    col += np.multiply(g[1], c1, out=part)
    lo |= col << _U(60)
    hi = col >> _U(4)
    hi &= _U((1 << 26) - 1)
    col >>= s30
    col += np.multiply(g[3], c0, out=part)
    col += np.multiply(g[2], c1, out=part)
    hi |= np.bitwise_and(col, _M30, out=part) << _U(26)
    col >>= s30
    col += np.multiply(g[4], c0, out=part)
    col += np.multiply(g[3], c1, out=part)
    hi |= np.bitwise_and(col, _U(0x7F), out=part) << _U(56)
    top = col >> _U(7)
    top &= _U((1 << 23) - 1)
    col >>= s30
    col += np.multiply(g[4], c1, out=part)
    col <<= _U(23)
    top |= col
    return lo, hi, top


def _shortest(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest decimal ``digits * 10**k`` that reads back as each
    positive normal double of ``x``, closest to it and ties to even.
    ``digits`` has 16 to 18 digits; any past the shortest are zeros.

    Schubfach rounds ``g`` times four times the significand and times
    the two ends of its rounding interval to odd at bit 127: the floor,
    with its lowest bit set when bits 64 to 126 are not all zero.  ``g``
    exceeds the power of ten it stands for by less than one, so that
    excess stays below bit 64, and a product that is exact in exact
    arithmetic still reads as exact.  The ends differ from the middle
    by ``g`` times a power of two that depends only on the exponent, so
    they are the middle product plus or minus a tabled 127-bit number.
    """
    tables = _get_tables()
    bits = x.view(np.uint64)
    fraction = bits & _U((1 << 52) - 1)
    index = (bits >> _U(52)).astype(np.intp)
    index[fraction == 0] += 2048
    k = tables.k.take(index)
    cp = fraction | _U(1 << 52)
    cp <<= tables.shift.take(index)
    lo, hi, top = _product(tables.g.take(index, axis=1), cp)
    vb = top | (hi != 0)
    up_lo, up_hi, up_top = tables.up.take(index, axis=1)
    total = lo + up_lo
    up_hi += hi
    up_hi += total < lo
    vbr = top + up_top
    vbr += up_hi >> _U(63)
    vbr |= (up_hi & _M63) != 0
    down_lo, down_hi, down_top = tables.down.take(index, axis=1)
    hi -= down_hi
    hi -= lo < down_lo
    vbl = top - down_top
    vbl -= hi >> _U(63)
    vbl |= (hi & _M63) != 0
    # an end belongs to the interval when the significand is even
    odd = fraction & _U(1)
    vbl += odd
    vbr -= odd
    # candidates, times four: s and s + 1, and the multiples of ten
    # around them, of which at most one lies in the interval
    s4 = vb & ~_U(3)
    t4 = s4 + _U(4)
    sp40 = vb // _U(40)
    sp40 *= _U(40)
    tp40 = sp40 + _U(40)
    upin = vbl <= sp40
    wpin = tp40 <= vbr
    uin = vbl <= s4
    win = t4 <= vbr
    # s if only s is inside; if both are, the closer, and s on a tie if
    # it is even: the low three bits of vb tell, as vb is odd if inexact
    closer = (_U(0b00110111) >> (vb & _U(7))) & _U(1)
    uin &= ~win | (closer != 0)
    digits = t4 - uin * _U(4)
    # a multiple of ten inside beats both
    upin_only = upin != wpin
    np.copyto(digits, tp40 - upin * _U(40), where=upin_only)
    digits >>= _U(2)
    return digits, k


def _digit_rows(values: np.ndarray, count: int) -> np.ndarray:
    """The last ``count`` decimal digits of uint64 values, as a
    ``(count, len(values))`` uint8 array, most significant row first.
    Pieces of nine digits go through uint32 division together."""
    pieces = -(-count // 9)
    parts = np.empty((pieces, len(values)), dtype=np.uint32)
    rest = values
    for piece in range(pieces - 1, 0, -1):
        high = rest // _POW10_9
        np.subtract(rest, high * _POW10_9, out=parts[piece],
                    casting="unsafe")
        rest = high
    parts[0] = rest
    digits = np.empty((pieces, 9, len(values)), dtype=np.uint8)
    steps = 9 if pieces > 1 else count
    ten = np.uint32(10)
    for pos in range(8, 8 - steps, -1):
        quotient = parts // ten
        np.subtract(parts, quotient * ten, out=digits[:, pos],
                    casting="unsafe")
        parts = quotient
    return digits.reshape(9 * pieces, len(values))[9 * pieces - count:]


def float_cells(values: np.ndarray) -> np.ndarray:
    """The ``repr`` of each float64 of ``values`` as a NUL-padded cell, in
    an array of shape ``values.shape + (width,)``.  The first byte of a
    cell holds its sign, or NUL.  ``width`` is :data:`NARROW`, or
    :data:`WIDE` when a value is written in plain notation with two or
    more digits before the point."""
    tables = _get_tables()
    flat = np.ravel(values)
    x = np.abs(flat)
    # 1.0 stands in for zero, infinity, NaN and subnormals; zero then
    # reads 0.0, and the others go to repr
    stand_in = np.flatnonzero(~((x >= _SMALLEST_NORMAL) & (x <= _LARGEST)))
    zero = stand_in[x[stand_in] == 0]
    fallback = stand_in[x[stand_in] != 0]
    x[stand_in] = 1.0
    digits, k = _shortest(x)
    # exactly 17 digits: an 18-digit result ends in a zero
    short = digits < _U(10 ** 16)
    long = digits >= _U(10 ** 17)
    np.multiply(digits, _U(10), out=digits, where=short)
    np.floor_divide(digits, _U(10), out=digits, where=long)
    row = k + (17 - _POINT_MIN)
    row += long
    row -= short
    width = NARROW
    if np.any((row >= 2 - _POINT_MIN) & (row <= 16 - _POINT_MIN)):
        width = WIDE
    cells = tables.templates[width].take(row, axis=0)
    text = _digit_rows(digits, 17)
    # a digit is written up to the last nonzero one; the template holds
    # the zeros that plain notation writes past it (the 0 of 1.0)
    kept = text != 0
    for pos in range(15, -1, -1):
        kept[pos] |= kept[pos + 1]
    text += ord("0")
    text *= kept
    np.maximum(cells[:, 6], text[0], out=cells[:, 6])
    later = _LATER_DIGITS[width]
    np.maximum(cells[:, later], text[1:].T, out=cells[:, later])
    # the point after the first digit, which exponent notation writes
    # only before a second digit
    cells[:, 7] *= cells[:, 8] != 0
    cells[zero, 6] = ord("0")
    negative = np.signbit(flat) & ~np.isnan(flat)
    np.multiply(negative, ord("-"), out=cells[:, 0], casting="unsafe")
    for pos in fallback.tolist():
        literal = repr(float(flat[pos])).lstrip("-").encode()
        cells[pos, 1:] = 0
        cells[pos, 1:1 + len(literal)] = np.frombuffer(literal,
                                                       dtype=np.uint8)
    return cells.reshape(np.shape(values) + (width,))


def int_cells(values: np.ndarray) -> np.ndarray:
    """The ``str`` of each int64 of ``values`` as a NUL-padded cell, in an
    array of shape ``values.shape + (width,)``: a sign slot if any value
    is negative, then as many digit slots as the largest magnitude has."""
    flat = np.ravel(values).astype(np.int64, copy=False)
    magnitude = flat.astype(np.uint64)
    negative = flat < 0
    signed = bool(negative.any())
    if signed:
        np.negative(magnitude, out=magnitude, where=negative)
    count = len(str(int(magnitude.max()))) if len(flat) else 1
    text = _digit_rows(magnitude, count)
    # leading zeros are padding; the last digit is always written
    kept = text != 0
    kept[-1] = True
    for pos in range(1, count):
        kept[pos] |= kept[pos - 1]
    cells = np.empty((len(flat), signed + count), dtype=np.uint8)
    np.add(text.T, ord("0"), out=cells[:, signed:])
    cells[:, signed:] *= kept.T
    if signed:
        np.multiply(negative, ord("-"), out=cells[:, 0], casting="unsafe")
    return cells.reshape(np.shape(values) + (-1,))
