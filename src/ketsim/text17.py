"""The text of ``'%.17g' % v`` for every value of a float64 array, in bulk.

For finite v with 1e-11 <= |v| < 10, ``%.17g`` writes the 17 significant
digits D = round_half_even(|v| * 10**(16 - k)), k = floor(log10 |v|), with
trailing zeros cut, as "d.ddd" (k = 0), "0.00ddd" (-4 <= k < 0) or
"d.ddde-XX" (k < -4).  With |v| = m * 2**e (m < 2**53) and s = 16 - k <= 27,
D is m * 5**s shifted right by -(e + s) bits and rounded.  m * 5**s < 2**116
is formed exactly from 32-bit halves in two uint64 words, so D is exact.
Zeros are written in bulk too; every other value (NaN, ±inf, |v| < 1e-11,
|v| >= 10) goes through ``%`` one at a time.

Each value is one row of a NUL-padded byte matrix: ``LEFT`` columns for the
caller, the sign, the "0.000" prefix, the lead digit, the point, 16 digits,
the "e-XX" suffix, and one last column for the caller.  A row's constant
bytes come from one gather of a template by class (sign, exponent, point);
dropping the NULs joins the rows into text.
"""

from __future__ import annotations

import numpy as np

#: Columns before each value's text, left zero for the caller.
LEFT = 3

_KMIN = -11  # the exact range's smallest decimal exponent; 5**(16 - _KMIN) < 2**64
_LEAD = LEFT + 6  # after the sign and "0.000"
_WIDTH = _LEAD + 2 + 16 + 4 + 1
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_POW5 = np.array([5**s for s in range(17 - _KMIN)], dtype=np.uint64)
_POW5_HI, _POW5_LO = _POW5 >> _U64(32), _POW5 & _LOW32
_ASCII_ZEROS = _U64(int.from_bytes(b"0" * 8, "little"))
# _LOW_BYTES[c]: a mask of the first c bytes of a little-endian uint64
_LOW_BYTES = np.array([(1 << 8 * c) - 1 for c in range(9)], dtype=np.uint64)


def _four_digit_texts() -> np.ndarray:
    """The text of 0000 to 9999, four bytes each, from the 100 two-digit texts."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint16)
    table = np.empty((100, 100, 2), dtype=np.uint16)
    table[:, :, 0], table[:, :, 1] = pairs[:, None], pairs
    return table.view(np.uint32).reshape(-1)


_DIGITS4 = _four_digit_texts()


def _class(k, point, negative):
    """The template row of a value in the exact range."""
    return 3 + ((k - _KMIN) * 2 + point) * 2 + negative


def _templates() -> np.ndarray:
    """Row 0: other values (no bytes); rows 1, 2: 0 and -0; then one row per
    ``_class`` of a value in the exact range."""
    rows = np.zeros((3 + (1 - _KMIN) * 4, _WIDTH), dtype=np.uint8)

    def put(row, column, text: bytes):
        row[column : column + len(text)] = np.frombuffer(text, dtype=np.uint8)

    put(rows[1], LEFT, b"0")
    put(rows[2], LEFT, b"-0")
    for k in range(_KMIN, 1):
        for point in (0, 1):
            for negative in (0, 1):
                row = rows[_class(k, point, negative)]
                put(row, LEFT, b"-" if negative else b"")
                if -4 <= k < 0:
                    put(row, LEFT + 1, b"0." + b"0" * (-k - 1))
                elif point:
                    put(row, _LEAD + 1, b".")
                if k < -4:
                    put(row, _WIDTH - 5, b"e-%02d" % -k)
    return rows


_TEMPLATES = _templates()


def _scaled(m: np.ndarray, e: np.ndarray, k: np.ndarray):
    """floor(2 * m * 2**e * 10**(16 - k)), and whether it is exact, for
    integers m < 2**53, _KMIN <= k <= 0 and a shift k - 17 - e in [1, 63]:
    for 1e-11 <= m * 2**e < 10 and k = floor(log10) of it, or one off, the
    shift is 30 to 62."""
    # in place where it can be: float_rows runs ~17 % faster, same peak RSS
    s = 16 - k
    shift = (k - 17 - e).astype(np.uint64)  # one bit short: keep the half
    m_hi, m_lo = m >> _U64(32), m & _LOW32
    p = np.take(_POW5_LO, s)
    low = m_lo * p
    mid = m_hi * p
    np.take(_POW5_HI, s, out=p)
    m_lo *= p
    mid += m_lo
    high = m_hi
    high *= p
    low64 = m_lo
    np.add(low, mid << _U64(32), out=low64)
    high += mid >> _U64(32)
    high += low64 < low  # the carry out of the low word
    doubled = low64 >> shift
    doubled |= high << (_U64(64) - shift)
    below = (_U64(1) << shift) - _U64(1)
    below &= low64
    return doubled, below == 0


def float_rows(x: np.ndarray) -> np.ndarray:
    """The ``%.17g`` texts of a contiguous float64 array as the rows of a
    NUL-padded uint8 matrix, with the first ``LEFT`` columns and the last
    one left zero for the caller."""
    bits = x.view(np.uint64)
    with np.errstate(divide="ignore", invalid="ignore"):
        guess = np.floor(np.log10(np.abs(x)))  # -inf at zeros, nan at nan
    zero = guess == -np.inf
    exact_range = (guess >= _KMIN) & (guess <= 0)
    k = np.where(exact_range, guess, 0).astype(np.int64)
    del guess
    e = (bits >> _U64(52) & _U64(0x7FF)).astype(np.int64) - 1075
    m = bits & _U64((1 << 52) - 1) | _U64(1 << 52)
    doubled, exact = _scaled(m, e, k)
    # log10 can be one off next to a power of ten: the truncated quotient
    # then has 16 or 18 digits, and k moves by one
    low, high = _U64(2 * 10**16), _U64(2 * 10**17)
    step = (doubled >= high).astype(np.int64) - (doubled < low)
    redo = np.flatnonzero(exact_range & (step != 0))
    if redo.size:
        k[redo] += step[redo]
        exact_range[redo] = (k[redo] >= _KMIN) & (k[redo] <= 0)
        k[redo[~exact_range[redo]]] = 0
        doubled[redo], exact[redo] = _scaled(m[redo], e[redo], k[redo])
        exact_range[redo] &= (doubled[redo] >= low) & (doubled[redo] < high)
    del m, e
    digits = doubled + _U64(1)
    digits >>= _U64(1)
    digits -= (doubled & digits & _U64(1)).astype(bool) & exact  # a tie to even
    del doubled, exact
    # no double from 1e-11 to 10 rounds up to a power of ten at 17 digits;
    # one that did would go through ``%``
    exact_range &= digits < _U64(10**17)
    digits[~exact_range] = 0
    # the lead digit, then digits 1-8 and 9-16 as the bytes of one uint64 each
    top = digits // _U64(10**8)
    lead = top // _U64(10**8)
    eights = np.empty((x.size, 2), dtype=np.uint32)
    eights[:, 0] = top - lead * _U64(10**8)
    eights[:, 1] = digits - top * _U64(10**8)
    fours = np.empty((x.size, 4), dtype=np.uint32)
    fours[:, 0::2] = eights // np.uint32(10**4)
    fours[:, 1::2] = eights - fours[:, 0::2] * np.uint32(10**4)
    text = np.take(_DIGITS4, fours).view("<u8")  # the first digit in the low byte
    # the bytes of each word up to its last nonzero digit, by the bit length
    # of the word less "00000000"; all eight of the first if the second has any
    kept = (np.frexp((text - _ASCII_ZEROS).astype(np.float64))[1] + 7) // 8
    kept[:, 0][kept[:, 1] > 0] = 8
    text &= np.take(_LOW_BYTES, kept)
    negative = np.signbit(x)
    kind = np.where(
        exact_range,
        _class(k, kept[:, 0] > 0, negative),
        np.where(zero, 1 + negative, 0),
    )
    rows = np.take(_TEMPLATES, kind, axis=0)
    rows[:, _LEAD] = np.where(exact_range, lead + _U64(ord("0")), 0)
    rows[:, _LEAD + 2 : _LEAD + 18] = text.view(np.uint8)
    other = np.flatnonzero(kind == 0)
    if other.size:
        texts = np.array(["%.17g" % v for v in x[other].tolist()], dtype="S24")
        rows[other, LEFT : LEFT + 24] = texts.view(np.uint8).reshape(-1, 24)
    return rows
