"""The number text of ketsim's output: ``'%.{P}g' % v`` for every value of a
float64 array, in bulk, for P = 17 significant digits (the JSON numbers) or
P = 6 (the ket), and the complex pairs, factor objects and kets laid out on it.

For finite v with 10**KMIN <= |v| < 10, ``%.{P}g`` writes the P significant
digits D = round_half_even(|v| * 10**(P - 1 - k)), k = floor(log10 |v|),
with trailing zeros cut, as "d.ddd" (k = 0), "0.00ddd" (-4 <= k < 0) or
"d.ddde-XX" (k < -4).  With |v| = m * 2**e (m < 2**53) and s = P - 1 - k,
D is m * 5**s shifted right by -(e + s) bits and rounded.  m * 5**s is
formed exactly from 32-bit halves in two uint64 words, so D is exact, and
the shift stays within one word: KMIN is -11 at 17 digits and -7 at 6.
When D rounds up a decade (0.9999995 at 6 digits), D and k carry, and the
notation follows the carried k (9.999995e-05 prints as 0.0001).  Zeros are
written in bulk too; every other value (NaN, ±inf, |v| < 10**KMIN, values
that round up to 10 or more) goes through ``%`` one at a time.

Each value is one row of a NUL-padded byte matrix: ``_LEFT`` columns for the
caller, the sign, the "0.000" prefix, the lead digit, the point, the other
P - 1 digits in 8-digit words, the "e-XX" suffix, and one last column for
the caller.  A row's constant bytes come from one gather of a template by
class (sign, exponent, point); dropping the NULs joins the rows into text.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

import numpy as np

#: Columns before each value's text, left zero for the caller.
_LEFT = 3

_LEAD = _LEFT + 6  # after the sign and "0.000"
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_POW5 = np.array([5**s for s in range(28)], dtype=np.uint64)  # 5**27 < 2**64
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


class _Format(NamedTuple):
    kmin: int  # the exact range's smallest decimal exponent
    words: int  # 8-digit words after the lead digit
    width: int  # columns of a row
    templates: np.ndarray


def _class(k, point, negative, kmin: int):
    """The template row of a value in the exact range."""
    return 3 + ((k - kmin) * 2 + point) * 2 + negative


def _format(digits: int, kmin: int) -> _Format:
    """Row 0 of the templates: other values (no bytes); rows 1, 2: 0 and -0;
    then one row per ``_class`` of a value in the exact range."""
    words = -(-(digits - 1) // 8)
    width = _LEAD + 2 + 8 * words + 4 + 1
    rows = np.zeros((3 + (1 - kmin) * 4, width), dtype=np.uint8)

    def put(row, column, text: bytes):
        row[column : column + len(text)] = np.frombuffer(text, dtype=np.uint8)

    put(rows[1], _LEFT, b"0")
    put(rows[2], _LEFT, b"-0")
    for k in range(kmin, 1):
        for point in (0, 1):
            for negative in (0, 1):
                row = rows[_class(k, point, negative, kmin)]
                put(row, _LEFT, b"-" if negative else b"")
                if -4 <= k < 0:
                    put(row, _LEFT + 1, b"0." + b"0" * (-k - 1))
                elif point:
                    put(row, _LEAD + 1, b".")
                if k < -4:
                    put(row, width - 5, b"e-%02d" % -k)
    return _Format(kmin, words, width, rows)


# the smallest k that keeps _scaled within its words: at 17 digits 5**(16 - k)
# < 2**64; at 6 digits a value just under 10**k shifts by 63 bits (64 at k - 1)
_FORMATS = {6: _format(6, -7), 17: _format(17, -11)}


def _scaled(m: np.ndarray, e: np.ndarray, k: np.ndarray, digits: int):
    """floor(2 * m * 2**e * 10**(digits - 1 - k)), and whether it is exact,
    for integers m < 2**53, 0 <= digits - 1 - k <= 27 and a shift
    k - digits - e in [1, 63]: for 10**kmin <= m * 2**e < 10 and
    k = floor(log10) of it, or one off, the shift is 30 to 63."""
    # in place where it can be: float_rows runs ~17 % faster, same peak RSS
    s = digits - 1 - k
    shift = (k - digits - e).astype(np.uint64)  # one bit short: keep the half
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


def float_rows(x: np.ndarray, digits: int = 17) -> np.ndarray:
    """The ``%.{digits}g`` texts, for ``digits`` 6 or 17, of a contiguous
    float64 array as the rows of a NUL-padded uint8 matrix, with the first
    ``_LEFT`` columns and the last one left zero for the caller."""
    fmt = _FORMATS[digits]
    bits = x.view(np.uint64)
    with np.errstate(divide="ignore", invalid="ignore"):
        guess = np.floor(np.log10(np.abs(x)))  # -inf at zeros, nan at nan
    zero = guess == -np.inf
    exact_range = (guess >= fmt.kmin) & (guess <= 0)
    k = np.where(exact_range, guess, 0).astype(np.int64)
    del guess
    e = (bits >> _U64(52) & _U64(0x7FF)).astype(np.int64) - 1075
    m = bits & _U64((1 << 52) - 1) | _U64(1 << 52)
    doubled, exact = _scaled(m, e, k, digits)
    # log10 can be one off next to a power of ten: the truncated quotient
    # then has one digit too few or too many, and k moves by one
    low, high = _U64(2 * 10 ** (digits - 1)), _U64(2 * 10**digits)
    step = (doubled >= high).astype(np.int64) - (doubled < low)
    redo = np.flatnonzero(exact_range & (step != 0))
    if redo.size:
        k[redo] += step[redo]
        exact_range[redo] = (k[redo] >= fmt.kmin) & (k[redo] <= 0)
        k[redo[~exact_range[redo]]] = 0
        doubled[redo], exact[redo] = _scaled(m[redo], e[redo], k[redo], digits)
        exact_range[redo] &= (doubled[redo] >= low) & (doubled[redo] < high)
    del m, e
    rounded = doubled + _U64(1)
    rounded >>= _U64(1)
    rounded -= (doubled & rounded & _U64(1)).astype(bool) & exact  # a tie to even
    del doubled, exact
    # digits that round up a decade carry into k: 0.9999995 is 1 at 6 digits
    carry = rounded == _U64(10**digits)
    rounded -= carry * _U64(9 * 10 ** (digits - 1))
    k += carry
    exact_range &= k <= 0
    rounded[~exact_range] = 0
    # the lead digit, then the other digits, zero-filled to whole 8-digit
    # words, as the bytes of one uint64 per word
    lead = rounded // _U64(10 ** (digits - 1))
    rest = rounded - lead * _U64(10 ** (digits - 1))
    rest *= _U64(10 ** (8 * fmt.words - digits + 1))
    eights = np.empty((x.size, fmt.words), dtype=np.uint32)
    for word in range(fmt.words - 1, 0, -1):
        top = rest // _U64(10**8)
        eights[:, word] = rest - top * _U64(10**8)
        rest = top
    eights[:, 0] = rest
    fours = np.empty((x.size, 2 * fmt.words), dtype=np.uint32)
    fours[:, 0::2] = eights // np.uint32(10**4)
    fours[:, 1::2] = eights - fours[:, 0::2] * np.uint32(10**4)
    text = np.take(_DIGITS4, fours).view("<u8")  # the first digit in the low byte
    # the bytes of each word up to its last nonzero digit, by the bit length
    # of the word less "00000000"; all eight of a word if a later one has any
    kept = (np.frexp((text - _ASCII_ZEROS).astype(np.float64))[1] + 7) // 8
    for word in range(fmt.words - 2, -1, -1):
        kept[:, word][kept[:, word + 1] > 0] = 8
    text &= np.take(_LOW_BYTES, kept)
    negative = np.signbit(x)
    kind = np.where(
        exact_range,
        _class(k, kept[:, 0] > 0, negative, fmt.kmin),
        np.where(zero, 1 + negative, 0),
    )
    rows = np.take(fmt.templates, kind, axis=0)
    rows[:, _LEAD] = np.where(exact_range, lead + _U64(ord("0")), 0)
    rows[:, _LEAD + 2 : _LEAD + 2 + 8 * fmt.words] = text.view(np.uint8)
    other = np.flatnonzero(kind == 0)
    if other.size:
        size = fmt.width - _LEFT - 1
        texts = np.array([f"%.{digits}g" % v for v in x[other].tolist()], dtype=f"S{size}")
        rows[other, _LEFT : _LEFT + size] = texts.view(np.uint8).reshape(-1, size)
    return rows


# Ket-rendering cutoff: terms with |amplitude| below this are omitted.
RENDER_EPS = 1e-9

#: Amplitudes per rendered chunk: of a ket, and of a complex array's
#: ``[re, im]`` pairs in the JSON output.
KET_CHUNK = 1 << 12

#: Two-level factors per rendered chunk of a ``decompose`` document.  A
#: block is at most 2x2, so no chunk formats more than ``KET_CHUNK`` pairs.
FACTOR_CHUNK = KET_CHUNK // 4


def _rows_text(rows: np.ndarray) -> str:
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def ket_chunks(s) -> Iterator[str]:
    """The text of :func:`~ketsim.state.format_ket` of ``s`` in consecutive pieces.

    Each piece holds the kept terms of ``KET_CHUNK`` amplitudes, one term
    per row of a NUL-padded byte matrix: the separator ("+ ", "- ", or "+ ("
    before a complex amplitude), the first part's 6-digit text (the real
    part, or the modulus of a pure real or imaginary amplitude) from
    :func:`float_rows`, then a complex amplitude's signed imaginary part,
    "i", ")", "|", the basis label, ">" and the space before the next term.
    Dropping the NULs gives the text.
    """
    amps = s.amplitudes
    width = max(s.num_qubits, 1)  # a 0-qubit state's label is "0"
    first = True
    for start in range(0, amps.size, KET_CHUNK):
        block = amps[start : start + KET_CHUNK]
        index = np.flatnonzero(np.abs(block) >= RENDER_EPS)
        if not index.size:
            continue
        re, im = block.real[index], block.imag[index]
        real = np.abs(im) < RENDER_EPS
        mixed = ~real & (np.abs(re) >= RENDER_EPS)
        part = np.where(real, re, im)
        values = np.stack([np.where(mixed, re, np.abs(part)), im], axis=1)
        texts = float_rows(values.reshape(-1), 6).reshape(index.size, -1)
        half = texts.shape[1] // 2  # the columns of one part's text
        rows = np.empty((index.size, 2 * half + width + 4), dtype=np.uint8)
        rows[:, : 2 * half] = texts
        rows[:, half : 2 * half] *= mixed[:, None]  # an imaginary part for "%+.6gi"
        rows[:, _LEFT - 3] = np.where(~mixed & (part < 0), ord("-"), ord("+"))
        rows[:, _LEFT - 2] = ord(" ")
        rows[:, _LEFT - 1] = mixed * ord("(")
        rows[:, half + _LEFT - 1] = (mixed & ~np.signbit(im)) * ord("+")
        rows[:, 2 * half - 1] = ~real * ord("i")
        rows[:, 2 * half] = mixed * ord(")")
        rows[:, 2 * half + 1] = ord("|")
        # labels: the low ``width`` bits of each big-endian uint64 index
        octets = (index + start).astype(">u8").view(np.uint8).reshape(-1, 8)
        bits = np.unpackbits(octets, axis=1)[:, 64 - width :]
        np.add(bits, ord("0"), out=rows[:, -2 - width : -2])
        rows[:, -2:] = ord(">"), ord(" ")
        rows[-1, -1] = 0
        if first:  # the leading term carries only a minus sign
            rows[0, _LEFT - 3 : _LEFT - 1] = (rows[0, _LEFT - 3] == ord("-")) * ord("-"), 0
        else:
            yield " "
        first = False
        yield _rows_text(rows)
    if first:
        yield "0"


def _pair_rows(parts: np.ndarray) -> np.ndarray:
    """The rows of ``, [re, im]`` over a contiguous float64 array of
    alternate real and imaginary parts."""
    rows = float_rows(parts)
    rows[0::2, _LEFT - 3 : _LEFT] = np.frombuffer(b", [", dtype=np.uint8)
    rows[1::2, _LEFT - 2 : _LEFT] = np.frombuffer(b", ", dtype=np.uint8)
    rows[1::2, -1] = ord("]")
    return rows


def pairs_text(a: np.ndarray) -> str:
    """``[re, im], ...`` over the entries of a complex array, in C order."""
    rows = _pair_rows(np.ascontiguousarray(a).reshape(-1).view(np.float64))
    rows[:1, : _LEFT - 1] = 0  # no ", " before the first pair
    return _rows_text(rows)


def _digit_columns(values: np.ndarray) -> np.ndarray:
    """The decimal texts of a nonnegative int64 array (a table's supports)
    as the rows of a NUL-padded uint8 matrix, the digits right-aligned."""
    width = len(str(int(values.max()))) if values.size else 1
    columns = np.zeros((values.size, width), dtype=np.uint8)
    rest = values
    for column in range(width - 1, -1, -1):
        rest, digit = np.divmod(rest, 10)
        columns[:, column] = digit + ord("0")
    # no leading zeros: a column left of the units digit is kept where
    # the value has that many digits
    columns[:, : width - 1] *= values[:, None] >= 10 ** np.arange(width - 1, 0, -1)
    return columns


def factors_text(table) -> str:
    """The JSON objects of a :class:`~ketsim.decompose.FactorTable`'s
    factors, comma-separated, each one row of a NUL-padded byte matrix:
    ``, {"support": [``, the supports' digit columns, ``], "block": [``,
    the block's pairs in C order from :func:`_pair_rows`, and ``]}``.  A
    phase's row leaves its second support and its last three pairs NUL."""
    count = len(table)
    phase = table.first == table.last

    def text(constant: bytes) -> np.ndarray:
        return np.broadcast_to(np.frombuffer(constant, dtype=np.uint8), (count, len(constant)))

    pairs = _pair_rows(table.blocks.reshape(-1).view(np.float64)).reshape(count, -1)
    pairs[:, : _LEFT - 1] = 0  # no ", " before a block's first pair
    pairs[phase, pairs.shape[1] // 4 :] = 0
    second = np.where(phase[:, None], 0, np.hstack([text(b", "), _digit_columns(table.last)]))
    rows = np.hstack([text(b', {"support": ['), _digit_columns(table.first), second,
                      text(b'], "block": ['), pairs, text(b"]}")])
    rows[0, :2] = 0  # no ", " before the chunk's first factor
    return _rows_text(rows)
