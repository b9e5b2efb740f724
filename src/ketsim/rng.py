"""Deterministic 64-bit random stream used for all sampling.

The generator is SplitMix64: a counter advanced by the golden-gamma
constant, finalized by two xor-shift-multiply rounds.  It is fixed here
(rather than delegating to the platform RNG) so that a seed produces the
same draw sequence on every platform and Python version.

Its k-th state (counting from 0) is seed + (k + 1)·gamma mod 2**64, so any
block of the stream can be computed without drawing the ones before it:
``uniforms`` does that in one numpy pass, and returns bit for bit what
``RngStream.uniform`` would.

Reference outputs, frozen as test vectors (see tests/test_measure.py and
the README):

    seed 0  -> 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F
    seed 42 -> 0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .errors import InvalidInput

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class RngStream:
    """Single-owner stream of pseudo-random draws.

    A stream must not be shared between concurrent consumers; spawn one
    stream per independent task instead.
    """

    def __init__(self, seed: int):
        self.seed = _check_seed(seed) & _MASK64
        self._state = self.seed

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) using the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0 ** -53

    def normal(self) -> tuple[float, float]:
        """One Box-Muller pair of independent standard normals.

        Consumes exactly two uniforms; no spare is cached, so the draw
        sequence stays a pure function of the call count.
        """
        u1 = self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        return r * math.cos(2.0 * math.pi * u2), r * math.sin(2.0 * math.pi * u2)


def _check_seed(seed) -> int:
    """``seed`` as an int: ints, bools and numpy integers pass, anything
    else is an input error."""
    try:
        return operator.index(seed)
    except TypeError:
        raise InvalidInput(f"seed {seed!r} is not an integer") from None


def uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms number ``start`` to ``start + count - 1`` (counting from 0)
    of ``RngStream(seed)``, bit for bit, in one wrapping ``uint64`` pass."""
    z = np.arange(count, dtype=np.uint64)
    z *= np.uint64(_GAMMA)
    z += np.uint64((seed + (start + 1) * _GAMMA) & _MASK64)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53
