"""Multi-qubit state vectors: construction, tensor composition, and tests.

Conventions used throughout the package:

- An n-qubit state holds 2**n complex amplitudes indexed by basis label.
- Qubit 0 is the *most significant* bit of the basis index, so the basis
  label |x1,...,xn> reads left to right: index = x1*2**(n-1) + ... + xn.
- Every constructor that computes new amplitudes renormalizes small
  rounding drift (squared norm within 1e-6 of 1) and rejects anything
  further off as a logic error.  A state whose amplitudes are only moved
  from a checked state, and possibly negated or multiplied by i or -i
  (permutation gates, Y, Z and other gates with one unit entry per row,
  oracles), or that is a basis state keeps them as they are: its norm is
  its parent's, or exactly 1.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence

import numpy as np

from .errors import CapacityExceeded, DimensionMismatch, InvalidInput
from .text17 import ket_chunks

DEFAULT_QUBIT_CAP = 20

# Invariant tolerance on the squared norm; constructors repair up to
# NORM_BUILD_TOL and reject beyond it.
NORM_ATOL = 1e-10
NORM_BUILD_TOL = 1e-6


class StateVector:
    """Normalized dense state of ``num_qubits`` qubits.

    Instances are immutable in use: operations return new states and the
    amplitude array is never written after construction, so concurrent
    reads are safe.
    """

    __slots__ = ("num_qubits", "amplitudes")

    def __init__(self, amplitudes: Sequence[complex] | np.ndarray):
        amps = np.asarray(amplitudes, dtype=np.complex128).copy()
        if amps.ndim != 1 or amps.size == 0:
            raise InvalidInput("amplitudes must be a nonempty 1-d sequence")
        n = amps.size.bit_length() - 1
        if amps.size != 1 << n:
            raise InvalidInput(f"amplitude count {amps.size} is not a power of two")
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise InvalidInput("amplitudes must be finite")
        self._adopt(amps)

    @classmethod
    def _trusted(cls, amps: np.ndarray) -> "StateVector":
        """Adopt a fresh 1-d array of 2**n amplitudes without copying it.

        For arrays of new values built in the package that no one else
        holds (dense gate outputs, collapsed states, tensor products): the
        copy, the shape checks and the finiteness pass are skipped; the
        norm pass rejects NaN and inf and repairs rounding drift.
        """
        state = cls.__new__(cls)
        state._adopt(amps)
        return state

    @classmethod
    def _moved(cls, amps: np.ndarray) -> "StateVector":
        """Adopt a fresh 1-d array of 2**n amplitudes with no pass over it.

        For the outputs of permutation gates, oracles and gates such as Y
        and Z, which rearrange a checked state's amplitudes, negate or turn
        some by i exactly and compute none, and for kets, whose
        one nonzero amplitude is 1.  A rearrangement's exact norm is its
        parent's and it holds no NaN or inf, so it has nothing to repair,
        and no number of copies can build up drift; a sum in the new order
        may round differently, and renormalising by it would only chase
        that order.
        """
        state = cls.__new__(cls)
        state.num_qubits = amps.size.bit_length() - 1
        state.amplitudes = amps
        return state

    def _adopt(self, amps: np.ndarray) -> None:
        # One norm pass; drift up to NORM_BUILD_TOL is repaired in place.
        norm_sq = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm_sq - 1.0) <= NORM_BUILD_TOL:  # also true for NaN
            raise InvalidInput(f"state is not normalized: sum |a|^2 = {norm_sq!r}")
        if norm_sq != 1.0:
            _renormalise(amps, norm_sq, amps)
        self.num_qubits = amps.size.bit_length() - 1
        self.amplitudes = amps

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def __repr__(self) -> str:
        return f"StateVector({format_ket(self)!r})"


def _renormalise(amps: np.ndarray, weight: float, out: np.ndarray) -> None:
    """``out[...] = amps / c``, c = sqrt(weight), with the division's bits for 1/c > 0.5:
    numpy divides as (re + im*0)*(1/c), (im - re*0)*(1/c), and multiplying by
    complex(1/c, -0.0) adds those zero terms last.  Callers keep 1/c >= 1 - 5e-7."""
    np.multiply(amps, complex(1.0 / math.sqrt(weight), -0.0), out=out)


def bits_to_index(bits: Sequence[int]) -> int:
    """Pack classical bits into a basis index, first bit most significant."""
    value = 0
    for b in bits:
        if b not in (0, 1):
            raise InvalidInput(f"bits must be 0 or 1, got {b!r}")
        value = (value << 1) | b
    return value


def index_to_bits(index: int, num_qubits: int) -> tuple[int, ...]:
    """Unpack a basis index into its bits, most significant first."""
    return tuple((index >> (num_qubits - 1 - i)) & 1 for i in range(num_qubits))


def _check_qubits(qubits: Sequence[int], n: int) -> None:
    """Reject an empty, repeating, non-integer or out-of-range list of qubit indices."""
    for q in qubits:
        try:
            operator.index(q)
        except TypeError:
            raise InvalidInput(f"qubit index {q!r} is not an integer") from None
    if not qubits or len(set(qubits)) != len(qubits):
        raise InvalidInput("targets must be distinct and nonempty")
    for q in qubits:
        if not 0 <= q < n:
            raise InvalidInput(f"qubit index {q} out of range for {n} qubits")


def _split_axes(n: int, qubits: Sequence[int]) -> tuple[tuple, tuple]:
    """Shape viewing 2**n amplitudes with one size-2 axis per listed qubit,
    and the axis order that puts the listed qubits' axes first, in list
    order, and keeps the others after them in place.

    On ``a.reshape(shape).transpose(order)`` the first k indices are the
    listed qubits' bits.  The qubits in between share one merged axis per
    gap; an empty gap gets no axis, since a size-1 axis would leave numpy
    an inner loop of length 1.  The list is checked first.
    """
    _check_qubits(qubits, n)
    shape: list[int] = []
    axes: dict[int, int] = {}
    prev = -1
    for q in sorted(qubits):
        if q - prev > 1:
            shape.append(1 << (q - prev - 1))
        axes[q] = len(shape)
        shape.append(2)
        prev = q
    rest = 1 << (n - 1 - prev)
    if rest > 1:
        shape.append(rest)
    listed = [axes[q] for q in qubits]
    return (*shape,), (*listed, *(a for a in range(len(shape)) if a not in listed))


def ket(bits: Sequence[int], cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Computational basis state |bits>, e.g. ket([1, 0]) = |10>."""
    bits = list(bits)
    if not bits:
        raise InvalidInput("ket requires at least one bit")
    if len(bits) > cap:
        raise CapacityExceeded(f"{len(bits)} qubits exceeds the cap of {cap}")
    amps = np.zeros(1 << len(bits), dtype=np.complex128)
    amps[bits_to_index(bits)] = 1.0
    return StateVector._moved(amps)


def qubit_from_angles(theta: float, eta: float) -> StateVector:
    """1-qubit state (cos theta)|0> + (e^{i eta} sin theta)|1>.

    The two angles are the only degrees of freedom of a qubit once
    normalization and global phase are fixed; values wrap by periodicity.
    """
    if not (math.isfinite(theta) and math.isfinite(eta)):
        raise InvalidInput("angles must be finite")
    return StateVector([math.cos(theta), math.sin(theta) * complex(math.cos(eta), math.sin(eta))])


def tensor(s: StateVector, t: StateVector, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Tensor product; ``s`` occupies the high-order qubits of the result."""
    n = s.num_qubits + t.num_qubits
    if n > cap:
        raise CapacityExceeded(f"tensor result of {n} qubits exceeds the cap of {cap}")
    return StateVector._trusted(np.outer(s.amplitudes, t.amplitudes).reshape(-1))


def probabilities(s: StateVector) -> np.ndarray:
    """Measurement probability of each basis outcome (the squared moduli)."""
    return np.abs(s.amplitudes) ** 2


def states_equivalent(s: StateVector, t: StateVector, tol: float = 1e-9) -> bool:
    """Whether ``s`` and ``t`` agree up to a global phase.

    Equality up to phase within distance ``tol`` (min over unit scalars c
    of ||s - c*t||) is equivalent to |<s|t>| >= 1 - tol**2 / 2, which is
    what gets evaluated.  The threshold carries a 16*dim*eps rounding
    guard: without it, tolerances below ~1e-8 would demand more overlap
    resolution than a float64 inner product can deliver, and even
    identical states could fail.
    """
    if s.num_qubits != t.num_qubits:
        raise DimensionMismatch(
            f"cannot compare {s.num_qubits}-qubit and {t.num_qubits}-qubit states"
        )
    overlap = abs(np.vdot(s.amplitudes, t.amplitudes))
    guard = 16.0 * s.dim * np.finfo(float).eps
    return bool(overlap >= 1.0 - (tol * tol / 2.0 + guard))


def is_product_split(s: StateVector, left_qubits: int) -> bool:
    """Whether ``s`` factors as (state of the first k qubits) x (the rest).

    Reshapes the amplitudes into a 2**k by 2**(n-k) matrix and tests for
    numerical rank one; rank > 1 is the signature of entanglement across
    the split.  Singular values below 1e-8 of the largest count as zero.
    """
    n = s.num_qubits
    if not 1 <= left_qubits < n:
        raise InvalidInput(f"split position must be in [1, {n - 1}], got {left_qubits}")
    matrix = s.amplitudes.reshape(1 << left_qubits, 1 << (n - left_qubits))
    singular = np.linalg.svd(matrix, compute_uv=False)
    return bool(np.sum(singular > 1e-8 * singular[0]) == 1)


def format_ket(s: StateVector) -> str:
    """Render a state as text, e.g. ``0.707107|00> + 0.707107|11>``.

    Amplitudes print to 6 significant digits; terms with modulus below
    1e-9 are omitted.
    """
    return "".join(ket_chunks(s))
