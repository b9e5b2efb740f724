"""Projective measurement with collapse, and reproducible shot sampling.

Outcomes are drawn by an inverse-CDF walk over branch weights in index
order, which makes tie handling deterministic.  Branch weights below
1e-15 are treated as exactly zero so that floating-point dust never
produces an impossible outcome or a near-null collapsed vector.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .rng import RngStream
from .state import StateVector, _check_qubits, _split_axes, index_to_bits, ket, probabilities

ZERO_BRANCH_EPS = 1e-15

# Shots drawn per pass of ``sample``: its memory does not grow with shots.
SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class MeasurementOutcome:
    """One observed result: the classical bits, their pre-measurement Born
    weight, and the normalized post-measurement state."""

    bits: tuple[int, ...]
    probability: float
    collapsed: StateVector


@dataclass(frozen=True)
class Histogram:
    """Counts of measured bit patterns over a fixed number of shots."""

    shots: int
    seed: int
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise InvalidInput("histogram counts must sum to shots")

    def to_json_dict(self) -> dict:
        return {"shots": self.shots, "seed": self.seed, "counts": dict(self.counts)}


def _branch_cdf(weights: np.ndarray) -> tuple[np.ndarray, int]:
    """Cumulative weights with sub-threshold branches zeroed.

    Returns the CDF and the last index carrying real weight, used to
    absorb draws that land beyond the accumulated total by rounding.
    """
    live = weights >= ZERO_BRANCH_EPS
    if not live.any():
        raise InvalidInput("state has no branch with nonzero weight")
    cdf = np.cumsum(np.where(live, weights, 0.0))
    return cdf, int(np.nonzero(live)[0][-1])


def _draw(cdf: np.ndarray, last_live: int, u: float | np.ndarray) -> np.ndarray:
    """Branch of each uniform in ``u``: the first whose running weight
    exceeds it, or ``last_live`` for a draw past the rounded total."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), last_live)


def measure_all(s: StateVector, rng: RngStream) -> MeasurementOutcome:
    """Measure every qubit; the state collapses onto one basis ket."""
    weights = probabilities(s)
    cdf, last_live = _branch_cdf(weights)
    index = int(_draw(cdf, last_live, rng.uniform()))
    bits = index_to_bits(index, s.num_qubits)
    return MeasurementOutcome(bits, float(weights[index]), ket(bits, cap=s.num_qubits))


def measure_subset(s: StateVector, qubits: Sequence[int], rng: RngStream) -> MeasurementOutcome:
    """Measure the listed qubits jointly; unmeasured qubits stay quantum.

    The outcome pattern packs the listed qubits' bits with the first
    listed qubit most significant.  The collapsed state is the
    renormalized projection of ``s`` onto the observed pattern.
    """
    qubits = list(qubits)
    n, k = s.num_qubits, len(qubits)
    _check_qubits(qubits, n)
    # Views with the listed qubits' axes first: the first k indices spell
    # an outcome and the others run in basis-index order.
    shape, order = _split_axes(n, qubits, 1)
    born = probabilities(s).reshape(shape).transpose(order)
    # A running sum adds each outcome's Born weights one at a time in
    # index order; np.sum would pair them up and round differently.
    weights = np.cumsum(born.reshape(1 << k, -1), axis=1)[:, -1]

    cdf, last_live = _branch_cdf(weights)
    outcome = int(_draw(cdf, last_live, rng.uniform()))
    bits = index_to_bits(outcome, k)
    collapsed = np.zeros_like(s.amplitudes)
    src = s.amplitudes.reshape(shape).transpose(order)
    dst = collapsed.reshape(shape).transpose(order)
    np.divide(src[(*bits, ...)], math.sqrt(weights[outcome]), out=dst[(*bits, ...)])
    return MeasurementOutcome(
        bits=bits,
        probability=float(weights[outcome]),
        collapsed=StateVector._trusted(collapsed),
    )


def sample(s: StateVector, shots: int, seed: int) -> Histogram:
    """Histogram of ``shots`` independent full measurements of copies of ``s``.

    Each shot consumes exactly one uniform from a fresh stream seeded with
    ``seed``, and lands where :func:`measure_all` would land it, so results
    are reproducible bit for bit.  Shots are drawn ``SAMPLE_CHUNK`` at a
    time, which bounds memory for any shot count.  Keys are bit patterns
    with qubit 0 leftmost, sorted ascending.
    """
    if shots < 1:
        raise InvalidInput("shots must be at least 1")
    cdf, last_live = _branch_cdf(probabilities(s))
    rng = RngStream(seed)
    totals = np.zeros(cdf.size, dtype=np.int64)
    for start in range(0, shots, SAMPLE_CHUNK):
        size = min(SAMPLE_CHUNK, shots - start)
        draws = np.fromiter((rng.uniform() for _ in range(size)), np.float64, size)
        np.add.at(totals, _draw(cdf, last_live, draws), 1)
    counts = {format(v, f"0{s.num_qubits}b"): int(totals[v]) for v in np.flatnonzero(totals)}
    return Histogram(shots=shots, seed=seed, counts=counts)
