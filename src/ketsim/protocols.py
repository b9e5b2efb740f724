"""End-to-end named algorithms: teleportation, Deutsch, Deutsch-Jozsa,
quantum-parallel evaluation, and the basis-cloner fidelity demonstration.

Register layout for teleportation (3 qubits): qubit 0 holds the state to
send, qubit 1 is the sender's half of the shared entangled pair, qubit 2
the receiver's half.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NumericalFailure, PromiseViolated
from .gates import (
    TruthTable,
    apply,
    apply_gate_at,
    apply_oracle_at,
    basis_cloner,
    bell_pair,
    cnot,
    hadamard,
    pauli_x,
    pauli_z,
)
from .measure import Histogram, _Projection, sample, walk_shots
from .state import (
    DEFAULT_QUBIT_CAP,
    StateVector,
    bits_to_index,
    ket,
    tensor,
)

CONSTANT = "Constant"
BALANCED = "Balanced"


@dataclass(frozen=True)
class TeleportTranscript:
    """Record of one teleportation run.

    ``psi0``..``psi2`` are the 3-qubit states before the pair-consuming
    CNOT, after it, and after the sender's Hadamard; ``collapsed`` is the
    post-measurement 3-qubit state whose first two qubits are classical.
    ``bob_state`` is the receiver's corrected qubit and is equivalent to
    ``input_state`` up to global phase.
    """

    input_state: StateVector
    a1: int
    a2: int
    psi0: StateVector
    psi1: StateVector
    psi2: StateVector
    collapsed: StateVector
    bob_state: StateVector


@dataclass(frozen=True)
class DJVerdict:
    """Outcome of one Deutsch-Jozsa run; the oracle is consulted once."""

    verdict: str
    measured_bits: tuple[int, ...]
    oracle_calls: int
    zero_branch_weight: float


def teleport_pre_measurement(
    psi: StateVector,
) -> tuple[StateVector, StateVector, StateVector]:
    """The three 3-qubit stages before the sender measures.

    Returns (input joined with the shared pair, after the CNOT, after the
    Hadamard); the last stage carries each measurement branch with weight
    exactly 1/4.
    """
    if psi.num_qubits != 1:
        raise DimensionMismatch("teleport sends exactly one qubit")
    psi0 = tensor(psi, bell_pair(0, 0))
    psi1 = apply_gate_at(cnot(), [0, 1], psi0)
    psi2 = apply_gate_at(hadamard(), [0], psi1)
    return psi0, psi1, psi2


def _received(psi2: StateVector, a1: int, a2: int) -> StateVector:
    """Receiver's qubit on branch (a1, a2) of ``psi2``, renormalized once,
    then corrected: X for the second bit, then Z for the first."""
    base = bits_to_index((a1, a2)) << 1
    branch = psi2.amplitudes[base : base + 2]
    bob = StateVector(branch / math.sqrt(float(np.sum(np.abs(branch) ** 2))))
    if a2:
        bob = apply(pauli_x(), bob)
    if a1:
        bob = apply(pauli_z(), bob)
    return bob


def teleport(psi: StateVector, seed: int) -> TeleportTranscript:
    """Teleport a 1-qubit state, sampling the sender's measurement branch.

    A one-shot :func:`walk_shots` draws it from uniform 0 of ``seed``.  Each
    of the four branches occurs with probability 1/4; whichever is drawn,
    the corrected receiver state reproduces the input, bit for bit as
    :func:`teleport_branch` gives it for that branch.
    """
    psi0, psi1, psi2 = teleport_pre_measurement(psi)
    sender = _Projection([0, 1], 3)
    (key,) = walk_shots(psi2, [sender], 1, seed).counts
    r = int(key, 2)
    a1, a2 = divmod(r, 2)
    return TeleportTranscript(
        input_state=psi,
        a1=a1,
        a2=a2,
        psi0=psi0,
        psi1=psi1,
        psi2=psi2,
        collapsed=sender.collapse(psi2, r, sender.weights(psi2)[r]),
        bob_state=_received(psi2, a1, a2),
    )


def teleport_branch(psi: StateVector, a1: int, a2: int) -> StateVector:
    """Receiver's corrected state for a forced measurement branch.

    Deterministic companion to :func:`teleport`, used to exercise all four
    branches without sampling; for the branch :func:`teleport` draws, the
    two return the same state bit for bit.
    """
    _, _, psi2 = teleport_pre_measurement(psi)
    return _received(psi2, a1, a2)


def parallel_eval(f: TruthTable, cap: int = DEFAULT_QUBIT_CAP) -> StateVector:
    """Evaluate f on all inputs at once: the state (1/sqrt(2**n)) sum_x |x>|f(x)>.

    A uniform superposition over the inputs feeds a single oracle
    application, so every function value is present in the output
    although f was computed only once.
    """
    n = f.arity
    s = ket([0] * (n + 1), cap=cap)
    for q in range(n):
        s = apply_gate_at(hadamard(), [q], s)
    return apply_oracle_at(f, list(range(n + 1)), s)


def deutsch(f: TruthTable) -> int:
    """Parity f(0) xor f(1) of a 1-bit function with one oracle call.

    Deutsch-Jozsa at arity 1, where balanced is parity 1: the final Hadamard
    makes the first qubit's measurement deterministic, so it reads exactly.
    """
    if f.arity != 1:
        raise InvalidInput("deutsch requires a function of arity 1")
    result = deutsch_jozsa(f)
    weight = result.zero_branch_weight
    if min(abs(weight), abs(1.0 - weight)) > 1e-10:
        raise NumericalFailure(f"first-qubit measurement not deterministic: p(0)={weight}")
    return int(result.verdict == BALANCED)


def deutsch_jozsa(f: TruthTable, seed: int = 0) -> DJVerdict:
    """Decide constant-vs-balanced with a single oracle consultation.

    After the oracle, a Walsh-Hadamard on the input register concentrates
    all weight on the all-zero pattern exactly when f is constant, so the
    verdict follows from whether the measured input bits are all zero.
    A one-shot :func:`walk_shots` reads the input register from uniform 0
    of ``seed`` and collapses nothing; the seed only picks among the
    equally valid nonzero patterns of the balanced case.
    """
    if not (f.is_constant() or f.is_balanced()):
        raise PromiseViolated(
            f"function has {f.ones} ones over {len(f.outputs)} inputs: "
            "neither constant nor balanced"
        )
    n = f.arity
    s = ket([0] * n + [1])
    for q in range(n + 1):
        s = apply_gate_at(hadamard(), [q], s)
    s = apply_oracle_at(f, list(range(n + 1)), s)
    for q in range(n):
        s = apply_gate_at(hadamard(), [q], s)

    weights = np.abs(s.amplitudes[:2]) ** 2
    zero_branch = float(weights[0] + weights[1])
    (key,) = walk_shots(s, [_Projection(range(n), n + 1)], 1, seed).counts
    return DJVerdict(
        verdict=BALANCED if "1" in key else CONSTANT,
        measured_bits=tuple(map(int, key)),
        oracle_calls=1,
        zero_branch_weight=zero_branch,
    )


def clone_fidelity(superposition: np.ndarray) -> float:
    """Overlap of the basis cloner's output with the true clone target.

    ``superposition`` is a normalized vector in the n-dimensional register
    the cloner copies (n = its length).  Basis states return 1.0; any
    genuine superposition returns strictly less, witnessing that no linear
    map clones arbitrary states.
    """
    vec = np.asarray(superposition, dtype=np.complex128)
    if vec.ndim != 1 or vec.size < 2:
        raise DimensionMismatch("superposition must be a vector of dimension >= 2")
    norm = float(np.sum(np.abs(vec) ** 2))
    if abs(norm - 1.0) > 1e-9:
        raise InvalidInput(f"superposition is not normalized: sum |a|^2 = {norm!r}")
    n = vec.size
    blank = np.zeros(n, dtype=np.complex128)
    blank[0] = 1.0
    produced = basis_cloner(n) @ np.kron(vec, blank)
    target = np.kron(vec, vec)
    return float(abs(np.vdot(target, produced)) ** 2)


def fair_coin(seed: int, shots: int) -> Histogram:
    """Coin flips from measuring H|0>: heads and tails each at probability 1/2."""
    return sample(apply(hadamard(), ket([0])), shots, seed)
