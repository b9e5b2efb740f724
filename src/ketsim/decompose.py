"""Decomposition of a unitary into two-level factors, and recomposition.

Every D x D unitary factors into at most 2*D**2 - D unitaries that each
differ from the identity on one or two coordinate directions.  The
construction runs eigenvector by eigenvector: a sweep of Givens-style
rotations folds the eigenvector onto a single coordinate, a phase factor
applies its eigenvalue there, and the adjoint sweep unfolds it.  Because
eigenvectors of a unitary are orthogonal, each eigenvector's block of
factors leaves the previously processed ones untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NotUnitary, NumericalFailure
from .gates import is_unitary
from .rng import RngStream
from .state import StateVector

DECOMPOSE_DIM_CAP = 256

# A sweep rotation whose pivot pair carries less weight than this is the
# continuous limit of "nothing to rotate" and is skipped.
PIVOT_EPS = 1e-14

# Factors whose block deviates from the identity by less than this are
# elided from the output (they still count against the factor bound).
ELIDE_EPS = 1e-12


@dataclass(frozen=True, eq=False)
class TwoLevelFactor:
    """A unitary differing from the identity on at most two coordinates.

    ``block`` is 1x1 (a phase) or 2x2, acting on the coordinates listed in
    ``support`` in increasing order.
    """

    dim: int
    support: tuple[int, ...]
    block: np.ndarray

    def __post_init__(self):
        if len(self.support) not in (1, 2):
            raise InvalidInput("support must hold one or two coordinate indices")
        if len(self.support) == 2 and not self.support[0] < self.support[1]:
            raise InvalidInput("two-coordinate support must be strictly increasing")
        if self.block.shape != (len(self.support),) * 2:
            raise DimensionMismatch("block shape must match the support size")

    def expand(self) -> np.ndarray:
        """Dense D x D matrix: the block on its support, identity elsewhere."""
        out = np.eye(self.dim, dtype=np.complex128)
        out[np.ix_(self.support, self.support)] = self.block
        return out

    def apply_to(self, a: np.ndarray) -> None:
        """``a = expand() @ a`` in place, for a length-D vector or a D x m
        matrix: only the rows on the support are rewritten, O(m) work."""
        if a.shape[0] != self.dim:
            raise DimensionMismatch(
                f"factor of dimension {self.dim} applied to {a.shape[0]} rows"
            )
        first, last = self.support[0], self.support[-1]
        # the support's rows as one strided view, not a gathered copy
        rows = a[first : last + 1 : max(last - first, 1)]
        rows[...] = self.block @ rows


def unitary_eigensystem(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and an orthonormal eigenvector basis of a unitary.

    Uses a complex Schur triangularization; a unitary is normal, so the
    Schur form is diagonal and its orthonormal Schur vectors are genuine
    eigenvectors.  Degenerate eigenspaces therefore come out orthonormal
    without further work.
    """
    u = np.asarray(u, dtype=np.complex128)
    if not is_unitary(u, 1e-9):
        raise NotUnitary("eigensystem requires a unitary matrix")
    return _schur_eigensystem(u)


def _schur_eigensystem(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`unitary_eigensystem` of a complex128 ``u`` already checked unitary."""
    import scipy.linalg  # loaded on first use: the package's one scipy call

    try:
        t, z = scipy.linalg.schur(u, output="complex")
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise NumericalFailure(f"Schur decomposition failed: {exc}") from exc
    eigenvalues = np.diag(t).copy()
    if np.max(np.abs(np.abs(eigenvalues) - 1.0)) > 1e-10:
        raise NumericalFailure("eigenvalues of a unitary must have unit modulus")
    residual = np.linalg.norm(u @ z - z * eigenvalues, axis=0)
    if residual.max() > 1e-8:
        raise NumericalFailure(
            f"eigenvector residual {residual.max():.3e} exceeds 1e-8"
        )
    return eigenvalues, z


def eigenvector_factors(vector: np.ndarray, eigenvalue: complex) -> list[TwoLevelFactor]:
    """Two-level factors whose product multiplies ``vector`` by ``eigenvalue``
    and fixes every vector orthogonal to it.

    At most 2*(D-1) rotations plus one phase are constructed; blocks that
    are the identity to within ``ELIDE_EPS`` are dropped from the result.
    """
    c = np.asarray(vector, dtype=np.complex128).copy()
    dim = c.size
    pivot = int(np.argmax(np.abs(c)))
    if abs(c[pivot]) > PIVOT_EPS:
        # Eigenvectors are phase-free; pin the pivot entry real-positive so
        # axis-aligned eigenvectors produce no rotations at all.
        c *= np.conj(c[pivot]) / abs(c[pivot])

    forward: list[TwoLevelFactor] = []
    for other in range(dim):
        if other == pivot:
            continue
        cp, co = c[pivot], c[other]
        r = math.hypot(abs(cp), abs(co))
        if r < PIVOT_EPS:
            continue
        c[pivot] = r
        c[other] = 0.0
        # The largest entry of block - identity, tested before any block is
        # built: most rotations of a sparse eigenvector are elided.
        if max(abs(cp / r - 1), abs(co / r)) < ELIDE_EPS:
            continue
        # on (pivot, other); on (other, pivot) its rows and columns reverse
        block = np.array(
            [[np.conj(cp) / r, np.conj(co) / r], [-co / r, cp / r]],
            dtype=np.complex128,
        )
        if pivot < other:
            forward.append(TwoLevelFactor(dim, (pivot, other), block))
        else:
            forward.append(TwoLevelFactor(dim, (other, pivot), block[::-1, ::-1].copy()))

    factors: list[TwoLevelFactor] = [
        TwoLevelFactor(f.dim, f.support, f.block.conj().T) for f in forward
    ]
    lam = complex(eigenvalue)
    lam /= abs(lam)
    if abs(lam - 1.0) >= ELIDE_EPS:
        factors.append(
            TwoLevelFactor(dim, (pivot,), np.array([[lam]], dtype=np.complex128))
        )
    factors.extend(reversed(forward))
    return factors


def two_level_decompose(u: np.ndarray) -> list[TwoLevelFactor]:
    """Two-level factors multiplying (left factor applied last) to ``u``.

    The emitted-plus-elided factor count is exactly D*(2*D - 1) =
    2*D**2 - D; identity factors are elided, so the returned list is
    usually much shorter.
    """
    u = np.asarray(u, dtype=np.complex128)
    # The cap comes first: the unitarity check alone is an O(D**3) product.
    if u.ndim == 2 and u.shape[0] == u.shape[1] > DECOMPOSE_DIM_CAP:
        raise InvalidInput(
            f"dimension {u.shape[0]} exceeds the decomposition cap of {DECOMPOSE_DIM_CAP}"
        )
    if not is_unitary(u, 1e-9):
        raise NotUnitary("two_level_decompose requires a unitary matrix")
    eigenvalues, vectors = _schur_eigensystem(u)
    factors: list[TwoLevelFactor] = []
    for k in range(u.shape[0]):
        factors.extend(eigenvector_factors(vectors[:, k], eigenvalues[k]))
    return factors


def recompose(factors: list[TwoLevelFactor], dim: int) -> np.ndarray:
    """Ordered dense product of the factors, left factor applied last.

    The identity is multiplied by the factors from last to first, each
    rewriting its one or two rows: O(F*D) work for F factors.
    """
    out = np.eye(dim, dtype=np.complex128)
    for factor in reversed(factors):
        factor.apply_to(out)
    return out


def apply_factors(factors: list[TwoLevelFactor], s: StateVector) -> StateVector:
    """The state ``recompose(factors, s.dim) @ s`` without forming the
    product: each factor rewrites one or two amplitudes."""
    amps = s.amplitudes.copy()
    for factor in reversed(factors):
        factor.apply_to(amps)
    return StateVector._trusted(amps)


def haar_random_unitary(dim: int, rng: RngStream) -> np.ndarray:
    """Haar-distributed unitary from orthonormalizing complex Gaussians.

    Deterministic given the stream state; used for seeded randomized
    testing of the decomposition round trip.
    """
    if dim < 1:
        raise InvalidInput("dimension must be positive")
    entries = np.empty((dim, dim), dtype=np.complex128)
    for row in range(dim):
        for col in range(dim):
            re, im = rng.normal()
            entries[row, col] = complex(re, im) / math.sqrt(2.0)
    q, r = np.linalg.qr(entries)
    phases = np.diag(r).copy()
    phases = np.where(np.abs(phases) < 1e-300, 1.0, phases / np.abs(phases))
    return q * phases
