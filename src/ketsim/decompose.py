"""Decomposition of a unitary into two-level factors, and recomposition.

Every D x D unitary factors into at most 2*D**2 - D unitaries that each
differ from the identity on one or two coordinate directions.  For each
eigenvector, a sweep of Givens-style rotations folds it onto a single
coordinate, a phase factor applies its eigenvalue there, and the adjoint
sweep unfolds it; one pass of array operations builds every eigenvector's
factors at once.  Because eigenvectors of a unitary are orthogonal, each
eigenvector's block of factors leaves the other eigenvectors untouched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, islice

import numpy as np

from .errors import DimensionMismatch, InvalidInput, NotUnitary, NumericalFailure
from .gates import is_unitary
from .rng import RngStream
from .state import StateVector

DECOMPOSE_DIM_CAP = 256

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
        if self.support[0] < 0 or self.support[-1] >= self.dim:
            raise InvalidInput(f"support must lie in range({self.dim})")
        if self.block.shape != (len(self.support),) * 2:
            raise DimensionMismatch("block shape must match the support size")

    def expand(self) -> np.ndarray:
        """Dense D x D matrix: the block on its support, identity elsewhere."""
        out = np.eye(self.dim, dtype=np.complex128)
        out[np.ix_(self.support, self.support)] = self.block
        return out

    @classmethod
    def _trusted(cls, dim: int, support: tuple[int, ...], block: np.ndarray) -> "TwoLevelFactor":
        """A factor built in the package, whose support and block already
        agree: the checks of ``__post_init__`` are skipped."""
        factor = cls.__new__(cls)
        # set one by one, as the dataclass __init__ does: an instance whose
        # __dict__ was touched keeps a full dict, about 140 bytes more
        object.__setattr__(factor, "dim", dim)
        object.__setattr__(factor, "support", support)
        object.__setattr__(factor, "block", block)
        return factor

    def apply_to(self, a: np.ndarray) -> None:
        """``a = expand() @ a`` in place, for a length-D vector or a D x m
        matrix: only the rows on the support are rewritten, O(m) work."""
        _apply_in_place([self], a)


class FactorTable:
    """A decomposition as one table, one row per factor, in product order.

    ``first`` and ``last`` are the ends of each factor's support, equal for
    a 1x1 phase.  ``blocks`` holds each row's block as a C-order 2x2: a
    phase in its ``[0, 0]`` entry with zeros in the rest.
    """

    __slots__ = ("dim", "first", "last", "blocks")

    def __init__(self, dim: int, first: np.ndarray, last: np.ndarray, blocks: np.ndarray):
        self.dim = dim
        self.first, self.last, self.blocks = first, last, blocks

    @classmethod
    def zeros(cls, dim: int, rows: int) -> "FactorTable":
        """A table of room for ``rows`` factors: zero blocks, and supports
        left for the rows' writer."""
        return cls(dim, np.empty(rows, dtype=np.int64), np.empty(rows, dtype=np.int64),
                   np.zeros((rows, 2, 2), dtype=np.complex128))

    def __len__(self) -> int:
        return self.first.size

    def __getitem__(self, rows: slice) -> "FactorTable":
        return FactorTable(self.dim, self.first[rows], self.last[rows], self.blocks[rows])

    def factors(self) -> list[TwoLevelFactor]:
        """The table as a list of factors whose blocks are views of its rows:
        a 2x2, or a phase's 1x1 corner."""
        trusted, dim = TwoLevelFactor._trusted, self.dim
        return [trusted(dim, (a, b), block) if a != b else trusted(dim, (a,), block[:1, :1])
                for a, b, block in zip(self.first.tolist(), self.last.tolist(), self.blocks)]


def _apply_in_place(factors: list[TwoLevelFactor] | FactorTable, a: np.ndarray) -> None:
    """``a = recompose(factors, D) @ a`` in place, the last factor first,
    each rewriting the one or two rows on its support; every dimension is
    checked before any row changes."""
    rows = a.shape[0]
    if isinstance(factors, FactorTable):
        dims = [factors.dim] if len(factors) else []
        triples = zip(factors.first[::-1].tolist(), factors.last[::-1].tolist(),
                      factors.blocks[::-1])
    else:
        dims = [f.dim for f in factors]
        triples = ((f.support[0], f.support[-1], f.block) for f in reversed(factors))
    for dim in reversed(dims):
        if dim != rows:
            raise DimensionMismatch(f"factor of dimension {dim} applied to {rows} rows")
    pair = np.empty_like(a[:2])
    for first, last, block in triples:
        # the support's rows as one strided view, not a gathered copy; the
        # product goes to a buffer, since it reads both rows it rewrites
        if first == last:
            view, block, out = a[first : first + 1], block[:1, :1], pair[:1]
        else:
            view, out = a[first : last + 1 : last - first], pair
        np.matmul(block, view, out=out)
        view[...] = out


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
    if not u.size:  # 0 x 0 passes the unitarity check
        raise InvalidInput("dimension must be positive")
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
    Any nonzero scale works, down to a largest modulus of the smallest
    normal float: no rotation then divides by a zero or subnormal modulus.
    """
    c, lam = np.array(vector, dtype=np.complex128), complex(eigenvalue)
    if c.ndim != 1 or not c.size or not np.isfinite(c).all():
        raise InvalidInput("eigenvector must be a nonempty finite 1-d array")
    if not np.abs(c).max() >= np.finfo(float).tiny:
        raise InvalidInput("eigenvector entries must not all be zero or subnormal")
    if not (np.isfinite(lam) and lam):
        raise InvalidInput("eigenvalue must be finite and nonzero")
    return _sweep(c.reshape(1, -1), [lam]).factors()


def _sweep(c: np.ndarray, eigenvalues) -> FactorTable:
    """The table of :func:`eigenvector_factors` of each row of the
    C-order ``c``, which is overwritten, with its eigenvalue, row 0's
    factors first.  The moduli's recurrence and each eigenvalue's phase run
    in Python; everything else is array work over all rows.  The bits are
    those of one vector's scalar loop: every array step here is elementwise,
    or per row (``TestNumpyFacts``)."""
    count, dim = c.shape
    rows = np.arange(count)
    pivots = np.argmax(np.abs(c), axis=1)
    # Eigenvectors are phase-free; pin each pivot entry real-positive so
    # axis-aligned eigenvectors produce no rotations at all.  The scalar
    # conj(c[pivot]) / abs(c[pivot]) bit for bit: np.abs of a complex array
    # rounds differently from the scalar abs, hypot of the parts does not.
    p = c[rows, pivots]
    c *= (np.conj(p) / np.hypot(p.real, p.imag))[:, None]
    mags = np.hypot(c.real, c.imag)

    # The sweep rotates c[other] into c[pivot] for each other in index
    # order.  A zero entry rotates by hypot(r, 0) == r: the first one makes
    # the pinned pivot exactly real, and later ones change nothing and emit
    # nothing, so they are left out.
    swept = mags != 0.0
    zeros = ~swept
    zeros[rows, pivots] = False
    swept[rows, np.argmax(zeros, axis=1)] |= zeros.any(axis=1)
    swept[rows, pivots] = False
    owner, others = np.nonzero(swept)
    # The modulus recurrence runs in Python, one accumulate of math.hypot
    # per row: the pivot entry becomes r = hypot(|c[pivot]|, |c[other]|)
    # after each rotation.
    moduli = mags[owner, others].tolist()
    radii: list[float] = []
    ends = np.cumsum(swept.sum(axis=1)).tolist()
    for r, lo, hi in zip(mags[rows, pivots].tolist(), [0, *ends], ends):
        radii += islice(accumulate(moduli[lo:hi], math.hypot, initial=r), 1, None)
    r = np.array(radii)
    co = c[owner, others]
    cp = np.empty_like(co)  # the pivot entry before each rotation
    cp[1:] = r[:-1]
    fresh = np.diff(owner, prepend=-1) != 0  # each row's first rotation
    cp[fresh] = c[owner[fresh], pivots[owner[fresh]]]
    cp_r, co_r = cp / r, co / r
    # The largest entry of block - identity, taken as Python's max of the
    # two moduli; most rotations of a sparse eigenvector are elided.
    shift = cp_r - 1
    dev_p, dev_o = np.hypot(shift.real, shift.imag), np.hypot(co_r.real, co_r.imag)
    keep = ~(np.where(dev_o > dev_p, dev_o, dev_p) < ELIDE_EPS)
    cp, co, r, owner, others = cp[keep], co[keep], r[keep], owner[keep], others[keep]
    # on (pivot, other); on (other, pivot) its rows and columns reverse
    blocks = np.stack([np.conj(cp) / r, np.conj(co) / r, -co / r, cp_r[keep]], axis=1)
    blocks = blocks.reshape(-1, 2, 2)
    below = others < pivots[owner]
    blocks[below] = blocks[below, ::-1, ::-1]

    # Each row's adjoint rotations (each the conjugate transpose of its
    # forward block), then its phase, then its rotations, last first.
    lams = [lam / abs(lam) for lam in map(complex, eigenvalues)]  # Python's complex division
    phased = np.array([abs(lam - 1.0) >= ELIDE_EPS for lam in lams], dtype=bool)
    counts = np.bincount(owner, minlength=count)
    sizes = 2 * counts + phased
    starts = np.cumsum(sizes) - sizes
    pos = np.arange(owner.size) - np.searchsorted(owner, owner)
    adjoints = starts[owner] + pos
    rotations = starts[owner] + sizes[owner] - 1 - pos
    table = FactorTable.zeros(dim, int(sizes.sum()))
    low, high = np.minimum(others, pivots[owner]), np.maximum(others, pivots[owner])
    for at, block in ((adjoints, np.conjugate(blocks.transpose(0, 2, 1), order="C")),
                      (rotations, blocks)):
        table.first[at], table.last[at], table.blocks[at] = low, high, block
    at = (starts + counts)[phased]
    table.first[at] = table.last[at] = pivots[phased]
    table.blocks[at, 0, 0] = np.array(lams, dtype=np.complex128)[phased]
    return table


def check_dim_cap(dim: int) -> None:
    """Raise ``InvalidInput`` for a dimension above ``DECOMPOSE_DIM_CAP``;
    a matrix file's reader calls it at the file's header."""
    if dim > DECOMPOSE_DIM_CAP:
        raise InvalidInput(f"dimension {dim} exceeds the decomposition cap of {DECOMPOSE_DIM_CAP}")


def decompose_table(u: np.ndarray) -> FactorTable:
    """:func:`two_level_decompose` as one table, with no object per factor."""
    u = np.asarray(u, dtype=np.complex128)
    # The cap comes first: the unitarity check alone is an O(D**3) product.
    if u.ndim == 2 and u.shape[0] == u.shape[1]:
        check_dim_cap(u.shape[0])
    if not is_unitary(u, 1e-9):
        raise NotUnitary("two_level_decompose requires a unitary matrix")
    eigenvalues, vectors = _schur_eigensystem(u)
    # one sweep over every eigenvector, each a C-order row
    return _sweep(np.array(vectors.T, order="C"), eigenvalues)


def two_level_decompose(u: np.ndarray) -> list[TwoLevelFactor]:
    """Two-level factors multiplying (left factor applied last) to ``u``.

    The emitted-plus-elided factor count is exactly D*(2*D - 1) =
    2*D**2 - D; identity factors are elided, so the returned list is
    usually much shorter.
    """
    return decompose_table(u).factors()


def recompose(factors: list[TwoLevelFactor] | FactorTable, dim: int) -> np.ndarray:
    """Ordered dense product of the factors, left factor applied last.

    The identity is multiplied by the factors, a list or a table, from last
    to first, each rewriting its one or two rows: O(F*D) work for F factors.
    """
    out = np.eye(dim, dtype=np.complex128)
    _apply_in_place(factors, out)
    return out


def apply_factors(factors: list[TwoLevelFactor] | FactorTable, s: StateVector) -> StateVector:
    """The state ``recompose(factors, s.dim) @ s`` without forming the
    product: each factor rewrites one or two amplitudes."""
    amps = s.amplitudes.copy()
    _apply_in_place(factors, amps)
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
