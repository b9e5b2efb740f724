import cmath
import functools
import math

import numpy as np
import pytest

from conftest import factor_table, rand_state, table_unitaries
from ketsim import (
    InvalidInput,
    NotUnitary,
    RngStream,
    StateVector,
    apply,
    apply_factors,
    eigenvector_factors,
    haar_random_unitary,
    hadamard,
    pauli_z,
    recompose,
    two_level_decompose,
    unitary_eigensystem,
)
from ketsim.errors import DimensionMismatch
from ketsim.decompose import ELIDE_EPS, TwoLevelFactor, decompose_table


def dense_product(factors, dim):
    """Reference for ``recompose``: one dense D x D product per factor."""
    out = np.eye(dim, dtype=np.complex128)
    for factor in factors:
        out = out @ factor.expand()
    return out


def reference_eigenvector_factors(vector, eigenvalue):
    """Reference for ``eigenvector_factors``: every rotation's block is
    built, then tested against the identity."""
    c = np.asarray(vector, dtype=np.complex128).copy()
    dim = c.size
    pivot = int(np.argmax(np.abs(c)))
    c *= np.conj(c[pivot]) / abs(c[pivot])
    identity2 = np.eye(2)
    forward = []
    for other in range(dim):
        if other == pivot:
            continue
        cp, co = c[pivot], c[other]
        r = math.hypot(abs(cp), abs(co))
        if pivot < other:
            block = np.array(
                [[np.conj(cp) / r, np.conj(co) / r], [-co / r, cp / r]],
                dtype=np.complex128,
            )
            support = (pivot, other)
        else:
            block = np.array(
                [[cp / r, -co / r], [np.conj(co) / r, np.conj(cp) / r]],
                dtype=np.complex128,
            )
            support = (other, pivot)
        c[pivot] = r
        c[other] = 0.0
        if np.max(np.abs(block - identity2)) >= ELIDE_EPS:
            forward.append(TwoLevelFactor(dim, support, block))
    factors = [TwoLevelFactor(f.dim, f.support, f.block.conj().T) for f in forward]
    lam = complex(eigenvalue)
    lam /= abs(lam)
    if abs(lam - 1.0) >= ELIDE_EPS:
        factors.append(TwoLevelFactor(dim, (pivot,), np.array([[lam]], dtype=np.complex128)))
    factors.extend(reversed(forward))
    return factors


def reference_apply_to(factor, a):
    """Reference for the row updates of ``recompose`` and ``apply_factors``:
    the per-factor method they inlined, its dimension check included."""
    if a.shape[0] != factor.dim:
        raise DimensionMismatch(f"factor of dimension {factor.dim} applied to {a.shape[0]} rows")
    first, last = factor.support[0], factor.support[-1]
    rows = a[first : last + 1 : max(last - first, 1)]
    rows[...] = factor.block @ rows


def reference_recompose(factors, dim):
    out = np.eye(dim, dtype=np.complex128)
    for factor in reversed(factors):
        reference_apply_to(factor, out)
    return out


def reference_table(values, vectors):
    """Reference for ``decompose_table``: the table of the concatenated
    ``reference_eigenvector_factors`` of every eigenvector, in order."""
    factors = []
    for k in range(vectors.shape[1]):
        factors += reference_eigenvector_factors(vectors[:, k], values[k])
    return factor_table(factors)


def assert_same_table(got, expected):
    """Equal rows, byte for byte, in ``first``, ``last`` and ``blocks``."""
    assert len(got) == len(expected)
    for a, b in ((got.first, expected.first), (got.last, expected.last),
                 (got.blocks, expected.blocks)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def same_bits(a, b):
    """Equal shapes and equal bits, signed zeros and NaN payloads included."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_factors(got, expected):
    assert [(f.dim, f.support) for f in got] == [(f.dim, f.support) for f in expected]
    assert [f.block.tobytes() for f in got] == [f.block.tobytes() for f in expected]
    # and their products: the package's adjoint blocks are C-order rows, the
    # reference's transposed views, and matmul gives both the same bits
    if expected:
        dim = expected[0].dim
        assert same_bits(reference_recompose(got, dim), reference_recompose(expected, dim))
        rng = np.random.default_rng(dim)
        vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        updated = [vector.copy(), vector.copy()]
        for factors, a in zip((got, expected), updated):
            for factor in reversed(factors):
                reference_apply_to(factor, a)
        assert same_bits(*updated)


def _parts(re, im):
    a = np.empty(len(re), dtype=np.complex128)
    a.real, a.imag = re, im  # set apart, so that signed zeros survive
    return a


def edge_vectors():
    """Vectors, unit or not, that reach each branch of the sweep: exact
    zeros on either side of the first nonzero entry, the pivot first or
    last, tiny and subnormal entries, signed zero parts, tiny pivots, and
    the zero vector, which is rejected."""
    yield "zeros-before-first-nonzero", np.array([0, 0, 0.6, 0, 0.8j, 0])
    yield "zeros-after-first-nonzero", np.array([0.6j, 0, 0.8, 0, 0])
    yield "pivot-first", np.array([0.9, 0.3j, -0.1, 0, 0.2 - 0.1j, 0.05])
    yield "pivot-last", np.array([0.1, 0, 0.3j, -0.2 + 0.1j, 0.9j])
    yield "below-pivot-eps", np.array([1, 1e-15, 0, 3e-15j, 0.5, 5e-16 - 5e-16j])
    yield "subnormal", _parts([5e-324, 0.8, -5e-324, 0, 1e-310, 0], [0, 0.6, 5e-324, -5e-324, 0, 0])
    yield "signed-zeros", _parts([-0.0, 0.6, 0.0, -0.0, 0.0, -0.0], [-0.0, -0.8, -0.0, 0.0, 0.0, 0.0])
    yield "negative-zero-parts", _parts([0.6, -0.0, -0.0, 0.8], [-0.0, -0.0, 0.3, 0.0])
    yield "all-zero", np.zeros(5)
    yield "one-entry", np.array([0.6 + 0.8j])
    # tiny pivots are pinned real like any other
    yield "tiny-imaginary-pivot", np.array([0, 1e-14j, 0, 0])
    yield "tiny-pivot-then-zero", np.array([1e-14j, 1e-20, 0, 0])
    # tiny moduli rotate like any other
    yield "skipped-zero", np.array([9e-15j, 0, 0, 8e-15])
    yield "all-skipped", np.array([5e-15j, 0, 0, 3e-15])
    yield "near-axis", np.array([0, 1, 1e-13, 0, -1e-12j, 0])
    # two entries tied at the largest modulus: the pivot is the first
    yield "tied-pivot", np.array([0.6, 0.8j, -0.8, 0.6j])


def random_edge_vectors(count):
    """Seeded vectors of 1 to 40 entries mixing the edge cases above."""
    rng = np.random.default_rng(2024)
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-15, -1e-14, 1e-13, 1.0, -0.5]
    for i in range(count):
        dim = int(rng.integers(1, 41))
        re, im = rng.normal(size=dim), rng.normal(size=dim)
        for part in (re, im):
            picked = rng.random(dim) < rng.uniform(0, 0.9)
            part[picked] = rng.choice(specials, picked.sum())
        vector = _parts(re, im) * 10.0 ** rng.integers(-15, 3)
        yield f"random{i}", vector


EIGENVALUES = [1, -1, cmath.exp(0.3j), 1 + 1e-13j, 2j]


def block_diagonal_unitary(dim, block, rng):
    out = np.zeros((dim, dim), dtype=np.complex128)
    for start in range(0, dim, block):
        out[start : start + block, start : start + block] = haar_random_unitary(block, rng)
    return out


def sweep_inputs():
    """Unitaries whose eigenvectors exercise the sweep: generic, sparse,
    axis-aligned and degenerate."""
    rng = RngStream(11)
    for dim in (2, 3, 4, 5, 7, 8, 12, 16, 31, 32, 64):
        yield f"haar{dim}", haar_random_unitary(dim, rng)
    yield "blockdiag128", block_diagonal_unitary(128, 4, rng)
    yield "diagonal", np.diag([cmath.exp(1j * a) for a in np.linspace(0.1, 6.0, 16)])
    yield "axis-aligned", np.eye(8, dtype=complex)[[3, 1, 0, 2, 7, 5, 6, 4]] * np.exp(
        1j * np.arange(8)
    )
    # eigenvectors a tiny rotation away from the axes: |co / r| >= ELIDE_EPS
    # while cp / r rounds to within ELIDE_EPS of 1
    near_axis = np.eye(6, dtype=complex)
    for i, angle in ((0, 1e-8), (2, 3e-7), (4, 5e-11)):
        c, s = math.cos(angle), math.sin(angle)
        near_axis[i : i + 2, i : i + 2] = [[c, -s], [s, c]]
    phases = np.exp(1j * np.arange(1, 7))
    yield "near-axis", near_axis @ np.diag(phases) @ near_axis.conj().T
    basis = haar_random_unitary(12, rng)
    phases = np.ones(12, dtype=complex)
    phases[7:] = cmath.exp(0.4j)
    phases[10] = -1
    yield "degenerate", basis @ np.diag(phases) @ basis.conj().T


def recompose_inputs():
    """Seeded Haar unitaries of D = 2 to 128 and block-diagonal ones."""
    rng = RngStream(17)
    for dim in (2, 3, 6, 9, 17, 48, 100, 128):
        yield f"haar{dim}", haar_random_unitary(dim, rng)
    for dim, block in ((12, 3), (64, 8), (128, 2)):
        yield f"blockdiag{dim}x{block}", block_diagonal_unitary(dim, block, rng)


#: Dimensions of the facts below: one entry to the decomposition cap.
FACT_DIMS = (1, 2, 5, 7, 64, 128, 256)


class TestNumpyFacts:
    """The bulk sweep of ``eigenvector_factors`` keeps the bits of the
    scalar loop on these facts; an upgrade that breaks one fails here."""

    @staticmethod
    def _values(size=20_000):
        rng = np.random.default_rng(99)
        z = _parts(rng.normal(size=size), rng.normal(size=size))
        z *= np.exp(rng.uniform(-40, 40, size))
        z[:40] = _parts([0.0, -0.0, 5e-324, -5e-324, 1e-310] * 8,
                        [-0.0, 0.0, 1.0, -5e-324, 0.0, 3e-320, -1.0, 0.5] * 5)
        r = np.abs(rng.normal(size=size)) * np.exp(rng.uniform(-40, 40, size))
        return z, r

    def test_array_division_by_reals_equals_scalar(self):
        z, r = self._values()
        scalar = np.array([z[i] / float(r[i]) for i in range(z.size)])
        assert same_bits(z / r, scalar)
        assert same_bits(np.conj(z) / r, np.array([np.conj(z[i]) / float(r[i]) for i in range(z.size)]))

    def test_hypot_of_parts_equals_scalar_abs(self):
        # np.abs of the array is not used: it rounds differently from the
        # scalar abs on about a third of these values
        z, _ = self._values()
        scalar = np.array([abs(v) for v in z])
        assert same_bits(np.hypot(z.real, z.imag), scalar)

    def test_hypot_with_zero_is_identity(self):
        _, r = self._values()
        for x in [*r.tolist(), 0.0, 5e-324, 1e-310, math.inf]:
            assert math.hypot(x, 0.0) == x
            assert math.hypot(x, -0.0) == x

    # The facts of the sweep over every eigenvector at once: each array op
    # over the (D, D) rows gives each row the bits of the op on that row
    # alone, as a fresh 1-D copy, the way one vector's loop computed it.

    @staticmethod
    def _rows(dim):
        """A C-order (dim, dim) array of ``_values``, specials scattered."""
        z, _ = TestNumpyFacts._values(max(dim * dim, 40))
        return np.random.default_rng(dim).permutation(z)[: dim * dim].reshape(dim, dim)

    @pytest.mark.parametrize("dim", FACT_DIMS)
    def test_abs_of_rows_equals_abs_of_each_row(self, dim):
        # the pivots' argmax reads these moduli
        c = self._rows(dim)
        assert same_bits(np.abs(c), np.array([np.abs(row.copy()) for row in c]))

    @pytest.mark.parametrize("dim", FACT_DIMS)
    def test_argmax_of_rows_is_each_rows_first_largest(self, dim):
        m = np.abs(self._rows(dim))
        m[:, -1] = m.max(axis=1)  # each row's largest, tied at its end
        assert np.argmax(m, axis=1).tolist() == [int(np.argmax(row)) for row in m]

    @pytest.mark.parametrize("dim", FACT_DIMS)
    def test_pivot_phases_equal_scalar(self, dim):
        p = self._rows(dim).reshape(-1)
        p = p[np.hypot(p.real, p.imag) >= np.finfo(float).tiny]  # the pivots pinned
        scalar = np.array([np.conj(v) / abs(v) for v in p], dtype=np.complex128)
        assert same_bits(np.conj(p) / np.hypot(p.real, p.imag), scalar)

    @pytest.mark.parametrize("dim", FACT_DIMS)
    def test_rows_times_column_equal_each_row_times_scalar(self, dim):
        # the pinning of the pivots: c[pin] *= phase[pin, None]
        rng = np.random.default_rng(dim)
        c = self._rows(dim)
        phase = np.exp(1j * rng.uniform(0, 2 * math.pi, dim))
        phase[: min(dim, 3)] = [1, -1j, -1][: min(dim, 3)]
        pin = rng.random(dim) < 0.8
        got = c.copy()
        got[pin] *= phase[pin, None]
        expected = c.copy()
        for k in np.flatnonzero(pin).tolist():
            row = c[k].copy()
            row *= phase[k]  # a numpy complex scalar
            expected[k] = row
        assert same_bits(got, expected)

    @pytest.mark.parametrize("dim", FACT_DIMS)
    def test_hypot_of_rows_equals_hypot_of_each_row(self, dim):
        c = self._rows(dim)
        rows = [np.hypot(row.copy().real, row.copy().imag) for row in c]
        assert same_bits(np.hypot(c.real, c.imag), np.array(rows).reshape(dim, dim))

    def test_hypot_is_never_below_its_first_argument(self):
        # so each rotation's r is at least its pivot's modulus, which is at
        # least the smallest normal float: no block divides by a subnormal r
        z, r = self._values()
        moduli = [*np.hypot(z.real, z.imag).tolist(), 0.0, 5e-324, 1e-310, 1e-15, 1e-14]
        for x, y in zip(r.tolist() + moduli, moduli + r.tolist()):
            assert math.hypot(x, y) >= x


class TestEigensystem:
    def test_pauli_z(self):
        values, vectors = unitary_eigensystem(pauli_z())
        assert sorted(values.real) == [-1, 1]
        assert np.allclose(np.abs(vectors), np.eye(2), atol=1e-12)

    def test_hadamard_eigenvalues(self):
        values, _ = unitary_eigensystem(hadamard())
        assert np.allclose(sorted(values.real), [-1, 1], atol=1e-12)
        assert np.allclose(values.imag, 0, atol=1e-12)

    def test_random_unitaries_residuals(self):
        rng = RngStream(1)
        for dim in (2, 5, 16):
            u = haar_random_unitary(dim, rng)
            values, vectors = unitary_eigensystem(u)
            assert np.max(np.abs(np.abs(values) - 1)) <= 1e-10
            assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(dim))) <= 1e-9
            residual = u @ vectors - vectors * values
            assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-8

    def test_degenerate_spectrum_orthonormal(self):
        # identity block plus one phase: a heavily degenerate spectrum
        phases = np.ones(6, dtype=complex)
        phases[5] = cmath.exp(0.4j)
        rng = RngStream(2)
        basis = haar_random_unitary(6, rng)
        u = basis @ np.diag(phases) @ basis.conj().T
        values, vectors = unitary_eigensystem(u)
        assert np.max(np.abs(vectors.conj().T @ vectors - np.eye(6))) <= 1e-9
        residual = u @ vectors - vectors * values
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            unitary_eigensystem(np.ones((3, 3)))


class TestTwoLevelFactor:
    def test_expand_places_block_on_support(self):
        block = np.array([[0, 1], [-1, 0]], dtype=complex)
        factor = TwoLevelFactor(4, (1, 3), block)
        dense = factor.expand()
        off_support = [0, 2]
        assert np.array_equal(dense[np.ix_(off_support, off_support)], np.eye(2))
        assert np.array_equal(dense[np.ix_((1, 3), (1, 3))], block)

    @pytest.mark.parametrize("support", [(2,), (0, 5), (1, 2), (3, 4)])
    @pytest.mark.parametrize("columns", [None, 1, 3])
    def test_apply_to_is_expand_product(self, support, columns):
        rng = np.random.default_rng(sum(support))
        block = haar_random_unitary(len(support), RngStream(len(support)))
        factor = TwoLevelFactor(6, support, block)
        shape = (6,) if columns is None else (6, columns)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        expected = factor.expand() @ a
        factor.apply_to(a)
        assert np.allclose(a, expected, rtol=0, atol=1e-15)

    def test_apply_to_rejects_other_dimension(self):
        factor = TwoLevelFactor(4, (1, 3), np.eye(2, dtype=complex))
        with pytest.raises(DimensionMismatch):
            factor.apply_to(np.ones(5, dtype=complex))

    def test_support_validation(self):
        with pytest.raises(InvalidInput):
            TwoLevelFactor(4, (3, 1), np.eye(2, dtype=complex))
        with pytest.raises(DimensionMismatch):
            TwoLevelFactor(4, (1,), np.eye(2, dtype=complex))


class TestEigenvectorScale:
    """The factors of a vector at any scale multiply its unit vector by the
    eigenvalue's phase and fix the vectors orthogonal to it."""

    @staticmethod
    def _check(vector, eigenvalue):
        dim = vector.size
        unit = vector / np.abs(vector).max()  # no norm of a tiny or huge vector
        unit /= np.linalg.norm(unit)
        rng = np.random.default_rng(dim)
        other = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        other -= np.vdot(unit, other) * unit
        other /= np.linalg.norm(other)
        product = recompose(eigenvector_factors(vector, eigenvalue), dim)
        lam = complex(eigenvalue) / abs(eigenvalue)
        assert np.linalg.norm(product @ unit - lam * unit) <= 1e-12
        assert np.linalg.norm(product @ other - other) <= 1e-12
        assert np.linalg.norm(product.conj().T @ product - np.eye(dim)) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-15, 1e-100, 1e-300, 1e300])
    @pytest.mark.parametrize("dim", [2, 5, 17, 64])
    def test_seeded_vectors(self, dim, scale):
        rng = np.random.default_rng([dim, 400 + round(math.log10(scale))])
        vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vector *= scale / np.abs(vector).max()
        for eigenvalue in EIGENVALUES:
            self._check(vector, eigenvalue)

    @pytest.mark.parametrize("vector", [
        pytest.param(np.array([1e-15, 1e-15]), id="tiny-pair"),
        pytest.param(np.array([3e-15, 4e-15j]), id="tiny-complex-pair"),
        pytest.param(np.array([np.finfo(float).tiny, 5e-324j, 0]), id="smallest-normal-pivot"),
    ])
    def test_tiny_vectors(self, vector):
        for eigenvalue in EIGENVALUES:
            self._check(vector, eigenvalue)

    @pytest.mark.parametrize("vector", [
        pytest.param(np.zeros(4), id="zero"),
        pytest.param(np.array([5e-324, -1e-310j, 0, 2e-308]), id="subnormal"),
    ])
    def test_zero_and_subnormal_vectors_rejected(self, vector):
        message = "^eigenvector entries must not all be zero or subnormal$"
        with pytest.raises(InvalidInput, match=message):
            eigenvector_factors(vector, -1)


class TestDecompose:
    def test_identity_gives_no_factors(self):
        for dim in (2, 5, 8):
            assert two_level_decompose(np.eye(dim, dtype=complex)) == []

    def test_diagonal_gives_single_index_phases(self):
        angles = [0.5, 1.3, 2.1, 4.0]
        u = np.diag([cmath.exp(1j * a) for a in angles])
        factors = two_level_decompose(u)
        assert len(factors) == 4
        assert all(len(f.support) == 1 for f in factors)
        assert np.max(np.abs(recompose(factors, 4) - u)) <= 1e-12

    def test_random_eight_dim_round_trip(self):
        rng = RngStream(3)
        for _ in range(10):
            u = haar_random_unitary(8, rng)
            factors = two_level_decompose(u)
            assert len(factors) <= 2 * 64 - 8
            assert all(len(f.support) <= 2 for f in factors)
            error = np.linalg.norm(recompose(factors, 8) - u)
            assert error <= 1e-8

    def test_factors_are_unitary_and_local(self):
        rng = RngStream(4)
        u = haar_random_unitary(6, rng)
        for factor in two_level_decompose(u):
            dense = factor.expand()
            assert np.max(np.abs(dense.conj().T @ dense - np.eye(6))) <= 1e-9
            mask = np.ones((6, 6), dtype=bool)
            mask[np.ix_(factor.support, factor.support)] = False
            deviation = np.abs(dense - np.eye(6))
            assert np.max(deviation[mask]) == 0.0

    @pytest.mark.parametrize("u", [pytest.param(u, id=name) for name, u in sweep_inputs()])
    def test_sweep_bytes_equal_reference(self, u):
        values, vectors = unitary_eigensystem(u)
        for k in range(u.shape[0]):
            got = eigenvector_factors(vectors[:, k], values[k])
            expected = reference_eigenvector_factors(vectors[:, k], values[k])
            assert_same_factors(got, expected)

    @pytest.mark.parametrize("vector", [
        pytest.param(v, id=name) for name, v in [*edge_vectors(), *random_edge_vectors(300)]
    ])
    def test_edge_vectors_bytes_equal_reference(self, vector):
        if not np.abs(vector).max() >= np.finfo(float).tiny:
            with pytest.raises(InvalidInput):
                eigenvector_factors(vector, 1)
            return
        for eigenvalue in EIGENVALUES:
            assert_same_factors(
                eigenvector_factors(vector, eigenvalue),
                reference_eigenvector_factors(vector, eigenvalue),
            )

    def test_non_interference_of_eigenvector_blocks(self):
        # the partial product over later eigenvectors must fix earlier ones
        rng = RngStream(5)
        u = haar_random_unitary(8, rng)
        values, vectors = unitary_eigensystem(u)
        groups = [
            eigenvector_factors(vectors[:, k], values[k]) for k in range(8)
        ]
        partial = np.eye(8, dtype=complex)
        for k in reversed(range(8)):
            partial = recompose(groups[k], 8) @ partial
            for j in range(8):
                expected = values[j] * vectors[:, j] if j >= k else vectors[:, j]
                assert np.linalg.norm(partial @ vectors[:, j] - expected) <= 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(NotUnitary):
            two_level_decompose(np.ones((4, 4)))

    def test_dimension_cap(self):
        with pytest.raises(InvalidInput):
            two_level_decompose(np.eye(512, dtype=complex))

    @pytest.mark.parametrize(
        "u", [np.eye(257), np.ones((257, 257))], ids=["unitary", "not_unitary"]
    )
    def test_cap_checked_before_unitarity(self, u):
        message = "^dimension 257 exceeds the decomposition cap of 256$"
        with pytest.raises(InvalidInput, match=message):
            two_level_decompose(u)


class TestRecompose:
    def test_empty_is_identity(self):
        assert np.array_equal(recompose([], 3), np.eye(3, dtype=complex))

    def test_single_factor_is_its_expansion(self):
        block = np.array([[0, 1], [1, 0]], dtype=complex)
        factor = TwoLevelFactor(3, (0, 2), block)
        assert np.array_equal(recompose([factor], 3), factor.expand())

    def test_left_factor_applied_last(self):
        swap01 = TwoLevelFactor(3, (0, 1), np.array([[0, 1], [1, 0]], dtype=complex))
        phase2 = TwoLevelFactor(3, (2,), np.array([[1j]], dtype=complex))
        product = recompose([swap01, phase2], 3)
        vec = np.array([0, 0, 1], dtype=complex)
        # phase2 acts first, then the swap (which leaves index 2 alone)
        assert np.allclose(product @ vec, [0, 0, 1j])

    def test_mixed_dimensions_rejected(self):
        factor = TwoLevelFactor(3, (0,), np.array([[1j]], dtype=complex))
        with pytest.raises(DimensionMismatch):
            recompose([factor], 4)

    def test_mixed_dimensions_rejected_before_any_row(self):
        good = TwoLevelFactor(3, (0, 1), np.array([[0, 1], [1, 0]], dtype=complex))
        bad = TwoLevelFactor(4, (2,), np.array([[1j]], dtype=complex))
        for factors in ([good, bad, good], [bad, good], [good, bad]):
            with pytest.raises(DimensionMismatch, match="^factor of dimension 4 applied to 3 rows$"):
                recompose(factors, 3)

    @pytest.mark.parametrize("u", [
        pytest.param(u, id=name) for name, u in [*sweep_inputs(), *recompose_inputs()]
    ])
    def test_bits_equal_per_factor_loop(self, u):
        factors = two_level_decompose(u)
        dim = u.shape[0]
        assert same_bits(recompose(factors, dim), reference_recompose(factors, dim))

    def test_matches_dense_product(self):
        rng = RngStream(12)
        cases = [haar_random_unitary(dim, rng) for dim in (2, 3, 5, 8, 16, 33, 64)]
        cases.append(block_diagonal_unitary(128, 4, rng))
        for u in cases:
            factors = two_level_decompose(u)
            dim = u.shape[0]
            assert np.allclose(recompose(factors, dim), dense_product(factors, dim),
                               rtol=0, atol=1e-13)

    def test_never_expands(self, monkeypatch):
        factors = two_level_decompose(haar_random_unitary(8, RngStream(13)))

        def refuse(self):
            raise AssertionError("expand() called")

        monkeypatch.setattr(TwoLevelFactor, "expand", refuse)
        recompose(factors, 8)
        apply_factors(factors, rand_state(3, RngStream(14)))


class TestApplyFactors:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_bits_equal_per_factor_loop(self, n):
        rng = RngStream(40 + n)
        factors = two_level_decompose(haar_random_unitary(1 << n, rng))
        for _ in range(3):
            s = rand_state(n, rng)
            expected = s.amplitudes.copy()
            for factor in reversed(factors):
                reference_apply_to(factor, expected)
            expected = StateVector._trusted(expected).amplitudes  # as apply_factors returns it
            assert same_bits(apply_factors(factors, s).amplitudes, expected)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_recomposed_matrix(self, n):
        rng = RngStream(20 + n)
        factors = two_level_decompose(haar_random_unitary(1 << n, rng))
        for _ in range(3):
            s = rand_state(n, rng)
            got = apply_factors(factors, s)
            expected = apply(recompose(factors, 1 << n), s)
            assert got.num_qubits == n
            assert np.allclose(got.amplitudes, expected.amplitudes, rtol=0, atol=1e-13)

    def test_input_state_unchanged(self):
        s = rand_state(2, RngStream(30))
        before = s.amplitudes.copy()
        factors = two_level_decompose(haar_random_unitary(4, RngStream(31)))
        out = apply_factors(factors, s)
        assert np.array_equal(s.amplitudes, before)
        assert not np.shares_memory(out.amplitudes, s.amplitudes)

    def test_dimension_mismatch(self):
        factor = TwoLevelFactor(3, (0,), np.array([[1j]], dtype=complex))
        with pytest.raises(DimensionMismatch):
            apply_factors([factor], rand_state(2, RngStream(32)))


TABLE_UNITARIES = dict(table_unitaries())


@functools.cache
def _table(name):
    return decompose_table(TABLE_UNITARIES[name])


class TestFactorTable:
    @pytest.mark.parametrize("name", TABLE_UNITARIES)
    def test_list_equals_table_rows(self, name):
        table = _table(name)
        factors = two_level_decompose(TABLE_UNITARIES[name])
        assert len(factors) == len(table)
        assert all(f.dim == table.dim for f in factors)
        ends = zip(table.first.tolist(), table.last.tolist())
        assert [f.support for f in factors] == [(a, b) if a != b else (a,) for a, b in ends]
        blocks, pairs = table.blocks, table.first != table.last
        for two, expected in ((True, blocks[pairs]), (False, blocks[~pairs, :1, :1])):
            got = [f.block for f, row in zip(factors, pairs) if row == two]
            assert np.stack(got or [expected[:0]]).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", TABLE_UNITARIES)
    def test_recompose_of_list_and_table_agree(self, name):
        table = _table(name)
        factors = table.factors()
        assert same_bits(recompose(factors, table.dim), recompose(table, table.dim))
        n = table.dim.bit_length() - 1
        if 1 << n == table.dim:  # a state's dimension is a power of two
            s = rand_state(n, RngStream(table.dim))
            assert same_bits(apply_factors(factors, s).amplitudes,
                             apply_factors(table, s).amplitudes)

    @pytest.mark.parametrize("name", TABLE_UNITARIES)
    def test_sweep_equals_reference(self, name):
        u = TABLE_UNITARIES[name]
        values, vectors = unitary_eigensystem(u)
        # every eigenvector below D = 256, and a spread of eight above
        columns = range(u.shape[0]) if u.shape[0] < 256 else range(0, 256, 37)
        for k in columns:
            assert_same_factors(eigenvector_factors(vectors[:, k], values[k]),
                                reference_eigenvector_factors(vectors[:, k], values[k]))

    @pytest.mark.parametrize("u", [
        pytest.param(u, id=f"{kind}-{name}") for kind, cases in (
            ("sweep", sweep_inputs()), ("table", table_unitaries()),
            ("dim1", [("phase", np.array([[cmath.exp(0.7j)]])), ("identity", np.eye(1))]))
        for name, u in cases
    ])
    def test_table_equals_reference_of_every_eigenvector(self, u):
        assert_same_table(decompose_table(u), reference_table(*unitary_eigensystem(u)))

    def test_table_equals_reference_on_tied_pivots(self, monkeypatch):
        # eigenvectors 1 to 4 have four entries tied at modulus 1/2, real or
        # imaginary: each pivot is the first of the four.  The eigensystem
        # is given, since a Schur factorisation would round the ties apart.
        vectors = np.eye(6, dtype=complex)
        hadamard4 = np.kron([[1, 1], [1, -1]], [[1, 1], [1, -1]])
        vectors[1:5, 1:5] = 0.5 * hadamard4 * np.array([1, 1j, -1, -1j])
        values = np.exp(1j * np.array([0.3, 1.1, 2.0, -0.7, 0.0, 2.5]))
        u = vectors @ np.diag(values) @ vectors.conj().T
        monkeypatch.setattr("ketsim.decompose._schur_eigensystem", lambda m: (values, vectors))
        table = decompose_table(u)
        assert len(table) and set(table.first[table.first == table.last].tolist()) >= {1}
        assert_same_table(table, reference_table(values, vectors))

    def test_table_holds_exactly_its_rows(self):
        table = _table("blockdiag128")
        for column in (table.first, table.last, table.blocks):
            assert column.base is None and len(column) == len(table)

    @pytest.mark.parametrize("u, phases", [
        pytest.param(np.eye(4), 0, id="empty"),
        pytest.param(np.diag(np.exp(1j * np.arange(1, 9))), 8, id="phases-only"),
        pytest.param(np.array([[cmath.exp(0.7j)]]), 1, id="dim1"),
        pytest.param(haar_random_unitary(8, RngStream(6)), None, id="haar8"),
    ])
    def test_recompose_and_state_equal_reference(self, u, phases):
        table, dim = decompose_table(u), u.shape[0]
        factors = table.factors()
        if phases is not None:  # a table of phases alone
            assert len(table) == phases and np.array_equal(table.first, table.last)
        assert same_bits(recompose(table, dim), reference_recompose(factors, dim))
        s = rand_state(dim.bit_length() - 1, RngStream(dim))
        expected = s.amplitudes.copy()
        for factor in reversed(factors):
            reference_apply_to(factor, expected)
        expected = StateVector._trusted(expected).amplitudes  # as apply_factors returns it
        assert same_bits(apply_factors(table, s).amplitudes, expected)

    def test_factors_round_trip_in_c_order(self):
        table = _table("haar5")
        copy = factor_table(table.factors())
        for got, expected in ((copy.first, table.first), (copy.last, table.last),
                              (copy.blocks, table.blocks)):
            assert got.tobytes() == expected.tobytes()

    def test_dimension_mismatch(self):
        table = _table("haar5")
        with pytest.raises(DimensionMismatch, match="^factor of dimension 5 applied to 4 rows$"):
            recompose(table, 4)
        assert np.array_equal(recompose(table[:0], 4), np.eye(4))


class TestBlockLayout:
    """The property that lets a table hold every block as a C-order row:
    ``block @ rows`` has the same bits whatever the block's strides, so an
    adjoint row equals the reference's transposed view and a phase's
    corner of a padded row equals a fresh 1x1.  If a numpy or BLAS update
    makes layout matter, this test says so."""

    @pytest.mark.parametrize("dim", [2, 5, 64, 256])
    @pytest.mark.parametrize("matrix", [False, True], ids=["vector", "matrix"])
    def test_product_bits_do_not_depend_on_block_strides(self, dim, matrix):
        rng = np.random.default_rng(dim)
        shape = (dim, dim) if matrix else (dim,)
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for _ in range(100):
            first, last = sorted(rng.choice(dim, 2, replace=False).tolist())
            rows = a[first : last + 1 : last - first]
            block = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            transposed = np.ascontiguousarray(block.T).T
            assert transposed.strides == block.strides[::-1]
            assert same_bits(block @ rows, transposed @ rows)
            padded = np.zeros((2, 2), dtype=np.complex128)
            padded[0, 0] = block[0, 0]
            row = a[first : first + 1]
            assert same_bits(block[:1, :1].copy() @ row, padded[:1, :1] @ row)


class TestHaarRandomUnitary:
    def test_deterministic_by_seed(self):
        a = haar_random_unitary(5, RngStream(7))
        b = haar_random_unitary(5, RngStream(7))
        assert np.array_equal(a, b)

    def test_unitary(self):
        rng = RngStream(8)
        for dim in (2, 4, 16):
            u = haar_random_unitary(dim, rng)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-12


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: TwoLevelFactor(4, (0, 1, 2), np.eye(3)),
                     "support must hold one or two coordinate indices", id="factor-support"),
        pytest.param(lambda: TwoLevelFactor(3, (0, 7), np.eye(2)),
                     "support must lie in range(3)", id="factor-support-above-dim"),
        pytest.param(lambda: TwoLevelFactor(3, (-2, 0), np.eye(2)),
                     "support must lie in range(3)", id="factor-support-negative"),
        pytest.param(lambda: TwoLevelFactor(3, (3,), np.eye(1)),
                     "support must lie in range(3)", id="factor-phase-at-dim"),
        pytest.param(lambda: haar_random_unitary(0, RngStream(0)),
                     "dimension must be positive", id="haar-dimension-0"),
        pytest.param(lambda: unitary_eigensystem(np.zeros((0, 0))),
                     "dimension must be positive", id="eigensystem-dimension-0"),
        pytest.param(lambda: two_level_decompose(np.zeros((0, 0))),
                     "dimension must be positive", id="decompose-dimension-0"),
        pytest.param(lambda: decompose_table(np.zeros((0, 0))),
                     "dimension must be positive", id="decompose-table-dimension-0"),
        # checked before the sweep, which would fail differently on each
        pytest.param(lambda: eigenvector_factors(np.zeros(0), 1),
                     "eigenvector must be a nonempty finite 1-d array", id="eigenvector-empty"),
        pytest.param(lambda: eigenvector_factors(np.eye(2), 1),
                     "eigenvector must be a nonempty finite 1-d array", id="eigenvector-2d"),
        pytest.param(lambda: eigenvector_factors(np.array([math.nan, 1.0]), 1),
                     "eigenvector must be a nonempty finite 1-d array", id="eigenvector-nan"),
        pytest.param(lambda: eigenvector_factors(np.array([1.0, complex(0, math.inf)]), 1),
                     "eigenvector must be a nonempty finite 1-d array", id="eigenvector-inf"),
        pytest.param(lambda: eigenvector_factors(np.array([1.0, 0.0]), 0),
                     "eigenvalue must be finite and nonzero", id="eigenvalue-0"),
        pytest.param(lambda: eigenvector_factors(np.array([1.0, 0.0]), math.nan),
                     "eigenvalue must be finite and nonzero", id="eigenvalue-nan"),
        pytest.param(lambda: eigenvector_factors(np.array([0.6, 0.8]), complex(math.inf, 0)),
                     "eigenvalue must be finite and nonzero", id="eigenvalue-inf"),
    ],
)
def test_raise_site(call, message):
    with pytest.raises(InvalidInput) as err:
        call()
    assert type(err.value) is InvalidInput and str(err.value) == message
