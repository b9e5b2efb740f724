import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ketsim
from ketsim import (
    DimensionMismatch,
    states_equivalent,
    InvalidInput,
    RngStream,
    StateVector,
    TruthTable,
    apply,
    apply_gate_at,
    apply_oracle_at,
    basis_cloner,
    bell_pair,
    classical_toffoli,
    cnot,
    embed_single,
    embed_two,
    hadamard,
    identity,
    is_product_split,
    is_unitary,
    ket,
    nand_via_toffoli,
    oracle_from_truth_table,
    pauli_x,
    pauli_y,
    pauli_z,
    tensor,
    toffoli_unitary,
    u2_from_params,
    walsh_hadamard,
)
from ketsim.decompose import haar_random_unitary
from ketsim.errors import CapacityExceeded
from ketsim.gates import _GatePlan, _IndexGather, _OraclePlan
from conftest import kron_chain, rand_state

SQ2 = math.sqrt(0.5)


def random_u2(rng):
    return u2_from_params(*(rng.uniform() * 2 * math.pi for _ in range(4)))


class TestGateConstants:
    def test_pauli_and_hadamard_entries(self):
        assert np.array_equal(pauli_x(), [[0, 1], [1, 0]])
        assert np.array_equal(pauli_y(), [[0, -1j], [1j, 0]])
        assert np.array_equal(pauli_z(), [[1, 0], [0, -1]])
        assert np.array_equal(hadamard(), np.array([[1, 1], [1, -1]]) * SQ2)
        assert np.allclose(hadamard(), np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)

    def test_actions_on_generic_qubit(self):
        rng = RngStream(1)
        s = rand_state(1, rng)
        a, b = s.amplitudes
        assert np.allclose(apply(pauli_x(), s).amplitudes, [b, a], atol=1e-15)
        assert np.allclose(apply(pauli_z(), s).amplitudes, [a, -b], atol=1e-15)
        # matrix action (-ib, ia); equals -i(-b|0> + a|1>) up to a global sign
        got = apply(pauli_y(), s)
        assert np.allclose(got.amplitudes, [-1j * b, 1j * a], atol=1e-15)
        assert states_equivalent(got, StateVector(-1j * np.array([-b, a])), tol=1e-12)

    def test_involutions_exact(self):
        eye = np.eye(2, dtype=complex)
        for gate in (pauli_x(), pauli_y(), pauli_z()):
            assert np.array_equal(gate @ gate, eye)
        # H has irrational entries; its square meets the identity at the
        # rounding floor, and the integer core squares exactly to 2I.
        core = np.array([[1, 1], [1, -1]])
        assert np.array_equal(core @ core, 2 * np.eye(2, dtype=int))
        h = hadamard()
        assert np.max(np.abs(h @ h - eye)) <= 4 * np.finfo(float).eps

    def test_all_pass_unitarity(self):
        for gate in (pauli_x(), pauli_y(), pauli_z(), hadamard(), cnot(), toffoli_unitary()):
            assert is_unitary(gate, 1e-9)


class TestU2:
    def test_zero_params_identity(self):
        assert np.array_equal(u2_from_params(0, 0, 0, 0), np.eye(2, dtype=complex))

    def test_plane_rotation(self):
        c = 0.8
        expected = [[math.cos(c), -math.sin(c)], [math.sin(c), math.cos(c)]]
        assert np.allclose(u2_from_params(0, 0, c, 0), expected, atol=1e-15)

    def test_random_unitary(self):
        rng = RngStream(2)
        for _ in range(100):
            assert is_unitary(random_u2(rng), 1e-9)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            u2_from_params(math.inf, 0, 0, 0)

    def test_entries_match_three_factor_product(self):
        rng = random.Random(36)
        for _ in range(2000):
            a, b, c, d = (rng.uniform(-7, 7) for _ in range(4))
            first = np.array([[math.cos(b), -1j * math.sin(b)], [-1j * math.sin(b), math.cos(b)]])
            second = np.array([[math.cos(c), -math.sin(c)], [math.sin(c), math.cos(c)]])
            third = np.diag([complex(math.cos(d), -math.sin(d)), complex(math.cos(d), math.sin(d))])
            expected = complex(math.cos(a), math.sin(a)) * (first @ second @ third)
            m = u2_from_params(a, b, c, d)
            assert m.dtype == np.complex128 and m.shape == (2, 2)
            assert np.abs(m - expected).max() <= 1e-15
            assert is_unitary(m, 2e-15)

    def test_bits_same_under_every_kernel(self):
        # built from Python scalars: the BLAS and SIMD kernels picked for
        # the CPU play no part in the entries' bits
        script = (
            "import random\n"
            "from ketsim import u2_from_params\n"
            "rng = random.Random(7)\n"
            "for _ in range(200):\n"
            "    print(u2_from_params(*(rng.uniform(-7, 7) for _ in range(4))).tobytes().hex())\n"
        )
        outputs = []
        for setting in ({}, {"OPENBLAS_CORETYPE": "Sandybridge"},
                        {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4"}):
            env = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
            env.update(setting, PYTHONPATH=str(Path(ketsim.__file__).parents[1]))
            result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                    text=True, env=env, timeout=120)
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0].count("\n") == 200
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


class TestCnot:
    def test_truth_action(self):
        assert np.array_equal(apply(cnot(), ket([1, 0])).amplitudes, ket([1, 1]).amplitudes)
        assert np.array_equal(apply(cnot(), ket([0, 1])).amplitudes, ket([0, 1]).amplitudes)

    def test_amplitude_permutation(self):
        rng = RngStream(3)
        s = rand_state(2, rng)
        a, b, c, d = s.amplitudes
        assert np.array_equal(apply(cnot(), s).amplitudes, [a, b, d, c])


class TestToffoli:
    # full input-output table of the reversible gate
    TABLE = [
        ((0, 0, 0), (0, 0, 0)),
        ((0, 0, 1), (0, 0, 1)),
        ((0, 1, 0), (0, 1, 0)),
        ((0, 1, 1), (0, 1, 1)),
        ((1, 0, 0), (1, 0, 0)),
        ((1, 0, 1), (1, 0, 1)),
        ((1, 1, 0), (1, 1, 1)),
        ((1, 1, 1), (1, 1, 0)),
    ]

    @pytest.mark.parametrize("inp,out", TABLE)
    def test_classical_table(self, inp, out):
        assert classical_toffoli(*inp) == out

    def test_self_inverse(self):
        for inp, _ in self.TABLE:
            assert classical_toffoli(*classical_toffoli(*inp)) == inp

    def test_unitary_matches_table(self):
        t = toffoli_unitary()
        for inp, out in self.TABLE:
            assert np.array_equal(apply(t, ket(list(inp))).amplitudes, ket(list(out)).amplitudes)

    def test_unitary_self_inverse_exact(self):
        t = toffoli_unitary()
        assert np.array_equal(t @ t, np.eye(8, dtype=complex))

    def test_bad_bit_rejected(self):
        with pytest.raises(InvalidInput):
            classical_toffoli(2, 0, 0)


class TestNand:
    def test_known_values(self):
        assert nand_via_toffoli(1, 1) == 0
        assert nand_via_toffoli(0, 0) == 1

    def test_matches_not_and(self):
        for a in (0, 1):
            for b in (0, 1):
                assert nand_via_toffoli(a, b) == 1 - (a & b)


class TestBellPair:
    def test_amplitudes(self):
        assert np.allclose(bell_pair(0, 0).amplitudes, [SQ2, 0, 0, SQ2])
        assert np.allclose(bell_pair(0, 1).amplitudes, [0, SQ2, SQ2, 0])
        assert np.allclose(bell_pair(1, 0).amplitudes, [SQ2, 0, 0, -SQ2])
        assert np.allclose(bell_pair(1, 1).amplitudes, [0, SQ2, -SQ2, 0])

    def test_orthonormal_family(self):
        states = [bell_pair(i, j).amplitudes for i in (0, 1) for j in (0, 1)]
        gram = np.array([[np.vdot(u, v) for v in states] for u in states])
        assert np.allclose(gram, np.eye(4), atol=1e-15)

    def test_all_entangled(self):
        for i in (0, 1):
            for j in (0, 1):
                assert not is_product_split(bell_pair(i, j), 1)

    def test_bad_bits(self):
        with pytest.raises(InvalidInput):
            bell_pair(2, 0)


def _move_front(targets, n: int) -> np.ndarray:
    """Permutation matrix sending the listed qubits, in order, to the front."""
    dim = 1 << n
    perm = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n) if q not in targets]
    for b in range(dim):
        bits = [(b >> (n - 1 - q)) & 1 for q in range(n)]
        new_bits = [bits[q] for q in targets] + [bits[q] for q in rest]
        target = int("".join(map(str, new_bits)), 2)
        perm[target, b] = 1
    return perm


def _kron_oracle(g: np.ndarray, targets, n: int) -> np.ndarray:
    """Dense action of ``g`` on ``targets``, built without the package kernels."""
    perm = _move_front(targets, n)
    return perm.T @ kron_chain(g, np.eye(1 << (n - len(targets)))) @ perm


class TestEmbeddings:
    def test_single_n1_is_gate(self):
        assert np.array_equal(embed_single(pauli_x(), 0, 1), pauli_x())

    def test_single_low_qubit(self):
        got = apply(embed_single(pauli_x(), 1, 2), ket([0, 0]))
        assert np.array_equal(got.amplitudes, ket([0, 1]).amplitudes)

    def test_single_high_qubit(self):
        got = apply(embed_single(hadamard(), 0, 2), ket([0, 0]))
        expected = tensor(apply(hadamard(), ket([0])), ket([0]))
        assert np.allclose(got.amplitudes, expected.amplitudes, atol=1e-15)

    def test_single_matches_kron_oracle(self):
        rng = RngStream(4)
        for n in (2, 3):
            for i in range(n):
                g = random_u2(rng)
                expected = kron_chain(identity(1 << i), g, identity(1 << (n - 1 - i)))
                assert np.allclose(embed_single(g, i, n), expected, atol=1e-14)

    def test_disjoint_supports_commute(self):
        rng = RngStream(5)
        a = embed_single(random_u2(rng), 0, 3)
        b = embed_single(random_u2(rng), 2, 3)
        assert np.max(np.abs(a @ b - b @ a)) <= 1e-12

    def test_single_index_out_of_range(self):
        with pytest.raises(InvalidInput):
            embed_single(pauli_x(), 2, 2)

    def test_two_n2_is_gate(self):
        assert np.array_equal(embed_two(cnot(), 0, 1, 2), cnot())

    def test_two_control_low_target_high(self):
        got = apply(embed_two(cnot(), 0, 2, 3), ket([1, 0, 0]))
        assert np.array_equal(got.amplitudes, ket([1, 0, 1]).amplitudes)

    def test_two_reversed_order(self):
        got = apply(embed_two(cnot(), 2, 0, 3), ket([0, 0, 1]))
        assert np.array_equal(got.amplitudes, ket([1, 0, 1]).amplitudes)

    def test_two_cnot_matches_bit_logic(self):
        # permutation oracle: flip target bit wherever the control bit is set
        for n in (2, 3):
            for i in range(n):
                for j in range(n):
                    if i == j:
                        continue
                    got = embed_two(cnot(), i, j, n)
                    for b in range(1 << n):
                        control = (b >> (n - 1 - i)) & 1
                        expected = b ^ (control << (n - 1 - j))
                        column = np.zeros(1 << n)
                        column[expected] = 1
                        assert np.array_equal(got[:, b], column)

    def test_two_matches_permuted_kron_oracle(self):
        rng = RngStream(6)
        for n in (2, 3, 4, 5):
            for i, j in itertools.permutations(range(n), 2):
                g = np.kron(random_u2(rng), random_u2(rng)) @ cnot()
                expected = _kron_oracle(g, (i, j), n)
                assert np.allclose(embed_two(g, i, j, n), expected, atol=1e-13)

    def test_two_same_qubit_rejected(self):
        with pytest.raises(InvalidInput):
            embed_two(cnot(), 1, 1, 3)


class TestApply:
    def test_identity(self):
        rng = RngStream(7)
        s = rand_state(2, rng)
        assert np.array_equal(apply(identity(4), s).amplitudes, s.amplitudes)

    def test_hadamard_on_zero(self):
        assert np.allclose(apply(hadamard(), ket([0])).amplitudes, [SQ2, SQ2])

    def test_double_not_is_identity(self):
        rng = RngStream(8)
        s = rand_state(1, rng)
        assert np.allclose(apply(pauli_x(), apply(pauli_x(), s)).amplitudes, s.amplitudes)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            apply(cnot(), ket([0]))


class TestApplyGateAt:
    def test_single_equals_apply(self):
        got = apply_gate_at(hadamard(), [0], ket([0]))
        assert np.allclose(got.amplitudes, [SQ2, SQ2])

    def test_cnot_pair(self):
        got = apply_gate_at(cnot(), [0, 1], ket([1, 0]))
        assert np.array_equal(got.amplitudes, ket([1, 1]).amplitudes)

    def test_matches_dense_embedding_oracle(self):
        # every ordered target tuple of 1, 2 and 3 qubits on up to 5 qubits
        rng = RngStream(9)
        fixed = {1: hadamard(), 2: cnot(), 3: toffoli_unitary()}
        for n in range(1, 6):
            s = rand_state(n, rng)
            for k in range(1, min(n, 3) + 1):
                for targets in itertools.permutations(range(n), k):
                    for g in (fixed[k], haar_random_unitary(1 << k, rng)):
                        dense = _kron_oracle(g, targets, n) @ s.amplitudes
                        fast = apply_gate_at(g, list(targets), s)
                        assert np.max(np.abs(dense - fast.amplitudes)) <= 1e-12

    def test_duplicate_targets_rejected(self):
        with pytest.raises(InvalidInput):
            apply_gate_at(cnot(), [0, 0], ket([0, 0]))

    def test_large_states_match_whole_state_contraction(self):
        # 2**16 amplitudes span several cache-sized blocks of the kernel
        rng = RngStream(16)
        n = 16
        s = rand_state(n, rng)
        permutations = {1: pauli_x(), 2: cnot(), 3: toffoli_unitary()}
        for targets in ([0], [7], [15], [15, 0], [3, 4], [14, 2, 9], [13, 14, 15]):
            k = len(targets)
            moved = np.moveaxis(s.amplitudes.reshape([2] * n), targets, range(k))
            for g in (haar_random_unitary(1 << k, rng), permutations[k]):
                product = (g @ moved.reshape(1 << k, -1)).reshape(moved.shape)
                expected = np.moveaxis(product, range(k), targets).reshape(-1)
                got = apply_gate_at(g, targets, s)
                assert np.max(np.abs(got.amplitudes - expected)) <= 1e-12


def _staged(targets, amps, n, kernel):
    """The kernels' former block loop: gather the 2**k target slices of one
    cache-sized block into a buffer, run ``kernel(rows_in, rows_out)`` on
    its (2**k, -1) rows, scatter the result back."""
    k = len(targets)
    shape, axes, prev = [], {}, -1
    for q in sorted(targets):
        if q - prev > 1:
            shape.append(1 << (q - prev - 1))
        axes[q] = len(shape)
        shape.append(2)
        prev = q
    rest = (1 << (n - 1 - prev)) * (amps.size >> n)
    if rest > 1:
        shape.append(rest)
    out = np.empty(shape, dtype=amps.dtype)
    bit_axes = [axes[q] for q in targets]
    src = np.moveaxis(amps.reshape(shape), bit_axes, range(k))
    dst = np.moveaxis(out, bit_axes, range(k))
    count = max(1, out.nbytes // (1 << 17))
    rest = range(k, src.ndim)
    longest = max(rest, key=src.shape.__getitem__, default=None)
    axis = next((a for a in rest if src.shape[a] >= count), longest)
    blocks = [()]
    if axis is not None and count > 1:
        step = max(1, src.shape[axis] // count)
        blocks = [
            (slice(None),) * axis + (slice(start, start + step),)
            for start in range(0, src.shape[axis], step)
        ]
    gathered = np.empty_like(src[blocks[0]], order="C")
    product = np.empty_like(gathered)
    rows_in, rows_out = gathered.reshape(1 << k, -1), product.reshape(1 << k, -1)
    for block in blocks:
        gathered[...] = src[block]
        kernel(rows_in, rows_out)
        dst[block] = product
    return out.reshape(amps.shape)


def _gather_take_scatter(g, targets, amps, n):
    """The former path of a permutation gate whose slices were one amplitude
    per stride (a target on the innermost axis): gather one cache-sized
    block, permute its rows with ``np.take``, scatter it back."""
    sources = [row.index(1) for row in g.tolist()]
    return _staged(targets, amps, n, lambda i, o: np.take(i, sources, axis=0, out=o))


def _staged_products(g, targets, amps, n):
    """The path every dense gate took before the strided products: the
    block loop with one matrix product per block."""
    return _staged(targets, amps, n, lambda i, o: np.matmul(g, i, out=o))


def _unit_phase_reference(g, targets, amps, n):
    """The rule of a gate whose rows each hold one entry of 1, -1, i or -i,
    on the staged block loop: output row r is its input row copied, negated
    as ``0.0 - row`` (a negated zero part is +0.0) or times i or -i as numpy
    multiplies complex numbers."""
    moves = [(c, row[c]) for row in g.tolist() for c in [next(i for i, v in enumerate(row) if v)]]

    def kernel(rows_in, rows_out):
        for r, (c, phase) in enumerate(moves):
            if phase == 1:
                rows_out[r] = rows_in[c]
            elif phase == -1:
                np.subtract(0.0, rows_in[c], out=rows_out[r])
            else:
                np.multiply(rows_in[c], phase, out=rows_out[r])

    return _staged(targets, amps, n, kernel)


def _where_oracle(f, targets, amps):
    """The path every oracle took before the index gather: one ``np.where``
    pass over the state and its flip along the output axis."""
    n, k = amps.size.bit_length() - 1, len(targets)
    moved = np.moveaxis(amps.reshape([2] * n), targets, range(k))
    mask = np.frombuffer(f.outputs, dtype=bool).reshape([2] * f.arity + [1] * (n - f.arity))
    chosen = np.where(mask, np.flip(moved, f.arity), moved)
    return np.moveaxis(chosen, range(k), targets).reshape(-1)


_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
_CYCLE3 = np.eye(4, dtype=complex)[[0, 3, 1, 2]]  # |01> -> |10> -> |11> -> |01>


def _signed_zero_state(n):
    """A seeded state whose parts include +0.0 and -0.0."""
    gen = np.random.default_rng(n)
    re, im = gen.normal(size=(2, 1 << n))
    re[::3], im[::7] = 0.0, 0.0
    # numpy's complex / real, which normalises, keeps a -0.0 real part
    # beside a negative imaginary part, and a -0.0 imaginary part beside
    # a positive real part
    re[2::5], im[2::5] = -0.0, -np.abs(im[2::5])
    re[1::4], im[1::4] = np.abs(re[1::4]), -0.0
    amps = np.empty(1 << n, dtype=complex)
    amps.real, amps.imag = re, im  # re + 1j * im would turn -0.0 into 0.0
    return StateVector(amps / np.linalg.norm(amps))


def _last_qubit_permutations(n):
    """(gate, targets) of permutation gates with the last qubit among their targets."""
    last = n - 1
    cases = [(pauli_x(), [last]), (cnot(), [0, last]), (cnot(), [last, 0]),
             (_SWAP, [0, last]), (_CYCLE3, [last, 0])]
    if n >= 3:
        cases += [(toffoli_unitary(), [0, 1, last]), (toffoli_unitary(), [last, 0, 1])]
    return cases


class TestPermutationReference:
    """Permutation gates are slice copies or an index gather, chosen by the
    state size and the innermost target; either way their bits equal those
    of the former gather/``np.take``/scatter path."""

    @pytest.mark.parametrize("n", [*range(2, 13), 16])
    def test_apply_gate_at_matches_gather_take_scatter(self, n):
        s = _signed_zero_state(n)
        parts = s.amplitudes.view(np.float64)
        assert np.signbit(parts[parts == 0]).any() and not np.signbit(parts[parts == 0]).all()
        for g, targets in _last_qubit_permutations(n):
            got = apply_gate_at(g, targets, s).amplitudes
            expected = _gather_take_scatter(g, targets, s.amplitudes, n)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_embed_two_matches_gather_take_scatter(self, n):
        for g in (cnot(), _SWAP, _CYCLE3):
            for i, j in itertools.permutations(range(n), 2):
                expected = _gather_take_scatter(g, [i, j], identity(1 << n), n)
                got = embed_two(g, i, j, n)
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def _seeded_table(arity, seed):
    outputs = np.random.default_rng(seed).integers(0, 2, 1 << arity).astype(np.uint8)
    return TruthTable(arity, outputs.tobytes())


def _same_bits(got, expected):
    return np.array_equal(got.view(np.int64), expected.view(np.int64))


def _path(plan):
    """Which kernel a plan runs now: its kept table once it has built one."""
    if plan.gather is not None:
        return "gather"
    if plan.table is not None:
        return "table"
    if isinstance(plan, _OraclePlan):
        return "where"
    if plan.copies is not None:
        return "copies" if all(phase == 1 for _, _, phase in plan.copies) else "signed"
    return "direct" if plan.block_shape is None else "staged"


# (state size, gate, targets, path) on both sides of each choice: the size
# below which permutations stay slice copies (2**16), the innermost target's
# runs (fewer than 2**8 per block of 2**s, s = 13 less the targets above
# it), and the run from which a 1-qubit gate multiplies the state's own
# rows (256); Y and Z take one pass per slice on either side of each
_THRESHOLD_CASES = [
    (15, pauli_x(), [14], "copies"), (16, pauli_x(), [15], "gather"),
    (16, pauli_x(), [11], "gather"), (16, pauli_x(), [10], "copies"),
    (20, pauli_x(), [15], "gather"), (20, pauli_x(), [14], "copies"),
    (20, cnot(), [0, 15], "gather"), (20, cnot(), [0, 14], "copies"),
    (20, cnot(), [15, 0], "gather"), (16, cnot(), [12, 11], "gather"),
    (20, toffoli_unitary(), [0, 1, 16], "gather"), (20, toffoli_unitary(), [0, 1, 15], "copies"),
    (20, toffoli_unitary(), [3, 19, 1], "gather"), (16, toffoli_unitary(), [15, 3, 0], "gather"),
    (16, _SWAP, [0, 15], "gather"), (20, _CYCLE3, [19, 2], "gather"),
    (16, hadamard(), [7], "direct"), (16, hadamard(), [8], "staged"),
    (20, u2_from_params(0.3, 1.1, 2.2, -0.7), [11], "direct"),
    (20, u2_from_params(0.3, 1.1, 2.2, -0.7), [12], "staged"),
    (20, u2_from_params(0.3, 1.1, 2.2, -0.7), [0], "direct"),
    (20, hadamard(), [19], "staged"), (16, u2_from_params(0.3, 1.1, 2.2, -0.7), [0], "direct"),
    (20, pauli_y(), [19], "signed"), (16, pauli_z(), [0], "signed"),
    (16, pauli_y(), [15], "signed"), (15, pauli_y(), [14], "signed"),
]

# (state size, arity, targets, path): oracles take the gather where
# permutations do, and keep ``np.where`` where the tables do not fit
_ORACLE_THRESHOLD_CASES = [
    (15, 2, [0, 5, 14], "where"), (16, 2, [0, 5, 15], "gather"),
    (20, 4, [0, 1, 2, 3, 19], "gather"), (20, 4, [0, 1, 2, 19, 3], "gather"),
    (20, 4, [0, 1, 2, 3, 18], "gather"), (20, 4, [0, 1, 2, 17, 3], "where"),
    (20, 4, [19, 2, 17, 5, 18], "gather"),
    (16, 4, [3, 11, 13, 14, 4], "gather"), (16, 4, [1, 8, 3, 7, 9], "where"),
    (18, 17, list(range(18)), "where"),
]


class TestKernelPaths:
    """Every kernel path against a test-side copy of the path it replaced,
    bit for bit on a state with signed zeros: dense gates against the
    staged block loop, permutations against gather/``np.take``/scatter,
    oracles against one ``np.where`` pass."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_target_position(self, n):
        s = _signed_zero_state(n)
        amps = s.amplitudes
        rng = np.random.default_rng(n)
        dense = [hadamard(), u2_from_params(*rng.uniform(-3.2, 3.2, 4))]
        for q in range(n):
            for g in dense:
                got = _GatePlan(g, [q], n).apply(amps)
                assert _same_bits(got, _staged_products(g, [q], amps, n))
            got = _GatePlan(pauli_x(), [q], n).apply(amps)
            assert _same_bits(got, _gather_take_scatter(pauli_x(), [q], amps, n))
        for i, j in itertools.permutations(range(n), 2):
            for g in (cnot(), _CYCLE3):
                got = _GatePlan(g, [i, j], n).apply(amps)
                assert _same_bits(got, _gather_take_scatter(g, [i, j], amps, n))
            f = _seeded_table(1, i)
            expected = _where_oracle(f, [i, j], amps)
            assert _same_bits(apply_oracle_at(f, [i, j], s).amplitudes, expected)
        g = np.kron(hadamard(), dense[1])
        for targets in list(itertools.permutations(range(n), 2))[:: max(1, n - 1)]:
            got = _GatePlan(g, list(targets), n).apply(amps)
            assert _same_bits(got, _staged_products(g, list(targets), amps, n))
        if n >= 3:
            for targets in itertools.islice(itertools.permutations(range(n), 3), 0, None, n):
                got = _GatePlan(toffoli_unitary(), list(targets), n).apply(amps)
                assert _same_bits(got, _gather_take_scatter(toffoli_unitary(), targets, amps, n))
                f = _seeded_table(2, sum(targets))
                expected = _where_oracle(f, list(targets), amps)
                assert _same_bits(apply_oracle_at(f, list(targets), s).amplitudes, expected)

    @pytest.mark.parametrize("n, g, targets, path", _THRESHOLD_CASES,
                             ids=[f"n{c[0]}-{c[2]}-{c[3]}" for c in _THRESHOLD_CASES])
    def test_gate_on_either_side_of_each_threshold(self, n, g, targets, path):
        amps = _signed_zero_state(n).amplitudes
        plan = _GatePlan(g, targets, n)
        assert _path(plan) == path
        reference = {"direct": _staged_products, "staged": _staged_products,
                     "signed": _unit_phase_reference}.get(path, _gather_take_scatter)
        assert _same_bits(plan.apply(amps), reference(g, targets, amps, n))

    @pytest.mark.parametrize("n, arity, targets, path", _ORACLE_THRESHOLD_CASES,
                             ids=[f"n{c[0]}-{c[2]}-{c[3]}" for c in _ORACLE_THRESHOLD_CASES])
    def test_oracle_on_either_side_of_each_threshold(self, n, arity, targets, path):
        s = _signed_zero_state(n)
        f = _seeded_table(arity, n)
        plan = _OraclePlan(f, targets, n)
        assert _path(plan) == path
        expected = _where_oracle(f, targets, s.amplitudes)
        assert _same_bits(plan(s).amplitudes, expected)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_identity_inputs(self, n):
        # embed runs the kernels on a (2**n, 2**n) identity as 2n qubits; at
        # n >= 5 a gate on the first qubits multiplies the identity's own rows
        eye = identity(1 << n)
        g1, g2 = u2_from_params(0.3, 1.1, 2.2, -0.7), np.kron(hadamard(), pauli_y())
        for i in range(n):
            assert _same_bits(embed_single(g1, i, n), _staged_products(g1, [i], eye, 2 * n))
            assert _same_bits(embed_single(pauli_x(), i, n),
                              _gather_take_scatter(pauli_x(), [i], eye, 2 * n))
        for i, j in itertools.permutations(range(n), 2):
            assert _same_bits(embed_two(g2, i, j, n), _staged_products(g2, [i, j], eye, 2 * n))
        assert n < 5 or _path(_GatePlan(g1, [0], 2 * n)) == "direct"

    @pytest.mark.parametrize("n", [16, 18, 20])
    def test_gather_tables_are_bounded(self, n):
        # every plan that gathers builds at most 2**14 table entries (128 KiB)
        # per call, and holds only the moves of each target assignment
        rng = np.random.default_rng(n)
        gathers = []
        for k in range(1, 7):
            for _ in range(40):
                targets = [int(q) for q in rng.permutation(n)[:k]]
                f = _seeded_table(k - 1, k) if k > 1 else None
                plan = _OraclePlan(f, targets, n) if f else _GatePlan(pauli_x(), targets, n)
                gather = plan.gather
                if gather is not None:
                    gathers.append(gather)
        for k in (2, 3):
            gate = cnot() if k == 2 else toffoli_unitary()
            for targets in itertools.permutations(range(n - 3, n), k):
                gathers.append(_GatePlan(gate, list(targets), n).gather)
        assert len(gathers) > 50
        for gather in gathers:
            tables = [m for m in gather.moves.values() if not isinstance(m, int)]
            assert len(tables) * gather.size * 8 <= 1 << 17
            assert all(m.shape == (1 << len(gather.low),) for m in tables)


_S = np.diag([1, 1j])
_I_X = np.array([[0, 1j], [1j, 0]])
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SIGNED_1Q = {"Y": pauli_y(), "Z": pauli_z(), "S": _S, "iX": _I_X}
_SIGNED_2Q = {"CZ": _CZ, "YZ": np.kron(pauli_y(), pauli_z())}


def _generic_state(n):
    """A seeded state with no zero part."""
    gen = np.random.default_rng(100 + n)
    amps = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
    s = StateVector(amps / np.linalg.norm(amps))
    assert s.amplitudes.view(np.float64).all()
    return s


class TestSignedCopies:
    """A gate whose rows each hold one entry of 1, -1, i or -i, on columns
    that form a permutation (Y, Z, S, CZ...), is one pass per output slice.
    Where no part is zero it writes the dense product's bits.  Zero parts
    follow the plan's rule: a copied part keeps its sign, a negated one is
    ``0.0 - x`` (+0.0, as the dense product makes every zero), and i and -i
    are numpy's complex product, which can leave -0.0 where the dense
    product writes +0.0."""

    @pytest.mark.parametrize("n", range(2, 13))
    def test_every_target_position_is_the_dense_product(self, n):
        amps = _generic_state(n).amplitudes
        for q in range(n):
            for g in _SIGNED_1Q.values():
                plan = _GatePlan(g, [q], n)
                assert _path(plan) == "signed"
                assert _same_bits(plan.apply(amps), _staged_products(g, [q], amps, n))
        for targets in list(itertools.permutations(range(n), 2))[:: max(1, n - 1)]:
            for g in _SIGNED_2Q.values():
                got = _GatePlan(g, list(targets), n).apply(amps)
                assert _same_bits(got, _staged_products(g, list(targets), amps, n))

    @pytest.mark.parametrize("n", [16, 20])
    def test_sampled_positions_on_large_states(self, n):
        amps = _generic_state(n).amplitudes
        for q in (0, 5, n // 2 + 1, n - 3, n - 1):
            for g in (pauli_y(), pauli_z()):
                plan = _GatePlan(g, [q], n)
                assert _path(plan) == "signed"
                assert _same_bits(plan.apply(amps), _staged_products(g, [q], amps, n))
        got = _GatePlan(_CZ, [n - 1, 2], n).apply(amps)
        assert _same_bits(got, _staged_products(_CZ, [n - 1, 2], amps, n))

    @pytest.mark.parametrize("n", [4, 12, 16])
    def test_signed_zero_rule(self, n):
        amps = _signed_zero_state(n).amplitudes
        moved = 0
        for q in range(n):
            for name, g in _SIGNED_1Q.items():
                got = _GatePlan(g, [q], n).apply(amps)
                assert _same_bits(got, _unit_phase_reference(g, [q], amps, n))
                dense = _staged_products(g, [q], amps, n).view(np.float64)
                # the dense product writes every zero part as +0.0 ...
                assert not np.signbit(dense[dense == 0]).any()
                # ... and the signed path differs from it only at -0.0 parts
                parts = got.view(np.float64)
                differ = parts.view(np.int64) != dense.view(np.int64)
                assert (parts[differ] == 0).all() and np.signbit(parts[differ]).all()
                if name == "Z":  # a negated zero part is +0.0: -0.0 moves only where copied
                    view = parts.reshape(1 << q, 2, -1)
                    assert not np.signbit(view[:, 1][view[:, 1] == 0]).any()
                moved += int(differ.sum())
        assert moved > 0

    def test_output_skips_the_norm_pass(self):
        # the raw moved parts: no rescale by a sum of |a|^2 in a new order
        s = _uneven_state(12, 3)
        for g in _SIGNED_1Q.values():
            for q in range(12):
                out = _GatePlan(g, [q], 12)(s).amplitudes
                assert _same_bits(out, _unit_phase_reference(g, [q], s.amplitudes, 12))


def _moving_plans(n):
    """(plan, its path before it keeps a table, whether it keeps one) of
    permutation, signed and oracle plans on n qubits at several positions.
    Oracles, Toffoli and permutations whose innermost target leaves runs of
    at most 2**(k+1) amplitudes keep a table; Y, Z and other signed gates,
    whose every slice takes a pass anyway, keep none."""
    plans = []
    for q in sorted({0, n // 2, n - 1}):
        plans.append((_GatePlan(pauli_x(), [q], n), "copies", n - 1 - q <= 2))
        plans += [(_GatePlan(g, [q], n), "signed", False) for g in (pauli_y(), pauli_z(), _I_X)]
    for i, j in [(0, n - 1), (n - 1, 0), (n // 2, n // 2 - 1)]:
        plans += [(_GatePlan(cnot(), [i, j], n), "copies", n - 1 - max(i, j) <= 3),
                  (_GatePlan(_SIGNED_2Q["YZ"], [i, j], n), "signed", False),
                  (_OraclePlan(_seeded_table(1, i), [i, j], n), "where", True)]
    if n >= 5:
        plans += [(_GatePlan(toffoli_unitary(), [n - 1, 0, 2], n), "copies", True),
                  (_GatePlan(toffoli_unitary(), [0, 1, 2], n), "copies", True),
                  (_OraclePlan(_seeded_table(4, n), [3, n - 1, 0, 1, 2], n), "where", True)]
    return plans


class TestKeptTables:
    """Below 2**16 amplitudes a plan that moves amplitudes with a take
    faster than its own path keeps a uint16 table of each output's source
    index from its third call, and its calls through that table give the
    bits of its first call."""

    @pytest.mark.parametrize("n", [2, 5, 12, 15])
    def test_table_calls_match_the_first_call(self, n):
        for s in (_signed_zero_state(n), _generic_state(n)):
            for plan, path, keeps in _moving_plans(n):
                first = plan(s).amplitudes
                for call in range(2, 6):
                    assert _path(plan) == ("table" if keeps and call > 3 else path)
                    out = plan(s).amplitudes
                    assert _same_bits(out, first) and not np.shares_memory(out, s.amplitudes)
                assert (plan.table is not None) == keeps
                if keeps:
                    assert plan.table.dtype == np.uint16 and plan.table.shape == (1 << n,)

    def test_table_is_built_on_the_third_call(self):
        s = _generic_state(8)
        for plan in (_GatePlan(cnot(), [7, 1], 8), _OraclePlan(_seeded_table(2, 1), [0, 4, 7], 8)):
            for _ in range(2):
                plan(s)
                assert plan.table is None
            plan(s)
            assert plan.table is not None

    @pytest.mark.parametrize("g, targets", [(pauli_x(), [3]), (pauli_x(), [15]),
                                            (cnot(), [0, 15]), (toffoli_unitary(), [15, 3, 0])])
    def test_no_table_from_2_16_amplitudes(self, g, targets):
        s = _generic_state(16)
        plan = _GatePlan(g, targets, 16)
        for _ in range(4):
            plan(s)
        assert plan.table is None

    @pytest.mark.parametrize("n", [6, 12, 15])
    def test_kept_bytes_per_plan(self, n):
        # every byte numpy holds after the calls, beyond what it held before
        # them, is the table: at most 2 bytes per amplitude
        s = _generic_state(n)
        in_numpy = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
        for plan, _, keeps in _moving_plans(n):
            tracemalloc.start()
            try:
                held = lambda: sum(t.size for t in tracemalloc.take_snapshot()
                                   .filter_traces([in_numpy]).traces)
                before = held()
                for _ in range(4):
                    plan(s)
                kept = held() - before
            finally:
                tracemalloc.stop()
            assert kept <= 2 << n
            assert kept == (2 << n if keeps else 0)


def _copy_plans(n, seed):
    """Seeded X, CNOT, Toffoli and oracle (arity 1 to 3) plans on n qubits,
    each its own inverse, with a test-side reference for each plan's output."""
    rng = np.random.default_rng(seed)
    plans = []
    for i in range(48):
        k = i % 3 + 1
        targets = [int(q) for q in rng.permutation(n)[: k + (i % 2)]]
        if i % 2 == 0:
            g = (pauli_x(), cnot(), toffoli_unitary())[k - 1]
            plans.append((_GatePlan(g, targets, n),
                          lambda a, g=g, t=targets: _gather_take_scatter(g, t, a, n)))
        else:
            f = _seeded_table(k, i)
            plans.append((_OraclePlan(f, targets, n),
                          lambda a, f=f, t=targets: _where_oracle(f, t, a)))
    return plans


def _uneven_state(n, seed):
    """A seeded state whose moduli span a factor of about e**4, so that
    sums of |a|^2 in different orders differ in their last bits."""
    gen = np.random.default_rng(seed)
    re, im = gen.normal(size=(2, 1 << n)) * np.exp(gen.uniform(-4, 0, size=(2, 1 << n)))
    amps = re + 1j * im
    return StateVector(amps / np.linalg.norm(amps))


class TestCopiesKeepTheNorm:
    """Permutation gates and oracles only move amplitudes, so their output
    states keep the moved bits and skip the norm pass; dense gates still
    repair rounding drift."""

    @pytest.mark.parametrize("n, paths", [(12, {"copies", "where"}),
                                          (16, {"gather", "copies", "where"})])
    def test_chain_then_its_reverse_is_the_identity(self, n, paths):
        # at this seed, renormalising after each copy would leave the last
        # bits of the start state changed at both sizes
        plans = [plan for plan, _ in _copy_plans(n, 5)]
        assert {_path(plan) for plan in plans} == paths
        chain = [plans[i] for i in np.random.default_rng(5).integers(0, len(plans), 2000)]
        start = _uneven_state(n, 0)
        s = start
        for plan in chain + chain[::-1]:
            s = plan(s)
        assert _same_bits(s.amplitudes, start.amplitudes)

    @pytest.mark.parametrize("n", [12, 16])
    def test_output_is_the_raw_copy_where_the_sum_reads_off(self, n):
        # in some outputs |a|^2 sums, in their order, far enough from 1.0
        # that a norm pass would rescale them by 1/sqrt(sum) != 1.0
        plans = _copy_plans(n, n + 1)
        rescaled = 0
        for seed in range(4):
            s = _uneven_state(n, seed)
            for plan, reference in plans:
                got = plan(s).amplitudes
                assert _same_bits(got, reference(s.amplitudes))
                rescaled += 1.0 / math.sqrt(float(np.sum(np.abs(got) ** 2))) != 1.0
        assert rescaled > 0

    @pytest.mark.parametrize("g, targets", [
        (hadamard(), [3]), (hadamard(), [15]), (u2_from_params(0.3, 1.1, 2.2, -0.7), [0]),
        (np.kron(hadamard(), pauli_y()), [5, 2]),
    ])
    def test_dense_gates_still_repair_drift(self, g, targets):
        n = 16
        amps = _signed_zero_state(n).amplitudes * (1.0 + 1e-8)
        drifted = StateVector._moved(amps)
        # a copy carries the drift on; a dense gate repairs it
        moved = _GatePlan(pauli_x(), [15], n)(drifted)
        assert abs(float(np.sum(np.abs(moved.amplitudes) ** 2)) - 1.0) > 1e-8
        out = _GatePlan(g, targets, n)(moved)
        assert abs(float(np.sum(np.abs(out.amplitudes) ** 2)) - 1.0) <= 1e-14


class TestOracle:
    def test_constant_zero_is_identity(self):
        f = TruthTable(2, (0, 0, 0, 0))
        assert np.array_equal(oracle_from_truth_table(f), np.eye(8, dtype=complex))

    def test_identity_function_is_cnot(self):
        f = TruthTable(1, (0, 1))
        assert np.array_equal(oracle_from_truth_table(f), cnot())

    def test_maps_blank_output_to_function_value(self):
        rng = RngStream(10)
        for arity in (1, 2, 3):
            f = TruthTable(arity, tuple(int(rng.next_u64() % 2) for _ in range(1 << arity)))
            u = oracle_from_truth_table(f)
            for x in range(1 << arity):
                bits = [(x >> (arity - 1 - i)) & 1 for i in range(arity)]
                got = apply(u, ket(bits + [0]))
                assert np.array_equal(got.amplitudes, ket(bits + [f.outputs[x]]).amplitudes)

    def test_permutation_and_self_inverse(self):
        f = TruthTable(2, (1, 0, 0, 1))
        u = oracle_from_truth_table(f)
        assert set(np.unique(u.real)) <= {0.0, 1.0}
        assert np.array_equal(u @ u, np.eye(8, dtype=complex))
        assert np.array_equal(u.sum(axis=0), np.ones(8)) and np.array_equal(
            u.sum(axis=1), np.ones(8)
        )

    def test_kernel_matches_dense_oracle(self):
        rng = RngStream(11)
        for arity in (1, 2):
            f = TruthTable(arity, tuple(int(rng.next_u64() % 2) for _ in range(1 << arity)))
            s = rand_state(arity + 1, rng)
            dense = apply(oracle_from_truth_table(f), s)
            fast = apply_oracle_at(f, list(range(arity + 1)), s)
            assert np.max(np.abs(dense.amplitudes - fast.amplitudes)) <= 1e-15

    def test_kernel_matches_permuted_dense_oracle(self):
        # every arity and every ordered target tuple on up to 5 qubits
        rng = RngStream(12)
        for n in range(2, 6):
            s = rand_state(n, rng)
            for arity in range(1, n):
                f = TruthTable(arity, tuple(int(rng.next_u64() % 2) for _ in range(1 << arity)))
                dense = oracle_from_truth_table(f)
                for targets in itertools.permutations(range(n), arity + 1):
                    expected = _kron_oracle(dense, targets, n) @ s.amplitudes
                    got = apply_oracle_at(f, list(targets), s)
                    # a permutation, up to the constructor's renormalisation
                    assert np.max(np.abs(got.amplitudes - expected)) <= 1e-15

    def test_kernel_on_permuted_targets(self):
        # bit-logic oracle: output-bit flip controlled by f of the input bits
        f = TruthTable(2, (0, 1, 1, 1))
        targets = [2, 0, 1]  # x1 = qubit 2, x2 = qubit 0, output = qubit 1
        for b in range(8):
            bits = [(b >> (2 - q)) & 1 for q in range(3)]
            x = (bits[2] << 1) | bits[0]
            expected = bits.copy()
            expected[1] ^= f.outputs[x]
            got = apply_oracle_at(f, targets, ket(bits))
            assert np.array_equal(got.amplitudes, ket(expected).amplitudes)

    def test_truth_table_validation(self):
        with pytest.raises(InvalidInput):
            TruthTable(2, (0, 1))
        with pytest.raises(InvalidInput):
            TruthTable(1, (0, 2))

    # converted by value: the 4-entry int64 array gives 4 bytes, not its 32-byte buffer
    @pytest.mark.parametrize("outputs", [
        (0, 1, 1, 0), [0, 1, 1, 0], (False, True, True, False), (0.0, 1.0, 1.0, 0.0),
        b"\0\1\1\0", bytearray(b"\0\1\1\0"), np.array([0, 1, 1, 0], dtype=np.int64),
        np.array([False, True, True, False]),
    ])
    def test_truth_table_outputs_are_bytes(self, outputs):
        f, reference = TruthTable(2, outputs), TruthTable(2, (0, 1, 1, 0))
        assert type(f.outputs) is bytes and f.outputs == b"\0\1\1\0"
        assert f == reference and hash(f) == hash(reference)

    @pytest.mark.parametrize("outputs", [b"\0\2", b"01", bytearray(b"\1\2")])
    def test_truth_table_rejects_other_bytes(self, outputs):
        with pytest.raises(InvalidInput, match="^truth table outputs must be 0 or 1$"):
            TruthTable(1, outputs)

    def test_plan_mask_is_the_table(self):
        f = TruthTable(2, (0, 1, 1, 1))
        mask = _OraclePlan(f, [2, 0, 1], 3).mask
        assert np.shares_memory(mask, np.frombuffer(f.outputs, dtype=np.uint8))

    def test_dense_oracle_matches_plan(self):
        # every arity-2 table: the plan's image of each basis state is a dense column
        basis = [ket([(b >> (2 - q)) & 1 for q in range(3)]) for b in range(8)]
        for outputs in itertools.product((0, 1), repeat=4):
            f = TruthTable(2, outputs)
            plan = _OraclePlan(f, [0, 1, 2], 3)
            columns = np.array([plan(s).amplitudes for s in basis]).T
            assert np.array_equal(columns, oracle_from_truth_table(f))

    @pytest.mark.parametrize("entry", [2, -1, 0.5, None, "0", "1", [0], {1}])
    def test_truth_table_rejects_every_other_entry(self, entry):
        # unhashable entries too: the check compares, it does not hash
        with pytest.raises(InvalidInput, match="^truth table outputs must be 0 or 1$"):
            TruthTable(1, (0, entry))

    def test_truth_table_accepts_bools(self):
        assert TruthTable(1, (False, True)).is_balanced()

    @pytest.mark.parametrize("arity,required", [(3, "8"), (14284, None), (14285, "2**14285"),
                                                (100000, "2**100000"), (10**12, "2**1000000000000")])
    def test_truth_table_huge_arity(self, arity, required):
        # the check compares bit lengths, so no 2**arity-entry object is built
        with pytest.raises(InvalidInput) as err:
            TruthTable(arity, ())
        message = str(err.value)
        if required is None:  # printable: all 4300 digits
            required = str(1 << arity)
            assert len(required) == 4300
        assert message == f"truth table of arity {arity} needs {required} outputs, got 0"


class TestKernelInputs:
    @pytest.mark.parametrize(
        "gate,targets",
        [
            (hadamard(), [1]),
            (identity(2), [2]),
            (cnot(), [2, 0]),
            (identity(4), [0, 1]),
            (toffoli_unitary(), [1, 2, 0]),
        ],
    )
    def test_gate_output_is_fresh(self, gate, targets):
        s = rand_state(3, RngStream(13))
        before = s.amplitudes.copy()
        out = apply_gate_at(gate, targets, s)
        assert not np.shares_memory(out.amplitudes, s.amplitudes)
        assert np.array_equal(s.amplitudes, before)

    @pytest.mark.parametrize("outputs", [(0, 0, 0, 0), (0, 1, 1, 0)])
    def test_oracle_output_is_fresh(self, outputs):
        s = rand_state(3, RngStream(14))
        before = s.amplitudes.copy()
        out = apply_oracle_at(TruthTable(2, outputs), [2, 0, 1], s)
        assert not np.shares_memory(out.amplitudes, s.amplitudes)
        assert np.array_equal(s.amplitudes, before)

    @pytest.mark.parametrize(
        "gate",
        [
            np.array([[math.nan, 0], [0, 1]]),
            np.array([[1, 0], [0, math.inf]]),
            np.array([[0, complex(0, -math.inf)], [1, 0]]),
            2 * identity(2),
            np.array([[1, 1], [0, 1]]),
            np.array([[1, 0], [1, 0]]),
            np.array([[0, 1], [0, 1]]),
            np.array([[1, 0], [-1, 0]]),
            np.array([[0, 1j], [0, -1]]),
        ],
    )
    def test_bad_gate_rejected(self, gate):
        s = rand_state(2, RngStream(15))
        with pytest.raises(InvalidInput):
            apply_gate_at(gate, [1], s)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: apply_gate_at(cnot(), [0], ket([0, 0])),
            lambda: embed_single(cnot(), 0, 2),
            lambda: embed_two(hadamard(), 0, 1, 2),
        ],
        ids=["apply_gate_at", "embed_single", "embed_two"],
    )
    def test_wrong_shape_rejected(self, call):
        with pytest.raises(DimensionMismatch, match="does not act on"):
            call()

    @pytest.mark.parametrize(
        "targets", [[0, 1], [0, 1, 2, 0], [2, 0, 3]], ids=["too_few", "too_many", "out_of_range"]
    )
    def test_bad_oracle_targets_rejected(self, targets):
        s = rand_state(3, RngStream(16))
        with pytest.raises(InvalidInput):
            apply_oracle_at(TruthTable(2, (0, 1, 1, 0)), targets, s)

    @pytest.mark.parametrize(
        "gate,targets,error",
        [
            (hadamard(), [1, 1], InvalidInput),
            (np.full((4, 4), math.nan), [0], DimensionMismatch),
        ],
        ids=["targets_before_shape", "shape_before_entries"],
    )
    def test_check_order(self, gate, targets, error):
        s = rand_state(2, RngStream(17))
        with pytest.raises(error):
            apply_gate_at(gate, targets, s)


class TestWalshHadamard:
    def test_n1(self):
        assert np.array_equal(walsh_hadamard(1), hadamard())

    def test_uniform_superposition(self):
        got = apply(walsh_hadamard(2), ket([0, 0]))
        assert np.allclose(got.amplitudes, [0.5, 0.5, 0.5, 0.5], atol=1e-15)

    def test_matches_kron_oracle(self):
        assert np.allclose(walsh_hadamard(3), kron_chain(*[hadamard()] * 3), atol=1e-15)

    def test_involution(self):
        for n in range(1, 5):
            w = walsh_hadamard(n)
            assert np.max(np.abs(w @ w - np.eye(1 << n))) <= 1e-12

    def test_dense_cap(self):
        with pytest.raises(CapacityExceeded):
            walsh_hadamard(11)


class TestBasisCloner:
    def test_copies_basis_states_n2(self):
        u = basis_cloner(2)
        blank = np.array([1, 0])
        for i, basis in enumerate((np.array([1, 0]), np.array([0, 1]))):
            out = u @ np.kron(basis, blank)
            assert np.array_equal(out, np.kron(basis, basis))

    def test_copies_basis_states_any_n(self):
        for n in (2, 3, 7):
            u = basis_cloner(n)
            blank = np.zeros(n)
            blank[0] = 1
            for i in range(n):
                basis = np.zeros(n)
                basis[i] = 1
                assert np.array_equal(u @ np.kron(basis, blank), np.kron(basis, basis))

    def test_superposition_entangles_instead_of_cloning(self):
        u = basis_cloner(2)
        plus = np.array([1, 1]) / math.sqrt(2)
        out = u @ np.kron(plus, [1, 0])
        assert np.allclose(out, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-15)
        assert not is_product_split(StateVector(out), 1)

    def test_is_permutation(self):
        for n in (2, 3, 5):
            u = basis_cloner(n)
            assert np.array_equal(u @ u.conj().T, np.eye(n * n, dtype=complex))
            assert np.array_equal(np.sort(np.abs(u), axis=0)[-1], np.ones(n * n))

    def test_range(self):
        with pytest.raises(InvalidInput):
            basis_cloner(1)
        with pytest.raises(InvalidInput):
            basis_cloner(33)


class TestIsUnitary:
    def test_hadamard(self):
        assert is_unitary(hadamard(), 1e-9)

    def test_all_ones_rejected(self):
        assert not is_unitary(np.ones((2, 2)), 1e-9)

    def test_non_square_rejected(self):
        assert not is_unitary(np.ones((2, 3)), 1e-9)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0, math.inf)])
    def test_non_finite_rejected_without_warning(self, bad):
        # an inf entry made the Gram product warn (an error under -W error)
        m = hadamard()
        m[0, 1] = bad
        assert not is_unitary(m, 1e-9)

    @pytest.mark.parametrize("bad", [1e174, 1e300])
    def test_huge_finite_rejected_without_warning(self, bad):
        # its square overflowed the Gram product, which warned
        m = hadamard()
        m[0, 0] = bad
        assert not is_unitary(m, 1e-9)


@pytest.mark.parametrize(
    "call, kind, message",
    [
        pytest.param(lambda: TruthTable(0, b""), InvalidInput,
                     "truth table arity must be at least 1", id="truth-table-arity"),
        pytest.param(lambda: apply(np.ones((2, 3)), ket([0])), DimensionMismatch,
                     "gate must be square, got shape (2, 3)", id="apply-not-square"),
        pytest.param(lambda: walsh_hadamard(0), InvalidInput,
                     "walsh_hadamard needs n >= 1", id="walsh-hadamard-0"),
    ],
)
def test_raise_site(call, kind, message):
    with pytest.raises(kind) as err:
        call()
    assert type(err.value) is kind and str(err.value) == message
