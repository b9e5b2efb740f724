import cmath
import math

import numpy as np
import pytest

from ketsim import (
    CapacityExceeded,
    DimensionMismatch,
    InvalidInput,
    RngStream,
    StateVector,
    TruthTable,
    apply,
    apply_factors,
    apply_gate_at,
    apply_oracle_at,
    bell_pair,
    bits_to_index,
    format_ket,
    haar_random_unitary,
    hadamard,
    index_to_bits,
    is_product_split,
    ket,
    measure_subset,
    probabilities,
    qubit_from_angles,
    states_equivalent,
    tensor,
    toffoli_unitary,
    two_level_decompose,
    u2_from_params,
)
import ketsim.text17
from ketsim.measure import _Projection
from ketsim.state import NORM_ATOL, _split_axes
from ketsim.text17 import RENDER_EPS, float_rows, ket_chunks
from conftest import first_difference, rand_state


class TestKet:
    def test_single_one(self):
        assert np.array_equal(ket([1]).amplitudes, [0, 1])

    def test_two_zeros(self):
        amps = ket([0, 0]).amplitudes
        assert amps.size == 4 and amps[0] == 1 and np.count_nonzero(amps) == 1

    def test_bit_convention_first_bit_most_significant(self):
        amps = ket([1, 0]).amplitudes
        assert amps[2] == 1 and np.count_nonzero(amps) == 1

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            ket([])

    def test_cap(self):
        with pytest.raises(CapacityExceeded):
            ket([0] * 5, cap=4)

    def test_index_round_trip(self):
        for value in range(16):
            assert bits_to_index(index_to_bits(value, 4)) == value


class TestQubitFromAngles:
    def test_zero_angles_is_ket0(self):
        assert states_equivalent(qubit_from_angles(0.0, 0.0), ket([0]))

    def test_half_pi_is_ket1(self):
        assert states_equivalent(qubit_from_angles(math.pi / 2, 0.0), ket([1]))

    def test_quarter_pi_quarter_turn_phase(self):
        # direct evaluation of the parameterization
        expected = np.array(
            [math.cos(math.pi / 4), cmath.exp(1j * math.pi / 2) * math.sin(math.pi / 4)]
        )
        got = qubit_from_angles(math.pi / 4, math.pi / 2).amplitudes
        assert np.allclose(got, expected, atol=1e-15)
        assert np.allclose(got, [math.sqrt(0.5), 1j * math.sqrt(0.5)], atol=1e-15)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            qubit_from_angles(math.nan, 0.0)


class TestTensor:
    def test_basis_concatenation(self):
        assert np.array_equal(tensor(ket([0]), ket([1])).amplitudes, ket([0, 1]).amplitudes)

    def test_distributes_over_superposition(self):
        plus = apply(hadamard(), ket([0]))
        got = tensor(plus, ket([0]))
        # brute-force outer product oracle
        expected = np.zeros(4, dtype=complex)
        for i in range(2):
            for j in range(2):
                expected[2 * i + j] = plus.amplitudes[i] * ket([0]).amplitudes[j]
        assert np.allclose(got.amplitudes, expected, atol=1e-15)

    def test_entangled_pair_is_not_a_tensor(self):
        assert not is_product_split(bell_pair(0, 0), 1)

    def test_dimension_law(self):
        rng = RngStream(3)
        s, t = rand_state(2, rng), rand_state(3, rng)
        assert tensor(s, t).dim == 1 << 5

    def test_associativity(self):
        rng = RngStream(4)
        for _ in range(10):
            a, b, c = (rand_state(1, rng) for _ in range(3))
            left = tensor(tensor(a, b), c).amplitudes
            right = tensor(a, tensor(b, c)).amplitudes
            assert np.max(np.abs(left - right)) <= 1e-12

    def test_cap(self):
        with pytest.raises(CapacityExceeded):
            tensor(ket([0, 0]), ket([0, 0]), cap=3)


class TestStatesEquivalent:
    def test_global_sign(self):
        assert states_equivalent(ket([0]), StateVector([-1, 0]))

    def test_orthogonal(self):
        assert not states_equivalent(ket([0]), ket([1]))

    def test_unit_phase(self):
        plus = apply(hadamard(), ket([0]))
        rotated = StateVector(cmath.exp(1j * math.pi / 3) * plus.amplitudes)
        # overlap modulus is exactly 1, so any positive tolerance accepts
        assert states_equivalent(plus, rotated, tol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            states_equivalent(ket([0]), ket([0, 0]))

    def test_matches_distance_oracle(self):
        # decision must agree with min over a phase grid of ||s - c t||
        rng = RngStream(9)
        for _ in range(20):
            s, t = rand_state(2, rng), rand_state(2, rng)
            phases = np.exp(1j * np.linspace(0, 2 * math.pi, 720, endpoint=False))
            distance = min(
                np.linalg.norm(s.amplitudes - c * t.amplitudes) for c in phases
            )
            for tol in (0.05, 0.3, 1.0):
                if abs(distance - tol) > 1e-2:  # skip borderline decisions
                    assert states_equivalent(s, t, tol) == (distance <= tol)

    def test_reflexive_symmetric_phase_invariant(self):
        rng = RngStream(10)
        for _ in range(10):
            s, t = rand_state(2, rng), rand_state(2, rng)
            assert states_equivalent(s, s)
            assert states_equivalent(s, t) == states_equivalent(t, s)
            u = StateVector(1j * s.amplitudes)
            assert states_equivalent(s, t) == states_equivalent(u, t)


class TestProductSplit:
    def test_entangled_two_qubit(self):
        half = math.sqrt(0.5)
        s = StateVector([0, half, half, 0])
        assert not is_product_split(s, 1)

    def test_explicit_product(self):
        assert is_product_split(ket([0, 1]), 1)

    def test_singlet_is_entangled(self):
        assert not is_product_split(bell_pair(1, 1), 1)

    def test_random_products_split(self):
        rng = RngStream(11)
        for _ in range(25):
            s = tensor(rand_state(1, rng), rand_state(1, rng))
            assert is_product_split(s, 1)

    def test_split_position_validated(self):
        with pytest.raises(InvalidInput):
            is_product_split(ket([0, 0]), 2)


class TestProbabilities:
    def test_basis_state(self):
        assert np.array_equal(probabilities(ket([1])), [0, 1])

    def test_hadamard_coin(self):
        assert np.allclose(probabilities(apply(hadamard(), ket([0]))), [0.5, 0.5])

    def test_angle_state(self):
        got = probabilities(qubit_from_angles(math.pi / 6, 0.0))
        assert np.allclose(got, [math.cos(math.pi / 6) ** 2, math.sin(math.pi / 6) ** 2])
        assert np.allclose(got, [0.75, 0.25], atol=1e-15)

    def test_global_phase_invariant(self):
        rng = RngStream(12)
        s = rand_state(3, rng)
        rotated = StateVector(cmath.exp(0.7j) * s.amplitudes)
        assert np.allclose(probabilities(s), probabilities(rotated), atol=1e-15)

    def test_sums_to_one(self):
        rng = RngStream(13)
        for n in (1, 2, 4):
            assert abs(probabilities(rand_state(n, rng)).sum() - 1) <= 1e-10


class TestConstructor:
    def test_rejects_far_from_normalized(self):
        with pytest.raises(InvalidInput):
            StateVector([1.0, 2e-3])

    def test_repairs_small_drift(self):
        s = StateVector([1.0 + 4e-7, 0.0])
        assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1) <= 1e-10

    def test_rejects_non_power_of_two(self):
        with pytest.raises(InvalidInput):
            StateVector([1.0, 0.0, 0.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInput):
            StateVector([math.inf, 0.0])

    def test_constructor_copies(self):
        amps = np.array([1.0, 0.0], dtype=complex)
        assert not np.shares_memory(StateVector(amps).amplitudes, amps)


class TestFreshOutputs:
    def test_ket(self):
        first, second = ket([1, 0]), ket([1, 0])
        assert not np.shares_memory(first.amplitudes, second.amplitudes)

    def test_tensor(self):
        s, t = rand_state(2, RngStream(31)), rand_state(1, RngStream(32))
        before_s, before_t = s.amplitudes.copy(), t.amplitudes.copy()
        out = tensor(s, t)
        for part in (s, t):
            assert not np.shares_memory(out.amplitudes, part.amplitudes)
        assert np.array_equal(s.amplitudes, before_s)
        assert np.array_equal(t.amplitudes, before_t)


class TestNormInvariant:
    @pytest.mark.parametrize("seed", range(4))
    def test_every_producer_within_norm_atol(self, seed):
        # every function that returns a state, on seeded generic inputs
        rng = RngStream(40 + seed)
        s = rand_state(5, rng)
        angles = [rng.uniform() * 6.4 - 3.2 for _ in range(4)]
        table = TruthTable(2, tuple(int(rng.next_u64() % 2) for _ in range(4)))
        u = haar_random_unitary(32, rng)
        produced = {
            "u2 gate": apply_gate_at(u2_from_params(*angles), [3], s),
            "toffoli gate": apply_gate_at(toffoli_unitary(), [4, 0, 2], s),
            "oracle": apply_oracle_at(table, [1, 3, 0], s),
            "measure_subset": measure_subset(s, [4, 1], RngStream(seed)).collapsed,
            "ket": ket([1, 0, 1, 1, 0]),
            "tensor": tensor(s, rand_state(2, rng)),
            "apply_factors": apply_factors(two_level_decompose(u), s),
        }
        for name, out in produced.items():
            drift = abs(float(np.sum(np.abs(out.amplitudes) ** 2)) - 1.0)
            assert drift <= NORM_ATOL, name


class TestTrustedConstructor:
    def test_adopts_without_copy(self):
        amps = np.array([0.6, 0.8j])
        s = StateVector._trusted(amps)
        assert s.amplitudes is amps and s.num_qubits == 1

    def test_repairs_small_drift_in_place(self):
        amps = np.array([1.0 + 4e-7, 0.0], dtype=complex)
        s = StateVector._trusted(amps)
        assert s.amplitudes is amps
        assert abs(np.sum(np.abs(amps) ** 2) - 1) <= 1e-10

    @pytest.mark.parametrize(
        "amps", [[1.0, 2e-3], [math.nan, 0.0], [math.inf, 0.0], [complex(0, -math.inf), 1.0]]
    )
    def test_rejects_what_the_constructor_rejects(self, amps):
        with pytest.raises(InvalidInput, match="state is not normalized"):
            StateVector._trusted(np.array(amps, dtype=complex))


def _divide_adopt(amps: np.ndarray) -> np.ndarray:
    """The renormalisation ``_adopt`` replaced, kept as the reference: one
    norm pass, then complex / real division by its square root."""
    norm_sq = float(np.sum(np.abs(amps) ** 2))
    if norm_sq != 1.0:
        amps /= math.sqrt(norm_sq)
    return amps


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.uint64)


# Sizes 1 to 2**16, and non-powers of two for the raw arithmetic.
_SIZES = (1, 2, 3, 8, 31, 256, 1000, 4096, 1 << 16)


def _awkward_amps(rng, size: int) -> np.ndarray:
    """Seeded amplitudes with +-0 in either part, subnormal parts and,
    for one case in four, a single nonzero entry; parts are set one at a
    time, so signed zeros survive."""
    amps = np.empty(size, dtype=np.complex128)
    single = rng.random() < 0.25
    for part in (amps.real, amps.imag):
        if single:
            part[:] = rng.choice([0.0, -0.0], size)
            continue
        values = rng.normal(size=size)
        kind = rng.integers(0, 5, size)
        values[kind == 1] = 0.0
        values[kind == 2] = -0.0
        values[kind == 3] = np.ldexp(rng.uniform(-1, 1, (kind == 3).sum()), -1060)
        part[:] = values
    k = rng.integers(size)
    if single:
        amps[k] = complex(*rng.choice([[1.0, 0.0], [1.0, -0.0], [-0.0, 1.0], [0.0, -1.0]]))
    else:  # one entry of normal size, so the norm is not zero
        amps[k] = complex(*rng.normal(size=2))
    return amps


class TestRenormaliseBits:
    """Renormalising by ``complex(1/c, -0.0)`` gives the bits of ``a / c``;
    a numpy whose division rounds otherwise fails here first.

    The division adds its zero terms before scaling and the multiply
    after, so they agree while no nonzero part scales to zero: for
    1/c > 0.5.  Both call sites scale by 1/c >= 1 - 5e-7."""

    @pytest.mark.parametrize("size", _SIZES)
    def test_multiply_matches_division(self, size):
        rng = np.random.default_rng(900 + size)
        for c in (1e-150, 1e-3, 0.5, 1 - 1e-9, math.nextafter(1, 0), math.nextafter(1, 2),
                  1 + 3e-7, 1.5, math.nextafter(2, 0), *rng.uniform(1e-3, 2.0, 4)):
            a = _awkward_amps(rng, size)
            product = np.multiply(a, complex(1.0 / c, -0.0))
            assert np.array_equal(_bits(product), _bits(a / c)), c

    @pytest.mark.parametrize("n", range(0, 17, 2))
    def test_adopt_matches_division(self, n):
        rng = np.random.default_rng(950 + n)
        for drift in (-3e-7, -1e-9, -1e-15, 0.0, 1e-15, 1e-9, 3e-7):
            a = _awkward_amps(rng, 1 << n)
            a *= (1 + drift) / math.sqrt(float(np.sum(np.abs(a) ** 2)))
            want = _divide_adopt(a.copy())
            assert np.array_equal(_bits(StateVector(a).amplitudes), _bits(want)), drift
            assert np.array_equal(_bits(StateVector._trusted(a).amplitudes), _bits(want)), drift

    @pytest.mark.parametrize("n", range(1, 17, 3))
    def test_collapse_matches_division(self, n):
        rng = np.random.default_rng(980 + n)
        for _ in range(3):
            a = _awkward_amps(rng, 1 << n)
            s = StateVector(a / math.sqrt(float(np.sum(np.abs(a) ** 2))))
            qubits = rng.permutation(n)[: rng.integers(1, n + 1)].tolist()
            projection = _Projection(qubits, n)
            weights = projection.weights(s)
            live = np.nonzero(weights >= 1e-12)[0]
            for outcome in rng.choice(live, min(live.size, 8), replace=False).tolist():
                # the collapse it replaced: divide, then adopt by dividing
                want = np.zeros_like(s.amplitudes)
                bits = index_to_bits(outcome, len(qubits))
                src = s.amplitudes.reshape(projection.shape).transpose(projection.order)
                dst = want.reshape(projection.shape).transpose(projection.order)
                np.divide(src[(*bits, ...)], math.sqrt(weights[outcome]), out=dst[(*bits, ...)])
                got = projection.collapse(s, outcome, weights[outcome]).amplitudes
                assert np.array_equal(_bits(got), _bits(_divide_adopt(want))), (qubits, outcome)


def _format_amplitude(a: complex) -> str:
    """One term's amplitude as the per-term renderer printed it."""
    if abs(a.imag) < RENDER_EPS:
        return f"{a.real:.6g}"
    if abs(a.real) < RENDER_EPS:
        return f"{a.imag:.6g}i"
    return f"({a.real:.6g}{a.imag:+.6g}i)"


def _reference_ket(s: StateVector) -> str:
    """The per-term loop that ``format_ket`` replaced: the oracle for the
    bulk renderer."""
    parts: list[str] = []
    for i, a in enumerate(s.amplitudes):
        if abs(a) < RENDER_EPS:
            continue
        text = _format_amplitude(complex(a))
        label = format(i, f"0{s.num_qubits}b")
        if not parts:
            parts.append(f"{text}|{label}>")
        elif text.startswith("-"):
            parts.append(f"- {text[1:]}|{label}>")
        else:
            parts.append(f"+ {text}|{label}>")
    return " ".join(parts) if parts else "0"


# components on both sides of every cutoff and of every sign, and values
# whose 6-digit text rounds up a decade or switches notation
_EDGE = [0.0, -0.0, RENDER_EPS, -RENDER_EPS, math.nextafter(RENDER_EPS, 0),
         math.nextafter(RENDER_EPS, 1), 7.0710678118654e-10, -7.0710678118655e-10,
         5e-324, 1e-300, 0.5, -1 / 3, 0.9999995, -9.999995e-5, 1e-4, 123456.5, -1.0]


def _edge_state(rng, n: int, zero_share: float) -> StateVector:
    """An unnormalised 2**n-amplitude state whose components are drawn from
    ``_EDGE``, scaled or not, with about ``zero_share`` exact zeros; the
    parts are set one at a time, so signed zeros survive."""
    size = 1 << n
    amps = np.empty(size, dtype=np.complex128)
    for part in (amps.real, amps.imag):
        values = rng.choice(_EDGE, size)
        scaled = rng.random(size) < 0.3
        values[scaled] *= rng.uniform(0.5, 2.0, scaled.sum())
        values[rng.random(size) < zero_share] = 0.0
        part[:] = values
    state = StateVector.__new__(StateVector)  # the renderer reads only these
    state.num_qubits = n
    state.amplitudes = amps
    return state


class TestFormatKet:
    @pytest.mark.parametrize("n", range(1, 15))
    def test_bulk_matches_per_term_loop(self, n):
        rng = np.random.default_rng(1000 + n)
        for zero_share in (0.0, 0.5, 0.95, 1.0):
            s = _edge_state(rng, n, zero_share)
            assert first_difference(format_ket(s), _reference_ket(s)) is None

    @pytest.mark.parametrize("chunk", [1, 3, 64])
    def test_chunk_boundaries(self, monkeypatch, chunk):
        # the leading term's sign fix-up and the separators between chunks,
        # with runs of chunks that keep no term at all
        monkeypatch.setattr(ketsim.text17, "KET_CHUNK", chunk)
        rng = np.random.default_rng(chunk)
        for n in (1, 5, 9):
            for zero_share in (0.5, 0.9, 0.99):
                s = _edge_state(rng, n, zero_share)
                assert first_difference("".join(ket_chunks(s)), _reference_ket(s)) is None

    def test_random_states(self):
        rng = RngStream(7)
        for n in range(1, 9):
            s = rand_state(n, rng)
            assert first_difference(format_ket(s), _reference_ket(s)) is None
        s = StateVector([1.0])  # zero qubits: the label of index 0 is "0"
        assert format_ket(s) == _reference_ket(s) == "1|0>"

    def test_plus_state(self):
        assert format_ket(apply(hadamard(), ket([0]))) == "0.707107|0> + 0.707107|1>"

    def test_negative_and_tiny_terms(self):
        s = StateVector([math.sqrt(0.5), -math.sqrt(0.5), 1e-12, 0])
        assert format_ket(s) == "0.707107|00> - 0.707107|01>"

    def test_imaginary_amplitude(self):
        s = StateVector([math.sqrt(0.5), 1j * math.sqrt(0.5)])
        assert format_ket(s) == "0.707107|0> + 0.707107i|1>"


def _six_digit_edge() -> list[float]:
    """Positive values at the 6-digit text's boundaries: ties to even, values
    that round up a decade and their neighbours below, both sides of every
    power of ten from 1e-12 to 10 (the exact range starts at 1e-7, the "e-XX"
    form below 1e-4), and subnormals."""
    values = [1.015625, 1.046875, 2.015625, 0.5078125, 0.01953125,  # ties
              0.9999995, 0.99999949, 9.999995e-05, 9.9999949e-05, 5e-324, 1e-310,
              2.2250738585072014e-308, 0.5, 1 / 3, 0.000123456, 123456.5]
    for k in range(-12, 2):
        for v in (float(f"1e{k}"), float(f"9.999995e{k - 1}"), float(f"9.9999949e{k - 1}")):
            values += [v, math.nextafter(v, 0), math.nextafter(v, math.inf)]
    return values


def _six_digit_mismatches(x: np.ndarray) -> list[tuple[float, str, str]]:
    """The values of ``x`` whose bulk 6-digit text is not ``'%.6g'``'s, with
    both texts."""
    rows = float_rows(np.ascontiguousarray(x, dtype=np.float64), 6)
    rows[:, -1] = ord(",")
    texts = rows.tobytes().translate(None, b"\0").decode("ascii").split(",")[:-1]
    return [(v, got, "%.6g" % v) for v, got in zip(x.tolist(), texts) if got != "%.6g" % v]


def _parts_state(re: np.ndarray, im: np.ndarray) -> StateVector:
    """An unnormalised state of the given parts, padded with zeros to a power
    of two."""
    n = max(int(re.size - 1).bit_length(), 1)
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps.real[: re.size], amps.imag[: im.size] = re, im
    state = StateVector.__new__(StateVector)  # the renderer reads only these
    state.num_qubits = n
    state.amplitudes = amps
    return state


@pytest.fixture(scope="module")
def bit_patterns() -> np.ndarray:
    """200,000 seeded random float64 bit patterns, half of them with a binary
    exponent from 2**-30 to 2**4, around the 6-digit exact range."""
    rng = np.random.default_rng(6)
    bits = rng.integers(0, 1 << 64, 200_000, dtype=np.uint64)
    near = np.flatnonzero(rng.random(bits.size) < 0.5)
    exponent = rng.integers(1023 - 30, 1023 + 4, near.size).astype(np.uint64)
    bits[near] = bits[near] & np.uint64((1 << 64) - 1 - (0x7FF << 52)) | exponent << np.uint64(52)
    return bits.view(np.float64)


class TestSixDigitText:
    """The bulk 6-digit formatter and the ket built on it, against ``'%.6g'``
    one value at a time and against the per-term loop."""

    def test_boundary_values(self):
        edge = _six_digit_edge()
        assert _six_digit_mismatches(np.array(edge + [-v for v in edge] + [0.0, -0.0])) == []

    def test_named_boundaries(self):
        cases = {1.015625: "1.01562", 9.999995e-05: "0.0001", 9.9999949e-05: "9.99999e-05",
                 0.9999995: "1", 0.99999949: "0.999999", 1e-7: "1e-07", 5e-324: "4.94066e-324"}
        for value, text in cases.items():
            assert "%.6g" % value == text
        assert _six_digit_mismatches(np.array(list(cases))) == []

    def test_random_bit_patterns(self, bit_patterns):
        assert _six_digit_mismatches(bit_patterns) == []

    @pytest.mark.parametrize("chunk", [1, 4096])
    def test_ket_on_boundary_parts(self, monkeypatch, chunk):
        # every pairing of two parts, so pure real, pure imaginary and complex
        # terms; in chunks of one term, a seeded sample of 1,024 pairings
        monkeypatch.setattr(ketsim.text17, "KET_CHUNK", chunk)
        edge = _six_digit_edge()
        values = np.array(edge + [-v for v in edge] + [0.0, -0.0, RENDER_EPS, -RENDER_EPS])
        re, im = (a.reshape(-1) for a in np.meshgrid(values, values))
        if chunk == 1:
            pick = np.random.default_rng(1).permutation(re.size)[:1024]
            re, im = re[pick], im[pick]
        s = _parts_state(re, im)
        assert first_difference("".join(ket_chunks(s)), _reference_ket(s)) is None

    @pytest.mark.parametrize("chunk", [1, 4096])
    def test_ket_on_bit_patterns(self, monkeypatch, bit_patterns, chunk):
        monkeypatch.setattr(ketsim.text17, "KET_CHUNK", chunk)
        parts = bit_patterns[np.isfinite(bit_patterns)]
        parts = parts[: 2 * 1024] if chunk == 1 else parts[: parts.size // 2 * 2]
        s = _parts_state(parts[0::2], parts[1::2])
        assert first_difference("".join(ket_chunks(s)), _reference_ket(s)) is None


class TestSmallSites:
    def test_empty_amplitudes_rejected(self):
        with pytest.raises(InvalidInput) as err:
            StateVector([])
        assert type(err.value) is InvalidInput
        assert str(err.value) == "amplitudes must be a nonempty 1-d sequence"

    def test_repr_shows_the_ket(self):
        assert repr(StateVector([0, 1])) == "StateVector('1|1>')"
        assert repr(StateVector([math.sqrt(0.5), -math.sqrt(0.5)])) == (
            "StateVector('0.707107|0> - 0.707107|1>')"
        )

    @pytest.mark.parametrize(
        "qubits, message",
        [
            pytest.param([0, 0], "targets must be distinct and nonempty", id="repeated"),
            pytest.param([5], "qubit index 5 out of range for 3 qubits", id="out-of-range"),
            pytest.param([], "targets must be distinct and nonempty", id="empty"),
            pytest.param([0.5], "qubit index 0.5 is not an integer", id="fraction"),
            pytest.param([0, 1.0], "qubit index 1.0 is not an integer", id="float"),
            pytest.param(["1"], "qubit index '1' is not an integer", id="string"),
        ],
    )
    def test_split_axes_checks_the_list(self, qubits, message):
        # a repeated qubit gave a non-permutation order, an out-of-range one
        # a bare ValueError, a non-integer one a bare TypeError
        with pytest.raises(InvalidInput) as err:
            _split_axes(3, qubits)
        assert type(err.value) is InvalidInput and str(err.value) == message
