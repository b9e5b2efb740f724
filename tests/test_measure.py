import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

import ketsim.measure as measure
from ketsim import (
    CapacityExceeded,
    InvalidInput,
    RngStream,
    StateVector,
    TruthTable,
    apply,
    bell_pair,
    deutsch_jozsa,
    hadamard,
    ket,
    measure_subset,
    parse_circuit,
    probabilities,
    run_program,
    sample,
    teleport,
    walsh_hadamard,
)
from ketsim.measure import MAX_SHOTS, Histogram, SAMPLE_CHUNK, _branch_cdf, _draw
from ketsim.rng import uniforms
from ketsim.protocols import teleport_pre_measurement
from ketsim.state import index_to_bits
from conftest import rand_state


def _packed_bits(n, qubits):
    # reference: the listed qubits' bits of every basis index, first listed
    # most significant
    idx = np.arange(1 << n)
    packed = np.zeros(1 << n, dtype=np.intp)
    for q in qubits:
        packed = (packed << 1) | ((idx >> (n - 1 - q)) & 1)
    return packed


def _scatter_measure_subset(s, qubits, rng):
    # reference: weights by a scatter-add over packed outcome indices, the
    # projection by a whole-state select and a copying constructor
    pattern = _packed_bits(s.num_qubits, qubits)
    weights = np.zeros(1 << len(qubits))
    np.add.at(weights, pattern, np.abs(s.amplitudes) ** 2)
    cdf, last_live = _branch_cdf(weights)
    outcome = _draw(cdf, last_live, rng.uniform())
    projected = np.where(pattern == outcome, s.amplitudes, 0.0)
    projected /= math.sqrt(weights[outcome])
    return index_to_bits(outcome, len(qubits)), float(weights[outcome]), StateVector(projected)


def _seeded_states(n, gen):
    # generic amplitudes, half of them zero, and magnitudes over 11 decades
    for kind in range(3):
        amps = gen.normal(size=1 << n) + 1j * gen.normal(size=1 << n)
        if kind == 1:
            amps[gen.random(1 << n) < 0.5] = 0
            amps[gen.integers(1 << n)] = 1
        elif kind == 2:
            amps *= 10.0 ** gen.integers(-8, 3, 1 << n)
        yield StateVector(amps / np.linalg.norm(amps))


class TestRngStream:
    # frozen SplitMix64 reference outputs
    SEED0 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
    SEED42 = (0xBDD732262FEB6E95, 0x28EFE333B266F103, 0x47526757130F9F52)

    def test_reference_vectors(self):
        stream0, stream42 = RngStream(0), RngStream(42)
        assert tuple(stream0.next_u64() for _ in range(3)) == self.SEED0
        assert tuple(stream42.next_u64() for _ in range(3)) == self.SEED42

    def test_same_seed_same_sequence(self):
        a, b = RngStream(123), RngStream(123)
        assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]

    def test_uniform_range(self):
        rng = RngStream(5)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)
        assert 0.4 < sum(draws) / len(draws) < 0.6

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_block_draws_equal_scalar_stream(self, seed):
        # 2**64 - 1 wraps the counter on the first draw
        rng = RngStream(seed)
        scalar = np.array([rng.uniform() for _ in range(10**6)])
        assert np.array_equal(uniforms(seed, 0, 10**6).view(np.uint64), scalar.view(np.uint64))

    @pytest.mark.parametrize("seed", [7, -1, -(2**70) - 3])
    def test_block_draws_at_an_offset(self, seed):
        # a negative seed is masked to 64 bits, as RngStream masks it
        rng = RngStream(seed)
        scalar = [rng.uniform() for _ in range(12_345 + 1000)]
        assert uniforms(seed, 12_345, 1000).tolist() == scalar[12_345:]
        assert uniforms(seed, 0, 0).size == 0

    def test_normal_consumes_two_uniforms(self):
        a, b = RngStream(9), RngStream(9)
        a.normal()
        b.uniform(), b.uniform()
        assert a.next_u64() == b.next_u64()


class TestMeasureAll:
    """Measuring every qubit: ``measure_subset`` of the whole register in
    order, as a bare circuit ``measure`` does, and ``sample``."""

    def test_deterministic_state(self):
        out = measure_subset(ket([1]), [0], RngStream(0))
        assert out.bits == (1,)
        assert out.probability == 1.0
        assert np.array_equal(out.collapsed.amplitudes, ket([1]).amplitudes)

    def test_coin_frequencies_at_seed_42(self):
        hist = sample(apply(hadamard(), ket([0])), 10_000, seed=42)
        assert 0.48 <= hist.counts["0"] / 10_000 <= 0.52

    def test_uniform_three_qubit_born_weights(self):
        s = apply(walsh_hadamard(3), ket([0, 0, 0]))
        assert np.allclose(probabilities(s), np.full(8, 1 / 8), atol=1e-15)

    def test_probability_equals_born_weight(self):
        rng = RngStream(11)
        s = rand_state(3, rng)
        out = measure_subset(s, range(3), rng)
        index = int("".join(map(str, out.bits)), 2)
        assert abs(out.probability - probabilities(s)[index]) <= 1e-12

    def test_output_is_fresh(self):
        s = rand_state(3, RngStream(19))
        before = s.amplitudes.copy()
        out = measure_subset(s, range(3), RngStream(4))
        assert not np.shares_memory(out.collapsed.amplitudes, s.amplitudes)
        assert np.array_equal(s.amplitudes, before)


class TestMeasureSubset:
    def test_classical_qubit(self):
        out = measure_subset(ket([0, 1]), [0], RngStream(0))
        assert out.bits == (0,)
        assert out.probability == 1.0
        assert np.array_equal(out.collapsed.amplitudes, ket([0, 1]).amplitudes)

    def test_bell_pair_correlation(self):
        for seed in range(8):
            out = measure_subset(bell_pair(0, 0), [0], RngStream(seed))
            b = out.bits[0]
            assert abs(out.probability - 0.5) <= 1e-12
            assert np.allclose(out.collapsed.amplitudes, ket([b, b]).amplitudes, atol=1e-12)

    def test_teleport_table_rows(self):
        # measuring the sender's two qubits leaves the receiver's qubit in
        # the table row for the observed bits
        rng = RngStream(3)
        psi = rand_state(1, rng)
        a, b = psi.amplitudes
        rows = {
            (0, 0): [a, b],
            (0, 1): [b, a],
            (1, 0): [a, -b],
            (1, 1): [-b, a],
        }
        _, _, psi2 = teleport_pre_measurement(psi)
        seen = set()
        for seed in range(40):
            out = measure_subset(psi2, [0, 1], rng=RngStream(seed))
            a1, a2 = out.bits
            seen.add((a1, a2))
            assert abs(out.probability - 0.25) <= 1e-12
            bob = out.collapsed.amplitudes[(a1 * 2 + a2) * 2 : (a1 * 2 + a2) * 2 + 2]
            assert np.allclose(bob, rows[(a1, a2)], atol=1e-12)
        assert seen == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_branch_weights_sum_to_one(self):
        rng = RngStream(17)
        s = rand_state(4, rng)
        weights = np.zeros(4)
        for b in range(16):
            pattern = ((b >> 3) & 1) * 2 + ((b >> 1) & 1)  # qubits [0, 2]
            weights[pattern] += probabilities(s)[b]
        assert abs(weights.sum() - 1.0) <= 1e-10
        out = measure_subset(s, [0, 2], rng)
        assert abs(out.probability - weights[int("".join(map(str, out.bits)), 2)]) <= 1e-12

    def test_collapse_idempotent(self):
        rng = RngStream(21)
        s = rand_state(3, rng)
        first = measure_subset(s, [1, 2], rng)
        second = measure_subset(first.collapsed, [1, 2], rng)
        assert second.bits == first.bits
        assert abs(second.probability - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [*range(1, 13), 16])
    def test_bits_equal_scatter_reference(self, n):
        gen = np.random.default_rng(n)
        for s in _seeded_states(n, gen):
            for k in range(1, min(n, 4) + 1):
                for seed in range(3):
                    qubits = [int(q) for q in gen.permutation(n)[:k]]
                    bits, probability, collapsed = _scatter_measure_subset(
                        s, qubits, RngStream(seed))
                    out = measure_subset(s, qubits, RngStream(seed))
                    assert out.bits == bits
                    assert np.float64(out.probability).view(np.int64) == np.float64(
                        probability).view(np.int64)
                    assert np.array_equal(out.collapsed.amplitudes.view(np.int64),
                                          collapsed.amplitudes.view(np.int64))

    @pytest.mark.parametrize("qubits", [[0], [2], [3, 1], [0, 3, 2], [2, 0, 3, 1]])
    def test_output_is_fresh(self, qubits):
        s = rand_state(4, RngStream(23))
        before = s.amplitudes.copy()
        out = measure_subset(s, qubits, RngStream(5))
        assert not np.shares_memory(out.collapsed.amplitudes, s.amplitudes)
        assert np.array_equal(s.amplitudes, before)

    def test_validation(self):
        with pytest.raises(InvalidInput):
            measure_subset(ket([0, 0]), [], RngStream(0))
        with pytest.raises(InvalidInput):
            measure_subset(ket([0, 0]), [0, 0], RngStream(0))
        with pytest.raises(InvalidInput):
            measure_subset(ket([0, 0]), [2], RngStream(0))


def _unchunked_counts(s, shots, seed):
    # reference: every shot's uniform held at once, one searchsorted pass
    cdf, last_live = _branch_cdf(probabilities(s))
    rng = RngStream(seed)
    draws = np.array([rng.uniform() for _ in range(shots)])
    indices = np.minimum(np.searchsorted(cdf, draws, side="right"), last_live)
    values, freqs = np.unique(indices, return_counts=True)
    return {format(int(v), f"0{s.num_qubits}b"): int(c) for v, c in zip(values, freqs)}


class TestDraw:
    def test_every_measurement_draws_through_draw(self, monkeypatch):
        calls = []

        def counting(cdf, last_live, u):
            calls.append(np.ndim(u))
            return _draw(cdf, last_live, u)

        monkeypatch.setattr(measure, "_draw", counting)
        s = rand_state(3, RngStream(12))
        out = measure_subset(s, [2, 0], RngStream(1))
        sample(s, 10, seed=1)
        assert calls == [0, 1]
        assert all(type(b) is int for b in out.bits)
        assert type(out.probability) is float


class TestSample:
    @pytest.mark.parametrize(
        "shots", [SAMPLE_CHUNK - 1, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 2 * SAMPLE_CHUNK + 3]
    )
    def test_chunked_counts_equal_unchunked(self, shots):
        s = rand_state(4, RngStream(10))
        hist = sample(s, shots, seed=shots)
        assert hist.counts == _unchunked_counts(s, shots, shots)
        assert list(hist.counts) == sorted(hist.counts)

    def test_memory_does_not_grow_with_shots(self, monkeypatch):
        monkeypatch.setattr(measure, "SAMPLE_CHUNK", 1000)
        s = rand_state(3, RngStream(11))
        for shots in (10**4, 10**5):
            tracemalloc.start()
            try:
                sample(s, shots, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # one chunk of draws and indices is 16 kB; all 10**4 draws, 80 kB
            assert peak < 64_000, shots

    def test_deterministic_state(self):
        hist = sample(ket([0]), 50, seed=1)
        assert hist.counts == {"0": 50}

    def test_coin_within_four_sigma(self):
        hist = sample(apply(hadamard(), ket([0])), 10_000, seed=7)
        assert set(hist.counts) == {"0", "1"}
        assert abs(hist.counts["0"] - 5000) <= 200
        assert abs(hist.counts["1"] - 5000) <= 200

    def test_bell_pair_support(self):
        hist = sample(bell_pair(0, 0), 4000, seed=3)
        assert set(hist.counts) == {"00", "11"}

    def test_counts_sum_to_shots(self):
        rng = RngStream(4)
        hist = sample(rand_state(3, rng), 777, seed=9)
        assert sum(hist.counts.values()) == 777

    def test_same_seed_identical_histograms(self):
        s = apply(walsh_hadamard(2), ket([0, 0]))
        a = sample(s, 2000, seed=12)
        b = sample(s, 2000, seed=12)
        assert a == b
        assert list(a.counts.items()) == list(b.counts.items())

    def test_zero_weight_branch_never_emitted(self):
        s = StateVector([1.0, 1e-16])
        hist = sample(s, 5000, seed=2)
        assert hist.counts == {"0": 5000}

    def test_chi_square_against_born_weights(self):
        rng = RngStream(6)
        s = rand_state(3, rng)
        shots = 10_000
        hist = sample(s, shots, seed=13)
        expected = probabilities(s) * shots
        observed = np.zeros(8)
        for pattern, count in hist.counts.items():
            observed[int(pattern, 2)] = count
        live = expected > 0
        chi2 = float(np.sum((observed[live] - expected[live]) ** 2 / expected[live]))
        assert chi2 < scipy.stats.chi2.ppf(0.999, df=live.sum() - 1)

    def test_shots_validated(self, monkeypatch):
        with pytest.raises(InvalidInput):
            sample(ket([0]), 0, seed=0)
        # over the cap, before any draw
        monkeypatch.setattr(measure, "uniforms", None)
        with pytest.raises(CapacityExceeded):
            sample(ket([0]), MAX_SHOTS + 1, seed=0)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: sample(ket([0]), 2.5, 0), "shots 2.5 is not an integer",
                     id="sample-shots"),
        pytest.param(lambda: run_program(parse_circuit("h 0\nmeasure 0"), shots="3"),
                     "shots '3' is not an integer", id="run-shots"),
        pytest.param(lambda: sample(ket([0]), 3, 0.5), "seed 0.5 is not an integer",
                     id="sample-seed"),
        pytest.param(lambda: teleport(ket([0]), 0.5), "seed 0.5 is not an integer",
                     id="teleport-seed"),
        pytest.param(lambda: deutsch_jozsa(TruthTable(1, (0, 1)), None),
                     "seed None is not an integer", id="deutsch-jozsa-seed"),
        pytest.param(lambda: RngStream(1.5), "seed 1.5 is not an integer", id="stream-seed"),
    ],
)
def test_non_integer_shots_and_seeds(call, message):
    # each ended in a bare TypeError
    with pytest.raises(InvalidInput) as err:
        call()
    assert type(err.value) is InvalidInput and str(err.value) == message


@pytest.mark.parametrize(
    "shots, seed",
    [(True, True), (np.int64(3), np.int64(5)), (np.uint8(3), np.uint64(2**64 - 1))],
    ids=["bool", "int64", "unsigned"],
)
def test_integer_like_shots_and_seeds(shots, seed):
    # bools and numpy integers draw what the equal int draws
    s = apply(hadamard(), ket([0]))
    hist = sample(s, shots, seed)
    assert hist.counts == sample(s, int(shots), int(seed)).counts
    assert type(hist.shots) is int and type(hist.seed) is int
    assert RngStream(seed).next_u64() == RngStream(int(seed)).next_u64()


def test_histogram_counts_must_sum_to_shots():
    with pytest.raises(InvalidInput) as err:
        Histogram(2, 0, {"0": 1})
    assert type(err.value) is InvalidInput
    assert str(err.value) == "histogram counts must sum to shots"
