import dataclasses
import itertools
import math

import numpy as np
import pytest

import ketsim.measure as measure
import ketsim.protocols as protocols
from ketsim import (
    DimensionMismatch,
    InvalidInput,
    NumericalFailure,
    PromiseViolated,
    RngStream,
    StateVector,
    TruthTable,
    apply_gate_at,
    apply_oracle_at,
    clone_fidelity,
    deutsch,
    deutsch_jozsa,
    fair_coin,
    hadamard,
    ket,
    measure_subset,
    parallel_eval,
    probabilities,
    qubit_from_angles,
    states_equivalent,
    teleport,
    teleport_branch,
    teleport_pre_measurement,
)
from ketsim.gates import oracle_from_truth_table
from conftest import kron_chain, rand_state


def fidelity(a: StateVector, b: StateVector) -> float:
    return abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2


BRANCHES = [(0, 0), (0, 1), (1, 0), (1, 1)]


class TestTeleportBranch:
    def test_ket0_every_branch(self):
        for a1, a2 in BRANCHES:
            assert states_equivalent(teleport_branch(ket([0]), a1, a2), ket([0]), tol=1e-9)

    def test_pre_correction_table(self):
        rng = RngStream(1)
        psi = rand_state(1, rng)
        a, b = psi.amplitudes
        _, _, psi2 = teleport_pre_measurement(psi)
        rows = {(0, 0): [a, b], (0, 1): [b, a], (1, 0): [a, -b], (1, 1): [-b, a]}
        for (a1, a2), row in rows.items():
            base = (a1 * 2 + a2) * 2
            branch = psi2.amplitudes[base : base + 2] * 2.0  # weight 1/4 -> renormalize
            assert np.allclose(branch, row, atol=1e-12)

    def test_phase_eigenstate_all_branches(self):
        psi = qubit_from_angles(math.pi / 4, math.pi / 2)  # (|0> + i|1>)/sqrt(2)
        for a1, a2 in BRANCHES:
            assert fidelity(teleport_branch(psi, a1, a2), psi) >= 1 - 1e-10

    def test_hundred_random_inputs(self):
        rng = RngStream(2)
        for _ in range(100):
            psi = rand_state(1, rng)
            for a1, a2 in BRANCHES:
                assert fidelity(teleport_branch(psi, a1, a2), psi) >= 1 - 1e-10

    def test_branch_weights_quarter(self):
        rng = RngStream(3)
        for _ in range(20):
            _, _, psi2 = teleport_pre_measurement(rand_state(1, rng))
            weights = probabilities(psi2).reshape(4, 2).sum(axis=1)
            assert np.max(np.abs(weights - 0.25)) <= 1e-12

    def test_bad_bits(self):
        with pytest.raises(InvalidInput):
            teleport_branch(ket([0]), 2, 0)

    def test_multi_qubit_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            teleport_branch(ket([0, 0]), 0, 0)


class TestTeleportSampled:
    def test_transcript_reproduces_input(self):
        rng = RngStream(4)
        for seed in range(25):
            psi = rand_state(1, rng)
            transcript = teleport(psi, seed)
            assert states_equivalent(transcript.bob_state, psi, tol=1e-9)
            assert transcript.input_state is psi
            assert (transcript.a1, transcript.a2) in BRANCHES

    def test_pair_is_consumed(self):
        # after the measurement the sender's two qubits are classical
        transcript = teleport(qubit_from_angles(0.9, 1.7), 6)
        collapsed = transcript.collapsed.amplitudes.reshape(4, 2)
        live_blocks = np.abs(collapsed).sum(axis=1) > 1e-12
        assert live_blocks.sum() == 1
        assert int(np.nonzero(live_blocks)[0][0]) == transcript.a1 * 2 + transcript.a2

    def test_bob_state_bits_equal_forced_branch(self):
        # (0.1, 0) at seed 0 draws branch 11, where a second renormalization
        # of the collapsed state once changed the last bits
        cases = [(qubit_from_angles(0.1, 0.0), 0)]
        rng = RngStream(8)
        cases += [(rand_state(1, rng), seed) for seed in range(200)]
        for psi, seed in cases:
            t = teleport(psi, seed)
            forced = teleport_branch(psi, t.a1, t.a2)
            assert t.bob_state.amplitudes.tobytes() == forced.amplitudes.tobytes()

    def test_all_branches_occur(self):
        psi = qubit_from_angles(1.1, 0.3)
        counts = {branch: 0 for branch in BRANCHES}
        for seed in range(400):
            t = teleport(psi, seed)
            counts[(t.a1, t.a2)] += 1
        assert all(count >= 50 for count in counts.values())


class TestParallelEval:
    def test_identity_function(self):
        got = parallel_eval(TruthTable(1, (0, 1)))
        assert np.allclose(got.amplitudes, np.array([1, 0, 0, 1]) / math.sqrt(2), atol=1e-12)

    def test_constant_one(self):
        got = parallel_eval(TruthTable(1, (1, 1)))
        assert np.allclose(got.amplitudes, np.array([0, 1, 0, 1]) / math.sqrt(2), atol=1e-12)

    def test_amplitude_pattern_random_functions(self):
        rng = RngStream(5)
        for arity in (3, 5, 8):
            f = TruthTable(arity, tuple(int(rng.next_u64() % 2) for _ in range(1 << arity)))
            got = parallel_eval(f)
            scale = 1 / math.sqrt(1 << arity)
            for index, amplitude in enumerate(got.amplitudes):
                x, y = index >> 1, index & 1
                expected = scale if y == f.outputs[x] else 0.0
                assert abs(amplitude - expected) <= 1e-12


def _dense_dj_zero_weight(f: TruthTable) -> float:
    """Brute-force state evolution through dense Kronecker products."""
    n = f.arity
    state = np.zeros(1 << (n + 1), dtype=complex)
    state[1] = 1.0  # |0...0,1>
    state = kron_chain(*[hadamard()] * (n + 1)) @ state
    state = oracle_from_truth_table(f) @ state
    state = kron_chain(*([hadamard()] * n + [np.eye(2, dtype=complex)])) @ state
    return float(abs(state[0]) ** 2 + abs(state[1]) ** 2)


def _balanced_tables(arity: int):
    size = 1 << arity
    for ones in itertools.combinations(range(size), size // 2):
        outputs = [0] * size
        for x in ones:
            outputs[x] = 1
        yield TruthTable(arity, tuple(outputs))


class TestDeutsch:
    @pytest.mark.parametrize("outputs", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_all_four_functions(self, outputs):
        f = TruthTable(1, outputs)
        assert deutsch(f) == outputs[0] ^ outputs[1]

    def test_single_oracle_call(self, monkeypatch):
        calls = []
        original = protocols.apply_oracle_at
        monkeypatch.setattr(
            protocols, "apply_oracle_at", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        deutsch(TruthTable(1, (0, 1)))
        assert len(calls) == 1

    def test_arity_validated(self):
        with pytest.raises(InvalidInput):
            deutsch(TruthTable(2, (0, 0, 1, 1)))

    def test_nondeterministic_weight_is_numerical_failure(self, monkeypatch):
        real = protocols.deutsch_jozsa
        monkeypatch.setattr(
            protocols, "deutsch_jozsa",
            lambda f: dataclasses.replace(real(f), zero_branch_weight=0.5),
        )
        with pytest.raises(NumericalFailure, match=r"p\(0\)=0\.5"):
            deutsch(TruthTable(1, (0, 1)))


class TestDeutschJozsa:
    def test_constant_one_n2(self):
        verdict = deutsch_jozsa(TruthTable(2, (1, 1, 1, 1)))
        assert verdict.verdict == "Constant"
        assert verdict.measured_bits == (0, 0)
        assert verdict.oracle_calls == 1

    def test_balanced_first_bit_n2(self):
        verdict = deutsch_jozsa(TruthTable(2, (0, 0, 1, 1)))  # f(x) = x1
        assert verdict.verdict == "Balanced"
        assert verdict.measured_bits != (0, 0)
        assert verdict.zero_branch_weight <= 1e-10

    def test_n1_agrees_with_deutsch(self):
        for outputs in ((0, 1), (1, 0)):
            f = TruthTable(1, outputs)
            assert deutsch(f) == 1
            assert deutsch_jozsa(f).verdict == "Balanced"

    @pytest.mark.parametrize("arity", [1, 2, 3])
    def test_exhaustive_against_dense_oracle(self, arity):
        size = 1 << arity
        tables = [TruthTable(arity, (0,) * size), TruthTable(arity, (1,) * size)]
        tables.extend(_balanced_tables(arity))
        for f in tables:
            verdict = deutsch_jozsa(f)
            expected = "Constant" if f.is_constant() else "Balanced"
            assert verdict.verdict == expected
            dense_weight = _dense_dj_zero_weight(f)
            assert abs(verdict.zero_branch_weight - dense_weight) <= 1e-10
            if expected == "Constant":
                assert abs(verdict.zero_branch_weight - 1.0) <= 1e-10
                assert verdict.measured_bits == (0,) * arity
            else:
                assert verdict.zero_branch_weight <= 1e-10
                assert verdict.measured_bits != (0,) * arity

    def test_promise_validated_eagerly(self):
        with pytest.raises(PromiseViolated):
            deutsch_jozsa(TruthTable(2, (1, 0, 0, 0)))

    def test_single_oracle_call(self, monkeypatch):
        calls = []
        original = protocols.apply_oracle_at
        monkeypatch.setattr(
            protocols, "apply_oracle_at", lambda *a, **k: calls.append(1) or original(*a, **k)
        )
        deutsch_jozsa(TruthTable(3, (0, 1) * 4))
        assert len(calls) == 1

    def test_sampled_bits_follow_rng(self):
        f = TruthTable(2, (0, 1, 1, 0))
        a = deutsch_jozsa(f, 14)
        b = deutsch_jozsa(f, 14)
        assert a == b



# Reference copies of deutsch_jozsa and teleport as they were while they
# measured through measure_subset off a scalar RngStream(seed), before both
# became one-shot walks that draw uniform 0 of the seed by address.
EDGE_SEEDS = [0, 1, 42, 2**64 - 1, -1, 2**70 + 3]
SEEDS = EDGE_SEEDS + np.random.default_rng(2718).integers(0, 2**63, 20).tolist()


def _stream_deutsch_jozsa(f: TruthTable, seed: int):
    n = f.arity
    s = ket([0] * n + [1])
    for q in range(n + 1):
        s = apply_gate_at(hadamard(), [q], s)
    s = apply_oracle_at(f, list(range(n + 1)), s)
    for q in range(n):
        s = apply_gate_at(hadamard(), [q], s)
    weights = np.abs(s.amplitudes) ** 2
    zero_branch = float(weights[0] + weights[1])
    outcome = measure_subset(s, list(range(n)), RngStream(seed))
    verdict = "Constant" if all(b == 0 for b in outcome.bits) else "Balanced"
    return verdict, outcome.bits, zero_branch


def _stream_teleport(psi: StateVector, seed: int):
    _, _, psi2 = teleport_pre_measurement(psi)
    outcome = measure_subset(psi2, [0, 1], RngStream(seed))
    a1, a2 = outcome.bits
    return a1, a2, outcome.collapsed, protocols._received(psi2, a1, a2)


def _dj_tables(arity: int):
    """A constant table and a seeded balanced one, whose weight after the
    final Hadamards spreads over many patterns so that the seed matters."""
    size = 1 << arity
    outputs = np.zeros(size, dtype=int)
    outputs[np.random.default_rng(arity).permutation(size)[: size // 2]] = 1
    return [TruthTable(arity, (arity % 2,) * size), TruthTable(arity, tuple(outputs.tolist()))]


class TestAgainstStreamReference:
    @pytest.mark.parametrize("arity", range(1, 11))
    def test_deutsch_jozsa(self, arity):
        for f in _dj_tables(arity):
            for seed in SEEDS:
                verdict, bits, zero_branch = _stream_deutsch_jozsa(f, seed)
                got = deutsch_jozsa(f, seed)
                assert got.verdict == verdict
                assert got.measured_bits == bits
                assert got.zero_branch_weight.hex() == zero_branch.hex()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_teleport(self, seed):
        rng = RngStream(31)
        for _ in range(200):
            psi = rand_state(1, rng)
            a1, a2, collapsed, bob = _stream_teleport(psi, seed)
            got = teleport(psi, seed)
            assert (got.a1, got.a2) == (a1, a2)
            assert got.collapsed.amplitudes.tobytes() == collapsed.amplitudes.tobytes()
            assert got.bob_state.amplitudes.tobytes() == bob.amplitudes.tobytes()

    @pytest.mark.parametrize("arity", [3, 10])
    def test_deutsch_jozsa_never_collapses(self, monkeypatch, arity):
        # the readout is the walk's leaf: counted, never projected
        tables = _dj_tables(arity)
        expected = [_stream_deutsch_jozsa(f, 0)[:2] for f in tables]

        def refuse(*args):
            raise AssertionError("deutsch_jozsa collapsed its state")

        monkeypatch.setattr(measure._Projection, "collapse", refuse)
        for f, (verdict, bits) in zip(tables, expected):
            got = deutsch_jozsa(f)
            assert (got.verdict, got.measured_bits) == (verdict, bits)


class TestCloneFidelity:
    def test_basis_states(self):
        for n in (2, 3, 5):
            for i in range(n):
                basis = np.zeros(n)
                basis[i] = 1.0
                assert abs(clone_fidelity(basis) - 1.0) <= 1e-12

    def test_uniform_pair_superposition(self):
        plus = np.array([1, 1]) / math.sqrt(2)
        assert abs(clone_fidelity(plus) - 0.5) <= 1e-12

    def test_uniform_triple_superposition(self):
        vec = np.ones(3) / math.sqrt(3)
        assert abs(clone_fidelity(vec) - 1 / 3) <= 1e-12

    def test_strictly_below_one_on_superpositions(self):
        rng = RngStream(8)
        for _ in range(20):
            re1, im1 = rng.normal()
            re2, im2 = rng.normal()
            vec = np.array([complex(re1, im1), complex(re2, im2)])
            vec /= np.linalg.norm(vec)
            if min(abs(vec[0]), abs(vec[1])) < 0.2:
                continue  # nearly a basis state; fidelity legitimately near 1
            assert clone_fidelity(vec) < 0.999

    def test_unnormalized_rejected(self):
        with pytest.raises(InvalidInput):
            clone_fidelity(np.array([1.0, 1.0]))

    def test_dimension_validated(self):
        with pytest.raises(DimensionMismatch):
            clone_fidelity(np.array([1.0]))


class TestFairCoin:
    def test_single_shot(self):
        hist = fair_coin(seed=0, shots=1)
        assert sum(hist.counts.values()) == 1
        assert set(hist.counts) <= {"0", "1"}

    def test_four_sigma_bound(self):
        hist = fair_coin(seed=42, shots=10_000)
        assert abs(hist.counts["0"] - 5000) <= 200
        assert abs(hist.counts["1"] - 5000) <= 200

    def test_deterministic(self):
        assert fair_coin(seed=9, shots=500) == fair_coin(seed=9, shots=500)
