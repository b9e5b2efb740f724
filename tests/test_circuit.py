import math

import numpy as np
import pytest

from ketsim import (
    CapacityExceeded,
    CircuitProgram,
    Instruction,
    InvalidInput,
    ParseError,
    RngStream,
    StateVector,
    TruthTable,
    apply_gate_at,
    apply_oracle_at,
    bell_pair,
    cnot,
    hadamard,
    ket,
    measure_all,
    measure_subset,
    parse_circuit,
    pauli_x,
    pauli_y,
    pauli_z,
    render_circuit,
    run_program,
    states_equivalent,
    toffoli_unitary,
    u2_from_params,
)

TABLES = {"f": TruthTable(1, (0, 1)), "g2": TruthTable(2, (0, 1, 1, 0))}


class TestParse:
    def test_bell_preparation(self):
        program = parse_circuit("h 0\ncnot 0 1")
        assert program.num_qubits == 2
        assert [ins.opcode for ins in program.instructions] == ["H", "CNOT"]
        final = run_program(program)
        assert states_equivalent(final, bell_pair(0, 0), tol=1e-9)

    def test_empty_program_valid(self):
        program = parse_circuit("")
        assert program == CircuitProgram(num_qubits=0, instructions=())

    def test_comments_and_blank_lines(self):
        program = parse_circuit("# nothing\n\nqubits 1\n  x 0  # flip\n")
        assert program.instructions == (Instruction("X", (0,)),)

    def test_declared_width_enforced(self):
        with pytest.raises(ParseError) as err:
            parse_circuit("qubits 2\nx 5")
        assert err.value.line == 2
        assert "out of range" in str(err.value)

    def test_width_inferred_without_directive(self):
        assert parse_circuit("x 5").num_qubits == 6

    def test_unknown_opcode(self):
        with pytest.raises(ParseError) as err:
            parse_circuit("qubits 1\nfoo 0")
        assert err.value.line == 2

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_circuit("cnot 0")

    def test_duplicate_target(self):
        with pytest.raises(ParseError):
            parse_circuit("cnot 1 1")

    def test_u2_params(self):
        program = parse_circuit("u2 0 a=0.1 b=0.2 c=0.3 d=0.4")
        assert program.instructions[0].params == (0.1, 0.2, 0.3, 0.4)

    def test_u2_params_any_order(self):
        program = parse_circuit("u2 0 d=4 c=3 b=2 a=1")
        assert program.instructions[0].params == (1.0, 2.0, 3.0, 4.0)

    def test_u2_missing_param(self):
        with pytest.raises(ParseError) as err:
            parse_circuit("u2 0 a=0.1 b=0.2 c=0.3")
        assert "missing" in str(err.value)

    def test_oracle_requires_loaded_table(self):
        with pytest.raises(ParseError):
            parse_circuit("oracle f 0 1")
        program = parse_circuit("oracle f 0 1", TABLES)
        assert program.instructions[0].table == "f"

    def test_oracle_arity_checked(self):
        with pytest.raises(ParseError):
            parse_circuit("oracle g2 0 1", TABLES)

    def test_measure_all_only_trailing(self):
        with pytest.raises(ParseError) as err:
            parse_circuit("qubits 2\nmeasure\nx 0")
        assert err.value.line == 3
        parse_circuit("qubits 2\nmeasure 0\nx 0")  # subset measure is fine

    def test_duplicate_qubits_directive(self):
        with pytest.raises(ParseError):
            parse_circuit("qubits 2\nqubits 3")


class TestRender:
    PROGRAMS = [
        CircuitProgram(2, (Instruction("H", (0,)), Instruction("CNOT", (0, 1)))),
        CircuitProgram(
            3,
            (
                Instruction("U2", (1,), params=(0.1, -2.5, math.pi, 4e-3)),
                Instruction("ORACLE", (0, 1), table="f"),
                Instruction("MEASURE", (2,)),
                Instruction("TOFFOLI", (0, 1, 2)),
                Instruction("MEASURE", ()),
            ),
        ),
        CircuitProgram(1, ()),
    ]

    @pytest.mark.parametrize("program", PROGRAMS)
    def test_round_trip(self, program):
        assert parse_circuit(render_circuit(program), TABLES) == program

    def test_random_round_trip(self):
        rng = RngStream(1)
        opcodes = ["X", "Y", "Z", "H", "CNOT", "TOFFOLI", "U2"]
        for _ in range(25):
            n = 4
            instructions = []
            for _ in range(6):
                op = opcodes[rng.next_u64() % len(opcodes)]
                arity = {"CNOT": 2, "TOFFOLI": 3}.get(op, 1)
                targets = []
                while len(targets) < arity:
                    t = int(rng.next_u64() % n)
                    if t not in targets:
                        targets.append(t)
                params = (
                    tuple(rng.uniform() * 7 - 3 for _ in range(4)) if op == "U2" else ()
                )
                instructions.append(Instruction(op, tuple(targets), params=params))
            program = CircuitProgram(n, tuple(instructions))
            assert parse_circuit(render_circuit(program), TABLES) == program


class TestRun:
    def test_deterministic_final_state(self):
        program = parse_circuit("qubits 1\nh 0\nz 0\nh 0")
        final = run_program(program)
        assert isinstance(final, StateVector)
        assert np.allclose(final.amplitudes, [0, 1], atol=1e-12)

    def test_bell_counts(self):
        program = parse_circuit("qubits 2\nh 0\ncnot 0 1\nmeasure")
        hist = run_program(program, shots=2000, seed=7)
        assert set(hist.counts) == {"00", "11"}
        assert sum(hist.counts.values()) == 2000

    def test_mid_circuit_measurement(self):
        # measuring one half of the pair makes the other classical
        program = parse_circuit("qubits 2\nh 0\ncnot 0 1\nmeasure 0\nmeasure 1")
        hist = run_program(program, shots=500, seed=1)
        assert set(hist.counts) <= {"00", "11"}

    def test_oracle_instruction(self):
        program = parse_circuit("qubits 2\nx 0\noracle f 0 1", TABLES)
        final = run_program(program, TABLES)
        assert np.array_equal(np.abs(final.amplitudes), [0, 0, 0, 1])

    def test_seed_determinism(self):
        program = parse_circuit("qubits 3\nh 0\nh 1\ntoffoli 0 1 2\nmeasure")
        a = run_program(program, shots=300, seed=5)
        b = run_program(program, shots=300, seed=5)
        assert a == b

    def test_zero_qubits_rejected(self):
        with pytest.raises(InvalidInput):
            run_program(CircuitProgram(0, ()))

    def test_cap_enforced(self):
        program = parse_circuit("qubits 6\nx 0")
        with pytest.raises(CapacityExceeded):
            run_program(program, cap=4)


GATES = {"X": pauli_x, "Y": pauli_y, "Z": pauli_z, "H": hadamard, "CNOT": cnot,
         "TOFFOLI": toffoli_unitary, "U2": u2_from_params}


def _random_program(rng: RngStream, index: int) -> CircuitProgram:
    """Gates, u2 and oracles with subset measurements anywhere; even programs
    open with a Hadamard layer, most end in a bare ``measure`` and every
    fourth in a subset one."""
    n = 3 + index % 3

    def distinct(k):
        targets = []
        while len(targets) < k:
            t = int(rng.next_u64() % n)
            if t not in targets:
                targets.append(t)
        return tuple(targets)

    instructions = [Instruction("H", (q,)) for q in range(n)] if index % 2 == 0 else []
    for _ in range(4 + int(rng.next_u64() % 10)):
        kind = rng.next_u64() % 10
        if kind < 2:
            instructions.append(Instruction("MEASURE", distinct(1 + int(rng.next_u64() % 2))))
        elif kind < 3:
            name = "f" if rng.next_u64() % 2 else "g2"
            instructions.append(
                Instruction("ORACLE", distinct(TABLES[name].arity + 1), table=name)
            )
        elif kind < 4:
            params = tuple(rng.uniform() * 6.4 - 3.2 for _ in range(4))
            instructions.append(Instruction("U2", distinct(1), params=params))
        else:
            op = ("X", "Y", "Z", "H", "H", "CNOT", "TOFFOLI")[rng.next_u64() % 7]
            instructions.append(Instruction(op, distinct({"CNOT": 2, "TOFFOLI": 3}.get(op, 1))))
    tail = Instruction("MEASURE", distinct(2) if index % 4 == 3 else ())
    return CircuitProgram(n, (*instructions, tail))


def _replay_counts(program, tables, shots, seed):
    """Independent oracle: every shot rebuilds |0...0> and replays the whole
    program, drawing from one stream in program order."""
    rng = RngStream(seed)
    counts = {}
    for _ in range(shots):
        state = ket([0] * program.num_qubits)
        bits = ""
        for ins in program.instructions:
            targets = list(ins.targets)
            if ins.opcode == "MEASURE":
                if targets:
                    outcome = measure_subset(state, targets, rng)
                else:
                    outcome = measure_all(state, rng)
                state = outcome.collapsed
                bits += "".join(map(str, outcome.bits))
            elif ins.opcode == "ORACLE":
                state = apply_oracle_at(tables[ins.table], targets, state)
            else:
                state = apply_gate_at(GATES[ins.opcode](*ins.params), targets, state)
        counts[bits] = counts.get(bits, 0) + 1
    return counts


class TestExecutor:
    @pytest.mark.parametrize("index", range(24))
    def test_matches_per_shot_replay(self, index):
        program = _random_program(RngStream(100 + index), index)
        shots, seed = 40, 7 * index
        hist = run_program(program, TABLES, shots=shots, seed=seed)
        assert hist.counts == _replay_counts(program, TABLES, shots, seed)
        assert list(hist.counts) == sorted(hist.counts)

    def test_prefix_simulated_once(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return apply_gate_at(*args)

        monkeypatch.setattr("ketsim.circuit.apply_gate_at", counting)
        program = parse_circuit(
            "qubits 3\nh 0\ncnot 0 1\nu2 2 a=0.1 b=0.2 c=0.3 d=0.4\ntoffoli 0 1 2\nmeasure"
        )
        hist = run_program(program, shots=50, seed=3)
        assert sum(hist.counts.values()) == 50
        assert len(calls) == 4
