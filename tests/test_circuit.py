import io
import math
import random
import tracemalloc

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
    measure_subset,
    parse_circuit,
    pauli_x,
    pauli_y,
    pauli_z,
    render_circuit,
    run_program,
    sample,
    states_equivalent,
    toffoli_unitary,
    u2_from_params,
)
import ketsim.circuit as circuit
import ketsim.measure as measure
from ketsim.circuit import _compile, _data_lines, _parse_int
from ketsim.gates import _GatePlan
from ketsim.measure import MAX_SHOTS, _Projection, walk_shots

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

    @pytest.mark.parametrize("token", ["a=inf", "a=-inf", "a=nan", "a=1e999", "a=-1e999"])
    def test_u2_nonfinite_angle_names_its_line(self, token):
        with pytest.raises(ParseError) as err:
            parse_circuit(f"qubits 1\nu2 0 {token} b=0 c=0 d=0")
        assert err.value.line == 2
        assert str(err.value) == f"line 2: bad angle for 'a': {token[2:]!r}"

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

    def test_range_error_waits_for_later_syntax_errors(self):
        with pytest.raises(ParseError) as err:
            parse_circuit("qubits 1\nh 5\nfoo 0")
        assert str(err.value) == "line 3: unknown opcode 'foo'"

    def test_identical_lines_share_one_instruction(self):
        program = parse_circuit("qubits 2\nh 0\nH 0  # again\ncnot 0 1\nh 0\ncnot 1 0\ncnot 0 1")
        h, again, cnot01, h_last, cnot10, cnot01_last = program.instructions
        assert h is again is h_last and cnot01 is cnot01_last
        assert cnot10 is not cnot01 and cnot10 == Instruction("CNOT", (1, 0))

    def test_signed_zero_angles_stay_apart(self):
        text = "qubits 1\nu2 0 a=0 b=1 c=2 d=3\nu2 0 a=-0 b=1 c=2 d=3\nu2 0 a=0 b=1 c=2 d=3\n"
        program = parse_circuit(text)
        plus, minus, plus_again = program.instructions
        assert plus == minus and plus is not minus and plus is plus_again
        assert [math.copysign(1, ins.params[0]) for ins in program.instructions] == [1, -1, 1]
        assert render_circuit(program) == text

    def test_instructions_and_programs_have_slots(self):
        program = parse_circuit("h 0")
        assert not hasattr(program, "__dict__")
        assert not hasattr(program.instructions[0], "__dict__")


def _stringio_lines(text):
    """The line walk before it cut the text into pieces: ``io.StringIO`` with
    ``newline="\\n"`` ends lines at ``\\n`` alone, but copies the text."""
    for line_no, raw in enumerate(io.StringIO(text, newline="\n"), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            yield line_no, tokens


class TestLineGrammar:
    @pytest.mark.parametrize("piece", range(8))
    def test_data_lines_equal_the_stringio_walk(self, monkeypatch, piece):
        # pieces of 0 to 7 characters put cuts next to every kind of character
        monkeypatch.setattr(circuit, "_PIECE_CHARS", piece)
        rng = random.Random(piece)
        for _ in range(400):
            body = "".join(rng.choice("ab \t#\n\r\x0b\x1c\u2028")
                           for _ in range(rng.randrange(40))).rstrip("\n")
            for text in (body, body + "\n"):
                assert list(_data_lines(text)) == list(_stringio_lines(text))

    def test_parse_holds_no_copy_of_the_text(self):
        # 1 MB of two repeated lines: the instruction list and its tuple take
        # 1.8 bytes per text byte; a copy of the text at 4 bytes per character
        # took 4.9
        text = "cnot 0 1\ncnot 1 0\n" * 62_500
        tracemalloc.start()
        try:
            program = parse_circuit(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(program.instructions) == 125_000
        assert peak < 2.5 * len(text)

    def test_data_lines(self):
        # lines end at \n alone (\r, \v and \f are whitespace), comments
        # cut, numbering from 1
        text = "qubits 1 # c\n\n  # only\r\nh 0\x0bx  0\x0c#\n"
        lines = _data_lines(text)
        assert next(lines) == (1, ["qubits", "1"])  # lazy: one line at a time
        assert list(lines) == [(4, ["h", "0", "x", "0"])]

    @pytest.mark.parametrize("token", ["0", "7", "-0", "-12", "007", "123456789012345678901"])
    def test_integer_tokens(self, token):
        assert _parse_int(token) == int(token)

    @pytest.mark.parametrize(
        "token", ["", "-", "--1", "+3", "1_0", "\uff11", "\u0661", "1.0", " 1", "1e3", "0x1"]
    )
    def test_integer_tokens_int_also_accepts_are_rejected(self, token):
        with pytest.raises(ValueError):
            _parse_int(token)


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


# the distinct lines of a long generated circuit on 2 qubits
LINE_MIX = ["h 0", "h 1", "x 0", "cnot 0 1", "cnot 1 0", "z 1", "y 0"]


class TestCompile:
    def test_repeated_lines_share_one_step(self):
        tables = {"f": TruthTable(1, (0, 1)), "n": TruthTable(1, (1, 0))}
        text = ("qubits 3\nh 0\nh 1\nh 0\noracle f 0 1\noracle n 0 1\noracle f 1 2\n"
                "oracle f 0 1\nmeasure 0\nmeasure 1\nmeasure 0\nu2 0 a=0 b=1 c=2 d=3\n"
                "u2 0 a=-0 b=1 c=2 d=3\nu2 0 a=0 b=1 c=2 d=3\nmeasure")
        steps = _compile(parse_circuit(text, tables), tables)
        assert len({id(step) for step in steps}) == 10
        for first, again in ((0, 2), (3, 6), (7, 9), (10, 12)):
            assert steps[first] is steps[again]
        for one, other in ((0, 1), (3, 4), (3, 5), (7, 8), (10, 11)):
            assert steps[one] is not steps[other]

    def test_equal_instructions_built_apart_share_one_step(self):
        program = CircuitProgram(2, (Instruction("CNOT", (0, 1)), Instruction("CNOT", (0, 1))))
        first, again = _compile(program, {})
        assert first is again

    def test_steps_run_once_keep_no_table(self):
        # measured only at its end, a program runs each step once, or twice
        # for a line it repeats, and no plan keeps an index table; after a
        # mid-circuit measurement the later steps run once per branch
        rng = random.Random(12)
        ops = ["x {0}", "y {0}", "z {0}", "cnot {0} {1}", "toffoli {0} {1} {2}",
               "oracle f {0} {1} {2} {3} {4}"]
        lines = [f"h {q}" for q in range(12)]
        lines += [rng.choice(ops).format(*rng.sample(range(12), 5)) for _ in range(58)]
        lines += lines[20:24]
        tables = {"f": TruthTable(4, tuple(rng.randrange(2) for _ in range(16)))}
        for at, tabled in ((len(lines), False), (12, True)):
            text = "\n".join(["qubits 12", *lines[:at], "measure 0 1", *lines[at:], "measure"])
            steps = _compile(parse_circuit(text, tables), tables)
            walk_shots(ket([0] * 12), steps, 200, 1)
            kept = [step for step in steps if getattr(step, "table", None) is not None]
            assert bool(kept) == tabled

    def test_parse_and_compile_cost_per_line(self):
        lines = 100_000
        rng = random.Random(3)
        text = "qubits 2\n" + "\n".join(rng.choice(LINE_MIX) for _ in range(lines)) + "\n"
        tracemalloc.start()
        try:
            steps = _compile(parse_circuit(text), {})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(steps) == lines
        # a pointer per line in the instruction list, its tuple and the step
        # list, and the line walk's buffer; a plan per line would take hundreds
        assert peak <= 64 * lines


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


# Programs for the outcome tree: every qubit measured mid-circuit; a
# zero-weight branch (qubit 0 is 1 when measured) beside a live one; a
# trailing subset measurement.
TREE_PROGRAMS = [
    "qubits 3\nh 0\nh 1\nu2 2 a=0.3 b=0.9 c=0.4 d=0.2\nmeasure 0 1 2\nh 1\ncnot 1 2\n"
    "measure 2 0 1\nh 0\nu2 1 a=0.1 b=0.7 c=0.3 d=0.4\nmeasure",
    "qubits 2\nx 0\nmeasure 0\nh 1\nmeasure 0 1\nh 0\nmeasure",
    "qubits 3\nh 0\ncnot 0 1\nmeasure 1\nh 2\ntoffoli 0 2 1\noracle g2 1 2 0\nmeasure 2 1",
]
SEEDS = (0, 42, 2**64 - 1, -1)


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
                outcome = measure_subset(state, targets or range(program.num_qubits), rng)
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

    @pytest.mark.parametrize("index", range(0, 24, 4))
    def test_matches_per_shot_replay_at_edge_seeds(self, index):
        program = _random_program(RngStream(100 + index), index)
        for seed in SEEDS:
            hist = run_program(program, TABLES, shots=30, seed=seed)
            assert hist.counts == _replay_counts(program, TABLES, 30, seed)

    @pytest.mark.parametrize("text", TREE_PROGRAMS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_tree_matches_per_shot_replay(self, text, seed):
        program = parse_circuit(text, TABLES)
        hist = run_program(program, TABLES, shots=64, seed=seed)
        assert hist.counts == _replay_counts(program, TABLES, 64, seed)

    @pytest.mark.parametrize("states", [0, 1, 2])
    @pytest.mark.parametrize("text", TREE_PROGRAMS)
    def test_budget_path_matches_per_shot_replay(self, text, states, monkeypatch):
        # a budget of `states` open nodes; past it, subtrees are walked one
        # shot at a time
        program = parse_circuit(text, TABLES)
        monkeypatch.setattr(measure, "TREE_BYTES", max(1, states * (16 << program.num_qubits)))
        for seed in (0, 42):
            hist = run_program(program, TABLES, shots=48, seed=seed)
            assert hist.counts == _replay_counts(program, TABLES, 48, seed)

    def test_budget_of_no_state_walks_one_shot_at_a_time(self, monkeypatch):
        collapses = []
        collapse = _Projection.collapse
        monkeypatch.setattr(
            _Projection, "collapse", lambda *args: collapses.append(args) or collapse(*args)
        )
        program = parse_circuit(TREE_PROGRAMS[0])
        run_program(program, shots=40, seed=3)
        shared = len(collapses)
        monkeypatch.setattr(measure, "TREE_BYTES", 1)
        collapses.clear()
        run_program(program, shots=40, seed=3)
        # every shot collapses at each of its two measurements before the leaf
        assert len(collapses) == 40 * 2 > shared

    @pytest.mark.parametrize("chunk", [1, 5, 7])
    @pytest.mark.parametrize("text", TREE_PROGRAMS)
    def test_root_chunks_match_per_shot_replay(self, text, chunk, monkeypatch):
        monkeypatch.setattr(measure, "SAMPLE_CHUNK", chunk)
        program = parse_circuit(text, TABLES)
        for seed in (1, 2**64 - 1):
            hist = run_program(program, TABLES, shots=41, seed=seed)
            assert hist.counts == _replay_counts(program, TABLES, 41, seed)

    def test_memory_does_not_grow_with_shots(self, monkeypatch):
        monkeypatch.setattr(measure, "SAMPLE_CHUNK", 1000)
        program = parse_circuit(TREE_PROGRAMS[0])
        for shots in (10**4, 10**5):
            tracemalloc.start()
            try:
                run_program(program, shots=shots, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # a root slice of 333 shots draws 999 uniforms (8 kB); the
            # 10**5 shots' draws alone would be 2.4 MB
            assert peak < 200_000, shots

    def test_a_node_drops_its_state_before_its_last_child(self):
        # twelve measurements of a qubit that is always 1: every node has
        # one child, so no open node holds a state as the walk goes deeper
        n = 14
        program = parse_circuit(
            f"qubits {n}\nx 0\n" + "".join(f"h {q}\nmeasure 0\n" for q in range(1, 13))
            + "measure"
        )
        tracemalloc.start()
        try:
            run_program(program, shots=4, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # A gate holds its input, its output and the norm pass's two
        # half-size temporaries: 3 states of 256 KiB.  A parent kept alive
        # through its last child's gates would add a fourth.
        assert peak < 4 * (16 << n)

    @pytest.mark.parametrize("index", range(0, 24, 3))
    def test_end_measured_program_is_one_sample(self, index, monkeypatch):
        program = _random_program(RngStream(100 + index), index)
        gates = tuple(ins for ins in program.instructions if ins.opcode != "MEASURE")
        n = program.num_qubits
        prefix_state = run_program(CircuitProgram(n, gates), TABLES)
        end_measured = CircuitProgram(n, (*gates, Instruction("MEASURE", ())))
        # the replay collapses at its measure_subset, so it runs unwatched
        seeds = (0, 1, 7 * index)
        replays = [_replay_counts(end_measured, TABLES, 60, seed) for seed in seeds]
        walks, collapses = [], []
        collapse = _Projection.collapse
        monkeypatch.setattr(
            "ketsim.circuit.walk_shots", lambda *args: walks.append(args) or walk_shots(*args)
        )
        monkeypatch.setattr(
            _Projection, "collapse", lambda *args: collapses.append(args) or collapse(*args)
        )
        for seed, replay in zip(seeds, replays):
            hist = run_program(end_measured, TABLES, shots=60, seed=seed)
            # one leaf: its draw collapses no state
            assert not collapses
            assert hist == sample(prefix_state, 60, seed)
            assert hist.counts == replay
        assert len(walks) == 3

    def test_prefix_simulated_once(self, monkeypatch):
        calls = []

        def counting(*args):
            gate = _GatePlan(*args)
            return lambda s: calls.append(args) or gate(s)

        monkeypatch.setattr("ketsim.circuit._GatePlan", counting)
        program = parse_circuit(
            "qubits 3\nh 0\ncnot 0 1\nu2 2 a=0.1 b=0.2 c=0.3 d=0.4\ntoffoli 0 1 2\nmeasure"
        )
        hist = run_program(program, shots=50, seed=3)
        assert sum(hist.counts.values()) == 50
        assert len(calls) == 4

    @pytest.mark.parametrize("text, shots, runs", [
        # h once; x and h once for each of the two outcomes of qubit 0
        ("qubits 2\nh 0\nmeasure 0\nx 1\nh 1\nmeasure 1", 200, 5),
        # the x after the last measurement cannot change the counts
        ("qubits 2\nx 0\nmeasure 0\nh 1\nmeasure 1\nx 0", 200, 2),
    ])
    def test_each_branch_simulated_once(self, text, shots, runs, monkeypatch):
        calls = []

        def counting(*args):
            gate = _GatePlan(*args)
            return lambda s: calls.append(args) or gate(s)

        monkeypatch.setattr("ketsim.circuit._GatePlan", counting)
        hist = run_program(parse_circuit(text), shots=shots, seed=3)
        assert sum(hist.counts.values()) == shots
        assert len(calls) == runs

    def test_shots_capped_before_any_state(self, monkeypatch):
        monkeypatch.setattr("ketsim.circuit.ket", None)
        program = parse_circuit("qubits 2\nh 0\nmeasure 0\nmeasure")
        with pytest.raises(CapacityExceeded):
            run_program(program, shots=MAX_SHOTS + 1)
        with pytest.raises(InvalidInput):
            run_program(program, shots=0)
