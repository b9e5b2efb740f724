"""Textual circuit programs: parsing, rendering, and batch execution.

Grammar: one instruction per line, ``#`` starts a comment, opcodes are
case-insensitive.  An optional first line ``qubits N`` fixes the register
width; without it the width is inferred as one past the highest target.

    qubits 2
    h 0
    cnot 0 1        # control listed first
    u2 0 a=0.1 b=0.2 c=0.3 d=0.4
    oracle f1 0 1 2 # table name, arity inputs, then the output qubit
    measure 0       # mid-circuit subset measurement
    measure         # trailing full-register measurement

A bare ``measure`` (all qubits) is allowed only as the final instruction;
subset measurements may appear anywhere.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .errors import CapacityExceeded, InvalidInput, ParseError
from .gates import (
    TruthTable,
    apply_gate_at,
    apply_oracle_at,
    cnot,
    hadamard,
    pauli_x,
    pauli_y,
    pauli_z,
    toffoli_unitary,
    u2_from_params,
)
from .measure import Histogram, measure_all, measure_subset
from .rng import RngStream
from .state import DEFAULT_QUBIT_CAP, StateVector, ket

_TARGET_COUNTS = {"X": 1, "Y": 1, "Z": 1, "H": 1, "U2": 1, "CNOT": 2, "TOFFOLI": 3}
_U2_PARAM_NAMES = ("a", "b", "c", "d")


@dataclass(frozen=True)
class Instruction:
    opcode: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()
    table: str | None = None


@dataclass(frozen=True)
class CircuitProgram:
    num_qubits: int
    instructions: tuple[Instruction, ...] = field(default_factory=tuple)


def _parse_target(token: str, line: int) -> int:
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"expected a qubit index, got {token!r}", line) from None
    if value < 0:
        raise ParseError(f"qubit index must be nonnegative, got {value}", line)
    return value


def _parse_targets(tokens: list[str], line: int) -> tuple[int, ...]:
    targets = tuple(_parse_target(t, line) for t in tokens)
    if len(set(targets)) != len(targets):
        raise ParseError("duplicate target qubit", line)
    return targets


def _parse_u2_params(tokens: list[str], line: int) -> tuple[float, ...]:
    values: dict[str, float] = {}
    for token in tokens:
        name, sep, text = token.partition("=")
        if not sep or name not in _U2_PARAM_NAMES:
            raise ParseError(f"expected a=.. b=.. c=.. d=.., got {token!r}", line)
        if name in values:
            raise ParseError(f"duplicate u2 parameter {name!r}", line)
        try:
            values[name] = float(text)
        except ValueError:
            raise ParseError(f"bad angle for {name!r}: {text!r}", line) from None
    missing = [name for name in _U2_PARAM_NAMES if name not in values]
    if missing:
        raise ParseError(f"u2 is missing parameters: {', '.join(missing)}", line)
    return tuple(values[name] for name in _U2_PARAM_NAMES)


def parse_circuit(
    text: str, tables: Mapping[str, TruthTable] | None = None
) -> CircuitProgram:
    """Parse a circuit description; errors name the offending line."""
    tables = tables or {}
    declared: int | None = None
    instructions: list[Instruction] = []
    lines: list[int] = []  # source line of each instruction, for range errors
    measure_all_line: int | None = None

    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        word = tokens[0].lower()

        if word == "qubits":
            if declared is not None:
                raise ParseError("duplicate qubits directive", line_no)
            if instructions:
                raise ParseError("qubits directive must precede instructions", line_no)
            if len(tokens) != 2:
                raise ParseError("qubits directive takes one integer", line_no)
            declared = _parse_target(tokens[1], line_no)
            continue

        if measure_all_line is not None:
            raise ParseError(
                f"full-register measure on line {measure_all_line} must be last",
                line_no,
            )

        opcode = word.upper()
        if opcode == "U2":
            if len(tokens) < 2:
                raise ParseError("u2 needs a target qubit", line_no)
            targets = (_parse_target(tokens[1], line_no),)
            ins = Instruction("U2", targets, params=_parse_u2_params(tokens[2:], line_no))
        elif opcode in _TARGET_COUNTS:
            targets = _parse_targets(tokens[1:], line_no)
            if len(targets) != _TARGET_COUNTS[opcode]:
                raise ParseError(
                    f"{word} takes {_TARGET_COUNTS[opcode]} target(s), got {len(targets)}",
                    line_no,
                )
            ins = Instruction(opcode, targets)
        elif opcode == "ORACLE":
            if len(tokens) < 3:
                raise ParseError("oracle needs a table name and targets", line_no)
            name = tokens[1]
            table = tables.get(name)
            if table is None:
                raise ParseError(f"unknown truth table {name!r}", line_no)
            targets = _parse_targets(tokens[2:], line_no)
            if len(targets) != table.arity + 1:
                raise ParseError(
                    f"oracle {name!r} has arity {table.arity} and needs "
                    f"{table.arity + 1} targets, got {len(targets)}",
                    line_no,
                )
            ins = Instruction("ORACLE", targets, table=name)
        elif opcode == "MEASURE":
            targets = _parse_targets(tokens[1:], line_no)
            if not targets:
                measure_all_line = line_no
            ins = Instruction("MEASURE", targets)
        else:
            raise ParseError(f"unknown opcode {word!r}", line_no)
        instructions.append(ins)
        lines.append(line_no)

    used = [t for ins in instructions for t in ins.targets]
    num_qubits = declared if declared is not None else (max(used) + 1 if used else 0)
    for ins, line_no in zip(instructions, lines):
        for t in ins.targets:
            if t >= num_qubits:
                raise ParseError(f"target {t} out of range for {num_qubits} qubits", line_no)
    return CircuitProgram(num_qubits=num_qubits, instructions=tuple(instructions))


def render_circuit(program: CircuitProgram) -> str:
    """Inverse of parse_circuit: parse(render(p), tables) == p."""
    lines = [f"qubits {program.num_qubits}"]
    for ins in program.instructions:
        if ins.opcode == "U2":
            angles = " ".join(
                f"{name}={value:.17g}" for name, value in zip(_U2_PARAM_NAMES, ins.params)
            )
            lines.append(f"u2 {ins.targets[0]} {angles}")
        elif ins.opcode == "ORACLE":
            lines.append(f"oracle {ins.table} {' '.join(map(str, ins.targets))}")
        elif ins.opcode == "MEASURE" and not ins.targets:
            lines.append("measure")
        else:
            parts = [ins.opcode.lower(), *map(str, ins.targets)]
            lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


# gate constructors, called with the instruction's params (empty but for u2)
_GATES = {
    "X": pauli_x,
    "Y": pauli_y,
    "Z": pauli_z,
    "H": hadamard,
    "CNOT": cnot,
    "TOFFOLI": toffoli_unitary,
    "U2": u2_from_params,
}


def _run_trajectory(
    instructions: tuple[Instruction, ...],
    tables: Mapping[str, TruthTable],
    state: StateVector,
    rng: RngStream,
) -> tuple[str, StateVector]:
    """Run ``instructions`` from ``state``; one uniform per measurement."""
    recorded: list[str] = []
    for ins in instructions:
        if ins.opcode == "MEASURE":
            if ins.targets:
                outcome = measure_subset(state, list(ins.targets), rng)
            else:
                outcome = measure_all(state, rng)
            state = outcome.collapsed
            recorded.append("".join(map(str, outcome.bits)))
        elif ins.opcode == "ORACLE":
            state = apply_oracle_at(tables[ins.table], list(ins.targets), state)
        else:
            state = apply_gate_at(_GATES[ins.opcode](*ins.params), list(ins.targets), state)
    return "".join(recorded), state


def run_program(
    program: CircuitProgram,
    tables: Mapping[str, TruthTable] | None = None,
    shots: int = 1024,
    seed: int = 0,
    cap: int = DEFAULT_QUBIT_CAP,
) -> Histogram | StateVector:
    """Execute a program.

    Without measurements the (deterministic) final state is returned and
    ``shots`` is irrelevant.  With measurements, ``shots`` independent
    trajectories are run off one seeded stream and the counts of the
    concatenated measured bits are returned.  Draws happen only at
    measurements, so the prefix before the first one is simulated once.
    """
    tables = tables or {}
    n = program.num_qubits
    if n == 0:
        raise InvalidInput("program declares no qubits")
    if n > cap:
        raise CapacityExceeded(f"{n} qubits exceeds the cap of {cap}")
    if shots < 1:
        raise InvalidInput("shots must be at least 1")
    ops = [ins.opcode for ins in program.instructions]
    first = ops.index("MEASURE") if "MEASURE" in ops else len(ops)
    prefix, rest = program.instructions[:first], program.instructions[first:]
    rng = RngStream(seed)
    # |0...0> is built in the call so that no local keeps it alive
    _, state = _run_trajectory(prefix, tables, ket([0] * n, cap=n), rng)
    if not rest:
        return state
    counts: dict[str, int] = {}
    for _ in range(shots):
        pattern, _ = _run_trajectory(rest, tables, state, rng)
        counts[pattern] = counts.get(pattern, 0) + 1
    return Histogram(shots=shots, seed=seed, counts=dict(sorted(counts.items())))
