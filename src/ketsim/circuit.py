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
subset measurements may appear anywhere.  Integers are ASCII digits,
and angles are finite numbers in ASCII text without ``_`` separators.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from dataclasses import dataclass

from .errors import CapacityExceeded, InvalidInput, ParseError
from .gates import (
    TruthTable,
    _GatePlan,
    cnot,
    hadamard,
    pauli_x,
    pauli_y,
    pauli_z,
    toffoli_unitary,
    u2_from_params,
)
from .measure import Histogram, _check_shots, _Projection, walk_shots
from .state import DEFAULT_QUBIT_CAP, StateVector, ket

# (target count, gate constructor) of each gate opcode; the constructor is
# called with the instruction's params (empty but for u2)
_GATES = {
    "X": (1, pauli_x),
    "Y": (1, pauli_y),
    "Z": (1, pauli_z),
    "H": (1, hadamard),
    "U2": (1, u2_from_params),
    "CNOT": (2, cnot),
    "TOFFOLI": (3, toffoli_unitary),
}
_U2_PARAM_NAMES = ("a", "b", "c", "d")


@dataclass(frozen=True, slots=True)
class Instruction:
    opcode: str
    targets: tuple[int, ...]
    params: tuple[float, ...] = ()
    table: str | None = None


@dataclass(frozen=True, slots=True)
class CircuitProgram:
    num_qubits: int
    instructions: tuple[Instruction, ...] = ()


def _exact_key(ins: Instruction) -> tuple:
    """A key equal only for equal bits: ``Instruction`` has ``0.0 == -0.0``."""
    return ins, tuple(math.copysign(1.0, p) for p in ins.params)


_PIECE_CHARS = 64 << 10  # characters at least in each later piece of the line walk but the last


def _data_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """``(line number, tokens)`` of each line with tokens once ``#`` comments are cut.

    Lines are walked lazily and end at ``\\n`` alone: ``str.split`` takes
    ``\\r``, ``\\x0b``, ``\\x1c``, ``\\u2028`` and the other ``str.splitlines``
    breaks as whitespace, so none of them ends a comment or moves a line.
    A piece ends just after the first ``\\n`` ``_PIECE_CHARS`` past its start,
    so the walk holds one piece's lines at a time and no copy of the text.
    The first piece is the first line alone, so a reader that stops at its
    header splits nothing more.
    """
    start, line_no, reach = 0, 1, 0
    while start < len(text):
        end = text.find("\n", start + reach) + 1 or len(text)
        # a piece ending at "\n" leaves an empty tail: the next piece's first line
        for line_no, raw in enumerate(text[start:end].split("\n"), start=line_no):
            tokens = raw.split("#", 1)[0].split()
            if tokens:
                yield line_no, tokens
        start, reach = end, _PIECE_CHARS


def _parse_int(token: str) -> int:
    """``int(token)`` for ``-`` and ASCII digits only: no ``+``, ``_`` or other digits."""
    if not (token.isascii() and token.removeprefix("-").isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _parse_float(token: str) -> float:
    """``float(token)`` for ASCII text only: no ``_`` separators or other digits."""
    if not token.isascii() or "_" in token:
        raise ValueError(f"not a number: {token!r}")
    return float(token)


def _parse_target(token: str, line: int) -> int:
    try:
        value = _parse_int(token)
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
            value = _parse_float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ParseError(f"bad angle for {name!r}: {text!r}", line)
        values[name] = value
    missing = [name for name in _U2_PARAM_NAMES if name not in values]
    if missing:
        raise ParseError(f"u2 is missing parameters: {', '.join(missing)}", line)
    return tuple(values[name] for name in _U2_PARAM_NAMES)


def _instruction(tokens: list[str], line: int, tables: Mapping[str, TruthTable]) -> Instruction:
    """The instruction of one line's tokens."""
    word = tokens[0].lower()
    opcode = word.upper()
    if opcode == "U2":
        if len(tokens) < 2:
            raise ParseError("u2 needs a target qubit", line)
        return Instruction("U2", (_parse_target(tokens[1], line),),
                           params=_parse_u2_params(tokens[2:], line))
    if opcode in _GATES:
        targets = _parse_targets(tokens[1:], line)
        count = _GATES[opcode][0]
        if len(targets) != count:
            raise ParseError(f"{word} takes {count} target(s), got {len(targets)}", line)
        return Instruction(opcode, targets)
    if opcode == "ORACLE":
        if len(tokens) < 3:
            raise ParseError("oracle needs a table name and targets", line)
        name = tokens[1]
        table = tables.get(name)
        if table is None:
            raise ParseError(f"unknown truth table {name!r}", line)
        targets = _parse_targets(tokens[2:], line)
        if len(targets) != table.arity + 1:
            raise ParseError(f"oracle {name!r} has arity {table.arity} and needs "
                             f"{table.arity + 1} targets, got {len(targets)}", line)
        return Instruction("ORACLE", targets, table=name)
    if opcode == "MEASURE":
        return Instruction("MEASURE", _parse_targets(tokens[1:], line))
    raise ParseError(f"unknown opcode {word!r}", line)


def parse_circuit(
    text: str, tables: Mapping[str, TruthTable] | None = None
) -> CircuitProgram:
    """Parse a circuit description; errors name the offending line.  Identical
    lines are parsed once and share one ``Instruction``; a target out of range
    is reported after the walk, so that a later syntax error wins."""
    tables = tables or {}
    declared: int | None = None
    instructions: list[Instruction] = []
    shared: dict[tuple[str, ...], Instruction] = {}  # a line's tokens -> its instruction
    highest, out_of_range = -1, None  # the highest target; the first range error
    measure_all_line: int | None = None

    for line_no, tokens in _data_lines(text):
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
        ins = shared.get(key := (word, *tokens[1:]))
        if ins is None:
            ins = shared[key] = _instruction(tokens, line_no, tables)
        if ins.opcode == "MEASURE" and not ins.targets:
            measure_all_line = line_no
        instructions.append(ins)
        highest = max((highest, *ins.targets))
        if declared is not None and highest >= declared and out_of_range is None:
            t = next(t for t in ins.targets if t >= declared)
            out_of_range = ParseError(f"target {t} out of range for {declared} qubits", line_no)

    if out_of_range is not None:
        raise out_of_range
    return CircuitProgram(declared if declared is not None else highest + 1, tuple(instructions))


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
        else:  # a bare ``measure`` has no targets
            lines.append(" ".join([ins.opcode.lower(), *map(str, ins.targets)]))
    return "\n".join(lines) + "\n"


def _compile(program: CircuitProgram, tables: Mapping[str, TruthTable]) -> list:
    """The program's steps for ``walk_shots``, one built per distinct
    instruction: a gate or oracle as a function of states, or the
    measurement of its targets, where a bare ``measure`` measures every
    qubit in order.  A gate or oracle is a ``gates._GatePlan``, whose only
    per-call state is its call count and the index table it may keep from
    its third call, which give the same bits as its first call, so repeated
    lines share a step."""
    n = program.num_qubits
    built: dict[tuple, object] = {}
    steps: list = []
    for ins in program.instructions:
        if (key := _exact_key(ins)) not in built:
            if ins.opcode == "MEASURE":
                built[key] = _Projection(ins.targets or range(n), n)
            elif ins.opcode == "ORACLE":
                built[key] = _GatePlan.oracle(tables[ins.table], ins.targets, n)
            else:
                built[key] = _GatePlan(_GATES[ins.opcode][1](*ins.params), ins.targets, n)
        steps.append(built[key])
    return steps


def run_program(
    program: CircuitProgram,
    tables: Mapping[str, TruthTable] | None = None,
    shots: int = 1024,
    seed: int = 0,
    cap: int = DEFAULT_QUBIT_CAP,
) -> Histogram | StateVector:
    """Execute a program.

    Without measurements the (deterministic) final state is returned and
    ``shots`` is only checked.  With measurements the counts of the
    concatenated measured bits over ``shots`` shots are returned, where
    shot i draws uniform number i·m + j of the stream seeded with ``seed``
    at its j-th of m measurements: the histogram of ``shots`` replays of
    the program off one stream.  The program is compiled once and run by
    one depth-first walk of its outcome tree (``walk_shots``), which
    simulates each distinct branch once; an end-measured program is one
    leaf, a ``sample`` of the state before its ``measure``.  At most
    ``MAX_SHOTS`` shots, checked before any state is built.
    """
    tables = tables or {}
    n = program.num_qubits
    if n == 0:
        raise InvalidInput("program declares no qubits")
    if n > cap:
        raise CapacityExceeded(f"{n} qubits exceeds the cap of {cap}")
    shots = _check_shots(shots)
    steps = _compile(program, tables)
    # |0...0> is built in the call so that no local keeps it alive
    return walk_shots(ket([0] * n, cap=n), steps, shots, seed)
