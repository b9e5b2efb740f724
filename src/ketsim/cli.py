"""Batch command-line front end.

Subcommands: run, teleport, deutsch-jozsa, decompose, bell, bounds.  Each
writes one JSON document to stdout; diagnostics go to stderr.  Exit codes:
0 success, 1 input error, 2 numerical failure.  All randomness derives
from --seed (default 0), and floating-point values are printed with 17
significant digits, so identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .circuit import parse_circuit, run_program
from .decompose import recompose, two_level_decompose
from .errors import (
    InvalidInput,
    KetsimError,
    NumericalFailure,
    ParseError,
)
from .gates import TruthTable
from .inequalities import (
    MAX_EVENTS,
    BellSetting,
    EventDistribution,
    bell_violation,
    bonferroni_lower,
    bonferroni_variants,
    boole_intersection_bounds,
    boole_union_bounds,
    marginal,
    poincare_union,
)
from .protocols import (
    teleport,
    teleport_branch,
    teleport_pre_measurement,
    deutsch_jozsa,
)
from .rng import RngStream
from .state import (
    DEFAULT_QUBIT_CAP,
    StateVector,
    format_ket,
    qubit_from_angles,
    states_equivalent,
)

# --- deterministic JSON rendering -----------------------------------------

_STRING_ESCAPES = {ord("\\"): "\\\\", ord('"'): '\\"'}
_STRING_ESCAPES.update({c: f"\\u{c:04x}" for c in range(0x20)})


def _json(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, Fraction):
        return f'"{value}"'
    if isinstance(value, str):
        return '"' + value.translate(_STRING_ESCAPES) + '"'
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json(v) for v in value) + "]"
    if isinstance(value, dict):
        items = (f"{_json(str(k))}: {_json(v)}" for k, v in value.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _state_json(s: StateVector) -> dict:
    return {
        "num_qubits": s.num_qubits,
        "ket": format_ket(s),
        "amplitudes": [[float(a.real), float(a.imag)] for a in s.amplitudes],
    }


def _matrix_entries(m: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(m).reshape(-1)]


# --- input file formats ----------------------------------------------------


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc


def _data_lines(path: str) -> list[tuple[int, list[str]]]:
    lines = []
    for line_no, raw in enumerate(_read_text(path).splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if tokens:
            lines.append((line_no, tokens))
    return lines


def _header(
    lines: list[tuple[int, list[str]]], kind: str, key: str, what: str
) -> tuple[int, int]:
    """The integer of a ``<key>=<int>`` header alone on the first data line,
    and that line's number (1 for an empty file)."""
    line_no, tokens = lines[0] if lines else (1, [""])
    if not tokens[0].startswith(f"{key}="):
        raise ParseError(f"{kind} must start with {key}=<{what}>", line_no)
    if len(tokens) > 1:
        raise ParseError(f"unexpected {tokens[1]!r} after {tokens[0]!r}", line_no)
    try:
        return int(tokens[0][len(key) + 1:]), line_no
    except ValueError:
        raise ParseError(f"bad {what} {tokens[0]!r}", line_no) from None


def load_truth_table(path: str) -> TruthTable:
    """Table file: first line ``n=<arity>``, then 2**n lines ``x f(x)``."""
    lines = _data_lines(path)
    arity, first_no = _header(lines, "truth table file", "n", "arity")
    if arity < 1:
        raise ParseError(f"arity must be at least 1, got {arity}", first_no)
    entries: dict[int, int] = {}
    for line_no, tokens in lines[1:]:
        if len(tokens) != 2:
            raise ParseError("expected '<bits> <value>'", line_no)
        pattern, value = tokens
        if len(pattern) != arity or any(ch not in "01" for ch in pattern):
            raise ParseError(f"bad input pattern {pattern!r}", line_no)
        if value not in ("0", "1"):
            raise ParseError(f"bad output value {value!r}", line_no)
        x = int(pattern, 2)
        if x in entries:
            raise ParseError(f"duplicate entry for {pattern!r}", line_no)
        entries[x] = int(value)
    if len(entries) != 1 << arity:
        raise ParseError(
            f"table lists {len(entries)} of {1 << arity} required entries", None
        )
    return TruthTable(arity, tuple(entries[x] for x in range(1 << arity)))


def load_matrix(path: str) -> np.ndarray:
    """Matrix file: first line ``d=<D>``, then D rows of D ``re,im`` pairs."""
    lines = _data_lines(path)
    dim, _ = _header(lines, "matrix file", "d", "dimension")
    if dim < 1 or len(lines) != dim + 1:
        raise ParseError(f"expected {dim} matrix rows", lines[-1][0])
    out = np.zeros((dim, dim), dtype=np.complex128)
    for row, (line_no, tokens) in enumerate(lines[1:]):
        if len(tokens) != dim:
            raise ParseError(f"row needs {dim} entries, got {len(tokens)}", line_no)
        for col, token in enumerate(tokens):
            re_text, sep, im_text = token.partition(",")
            if not sep:
                raise ParseError(f"entries are 're,im', got {token!r}", line_no)
            try:
                out[row, col] = complex(float(re_text), float(im_text))
            except ValueError:
                raise ParseError(f"bad complex entry {token!r}", line_no) from None
    return out


def load_distribution(path: str) -> EventDistribution:
    """Distribution file: lines ``bitpattern numerator/denominator``.

    Unlisted atoms are zero; the atoms must sum to exactly 1 and any
    failing residual is reported exactly.
    """
    lines = _data_lines(path)
    if not lines:
        raise ParseError("distribution file is empty", None)
    width = len(lines[0][1][0])
    if width > MAX_EVENTS:
        raise ParseError(
            f"atom pattern of {width} events exceeds the cap of {MAX_EVENTS}", lines[0][0]
        )
    atoms = [Fraction(0)] * (1 << width)
    seen: set[int] = set()
    for line_no, tokens in lines:
        if len(tokens) != 2:
            raise ParseError("expected '<bits> <rational>'", line_no)
        pattern, value = tokens
        if len(pattern) != width or any(ch not in "01" for ch in pattern):
            raise ParseError(f"bad atom pattern {pattern!r}", line_no)
        index = int(pattern, 2)
        if index in seen:
            raise ParseError(f"duplicate atom {pattern!r}", line_no)
        seen.add(index)
        try:
            atoms[index] = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"bad rational {value!r}", line_no) from None
    return EventDistribution(width, tuple(atoms))


# --- subcommands -----------------------------------------------------------


def _cmd_run(args) -> dict:
    if args.max_qubits > DEFAULT_QUBIT_CAP:
        # 16 bytes per amplitude; past 2**64 bytes print the power, whose
        # decimal digits can exceed what Python will format
        exponent = args.max_qubits - 16
        size = 1 << exponent if exponent <= 44 else f"2**{exponent}"
        print(
            f"ketsim: warning: --max-qubits {args.max_qubits} needs up to "
            f"{size} MiB of amplitudes",
            file=sys.stderr,
        )
    tables = {}
    for item in args.table or []:
        name, sep, path = item.partition("=")
        if not sep:
            raise InvalidInput(f"--table expects NAME=FILE, got {item!r}")
        tables[name] = load_truth_table(path)
    program = parse_circuit(_read_text(args.circuit), tables)
    result = run_program(
        program, tables, shots=args.shots, seed=args.seed, cap=args.max_qubits
    )
    if isinstance(result, StateVector):
        return {"final_state": _state_json(result)}
    return result.to_json_dict()


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise InvalidInput(f"{what} expects {count} comma-separated values")
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise InvalidInput(f"bad number in {what}: {text!r}") from None


def _cmd_teleport(args) -> dict:
    theta, eta = _parse_floats(args.state, 2, "--state")
    psi = qubit_from_angles(theta, eta)
    if args.branch is not None:
        if len(args.branch) != 2 or any(ch not in "01" for ch in args.branch):
            raise InvalidInput(f"--branch expects two bits, got {args.branch!r}")
        a1, a2 = int(args.branch[0]), int(args.branch[1])
        psi0, psi1, psi2 = teleport_pre_measurement(psi)
        bob = teleport_branch(psi, a1, a2)
    else:
        transcript = teleport(psi, RngStream(args.seed))
        a1, a2 = transcript.a1, transcript.a2
        psi0, psi1, psi2 = transcript.psi0, transcript.psi1, transcript.psi2
        bob = transcript.bob_state
    return {
        "input_state": _state_json(psi),
        "a1": a1,
        "a2": a2,
        "intermediate": {
            "psi0": _state_json(psi0),
            "psi1": _state_json(psi1),
            "psi2": _state_json(psi2),
        },
        "bob_state": _state_json(bob),
        "equivalent": states_equivalent(bob, psi),
    }


def _cmd_deutsch_jozsa(args) -> dict:
    table = load_truth_table(args.table)
    verdict = deutsch_jozsa(table, RngStream(args.seed))
    return {
        "verdict": verdict.verdict,
        "measured_bits": "".join(map(str, verdict.measured_bits)),
        "oracle_calls": verdict.oracle_calls,
        "zero_branch_weight": verdict.zero_branch_weight,
    }


def _cmd_decompose(args) -> dict:
    matrix = load_matrix(args.matrix)
    factors = two_level_decompose(matrix)
    dim = matrix.shape[0]
    error = float(np.linalg.norm(recompose(factors, dim) - matrix))
    return {
        "dim": dim,
        "constructed_count": 2 * dim * dim - dim,
        "emitted_count": len(factors),
        "recompose_error": error,
        "factors": [
            {"support": list(f.support), "block": _matrix_entries(f.block)}
            for f in factors
        ],
    }


def _cmd_bell(args) -> dict:
    a1, a2, b1, b2 = _parse_floats(args.angles, 4, "--angles")
    result = bell_violation(BellSetting(a1, a2, b1, b2))
    return {"value": result.value, "excess": result.excess_below_lower_bound}


def _cmd_bounds(args) -> dict:
    dist = load_distribution(args.dist)
    n = dist.num_events
    singles = list(dist.event_probs())
    lower_u, upper_u = boole_union_bounds(singles)
    lower_i, upper_i = boole_intersection_bounds(singles)
    variants = {}
    for selector in range(1, 1 << n):
        pattern = format(selector, f"0{n}b")
        subset = [i + 1 for i, ch in enumerate(pattern) if ch == "1"]
        variants[pattern] = bonferroni_variants(dist, subset)
    return {
        "num_events": n,
        "event_probs": singles,
        "union": dist.union_prob(),
        "intersection": marginal(dist, range(1, n + 1)),
        "boole_union": {"lower": lower_u, "upper": upper_u},
        "boole_intersection": {"lower": lower_i, "upper": upper_i},
        "poincare_union": poincare_union(dist),
        "bonferroni_lower": bonferroni_lower(dist),
        "bonferroni_variants": variants,
    }


# --- argument parsing and dispatch ----------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse usage errors are input errors
        raise InvalidInput(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ketsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a circuit file")
    p_run.add_argument("circuit", help="circuit program file")
    p_run.add_argument("--shots", type=int, default=1024)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument(
        "--table", action="append", metavar="NAME=FILE", help="load a truth table"
    )
    p_run.add_argument(
        "--max-qubits",
        type=int,
        default=DEFAULT_QUBIT_CAP,
        help="raise the qubit cap; every extra qubit doubles memory",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_tp = sub.add_parser("teleport", help="teleport a qubit given by two angles")
    p_tp.add_argument("--state", required=True, metavar="THETA,ETA")
    p_tp.add_argument("--branch", metavar="BITS", help="force the measured branch")
    p_tp.add_argument("--seed", type=int, default=0)
    p_tp.set_defaults(fn=_cmd_teleport)

    p_dj = sub.add_parser("deutsch-jozsa", help="constant-vs-balanced decision")
    p_dj.add_argument("--table", required=True, metavar="FILE")
    p_dj.add_argument("--seed", type=int, default=0)
    p_dj.set_defaults(fn=_cmd_deutsch_jozsa)

    p_dec = sub.add_parser("decompose", help="two-level decomposition of a unitary")
    p_dec.add_argument("--matrix", required=True, metavar="FILE")
    p_dec.set_defaults(fn=_cmd_decompose)

    p_bell = sub.add_parser("bell", help="Bell-expression value at given angles")
    p_bell.add_argument("--angles", required=True, metavar="A1,A2,B1,B2")
    p_bell.set_defaults(fn=_cmd_bell)

    p_bounds = sub.add_parser("bounds", help="exact probability bounds for a distribution")
    p_bounds.add_argument("--dist", required=True, metavar="FILE")
    p_bounds.set_defaults(fn=_cmd_bounds)
    return parser


def exit_code_for(exc: KetsimError) -> int:
    return 2 if isinstance(exc, NumericalFailure) else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = args.fn(args)
    except KetsimError as exc:
        body = {"error": {"kind": exc.kind, "detail": str(exc)}}
        print(_json(body))
        print(f"ketsim: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    print(_json(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
