"""Batch command-line front end.

Subcommands: run, teleport, deutsch-jozsa, decompose, bell, bounds.  Each
writes one JSON document to stdout; diagnostics go to stderr.  Exit codes:
0 success, 1 input error (running out of memory included), 2 numerical
failure.  All randomness derives from --seed (default 0), and
floating-point values are printed with 17 significant digits, so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import ctypes
import itertools
import os
import stat
import sys
from collections.abc import Iterator
from fractions import Fraction

import numpy as np

from .circuit import _data_lines, _parse_float, _parse_int, parse_circuit, run_program
from .decompose import FactorTable, check_dim_cap, decompose_table, recompose
from .errors import (
    CapacityExceeded,
    InvalidInput,
    KetsimError,
    NumericalFailure,
    ParseError,
)
from .gates import TruthTable, _table_size_text
from .inequalities import (
    MAX_EVENTS,
    BellSetting,
    EventDistribution,
    bell_violation,
    bonferroni_lower,
    bonferroni_variant_table,
    boole_intersection_bounds,
    boole_union_bounds,
    marginal,
    poincare_union,
)
from .protocols import deutsch_jozsa, teleport, teleport_branch, teleport_pre_measurement
from .state import DEFAULT_QUBIT_CAP, StateVector, qubit_from_angles, states_equivalent
from .text17 import FACTOR_CHUNK, KET_CHUNK, factors_text, ket_chunks, pairs_text

# --- deterministic JSON rendering -----------------------------------------

_STRING_ESCAPES = {ord("\\"): "\\\\", ord('"'): '\\"'}
_STRING_ESCAPES.update({c: f"\\u{c:04x}" for c in range(0x20)})


def _json(value) -> Iterator[str]:
    """The JSON text of ``value`` as consecutive fragments.

    States, complex arrays and factor tables are formatted in chunks, so the
    caller can write a large document without ever holding it whole.
    """
    if isinstance(value, dict):
        yield "{"
        for i, (k, v) in enumerate(value.items()):
            yield f"{', ' if i else ''}{_scalar_json(str(k))}: "
            yield from _json(v)
        yield "}"
    elif isinstance(value, FactorTable):
        yield from _chunked(value, FACTOR_CHUNK, factors_text)
    elif isinstance(value, (list, tuple)):
        yield "["
        for i, v in enumerate(value):
            if i:
                yield ", "
            yield from _json(v)
        yield "]"
    elif isinstance(value, StateVector):
        # the ket's text needs no escapes: digits, signs, letters, |, >, ( )
        yield f'{{"num_qubits": {value.num_qubits}, "ket": "'
        yield from ket_chunks(value)
        yield '", "amplitudes": '
        yield from _json(value.amplitudes)
        yield "}"
    elif isinstance(value, np.ndarray) and value.dtype == np.complex128:
        yield from _chunked(value.reshape(-1), KET_CHUNK, pairs_text)
    else:
        yield _scalar_json(value)


def _chunked(items, size: int, render) -> Iterator[str]:
    """A JSON array of ``items``: ``render`` of each run of ``size`` items,
    comma-separated, inside brackets."""
    yield "["
    for start in range(0, len(items), size):
        if start:
            yield ", "
        yield render(items[start : start + size])
    yield "]"


def _scalar_json(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".17g")
    if isinstance(value, Fraction):
        return f'"{value}"'
    if isinstance(value, str):
        return '"' + value.translate(_STRING_ESCAPES) + '"'
    raise TypeError(f"cannot serialize {type(value).__name__}")


# --- input file formats ----------------------------------------------------


#: Bytes of the largest input file read.  Inputs within the other caps fit
#: well under it: an arity-20 truth table is 24 MB, a D = 256 matrix file
#: (the decomposition cap) about 3 MB, a distribution of ``MAX_EVENTS``
#: events under 1 MB.  A circuit file has no other bound.
MAX_INPUT_BYTES = 64 << 20


def _read_text(path: str) -> str:
    """The file's UTF-8 text as stored: ``\\r`` is kept, so that lines end at
    ``\\n`` alone for the CLI as for ``parse_circuit``.  A regular file's size
    is checked against ``MAX_INPUT_BYTES`` before reading; any other file
    (a pipe, a device) is read up to one byte past the cap."""
    try:
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode):
                size = info.st_size
                data = fh.read() if size <= MAX_INPUT_BYTES else b""
            else:
                data = fh.read(MAX_INPUT_BYTES + 1)
                size = len(data)
        if size > MAX_INPUT_BYTES:
            raise CapacityExceeded(f"{path} exceeds the input cap of {MAX_INPUT_BYTES} bytes")
        return data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc


def _header(line: tuple[int, list[str]] | None, kind: str, key: str, what: str) -> int:
    """The integer, at least 1, of a ``<key>=<int>`` header alone on a file's
    first data ``line``; a file with none has its error on line 1."""
    line_no, tokens = line or (1, [""])
    if not tokens[0].startswith(f"{key}="):
        raise ParseError(f"{kind} must start with {key}=<{what}>", line_no)
    if len(tokens) > 1:
        raise ParseError(f"unexpected {tokens[1]!r} after {tokens[0]!r}", line_no)
    try:
        value = _parse_int(tokens[0][len(key) + 1:])
    except ValueError:
        raise ParseError(f"bad {what} {tokens[0]!r}", line_no) from None
    if value < 1:
        raise ParseError(f"{what} must be at least 1, got {value}", line_no)
    return value


def load_truth_table(path: str, qubit_cap: int | None = None) -> TruthTable:
    """Table file: first line ``n=<arity>``, then 2**n lines ``x f(x)``.

    One line walk reads the header, and goes on from there unless the
    strict layout takes the file.  Only a file long enough to hold its
    2**arity rows is checked against ``qubit_cap``, if given (an oracle of
    arity + 1 qubits over it raises ``CapacityExceeded`` before any row is
    read), and tried in the strict layout, which is decoded in bulk.  Any
    other file, including every malformed one, is walked, and a shorter
    one is reported short of entries.
    """
    text = _read_text(path)
    lines = _data_lines(text)
    arity = _header(next(lines, None), "truth table file", "n", "arity")
    # a row is at least its pattern, a space and a value
    if len(text) >> arity >= arity + 2:
        if qubit_cap is not None and arity + 1 > qubit_cap:
            raise CapacityExceeded(f"{arity + 1} qubits exceeds the cap of {qubit_cap}")
        if (table := _bulk_truth_table(text, arity)) is not None:
            return table
    return _walk_truth_table(lines, arity)


# A strict table's pattern column, in runs of 2**k rows: "0", then "1".
_BIT_RUNS = np.array([[ord("0")], [ord("1")]], dtype=np.uint8)


def _bulk_truth_table(text: str, arity: int) -> TruthTable | None:
    """The table of a file in the strict layout, or None for any other file.

    The strict layout is ASCII: the line ``n=<arity>`` with no leading
    zero, then exactly 2**arity rows ``<arity bits> <0|1>\\n`` in index
    order.  The caller passes only an arity whose rows the text could hold,
    so ``1 << arity`` stays small.  The rows are a ``uint8`` view of the
    ASCII bytes, checked one column at a time; every file taken here gives
    the walk's table, and the walk owns every error message.
    """
    head = f"n={arity}\n"
    if not (text.isascii() and text.startswith(head)):
        return None
    width = arity + 3
    rows, extra = divmod(len(text) - len(head), width)
    if extra or rows != 1 << arity:
        return None
    data = np.frombuffer(text.encode("ascii"), np.uint8, offset=len(head)).reshape(rows, width)
    values = data[:, arity + 1]
    # ``b | 1 == ord("1")`` holds for ``b`` in "01" alone
    if not ((data[:, arity] == ord(" ")).all() and (data[:, -1] == ord("\n")).all()
            and ((values | 1) == ord("1")).all()):
        return None
    # in index order column c is bit arity - 1 - c: its runs read "0" then "1"
    for column in range(arity):
        if not (data[:, column].reshape(-1, 2, 1 << (arity - 1 - column)) == _BIT_RUNS).all():
            return None
    return TruthTable(arity, (values & 1).tobytes())


def _walk_truth_table(lines: Iterator, arity: int) -> TruthTable:
    """The table of any valid file, its line walk gone on from just past
    the header: comments, blank lines and any whitespace are allowed.
    Every error message and line number of a table file comes from here
    or from ``_header``."""
    entries: dict[int, int] = {}
    for line_no, tokens in lines:
        if len(tokens) != 2:
            raise ParseError("expected '<bits> <value>'", line_no)
        pattern, value = tokens
        if len(pattern) != arity or pattern.strip("01"):
            raise ParseError(f"bad input pattern {pattern!r}", line_no)
        if value not in ("0", "1"):
            raise ParseError(f"bad output value {value!r}", line_no)
        x = int(pattern, 2)
        if x in entries:
            raise ParseError(f"duplicate entry for {pattern!r}", line_no)
        entries[x] = int(value)
    count = len(entries)
    # Bit lengths first: 2**arity is built only when the count could match it.
    if count.bit_length() <= arity or count != 1 << arity:
        raise ParseError(
            f"table lists {count} of {_table_size_text(arity)} required entries", None
        )
    return TruthTable(arity, bytes(map(entries.__getitem__, range(1 << arity))))


def load_matrix(path: str) -> np.ndarray:
    """Matrix file: first line ``d=<D>``, then D rows of D ``re,im`` pairs.

    One line walk reads the header, and goes on from there unless the
    strict layout takes the file.  Only a file long enough to hold D rows
    of D entries, each at least ``a,b`` and a separator (4 * D**2
    characters), is checked against the decomposition cap before any row
    is read, tried in the strict layout, which is parsed in one pass, and
    has its walked rows kept.  Any other file, including every malformed
    one, is walked, and a shorter one is reported short.  The D x D array
    is built once every row has passed, so its size is bounded by the
    entries the file holds.
    """
    text = _read_text(path)
    lines = _data_lines(text)
    head = next(lines, None)
    dim = _header(head, "matrix file", "d", "dimension")
    if whole := len(text) >= 4 * dim * dim:
        check_dim_cap(dim)
        if (matrix := _bulk_matrix(text, dim)) is not None:
            return matrix
    return _walk_matrix(lines, head, dim, keep=whole)


# The bytes a number of a strict-layout matrix file is made of: printable
# ASCII but the "," separator, "#" and "_".  Deleting them from the rows
# leaves each row's separators alone.
_NUMBER_BYTES = bytes(b for b in range(0x21, 0x7F) if b not in b",#_")


def _bulk_matrix(text: str, dim: int) -> np.ndarray | None:
    """The matrix of a file in the strict layout, or None for any other file.

    The strict layout is ASCII: the line ``d=<D>`` with no leading zero,
    then exactly D rows of D ``re,im`` entries, separated by one space and
    ended by ``\\n``, with no ``#``, ``_``, ``\\r`` or other whitespace.  Each
    row is checked, then parsed, on its own.  Its numbers are the walk's
    tokens, parsed by the same ``float``; every file taken here gives the
    walk's matrix, and the walk owns every error message but the cap's,
    which ``load_matrix`` checks first.
    """
    head = f"d={dim}\n"
    # the rows counted, and nothing after the last, before any array is built
    if not (text.isascii() and text.startswith(head) and text.endswith("\n")
            and text.count("\n", len(head)) == dim):
        return None
    rows = text.split("\n")[1:-1]
    # any byte left but the ", " after each entry but the last and a "," fails
    seps = b", " * (dim - 1) + b","
    if any(row.encode("ascii").translate(None, _NUMBER_BYTES) != seps for row in rows):
        return None
    # row by row, so that no more than one row's number texts are held
    values = itertools.chain.from_iterable(
        map(float, row.replace(",", " ").split()) for row in rows
    )
    try:
        # an empty number leaves fewer than 2*D*D parts, which fromiter rejects
        parts = np.fromiter(values, np.float64, 2 * dim * dim)
    except ValueError:
        return None
    return parts.view(np.complex128).reshape(dim, dim)


def _walk_matrix(lines: Iterator, head: tuple, dim: int, keep: bool) -> np.ndarray:
    """The matrix of any valid file, its line walk gone on from just past
    the ``head`` line: comments, blank lines and any whitespace are
    allowed.  Every error message and line number of a matrix file but the
    cap's and the header's comes from here.

    One walk parses rows until the first bad one or row D + 1 and only
    counts the rest; a wrong row count wins over a bad row.  A file too
    short to hold D rows of D entries cannot be valid: its rows are checked
    and, without ``keep``, none is kept.
    """
    entries: list[complex] = []
    fault, count, last = None, 0, head
    for count, last in enumerate(lines, start=1):
        if fault is None and count <= dim:
            try:
                row = _matrix_row(*last, dim)
            except ParseError as exc:
                fault = exc
                continue
            if keep:
                entries += row
    if count != dim:
        raise ParseError(f"expected {dim} matrix rows", last[0])
    if fault is not None:
        raise fault
    return np.array(entries, dtype=np.complex128).reshape(dim, dim)


def _matrix_row(line_no: int, tokens: list[str], dim: int) -> list[complex]:
    """The D entries of one walked matrix row, each token ``re,im``."""
    if len(tokens) != dim:
        raise ParseError(f"row needs {dim} entries, got {len(tokens)}", line_no)
    row = []
    for token in tokens:
        re_text, sep, im_text = token.partition(",")
        if not sep:
            raise ParseError(f"entries are 're,im', got {token!r}", line_no)
        try:
            row.append(complex(_parse_float(re_text), _parse_float(im_text)))
        except ValueError:
            raise ParseError(f"bad complex entry {token!r}", line_no) from None
    return row


#: Caps on a distribution file's rationals: characters per token and size
#: of the decimal exponent.  Python prints no int of over 4300 digits; within
#: these caps and ``EventDistribution``'s on the common denominator no result
#: does, nor the residual of a failing sum.
MAX_RATIONAL_CHARS = 100
MAX_EXPONENT = 100


def load_distribution(path: str) -> EventDistribution:
    """Distribution file: lines ``bitpattern numerator/denominator``.

    Unlisted atoms are zero; the atoms must sum to exactly 1 and any
    failing residual is reported exactly.
    """
    lines = _data_lines(_read_text(path))
    first = next(lines, None)
    if first is None:
        raise ParseError("distribution file is empty", None)
    width = len(first[1][0])
    if width > MAX_EVENTS:
        raise ParseError(
            f"atom pattern of {width} events exceeds the cap of {MAX_EVENTS}", first[0]
        )
    atoms = [Fraction(0)] * (1 << width)
    seen: set[int] = set()
    for line_no, tokens in itertools.chain([first], lines):
        if len(tokens) != 2:
            raise ParseError("expected '<bits> <rational>'", line_no)
        pattern, value = tokens
        if len(pattern) != width or pattern.strip("01"):
            raise ParseError(f"bad atom pattern {pattern!r}", line_no)
        index = int(pattern, 2)
        if index in seen:
            raise ParseError(f"duplicate atom {pattern!r}", line_no)
        seen.add(index)
        if len(value) > MAX_RATIONAL_CHARS:
            raise ParseError(f"rational exceeds {MAX_RATIONAL_CHARS} characters", line_no)
        try:
            # Fraction and int accept "_" separators and non-ASCII digits
            if not value.isascii() or "_" in value:
                raise ValueError(value)
            # checked first: Fraction would build 10**exponent
            if abs(int(value.lower().partition("e")[2] or 0)) > MAX_EXPONENT:
                raise ParseError(f"exponent of {value!r} exceeds {MAX_EXPONENT}", line_no)
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
    paths = {}
    for item in args.table or []:
        name, sep, path = item.partition("=")
        if not (sep and name):
            raise InvalidInput(f"--table expects NAME=FILE, got {item!r}")
        if name in paths:
            raise InvalidInput(f"--table NAME {name!r} given more than once")
        paths[name] = path
    tables = {name: load_truth_table(path) for name, path in paths.items()}
    program = parse_circuit(_read_text(args.circuit), tables)
    result = run_program(
        program, tables, shots=args.shots, seed=args.seed, cap=args.max_qubits
    )
    if isinstance(result, StateVector):
        return {"final_state": result}
    return result.to_json_dict()


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise InvalidInput(f"{what} expects {count} comma-separated values")
    try:
        return [_parse_float(p) for p in parts]
    except ValueError:
        raise InvalidInput(f"bad number in {what}: {text!r}") from None


def _cmd_teleport(args) -> dict:
    theta, eta = _parse_floats(args.state, 2, "--state")
    psi = qubit_from_angles(theta, eta)
    if args.branch is None:
        transcript = teleport(psi, args.seed)
        a1, a2 = transcript.a1, transcript.a2
    elif len(args.branch) == 2 and set(args.branch) <= {"0", "1"}:
        a1, a2 = int(args.branch[0]), int(args.branch[1])
    else:
        raise InvalidInput(f"--branch expects two bits, got {args.branch!r}")
    # one document per branch, however the branch was chosen
    psi0, psi1, psi2 = teleport_pre_measurement(psi)
    bob = teleport_branch(psi, a1, a2)
    return {
        "input_state": psi,
        "a1": a1,
        "a2": a2,
        "intermediate": {"psi0": psi0, "psi1": psi1, "psi2": psi2},
        "bob_state": bob,
        "equivalent": states_equivalent(bob, psi),
    }


def _cmd_deutsch_jozsa(args) -> dict:
    table = load_truth_table(args.table, qubit_cap=DEFAULT_QUBIT_CAP)
    verdict = deutsch_jozsa(table, args.seed)
    return {
        "verdict": verdict.verdict,
        "measured_bits": "".join(map(str, verdict.measured_bits)),
        "oracle_calls": verdict.oracle_calls,
        "zero_branch_weight": verdict.zero_branch_weight,
    }


def _cmd_decompose(args) -> dict:
    matrix = load_matrix(args.matrix)
    factors = decompose_table(matrix)
    dim = matrix.shape[0]
    error = float(np.linalg.norm(recompose(factors, dim) - matrix))
    return {
        "dim": dim,
        "constructed_count": 2 * dim * dim - dim,
        "emitted_count": len(factors),
        "recompose_error": error,
        "factors": factors,
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
    return {
        "num_events": n,
        "event_probs": singles,
        "union": dist.union_prob(),
        "intersection": marginal(dist, range(1, n + 1)),
        "boole_union": {"lower": lower_u, "upper": upper_u},
        "boole_intersection": {"lower": lower_i, "upper": upper_i},
        "poincare_union": poincare_union(dist),
        "bonferroni_lower": bonferroni_lower(dist),
        "bonferroni_variants": {
            format(m, f"0{n}b"): v for m, v in enumerate(bonferroni_variant_table(dist)) if m
        },
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


def _write_json(value) -> None:
    """Write the JSON text of ``value`` and a newline to stdout fragment by
    fragment, so that a large document is never held whole."""
    write = sys.stdout.write
    for fragment in _json(value):
        write(fragment)
    write("\n")


def _find_malloc_trim():
    """glibc's ``malloc_trim``, or None where the C library has none."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        return ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        return None


_MALLOC_TRIM = _find_malloc_trim()


def main(argv=None) -> int:
    try:
        return _main(argv)
    finally:
        # Once glibc frees a large mmap-ed block (a state, or a caller's
        # capture of a large output) it serves blocks up to that size from
        # its heap and keeps their pages when they are freed; how many it
        # keeps depends on the heap's layout.  Handing the free pages back
        # leaves a process that runs command after command holding its
        # live data alone, the same amount on every run.
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)


def _main(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        result = args.fn(args)
    except (KetsimError, MemoryError) as exc:
        if isinstance(exc, MemoryError):
            exc = CapacityExceeded(f"out of memory: {exc}".removesuffix(": "))
        _write_json({"error": {"kind": exc.kind, "detail": str(exc)}})
        print(f"ketsim: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    # rendered only once the command has returned, so that an input error
    # still prints nothing but its error document
    _write_json(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
