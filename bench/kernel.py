"""Layer timings of the gate kernels, measurement, the ``StateVector`` constructor,
the two-level decomposition and the input readers.

Usage, from the root of a checkout:

    python3 bench/kernel.py [--src DIR] [--repeats R]
    python3 bench/kernel.py --parent OTHER/src --rounds 5 --out BENCH.json

The first form times the ``ketsim`` found in ``--src`` (default: this
checkout's ``src``) and prints one JSON object, case name -> the median
seconds over ``--repeats`` calls, raw (``raw_s``), the mean of the
calibration runs just before and after them (``cal_s``), and the raw time
scaled to the reference host speed (``s`` = ``raw_s * CAL_REF_S /
cal_s``).  The calibration kernel and ``CAL_REF_S`` are those of
``perfbench/run.py``, so a row reads in the same units as a benchmark
record however fast the host runs at the time.  The second form runs that
measurement in fresh interpreters, ``--rounds`` times for each of two
source trees, alternating which goes first, and writes per-case medians,
quartiles and change/parent ratios of the scaled times, with every round's
raw time and calibration.

Cases: ``apply_gate_at`` with a Hadamard, CNOT, a dense 4x4 unitary,
Toffoli and a dense 8x8 unitary; ``apply_oracle_at`` with a 4-input
table; each on n = 16 and n = 20 qubits with the targets at the first,
middle and last qubits.  Permutation gates with a target on the
innermost qubit, X on n-1, CNOT on [0, n-1] and Toffoli on [1, 3, n-1],
run as ``x/n<N>/innermost``, ``cnot/...`` and ``toffoli/...``.  ``y`` and
``z`` run at the same first, middle and last targets.  ``repeat/n12/...``
times ``REPEAT_CALLS`` calls of one plan on a 12-qubit state, as a shot
tree calls each plan after a measurement once per branch, from the plan's
fourth call on, once any table it keeps exists: CNOT on [0, 11], the
4-input oracle on [5, 2, 8, 3, 11], Y on qubit 10 and Z on qubit 6.
``measure_subset`` of 2 qubits at the same three positions and of every
qubit (``measure_subset/n<N>/all``) run on the same states, each with a
fresh ``RngStream``.
``construct`` times ``StateVector(amps)``, and ``construct/n20/drift``
times it on the n = 20 state scaled by 1 + 1e-9, which it renormalises.
``two_level_decompose`` and ``recompose`` (of that decomposition's
factors) run on a seeded ``haar_random_unitary`` at D = 16, 32, 64 and
128, and so do ``decompose_table`` and ``recompose_table`` (the
``recompose`` of its table), the path of ``ketsim decompose``, which makes
no object per factor; ``decompose_table/D128_blocks4`` decomposes a
block-diagonal unitary of 32 seeded 4 x 4 Haar blocks, whose eigenvectors
have four nonzero entries.  ``factor_text/D64`` and ``/D128`` render the
factor table of the Haar unitary's decomposition alone into a sink.  The
table, matrix and distribution files are written by ``perfbench/gen.py``'s
own writers, so they are the benchmark's file formats byte for byte.
``load_truth_table`` reads a balanced table file of arity 14 and 17 (0.27
and 2.5 MB), ``load_truth_table/n17_capped`` reads the second with
``qubit_cap=20``, as ``ketsim deutsch-jozsa`` does, and
``deutsch_jozsa/arity17`` runs Deutsch-Jozsa at the default seed on it.
``load_matrix/D128`` reads a seeded D = 128 Haar unitary (0.7 MB).
``load_truth_table/n14_walked`` and ``load_matrix/D128_walked`` read the
same files behind a leading ``# comment`` line, which no strict layout
allows, so they time the line walk rather than the bulk readers.
``parse_circuit`` parses a 20,000-line circuit that cycles through the
opcodes, comments and blank lines, and ``compile`` runs ``_compile`` on the
program it parses (64 distinct of 15,999 instructions).  ``run_program``
runs a circuit shaped like the benchmark's ``branch12`` job (12 qubits, a
Hadamard layer, four 2-qubit measurements among the first gates, 70 gates
and a trailing ``measure``) at 10**3 and 10**4 shots, and ``sample`` draws
10**6 shots of a Bell state.
``format_ket/n17`` renders the ket of a generic n = 17 state,
``format_ket/n17_real`` that of the uniform state a Hadamard layer makes
(every term pure real, in "0.00ddd" form), and ``render/n17`` runs
``ketsim.cli.main`` on a measurement-free n = 17 circuit (a Hadamard and a
``u2`` layer) whose 13 MB ``final_state`` document goes to a stdout that
keeps nothing; ``render/decompose/D64``
runs ``ketsim decompose`` on a seeded D = 64 Haar unitary (8,128 factors)
into the same stdout.  ``bounds/n6`` to ``bounds/n10`` run ``ketsim bounds``
into that stdout on a distribution file of 6 to 10 events whose atoms have
mixed prime denominators, drawn as for the benchmark's ``bounds9`` job and
seeded by the event count, and ``load_distribution/n10`` reads the largest
file.
Every process is pinned to one core with a one-thread BLAS pool.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (16, 20)
REPEAT_QUBITS = 12
REPEAT_CALLS = 100
ORACLE_ARITY = 4
DECOMPOSE_DIMS = (16, 32, 64, 128)
FACTOR_TEXT_DIMS = (64, 128)
BLOCKS_DIM = 128
TABLE_ARITIES = (14, 17)
WALKED_ARITY = 14
CIRCUIT_LINES = 20_000
BRANCHING_SHOTS = (1_000, 10_000)
SAMPLE_SHOTS = 1_000_000
RENDER_QUBITS = 17
MATRIX_DIM = 128
RENDER_DECOMPOSE_DIM = 64
BOUNDS_EVENTS = (6, 7, 8, 9, 10)


def _pin() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _perfbench(name: str):
    """``perfbench/<name>.py`` as a module: ``run`` for its calibration
    kernel, ``gen`` for its input file writers."""
    sys.path.insert(0, str(ROOT / "perfbench"))  # for its own imports
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _median_time(fn, repeats: int, bench) -> dict[str, float]:
    """The median seconds of ``repeats`` calls of ``fn``, raw and scaled by
    ``bench``'s calibration runs just before and after them."""
    fn()  # warm-up: first-touch page faults and lazy imports
    before = bench.calibrate()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    cal = (before + bench.calibrate()) / 2
    raw = statistics.median(times)
    return {"s": raw * bench.CAL_REF_S / cal, "raw_s": raw, "cal_s": cal}


def _circuit_text(lines: int, n: int = 16) -> str:
    """``lines`` lines of a circuit on ``n`` qubits with an oracle ``f`` of
    arity ``ORACLE_ARITY``; two lines in ten are a comment or blank."""
    cycle = ["h {0}", "cnot {0} {1}  # c", "u2 {1} a=0.1 b=-0.2 c=0.3 d=0.4",
             "toffoli {0} {1} {2}", "", "x {2}", "measure {0} {1}", "# comment",
             "oracle f {0} {1} {2} {3} {4}", "z {0}"]
    out = [f"qubits {n}"]
    for i in range(1, lines):
        q = [(i + k) % n for k in range(ORACLE_ARITY + 1)]
        out.append(cycle[i % len(cycle)].format(*q))
    return "\n".join(out) + "\n"


def _branching_text(rng, n: int = 12, gates: int = 70) -> str:
    """A circuit on ``n`` qubits with an oracle ``f`` of arity
    ``ORACLE_ARITY``: a Hadamard layer, then ``gates`` gates with a 2-qubit
    ``measure`` after each of the first four triples, then ``measure``."""
    cycle = ["h {0}", "cnot {0} {1}", "u2 {0} a={a} b={b} c={c} d={d}", "toffoli {0} {1} {2}",
             "x {0}", "oracle f {0} {1} {2} {3} {4}", "z {0}", "cnot {1} {0}", "y {0}"]
    lines = [f"qubits {n}"] + [f"h {q}" for q in range(n)]
    for i in range(gates):
        q = rng.permutation(n)[: ORACLE_ARITY + 1].tolist()
        a, b, c, d = rng.uniform(-3.2, 3.2, 4).tolist()
        lines.append(cycle[i % len(cycle)].format(*q, a=a, b=b, c=c, d=d))
        if i in (2, 5, 8, 11):
            lines.append(f"measure {q[0]} {q[1]}")
    return "\n".join([*lines, "measure"]) + "\n"


class _Sink:
    """A stdout that keeps nothing of what is written to it."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def _render_case(argv: list[str]) -> Callable[[], None]:
    """``ketsim`` with ``argv`` and stdout sent to a sink."""
    from ketsim.cli import main

    def run() -> None:
        stdout, sys.stdout = sys.stdout, _Sink()
        try:
            if main(argv) != 0:
                raise RuntimeError(f"ketsim {' '.join(argv)} failed")
        finally:
            sys.stdout = stdout

    return run


def measure(repeats: int) -> dict[str, dict[str, float]]:
    """Median seconds per case for the ``ketsim`` on ``sys.path``, as
    :func:`_median_time` gives them."""
    import numpy as np
    from ketsim import StateVector, TruthTable, apply_gate_at, apply_oracle_at, cnot, hadamard
    from ketsim import RngStream, measure_subset, pauli_x, pauli_y, pauli_z, toffoli_unitary
    from ketsim import haar_random_unitary, parse_circuit, recompose, two_level_decompose
    from ketsim import bell_pair, deutsch_jozsa, format_ket, run_program, sample
    from ketsim.circuit import _compile
    from ketsim.gates import _GatePlan, _OraclePlan
    from ketsim.decompose import decompose_table
    from ketsim.cli import _json, load_distribution, load_matrix, load_truth_table

    bench, gen = _perfbench("run"), _perfbench("gen")

    def timed(fn, reps: int) -> dict[str, float]:
        return _median_time(fn, reps, bench)

    rng = np.random.default_rng(5)

    def dense(dim: int) -> np.ndarray:
        z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(z)
        return q

    gates = {"h": hadamard(), "cnot": cnot(), "dense2": dense(4),
             "toffoli": toffoli_unitary(), "dense3": dense(8), "y": pauli_y(), "z": pauli_z()}
    table = TruthTable(ORACLE_ARITY, tuple(int(b) for b in rng.integers(0, 2, 1 << ORACLE_ARITY)))
    states = {}
    for n in SIZES:
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        states[n] = StateVector(amps / np.linalg.norm(amps))
    reps = {n: repeats if n >= 20 else 4 * repeats for n in SIZES}
    # The constructors run first, so that both trees time them after the
    # same allocations: the earlier kernel calls differ between trees and
    # change how fast a fresh 16 MiB copy gets its pages.
    out: dict[str, dict[str, float]] = {}
    for n, state in states.items():
        out[f"construct/n{n}"] = timed(lambda: StateVector(state.amplitudes), reps[n])
    # a squared norm of about 1 + 2e-9, which every call renormalises
    drifted = states[20].amplitudes * (1 + 1e-9)
    out["construct/n20/drift"] = timed(lambda: StateVector(drifted), reps[20])
    for n, state in states.items():
        for name, g in gates.items():
            k = g.shape[0].bit_length() - 1
            for pos, start in (("first", 0), ("middle", (n - k) // 2), ("last", n - k)):
                targets = list(range(start, start + k))
                out[f"{name}/n{n}/{pos}"] = timed(
                    lambda: apply_gate_at(g, targets, state), reps[n])
        for name, g, targets in (("x", pauli_x(), [n - 1]), ("cnot", cnot(), [0, n - 1]),
                                 ("toffoli", toffoli_unitary(), [1, 3, n - 1])):
            out[f"{name}/n{n}/innermost"] = timed(
                lambda: apply_gate_at(g, targets, state), reps[n])
        width = ORACLE_ARITY + 1
        for pos, start in (("first", 0), ("middle", (n - width) // 2), ("last", n - width)):
            targets = list(range(start, start + width))
            out[f"oracle/n{n}/{pos}"] = timed(
                lambda: apply_oracle_at(table, targets, state), reps[n])
        for pos, start in (("first", 0), ("middle", (n - 2) // 2), ("last", n - 2)):
            targets = [start, start + 1]
            out[f"measure_subset/n{n}/{pos}"] = timed(
                lambda: measure_subset(state, targets, RngStream(0)), reps[n])
        out[f"measure_subset/n{n}/all"] = timed(
            lambda: measure_subset(state, range(n), RngStream(0)), reps[n])
    n = REPEAT_QUBITS
    own = np.random.default_rng(n)  # leaves the cases after this unchanged
    amps = own.normal(size=1 << n) + 1j * own.normal(size=1 << n)
    state = StateVector(amps / np.linalg.norm(amps))
    for name, plan in (("cnot", _GatePlan(cnot(), [0, n - 1], n)),
                       ("oracle", _OraclePlan(table, [5, 2, 8, 3, n - 1], n)),
                       ("y", _GatePlan(pauli_y(), [n - 2], n)),
                       ("z", _GatePlan(pauli_z(), [n // 2], n))):
        for _ in range(3):
            plan(state)
        out[f"repeat/n{n}/{name}"] = timed(
            lambda: [plan(state) for _ in range(REPEAT_CALLS)], 4 * repeats)
    for dim in DECOMPOSE_DIMS:
        u = haar_random_unitary(dim, RngStream(dim))
        factors, held = two_level_decompose(u), decompose_table(u)
        out[f"two_level_decompose/D{dim}"] = timed(lambda: two_level_decompose(u), repeats)
        out[f"recompose/D{dim}"] = timed(lambda: recompose(factors, dim), repeats)
        out[f"decompose_table/D{dim}"] = timed(lambda: decompose_table(u), repeats)
        out[f"recompose_table/D{dim}"] = timed(lambda: recompose(held, dim), repeats)
        if dim in FACTOR_TEXT_DIMS:
            out[f"factor_text/D{dim}"] = timed(lambda: sum(map(len, _json(held))), repeats)
    sparse = np.zeros((BLOCKS_DIM, BLOCKS_DIM), dtype=np.complex128)
    for at in range(0, BLOCKS_DIM, 4):
        sparse[at : at + 4, at : at + 4] = haar_random_unitary(4, RngStream(at))
    out[f"decompose_table/D{BLOCKS_DIM}_blocks4"] = timed(lambda: decompose_table(sparse), repeats)
    with tempfile.TemporaryDirectory() as tmp:
        for arity in TABLE_ARITIES:
            path = Path(tmp) / f"n{arity}.tbl"
            path.write_text(gen.render_table(arity, [x & 1 for x in range(1 << arity)]))
            out[f"load_truth_table/n{arity}"] = timed(
                lambda: load_truth_table(str(path)), repeats)
            if arity == WALKED_ARITY:
                walked = Path(tmp) / f"n{arity}_walked.tbl"
                walked.write_text("# comment\n" + path.read_text())
                out[f"load_truth_table/n{arity}_walked"] = timed(
                    lambda: load_truth_table(str(walked)), repeats)
        out[f"load_truth_table/n{arity}_capped"] = timed(
            lambda: load_truth_table(str(path), qubit_cap=20), repeats)
        balanced = load_truth_table(str(path))  # the last table: f(x) = x & 1
        out[f"deutsch_jozsa/arity{arity}"] = timed(lambda: deutsch_jozsa(balanced), repeats)
        n = RENDER_QUBITS
        own = np.random.default_rng(n)  # leaves the cases after this unchanged
        amps = own.normal(size=1 << n) + 1j * own.normal(size=1 << n)
        state = StateVector(amps / np.linalg.norm(amps))
        out[f"format_ket/n{n}"] = timed(lambda: format_ket(state), repeats)
        uniform = StateVector(np.full(1 << n, 2 ** (-n / 2)))
        out[f"format_ket/n{n}_real"] = timed(lambda: format_ket(uniform), repeats)
        path = Path(tmp) / f"dump{n}.qc"
        path.write_text("\n".join(
            [f"qubits {n}", *(f"h {q}" for q in range(n)),
             *(f"u2 {q} a=0.{q + 1} b=0.3 c=0.{q + 2} d=0.7" for q in range(n))]) + "\n")
        out[f"render/n{n}"] = timed(_render_case(["run", str(path)]), repeats)
        matrix = Path(tmp) / f"haar{MATRIX_DIM}.mat"
        matrix.write_text(
            gen.render_matrix(haar_random_unitary(MATRIX_DIM, RngStream(MATRIX_DIM))))
        out[f"load_matrix/D{MATRIX_DIM}"] = timed(lambda: load_matrix(str(matrix)), repeats)
        walked = Path(tmp) / f"haar{MATRIX_DIM}_walked.mat"
        walked.write_text("# comment\n" + matrix.read_text())
        out[f"load_matrix/D{MATRIX_DIM}_walked"] = timed(lambda: load_matrix(str(walked)), repeats)
        dim = RENDER_DECOMPOSE_DIM
        path = Path(tmp) / f"haar{dim}.mat"
        path.write_text(gen.render_matrix(haar_random_unitary(dim, RngStream(dim))))
        out[f"render/decompose/D{dim}"] = timed(
            _render_case(["decompose", "--matrix", str(path)]), repeats)
        for n in BOUNDS_EVENTS:
            path = Path(tmp) / f"mixed{n}.dist"
            atoms = gen._mixed_prime_atoms(random.Random(n), n)
            path.write_text(gen.render_distribution(n, atoms))
            out[f"bounds/n{n}"] = timed(_render_case(["bounds", "--dist", str(path)]), repeats)
        out[f"load_distribution/n{n}"] = timed(lambda: load_distribution(str(path)), repeats)
    text = _circuit_text(CIRCUIT_LINES)
    tables = {"f": table}
    out[f"parse_circuit/lines{CIRCUIT_LINES}"] = timed(
        lambda: parse_circuit(text, tables), repeats)
    program = parse_circuit(text, tables)
    out[f"compile/lines{CIRCUIT_LINES}"] = timed(lambda: _compile(program, tables), repeats)
    program = parse_circuit(_branching_text(rng), tables)
    for shots in BRANCHING_SHOTS:
        out[f"run_program/branch12/shots{shots}"] = timed(
            lambda: run_program(program, tables, shots=shots, seed=1), repeats)
    bell = bell_pair(0, 0)
    out[f"sample/bell/shots{SAMPLE_SHOTS}"] = timed(
        lambda: sample(bell, SAMPLE_SHOTS, 1), repeats)
    return out


def _run_tree(src: str, repeats: int) -> dict[str, dict[str, float]]:
    argv = [sys.executable, str(Path(__file__).resolve()), "--src", src, "--repeats", str(repeats)]
    done = subprocess.run(argv, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name")), platform.processor())
    except OSError:
        return platform.processor()


def compare(parent: str, change: str, rounds: int, repeats: int) -> dict:
    runs: dict[str, list[dict[str, dict[str, float]]]] = {"parent": [], "change": []}
    for r in range(rounds):
        order = (("parent", parent), ("change", change))
        for side, src in order if r % 2 == 0 else order[::-1]:
            runs[side].append(_run_tree(src, repeats))
    rows = {}
    for case in runs["parent"][0]:
        row = {}
        for side in ("parent", "change"):
            row[f"{side}_s"] = _quartiles([run[case]["s"] for run in runs[side]])
        row["ratio"] = row["change_s"][1] / row["parent_s"][1]
        for side in ("parent", "change"):
            row[f"{side}_raw_s"] = [run[case]["raw_s"] for run in runs[side]]
            row[f"{side}_cal_s"] = [run[case]["cal_s"] for run in runs[side]]
        rows[case] = row
    return {
        "what": "median seconds per call scaled to the reference host speed, "
                "[q1, median, q3] over rounds; each round is the median of its "
                "process's repeats times CAL_REF_S over the mean of the "
                "calibrations before and after them; *_raw_s and *_cal_s list "
                "each round's raw median and calibration",
        "cal_ref_s": _perfbench("run").CAL_REF_S,
        "rounds": rounds,
        "repeats": repeats,
        "machine": {"cpu_model": _cpu_model(), "cpu_count": os.cpu_count(),
                    "python": platform.python_version(), "platform": platform.platform()},
        "rows": rows,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--parent", help="src directory of the tree to compare against")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--out", help="file for the comparison (default: stdout)")
    args = parser.parse_args()
    _pin()
    if args.parent is None:
        sys.path.insert(0, str(Path(args.src).resolve()))
        print(json.dumps(measure(args.repeats)))
        return
    record = compare(args.parent, args.src, args.rounds, args.repeats)
    import numpy as np

    record["machine"]["numpy"] = np.__version__
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


if __name__ == "__main__":
    main()
