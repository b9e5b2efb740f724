"""Seeded input generator for the benchmark workloads.

``make_workload(name, seed, workdir)`` writes every input file a workload
needs into ``workdir`` and returns its jobs.  A job holds the ``ketsim``
argv, the files the program reads, what the independent checker needs to
verify the output (``spec``), and a description of the inputs that goes
into the results.  The same name and seed always give the same files.

Nothing here imports ``ketsim``: the program only ever sees the files and
the argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from pathlib import Path

import numpy as np

WORKLOADS = ("shots", "deep", "bigio", "exact")

# Job classes; each workload holds two of them (``deep`` splits its one
# class by state size, see ``CLASS_SLOTS``).
CLASS_SLOTS = {
    "shots": ("run_final", "run_branching"),
    "deep": ("run_final_n20", "run_final_n16"),
    "bigio": ("run_state", "dj"),
    "exact": ("bounds", "decompose"),
}

ORACLE_ARITY = 4


@dataclass
class Job:
    name: str
    cls: str
    argv: list[str]
    inputs: list[Path]
    spec: dict
    describe: dict = field(default_factory=dict)


# --- circuits --------------------------------------------------------------

# (opcode, number of targets, weight) of the random gate mix.
_GATE_MIX = (
    ("h", 1, 14),
    ("x", 1, 5),
    ("y", 1, 4),
    ("z", 1, 5),
    ("u2", 1, 18),
    ("cnot", 2, 28),
    ("toffoli", 3, 14),
    ("oracle", ORACLE_ARITY + 1, 6),
)


def _gate_mix(count: int) -> list[str]:
    """Exactly ``count`` opcodes in the proportions of ``_GATE_MIX``.

    Fixing the composition keeps the work of a workload the same for
    every seed; only targets, angles and order vary.
    """
    total = sum(w for _, _, w in _GATE_MIX)
    shares = [(count * w / total, op) for op, _, w in _GATE_MIX]
    counts = {op: int(share) for share, op in shares}
    by_remainder = sorted(shares, key=lambda x: x[0] - int(x[0]), reverse=True)
    for _, op in by_remainder[: count - sum(counts.values())]:
        counts[op] += 1
    return [op for op, _, _ in _GATE_MIX for _ in range(counts[op])]


def _random_gates(rng: random.Random, n: int, count: int) -> list[tuple]:
    """``count`` gates of the fixed mix, in random order on random targets."""
    arity = {op: k for op, k, _ in _GATE_MIX}
    ops = _gate_mix(count)
    rng.shuffle(ops)
    gates = []
    for op in ops:
        targets = tuple(rng.sample(range(n), arity[op]))
        params = tuple(rng.uniform(-3.2, 3.2) for _ in range(4)) if op == "u2" else ()
        gates.append((op, targets, params))
    return gates


def render_circuit(n: int, ops: list[tuple]) -> str:
    lines = [f"qubits {n}"]
    for op, targets, params in ops:
        qs = " ".join(map(str, targets))
        if op == "u2":
            angles = " ".join(f"{k}={v!r}" for k, v in zip("abcd", params))
            lines.append(f"u2 {qs} {angles}")
        elif op == "oracle":
            lines.append(f"oracle f {qs}")
        else:
            lines.append(f"{op} {qs}".rstrip())
    return "\n".join(lines) + "\n"


def _random_table(rng: random.Random, arity: int, balanced: bool) -> list[int]:
    size = 1 << arity
    if balanced:
        outputs = [1] * (size // 2) + [0] * (size // 2)
        rng.shuffle(outputs)
        return outputs
    return [rng.randrange(2) for _ in range(size)]


def render_table(arity: int, outputs: list[int]) -> str:
    lines = [f"n={arity}"]
    lines.extend(f"{x:0{arity}b} {v}" for x, v in enumerate(outputs))
    return "\n".join(lines) + "\n"


def _gate_counts(ops: list[tuple]) -> dict:
    counts: dict[str, int] = {}
    for op, targets, _ in ops:
        if op == "measure":
            continue
        key = "oracle" if op == "oracle" else f"{len(targets)}q"
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def _circuit_job(
    workdir: Path, name: str, cls: str, n: int, ops: list[tuple],
    oracle: list[int], shots: int, seed: int,
) -> Job:
    circuit = workdir / f"{name}.qc"
    table = workdir / f"{name}_f.tbl"
    circuit.write_text(render_circuit(n, ops), encoding="utf-8")
    table.write_text(render_table(ORACLE_ARITY, oracle), encoding="utf-8")
    measures = [targets for op, targets, _ in ops if op == "measure"]
    mid = sum(1 for targets in measures if targets)
    return Job(
        name=name,
        cls=cls,
        argv=["run", str(circuit),
              *(["--shots", str(shots), "--seed", str(seed)] if measures else []),
              "--table", f"f={table}"],
        inputs=[circuit, table],
        spec={"kind": "circuit", "n": n, "ops": ops, "oracle": oracle,
              "shots": shots, "seed": seed},
        describe={"qubits": n, "gates_by_arity": _gate_counts(ops),
                  "shots": shots if measures else None,
                  "mid_circuit_measurements": mid,
                  "trailing_measure": bool(measures) and not measures[-1]},
    )


def _shots_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    n = 12
    oracle = _random_table(rng, ORACLE_ARITY, balanced=False)
    # Final-only: every shot replays the same measurement-free prefix.
    final_ops = [("h", (q,), ()) for q in range(n)] + _random_gates(rng, n, 58)
    final_ops.append(("measure", (), ()))
    # Branching: four 2-qubit measurements among the first 28 instructions, so
    # trajectories split early and rarely share a collapsed state.
    gates = _random_gates(rng, n, 58)
    branch_ops = [("h", (q,), ()) for q in range(n)]
    for i in range(4):
        branch_ops += gates[3 * i: 3 * i + 3]
        branch_ops.append(("measure", tuple(rng.sample(range(n), 2)), ()))
    branch_ops += gates[12:]
    branch_ops.append(("measure", (), ()))
    seed = rng.randrange(1 << 32)
    return [
        _circuit_job(workdir, "final12", "run_final", n, final_ops, oracle, 200, seed),
        _circuit_job(workdir, "branch12", "run_branching", n, branch_ops, oracle, 100,
                     seed + 1),
    ]


def _deep_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    jobs = []
    for n, count, cls in ((20, 80, "run_final_n20"), (16, 400, "run_final_n16")):
        oracle = _random_table(rng, ORACLE_ARITY, balanced=False)
        ops = _random_gates(rng, n, count) + [("measure", (), ())]
        jobs.append(_circuit_job(workdir, f"deep{n}", cls, n, ops, oracle, 1,
                                 rng.randrange(1 << 32)))
    return jobs


def _bigio_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    n = 17
    oracle = _random_table(rng, ORACLE_ARITY, balanced=False)
    # A u2 layer with random angles makes every amplitude a generic complex
    # number, so the rendered state has about the same length for every seed.
    layer = [("u2", (q,), tuple(rng.uniform(-3.2, 3.2) for _ in range(4)))
             for q in range(n)]
    ops = layer + _random_gates(rng, n, 20)
    state_job = _circuit_job(workdir, "state17", "run_state", n, ops, oracle, 1, 0)
    return [state_job, dj_job(rng, workdir, "dj17", 17, balanced=True)]


def dj_job(rng: random.Random, workdir: Path, name: str, arity: int, balanced: bool) -> Job:
    outputs = _random_table(rng, arity, balanced) if balanced else [1] * (1 << arity)
    table = workdir / f"{name}.tbl"
    table.write_text(render_table(arity, outputs), encoding="utf-8")
    kind = "balanced" if balanced else "constant"
    return Job(
        name=name,
        cls="dj",
        argv=["deutsch-jozsa", "--table", str(table), "--seed", str(rng.randrange(1 << 32))],
        inputs=[table],
        spec={"kind": "dj", "arity": arity, "balanced": balanced},
        describe={"table_arity": arity, "table_kind": kind},
    )


# --- exact jobs ------------------------------------------------------------


def _common_denominator_atoms(rng: random.Random, n: int) -> list[Fraction]:
    size = 1 << n
    denominator = 2**6 * 3**4 * 5**3 * 7**2 * 11 * 13  # 453,993,600
    cuts = sorted(rng.randrange(denominator + 1) for _ in range(size - 1))
    bounds = [0, *cuts, denominator]
    return [Fraction(bounds[i + 1] - bounds[i], denominator) for i in range(size)]


_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _mixed_prime_atoms(rng: random.Random, n: int) -> list[Fraction]:
    size = 1 << n
    atoms = []
    for _ in range(size - 1):
        p = rng.choice(_PRIMES)
        # Small atoms keep the total below one; the last atom takes the rest.
        atoms.append(Fraction(rng.randrange(p), p * size))
    atoms.append(1 - sum(atoms))
    return atoms


def render_distribution(n: int, atoms: list[Fraction]) -> str:
    return "".join(f"{b:0{n}b} {a}\n" for b, a in enumerate(atoms))


def _bounds_job(workdir: Path, name: str, n: int, atoms: list[Fraction], kind: str) -> Job:
    path = workdir / f"{name}.dist"
    path.write_text(render_distribution(n, atoms), encoding="utf-8")
    denominators = sorted({a.denominator for a in atoms})
    return Job(
        name=name,
        cls="bounds",
        argv=["bounds", "--dist", str(path)],
        inputs=[path],
        spec={"kind": "bounds", "n": n, "atoms": atoms},
        describe={"events": n, "atom_count": len(atoms), "denominators": kind,
                  "distinct_denominators": len(denominators),
                  "lcm_digits": len(str(lcm(*denominators)))},
    )


def _haar_unitary(gen: np.random.Generator, dim: int) -> np.ndarray:
    z = (gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _block_diagonal_unitary(gen: np.random.Generator, dim: int, block: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=np.complex128)
    for start in range(0, dim, block):
        out[start:start + block, start:start + block] = _haar_unitary(gen, block)
    return out


def render_matrix(m: np.ndarray) -> str:
    lines = [f"d={m.shape[0]}"]
    for row in m:
        lines.append(" ".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row))
    return "\n".join(lines) + "\n"


def _decompose_job(workdir: Path, name: str, matrix: np.ndarray, kind: str) -> Job:
    path = workdir / f"{name}.mat"
    path.write_text(render_matrix(matrix), encoding="utf-8")
    # Store the matrix as parsed back from its text, which is what ketsim sees.
    parsed = np.array(
        [[float(t.split(",")[0]) + 1j * float(t.split(",")[1]) for t in line.split()]
         for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    )
    return Job(
        name=name,
        cls="decompose",
        argv=["decompose", "--matrix", str(path)],
        inputs=[path],
        spec={"kind": "decompose", "matrix": parsed},
        describe={"D": matrix.shape[0], "matrix_kind": kind},
    )


def _exact_jobs(rng: random.Random, workdir: Path) -> list[Job]:
    gen = np.random.default_rng(rng.randrange(1 << 63))
    return [
        _bounds_job(workdir, "bounds10", 10, _common_denominator_atoms(rng, 10),
                    "common"),
        _bounds_job(workdir, "bounds9", 9, _mixed_prime_atoms(rng, 9), "mixed primes"),
        _decompose_job(workdir, "haar64", _haar_unitary(gen, 64), "haar"),
        _decompose_job(workdir, "blockdiag128", _block_diagonal_unitary(gen, 128, 4),
                       "block-diagonal, 4x4 Haar blocks"),
    ]


_BUILDERS = {
    "shots": _shots_jobs,
    "deep": _deep_jobs,
    "bigio": _bigio_jobs,
    "exact": _exact_jobs,
}


def make_workload(name: str, seed: int, workdir: Path) -> list[Job]:
    """Write the inputs of workload ``name`` for ``seed`` and return its jobs."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{name}:{seed}")
    jobs = _BUILDERS[name](rng, workdir)
    for job in jobs:
        job.describe["input_bytes"] = sum(p.stat().st_size for p in job.inputs)
    return jobs
