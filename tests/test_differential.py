"""ketsim's CLI output against the benchmark's independent checker.

``perfbench/gen.py`` builds jobs and ``perfbench/check.py`` judges their
stdout with its own tensor-contraction simulator, exact Born distribution
over measurement records, SplitMix64 replay, brute-force bounds and factor
products.  Neither imports ``ketsim``, so these tests check the kernels,
the shot tree, the bounds engine and the decomposition against code that
shares none of their paths.  Both files are only read here.
"""

import random
from pathlib import Path

import numpy as np
import pytest

from ketsim.cli import main
from conftest import perfbench_module

gen = perfbench_module("gen")
check = perfbench_module("check")

RUN_CASES = 60
# measurement-free (a final state), one trailing ``measure``, or subset
# measurements mid-circuit before the trailing ``measure``: the checker
# reads a record as the mid-circuit outcomes followed by all n qubits, so
# every measured program here ends in a bare ``measure``
RUN_KINDS = ("free", "end", "mid")


def _run_job(case: int, workdir: Path):
    rng = random.Random(f"differential-run:{case}")
    n = 5 + case % 4
    kind = RUN_KINDS[case % 3]
    oracle = gen._random_table(rng, gen.ORACLE_ARITY, balanced=False)
    ops = gen._random_gates(rng, n, 24)
    if kind == "mid":
        for position in sorted(rng.sample(range(1, len(ops)), rng.randint(1, 3)), reverse=True):
            targets = tuple(rng.sample(range(n), rng.randint(1, 2)))
            ops.insert(position, ("measure", targets, ()))
    if kind != "free":
        ops.append(("measure", (), ()))
    return gen._circuit_job(
        workdir, f"c{case}", kind, n, ops, oracle, 200, rng.randrange(1 << 32)
    )


def _other_job(case: int, workdir: Path):
    """Deutsch-Jozsa at arity 1 to 8, bounds at n = 1 to 6, decompose at D <= 16."""
    rng = random.Random(f"differential-other:{case}")
    kind, i = divmod(case, 4)
    if kind == 0:
        arity = (1, 3, 5, 8)[i]
        return gen.dj_job(rng, workdir, f"dj{case}", arity, balanced=i % 2 == 0)
    if kind == 1:
        n = (1, 2, 4, 6)[i]
        atoms = (gen._common_denominator_atoms if i % 2 else gen._mixed_prime_atoms)(rng, n)
        return gen._bounds_job(workdir, f"b{case}", n, atoms, "seeded")
    dim = (2, 3, 8, 16)[i]
    np_rng = np.random.default_rng(rng.randrange(1 << 32))
    matrix = (
        gen._block_diagonal_unitary(np_rng, dim, 4) if dim == 16 else gen._haar_unitary(np_rng, dim)
    )
    return gen._decompose_job(workdir, f"d{case}", matrix, "seeded")


def _verdict(capsys, job) -> str | None:
    code = main(job.argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return check.check_output(job.spec, out)


@pytest.mark.parametrize("case", range(RUN_CASES))
def test_run_matches_reference(capsys, tmp_path, case):
    job = _run_job(case, tmp_path)
    assert _verdict(capsys, job) is None


@pytest.mark.parametrize("case", range(12))
def test_exact_commands_match_reference(capsys, tmp_path, case):
    job = _other_job(case, tmp_path)
    assert _verdict(capsys, job) is None


def test_cases_cover_the_gate_mix_and_measurements(tmp_path):
    jobs = [_run_job(case, tmp_path) for case in range(RUN_CASES)]
    ops = {op for job in jobs for op, _, _ in job.spec["ops"]}
    assert ops == {"h", "x", "y", "z", "u2", "cnot", "toffoli", "oracle", "measure"}
    assert {job.spec["n"] for job in jobs} == {5, 6, 7, 8}
    mid = [job for job in jobs if job.cls == "mid"]
    assert mid and all(
        any(op == "measure" and targets for op, targets, _ in job.spec["ops"]) for job in mid
    )
