"""Which pinned stdout digests move with the CPU kernels OpenBLAS and numpy pick.

Usage, from the root of a checkout:

    python3 bench/cpu_digests.py [--src DIR] [--seeds 1 2] [--settings NAME ...] [--out FILE]

OpenBLAS picks its kernels by CPU when it loads, and numpy picks its SIMD
loops the same way; a digest that holds the bits of either can move on
another CPU.  Each setting below is forced in child processes, with its
environment set for those processes alone:

- ``default``: the kernels this machine picks;
- ``haswell``: ``OPENBLAS_CORETYPE=Haswell``, OpenBLAS's AVX2 kernels;
- ``sandybridge``: ``OPENBLAS_CORETYPE=Sandybridge``, its AVX kernels;
- ``numpy-baseline``: ``NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4"``, numpy's
  baseline loops with the default OpenBLAS.

Under each setting one child runs every job of every ``perfbench`` workload
at each seed through ``ketsim.cli.main`` and hashes its stdout, and another
runs the pinned-digest tests of ``tests/test_cli.py`` under pytest.  The
report lists, per setting, the jobs whose digest differs from the default
setting's and the pinned tests that fail; ``--out`` also writes every
digest as JSON.  The children run with a one-thread BLAS pool.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SETTINGS = {
    "default": {},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "numpy-baseline": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4"},
}

#: The tests that compare a command's stdout with a pinned sha256.
PINNED_TESTS = [
    "tests/test_cli.py::TestTeleportCommand::test_golden_bytes",
    "tests/test_cli.py::TestDeutschJozsaCommand::test_seed_golden_bytes",
    "tests/test_cli.py::TestBoundsCommand::test_mixed_denominators_golden_bytes",
    "tests/test_cli.py::TestGoldenBytes",
    "tests/test_cli.py::TestGoldenDumps",
]


def job_digests(seeds: list[int]) -> dict[str, str]:
    """``<workload>/seed<N>/<job>`` -> the sha256 of the job's stdout, for
    the ``ketsim`` on ``sys.path``: a benchmark record's ``stdout_sha256``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from gen import WORKLOADS, make_workload
    from ketsim.cli import main

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for seed in seeds:
            for workload in WORKLOADS:
                for job in make_workload(workload, seed, Path(tmp) / f"{workload}{seed}"):
                    captured = io.StringIO()
                    with contextlib.redirect_stdout(captured):
                        main(job.argv)
                    out[f"{workload}/seed{seed}/{job.name}"] = hashlib.sha256(
                        captured.getvalue().encode()).hexdigest()
    return out


def _child_env(src: Path, setting: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update(setting, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(src))
    return env


def run_setting(src: Path, seeds: list[int], setting: dict[str, str]) -> dict:
    """The job digests and the failing pinned tests under ``setting``."""
    env = _child_env(src, setting)
    argv = [sys.executable, str(Path(__file__).resolve()), "--child",
            "--seeds", *map(str, seeds)]
    jobs = json.loads(subprocess.run(argv, env=env, capture_output=True, text=True,
                                     check=True).stdout)
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *PINNED_TESTS],
        cwd=src.parent, env=env, capture_output=True, text=True)
    failed = sorted(re.findall(r"^FAILED (\S+)", tests.stdout, re.MULTILINE))
    passed = re.search(r"(\d+) passed", tests.stdout)
    return {"env": setting, "jobs": jobs, "tests_passed": int(passed[1]) if passed else 0,
            "tests_failed": failed}


def report(results: dict[str, dict]) -> list[str]:
    """One line per setting, then one per job digest that differs from the
    default setting's and one per failing pinned test."""
    base = results["default"]["jobs"]
    lines = []
    for name, result in results.items():
        moved = [job for job, digest in result["jobs"].items() if digest != base[job]]
        lines.append(f"{name}: {len(moved)} of {len(base)} job digests move, "
                     f"{len(result['tests_failed'])} pinned tests fail "
                     f"({result['tests_passed']} pass)")
        lines += [f"  moves: {job}" for job in moved]
        lines += [f"  fails: {test}" for test in result["tests_failed"]]
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(ROOT / "src"))
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--settings", nargs="+", choices=SETTINGS, default=list(SETTINGS))
    parser.add_argument("--out", help="file for every digest, as JSON")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(job_digests(args.seeds)))
        return
    src = Path(args.src).resolve()
    names = ["default", *(name for name in args.settings if name != "default")]
    results = {name: run_setting(src, args.seeds, SETTINGS[name]) for name in names}
    print("\n".join(report(results)))
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")


if __name__ == "__main__":
    main()
