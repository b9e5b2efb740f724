"""Benchmark of the ``ketsim`` batch CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {shots,deep,bigio,exact} --seed N \\
        --seconds S --trace {0,1}

A workload is a fixed, seed-generated list of CLI jobs (see ``gen.py``).
Jobs run one after another in this process through ``ketsim.cli.main``
with stdout captured in memory: a closed loop with one client.  One
untimed warm-up pass produces the outputs that ``check.py`` verifies;
timed passes then repeat the list for ``--seconds`` and must reproduce the
warm-up's stdout byte for byte (compared by sha256).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with the span recorder of ``spans.py``
installed, and reports the per-layer metrics.  The last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
full record (machine, inputs, digests, per-pass times) is written to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NPROC = len(os.sched_getaffinity(0))
# One client on one core: the calibrations, the jobs and the import probes
# all run on the same core, so they see the same host speed.  The BLAS pool
# is pinned before numpy loads to match.
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
BLAS_THREADS = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from check import check_output  # noqa: E402
from gen import CLASS_SLOTS, WORKLOADS, Job, make_workload  # noqa: E402
from spans import SpanRecorder, rollup  # noqa: E402

SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60

# This host switches between a fast and a slow state (about 1.5x apart) for
# seconds to minutes at a time, whatever the program does; CPU time slows
# with wall time, so the cause is the host, not scheduling.  A short fixed
# calibration kernel runs before and after every timed job and every timed
# import; each timing is scaled by CAL_REF_S over the mean of the two
# calibrations around it, i.e. reported at the host's fast-state speed.
# Raw timings stay in the results record.
CAL_ROUNDS = 150
CAL_REPEATS = 3
CAL_REF_S = 0.0056  # CAL_ROUNDS rounds in the fast state of the reference host
_CAL_STATE = np.ones((2,) * 12, dtype=np.complex128)
_CAL_GATE = np.eye(2, dtype=np.complex128)

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "class1_s": "s",
    "class2_s": "s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}


# --- calibration -------------------------------------------------------------


def calibrate() -> float:
    """Median seconds of a fixed mix of interpreter and small-array numpy work."""
    samples = []
    for _ in range(CAL_REPEATS):
        start = time.perf_counter()
        for i in range(CAL_ROUNDS):
            np.abs(np.tensordot(_CAL_GATE, _CAL_STATE, axes=([1], [i % 12]))) ** 2
            sum(k * k for k in range(100))
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def timed(fn, *args):
    """``fn(*args)``, its raw seconds, and the factor that normalises them."""
    before = calibrate()
    start = time.perf_counter()
    result = fn(*args)
    raw = time.perf_counter() - start
    after = calibrate()
    return result, raw, CAL_REF_S * 2 / (before + after)


# --- set-up time -------------------------------------------------------------

_IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import ketsim.cli\n"
    "print(repr(time.perf_counter() - t))\n"
)


def measure_setup(runs: int = SETUP_RUNS) -> list[dict]:
    """Raw and normalised seconds to import ``ketsim.cli`` in fresh interpreters.

    One discarded import first lets the bytecode cache be written, which a
    user pays once per install, not once per job.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))

    def probe() -> float:
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        return float(done.stdout.strip().splitlines()[-1])

    probe()
    samples = []
    for _ in range(runs):
        raw, _, factor = timed(probe)
        samples.append({"raw": raw, "seconds": raw * factor})
    return samples


# --- passes ------------------------------------------------------------------


def run_pass(jobs: list[Job], main, recorder: SpanRecorder | None = None) -> dict:
    """Run every job once; returns the pass time and per-job results.

    The pass time is the sum of the job times: the calibrations between
    jobs are not part of it.
    """
    results = []
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()

        def call():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    if recorder is None:
                        return main(job.argv)
                    recorder.job = job.name
                    return recorder.span("cli.main", main, job.argv)
                except Exception as exc:  # a traceback is a failed job, not a crash
                    print(f"{type(exc).__name__}: {exc}", file=err)
                    return -1

        code, raw, factor = timed(call)
        results.append({"seconds": raw * factor, "raw_seconds": raw, "code": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
    wall = sum(r["seconds"] for r in results)
    for r in results:
        text = r.pop("stdout")
        r["sha256"] = hashlib.sha256(text.encode()).hexdigest()
        r["out_bytes"] = len(text.encode())
        r["text"] = text
    return {"wall_s": wall, "jobs": results}


def run_for(jobs, main, seconds: float, recorder=None) -> list[dict]:
    """Repeat passes for about ``seconds``; at least one pass.

    A pass starts only if half of it would fit in the time left, so the
    measured time stays near ``seconds`` whatever the pass length.
    """
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start
                         + passes[-1]["wall_s"] / 2 < seconds):
        p = run_pass(jobs, main, recorder)
        for r in p["jobs"]:
            del r["text"]
        if recorder is not None:
            p["spans"] = recorder.take()
        passes.append(p)
    return passes


def tally(jobs: list[Job], warmup: dict, passes: list[dict],
          check=check_output) -> tuple[int, int, list[str]]:
    """Attempted and failed job runs, with one reason per failure.

    A run fails on a nonzero exit, on an output the checker rejects, or on
    stdout that differs from the checked warm-up output.
    """
    reasons = []
    verdicts = []
    for job, r in zip(jobs, warmup["jobs"]):
        if r["code"] != 0:
            verdicts.append(f"exit code {r['code']}: {r['stderr'].strip()[:200]}")
        else:
            verdicts.append(check(job.spec, r["text"]))
    attempted = failed = 0
    for p in [warmup, *passes]:
        for job, r, verdict, ref in zip(jobs, p["jobs"], verdicts, warmup["jobs"]):
            attempted += 1
            why = verdict
            if why is None and r["code"] != 0:
                why = f"exit code {r['code']}"
            if why is None and r["sha256"] != ref["sha256"]:
                why = "stdout differs from the warm-up pass"
            if why is not None:
                failed += 1
                reasons.append(f"{job.name}: {why}")
    return attempted, failed, reasons


# --- metrics -----------------------------------------------------------------


def class_seconds(jobs: list[Job], p: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for job, r in zip(jobs, p["jobs"]):
        out[job.cls] = out.get(job.cls, 0.0) + r["seconds"]
    return out


def end_to_end(workload, jobs, passes, setup, rss_mib, attempted, failed) -> dict:
    first, second = CLASS_SLOTS[workload]
    per_class = [class_seconds(jobs, p) for p in passes]
    values = {
        "setup_s": statistics.median(s["seconds"] for s in setup),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "class1_s": statistics.median(c[first] for c in per_class),
        "class2_s": statistics.median(c[second] for c in per_class),
        "peak_rss_mib": rss_mib,
        "ok_ratio": (attempted - failed) / attempted,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


PER_LAYER_UNITS = dict((
    ("cli.self_s", "s"), ("cli.load_s", "s"), ("circuit.parse_s", "s"),
    ("cli.in_bytes", "bytes"), ("cli.out_bytes", "bytes"),
    ("circuit.run_program_s", "s"), ("circuit.self_s", "s"),
    ("circuit.trajectories", "count"), ("circuit.gate_calls", "count"),
    ("circuit.measure_calls", "count"),
    ("measure.measure_subset.calls", "count"), ("measure.measure_subset_s", "s"),
    ("measure.measure_all.calls", "count"), ("measure.measure_all_s", "s"),
    ("rng.uniform.calls", "count"), ("rng.uniform_s", "s"),
    ("gates.apply_gate_at.calls", "count"), ("gates.k1.self_s", "s"),
    ("gates.k2.self_s", "s"), ("gates.k3.self_s", "s"),
    ("gates.apply_oracle_at.calls", "count"), ("gates.apply_oracle_at.self_s", "s"),
    ("gates.cmac", "count"), ("gates.bytes_computed", "bytes"),
    ("gates.gb_per_s_computed", "GB/s"),
    ("state.construct.calls", "count"), ("state.construct_s", "s"),
    ("state.bytes_computed", "bytes"),
    ("protocols.deutsch_jozsa_s", "s"),
    ("decompose.two_level_decompose_s", "s"), ("decompose.eigensystem_s", "s"),
    ("decompose.recompose_s", "s"), ("decompose.factors", "count"),
    ("decompose.expand.calls", "count"), ("decompose.recompose_bytes_computed", "bytes"),
    ("inequalities.bonferroni_variants.calls", "count"),
    ("inequalities.bonferroni_variants_s", "s"), ("inequalities.poincare_union_s", "s"),
    ("inequalities.marginal.calls", "count"), ("inequalities.marginal_s", "s"),
    ("inequalities.atom_visits", "count"),
    ("trace.overhead_ratio", "ratio"),
))


def layer_values(jobs: list[Job], p: dict) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    r = rollup(p["spans"])

    def get(name: str, key: str = "incl_s"):
        return r.get(name, {}).get(key, 0)

    gates = [n for n in r if n.startswith("gates.k") and "<-" not in n]
    kernels = gates + ["gates.apply_oracle_at"]
    kernel_self = sum(get(n, "self_s") for n in kernels)
    gate_bytes = sum(get(n, "gate_bytes") for n in kernels)
    from_circuit = [n for n in r if n.endswith("<-circuit.trajectory")]
    atoms = ("inequalities.marginal", "inequalities.bonferroni_variants",
             "inequalities.bonferroni_lower")
    return {
        "cli.self_s": get("cli.main", "self_s"),
        "cli.load_s": get("cli.load"),
        "circuit.parse_s": get("circuit.parse"),
        "cli.in_bytes": sum(j.describe["input_bytes"] for j in jobs),
        "cli.out_bytes": sum(x["out_bytes"] for x in p["jobs"]),
        "circuit.run_program_s": get("circuit.run_program"),
        "circuit.self_s": get("circuit.run_program", "self_s")
        + get("circuit.trajectory", "self_s"),
        "circuit.trajectories": get("circuit.trajectory", "calls"),
        "circuit.gate_calls": sum(get(n, "calls") for n in from_circuit
                                  if n.startswith("gates.")),
        "circuit.measure_calls": sum(get(n, "calls") for n in from_circuit
                                     if n.startswith("measure.")),
        "measure.measure_subset.calls": get("measure.measure_subset", "calls"),
        "measure.measure_subset_s": get("measure.measure_subset"),
        "measure.measure_all.calls": get("measure.measure_all", "calls"),
        "measure.measure_all_s": get("measure.measure_all"),
        "rng.uniform.calls": get("rng.uniform", "calls"),
        "rng.uniform_s": get("rng.uniform"),
        "gates.apply_gate_at.calls": sum(get(n, "calls") for n in gates),
        "gates.k1.self_s": get("gates.k1", "self_s"),
        "gates.k2.self_s": get("gates.k2", "self_s"),
        "gates.k3.self_s": get("gates.k3", "self_s"),
        "gates.apply_oracle_at.calls": get("gates.apply_oracle_at", "calls"),
        "gates.apply_oracle_at.self_s": get("gates.apply_oracle_at", "self_s"),
        "gates.cmac": sum(get(n, "cmac") for n in gates),
        "gates.bytes_computed": gate_bytes,
        "gates.gb_per_s_computed": gate_bytes / kernel_self / 1e9 if kernel_self else 0.0,
        "state.construct.calls": get("state.construct", "calls"),
        "state.construct_s": get("state.construct"),
        "state.bytes_computed": get("state.construct", "state_bytes"),
        "protocols.deutsch_jozsa_s": get("protocols.deutsch_jozsa"),
        "decompose.two_level_decompose_s": get("decompose.two_level_decompose"),
        "decompose.eigensystem_s": get("decompose.eigensystem"),
        "decompose.recompose_s": get("decompose.recompose"),
        "decompose.factors": get("decompose.two_level_decompose", "factors"),
        "decompose.expand.calls": get("decompose.expand", "calls"),
        "decompose.recompose_bytes_computed": get("decompose.recompose", "recompose_bytes"),
        "inequalities.bonferroni_variants.calls":
            get("inequalities.bonferroni_variants", "calls"),
        "inequalities.bonferroni_variants_s": get("inequalities.bonferroni_variants"),
        "inequalities.poincare_union_s": get("inequalities.poincare_union"),
        "inequalities.marginal.calls": get("inequalities.marginal", "calls"),
        "inequalities.marginal_s": get("inequalities.marginal"),
        "inequalities.atom_visits": sum(get(n, "atom_visits") for n in atoms),
    }


def per_layer(jobs, untraced: list[dict], traced: list[dict]) -> dict:
    rows = [layer_values(jobs, p) for p in traced]
    values = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    values["trace.overhead_ratio"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced)
    )
    return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}


# --- machine record ----------------------------------------------------------


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def machine_record() -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        size = _read(f"{index}/size")
        if size.endswith("K") and size[:-1].isdigit() and int(size[:-1]) % 1024 == 0:
            size = f"{int(size[:-1]) // 1024} MiB"
        if kind != "Instruction":
            caches[f"L{level}"] = size
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = "unknown"
    import scipy

    l3 = caches.get("L3", "unknown")
    return {
        "cpu_model": model,
        "nproc": NPROC,
        "l2_per_core": caches.get("L2", "unknown"),
        "l3": l3,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads": BLAS_THREADS,
        "note": (f"The largest state (n = 20, 16 MiB) fits the {l3} L3, so the "
                 "computed gate rates are cache-resident; they make no claim "
                 "against a DRAM roofline. Byte and multiply counts are "
                 "computed from array sizes, not read from hardware counters."),
    }


# --- driver --------------------------------------------------------------------


def _relative(argv: list[str], workdir: Path) -> list[str]:
    return [a.replace(str(workdir) + os.sep, "") for a in argv]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ketsim" / "cli.py").is_file():
        print(f"perfbench: no ketsim sources under {SRC}", file=sys.stderr)
        return 2

    state_dir = ROOT / ".perfbench"
    workdir = state_dir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        jobs = make_workload(args.workload, args.seed, workdir)
        setup = measure_setup()
        sys.path.insert(0, str(SRC))
        from ketsim.cli import main as ketsim_main

        warmup = run_pass(jobs, ketsim_main)
        # High-water mark after one pass, as a fresh process per job would
        # see it; read before repeated passes and the checker can add to it.
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        budget = args.seconds / 2 if args.trace else args.seconds
        untraced = run_for(jobs, ketsim_main, budget)
        traced = []
        if args.trace:
            recorder = SpanRecorder()
            missing = recorder.install()
            try:
                traced = run_for(jobs, ketsim_main, budget, recorder)
            finally:
                recorder.uninstall()
        attempted, failed, reasons = tally(jobs, warmup, untraced + traced)
        if args.trace:
            metrics = per_layer(jobs, untraced, traced)
        else:
            metrics = end_to_end(args.workload, jobs, untraced, setup, rss_mib,
                                 attempted, failed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first, second = CLASS_SLOTS[args.workload]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one client, jobs run in-process one after another",
        "machine": machine_record(),
        "class_slots": {"class1_s": first, "class2_s": second},
        "jobs": [{"name": j.name, "class": j.cls, "argv": _relative(j.argv, workdir),
                  "inputs": j.describe, "stdout_sha256": r["sha256"],
                  "out_bytes": r["out_bytes"]}
                 for j, r in zip(jobs, warmup["jobs"])],
        "setup_s_samples": setup,
        "passes": [{"traced": traced_flag, "wall_s": p["wall_s"],
                    "raw_wall_s": sum(r["raw_seconds"] for r in p["jobs"]),
                    "classes": class_seconds(jobs, p)}
                   for traced_flag, group in ((False, untraced), (True, traced))
                   for p in group],
        "attempted": attempted,
        "failed": failed,
        "failures": reasons[:50],
        "metrics": metrics,
    }
    if args.trace:
        record["unpatched"] = missing
    results = state_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if traced:
        SpanRecorder.write(traced[0]["spans"], results / f"{stem}.spans.jsonl.gz")

    print(f"perfbench {stem}: {len(untraced)} untraced and {len(traced)} traced passes, "
          f"record in {results / (stem + '.json')}")
    for reason in reasons[:10]:
        print(f"  failed: {reason}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
