"""Self-tests of the benchmark: corrupted outputs must count as failures.

Run from the root of a checkout:

    python3 perfbench/selftest.py

Small seeded jobs of every kind run once through ``ketsim.cli.main``.
Their real outputs must pass the checker; each corruption below must be
caught, and must lower ``ok_ratio`` through the same accounting the
benchmark reports.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

import numpy as np

import gen
import run
from check import check_output

sys.path.insert(0, str(run.SRC))
from ketsim.cli import main as ketsim_main  # noqa: E402


def _small_jobs(workdir: Path) -> dict[str, gen.Job]:
    rng = random.Random("selftest")
    n = 6
    oracle = [rng.randrange(2) for _ in range(16)]
    final = gen._random_gates(rng, n, 20) + [("measure", (), ())]
    branch = gen._random_gates(rng, n, 4) + [("measure", (0, 3), ())]
    branch += gen._random_gates(rng, n, 10) + [("measure", (), ())]
    state = [("h", (q,), ()) for q in range(n)] + gen._random_gates(rng, n, 15)
    matrix = gen._haar_unitary(np.random.default_rng(5), 8)
    return {
        "final": gen._circuit_job(workdir, "final", "run_final", n, final, oracle, 200, 9),
        "branch": gen._circuit_job(workdir, "branch", "run_branching", n, branch, oracle,
                                   100, 10),
        "state": gen._circuit_job(workdir, "state", "run_state", n, state, oracle, 1, 0),
        "dj": gen.dj_job(rng, workdir, "dj", 6, balanced=True),
        "dj_const": gen.dj_job(rng, workdir, "dj_const", 5, balanced=False),
        "bounds": gen._bounds_job(workdir, "bounds", 4, gen._mixed_prime_atoms(rng, 4),
                                  "mixed primes"),
        "decompose": gen._decompose_job(workdir, "decompose", matrix, "haar"),
    }


class CheckerAndAccounting(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        state_dir = run.ROOT / ".perfbench"
        state_dir.mkdir(exist_ok=True)
        cls.workdir = Path(tempfile.mkdtemp(dir=state_dir))
        cls.jobs = _small_jobs(cls.workdir)
        cls.outputs = {}
        for key, job in cls.jobs.items():
            cls.outputs[key] = run.run_pass([job], ketsim_main)["jobs"][0]["text"]

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def doc(self, key: str) -> dict:
        return json.loads(self.outputs[key])

    def rejects(self, key: str, doc: dict) -> None:
        reason = check_output(self.jobs[key].spec, json.dumps(doc))
        self.assertIsNotNone(reason, f"corrupted {key} output passed the checker")

    def test_real_outputs_pass(self):
        for key, text in self.outputs.items():
            self.assertIsNone(check_output(self.jobs[key].spec, text), key)

    def test_histogram_corruptions(self):
        doc = self.doc("final")
        key = next(iter(doc["counts"]))
        moved = dict(doc, counts=dict(doc["counts"]))
        moved["counts"][key] -= 1
        other = next(k for k in (format(i, "06b") for i in range(64))
                     if k not in doc["counts"])
        moved["counts"][other] = 1
        self.rejects("final", moved)
        self.rejects("final", dict(doc, seed=doc["seed"] + 1))
        branch = self.doc("branch")
        self.rejects("branch", dict(branch, counts={next(iter(branch["counts"])): 100}))
        self.rejects("branch", dict(branch, counts={"0" * 8: 100}))

    def test_state_corruption(self):
        doc = self.doc("state")
        doc["final_state"]["amplitudes"][3][0] += 1e-6
        self.rejects("state", doc)

    def test_dj_corruptions(self):
        self.rejects("dj", dict(self.doc("dj"), verdict="Constant"))
        self.rejects("dj", dict(self.doc("dj"), oracle_calls=2))
        self.rejects("dj_const", dict(self.doc("dj_const"), measured_bits="00010"))

    def test_bounds_corruptions(self):
        doc = self.doc("bounds")
        self.rejects("bounds", dict(doc, poincare_union=str(
            Fraction(doc["poincare_union"]) + Fraction(1, 10**12))))
        variants = dict(doc["bonferroni_variants"])
        variants["0101"] = "0"
        self.rejects("bounds", dict(doc, bonferroni_variants=variants))
        self.rejects("bounds", dict(doc, union="1"))

    def test_decompose_corruptions(self):
        doc = self.doc("decompose")
        dropped = dict(doc, factors=doc["factors"][1:], emitted_count=doc["emitted_count"] - 1)
        self.rejects("decompose", dropped)
        self.rejects("decompose", dict(doc, emitted_count=doc["emitted_count"] + 1))
        self.rejects("decompose", dict(doc, recompose_error=1e-3))

    def test_error_document_and_garbage(self):
        self.rejects("final", {"error": {"kind": "InvalidInput", "detail": "x"}})
        self.assertIsNotNone(check_output(self.jobs["final"].spec, "not json"))

    def test_failures_lower_ok_ratio(self):
        jobs = [self.jobs["final"], self.jobs["branch"]]
        warmup = run.run_pass(jobs, ketsim_main)
        clean = run.run_pass(jobs, ketsim_main)
        attempted, failed, _ = run.tally(jobs, warmup, [clean])
        self.assertEqual((attempted, failed), (4, 0))

        # A nonzero exit and a changed digest in a later pass each count once.
        bad = json.loads(json.dumps(clean))
        bad["jobs"][0]["code"] = 1
        bad["jobs"][1]["sha256"] = "0" * 64
        attempted, failed, reasons = run.tally(jobs, warmup, [bad])
        self.assertEqual((attempted, failed), (4, 2), reasons)

        # A wrong warm-up output fails that job in every pass.
        wrong = json.loads(json.dumps(warmup))
        wrong["jobs"][1]["text"] = '{"shots": 100, "seed": 10, "counts": {}}\n'
        attempted, failed, _ = run.tally(jobs, wrong, [clean, clean])
        self.assertEqual((attempted, failed), (6, 3))

        metrics = run.end_to_end("shots", jobs, [clean], [{"seconds": 0.5}], 1.0,
                                 attempted, failed)
        self.assertEqual(metrics["ok_ratio"]["value"], 0.5)


if __name__ == "__main__":
    unittest.main()
