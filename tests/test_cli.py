import hashlib
import json
import math
import os
import platform
import random
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ketsim
import ketsim.cli as cli
from ketsim import RngStream, TruthTable, haar_random_unitary, two_level_decompose
from ketsim.circuit import _data_lines
from ketsim.cli import (
    _bulk_matrix,
    _bulk_truth_table,
    _header,
    _json,
    _read_text,
    _walk_matrix,
    _walk_truth_table,
    exit_code_for,
    load_matrix,
    load_truth_table,
    main,
)
from ketsim.errors import (
    CapacityExceeded,
    DimensionMismatch,
    InvalidInput,
    NotUnitary,
    NumericalFailure,
    ParseError,
    PromiseViolated,
)
from ketsim.text17 import pairs_text
from conftest import OTHER_LINE_BREAKS, first_difference as _first_difference, perfbench_module
from conftest import factor_table, table_unitaries

FIXTURES = Path(__file__).parent / "fixtures"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


class TestRunCommand:
    def test_bell_pair_counts(self, capsys):
        code, payload = run_json(
            capsys, "run", str(FIXTURES / "bell_pair.qc"), "--shots", "10000", "--seed", "7"
        )
        assert code == 0
        assert payload["shots"] == 10000 and payload["seed"] == 7
        assert set(payload["counts"]) == {"00", "11"}
        assert sum(payload["counts"].values()) == 10000

    def test_u2_with_huge_angles(self, capsys, tmp_path):
        # a - d overflows for these angles
        circuit = tmp_path / "u2.qc"
        circuit.write_text("qubits 2\nh 1\nu2 0 a=1e308 b=-1e308 c=1e308 d=-1e308\n")
        code = main(["run", str(circuit)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        amplitudes = json.loads(captured.out)["final_state"]["amplitudes"]
        assert sum(re * re + im * im for re, im in amplitudes) == pytest.approx(1, abs=1e-15)

    def test_oracle_circuit_with_table(self, capsys):
        code, payload = run_json(
            capsys,
            "run",
            str(FIXTURES / "deutsch.qc"),
            "--table",
            f"f={FIXTURES / 'not_gate.tbl'}",
            "--shots",
            "64",
        )
        assert code == 0
        assert payload["counts"] == {"1": 64}  # balanced f measures 1

    def test_stateless_circuit_emits_final_state(self, capsys, tmp_path):
        circuit = tmp_path / "plus.qc"
        circuit.write_text("qubits 1\nh 0\n")
        code, payload = run_json(capsys, "run", str(circuit))
        assert code == 0
        assert payload["final_state"]["ket"] == "0.707107|0> + 0.707107|1>"
        assert payload["final_state"]["amplitudes"][0][0] == pytest.approx(math.sqrt(0.5))

    def test_byte_stable_output(self, capsys):
        argv = ("run", str(FIXTURES / "bell_pair.qc"), "--shots", "500", "--seed", "3")
        _, first = run_cli(capsys, *argv)
        _, second = run_cli(capsys, *argv)
        assert first == second

    def test_parse_error_exit_code(self, capsys):
        code, payload = run_json(capsys, "run", str(FIXTURES / "bad_target.qc"))
        assert code == 1
        assert payload["error"]["kind"] == "ParseError"
        assert "line 2" in payload["error"]["detail"]

    def test_missing_file(self, capsys):
        code, payload = run_json(capsys, "run", str(FIXTURES / "nope.qc"))
        assert code == 1
        assert payload["error"]["kind"] == "InvalidInput"

    @pytest.mark.parametrize(
        "cap, size", [("24", "256"), ("60", str(1 << 44)), ("1100", "2**1084"), ("20000", "2**19984")]
    )
    def test_huge_max_qubits_only_warns(self, capsys, cap, size):
        argv = ["run", str(FIXTURES / "bell_pair.qc"), "--shots", "8", "--max-qubits", cap]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0
        assert json.loads(captured.out)["shots"] == 8
        assert f"--max-qubits {cap} needs up to {size} MiB" in captured.err

    def test_out_of_memory_is_error_document(self, tmp_path):
        # 2**34 amplitudes (256 GiB) asked for in a child process whose own
        # address space is capped at 3 GB
        circuit = tmp_path / "huge.qc"
        circuit.write_text("qubits 34\nh 0\n")
        script = (
            "import resource, sys\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "soft = 3 * 10**9 if hard == resource.RLIM_INFINITY else min(3 * 10**9, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (soft, hard))\n"
            "from ketsim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ketsim.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", script, "run", str(circuit), "--max-qubits", "40"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        error = json.loads(result.stdout)["error"]
        assert error["kind"] == "CapacityExceeded"
        assert error["detail"].startswith("out of memory")

    # end-measured, measured mid-circuit, and measurement-free (whose final
    # state ignores the shot count, which is still checked)
    @pytest.mark.parametrize("text", [
        "qubits 2\nh 0\ncnot 0 1\nmeasure\n",
        "qubits 3\nh 1\ncnot 1 2\ncnot 0 1\nh 0\nmeasure 0 1\nmeasure 2\n",
        "qubits 1\nh 0\n",
    ])
    def test_shots_over_cap_is_one_error_document(self, capsys, tmp_path, text):
        circuit = tmp_path / "circuit.qc"
        circuit.write_text(text)
        start = time.perf_counter()
        code, out = run_cli(capsys, "run", str(circuit), "--shots", "4294967297")
        assert time.perf_counter() - start < 5
        assert code == 1
        assert out == (
            '{"error": {"kind": "CapacityExceeded", '
            '"detail": "shots exceed the cap of 4294967296"}}\n'
        )

    def test_control_characters_escaped_in_error(self, capsys):
        code, payload = run_json(capsys, "run", "no\tsuch\n.qc")
        assert code == 1
        assert "no\tsuch\n.qc" in payload["error"]["detail"]

    def test_max_qubits_cap(self, capsys, tmp_path):
        circuit = tmp_path / "wide.qc"
        circuit.write_text("qubits 8\nx 0\nmeasure\n")
        code, payload = run_json(capsys, "run", str(circuit), "--max-qubits", "4")
        assert code == 1
        assert payload["error"]["kind"] == "CapacityExceeded"


class TestTeleportCommand:
    def test_forced_branch(self, capsys):
        code, payload = run_json(
            capsys, "teleport", "--state", "0.7,0.3", "--branch", "01"
        )
        assert code == 0
        assert (payload["a1"], payload["a2"]) == (0, 1)
        assert payload["equivalent"] is True
        assert set(payload["intermediate"]) == {"psi0", "psi1", "psi2"}

    def test_sampled_branch(self, capsys):
        code, payload = run_json(capsys, "teleport", "--state", "1.1,2.2", "--seed", "5")
        assert code == 0
        assert payload["equivalent"] is True
        for name in ("input_state", "a1", "a2", "bob_state"):
            assert name in payload

    @pytest.mark.parametrize(
        "option, value, digest",
        [
            ("--seed", "5", "b76516872cfe67f7f715affd9d51b3f72f987ff3a9b6bc93a07e2c555b49dfc2"),
            ("--branch", "10", "1a2a2f817e40713c0121f4e4a11cc05bd1667ba4c8bd9b20ba9f2ad9d7ce7d49"),
            # edge seeds and the other branches, recorded while the CLI
            # built the pre-measurement stages a second time
            ("--seed", "0", "b5d1b24d0d64ec2f3ff3170e75ac7875eebd870ecd55cef586deaabdb22accb4"),
            ("--seed", "42", "1a2a2f817e40713c0121f4e4a11cc05bd1667ba4c8bd9b20ba9f2ad9d7ce7d49"),
            ("--seed", str(2**64 - 1),
             "b5d1b24d0d64ec2f3ff3170e75ac7875eebd870ecd55cef586deaabdb22accb4"),
            ("--seed", "-1", "b5d1b24d0d64ec2f3ff3170e75ac7875eebd870ecd55cef586deaabdb22accb4"),
            ("--seed", str(2**70 + 3),
             "1080ae5b292b1e4458e0dd4628c6201a847c7f4fdd683e065d66e30095a26d13"),
            ("--branch", "00", "1080ae5b292b1e4458e0dd4628c6201a847c7f4fdd683e065d66e30095a26d13"),
            ("--branch", "01", "b76516872cfe67f7f715affd9d51b3f72f987ff3a9b6bc93a07e2c555b49dfc2"),
            ("--branch", "11", "b5d1b24d0d64ec2f3ff3170e75ac7875eebd870ecd55cef586deaabdb22accb4"),
        ],
    )
    def test_golden_bytes(self, capsys, option, value, digest):
        # the sampled run prints amplitudes derived from a collapsed state
        code, out = run_cli(capsys, "teleport", "--state", "1.1,2.2", option, value)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_document_depends_only_on_the_branch(self, capsys):
        # a sampled run prints the bytes of the --branch run of the branch it drew
        rng = random.Random(20)
        drawn = set()
        for _ in range(20):
            state = f"{rng.uniform(0, math.pi)!r},{rng.uniform(-math.pi, math.pi)!r}"
            for seed in (0, *(rng.randrange(2**64) for _ in range(4))):
                code, out = run_cli(capsys, "teleport", "--state", state, "--seed", str(seed))
                assert code == 0
                doc = json.loads(out)
                branch = f"{doc['a1']}{doc['a2']}"
                drawn.add(branch)
                forced = run_cli(capsys, "teleport", "--state", state, "--branch", branch)
                assert forced == (0, out)
        assert drawn == {"00", "01", "10", "11"}

    def test_bad_branch(self, capsys):
        code, payload = run_json(
            capsys, "teleport", "--state", "0.7,0.3", "--branch", "012"
        )
        assert code == 1
        assert payload["error"]["kind"] == "InvalidInput"


class TestDeutschJozsaCommand:
    def test_constant_table(self, capsys):
        code, payload = run_json(
            capsys, "deutsch-jozsa", "--table", str(FIXTURES / "const1_n3.tbl")
        )
        assert code == 0
        assert payload["verdict"] == "Constant"
        assert payload["measured_bits"] == "000"
        assert payload["oracle_calls"] == 1
        assert payload["zero_branch_weight"] == pytest.approx(1.0, abs=1e-10)

    def test_balanced_table(self, capsys):
        code, payload = run_json(
            capsys, "deutsch-jozsa", "--table", str(FIXTURES / "balanced_n3.tbl")
        )
        assert code == 0
        assert payload["verdict"] == "Balanced"
        assert payload["measured_bits"] != "000"
        assert payload["oracle_calls"] == 1

    @pytest.mark.parametrize(
        "table, seed, digest",
        [
            # recorded while deutsch-jozsa drew from a scalar RngStream;
            # balanced_n3.tbl (f = x0) has one live pattern, so every seed
            # prints the same document
            *(("balanced_n3.tbl", seed,
               "19f9cfcadb857a451ced9cdf914f7cebf6c57964f3a3975a8cdea25e906ade7c")
              for seed in ("0", "42", str(2**64 - 1), "-1")),
            # f = x0·x1 ^ x2·x3 ^ x4 spreads its weight over sixteen patterns,
            # so the seed picks which one is printed
            ("spread6.tbl", "0", "0e4a1e329c55ca007921fd0de4fc46100905de064943a8d679f6671bc0abe51c"),
            ("spread6.tbl", "1", "078cbbb42542c9bf8d0d42f1d74d2b8a6eddbb76657889c9d2bcc60cd694c343"),
            ("spread6.tbl", "42", "03e8a182097062a2db2b9f7e784c27eb004f78e2ed8d7013d4b0090d26167d9d"),
            ("spread6.tbl", str(2**64 - 1),
             "0e4a1e329c55ca007921fd0de4fc46100905de064943a8d679f6671bc0abe51c"),
            ("spread6.tbl", "-1", "0e4a1e329c55ca007921fd0de4fc46100905de064943a8d679f6671bc0abe51c"),
            ("spread6.tbl", str(2**70 + 3),
             "0e58f4cfc863b8f836389984c3284903a6f54d4a5865ad74e1c3c99cb5801b56"),
        ],
    )
    def test_seed_golden_bytes(self, capsys, tmp_path, table, seed, digest):
        path = FIXTURES / table
        if table == "spread6.tbl":
            path = tmp_path / table
            rows = (f"{x:06b} {((x >> 5) & (x >> 4) ^ (x >> 3) & (x >> 2) ^ (x >> 1)) & 1}\n"
                    for x in range(64))
            path.write_text("n=6\n" + "".join(rows))
        code, out = run_cli(capsys, "deutsch-jozsa", "--table", str(path), "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_arity_below_one_rejected(self, capsys, tmp_path):
        table = tmp_path / "neg.tbl"
        table.write_text("n=-1\n")
        code, payload = run_json(capsys, "deutsch-jozsa", "--table", str(table))
        assert code == 1
        assert payload["error"]["kind"] == "ParseError"
        assert payload["error"]["detail"].startswith("line 1:")

    @pytest.mark.parametrize("pattern", ["0_1", "+01", "\u0661\u0660\u0661"])
    def test_patterns_int_accepts_are_rejected(self, capsys, tmp_path, pattern):
        # int(pattern, 2) accepts underscores, a sign and Unicode digits
        table = tmp_path / "odd.tbl"
        table.write_text(f"n=3\n{pattern} 0\n", encoding="utf-8")
        code, payload = run_json(capsys, "deutsch-jozsa", "--table", str(table))
        assert code == 1
        assert payload["error"]["kind"] == "ParseError"
        assert payload["error"]["detail"] == f"line 2: bad input pattern {pattern!r}"

    @pytest.mark.parametrize(
        "arity, required",
        [(14284, str(1 << 14284)), (14285, "2**14285"), (100000, "2**100000"),
         (10**12, "2**1000000000000")],
        ids=["printable", "past-4300-digits", "huge", "past-memory"],
    )
    @pytest.mark.parametrize("command", ["deutsch-jozsa", "run"])
    def test_huge_arity_is_parse_error(self, capsys, tmp_path, command, arity, required):
        # 2**arity is printed only while Python prints it, and never built
        # when the table's entry count already falls short
        table = tmp_path / "huge.tbl"
        table.write_text(f"n={arity}\n")
        argv = {"deutsch-jozsa": ["deutsch-jozsa", "--table", str(table)],
                "run": ["run", str(FIXTURES / "deutsch.qc"), "--table", f"f={table}"]}[command]
        started = time.perf_counter()
        code, payload = run_json(capsys, *argv)
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert payload["error"] == {
            "kind": "ParseError",
            "detail": f"table lists 0 of {required} required entries",
        }

    def test_promise_violation_exit_code(self, capsys):
        code, payload = run_json(
            capsys, "deutsch-jozsa", "--table", str(FIXTURES / "unbalanced_n2.tbl")
        )
        assert code == 1
        assert payload["error"]["kind"] == "PromiseViolated"


class TestDecomposeCommand:
    def test_hadamard_pair_matrix(self, capsys):
        code, payload = run_json(
            capsys, "decompose", "--matrix", str(FIXTURES / "had2.mat")
        )
        assert code == 0
        assert payload["dim"] == 4
        assert payload["constructed_count"] == 2 * 16 - 4
        assert payload["emitted_count"] == len(payload["factors"])
        assert payload["recompose_error"] <= 1e-8
        for factor in payload["factors"]:
            assert len(factor["support"]) in (1, 2)
            assert len(factor["block"]) == len(factor["support"]) ** 2

    def test_not_unitary_exit_code(self, capsys):
        code, payload = run_json(
            capsys, "decompose", "--matrix", str(FIXTURES / "not_unitary.mat")
        )
        assert code == 1
        assert payload["error"]["kind"] == "NotUnitary"

    def test_huge_entry_not_unitary_without_warning(self, capsys, tmp_path):
        # the entry's square overflowed the Gram product, whose warnings
        # went to stderr (a traceback under -W error)
        matrix = tmp_path / "huge.mat"
        matrix.write_text("d=2\n0.297716686579e174,0 0,0\n0,0 1,0\n")
        code = main(["decompose", "--matrix", str(matrix)])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["error"]["kind"] == "NotUnitary"
        assert captured.err == "ketsim: two_level_decompose requires a unitary matrix\n"

    @pytest.mark.parametrize("name, u", [pytest.param(*case, id=case[0])
                                         for case in table_unitaries()])
    def test_document_equals_reference_of_list(self, capsys, tmp_path, name, u):
        # the table renderer against the per-factor text of the public list
        path = tmp_path / f"{name}.mat"
        path.write_text(perfbench_module("gen").render_matrix(u), encoding="utf-8")
        code, out = run_cli(capsys, "decompose", "--matrix", str(path))
        assert code == 0
        factors = two_level_decompose(load_matrix(str(path)))
        head, _, tail = out.partition(', "factors": ')
        assert _first_difference(tail, _reference_factors(factors) + "}\n") is None
        assert json.loads(head + "}")["emitted_count"] == len(factors)

    @pytest.mark.parametrize("entry", ["1,0", "2,0"], ids=["identity", "not_unitary"])
    def test_dimension_cap(self, capsys, tmp_path, entry):
        dim = 257
        rows = (" ".join(entry if c == r else "0,0" for c in range(dim)) for r in range(dim))
        matrix = tmp_path / "big.mat"
        matrix.write_text(f"d={dim}\n" + "\n".join(rows) + "\n")
        code, payload = run_json(capsys, "decompose", "--matrix", str(matrix))
        assert code == 1
        assert payload["error"]["kind"] == "InvalidInput"
        assert payload["error"]["detail"] == "dimension 257 exceeds the decomposition cap of 256"


class TestBellCommand:
    def test_paper_angles(self, capsys):
        angles = f"{math.pi / 3},{math.pi},0,{2 * math.pi / 3}"
        code, payload = run_json(capsys, "bell", "--angles", angles)
        assert code == 0
        assert payload["value"] == pytest.approx(-1.125, abs=1e-12)
        assert payload["excess"] == pytest.approx(0.125, abs=1e-12)

    def test_stray_argument_with_tab(self, capsys):
        code, payload = run_json(capsys, "bell", "--angles", "0,0,0,0", "x\ty")
        assert code == 1
        assert payload["error"]["kind"] == "InvalidInput"
        assert "x\ty" in payload["error"]["detail"]

    def test_angle_count_checked(self, capsys):
        code, payload = run_json(capsys, "bell", "--angles", "1,2,3")
        assert code == 1
        assert payload["error"]["kind"] == "InvalidInput"

    def test_huge_finite_angles(self, capsys):
        code, payload = run_json(capsys, "bell", "--angles", "1e308,1e308,-1e308,0")
        assert code == 0
        assert math.isfinite(payload["value"]) and math.isfinite(payload["excess"])


class TestBoundsCommand:
    def test_uniform_distribution(self, capsys):
        code, payload = run_json(capsys, "bounds", "--dist", str(FIXTURES / "uniform2.dist"))
        assert code == 0
        assert payload["num_events"] == 2
        assert payload["event_probs"] == ["1/2", "1/2"]
        assert payload["union"] == "3/4"
        assert payload["boole_union"] == {"lower": "1/2", "upper": "1"}
        assert payload["poincare_union"] == "3/4"
        assert payload["bonferroni_lower"] == "3/4"
        assert set(payload["bonferroni_variants"]) == {"01", "10", "11"}

    def test_bad_sum_reports_exact_residual(self, capsys):
        code, payload = run_json(capsys, "bounds", "--dist", str(FIXTURES / "bad_sum.dist"))
        assert code == 1
        assert payload["error"]["kind"] == "InvalidInput"
        assert "1/16" in payload["error"]["detail"]

    def test_mixed_denominators_golden_bytes(self, capsys):
        code, out = run_cli(capsys, "bounds", "--dist", str(FIXTURES / "mixed6.dist"))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "f03268e35548bc3c43eec464d11edf3574940ee7c47a5a07a1c5523b747f659d"
        )

    @pytest.mark.parametrize(
        "text, detail",
        [
            ("1 1e5000\n", "line 1: exponent of '1e5000' exceeds 100"),
            ("0 1\n1 1e-5000\n", "line 2: exponent of '1e-5000' exceeds 100"),
            ("0 1\n1 1e99999999\n", "line 2: exponent of '1e99999999' exceeds 100"),
            ("0 1\n1 " + "1" * 101 + "\n", "line 2: rational exceeds 100 characters"),
            ("000 1\n0_1 0\n", "line 2: bad atom pattern '0_1'"),
            ("000 1\n+01 0\n", "line 2: bad atom pattern '+01'"),
        ],
    )
    def test_out_of_range_rational_rejected(self, capsys, tmp_path, text, detail):
        dist = tmp_path / "huge.dist"
        dist.write_text(text)
        started = time.perf_counter()
        code, payload = run_json(capsys, "bounds", "--dist", str(dist))
        assert time.perf_counter() - started < 1.0
        assert code == 1
        assert payload["error"] == {"kind": "ParseError", "detail": detail}

    def test_oversized_common_denominator_rejected(self, capsys, tmp_path):
        # 128 distinct 41-digit denominators: a common denominator far past 4000 digits
        dist = tmp_path / "coprime.dist"
        dist.write_text("".join(f"{b:07b} 1/{10**40 + b}\n" for b in range(128)))
        code, payload = run_json(capsys, "bounds", "--dist", str(dist))
        assert code == 1
        assert payload["error"] == {
            "kind": "InvalidInput",
            "detail": "common denominator of the atoms exceeds 4000 digits",
        }

    def test_oversized_common_denominator_before_negative_atom(self, capsys, tmp_path):
        # the denominator cap is checked before the atoms' signs
        dist = tmp_path / "negative.dist"
        dist.write_text("".join(f"{b:07b} {'-' * (b == 5)}1/{10**40 + b}\n" for b in range(128)))
        code, payload = run_json(capsys, "bounds", "--dist", str(dist))
        assert code == 1
        assert payload["error"] == {
            "kind": "InvalidInput",
            "detail": "common denominator of the atoms exceeds 4000 digits",
        }

    @pytest.mark.parametrize("width", [11, 40])
    def test_pattern_wider_than_event_cap(self, capsys, tmp_path, width):
        dist = tmp_path / "wide.dist"
        dist.write_text("0" * width + " 1\n")
        code, payload = run_json(capsys, "bounds", "--dist", str(dist))
        assert code == 1
        assert payload["error"]["kind"] == "ParseError"
        assert payload["error"]["detail"].startswith("line 1:")


# (subcommand, file option) of every subcommand that reads an input file
FILE_COMMANDS = [
    ("run", None),
    ("deutsch-jozsa", "--table"),
    ("decompose", "--matrix"),
    ("bounds", "--dist"),
]


class TestInputFiles:
    def test_short_rows_rejected_before_matrix_allocation(self, capsys, tmp_path):
        # a 1.2 MB file whose header asks for a 200000 x 200000 matrix (596 GiB)
        path = tmp_path / "huge.mat"
        path.write_text("d=200000\n" + "1.0,0\n" * 200_000)
        started = time.perf_counter()
        code, out = run_cli(capsys, "decompose", "--matrix", str(path))
        assert time.perf_counter() - started < 2.0
        assert code == 1
        assert out == ('{"error": {"kind": "ParseError", '
                       '"detail": "line 2: row needs 200000 entries, got 1"}}\n')

    @staticmethod
    def _traced(capsys, *argv):
        """``main(argv)``'s exit code, stdout and tracemalloc peak."""
        tracemalloc.start()
        try:
            code = main(list(argv))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return code, capsys.readouterr().out, peak

    @pytest.mark.parametrize("prefix", ["", "# walked\n"], ids=["strict", "walked"])
    def test_oversized_matrix_stops_at_header(self, capsys, tmp_path, prefix):
        # a well-formed D = 600 identity (1.4 MB): parsing its rows, or
        # holding their tokens, would take many times the file's size
        dim = 600
        rows = (" ".join("1,0" if c == r else "0,0" for c in range(dim)) for r in range(dim))
        path = tmp_path / "big.mat"
        path.write_text(f"{prefix}d={dim}\n" + "".join(row + "\n" for row in rows))
        code, out, peak = self._traced(capsys, "decompose", "--matrix", str(path))
        assert code == 1
        assert out == ('{"error": {"kind": "InvalidInput", '
                       '"detail": "dimension 600 exceeds the decomposition cap of 256"}}\n')
        assert peak < 3 * path.stat().st_size

    def test_short_matrix_rows_counted_without_holding_them(self, capsys, tmp_path):
        # too short for the cap check at the header: the walk counts its
        # 200,000 rows, which once took 79 times the file's size
        path = tmp_path / "short.mat"
        path.write_text("# c\nd=5000\n" + "1,0\n" * 200_000)
        code, out, peak = self._traced(capsys, "decompose", "--matrix", str(path))
        assert code == 1
        assert out == ('{"error": {"kind": "ParseError", '
                       '"detail": "line 200002: expected 5000 matrix rows"}}\n')
        assert peak < 3 * path.stat().st_size

    @pytest.mark.parametrize("prefix", ["", "# walked\n"], ids=["strict", "walked"])
    def test_oversized_table_stops_at_header(self, capsys, tmp_path, prefix):
        # a constant arity-20 table (23 MiB), whose oracle needs 21 qubits:
        # only the text and the bytes it was decoded from are held
        bits = (np.arange(1024)[:, None] >> np.arange(9, -1, -1)) & 1
        rows = np.empty((1024, 1024, 23), dtype=np.uint8)
        rows[:, :, :10] = bits[:, None, :] + ord("0")
        rows[:, :, 10:20] = bits[None, :, :] + ord("0")
        rows[:, :, 20:] = np.frombuffer(b" 0\n", dtype=np.uint8)
        path = tmp_path / "big.tbl"
        with open(path, "wb") as fh:
            fh.write(f"{prefix}n=20\n".encode())
            fh.write(rows)
        del rows
        code, out, peak = self._traced(capsys, "deutsch-jozsa", "--table", str(path))
        assert code == 1
        assert out == ('{"error": {"kind": "CapacityExceeded", '
                       '"detail": "21 qubits exceeds the cap of 20"}}\n')
        assert peak < 3 * path.stat().st_size

    @pytest.mark.parametrize("command, option", FILE_COMMANDS)
    def test_non_utf8_file_is_input_error(self, capsys, tmp_path, command, option):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"qubits 1\n\xff\n")
        argv = [command, str(path)] if option is None else [command, option, str(path)]
        code, payload = run_json(capsys, *argv)
        assert code == 1
        assert payload["error"]["kind"] == "InvalidInput"
        assert payload["error"]["detail"].startswith(f"cannot read {path}")

    @pytest.mark.parametrize(
        "command, option, text, detail",
        [
            ("deutsch-jozsa", "--table", "", "line 1: truth table file must start with n=<arity>"),
            ("deutsch-jozsa", "--table", "# c\n\nx=2\n", "line 3: truth table file must"),
            ("deutsch-jozsa", "--table", "# c\nn=1 junk\n0 1\n1 0\n", "line 2: unexpected 'junk'"),
            ("decompose", "--matrix", "", "line 1: matrix file must start with d=<dimension>"),
            ("decompose", "--matrix", "# c\n\nx=2\n", "line 3: matrix file must"),
            ("decompose", "--matrix", "d=1 junk\n1,0\n", "line 1: unexpected 'junk'"),
        ],
    )
    def test_header_errors_name_their_line(self, capsys, tmp_path, command, option, text, detail):
        path = tmp_path / "header.txt"
        path.write_text(text)
        code, payload = run_json(capsys, command, option, str(path))
        assert code == 1
        assert payload["error"]["kind"] == "ParseError"
        assert payload["error"]["detail"].startswith(detail)


# stdout of every fixture through its subcommand, recorded before the line
# reader was shared; had2.mat is left out: its factor bytes depend on
# LAPACK's Schur kernel
FIXTURE_DIGESTS = [
    (["run", "{f}/bell_pair.qc"],
     "1fbfca38b26a492905e7422fe1000e242c90fc8ffbc8c7830ddf26feb40a2719"),
    (["run", "{f}/bad_target.qc"],
     "f6f8a2c5c6b01f7897489df3229288251f7f80d4957467cb5c2c045ef7dbdf52"),
    (["run", "{f}/deutsch.qc", "--table", "f={f}/not_gate.tbl"],
     "a683a001bece481bbc81168d021e706a76f195d51844c4d5855ada525d8bc2ab"),
    (["deutsch-jozsa", "--table", "{f}/not_gate.tbl"],
     "95d10f6114470770b51a6687508629edc435627a3e7edc1dc7c8833710c627a8"),
    (["deutsch-jozsa", "--table", "{f}/balanced_n3.tbl"],
     "19f9cfcadb857a451ced9cdf914f7cebf6c57964f3a3975a8cdea25e906ade7c"),
    (["deutsch-jozsa", "--table", "{f}/const1_n3.tbl"],
     "441ccbab0b8d341b7b21eeea2a71fa0d0a1df2476a11cc3201df0168f7a7b917"),
    (["deutsch-jozsa", "--table", "{f}/unbalanced_n2.tbl"],
     "59c2d1345506d191cd0c23469d75937373417a57bef702bf4263232181e41d57"),
    (["decompose", "--matrix", "{f}/not_unitary.mat"],
     "f970319a3cf6cb1e837cbe56d49bbc2c860345583744880dabb8f9aed0d7e691"),
    (["bounds", "--dist", "{f}/bad_sum.dist"],
     "f2064b328882b5a2e1d5a3267b5d56d6293b65eaa82b97606ea18c0082d96e17"),
    (["bounds", "--dist", "{f}/mixed6.dist"],
     "f03268e35548bc3c43eec464d11edf3574940ee7c47a5a07a1c5523b747f659d"),
    (["bounds", "--dist", "{f}/uniform2.dist"],
     "e973d72140bf63e922b3f283bc26df6f023d29d71fc9cd8fe618d3cbea98fdc6"),
    # seed 0 draws branch 11, so the sampled and forced runs print the same
    # document; the sampled bob_state once carried a second rounding
    (["teleport", "--state", "0.1,0", "--seed", "0"],
     "e2f7f7513b8e16506e20dbb560d619468922f66b12c6c1cdbd0510134cc11499"),
    (["teleport", "--state", "0.1,0", "--branch", "11"],
     "e2f7f7513b8e16506e20dbb560d619468922f66b12c6c1cdbd0510134cc11499"),
    (["bell", "--angles", "1.0471975511965976,3.141592653589793,0,2.0943951023931953"],
     "5cc0c537e56a1e292df1c87b95f856a0339bddda3e9ebb044f12763c20e63fcd"),
    # recorded before states were rendered in bulk chunks: a state of
    # sixteen ket chunks and sixteen amplitude chunks (see the file's
    # header), and a signed zero, which the gate kernels never produce, in
    # the teleported input
    (["run", "{f}/render16.qc"],
     "b684b22f9bc75500d38908771541f2bd9598347f81556a5287283fa8c28a80d2"),
    (["teleport", "--state", "0,3.141592653589793"],
     "0a7c6f5e8cb313c630a21ad2c8b587f6f276775fa90bef077342318947c2353b"),
]


def _fixture_id(argv):
    """The name of the row's first fixture file, else its whole command line."""
    return next((Path(a).name for a in argv if "{f}" in a), " ".join(argv))

# (subcommand, file text, error kind, detail) of malformed input files.  The
# rows marked "changed" differ from the earlier reader: integers are ASCII
# digits with an optional "-", and a matrix dimension below 1 is a header
# error; every other document is byte-identical to it.  The rows marked
# "ascii" were accepted (or, for '1_0,0', rejected as not unitary) before
# numbers were held to ASCII text without "_" separators.  The rows marked
# "finite" passed the parser before a u2 angle had to be finite; ``run`` then
# failed with InvalidInput "u2 parameters must be finite" and no line number.
MALFORMED = [
    ("run", "", "InvalidInput", "program declares no qubits"),
    ("run", "# c\n\n", "InvalidInput", "program declares no qubits"),
    ("run", "qubits 2\nqubits 2\n", "ParseError", "line 2: duplicate qubits directive"),
    ("run", "h 0\nqubits 2\n", "ParseError", "line 2: qubits directive must precede instructions"),
    ("run", "qubits\n", "ParseError", "line 1: qubits directive takes one integer"),
    ("run", "qubits 1 2\n", "ParseError", "line 1: qubits directive takes one integer"),
    ("run", "qubits x\n", "ParseError", "line 1: expected a qubit index, got 'x'"),
    ("run", "qubits -2\nh 0\n", "ParseError", "line 1: qubit index must be nonnegative, got -2"),
    ("run", "h 0\nmeasure\nh 0\n",
     "ParseError", "line 3: full-register measure on line 2 must be last"),
    ("run", "u2\n", "ParseError", "line 1: u2 needs a target qubit"),
    ("run", "u2 0 a=1 b=2 c=3\n", "ParseError", "line 1: u2 is missing parameters: d"),
    ("run", "u2 0 a=1 a=2 b=1 c=1 d=1\n", "ParseError", "line 1: duplicate u2 parameter 'a'"),
    ("run", "u2 0 a=x b=0 c=0 d=0\n", "ParseError", "line 1: bad angle for 'a': 'x'"),
    ("run", "u2 0 a=inf b=0 c=0 d=0\n",
     "ParseError", "line 1: bad angle for 'a': 'inf'"),  # finite
    ("run", "u2 0 a=0 b=nan c=0 d=0\n",
     "ParseError", "line 1: bad angle for 'b': 'nan'"),  # finite
    ("run", "u2 0 a=0 b=0 c=0 d=-1e999\n",
     "ParseError", "line 1: bad angle for 'd': '-1e999'"),  # finite
    ("run", "u2 0 e=1\n", "ParseError", "line 1: expected a=.. b=.. c=.. d=.., got 'e=1'"),
    ("run", "cnot 0\n", "ParseError", "line 1: cnot takes 2 target(s), got 1"),
    ("run", "cnot 0 0\n", "ParseError", "line 1: duplicate target qubit"),
    ("run", "h -1\n", "ParseError", "line 1: qubit index must be nonnegative, got -1"),
    ("run", "h q\n", "ParseError", "line 1: expected a qubit index, got 'q'"),
    ("run", "foo 0\n", "ParseError", "line 1: unknown opcode 'foo'"),
    ("run", "oracle\n", "ParseError", "line 1: oracle needs a table name and targets"),
    ("run", "oracle g 0 1\n", "ParseError", "line 1: unknown truth table 'g'"),
    ("run", "qubits 1\nh 0 # c\n\nh 1\n",
     "ParseError", "line 4: target 1 out of range for 1 qubits"),
    ("run", "qubits 1_0\nh 0\n",
     "ParseError", "line 1: expected a qubit index, got '1_0'"),  # changed
    ("run", "h 1_0\n", "ParseError", "line 1: expected a qubit index, got '1_0'"),  # changed
    ("run", "h \uff11\n", "ParseError", "line 1: expected a qubit index, got '\uff11'"),  # changed
    ("run", "h +1\n", "ParseError", "line 1: expected a qubit index, got '+1'"),  # changed
    ("run", "qubits 1\nu2 0 a=1_0 b=0 c=0 d=0\n",
     "ParseError", "line 2: bad angle for 'a': '1_0'"),  # ascii
    ("run", "u2 0 a=0 b=\u0661 c=0 d=0\n",
     "ParseError", "line 1: bad angle for 'b': '\u0661'"),  # ascii
    ("deutsch-jozsa", "", "ParseError", "line 1: truth table file must start with n=<arity>"),
    ("deutsch-jozsa", "# c\n\nx=2\n",
     "ParseError", "line 3: truth table file must start with n=<arity>"),
    ("deutsch-jozsa", "# c\nn=1 junk\n0 1\n1 0\n",
     "ParseError", "line 2: unexpected 'junk' after 'n=1'"),
    ("deutsch-jozsa", "n=x\n", "ParseError", "line 1: bad arity 'n=x'"),
    ("deutsch-jozsa", "n=-1\n", "ParseError", "line 1: arity must be at least 1, got -1"),
    ("deutsch-jozsa", "n=0\n0 1\n", "ParseError", "line 1: arity must be at least 1, got 0"),
    ("deutsch-jozsa", "n=2\n00 0\n01\n", "ParseError", "line 3: expected '<bits> <value>'"),
    ("deutsch-jozsa", "n=2\n0 0\n", "ParseError", "line 2: bad input pattern '0'"),
    ("deutsch-jozsa", "n=2\n00 2\n", "ParseError", "line 2: bad output value '2'"),
    ("deutsch-jozsa", "n=2\n00 0\n00 1\n", "ParseError", "line 3: duplicate entry for '00'"),
    ("deutsch-jozsa", "n=2\n00 0\n01 1\n", "ParseError", "table lists 2 of 4 required entries"),
    ("deutsch-jozsa", "n=1_0\n", "ParseError", "line 1: bad arity 'n=1_0'"),  # changed
    ("deutsch-jozsa", "n=+3\n", "ParseError", "line 1: bad arity 'n=+3'"),  # changed
    ("deutsch-jozsa", "n=\u0661\n0 0\n1 0\n",
     "ParseError", "line 1: bad arity 'n=\u0661'"),  # changed
    ("decompose", "", "ParseError", "line 1: matrix file must start with d=<dimension>"),
    ("decompose", "# c\n\nx=2\n",
     "ParseError", "line 3: matrix file must start with d=<dimension>"),
    ("decompose", "d=1 junk\n1,0\n", "ParseError", "line 1: unexpected 'junk' after 'd=1'"),
    ("decompose", "d=x\n", "ParseError", "line 1: bad dimension 'd=x'"),
    ("decompose", "# c\nd=2\n", "ParseError", "line 2: expected 2 matrix rows"),
    ("decompose", "d=2\n1,0 0,0\n", "ParseError", "line 2: expected 2 matrix rows"),
    ("decompose", "d=1\n1,0\n\n1,0 # c\n", "ParseError", "line 4: expected 1 matrix rows"),
    ("decompose", "d=2\n1,0\n0,0 1,0\n", "ParseError", "line 2: row needs 2 entries, got 1"),
    ("decompose", "d=1\n1\n", "ParseError", "line 2: entries are 're,im', got '1'"),
    ("decompose", "d=1\nx,0\n", "ParseError", "line 2: bad complex entry 'x,0'"),
    ("decompose", "d=0\n", "ParseError", "line 1: dimension must be at least 1, got 0"),  # changed
    ("decompose", "# c\nd=-3\n1,0\n",
     "ParseError", "line 2: dimension must be at least 1, got -3"),  # changed
    ("decompose", "d=1_6\n", "ParseError", "line 1: bad dimension 'd=1_6'"),  # changed
    ("decompose", "d=1\n1_0,0\n", "ParseError", "line 2: bad complex entry '1_0,0'"),  # ascii
    ("decompose", "d=1\n1,\uff10\n",
     "ParseError", "line 2: bad complex entry '1,\uff10'"),  # ascii
    ("bounds", "# c\n", "ParseError", "distribution file is empty"),
    ("bounds", "0 1/2\n1 1/2 x\n", "ParseError", "line 2: expected '<bits> <rational>'"),
    ("bounds", "0 1/2\n11 1/2\n", "ParseError", "line 2: bad atom pattern '11'"),
    ("bounds", "0 1/2\n0 1/2\n", "ParseError", "line 2: duplicate atom '0'"),
    ("bounds", "0 x\n1 1\n", "ParseError", "line 1: bad rational 'x'"),
    ("bounds", "0 1/0\n", "ParseError", "line 1: bad rational '1/0'"),
    ("bounds", "0 1/2\n1 1/4\n",
     "InvalidInput", "atom probabilities must sum to 1 exactly; residual -1/4"),
    ("bounds", "00000000000 1\n",
     "ParseError", "line 1: atom pattern of 11 events exceeds the cap of 10"),
    ("bounds", "0 1\n1 1e-5000\n", "ParseError", "line 2: exponent of '1e-5000' exceeds 100"),
    ("bounds", "0 \u0661/\u0662\n1 1/2\n",
     "ParseError", "line 1: bad rational '\u0661/\u0662'"),  # ascii
    ("bounds", "0 1_0/2_0\n1 1/2\n", "ParseError", "line 1: bad rational '1_0/2_0'"),  # ascii
    ("bounds", "0 1/2\n1 5e-0_1\n", "ParseError", "line 2: bad rational '5e-0_1'"),  # ascii
    ("bounds", "0 1/2\n1 5e-\u0661\n", "ParseError", "line 2: bad rational '5e-\u0661'"),  # ascii
    # A "#" comment holding a line break other than "\n".  The rows marked
    # "break" changed: the earlier reader also ended a line there, parsed the
    # comment's tail ("h 0", "0 1") and numbered each later line one higher.
    *(("run", f"qubits 1\n# a{c}h 0\nh 5\n",
       "ParseError", "line 3: target 5 out of range for 1 qubits")  # break
      for c in OTHER_LINE_BREAKS),
    *(("deutsch-jozsa", f"n=1\n# a{c}0 1\n0 1\n1 2\n",
       "ParseError", "line 4: bad output value '2'")  # break
      for c in OTHER_LINE_BREAKS),
    # Files with "\r" line ends alone.  The rows marked "cr" changed: files
    # were read with universal newlines, which ended a line at each "\r".
    ("run", "qubits 1\rh 5\r",
     "ParseError", "line 1: qubits directive takes one integer"),  # cr
    ("deutsch-jozsa", "n=1\r0 1\r1 2\r", "ParseError", "line 1: unexpected '0' after 'n=1'"),  # cr
    ("decompose", "d=1\r1,0\r", "ParseError", "line 1: unexpected '1,0' after 'd=1'"),  # cr
    ("bounds", "0 1/2\r1 1/2\r", "ParseError", "line 1: expected '<bits> <rational>'"),  # cr
]


class TestGoldenBytes:
    @pytest.mark.parametrize(
        "argv, digest", FIXTURE_DIGESTS,
        ids=[_fixture_id(argv) for argv, _ in FIXTURE_DIGESTS],
    )
    def test_fixture(self, capsys, argv, digest):
        _, out = run_cli(capsys, *(a.format(f=FIXTURES) for a in argv))
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("command, text, kind, detail", MALFORMED)
    def test_malformed_input(self, capsys, tmp_path, command, text, kind, detail):
        path = tmp_path / "input.txt"
        path.write_text(text, encoding="utf-8")
        option = dict(FILE_COMMANDS)[command]
        argv = [command, str(path)] if option is None else [command, option, str(path)]
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert out == f'{{"error": {{"kind": "{kind}", "detail": "{detail}"}}}}\n'

    # numbers given as options, accepted before they were held to ASCII
    # text without "_" separators
    @pytest.mark.parametrize("argv, detail", [
        (["teleport", "--state", "1_0,0"], "bad number in --state: '1_0,0'"),
        (["teleport", "--state", "0.5,\u0661"], "bad number in --state: '0.5,\u0661'"),
        (["bell", "--angles", "0,0,0,1_0"], "bad number in --angles: '0,0,0,1_0'"),
        (["bell", "--angles", "0,\uff10,0,0"], "bad number in --angles: '0,\uff10,0,0'"),
        # --table names, checked before any file is read: none of these files exists
        (["run", "missing.qc", "--table", "f=a.tbl", "--table", "f=b.tbl"],
         "--table NAME 'f' given more than once"),
        (["run", "missing.qc", "--table", "=a.tbl"], "--table expects NAME=FILE, got '=a.tbl'"),
    ])
    def test_malformed_argument(self, capsys, argv, detail):
        code, out = run_cli(capsys, *argv)
        assert code == 1
        assert out == f'{{"error": {{"kind": "InvalidInput", "detail": "{detail}"}}}}\n'


class TestLazyReader:
    def test_table_not_held_as_token_lists(self, tmp_path):
        # an arity-14 table; a list of (line, tokens) for the whole file
        # costs over 20 times the file's size
        arity = 14
        path = tmp_path / "wide.tbl"
        path.write_text(
            f"n={arity}\n" + "".join(f"{x:0{arity}b} {x & 1}\n" for x in range(1 << arity))
        )
        tracemalloc.start()
        try:
            table = load_truth_table(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.is_balanced()
        assert peak < 15 * path.stat().st_size

    @staticmethod
    def _peak_ratio(load, path, **kwargs) -> float:
        """The tracemalloc peak of ``load(path, **kwargs)`` per file byte."""
        tracemalloc.start()
        try:
            load(str(path), **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / path.stat().st_size

    def test_strict_matrix_peak(self, tmp_path):
        # twice the file's size is the bytes read and the text decoded from them
        path = tmp_path / "haar128.mat"
        u = haar_random_unitary(128, RngStream(128))
        path.write_text(perfbench_module("gen").render_matrix(u), encoding="utf-8")
        assert self._peak_ratio(load_matrix, path) < 2.75

    @pytest.mark.parametrize("qubit_cap", [20, None])
    def test_strict_capped_table_peak(self, tmp_path, qubit_cap):
        # the deutsch-jozsa load, with the cap, and the run --table one
        gen = perfbench_module("gen")
        path = tmp_path / "balanced17.tbl"
        outputs = gen._random_table(random.Random(17), 17, balanced=True)
        path.write_text(gen.render_table(17, outputs), encoding="utf-8")
        assert self._peak_ratio(load_truth_table, path, qubit_cap=qubit_cap) < 2.5


def _strict_table(arity: int, outputs, order) -> str:
    """A table file in the strict layout, its rows in the given order."""
    return f"n={arity}\n" + "".join(f"{x:0{arity}b} {outputs[x]}\n" for x in order)


def _walked_table(text: str) -> TruthTable:
    """The line walk alone: the header, then the walk gone on from past it."""
    lines = _data_lines(text)
    return _walk_truth_table(lines, _header(next(lines, None), "truth table file", "n", "arity"))


def _table_in_bulk(text: str) -> TruthTable | None:
    """``_bulk_truth_table`` of ``text`` given its header's arity; None if
    the header is one the walk rejects."""
    try:
        arity = _header(next(_data_lines(text), None), "truth table file", "n", "arity")
    except ParseError:
        return None
    return _bulk_truth_table(text, arity)


def _table_outcome(load, arg):
    """``load(arg)``'s table, or its ParseError's message and line."""
    try:
        return load(arg)
    except ParseError as exc:
        return str(exc), exc.line


def _small_table(rng: random.Random, arity: int = 3) -> tuple[list[int], list[int]]:
    """Seeded outputs of a balanced table and a shuffled row order."""
    outputs = [0, 1] * (1 << arity - 1)
    rng.shuffle(outputs)
    order = list(range(1 << arity))
    rng.shuffle(order)
    return outputs, order


def _irregular_tables() -> list[str]:
    """Valid table files that are not in the strict layout."""
    outputs, order = _small_table(random.Random("irregular"))
    rows = [f"{x:03b} {outputs[x]}" for x in order]
    return [
        "# a comment\nn=3\n" + "".join(r + "\n" for r in rows),
        "n=3 # arity\n" + "".join(r + " # row\n" for r in rows),
        "n=3\r\n" + "".join(r + "\r\n" for r in rows),
        "n=3\n" + "".join(r.replace(" ", "\t") + "\n" for r in rows),
        "n=3\n\n" + "\n\n".join(rows) + "\n\n",
        "n=3\n" + "\n".join(rows),
        "n=3\n" + "".join("  " + r + "  \n" for r in rows),
        "n=003\n" + "".join(r + "\n" for r in rows),
        "n=03\n" + "".join(r + "\n" for r in rows),
        "\nn=3\n" + "".join(r + "\n" for r in rows),
    ]


def _broken_tables() -> list[str]:
    """Table files that the walk rejects, most of them one fault away from
    the strict layout."""
    outputs, order = _small_table(random.Random("broken"))
    rows = [f"{x:03b} {outputs[x]}\n" for x in order]
    faults = [
        rows[:-1] + [rows[0]],                       # a duplicate row
        rows[:-1],                                   # a missing row
        rows + [rows[0]],                            # one row too many
        [rows[0].replace("\n", " 1\n")] + rows[1:],  # an extra token
        [rows[0][:4] + "2\n"] + rows[1:],            # a 2 value
        [rows[0][1:]] + rows[1:],                    # a pattern too short
        ["0" + rows[0]] + rows[1:],                  # a pattern too long
        ["0" + rows[0], rows[1][1:]] + rows[2:],     # too long, then too short
    ]
    return ["n=3\n" + "".join(r) for r in faults] + [
        "n=0\n 0\n",  # arity 0, in rows of the strict width
        "n=3\n",
        "n=x\n" + "".join(rows),
        "n=3 x\n" + "".join(rows),
        "n=\u0663\n" + "".join(rows),
    ]


def _replaced_characters() -> list[str]:
    """A strict-layout table with one character of its first row replaced by
    a non-ASCII digit, a control character or Unicode whitespace."""
    outputs, order = _small_table(random.Random("replaced"))
    text = _strict_table(3, outputs, order)
    chars = ("\u0661", "\x00", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028")
    # the first row's first bit, separator and value
    return [text[:at] + char + text[at + 1:] for char in chars for at in (4, 7, 8)]


class TestBulkTable:
    """``load_truth_table`` decodes strict-layout files in bulk and walks all
    others; either way it must give what the line walk alone gives."""

    @staticmethod
    def _differential(tmp_path, text):
        path = tmp_path / "t.tbl"
        path.write_text(text, encoding="utf-8")
        loaded = _table_outcome(load_truth_table, str(path))
        walked = _table_outcome(_walked_table, _read_text(str(path)))
        assert loaded == walked
        if isinstance(loaded, TruthTable):
            assert type(loaded.outputs) is type(walked.outputs) is bytes
        return loaded

    @pytest.mark.parametrize("arity", range(1, 13))
    @pytest.mark.parametrize("kind", ["constant", "balanced", "random"])
    def test_well_formed(self, tmp_path, arity, kind):
        rng = random.Random(f"bulk:{kind}:{arity}")
        size = 1 << arity
        if kind == "constant":
            outputs = [rng.randrange(2)] * size
        elif kind == "balanced":
            outputs = [0, 1] * (size // 2)
            rng.shuffle(outputs)
        else:
            outputs = [rng.randrange(2) for _ in range(size)]
        shuffled = list(range(size))
        rng.shuffle(shuffled)
        for order in (range(size), shuffled):
            text = _strict_table(arity, outputs, order)
            assert self._differential(tmp_path, text) == TruthTable(arity, tuple(outputs))
        # rows out of index order are walked
        assert _table_in_bulk(_strict_table(arity, outputs, range(size))) is not None

    @pytest.mark.parametrize("text", _irregular_tables())
    def test_irregular_but_valid(self, tmp_path, text):
        assert isinstance(self._differential(tmp_path, text), TruthTable)
        assert _table_in_bulk(text) is None

    @pytest.mark.parametrize("text", _broken_tables())
    def test_broken(self, tmp_path, text):
        assert not isinstance(self._differential(tmp_path, text), TruthTable)
        assert _table_in_bulk(text) is None

    @pytest.mark.parametrize("text", _replaced_characters())
    def test_replaced_character(self, tmp_path, text):
        # some of these are valid: str.split() takes "\xa0" for a space
        self._differential(tmp_path, text)
        assert _table_in_bulk(text) is None

    def test_generated_layout_is_decoded_in_bulk(self, tmp_path, monkeypatch):
        gen = perfbench_module("gen")
        outputs = gen._random_table(random.Random(7), 10, balanced=True)
        path = tmp_path / "gen.tbl"
        path.write_text(gen.render_table(10, outputs), encoding="utf-8")
        walks = []
        monkeypatch.setattr(
            cli, "_walk_truth_table", lambda *args: walks.append(1) or _walk_truth_table(*args)
        )
        assert load_truth_table(str(path)) == TruthTable(10, tuple(outputs))
        assert walks == []
        path.write_text("# generated\n" + gen.render_table(10, outputs), encoding="utf-8")
        assert load_truth_table(str(path)) == TruthTable(10, tuple(outputs))
        assert walks == [1]
        # CRLF line ends reach the loader as written, and are walked
        path.write_bytes(gen.render_table(10, outputs).replace("\n", "\r\n").encode())
        assert load_truth_table(str(path)) == TruthTable(10, tuple(outputs))
        assert walks == [1, 1]


def _walked_matrix(text: str) -> np.ndarray:
    """The line walk alone: the header, then the walk gone on from past it,
    every row kept."""
    lines = _data_lines(text)
    head = next(lines, None)
    return _walk_matrix(lines, head, _header(head, "matrix file", "d", "dimension"), keep=True)


def _matrix_in_bulk(text: str) -> np.ndarray | None:
    """``_bulk_matrix`` of ``text`` given its header's D; None if the
    header is one the walk rejects."""
    try:
        dim = _header(next(_data_lines(text), None), "matrix file", "d", "dimension")
    except ParseError:
        return None
    return _bulk_matrix(text, dim)


def _matrix_outcome(load, arg):
    """``load(arg)``'s matrix as bytes, or its ParseError's message and line."""
    try:
        return load(arg).tobytes()
    except ParseError as exc:
        return str(exc), exc.line


def _strict_matrix(m: np.ndarray) -> str:
    """A matrix file in the strict layout, each part as its ``repr``."""
    rows = (" ".join(f"{float(v.real)!r},{float(v.imag)!r}" for v in row) for row in m)
    return f"d={m.shape[0]}\n" + "".join(row + "\n" for row in rows)


# parts the walk takes as floats: signed zeros, subnormals, infinities,
# NaN, exponents, signs and bare points
SPECIAL_PARTS = ["-0.0", "0", "-0", "5e-324", "-4.9406564584124654e-324", "2.2250738585072009e-308",
                 "inf", "-inf", "Infinity", "-INF", "nan", "1e308", "1E-5", "+1.5", ".5", "-2.",
                 "0.1", "1e-400", "1e400", "00.25", "0x1"]


def _special_matrices() -> list[str]:
    """Strict-layout files whose parts are drawn from SPECIAL_PARTS (and one
    part the walk rejects, "0x1")."""
    rng = random.Random("special")
    out = []
    for dim in (1, 2, 3, 5):
        for _ in range(4):
            rows = [" ".join(f"{rng.choice(SPECIAL_PARTS[:-1])},{rng.choice(SPECIAL_PARTS[:-1])}"
                             for _ in range(dim)) for _ in range(dim)]
            out.append(f"d={dim}\n" + "".join(r + "\n" for r in rows))
    out.append("d=2\n1,0 0,0\n0,0x1 1,0\n")
    return out


def _irregular_matrices() -> list[str]:
    """Valid matrix files that are not in the strict layout."""
    rows = ["1,0 0,-0.0", "-0.0,0 0,1"]
    return [
        "# a comment\nd=2\n" + "".join(r + "\n" for r in rows),
        "d=2 # dimension\n" + "".join(r + " # row\n" for r in rows),
        "d=2\r\n" + "".join(r + "\r\n" for r in rows),
        "d=2\n" + "".join(r.replace(" ", "\t") + "\n" for r in rows),
        "d=2\n" + "".join(r.replace(" ", "  ") + "\n" for r in rows),
        "d=2\n\n" + "\n\n".join(rows) + "\n\n",
        "d=2\n" + "\n".join(rows),
        "d=2\n" + "".join("  " + r + " \n" for r in rows),
        "d=0000002\n" + "".join(r + "\n" for r in rows),
        "d=007" + _strict_matrix(np.eye(7)).removeprefix("d=7"),
        "\nd=2\n" + "".join(r + "\n" for r in rows),
        "d=2\n1,0 0,0\x0b\n0,0 1,0\n",
        "d=2\n1,0 0,0\n0,0\xa01,0\n",
    ]


def _broken_matrices() -> list[str]:
    """Matrix files that the walk rejects, most of them one fault away from
    the strict layout."""
    rows = ["1,0 0,0\n", "0,0 1,0\n"]
    faults = [
        rows[:1],                                  # a missing row
        rows + rows[:1],                           # one row too many
        ["1,0 0,0 0,0\n", "0,0\n"],                # three entries, then one
        ["1,0,0 0\n", rows[1]],                    # two commas, then none
        ["1,0 0\n", rows[1]],                      # an entry without a comma
        [",0 0,0\n", rows[1]],                     # an empty real part
        ["1, 0,0\n", rows[1]],                     # an empty imaginary part
        ["1,0 0,0,\n", rows[1]],                   # a trailing comma
        ["1,0 x,0\n", rows[1]],                    # not a number
        ["1,0 0_0,0\n", rows[1]],                  # a "_" separator
        ["1,0 0,\u0661\n", rows[1]],               # a non-ASCII digit
        ["1,0 0,0 # c\n", "0,0\n"],                # a comment hiding an entry
    ]
    return ["d=2\n" + "".join(r) for r in faults] + [
        "d=0\n",
        "d=0\n\n",
        "d=-1\n1,0\n",
        "d=x\n1,0\n",
        "d=1 1,0\n",
        "d=999999\n1,0\n",
        "d=1\n1,0\n1,0",
        "d=1\n1,0\n5",
        "d=1_0\n",
        "d=\u0661\n1,0\n",
    ]


class TestBulkMatrix:
    """``load_matrix`` parses strict-layout files in one pass and walks all
    others; either way it must give what the line walk alone gives."""

    @staticmethod
    def _differential(tmp_path, text):
        path = tmp_path / "m.mat"
        path.write_text(text, encoding="utf-8")
        loaded = _matrix_outcome(load_matrix, str(path))
        walked = _matrix_outcome(_walked_matrix, _read_text(str(path)))
        assert loaded == walked
        return loaded

    @pytest.mark.parametrize("dim", [1, 2, 3, 7, 16, 64])
    def test_haar_bits(self, tmp_path, dim):
        u = haar_random_unitary(dim, RngStream(dim))
        text = _strict_matrix(u)
        assert _matrix_in_bulk(text) is not None
        assert self._differential(tmp_path, text) == u.tobytes()

    @pytest.mark.parametrize("text", _special_matrices())
    def test_special_parts(self, tmp_path, text):
        self._differential(tmp_path, text)
        assert (_matrix_in_bulk(text) is None) == ("0x1" in text)

    @pytest.mark.parametrize("text", _irregular_matrices())
    def test_irregular_but_valid(self, tmp_path, text):
        assert isinstance(self._differential(tmp_path, text), bytes)
        assert _matrix_in_bulk(text) is None

    @pytest.mark.parametrize("text", _broken_matrices())
    def test_broken(self, tmp_path, text):
        assert not isinstance(self._differential(tmp_path, text), bytes)
        assert _matrix_in_bulk(text) is None

    @pytest.mark.parametrize("dim", [999_999, 1000])
    def test_false_header_builds_nothing(self, dim):
        # 1000 rows of one entry: a matrix of 10**12 entries, or a separator
        # pattern of 2*D**2 bytes (2 MB at D = 1000), would be built in vain
        text = f"d={dim}\n" + "1,0\n" * 1000
        tracemalloc.start()
        try:
            assert _matrix_in_bulk(text) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_generated_layout_is_parsed_in_bulk(self, tmp_path, monkeypatch):
        gen = perfbench_module("gen")
        u = haar_random_unitary(8, RngStream(8))
        path = tmp_path / "gen.mat"
        path.write_text(gen.render_matrix(u), encoding="utf-8")
        walks = []
        monkeypatch.setattr(
            cli, "_walk_matrix", lambda *args, **kw: walks.append(1) or _walk_matrix(*args, **kw)
        )
        assert load_matrix(str(path)).tobytes() == u.tobytes()
        assert walks == []
        path.write_text("# generated\n" + gen.render_matrix(u), encoding="utf-8")
        assert load_matrix(str(path)).tobytes() == u.tobytes()
        assert walks == [1]


class TestOneWalkPerFile:
    """Each loader reads its header from the first line of one line walk
    and, when the strict layout does not take the file, goes on with it."""

    @staticmethod
    def _walks(monkeypatch, load, path, **kwargs):
        """``load(path, **kwargs)`` and the number of line walks it began."""
        walks = []
        monkeypatch.setattr(cli, "_data_lines", lambda text: walks.append(1) or _data_lines(text))
        return load(str(path), **kwargs), len(walks)

    @pytest.mark.parametrize("prefix", ["", "# comment\n"], ids=["strict", "walked"])
    def test_matrix(self, tmp_path, monkeypatch, prefix):
        u = haar_random_unitary(8, RngStream(8))
        path = tmp_path / "m.mat"
        path.write_text(prefix + perfbench_module("gen").render_matrix(u), encoding="utf-8")
        matrix, walks = self._walks(monkeypatch, load_matrix, path)
        assert matrix.tobytes() == u.tobytes()
        assert walks == 1

    @pytest.mark.parametrize("cap", [None, 20], ids=["uncapped", "capped"])
    @pytest.mark.parametrize("prefix", ["", "# comment\n"], ids=["strict", "walked"])
    def test_table(self, tmp_path, monkeypatch, prefix, cap):
        gen = perfbench_module("gen")
        outputs = gen._random_table(random.Random(6), 6, balanced=True)
        path = tmp_path / "t.tbl"
        path.write_text(prefix + gen.render_table(6, outputs), encoding="utf-8")
        table, walks = self._walks(monkeypatch, load_truth_table, path, qubit_cap=cap)
        assert table == TruthTable(6, tuple(outputs))
        assert walks == 1


def _text(value) -> str:
    return "".join(_json(value))


def _reference_pairs(a: np.ndarray) -> str:
    """The per-pair f-string loop that the bulk pair formatter replaced."""
    return "[" + ", ".join(f"[{v.real:.17g}, {v.imag:.17g}]" for v in a.reshape(-1)) + "]"


def _reference_factors(factors) -> str:
    """The per-factor renderer that the chunked factor renderer replaced."""
    return "[" + ", ".join(
        f'{{"support": [{", ".join(map(str, f.support))}], "block": {_reference_pairs(f.block)}}}'
        for f in factors
    ) + "]"


#: A factor chunk smaller than ``cli.FACTOR_CHUNK``: every factor list is
#: also rendered in chunks of this many factors, so that short lists cross
#: chunk boundaries too.
SMALL_FACTOR_CHUNK = 256


def _factor_lists():
    """Decompositions of seeded Haar unitaries of D = 2 to 128 and of
    block-diagonal unitaries, and lists on either side of one and of two
    chunks: of ``SMALL_FACTOR_CHUNK`` factors (``haar64[:n]``) and of
    ``cli.FACTOR_CHUNK`` factors (``haar128[:n]``)."""
    rng = RngStream(64)
    haar = {}
    for dim in (2, 3, 5, 8, 23, 24, 64, 128):
        haar[dim] = two_level_decompose(haar_random_unitary(dim, rng))
        yield f"haar{dim}", haar[dim]
    for dim, block in ((16, 4), (128, 4), (96, 2)):
        u = np.zeros((dim, dim), dtype=np.complex128)
        for start in range(0, dim, block):
            u[start:start + block, start:start + block] = haar_random_unitary(block, rng)
        yield f"blockdiag{dim}x{block}", two_level_decompose(u)
    many = two_level_decompose(haar_random_unitary(64, rng))
    chunk = SMALL_FACTOR_CHUNK
    for count in (chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1):
        yield f"haar64[:{count}]", many[:count]
    chunk = cli.FACTOR_CHUNK
    assert 2 * chunk + 1 < len(haar[128])
    for count in (chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1):
        yield f"haar128[:{count}]", haar[128][:count]
    signed = [ketsim.TwoLevelFactor(3, (1,), np.array([[complex(-0.0, -0.0)]])),
              ketsim.TwoLevelFactor(3, (0, 2), np.array([[5e-324, -0.0], [1j, -1e300]]))]
    yield "signed-zeros", signed
    # the boundary values in 2 x 2 blocks, then one value in a 1 x 1 block
    values = _boundary_floats()
    blocks = np.array(values[: len(values) // 8 * 8]).view(np.complex128).reshape(-1, 2, 2)
    boundary = []
    for i, block in enumerate(blocks):
        boundary.append(ketsim.TwoLevelFactor(200, (i, i + 1), block))
        boundary.append(ketsim.TwoLevelFactor(200, (i,), block[:1, :1].copy()))
    yield "boundary-values", boundary


def _boundary_floats() -> list[float]:
    """Doubles where 17-digit formatting changes course, with their negatives:

    - each power of ten from 1e-12 to 1e16 and three doubles on either side,
      which cover the fixed/exponent switch at 1e-4 and the edges of the
      exact integer range, 1e-11 and 10;
    - the doubles next to 1e-14, 1e-70 and 1e98, which round up to the power
      of ten at 17 digits;
    - ties at the 17th digit, which round half to even: an odd n / 2**(17 - k)
      in [10**k, 10**(k + 1)) has exactly 18 significant digits, the last 5;
    - the ends of the binades next to 1e-11 and 10, and the ends of the
      double range.
    """
    values = []
    for k in range(-12, 17):
        below = above = float(f"1e{k}")
        values.append(below)
        for _ in range(3):
            below, above = math.nextafter(below, 0), math.nextafter(above, math.inf)
            values += [below, above]
    values += [1e-14, 1e-70, 1e98, 10**15 + 0.25, 10**14 + 0.125, 10**13 + 0.0625]
    for k in range(-8, 1):
        scale = 2 ** (17 - k)
        low = math.ceil(Fraction(10) ** k * scale) | 1
        high = math.ceil(Fraction(10) ** (k + 1) * scale) - 2 | 1
        values += [n / scale for n in (low, low + 2, (low + high) // 2 | 1, high - 2, high)]
    values += [2.0**-37, 2.0**-36, math.nextafter(2.0**-36, 0), 8.0, math.nextafter(8.0, 0),
               16.0, 0.0, 5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
               1.7976931348623157e308, math.inf, math.nan]
    return values + [-v for v in values]


class TestJson:
    # zeros, the fallback's values (subnormal, tiny, huge) and the bulk path's
    ENTRIES = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 9.9999999999999994e-12,
               1e-11, 0.1, 1 / 3, -2.718281828459045, 9.9999999999999982, 12.5, 1e300,
               1.0000076293945312, 9.9999999999999995e-08, 0.0001, 9.9999999999999991e-05,
               0.70710678118654746, -0.70710678118654757]

    @staticmethod
    def _complex(re, im) -> np.ndarray:
        a = np.empty(len(re), dtype=np.complex128)
        a.real, a.imag = re, im  # set apart, so that signed zeros survive
        return a

    @pytest.mark.parametrize("shape", [(4,), (2, 2), (1, 8)])
    def test_complex_array_as_pairs(self, shape):
        values = self._complex(self.ENTRIES[:8], self.ENTRIES[-8:])
        for a in (values, values[::-1], values * 1j):
            a = a[: math.prod(shape)].reshape(shape)
            pairs = [[float(v.real), float(v.imag)] for v in a.reshape(-1)]
            assert _text(a) == _text(pairs) == _reference_pairs(a)
            assert json.loads(_text(a)) == pairs

    # sizes on both sides of one and of several chunks, and strided views
    @pytest.mark.parametrize("size", [1, 4095, 4096, 4097, 3 * 4096 + 5])
    def test_long_complex_array_in_chunks(self, size):
        rng = np.random.default_rng(size)
        a = self._complex(rng.choice(self.ENTRIES, size), rng.choice(self.ENTRIES, size))
        a[rng.random(size) < 0.5] *= rng.normal(size=1)[0]
        for view in (a, a[::-1], a[::3], np.stack([a, a]).T):
            text = _text(view)
            assert _first_difference(text, _reference_pairs(view)) is None
            assert json.loads(text) == [[float(v.real), float(v.imag)] for v in view.reshape(-1)]

    @pytest.mark.parametrize("dim", [1, 2, 5, 16, 32])  # D = 32: factors in several chunks
    def test_factor_list_as_dicts(self, dim):
        factors = two_level_decompose(haar_random_unitary(dim, RngStream(dim)))
        expected = [{"support": list(f.support), "block": f.block} for f in factors]
        text = _text(factor_table(factors))
        assert _first_difference(text, _text(expected)) is None
        assert json.loads(text) == [
            {"support": list(f.support),
             "block": [[float(v.real), float(v.imag)] for v in f.block.reshape(-1)]}
            for f in factors
        ]

    @pytest.mark.parametrize("name, factors", [
        pytest.param(name, factors, id=name) for name, factors in _factor_lists()
    ])
    def test_factor_list_equals_per_factor_renderer(self, name, factors, monkeypatch):
        expected = _reference_factors(factors)
        table = factor_table(factors)
        for chunk in (cli.FACTOR_CHUNK, SMALL_FACTOR_CHUNK):
            monkeypatch.setattr(cli, "FACTOR_CHUNK", chunk)
            assert _first_difference(_text(table), expected) is None
            assert _first_difference(
                _text({"factors": table}), '{"factors": ' + expected + "}"
            ) is None

    def test_empty_factor_list(self):
        assert _text([]) == _text(factor_table([])) == "[]"

    def test_state_as_dict(self):
        s = ketsim.StateVector(self._complex([0.6, 0.0, -0.0, 0.0], [0.0, -0.0, 0.8, 0.0]))
        fields = {"num_qubits": 2, "ket": ketsim.format_ket(s), "amplitudes": s.amplitudes}
        assert _text(s) == _text(fields)
        assert json.loads(_text(s)) == {
            "num_qubits": 2, "ket": "0.6|00> + 0.8i|10>",
            "amplitudes": [[0.6, 0.0], [0.0, 0.0], [0.0, 0.8], [0.0, 0.0]],
        }


class TestFloatText:
    """The bulk 17-digit formatter against ``%.17g`` one value at a time."""

    def test_boundary_values(self):
        values = _boundary_floats()
        a = np.array(values + values[:1] * (len(values) % 2)).view(np.complex128)
        assert _first_difference(pairs_text(a), _reference_pairs(a)[1:-1]) is None

    @pytest.fixture(scope="class")
    def patterns(self):
        """200,000 seeded random 64-bit patterns as 100,000 complex entries,
        and the ``%.17g`` text of each entry's pair."""
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 1 << 64, 200_000, dtype=np.uint64)
        # half with a binary exponent from 2**-40 to 2**4, around the exact
        # integer range; uniform bits alone seldom land there
        near = np.flatnonzero(rng.random(bits.size) < 0.5)
        exponent = rng.integers(1023 - 40, 1023 + 4, near.size).astype(np.uint64)
        bits[near] = bits[near] & np.uint64((1 << 64) - 1 - (0x7FF << 52)) | exponent << np.uint64(52)
        specials = [0, 1 << 63, 0x7FF << 52, 0xFFF << 52, 0x7FF8 << 48, 0xFFF8 << 48, 1,
                    (1 << 52) - 1, (1 << 63) | 1, 1 << 52]  # ±0, ±inf, nans, subnormals
        bits[rng.integers(0, bits.size, 100)] = rng.choice(np.array(specials, np.uint64), 100)
        a = bits.view(np.complex128)
        return a, [f"[{v.real:.17g}, {v.imag:.17g}]" for v in a]

    @pytest.mark.parametrize("chunk", [1, 4095, 4096, 4097])
    def test_random_bit_patterns(self, patterns, chunk):
        a, expected = patterns
        for start in range(0, a.size if chunk > 1 else 1_000, chunk):
            text = pairs_text(a[start : start + chunk])
            assert _first_difference(text, ", ".join(expected[start : start + chunk])) is None


class _CountingSink:
    """A stdout that counts the UTF-8 bytes written to it and keeps none."""

    def __init__(self):
        self.bytes = 0
        self.writes = 0

    def write(self, text: str) -> int:
        self.bytes += len(text.encode())
        self.writes += 1
        return len(text)

    def flush(self) -> None:
        pass


def _dump_circuit(n: int) -> str:
    """A measurement-free circuit whose every amplitude is generic."""
    layer = [f"u2 {q} a=0.{q + 1} b=0.3 c=0.{q + 2} d=0.7" for q in range(n)]
    return "\n".join([f"qubits {n}", *(f"h {q}" for q in range(n)), *layer]) + "\n"


def _u2_layer_dump(n: int, seed: int) -> str:
    """A layer of ``u2`` gates with seeded random angles: a product state
    whose every amplitude is a generic complex number.  At n = 17 and seed
    17, its parts run from 1.5e-10 to 0.04, and 177 of them lie below the
    6-digit exact range's 1e-7."""
    rng = random.Random(seed)
    layer = [f"u2 {q} " + " ".join(f"{k}={rng.uniform(-3.2, 3.2)!r}" for k in "abcd")
             for q in range(n)]
    return "\n".join([f"qubits {n}", *layer]) + "\n"


class TestGoldenDumps:
    """The stdout of large generic state dumps, ket and amplitudes, pinned
    byte for byte: the fixture digests cover only small states."""

    @pytest.mark.parametrize("circuit, digest", [
        (_dump_circuit(12), "02fda848db8359dd9f173cfff151280578eb06f242956e3279321be6f1e03eac"),
        (_u2_layer_dump(17, 17),
         "e066215622281113078a96030d6d10ab1bb7a046a1d684e10610d9b6e534a036"),
    ], ids=["dump12", "u2_layer17"])
    def test_dump_digest(self, capsys, tmp_path, circuit, digest):
        path = tmp_path / "dump.qc"
        path.write_text(circuit)
        code, out = run_cli(capsys, "run", str(path))
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestStreamedRender:
    def test_state_dump_peak_below_output_size(self, monkeypatch, tmp_path):
        # an n = 16 state (1 MiB) prints about 6 MB; a renderer that holds
        # the whole document peaks at over twice that
        circuit = tmp_path / "dump16.qc"
        circuit.write_text(_dump_circuit(16))
        sink = _CountingSink()
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["run", str(circuit)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sink.bytes > 4_000_000
        assert sink.writes > 2
        assert peak < sink.bytes

    def test_free_heap_is_returned_after_every_command(self, capsys, monkeypatch):
        trims = []
        monkeypatch.setattr(cli, "_MALLOC_TRIM", trims.append)
        assert main(["bell", "--angles", "0,1,2,3"]) == 0
        assert main(["bell"]) == 1

        def boom(path):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "load_matrix", boom)
        with pytest.raises(RuntimeError):
            main(["decompose", "--matrix", "any.matrix"])
        assert trims == [0, 0, 0]

    def test_runs_where_the_c_library_has_no_malloc_trim(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_MALLOC_TRIM", None)
        code, payload = run_json(capsys, "bell", "--angles", "0,1,2,3")
        assert code == 0
        assert "error" not in payload

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
    def test_glibc_malloc_trim_is_found(self):
        assert cli._find_malloc_trim() is not None

    @pytest.mark.parametrize("last_line, argv, document", [
        ("foo 3", [], '{"error": {"kind": "ParseError", "detail": "line 34: unknown opcode \'foo\'"}}'),
        ("h 3", ["--max-qubits", "15"],
         '{"error": {"kind": "CapacityExceeded", "detail": "16 qubits exceeds the cap of 15"}}'),
    ])
    def test_error_prints_only_its_document(self, capsys, tmp_path, last_line, argv, document):
        # a large state dump but for its last line, or for its qubit cap
        circuit = tmp_path / "dump16.qc"
        circuit.write_text(_dump_circuit(16) + last_line + "\n")
        code, out = run_cli(capsys, "run", str(circuit), *argv)
        assert code == 1
        assert out == document + "\n"


SMALL_INPUT_CAP = 64


def _feed(path: Path, data: bytes, endless: bool) -> None:
    """Write ``data`` into the FIFO ``path``, over and over while ``endless``,
    until the reader closes it."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
            while endless:
                fh.write(data)
                fh.flush()
    except BrokenPipeError:
        pass


class TestInputCap:
    """Every input file is read up to ``cli.MAX_INPUT_BYTES``, here made small."""

    @pytest.fixture(autouse=True)
    def small_cap(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", SMALL_INPUT_CAP)

    @staticmethod
    def _over_cap(path) -> str:
        detail = f"{path} exceeds the input cap of {SMALL_INPUT_CAP} bytes"
        return json.dumps({"error": {"kind": "CapacityExceeded", "detail": detail}}) + "\n"

    @pytest.mark.parametrize("command, option", FILE_COMMANDS)
    def test_regular_file(self, capsys, tmp_path, monkeypatch, command, option):
        path = tmp_path / "input.txt"
        argv = [command, str(path)] if option is None else [command, option, str(path)]
        # at the cap, the document is the one without a cap
        path.write_text("# " + "x" * (SMALL_INPUT_CAP - 3) + "\n")
        at_cap = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", 1 << 26)
        assert run_cli(capsys, *argv) == at_cap
        assert "CapacityExceeded" not in at_cap[1]
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", SMALL_INPUT_CAP)
        path.write_text("# " + "x" * (SMALL_INPUT_CAP - 2) + "\n")
        assert run_cli(capsys, *argv) == (1, self._over_cap(path))

    def test_table_file(self, capsys, tmp_path):
        circuit = tmp_path / "c.qc"
        circuit.write_text("qubits 2\noracle f 0 1\n")
        table = tmp_path / "f.tbl"
        table.write_text("n=1\n0 1\n1 0\n" + "#" * SMALL_INPUT_CAP + "\n")
        code, out = run_cli(capsys, "run", str(circuit), "--table", f"f={table}")
        assert (code, out) == (1, self._over_cap(table))

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    @pytest.mark.parametrize("size, endless", [
        (SMALL_INPUT_CAP, False), (SMALL_INPUT_CAP + 1, False), (16, True),
    ])
    def test_fifo(self, capsys, tmp_path, size, endless):
        # an endless writer stops only when the reader closes the FIFO
        path = tmp_path / "input.fifo"
        os.mkfifo(path)
        data = "qubits 1\n" + "#" * (size - 10) + "\n"
        writer = threading.Thread(target=_feed, args=(path, data.encode(), endless), daemon=True)
        writer.start()
        code, out = run_cli(capsys, "run", str(path))
        writer.join(timeout=10)
        assert not writer.is_alive()
        if size <= SMALL_INPUT_CAP and not endless:
            assert code == 0 and json.loads(out)["final_state"]["ket"] == "1|0>"
        else:
            assert (code, out) == (1, self._over_cap(path))

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
    def test_endless_device(self, capsys):
        assert run_cli(capsys, "run", "/dev/zero") == (1, self._over_cap("/dev/zero"))


class TestExitCodes:
    def test_mapping_for_every_error_class(self):
        assert exit_code_for(InvalidInput("x")) == 1
        assert exit_code_for(ParseError("x", 1)) == 1
        assert exit_code_for(DimensionMismatch("x")) == 1
        assert exit_code_for(CapacityExceeded("x")) == 1
        assert exit_code_for(PromiseViolated("x")) == 1
        assert exit_code_for(NotUnitary("x")) == 1
        assert exit_code_for(NumericalFailure("x")) == 2

    def test_usage_error_is_input_error(self, capsys):
        code, payload = run_json(capsys, "bell")
        assert code == 1
        assert payload["error"]["kind"] == "InvalidInput"

    @pytest.mark.parametrize("exc, detail", [
        (MemoryError(), "out of memory"),
        (MemoryError("boom"), "out of memory: boom"),
    ])
    def test_out_of_memory_is_capacity_exceeded(self, capsys, monkeypatch, exc, detail):
        def load_matrix(path):
            raise exc

        monkeypatch.setattr(cli, "load_matrix", load_matrix)
        code = main(["decompose", "--matrix", "any.matrix"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == (
            f'{{"error": {{"kind": "CapacityExceeded", "detail": "{detail}"}}}}\n'
        )
        assert captured.err == f"ketsim: {detail}\n"


class TestImports:
    def test_star_import_binds_no_module(self):
        namespace: dict = {}
        exec("from ketsim import *", namespace)
        modules = [name for name, v in namespace.items() if isinstance(v, types.ModuleType)]
        assert modules == []
        assert len(ketsim.__all__) == 87
        assert "measure_all" not in ketsim.__all__

    def test_cli_import_loads_no_scipy(self):
        # scipy serves decompose alone and loads on its first call, so the
        # other subcommands start without it
        script = (
            "import sys\n"
            "import ketsim.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ketsim.__file__).parents[1]))
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"
