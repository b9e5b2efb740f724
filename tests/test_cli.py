import json
import math
from pathlib import Path

import pytest

from ketsim.cli import exit_code_for, main
from ketsim.errors import (
    CapacityExceeded,
    DimensionMismatch,
    InvalidInput,
    NotUnitary,
    NumericalFailure,
    ParseError,
    PromiseViolated,
)

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

    def test_arity_below_one_rejected(self, capsys, tmp_path):
        table = tmp_path / "neg.tbl"
        table.write_text("n=-1\n")
        code, payload = run_json(capsys, "deutsch-jozsa", "--table", str(table))
        assert code == 1
        assert payload["error"]["kind"] == "ParseError"
        assert payload["error"]["detail"].startswith("line 1:")

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
