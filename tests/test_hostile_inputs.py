"""Seeded hostile-input mutations of the CLI's input files.

Each case takes one fixture, inserts, deletes or replaces a few of its
tokens (huge and non-finite numbers, non-ASCII digits, ``_`` separators,
oversized headers, NUL and other control characters), and runs the
matching subcommand in-process.  Whatever the input, the command must end
with exit code 0, 1 or 2 and exactly one line of JSON on stdout, an error
document exactly when the exit code is nonzero, and no exception escaping.

Token mutations re-join the tokens with single spaces, so most of them leave
a table file in the strict layout that ``load_truth_table`` decodes in bulk.
Single-character flips of a strict-layout table cover the rest: each must
print the same document as the line walk alone.

A third set puts one bad token into each fixture, among comments and
separators that hold the other characters ``str.splitlines`` ends a line
at: the error names the line that ``\n`` alone counts.
"""

import json
import random
from pathlib import Path

import pytest

import ketsim.cli as cli
from ketsim.cli import main
from conftest import OTHER_LINE_BREAKS

FIXTURES = Path(__file__).parent / "fixtures"

# fixture -> argv, with {path} for the mutated file
COMMANDS = {
    "bell_pair.qc": ["run", "{path}", "--shots", "16", "--seed", "3"],
    "deutsch.qc": ["run", "{path}", "--table", f"f={FIXTURES / 'not_gate.tbl'}", "--shots", "16"],
    "render16.qc": ["run", "{path}"],
    "balanced_n3.tbl": ["deutsch-jozsa", "--table", "{path}"],
    "had2.mat": ["decompose", "--matrix", "{path}"],
    "mixed6.dist": ["bounds", "--dist", "{path}"],
}

HOSTILE = (
    "99999999999", "-99999999999", "1e400", "-1e400", "1e-400", "nan", "inf", "-inf",
    "\u0661", "\uff11", "1_0", "1/0", "0/0", "-1", "+1", "0x10", "2**64",
    "d=100000", "d=0", "n=4000", "n=0", "qubits", "measure", "oracle", "u2", "#",
    "\x00", "\x0b", "\x1c", "\u2028", "=", ",", "a=1e400", "0,nan", "1e999,0",
    "1_0,0", "\u0661,0", "0,1/0", "0x1,0", ",0",
    "0000000", "11111111111", "\U0001d7d9",
)

CASES = 300


def _mutate(text: str, rng: random.Random) -> str:
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.choice((1, 1, 2, 3))):
        row = rng.randrange(len(lines))
        tokens = lines[row]
        action = rng.choice(("insert", "delete", "replace", "replace", "line"))
        if action == "line":
            lines.insert(row, [rng.choice(HOSTILE)])
        elif action == "insert" or not tokens:
            tokens.insert(rng.randint(0, len(tokens)), rng.choice(HOSTILE))
        elif action == "delete":
            del tokens[rng.randrange(len(tokens))]
        else:
            tokens[rng.randrange(len(tokens))] = rng.choice(HOSTILE)
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@pytest.mark.parametrize("case", range(CASES))
def test_mutated_input_ends_in_one_json_document(capsys, tmp_path, case):
    rng = random.Random(f"hostile:{case}")
    name = list(COMMANDS)[case % len(COMMANDS)]
    path = tmp_path / name
    path.write_text(_mutate((FIXTURES / name).read_text(encoding="utf-8"), rng), encoding="utf-8")
    code = main([arg.format(path=path) for arg in COMMANDS[name]])
    out = capsys.readouterr().out
    assert code in (0, 1, 2)
    assert out.endswith("\n") and out.count("\n") == 1
    doc = json.loads(out)
    assert ("error" in doc) == (code != 0)


# what a flipped character of a table file becomes
FLIPS = ("0", "1", "2", " ", "\n", "#", "\x00", "\u0661")

FLIP_CASES = 120


def _strict_table(rng: random.Random, arity: int) -> str:
    """A constant or balanced table in the strict layout, rows in seeded order."""
    size = 1 << arity
    outputs = [rng.randrange(2)] * size if rng.randrange(2) else [0, 1] * (size // 2)
    rng.shuffle(outputs)
    order = list(range(size))
    if rng.randrange(2):
        rng.shuffle(order)
    return f"n={arity}\n" + "".join(f"{x:0{arity}b} {outputs[x]}\n" for x in order)


@pytest.mark.parametrize("case", range(FLIP_CASES))
def test_table_flip_prints_what_the_line_walk_prints(capsys, tmp_path, monkeypatch, case):
    rng = random.Random(f"flip:{case}")
    text = _strict_table(rng, 6)
    at = rng.randrange(len(text))
    path = tmp_path / "flipped.tbl"
    path.write_text(text[:at] + rng.choice(FLIPS) + text[at + 1:], encoding="utf-8")
    argv = ["deutsch-jozsa", "--table", str(path)]
    code = main(argv)
    out = capsys.readouterr().out
    monkeypatch.setattr(cli, "_bulk_truth_table", lambda text, arity: None)
    assert main(argv) == code
    assert capsys.readouterr().out == out


LINE_CASES = 120


def _with_bad_token(text: str, rng: random.Random) -> tuple[str, int]:
    """``text`` rewoven with other line breaks in comments and between
    tokens, blank lines, CRLF endings and one data token replaced by
    ``bogus``; returns the new text and the offset of ``bogus``."""
    lines = []
    for raw in text.splitlines():
        data, hash_, comment = raw.partition("#")
        lines.append([data.split(), hash_ + comment])
    row = rng.choice([i for i, (tokens, _) in enumerate(lines) if tokens])
    col = rng.randrange(len(lines[row][0]))
    lines[row][0][col] = "bogus"
    out, at = [], 0
    for i, (tokens, comment) in enumerate(lines):
        for _ in range(rng.choice((0, 0, 1, 2))):
            out.append(rng.choice(("", f"# a{rng.choice(OTHER_LINE_BREAKS)}h 0 b", " \t")))
            out.append(rng.choice(("\n", "\r\n")))
        for j, token in enumerate(tokens):
            if j:
                out.append(rng.choice((" ", "\t", *OTHER_LINE_BREAKS)))
            if (i, j) == (row, col):
                at = sum(map(len, out))
            out.append(token)
        if rng.randrange(2):
            comment = f"{comment or '#'} {rng.choice(OTHER_LINE_BREAKS)}0 1"
        out.append(f" {comment}" if comment else "")
        out.append(rng.choice(("\n", "\r\n")))
    return "".join(out), at


@pytest.mark.parametrize("case", range(LINE_CASES))
def test_parse_error_line_counts_newlines_alone(capsys, tmp_path, case):
    rng = random.Random(f"lines:{case}")
    name = list(COMMANDS)[case % len(COMMANDS)]
    text, at = _with_bad_token((FIXTURES / name).read_text(encoding="utf-8"), rng)
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code = main([arg.format(path=path) for arg in COMMANDS[name]])
    error = json.loads(capsys.readouterr().out)["error"]
    line = text.count("\n", 0, at) + 1
    assert code == 1 and error["kind"] == "ParseError"
    assert error["detail"].startswith(f"line {line}: ")
