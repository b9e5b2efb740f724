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
"""

import json
import random
from pathlib import Path

import pytest

import ketsim.cli as cli
from ketsim.cli import main

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
    monkeypatch.setattr(cli, "_bulk_truth_table", lambda text: None)
    assert main(argv) == code
    assert capsys.readouterr().out == out
