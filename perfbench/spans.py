"""Span recorder for the traced benchmark run.

The program has no tracing of its own yet, so the benchmark wraps the
functions each ``ketsim`` module calls across a layer boundary.  Modules
import by ``from .x import y``, so a wrapper is installed under that name
in the *calling* module's namespace; constructors and methods are wrapped
on their class.  Every call becomes a span ``(name, parent, start, end,
job, counters)`` kept in memory; ``rollup`` turns spans into per-name call
counts, inclusive and self times (a span minus the time its child spans
cover) and summed counters.

Byte and multiply-accumulate counters are *computed* from array sizes and
gate arities; they are not hardware counters.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time
from collections.abc import Callable
from pathlib import Path

AMP_BYTES = 16  # one complex128 amplitude


def _gate_span(args, kwargs, result):
    g, targets, state = args[:3]
    k, n = len(targets), state.num_qubits
    # A k-qubit gate on n qubits: 2^k multiply-accumulates per output
    # amplitude; the state is read once and written once.
    return f"gates.k{k}", {"cmac": 1 << (n + k), "gate_bytes": 2 * AMP_BYTES << n}


def _oracle_span(args, kwargs, result):
    n = args[2].num_qubits
    return "gates.apply_oracle_at", {"gate_bytes": 2 * AMP_BYTES << n}


def _construct_span(args, kwargs, result):
    # Input read, defensive copy written, finiteness check, norm pass.
    size = args[0].amplitudes.size
    return "state.construct", {"state_bytes": 4 * AMP_BYTES * size}


def _atoms_span(name):
    def label(args, kwargs, result):
        return name, {"atom_visits": 1 << args[0].num_events}
    return label


def _decompose_span(args, kwargs, result):
    return "decompose.two_level_decompose", {"factors": len(result)}


def _recompose_span(args, kwargs, result):
    factors, dim = args[0], args[1]
    # Per factor: an identity of D^2 amplitudes written, then a dense
    # product reading two D x D operands and writing one.
    return "decompose.recompose", {"recompose_bytes": 4 * AMP_BYTES * dim * dim * len(factors)}


def _named(name):
    return lambda args, kwargs, result: (name, None)


# (module, attribute, span label).  A dotted attribute names a class
# member.  ``circuit._run_trajectory`` is the one private name: it is where
# one trajectory of one shot is simulated.
PATCHES: tuple[tuple[str, str, Callable], ...] = (
    ("ketsim.cli", "load_truth_table", _named("cli.load")),
    ("ketsim.cli", "load_matrix", _named("cli.load")),
    ("ketsim.cli", "load_distribution", _named("cli.load")),
    ("ketsim.cli", "parse_circuit", _named("circuit.parse")),
    ("ketsim.cli", "run_program", _named("circuit.run_program")),
    ("ketsim.cli", "deutsch_jozsa", _named("protocols.deutsch_jozsa")),
    ("ketsim.cli", "two_level_decompose", _decompose_span),
    ("ketsim.cli", "recompose", _recompose_span),
    ("ketsim.cli", "bonferroni_variants", _atoms_span("inequalities.bonferroni_variants")),
    ("ketsim.cli", "bonferroni_lower", _atoms_span("inequalities.bonferroni_lower")),
    ("ketsim.cli", "poincare_union", _named("inequalities.poincare_union")),
    ("ketsim.cli", "marginal", _atoms_span("inequalities.marginal")),
    ("ketsim.inequalities", "marginal", _atoms_span("inequalities.marginal")),
    ("ketsim.circuit", "_run_trajectory", _named("circuit.trajectory")),
    ("ketsim.circuit", "apply_gate_at", _gate_span),
    ("ketsim.circuit", "apply_oracle_at", _oracle_span),
    ("ketsim.circuit", "measure_subset", _named("measure.measure_subset")),
    ("ketsim.circuit", "measure_all", _named("measure.measure_all")),
    ("ketsim.protocols", "apply_gate_at", _gate_span),
    ("ketsim.protocols", "apply_oracle_at", _oracle_span),
    ("ketsim.protocols", "measure_subset", _named("measure.measure_subset")),
    ("ketsim.decompose", "unitary_eigensystem", _named("decompose.eigensystem")),
    ("ketsim.state", "StateVector.__init__", _construct_span),
    ("ketsim.rng", "RngStream.uniform", _named("rng.uniform")),
    ("ketsim.decompose", "TwoLevelFactor.expand", _named("decompose.expand")),
)


class SpanRecorder:
    """In-memory spans of one traced run; single-threaded by design."""

    def __init__(self):
        self.spans: list = []
        self.job = ""
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span called ``name`` (used for the job root)."""
        return self._wrap(fn, _named(name))(*args, **kwargs)

    def _wrap(self, fn: Callable, label: Callable) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                try:
                    name, counters = label(args, kwargs, result)
                except (TypeError, AttributeError, IndexError):  # the call raised
                    name, counters = f"failed.{fn.__qualname__}", None
                spans[index] = (name, parent, start, end, self.job, counters)

        return wrapper

    def install(self) -> list[str]:
        """Install every wrapper; returns the patch targets that do not exist."""
        missing = []
        for module_name, attr, label in PATCHES:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf, None)
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            self._undo.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(original, label))
        return missing

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def take(self) -> list:
        spans, self.spans[:] = list(self.spans), []
        return spans

    @staticmethod
    def write(spans: list, path: Path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, parent, start, end, job, counters in spans:
                fh.write(json.dumps([name, parent, start, end, job, counters]) + "\n")


def rollup(spans: list) -> dict[str, dict]:
    """Per span name: calls, inclusive seconds, self seconds, counters.

    Also counts, under ``"<name><-<parent name>"``, how often each name
    was called directly from each parent name.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, parent, start, end, _, counters) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["incl_s"] += end - start
        row["self_s"] += end - start - child_time[i]
        for key, value in (counters or {}).items():
            row[key] = row.get(key, 0) + value
        via = f"{name}<-{spans[parent][0] if parent >= 0 else ''}"
        edge = out.setdefault(via, {"calls": 0})
        edge["calls"] += 1
    return out
