"""Shared helpers for seeded randomized tests."""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from ketsim import RngStream, StateVector
from ketsim.decompose import FactorTable
from ketsim.inequalities import EventDistribution

# The characters besides "\n" and "\r" at which str.splitlines ends a line.
# The readers end lines at "\n" alone and take these, and "\r", as
# whitespace; files are read with their "\r" kept, and the golden error
# documents of CR-only files are in test_cli.MALFORMED.
OTHER_LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def first_difference(a: str, b: str):
    """None for equal texts, else the first differing offset and the texts
    around it: a long text's failure stays short to print."""
    if a == b:
        return None
    at = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return at, a[max(at - 40, 0) : at + 40], b[max(at - 40, 0) : at + 40]


def perfbench_module(name: str):
    """``perfbench/<name>.py`` loaded as the module ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rand_state(num_qubits: int, rng: RngStream) -> StateVector:
    """Random state from normalized complex Gaussian amplitudes."""
    dim = 1 << num_qubits
    amps = np.empty(dim, dtype=np.complex128)
    for i in range(dim):
        re, im = rng.normal()
        amps[i] = complex(re, im)
    return StateVector(amps / np.linalg.norm(amps))


def rand_distribution(num_events: int, rng: RngStream, resolution: int = 64) -> EventDistribution:
    """Random exact-rational distribution over the 2**n atoms."""
    dim = 1 << num_events
    weights = [rng.next_u64() % resolution for _ in range(dim)]
    if sum(weights) == 0:
        weights[0] = 1
    total = sum(weights)
    return EventDistribution(num_events, tuple(Fraction(w, total) for w in weights))


#: Dimensions of the decomposition-table tests: one to three-digit supports.
TABLE_DIMS = (1, 2, 5, 64, 128, 256)


def _haar(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A Haar unitary from the QR factorisation of complex Gaussians."""
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def table_unitaries():
    """Seeded Haar unitaries and block-diagonal ones (Haar blocks of up to
    4 x 4) at each of ``TABLE_DIMS``, as ``(name, matrix)``."""
    rng = np.random.default_rng(2026)
    for dim in TABLE_DIMS:
        yield f"haar{dim}", _haar(rng, dim)
        u = np.zeros((dim, dim), dtype=np.complex128)
        for start in range(0, dim, 4):
            size = min(4, dim - start)
            u[start : start + size, start : start + size] = _haar(rng, size)
        yield f"blockdiag{dim}", u


def kron_chain(*matrices: np.ndarray) -> np.ndarray:
    """Independent Kronecker-product oracle for dense expectations."""
    out = np.array([[1.0 + 0.0j]])
    for m in matrices:
        out = np.kron(out, m)
    return out


def factor_table(factors) -> FactorTable:
    """The table of a list of two-level factors, for the CLI's factor text
    and the reference of the sweep: each row holds its block's entries in
    C order, whatever the block's own layout."""
    table = FactorTable.zeros(factors[0].dim if factors else 0, len(factors))
    for row, factor in enumerate(factors):
        size = len(factor.support)
        table.first[row], table.last[row] = factor.support[0], factor.support[-1]
        table.blocks[row, :size, :size] = factor.block
    return table
