"""Independent output checks for the benchmark's jobs.

Nothing here imports ``ketsim``.  Every check recomputes the expected
result from the generator's own description of the inputs:

- circuits run on a small numpy tensor-contraction simulator;
- ``run`` histograms are tested against the exact Born distribution over
  measurement records, and, where the only measurement is the last
  instruction, replayed draw for draw with the documented SplitMix64
  stream and inverse-CDF walk;
- ``bounds`` fields are brute-force sums over the atoms in exact integers;
- ``decompose`` factors are multiplied back out two coordinates at a time;
- the Deutsch-Jozsa verdict must match how the table was built.

``check_output(job_spec, text)`` returns ``None`` when the output is right
and a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from math import lcm

import numpy as np

AMPLITUDE_TOL = 1e-9
# A histogram fails when its goodness-of-fit p-value falls below this.
CHI2_P_FLOOR = 1e-6
# Observed records must carry at least this much reference probability.
POSSIBLE_FLOOR = 1e-10
# Branch weights below this are zero, as the measurement contract states.
ZERO_BRANCH_EPS = 1e-15
DECOMPOSE_TOL = 1e-9
BONFERRONI_SAMPLE = 24


# --- reference circuit simulator -------------------------------------------

_S = math.sqrt(0.5)
_FIXED = {
    "h": np.array([[_S, _S], [_S, -_S]], dtype=np.complex128),
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
    "cnot": np.eye(4, dtype=np.complex128)[[0, 1, 3, 2]],
    "toffoli": np.eye(8, dtype=np.complex128)[[0, 1, 2, 3, 4, 5, 7, 6]],
}


def _u2(a: float, b: float, c: float, d: float) -> np.ndarray:
    """e^{ia} * XX-rotation(b) * plane rotation(c) * relative phase(d)."""
    rx = np.array([[math.cos(b), -1j * math.sin(b)], [-1j * math.sin(b), math.cos(b)]])
    ry = np.array([[math.cos(c), -math.sin(c)], [math.sin(c), math.cos(c)]])
    rz = np.diag([np.exp(-1j * d), np.exp(1j * d)])
    return np.exp(1j * a) * (rx @ ry @ rz)


def _apply(psi: np.ndarray, gate: np.ndarray, targets: tuple[int, ...]) -> np.ndarray:
    """Contract a 2^k x 2^k gate into axes ``targets`` of the state tensor."""
    k = len(targets)
    g = gate.reshape((2,) * (2 * k))
    out = np.tensordot(g, psi, axes=(list(range(k, 2 * k)), list(targets)))
    return np.moveaxis(out, list(range(k)), list(targets))


def _apply_oracle(psi: np.ndarray, outputs: list[int], targets: tuple[int, ...]) -> np.ndarray:
    """|x>|y> -> |x>|y xor f(x)> with x read from targets[:-1], MSB first."""
    k = len(targets)
    front = np.moveaxis(psi, list(targets), list(range(k)))
    flat = front.reshape(1 << (k - 1), 2, -1).copy()
    ones = np.nonzero(np.asarray(outputs))[0]
    flat[ones] = flat[ones][:, ::-1]
    return np.moveaxis(flat.reshape(front.shape), list(range(k)), list(targets))


def _run_gates(psi: np.ndarray, ops, oracle: list[int]) -> np.ndarray:
    for op, targets, params in ops:
        if op == "oracle":
            psi = _apply_oracle(psi, oracle, targets)
        elif op == "u2":
            psi = _apply(psi, _u2(*params), targets)
        else:
            psi = _apply(psi, _FIXED[op], targets)
    return psi


def _zero_state(n: int) -> np.ndarray:
    psi = np.zeros((2,) * n, dtype=np.complex128)
    psi[(0,) * n] = 1.0
    return psi


def record_distribution(n: int, ops, oracle: list[int]) -> tuple[list[str], np.ndarray]:
    """Exact Born distribution over measurement records.

    Returns the sorted record prefixes fixed by mid-circuit measurements
    and a matrix whose row ``i`` holds the probability of prefix ``i``
    followed by each final full-register outcome (in basis-index order),
    so that flattening it lists every record in lexicographic order.
    """
    branches = {"": (1.0, _zero_state(n))}
    segment: list = []
    for op, targets, params in ops:
        if op != "measure":
            segment.append((op, targets, params))
            continue
        branches = {p: (w, _run_gates(psi, segment, oracle)) for p, (w, psi) in branches.items()}
        segment = []
        if not targets:
            break
        k = len(targets)
        split = {}
        for prefix, (w, psi) in branches.items():
            front = np.moveaxis(psi, list(targets), list(range(k))).reshape(1 << k, -1)
            probs = np.sum(np.abs(front) ** 2, axis=1)
            for outcome in range(1 << k):
                if probs[outcome] < ZERO_BRANCH_EPS:
                    continue
                collapsed = np.zeros_like(front)
                collapsed[outcome] = front[outcome] / math.sqrt(probs[outcome])
                shaped = collapsed.reshape((2,) * k + (2,) * (n - k))
                split[prefix + format(outcome, f"0{k}b")] = (
                    w * probs[outcome],
                    np.moveaxis(shaped, list(range(k)), list(targets)),
                )
        branches = split
    prefixes = sorted(branches)
    table = np.array([branches[p][0] * np.abs(branches[p][1].reshape(-1)) ** 2
                      for p in prefixes])
    return prefixes, table


def final_state(n: int, ops, oracle: list[int]) -> np.ndarray:
    return _run_gates(_zero_state(n), ops, oracle).reshape(-1)


# --- histogram checks -------------------------------------------------------


class SplitMix64:
    """The documented stream: add the golden gamma, two xor-shift-multiply rounds."""

    def __init__(self, seed: int):
        self.state = seed & (2**64 - 1)

    def uniform(self) -> float:
        self.state = (self.state + 0x9E3779B97F4A7C15) & (2**64 - 1)
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & (2**64 - 1)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & (2**64 - 1)
        return ((z ^ (z >> 31)) >> 11) * 2.0**-53


def _replay_final_only(weights: np.ndarray, shots: int, seed: int, n: int) -> dict | None:
    """Expected counts when one full measurement ends the circuit.

    Each shot draws one uniform and walks the CDF in index order.  Returns
    ``None`` when a draw lands too close to a CDF step to decide.
    """
    live = weights >= ZERO_BRANCH_EPS
    cdf = np.cumsum(np.where(live, weights, 0.0))
    last_live = int(np.nonzero(live)[0][-1])
    rng = SplitMix64(seed)
    draws = np.array([rng.uniform() for _ in range(shots)])
    index = np.minimum(np.searchsorted(cdf, draws, side="right"), last_live)
    steps = np.concatenate(([0.0], cdf))
    near = np.minimum(np.abs(steps[index] - draws), np.abs(steps[index + 1] - draws))
    if np.any(near < 1e-9):
        return None
    counts: dict[str, int] = {}
    for i in index:
        key = format(int(i), f"0{n}b")
        counts[key] = counts.get(key, 0) + 1
    return counts


def chi2_pvalue(observed: np.ndarray, expected: np.ndarray) -> float:
    from scipy.stats import chi2

    stat = float(np.sum((observed - expected) ** 2 / expected))
    return float(chi2.sf(stat, observed.size - 1))


def _check_histogram(spec: dict, doc: dict) -> str | None:
    n, shots, seed = spec["n"], spec["shots"], spec["seed"]
    if doc.get("shots") != shots or doc.get("seed") != seed:
        return "shots or seed not echoed"
    counts = doc.get("counts")
    if not isinstance(counts, dict) or sum(counts.values()) != shots:
        return "counts do not sum to shots"
    prefixes, table = record_distribution(n, spec["ops"], spec["oracle"])
    width = len(prefixes[0]) + n
    offsets = {p: i * (1 << n) for i, p in enumerate(prefixes)}
    flat = table.reshape(-1)
    positions = []
    for key, c in counts.items():
        if len(key) != width or key[: width - n] not in offsets or c < 1:
            return f"impossible record {key!r}"
        pos = offsets[key[: width - n]] + int(key[width - n:], 2)
        if flat[pos] < POSSIBLE_FLOOR:
            return f"record {key!r} has probability {flat[pos]:.3e}"
        positions.append((pos, c))

    if sum(op == "measure" for op, _, _ in spec["ops"]) == 1:
        expected = _replay_final_only(flat, shots, seed, n)
        if expected is not None and expected != counts:
            return "histogram differs from the seeded inverse-CDF replay"

    bins = min(8, shots // 10)
    if bins >= 2:
        # Assign each record to the equal-mass bin holding its CDF midpoint.
        cdf = np.cumsum(flat)
        mid = cdf - flat / 2
        which = np.minimum((mid * bins).astype(int), bins - 1)
        mass = np.bincount(which, weights=flat, minlength=bins)
        observed = np.zeros(bins)
        for pos, c in positions:
            observed[which[pos]] += c
        keep = mass > 0
        p = chi2_pvalue(observed[keep], shots * mass[keep] / mass[keep].sum())
        if p < CHI2_P_FLOOR:
            return f"histogram fails the Born test (p = {p:.2e})"
    return None


def _check_state(spec: dict, doc: dict) -> str | None:
    state = doc.get("final_state")
    if not isinstance(state, dict) or state.get("num_qubits") != spec["n"]:
        return "missing final_state or wrong qubit count"
    amps = np.asarray(state.get("amplitudes"), dtype=float)
    if amps.shape != (1 << spec["n"], 2):
        return "wrong amplitude count"
    if not isinstance(state.get("ket"), str) or not state["ket"]:
        return "missing ket rendering"
    ref = final_state(spec["n"], spec["ops"], spec["oracle"])
    err = float(np.max(np.abs(amps[:, 0] + 1j * amps[:, 1] - ref)))
    if err > AMPLITUDE_TOL:
        return f"final state differs from the reference by {err:.3e}"
    return None


def _check_circuit(spec: dict, doc: dict) -> str | None:
    if any(op == "measure" for op, _, _ in spec["ops"]):
        return _check_histogram(spec, doc)
    return _check_state(spec, doc)


# --- bounds -----------------------------------------------------------------


def _marginal(ints: list[int], mask: int) -> int:
    return sum(a for b, a in enumerate(ints) if b & mask == mask)


def _bonferroni(ints: list[int], n: int) -> int:
    singles = sum(_marginal(ints, 1 << i) for i in range(n))
    pairs = sum(_marginal(ints, (1 << i) | (1 << j))
                for i in range(n) for j in range(i + 1, n))
    return singles - pairs


def _check_bounds(spec: dict, doc: dict) -> str | None:
    n, atoms = spec["n"], spec["atoms"]
    scale = lcm(*(a.denominator for a in atoms))
    ints = [a.numerator * (scale // a.denominator) for a in atoms]

    def frac(value: int) -> Fraction:
        return Fraction(value, scale)

    try:
        got = {k: doc[k] for k in ("union", "poincare_union", "bonferroni_lower",
                                   "intersection", "event_probs", "bonferroni_variants")}
        union = Fraction(got["union"])
        poincare = Fraction(got["poincare_union"])
        lower = Fraction(got["bonferroni_lower"])
        events = [Fraction(p) for p in got["event_probs"]]
        intersection = Fraction(got["intersection"])
        variants = got["bonferroni_variants"]
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return "bounds document is missing or malformed"

    if union != frac(sum(ints[1:])):
        return "union differs from the brute-force sum"
    # Event i (1-based) is bit n - i of an atom index.
    if events != [frac(_marginal(ints, 1 << (n - i))) for i in range(1, n + 1)]:
        return "event_probs differ from the brute-force marginals"
    if intersection != frac(ints[(1 << n) - 1]):
        return "intersection differs from the all-true atom"
    total = 0
    for selector in range(1, 1 << n):
        sign = 1 if selector.bit_count() % 2 else -1
        total += sign * _marginal(ints, selector)
    if poincare != frac(total):
        return "poincare_union differs from brute-force inclusion-exclusion"
    if lower != frac(_bonferroni(ints, n)):
        return "bonferroni_lower differs from the brute-force sum"
    if not isinstance(variants, dict) or len(variants) != (1 << n) - 1:
        return "bonferroni_variants does not list every complement pattern"
    sample = random.Random(f"variants:{n}:{scale}").sample(
        range(1, 1 << n), min(BONFERRONI_SAMPLE, (1 << n) - 1))
    for selector in sample:
        # Complementing the events selected by the pattern relabels atom b
        # as b xor selector.
        relabeled = [0] * len(ints)
        for b, a in enumerate(ints):
            relabeled[b ^ selector] = a
        key = format(selector, f"0{n}b")
        try:
            value = Fraction(variants[key])
        except (KeyError, TypeError, ValueError, ZeroDivisionError):
            return f"bonferroni variant {key} is missing or malformed"
        if value != frac(_bonferroni(relabeled, n)):
            return f"bonferroni variant {key} differs from the brute-force sum"
    return None


# --- decompose --------------------------------------------------------------


def _is_number(value) -> bool:
    # Floats print with 17 significant digits, so an exact 0.0 reads back as 0.
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_decompose(spec: dict, doc: dict) -> str | None:
    u = spec["matrix"]
    dim = u.shape[0]
    bound = 2 * dim * dim - dim
    factors = doc.get("factors")
    if doc.get("dim") != dim or doc.get("constructed_count") != bound:
        return "dim or constructed_count is wrong"
    if not isinstance(factors, list) or doc.get("emitted_count") != len(factors):
        return "emitted_count does not match the factor list"
    if len(factors) > bound:
        return f"{len(factors)} factors exceed the 2D^2-D bound {bound}"
    product = np.eye(dim, dtype=np.complex128)
    for f in factors:
        support = f.get("support")
        k = len(support) if isinstance(support, list) else 0
        if k not in (1, 2) or support != sorted(set(support)) or not (
                0 <= support[0] and support[-1] < dim):
            return f"bad factor support {support!r}"
        entries = np.asarray(f.get("block"), dtype=float)
        if entries.shape != (k * k, 2):
            return "bad factor block shape"
        block = (entries[:, 0] + 1j * entries[:, 1]).reshape(k, k)
        if np.linalg.norm(block.conj().T @ block - np.eye(k)) > DECOMPOSE_TOL:
            return "a factor block is not unitary"
        # Right-multiplying by a two-level factor mixes only its columns.
        product[:, support] = product[:, support] @ block
    err = float(np.linalg.norm(product - u))
    reported = doc.get("recompose_error")
    if err > DECOMPOSE_TOL:
        return f"factors multiply back to an error of {err:.3e}"
    if not _is_number(reported) or abs(reported - err) > DECOMPOSE_TOL:
        return f"recompose_error {reported!r} disagrees with {err:.3e}"
    return None


# --- Deutsch-Jozsa ----------------------------------------------------------


def _check_dj(spec: dict, doc: dict) -> str | None:
    arity, balanced = spec["arity"], spec["balanced"]
    bits = doc.get("measured_bits")
    if doc.get("verdict") != ("Balanced" if balanced else "Constant"):
        return f"verdict {doc.get('verdict')!r} does not match the table"
    if not isinstance(bits, str) or len(bits) != arity or set(bits) - {"0", "1"}:
        return "measured_bits malformed"
    if ("1" in bits) != balanced:
        return "measured_bits contradict the verdict"
    if doc.get("oracle_calls") != 1:
        return "oracle consulted more than once"
    weight = doc.get("zero_branch_weight")
    if not _is_number(weight) or abs(weight - (0.0 if balanced else 1.0)) > 1e-9:
        return f"zero_branch_weight {weight!r} is wrong"
    return None


_CHECKS = {
    "circuit": _check_circuit,
    "bounds": _check_bounds,
    "decompose": _check_decompose,
    "dj": _check_dj,
}


def check_output(spec: dict, text: str) -> str | None:
    """``None`` if ``text`` is the right stdout for the job, else a reason."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    if not isinstance(doc, dict):
        return "stdout is not a JSON object"
    if "error" in doc:
        return f"error document: {doc['error']}"
    return _CHECKS[spec["kind"]](spec, doc)
