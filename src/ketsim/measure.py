"""Projective measurement with collapse, and reproducible shot sampling.

Outcomes are drawn by an inverse-CDF walk over branch weights in index
order, which makes tie handling deterministic.  Branch weights below
1e-15 are treated as exactly zero so that floating-point dust never
produces an impossible outcome or a near-null collapsed vector.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityExceeded, InvalidInput
from .rng import RngStream, _check_seed, uniforms
from .state import StateVector, _renormalise, _split_axes, index_to_bits, probabilities

ZERO_BRANCH_EPS = 1e-15

# Uniforms drawn per pass at the root of the shot walk: its memory does not
# grow with shots.
SAMPLE_CHUNK = 1 << 16

# The most shots one run may ask for: beyond it the draws alone take minutes.
MAX_SHOTS = 1 << 32

# Bytes of state the open nodes of the shot walk may hold before deeper
# nodes walk their shots one at a time.
TREE_BYTES = 1 << 28


@dataclass(frozen=True)
class MeasurementOutcome:
    """One observed result: the classical bits, their pre-measurement Born
    weight, and the normalized post-measurement state."""

    bits: tuple[int, ...]
    probability: float
    collapsed: StateVector


@dataclass(frozen=True)
class Histogram:
    """Counts of measured bit patterns over a fixed number of shots."""

    shots: int
    seed: int
    counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise InvalidInput("histogram counts must sum to shots")

    def to_json_dict(self) -> dict:
        return {"shots": self.shots, "seed": self.seed, "counts": dict(self.counts)}


def _branch_cdf(weights: np.ndarray) -> tuple[np.ndarray, int]:
    """Cumulative weights with sub-threshold branches zeroed.

    Returns the CDF and the last index carrying real weight, used to
    absorb draws that land beyond the accumulated total by rounding.
    """
    live = weights >= ZERO_BRANCH_EPS
    if not live.any():
        raise InvalidInput("state has no branch with nonzero weight")
    cdf = np.cumsum(np.where(live, weights, 0.0))
    return cdf, int(np.nonzero(live)[0][-1])


def _draw(cdf: np.ndarray, last_live: int, u: float | np.ndarray) -> np.ndarray:
    """Branch of each uniform in ``u``: the first whose running weight
    exceeds it, or ``last_live`` for a draw past the rounded total."""
    return np.minimum(np.searchsorted(cdf, u, side="right"), last_live)


class _Projection:
    """The measurement of the listed qubits of an n-qubit register, planned
    once: the Born weight of each outcome and the collapse onto one.

    Outcome r packs the listed qubits' bits with the first listed qubit
    most significant.
    """

    __slots__ = ("width", "shape", "order")

    def __init__(self, qubits: Sequence[int], n: int):
        qubits = list(qubits)
        self.width = len(qubits)
        # Views with the listed qubits' axes first: the first k indices spell
        # an outcome and the others run in basis-index order.
        self.shape, self.order = _split_axes(n, qubits)

    def weights(self, s: StateVector) -> np.ndarray:
        born = probabilities(s).reshape(self.shape).transpose(self.order)
        rows = born.reshape(1 << self.width, -1)
        # A running sum adds each outcome's Born weights one at a time in
        # index order; np.sum would pair them up and round differently.
        # With every qubit measured each row is one weight, taken as it is.
        return rows[:, 0] if rows.shape[1] == 1 else np.cumsum(rows, axis=1)[:, -1]

    def collapse(self, s: StateVector, outcome: int, weight: float) -> StateVector:
        """The renormalized projection of ``s`` onto ``outcome`` of Born weight ``weight``."""
        bits = index_to_bits(outcome, self.width)
        collapsed = np.zeros_like(s.amplitudes)
        src = s.amplitudes.reshape(self.shape).transpose(self.order)
        dst = collapsed.reshape(self.shape).transpose(self.order)
        _renormalise(src[(*bits, ...)], weight, dst[(*bits, ...)])
        return StateVector._trusted(collapsed)


def measure_subset(s: StateVector, qubits: Sequence[int], rng: RngStream) -> MeasurementOutcome:
    """Measure the listed qubits jointly; unmeasured qubits stay quantum.

    The outcome pattern packs the listed qubits' bits with the first
    listed qubit most significant.  The collapsed state is the
    renormalized projection of ``s`` onto the observed pattern.
    """
    projection = _Projection(qubits, s.num_qubits)
    weights = projection.weights(s)
    cdf, last_live = _branch_cdf(weights)
    outcome = int(_draw(cdf, last_live, rng.uniform()))
    return MeasurementOutcome(
        bits=index_to_bits(outcome, projection.width),
        probability=float(weights[outcome]),
        collapsed=projection.collapse(s, outcome, weights[outcome]),
    )


def _check_shots(shots: int) -> int:
    """``shots`` as an int, within 1 to ``MAX_SHOTS``: ints, bools and
    numpy integers pass."""
    try:
        shots = operator.index(shots)
    except TypeError:
        raise InvalidInput(f"shots {shots!r} is not an integer") from None
    if shots < 1:
        raise InvalidInput("shots must be at least 1")
    if shots > MAX_SHOTS:
        raise CapacityExceeded(f"shots exceed the cap of {MAX_SHOTS}")
    return shots


class _Node:
    """A measurement on the walk's depth-first path: the state it measures,
    with its outcome weights and CDF, the rows of shots still to draw, and
    the outcomes drawn but not yet walked (last first) with their rows."""

    __slots__ = ("state", "projection", "pos", "bits", "rows", "per", "weights", "cdf",
                 "last_live", "children")

    def __init__(self, state, projection, pos, bits, rows, per):
        self.state, self.projection, self.pos, self.bits = state, projection, pos, bits
        self.rows, self.per = rows, per
        self.weights = projection.weights(state)
        self.cdf, self.last_live = _branch_cdf(self.weights)
        self.children: list[tuple[int, str, np.ndarray]] = []

    def done(self) -> bool:
        return not (self.children or len(self.rows))

    def child(self, outcome: int) -> StateVector:
        """The collapse onto ``outcome``; the last child drops the parent."""
        state = self.projection.collapse(self.state, outcome, self.weights[outcome])
        if self.done():
            self.state = None
        return state


def walk_shots(
    state: StateVector, steps: Sequence, shots: int, seed: int
) -> Histogram | StateVector:
    """Run ``steps`` from ``state`` for ``shots`` shots: the final state if no
    step measures, else the histogram of each shot's outcomes in step order.

    A step is a gate, a function from a state to a state, or a measurement,
    a ``_Projection``.  At its j-th of m measurements shot i draws uniform
    number i·m + j of the stream seeded with ``seed`` (``rng.uniforms``), so
    each shot draws what one replay of the steps off one stream would, in
    whatever order the walk reaches it.  ``run_program``, ``sample``,
    ``teleport`` and ``deutsch_jozsa`` all measure through it.

    The walk goes depth first over the tree of outcomes.  Gates run once
    per node, not once per shot.  At a measurement the weights and CDF are
    computed once, every shot at the node draws through ``_draw``, and the
    state is collapsed once per distinct outcome, with ``measure_subset``'s
    collapse.  The last measurement is the leaf: its outcomes are counted
    and nothing is collapsed; later gates cannot change the counts and are
    not run.  The root draws at most ``SAMPLE_CHUNK`` uniforms at a time,
    so memory does not grow with shots.  A node drops its state before its
    last child is walked, and once the open nodes' states reach
    ``TREE_BYTES``, each further node walks its shots one at a time, whose
    nodes then hold no state while their subtree is walked.
    """
    seed = _check_seed(seed)
    marks = [pos for pos, step in enumerate(steps) if isinstance(step, _Projection)]
    measured = {pos: j for j, pos in enumerate(marks)}  # position -> j
    m = len(marks)
    leaf = max(measured, default=len(steps))  # the last measurement
    steps = steps[: leaf + 1]
    root_per = max(1, SAMPLE_CHUNK // max(m, 1))  # shots per root slice
    depth_cap = TREE_BYTES // state.amplitudes.nbytes  # states the path may hold
    counts: dict[str, int] = {}
    path: list[_Node] = []
    pos, bits, rows = 0, "", range(shots)
    while True:
        # `state` is the only reference to the state being advanced, so
        # each gate's input is freed once the gate is applied
        while pos < len(steps) and pos not in measured:
            state = steps[pos](state)
            pos += 1
        if not m:
            return state
        # past the budget a node walks its shots one at a time: each of
        # them reaches nodes of one child, which drop their state at once
        per = 1 if len(path) >= depth_cap and pos < leaf else root_per
        path.append(_Node(state, steps[pos], pos, bits, rows, per))
        del state
        while path and not path[-1].children:
            node = path[-1]
            if node.done():
                path.pop()
                continue
            take, node.rows = node.rows[: node.per], node.rows[node.per :]
            if isinstance(take, range):  # a slice of the root: its shots' uniforms
                draws = uniforms(seed, take.start * m, len(take) * m).reshape(-1, m)
                take = np.arange(len(take))
            outcomes = _draw(node.cdf, node.last_live, draws[take, measured[node.pos]])
            width = node.projection.width
            if node.pos == leaf:
                values, freq = np.unique(outcomes, return_counts=True)
                for value, count in zip(values.tolist(), freq.tolist()):
                    key = node.bits + format(value, f"0{width}b")
                    counts[key] = counts.get(key, 0) + count
                continue
            order = np.argsort(outcomes, kind="stable")
            values, starts = np.unique(outcomes[order], return_index=True)
            groups = np.split(take[order], starts[1:])
            node.children = [
                (value, format(value, f"0{width}b"), group)
                for value, group in zip(values.tolist(), groups)
            ][::-1]
        if not path:
            return Histogram(shots=shots, seed=seed, counts=dict(sorted(counts.items())))
        node = path[-1]
        outcome, label, rows = node.children.pop()
        if node.done():
            path.pop()
        state = node.child(outcome)
        pos, bits = node.pos + 1, node.bits + label


def sample(s: StateVector, shots: int, seed: int) -> Histogram:
    """Histogram of ``shots`` independent full measurements of copies of ``s``.

    Shot i lands where :func:`measure_subset` of every qubit would land it
    with uniform number i of the stream seeded with ``seed``, so results
    are reproducible bit for bit; this is the walk of one trailing
    ``measure`` (:func:`walk_shots`), which draws ``SAMPLE_CHUNK`` uniforms
    at a time and so bounds memory for any shot count up to ``MAX_SHOTS``.
    Keys are bit patterns with qubit 0 leftmost, sorted ascending.
    """
    shots = _check_shots(shots)
    return walk_shots(s, [_Projection(range(s.num_qubits), s.num_qubits)], shots, seed)
