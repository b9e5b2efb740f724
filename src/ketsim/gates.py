"""Gate constants, parameterized unitaries, oracles, and register embeddings.

Matrices are plain complex ndarrays.  The control qubit of CNOT (and the
first qubit of any two-qubit gate) is the *high-order* qubit of the pair,
matching the amplitude ordering (a, b, c, d) -> (a, b, d, c).

Dense matrices are capped at dimension 1024 (10 qubits); anything larger
must be applied through the O(2**n) kernels ``apply_gate_at`` and
``apply_oracle_at`` instead of being materialized.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_

import numpy as np

from .errors import CapacityExceeded, DimensionMismatch, InvalidInput
from .state import StateVector, _check_qubits, _split_axes, index_to_bits

DENSE_DIM_CAP = 1024

# Amplitudes per block of the kernels, 2**13 (128 KiB): the block, its
# gathered copy and the product all fit in a 2 MiB L2 cache.
_BLOCK_BITS = 13
_BLOCK_BYTES = 16 << _BLOCK_BITS

_SQRT_HALF = math.sqrt(0.5)

# The entries a gate that only moves amplitudes may hold, one per row.
_UNIT_PHASES = (1, -1, 1j, -1j)

# A plan that moves the amplitudes of fewer than 2**_TABLE_QUBITS may keep a
# table of each output's source index, uint16, from its _TABLE_CALL-th call:
# a shot tree calls its later plans once per branch, while a circuit that is
# only run once repeats few of its lines more than twice.
_TABLE_QUBITS = 16
_TABLE_CALL = 3


def _table_size_text(arity: int) -> int | str:
    """2**arity, as a number while Python can print it (4300 digits), else
    as the text ``2**<arity>``."""
    return 1 << arity if arity * math.log10(2) < 4300 else f"2**{arity}"


@dataclass(frozen=True)
class TruthTable:
    """A boolean function f: {0,1}**arity -> {0,1} tabulated over all inputs.

    ``outputs[x]``, a byte 0 or 1, is f at the input whose bits are the
    binary digits of ``x``, most significant first.
    """

    arity: int
    outputs: bytes

    def __post_init__(self):
        if self.arity < 1:
            raise InvalidInput("truth table arity must be at least 1")
        count = len(self.outputs)
        # Bit lengths first: 2**arity is built only when the count could match it.
        if count.bit_length() <= self.arity or count != 1 << self.arity:
            raise InvalidInput(
                f"truth table of arity {self.arity} needs {_table_size_text(self.arity)} "
                f"outputs, got {count}"
            )
        if not isinstance(self.outputs, bytes):  # each entry by ==, not hash or buffer
            bits = bytes(0 if v == 0 else 1 if v == 1 else 2 for v in self.outputs)
            object.__setattr__(self, "outputs", bits)
        if self.outputs.translate(None, b"\0\1"):
            raise InvalidInput("truth table outputs must be 0 or 1")

    @cached_property
    def ones(self) -> int:
        return self.outputs.count(1)

    def is_constant(self) -> bool:
        return self.ones in (0, len(self.outputs))

    def is_balanced(self) -> bool:
        return self.ones * 2 == len(self.outputs)


def identity(dim: int = 2) -> np.ndarray:
    return np.eye(dim, dtype=np.complex128)


def pauli_x() -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=np.complex128)


def pauli_y() -> np.ndarray:
    return np.array([[0, -1j], [1j, 0]], dtype=np.complex128)


def pauli_z() -> np.ndarray:
    return np.array([[1, 0], [0, -1]], dtype=np.complex128)


def hadamard() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT_HALF


def u2_from_params(a: float, b: float, c: float, d: float) -> np.ndarray:
    """General 2x2 unitary: global phase e^{ia} times three rotation factors.

    The factors are, in order: an XX-axis rotation by ``b``, a plane
    rotation by ``c``, and a relative phase by ``d``.  Every 2x2 unitary
    arises from some choice of the four angles.  The entries are formed in
    Python scalars, so their bits do not depend on the CPU's BLAS kernels.
    """
    for value in (a, b, c, d):
        if not math.isfinite(value):
            raise InvalidInput("u2 parameters must be finite")
    # e^{ia} [[cb, -i sb], [-i sb, cb]] [[cc, -sc], [sc, cc]] diag(e^{-id}, e^{id})
    cb, sb, cc, sc = math.cos(b), math.sin(b), math.cos(c), math.sin(c)
    phase, turn = complex(math.cos(a), math.sin(a)), complex(math.cos(d), math.sin(d))
    p0, p1 = phase * turn.conjugate(), phase * turn  # unit phases: a ± d may overflow
    return np.array([[complex(cb * cc, -sb * sc) * p0, complex(-cb * sc, -sb * cc) * p1],
                     [complex(cb * sc, -sb * cc) * p0, complex(cb * cc, sb * sc) * p1]])


def cnot() -> np.ndarray:
    """Controlled NOT on two qubits, control = high-order qubit."""
    return np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=np.complex128
    )


def toffoli_unitary() -> np.ndarray:
    """8x8 permutation |a,b,c> -> |a,b,c xor ab| lifting the classical gate."""
    m = np.eye(8, dtype=np.complex128)
    m[[6, 7]] = m[[7, 6]]
    return m


def classical_toffoli(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Reversible classical gate (a, b, c) -> (a, b, c xor ab)."""
    for bit in (a, b, c):
        if bit not in (0, 1):
            raise InvalidInput(f"bits must be 0 or 1, got {bit!r}")
    return a, b, c ^ (a & b)


def nand_via_toffoli(a: int, b: int) -> int:
    """NAND computed reversibly: the third output of Toffoli with c = 1."""
    return classical_toffoli(a, b, 1)[2]


def bell_pair(i: int, j: int) -> StateVector:
    """The four maximally entangled 2-qubit states, indexed by two bits.

    (0,0) and (1,0) are (|00> +/- |11>)/sqrt(2); (0,1) and (1,1) are
    (|01> +/- |10>)/sqrt(2).
    """
    if i not in (0, 1) or j not in (0, 1):
        raise InvalidInput("bell_pair indices must be bits")
    sign = -1.0 if i else 1.0
    if j == 0:
        amps = [_SQRT_HALF, 0.0, 0.0, sign * _SQRT_HALF]
    else:
        amps = [0.0, _SQRT_HALF, sign * _SQRT_HALF, 0.0]
    return StateVector(amps)


def is_unitary(m: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether ||M* M - I||_F <= tol for a square matrix.  An entry of modulus
    above 1 (or NaN) fails first, so the Gram product cannot overflow."""
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not (np.abs(m) <= 1 + tol).all():
        return False
    gram = m.conj().T @ m
    return bool(np.linalg.norm(gram - np.eye(m.shape[0])) <= tol)


def _check_dense_dim(dim: int) -> None:
    if dim > DENSE_DIM_CAP:
        raise CapacityExceeded(
            f"dense matrix of dimension {dim} exceeds the cap of {DENSE_DIM_CAP}; "
            "use apply_gate_at / apply_oracle_at instead"
        )


def _spread(value: int, positions: list[int]) -> int:
    """The int whose bit ``positions[i]`` is bit i of ``value``."""
    return sum(((value >> i) & 1) << b for i, b in enumerate(positions))


class _IndexGather:
    """A permutation flipping target bits of each basis index: output i is
    input i with the target bits set in flips[p] flipped, p the pattern of
    i's target bits (in both, the first target is most significant).
    By its index bits of s and up, each block of 2**s outputs
    is one run of the input or one ``np.take`` through a table of 2**s
    indices above a base.  It runs on states of 2**16 amplitudes and up,
    where no plan keeps a table: a call builds its tables, at most 2**14
    entries (128 KiB), and drops them.  Copies keep every bit and signed
    zero."""

    __slots__ = ("size", "low", "high", "flips", "moves")

    @classmethod
    def plan(cls, targets: list[int], n: int, flips: np.ndarray) -> _IndexGather | None:
        """The gather, or None where it is slower: below 2**16 amplitudes,
        where building tables costs more than a call saves, and where a block
        holds at most 2**8 runs of the innermost target, as slice copies pay
        per run.  The block is the largest up to 2**13 whose tables fit.
        ``flips`` broadcasts to one axis per target, indexed by p's bits."""
        if n < 16:
            return None
        bits = [n - 1 - q for q in targets]
        s = _BLOCK_BITS
        while s + sum(b >= s for b in bits) > 14:  # one table per pattern above s
            s -= 1
        if min(bits) + 8 >= s:
            return None
        self = cls.__new__(cls)
        # each pattern's flip as index bits: pattern bit i is target -1 - i
        flips = np.broadcast_to(flips, (2,) * len(bits)).ravel().tolist()
        deltas = [_spread(f, bits[::-1]) for f in flips]
        # (index bit, pattern bit) of the targets below and above bit s
        low = [(b, len(bits) - 1 - t) for t, b in enumerate(bits) if b < s]
        high = [(b, len(bits) - 1 - t) for t, b in enumerate(bits) if b >= s]
        # the index bits of s and up that some delta flips: a block's base clears them
        self.size, self.flips = 1 << s, reduce(or_, deltas) >> s << s
        self.low, self.high = [b for b, _ in low], sum(1 << b for b, _ in high)
        patterns = [_spread(a, [p for _, p in low]) for a in range(1 << len(low))]
        self.moves = {}  # by block start: source - base - offset, per low assignment
        for a in range(1 << len(high)):
            start, pattern = _spread(a, [b for b, _ in high]), _spread(a, [p for _, p in high])
            moves = [(start & self.flips) ^ deltas[pattern | p] for p in patterns]
            run = moves.count(moves[0]) == len(moves) and not moves[0] % self.size
            self.moves[start] = moves[0] if run else np.array(moves)
        return self

    def __call__(self, amps: np.ndarray) -> np.ndarray:
        size, offsets = self.size, np.arange(self.size)
        column = offsets * 0  # the assignment of the low targets at each offset
        for i, b in enumerate(self.low):
            column |= ((offsets >> b) & 1) << i
        sources = {start: m if type(m) is int else offsets ^ m[column]
                   for start, m in self.moves.items()}
        src = amps.reshape(-1)
        out = np.empty_like(src)
        for start in range(0, src.size, size):
            source, base = sources[start & self.high], start & ~self.flips
            if type(source) is int:
                out[start : start + size] = src[base + source : base + source + size]
            else:  # every index is in range; "clip" spares a buffered ``out``
                np.take(src[base:], source, out=out[start : start + size], mode="clip")
        return out.reshape(amps.shape)


class _GatePlan:
    """One step on the ``targets`` of 2**n amplitudes (qubit 0 most
    significant), planned once: gate ``g``, or the oracle of a truth table
    through ``_GatePlan.oracle``.  ``apply(amps)`` returns a fresh array
    with the step applied; calling the plan applies it to a state's
    amplitudes.  A gate plan checks the targets, then the gate's shape,
    then its entries.

    The first target is the gate's high-order qubit.  On a reshape of the
    amplitudes that copies nothing, output slice r (the amplitudes whose
    target bits spell r) is the sum over the gate's columns c of g[r, c]
    times input slice c.  When each row of g holds one nonzero entry, 1,
    -1, i or -i, and their columns form a permutation, that sum is input
    slice r ^ flips[r] times a unit phase: the step only moves amplitudes,
    as an oracle does, and ``_plan_moves`` picks its kernel from those
    moves alone.  Its output state skips the norm pass.

    Any other gate is matrix products: per amplitude the same products,
    summed in the same order, as one contraction of the whole state.  A
    1-qubit gate whose runs hold at least 256 amplitudes multiplies strided
    views of the state (zgemm's bits depend on neither stride nor column
    count); any other gate gathers the 2**k input slices of one cache-sized
    block at a time into a buffer and multiplies that.
    """

    __slots__ = ("k", "shape", "order", "g", "gather", "mask", "flipped", "copies",
                 "table", "calls", "axis", "step", "block_shape")

    def __init__(self, g: np.ndarray, targets: Sequence[int], n: int):
        targets = list(targets)
        self._start(targets, n)
        k = self.k
        g = np.asarray(g, dtype=np.complex128)
        if g.shape != (1 << k, 1 << k):
            raise DimensionMismatch(f"gate shape {g.shape} does not act on {k} qubits")
        # the input slice and unit phase of each output slice, while rows
        # hold one nonzero entry, their sum, and it is a unit phase
        columns, phases = [], []
        for row in g.tolist():
            if row.count(0) != len(row) - 1 or (entry := sum(row)) not in _UNIT_PHASES:
                break
            columns.append(c := row.index(entry))
            phases.append(row[c])
        # Only a gate whose columns form a permutation moves: its output needs
        # no norm pass.  Rows that repeat a column (not unitary) take the
        # products below, whose norm pass rejects the output.  Every entry
        # of a moving gate is 0 or a unit phase, so only products check that
        # the entries are finite.
        if sorted(columns) == list(range(1 << k)):
            flips = [r ^ c for r, c in enumerate(columns)]
            return self._plan_moves(targets, n, np.array(flips).reshape((2,) * k),
                                    reduce(or_, flips), phases if set(phases) != {1} else None)
        if not np.isfinite(g).all():
            raise InvalidInput("gate entries must be finite")
        self.g, self.block_shape = g, None
        if k == 1 and n - 1 - targets[0] >= 8:  # runs of 256: the state's own rows
            return
        # Otherwise gather one block at a time.  Blocks cut the outermost
        # non-target axis with at least ``count`` entries (else the longest),
        # so that each block is a few contiguous runs (at count 1, one block).
        # Every size is a power of two: the blocks are equal and share buffers.
        viewed = [self.shape[a] for a in self.order]
        count = max(1, (16 << n) // _BLOCK_BYTES)
        rest = range(k, len(viewed))
        longest = max(rest, key=viewed.__getitem__, default=None)
        axis = next((a for a in rest if viewed[a] >= count), longest)
        if axis is None:
            axis, step = 0, 2  # every axis is a target: one block, the whole view
        else:
            step = max(1, viewed[axis] // count)
        viewed[axis], self.axis, self.step = step, axis, step
        self.block_shape = tuple(viewed)

    @classmethod
    def oracle(cls, f: TruthTable, targets: Sequence[int], n: int) -> _GatePlan:
        """The oracle of ``f`` on ``targets``, the arity input qubits and
        then the output qubit: pattern 2x + y flips its output bit where
        f(x) = 1.  It checks the target count (arity + 1), then the targets."""
        targets = list(targets)
        if len(targets) != f.arity + 1:
            raise InvalidInput(f"oracle of arity {f.arity} needs {f.arity + 1} targets, "
                               f"got {len(targets)}")
        self = cls.__new__(cls)
        self._start(targets, n)
        # f(x) as a bool is 1, the output bit's flip, so a mask cut from
        # these flips is a view of f.outputs
        flips = np.frombuffer(f.outputs, dtype=bool).reshape((2,) * f.arity + (1,))
        self._plan_moves(targets, n, flips, 1 if f.ones else 0, None)
        return self

    def _start(self, targets: list[int], n: int) -> None:
        self.k = len(targets)
        self.shape, self.order = _split_axes(n, targets)
        self.g = self.gather = self.mask = self.copies = self.table = self.calls = None

    def _plan_moves(self, targets: list[int], n: int, flips: np.ndarray, flipped: int,
                    phases: list[complex] | None) -> None:
        """The kernel of a step whose output slice r is input slice
        r ^ flips[r] times phases[r], from those moves, n and the targets
        alone.  ``flips`` broadcasts to one axis per target, in listed
        order, indexed by r's bits; ``flipped`` is the bits some flip
        sets; ``phases`` lists the unit phases in pattern order, or is
        None where every one is 1.  The kernel is:

        - where every phase is 1, an ``_IndexGather`` where its plan finds
          that faster;
        - else, with more than 8 slices, every phase 1 and at most one
          target bit flipped (an oracle of arity 3 and up), one ``np.where``
          pass: the input flipped along that target's axis where the flips
          are nonzero, else the input;
        - else one pass per output slice: a copy, ``0.0 - x`` for -1, so
          that a negated zero part is +0.0 as the dense product's sums make
          it, or numpy's complex product for i and -i.

        Below 2**16 amplitudes a step whose phases are all 1, with 8 or
        more slices or an innermost target whose runs hold at most
        2**(k+1) amplitudes, keeps from its ``_TABLE_CALL``-th call each
        output's source index in one flat uint16 table, 2 bytes per
        amplitude, and from then on is one ``np.take`` through it.  A take
        and a phase pass cost more than a pass per slice, so signed steps
        keep none.  ``calls`` counts the calls so far, or is None for a
        plan that keeps no table."""
        k, permutes = self.k, phases is None
        if permutes and (gather := _IndexGather.plan(targets, n, flips)) is not None:
            self.gather = gather
            return
        if permutes and k > 3 and not flipped & (flipped - 1):
            # A permutation that flips one bit flips it on both patterns of a
            # pair, so no flip depends on that bit: one entry per pattern of
            # the other targets, size 1 along the flipped target (any target
            # where no bit flips) and the other axes, in listed-first order,
            # then moved to the view's order.
            t = k - max(1, flipped.bit_length())
            mask = flips[(slice(None),) * t + (slice(1),)]
            mask = mask.reshape(mask.shape + (1,) * (len(self.shape) - k))
            self.mask = mask.astype(bool, copy=False).transpose(np.argsort(self.order))
            self.flipped = self.order[t]
        else:  # (output slice, input slice, phase)
            bits = [index_to_bits(r, k) for r in range(1 << k)]
            flips = (np.zeros((2,) * k, flips.dtype) | flips).ravel().tolist()  # broadcast
            self.copies = tuple((bits[r], bits[r ^ f], 1 if permutes else phases[r])
                                for r, f in enumerate(flips))
        if permutes and n < _TABLE_QUBITS and (k >= 3 or n - 1 - max(targets) <= k + 1):
            self.calls = 0

    def _move(self, values: np.ndarray) -> np.ndarray:
        if self.mask is not None:
            view = values.reshape(self.shape)
            return np.where(self.mask, np.flip(view, self.flipped), view).reshape(values.shape)
        # Views with the target axes first: indexing their first k axes
        # with the bits of r picks slice r.
        out = np.empty(self.shape, dtype=values.dtype)
        src, dst = values.reshape(self.shape).transpose(self.order), out.transpose(self.order)
        for r, c, phase in self.copies:
            if phase == 1:
                dst[r] = src[c]
            elif phase == -1:  # 0.0 - x: a negated zero part is +0.0, as in the dense product
                np.subtract(0.0, src[c], out=dst[(*r, ...)])  # ``...``: an array at k = n
            else:  # each nonzero part is a part of the input, moved or negated
                np.multiply(src[c], phase, out=dst[(*r, ...)])
        return out.reshape(values.shape)

    def apply(self, amps: np.ndarray) -> np.ndarray:
        if self.gather is not None:
            return self.gather(amps)
        if self.g is None:
            if self.table is None and self.calls is not None:
                self.calls += 1
                if self.calls == _TABLE_CALL:
                    self.table = self._move(np.arange(amps.size, dtype=np.uint16))
            if self.table is None:
                return self._move(amps)
            return np.take(amps, self.table, mode="clip").reshape(amps.shape)  # all in range
        out = np.empty(self.shape, dtype=np.complex128)
        if self.block_shape is None:
            # (row, column block, 2, columns), 4096 columns per product
            run = self.shape[-1]
            cols = min(run, _BLOCK_BYTES // 32)
            view = lambda a: a.reshape(-1, 2, run // cols, cols).transpose(0, 2, 1, 3)
            np.matmul(self.g, view(amps), out=view(out))
            return out.reshape(amps.shape)
        src = amps.reshape(self.shape).transpose(self.order)
        dst = out.transpose(self.order)
        gathered = np.empty(self.block_shape, dtype=np.complex128)
        product = np.empty_like(gathered)
        rows_in, rows_out = gathered.reshape(1 << self.k, -1), product.reshape(1 << self.k, -1)
        head = (slice(None),) * self.axis
        for start in range(0, src.shape[self.axis], self.step):
            block = (*head, slice(start, start + self.step))
            gathered[...] = src[block]
            np.matmul(self.g, rows_in, out=rows_out)
            dst[block] = product
        return out.reshape(amps.shape)

    def __call__(self, s: StateVector) -> StateVector:
        out = self.apply(s.amplitudes)
        return StateVector._moved(out) if self.g is None else StateVector._trusted(out)


def _embed(g: np.ndarray, targets: list[int], n: int) -> np.ndarray:
    # The columns of the identity, each a basis state, pass through the
    # kernel: row-major, they are the low n qubits of a 2n-qubit register.
    # The plan checks the targets against 2n qubits, so here they meet n.
    _check_qubits(targets, n)
    dim = 1 << n
    _check_dense_dim(dim)
    return _GatePlan(g, targets, 2 * n).apply(identity(dim))


def embed_single(g: np.ndarray, i: int, n: int) -> np.ndarray:
    """Extend a 1-qubit gate to act on qubit ``i`` of an n-qubit register."""
    return _embed(g, [i], n)


def embed_two(g: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Extend a 2-qubit gate to the ordered qubit pair (i, j) of n qubits.

    Qubit ``i`` plays the gate's high-order role (the control, for CNOT);
    all other qubits are left untouched.
    """
    return _embed(g, [i, j], n)


def apply(g: np.ndarray, s: StateVector) -> StateVector:
    """Matrix-vector action of a full-register gate on a state."""
    g = np.asarray(g, dtype=np.complex128)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise DimensionMismatch(f"gate must be square, got shape {g.shape}")
    if g.shape[0] != s.dim:
        raise DimensionMismatch(
            f"gate dimension {g.shape[0]} does not match state dimension {s.dim}"
        )
    return StateVector(g @ s.amplitudes)


def apply_gate_at(g: np.ndarray, targets: Sequence[int], s: StateVector) -> StateVector:
    """Apply a small gate to the listed qubits without materializing 2**n x 2**n.

    Equivalent to ``apply(embed_...(g, ...), s)`` but runs in O(2**n)
    amplitude updates.  The first listed qubit is the gate's high-order
    qubit.
    """
    return _GatePlan(g, targets, s.num_qubits)(s)


def oracle_from_truth_table(f: TruthTable) -> np.ndarray:
    """Reversible lift of f on arity+1 qubits: |x>|y> -> |x>|y xor f(x)>.

    The result is a 0/1 permutation matrix and its own inverse.
    """
    dim = 2 << f.arity
    _check_dense_dim(dim)
    # Row b is basis row b with its last bit, the output, xored by f of
    # the bits above it.
    rows = np.arange(dim)
    return identity(dim)[rows ^ np.frombuffer(f.outputs, dtype=np.uint8)[rows >> 1]]


def apply_oracle_at(f: TruthTable, targets: Sequence[int], s: StateVector) -> StateVector:
    """O(2**n) kernel for the oracle of ``f``: the reversible lift of f,
    planned by ``_GatePlan.oracle`` and moved by the kernels of a
    permutation gate with the same moves.

    ``targets`` lists the arity input qubits (first = x1) followed by the
    output qubit that receives y xor f(x).
    """
    return _GatePlan.oracle(f, targets, s.num_qubits)(s)


def walsh_hadamard(n: int) -> np.ndarray:
    """n-fold tensor power of the Hadamard gate.

    Applied to |0...0> it produces the uniform superposition of all 2**n
    basis states with amplitude 2**(-n/2) each.
    """
    if n < 1:
        raise InvalidInput("walsh_hadamard needs n >= 1")
    _check_dense_dim(1 << n)
    return reduce(np.kron, [hadamard()] * n)


def basis_cloner(n: int) -> np.ndarray:
    """Permutation unitary on C^n x C^n copying every basis state.

    Maps |i>|blank> -> |i>|i> with the blank sheet fixed at basis index 0.
    The remaining columns are completed to a bijection deterministically:
    source pairs (i, j), j != 0, are scanned with j outermost and assigned
    the lexicographically smallest target pair not yet used.  By linearity
    the same map sends a superposition to an entangled state rather than
    to its product clone, which is the no-cloning obstruction.
    """
    if not 2 <= n <= 32:
        raise InvalidInput(f"basis_cloner supports 2 <= n <= 32, got {n}")
    mapping: dict[tuple[int, int], tuple[int, int]] = {(i, 0): (i, i) for i in range(n)}
    # the targets taken so far are exactly the diagonal pairs
    free = iter((k, l) for k in range(n) for l in range(n) if k != l)
    for j in range(1, n):
        for i in range(n):
            mapping[(i, j)] = next(free)
    out = np.zeros((n * n, n * n), dtype=np.complex128)
    for (i, j), (k, l) in mapping.items():
        out[k * n + l, i * n + j] = 1.0
    return out
