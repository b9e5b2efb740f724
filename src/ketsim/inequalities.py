"""Exact-rational probability bounds and the Bell-inequality machinery.

Everything combinatorial (Boole and Bonferroni bounds, inclusion-
exclusion, the strategy-mix feasibility system) runs in ``fractions
.Fraction`` arithmetic, so the classical contradictions come out as exact
fractions rather than approximations.  Floating point enters only where
trigonometry does, in the quantum pair probabilities.

Atom convention: a distribution over n binary events stores one
probability per truth assignment, indexed so that event i (1-based) is
true in atom ``b`` exactly when bit n-i of ``b`` is set; the bit pattern
of ``b`` therefore reads A1 A2 ... An left to right.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidInput

MAX_EVENTS = 10

Rational = Fraction | int


@dataclass(frozen=True)
class EventDistribution:
    """Exact distribution over the 2**n truth-assignment atoms of n events."""

    num_events: int
    atom_probs: tuple[Fraction, ...]

    def __post_init__(self):
        n = self.num_events
        if not 1 <= n <= MAX_EVENTS:
            raise InvalidInput(f"number of events must be in [1, {MAX_EVENTS}], got {n}")
        atoms = tuple(Fraction(a) for a in self.atom_probs)
        if len(atoms) != 1 << n:
            raise InvalidInput(f"{n} events need {1 << n} atoms, got {len(atoms)}")
        if any(a < 0 for a in atoms):
            raise InvalidInput("atom probabilities must be nonnegative")
        total = sum(atoms)
        if total != 1:
            raise InvalidInput(
                f"atom probabilities must sum to 1 exactly; residual {total - 1}"
            )
        object.__setattr__(self, "atom_probs", atoms)

    def event_probs(self) -> tuple[Fraction, ...]:
        """Individual probabilities p_1 ... p_n."""
        return tuple(marginal(self, {i}) for i in range(1, self.num_events + 1))

    def union_prob(self) -> Fraction:
        """P(at least one event): everything except the all-false atom."""
        return 1 - self.atom_probs[0]


def _event_mask(d: EventDistribution, events: Iterable[int]) -> int:
    """Atom bit mask of the listed 1-based events."""
    events = frozenset(events)
    if any(not 1 <= i <= d.num_events for i in events):
        raise InvalidInput(f"event indices must lie in [1, {d.num_events}]")
    mask = 0
    for i in events:
        mask |= 1 << (d.num_events - i)
    return mask


def _joint_prob(d: EventDistribution, mask: int) -> Fraction:
    # P(all events of ``mask``): the atoms whose index has every mask bit set.
    return sum(
        (p for b, p in enumerate(d.atom_probs) if b & mask == mask),
        start=Fraction(0),
    )


def marginal(d: EventDistribution, subset: Iterable[int]) -> Fraction:
    """Probability that every event in ``subset`` occurs; 1 for the empty set."""
    return _joint_prob(d, _event_mask(d, subset))


def _check_unit_interval(values: Sequence[Rational]) -> list[Fraction]:
    probs = [Fraction(v) for v in values]
    if not probs:
        raise InvalidInput("at least one probability is required")
    if any(not 0 <= p <= 1 for p in probs):
        raise InvalidInput("probabilities must lie in [0, 1]")
    return probs


def boole_union_bounds(p: Sequence[Rational]) -> tuple[Fraction, Fraction]:
    """Best bounds on P(union) knowing only the individual probabilities:
    max p_i <= P(union) <= min(1, sum p_i)."""
    probs = _check_unit_interval(p)
    return max(probs), min(Fraction(1), sum(probs))


def boole_intersection_bounds(p: Sequence[Rational]) -> tuple[Fraction, Fraction]:
    """Best bounds on P(intersection) from the individual probabilities:
    max(0, sum p_i - n + 1) <= P(intersection) <= min p_i."""
    probs = _check_unit_interval(p)
    return max(Fraction(0), sum(probs) - len(probs) + 1), min(probs)


def poincare_union(d: EventDistribution) -> Fraction:
    """Inclusion-exclusion: alternating sum of all intersection marginals."""
    total = Fraction(0)
    for mask in range(1, 1 << d.num_events):
        term = _joint_prob(d, mask)
        total += term if mask.bit_count() % 2 else -term
    return total


def _bonferroni_of_relabeled(d: EventDistribution, mask: int) -> Fraction:
    # An atom with exactly k true events lies in k single marginals and
    # C(k, 2) pair marginals, so it enters the bound with weight k - C(k, 2).
    n = d.num_events
    groups = [Fraction(0)] * (n + 1)
    for b, p in enumerate(d.atom_probs):
        groups[(b ^ mask).bit_count()] += p
    return sum(
        ((k - k * (k - 1) // 2) * g for k, g in enumerate(groups)),
        start=Fraction(0),
    )


def bonferroni_lower(d: EventDistribution) -> Fraction:
    """Lower bound sum p_i - sum_{i<j} p_ij on the union probability."""
    return _bonferroni_of_relabeled(d, 0)


def complement_events(d: EventDistribution, complemented: Iterable[int]) -> EventDistribution:
    """The same distribution with the listed events replaced by their negations.

    Complementing event i flips its truth bit in every atom, so the atoms
    are relabeled by xor with the corresponding mask.
    """
    mask = _event_mask(d, complemented)
    relabeled = [Fraction(0)] * len(d.atom_probs)
    for b, p in enumerate(d.atom_probs):
        relabeled[b ^ mask] = p
    return EventDistribution(d.num_events, tuple(relabeled))


def bonferroni_variants(d: EventDistribution, complemented: Iterable[int]) -> Fraction:
    """Bonferroni lower bound after complementing the listed events.

    Equals ``bonferroni_lower(complement_events(d, complemented))`` but
    skips materializing the relabeled distribution, since complementing
    only xors each atom index.  Ranging over all 2**n - 1 nonempty
    complement patterns generates the full family of independent
    inequalities; the n = 3 instances are the classical Bell inequalities.
    """
    return _bonferroni_of_relabeled(d, _event_mask(d, complemented))


# --- strategy feasibility for the three-experiment correlation targets ---

#: The 8 deterministic joint strategies: answers to experiments (A, B, C),
#: written with the outcome alphabet R/S.
STRATEGIES_FULL: tuple[tuple[str, str, str], ...] = (
    ("R", "R", "R"),
    ("R", "R", "S"),
    ("R", "S", "R"),
    ("R", "S", "S"),
    ("S", "R", "R"),
    ("S", "R", "S"),
    ("S", "S", "R"),
    ("S", "S", "S"),
)

#: Same-answer frequencies only see whether answers agree, so each strategy
#: is equivalent to its overall flip: (1,8), (4,5), (3,6), (2,7) in 1-based
#: numbering.  The reduced table keeps the representative with A = R.
EQUIVALENT_STRATEGY_PAIRS: tuple[tuple[int, int], ...] = ((1, 8), (4, 5), (3, 6), (2, 7))

STRATEGIES_REDUCED: tuple[tuple[str, str, str], ...] = STRATEGIES_FULL[:4]


@dataclass(frozen=True)
class StrategyMix:
    """Mixture weights over the four reduced joint strategies."""

    weights: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        if sum(self.weights) != 1:
            raise InvalidInput("strategy weights must sum to 1")


@dataclass(frozen=True)
class BellEffectResult:
    """Outcome of the feasibility solve: a valid mix, or the most negative
    weight as an exact witness of impossibility."""

    feasible: bool
    mix: StrategyMix | None
    witness: Fraction | None


def bell_effect_solve(
    f_ab: Rational, f_bc: Rational, f_ac: Rational
) -> BellEffectResult:
    """Solve for strategy-mix weights reproducing same-answer frequencies.

    Over the reduced strategies, pair (A, B) agrees under strategies 1 and
    2, (B, C) under 1 and 4, and (A, C) under 1 and 3; together with the
    normalization this is a 4x4 linear system with the unique exact
    solution computed here.  Weights are a probability mixture only if all
    are nonnegative, which the targets (3/4, 3/4, 1/4) famously violate
    with witness -1/8.
    """
    f_ab, f_bc, f_ac = _check_unit_interval([f_ab, f_bc, f_ac])
    alpha = (f_ab + f_bc + f_ac - 1) / 2
    beta = f_ab - alpha
    delta = f_bc - alpha
    gamma = f_ac - alpha
    weights = (alpha, beta, gamma, delta)
    if all(w >= 0 for w in weights):
        return BellEffectResult(True, StrategyMix(weights), None)
    return BellEffectResult(False, None, min(weights))


# --- the Bell expression and its quantum evaluation ---


@dataclass(frozen=True)
class BellSetting:
    """Measurement angles: two per particle."""

    alpha1: float
    alpha2: float
    beta1: float
    beta2: float

    def __post_init__(self):
        for value in (self.alpha1, self.alpha2, self.beta1, self.beta2):
            if not math.isfinite(value):
                raise InvalidInput("angles must be finite")


class PairProbs(NamedTuple):
    """Joint and single-particle outcome probabilities for one angle pair."""

    pp: float
    pm: float
    mp: float
    mm: float
    p1_plus: float
    p2_plus: float


def quantum_pair_probs(alpha: float, beta: float) -> PairProbs:
    """Singlet-state outcome probabilities for spin measurements at two angles.

    Equal results occur with probability sin((alpha-beta)/2)**2 / 2 per
    sign, opposite results with cos((alpha-beta)/2)**2 / 2 per sign, and
    every single-particle marginal is 1/2.  Measuring both particles along
    the same angle therefore always gives opposite results.
    """
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise InvalidInput("angles must be finite")
    # halve first: alpha - beta can overflow to inf for finite angles
    half = alpha / 2.0 - beta / 2.0
    same = 0.5 * math.sin(half) ** 2
    diff = 0.5 * math.cos(half) ** 2
    return PairProbs(pp=same, pm=diff, mp=diff, mm=same, p1_plus=0.5, p2_plus=0.5)


def bell_expression(
    p11_pp: Rational | float,
    p12_pp: Rational | float,
    p22_pp: Rational | float,
    p21_pp: Rational | float,
    p1_alpha1_plus: Rational | float,
    p2_beta2_plus: Rational | float,
):
    """The Bell combination of (+,+) joints and two marginals.

    value = p(a1,b1|++) + p(a1,b2|++) + p(a2,b2|++) - p(a2,b1|++)
            - p1(a1|+) - p2(b2|+)

    Any local model keeps the value in [-1, 0]; no clamping is applied, so
    quantum inputs may and do leave that window.  Exact inputs (Fractions)
    are combined exactly.
    """
    values = (p11_pp, p12_pp, p22_pp, p21_pp, p1_alpha1_plus, p2_beta2_plus)
    if any(not 0 <= v <= 1 for v in values):
        raise InvalidInput("probabilities must lie in [0, 1]")
    return p11_pp + p12_pp + p22_pp - p21_pp - p1_alpha1_plus - p2_beta2_plus


class BellViolation(NamedTuple):
    value: float
    excess_below_lower_bound: float


def bell_violation(setting: BellSetting) -> BellViolation:
    """Evaluate the Bell expression on singlet predictions at the given angles.

    ``excess_below_lower_bound`` is how far the value drops below the
    classical floor of -1 (zero when it does not).  At angles
    (pi/3, pi, 0, 2*pi/3) the excess is exactly 1/8.
    """
    value = bell_expression(
        quantum_pair_probs(setting.alpha1, setting.beta1).pp,
        quantum_pair_probs(setting.alpha1, setting.beta2).pp,
        quantum_pair_probs(setting.alpha2, setting.beta2).pp,
        quantum_pair_probs(setting.alpha2, setting.beta1).pp,
        quantum_pair_probs(setting.alpha1, setting.beta1).p1_plus,
        quantum_pair_probs(setting.alpha2, setting.beta2).p2_plus,
    )
    excess = -1.0 - value if value < -1.0 else 0.0
    return BellViolation(value=value, excess_below_lower_bound=excess)


def strategy_bell_inputs(
    strategy: tuple[str, str, str],
) -> tuple[Fraction, Fraction, Fraction, Fraction, Fraction, Fraction]:
    """Bell-expression inputs generated by one deterministic joint strategy.

    Outcomes map R -> + and S -> -.  The expression's four settings are
    identified with the three experiments as alpha1 = A, alpha2 = B,
    beta1 = B, beta2 = C, so its angle pairs visit (A,B), (A,C), (B,C) and
    the diagonal (B,B); both particles answer according to the shared
    strategy.
    """
    if any(answer not in ("R", "S") for answer in strategy) or len(strategy) != 3:
        raise InvalidInput("a strategy assigns R or S to each of A, B, C")
    a, b, c = (Fraction(1) if answer == "R" else Fraction(0) for answer in strategy)
    return (a * b, a * c, b * c, b * b, a, c)


def local_vertex_values() -> list[Fraction]:
    """Exact Bell-expression values of the 8 deterministic strategies.

    All lie in [-1, 0]; the expression is linear, so every mixture of the
    strategies stays in that window too.
    """
    return [bell_expression(*strategy_bell_inputs(s)) for s in STRATEGIES_FULL]
