import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ketsim import (
    BellSetting,
    EventDistribution,
    InvalidInput,
    RngStream,
    bell_effect_solve,
    bell_expression,
    bell_violation,
    bonferroni_lower,
    bonferroni_variant_table,
    bonferroni_variants,
    boole_intersection_bounds,
    boole_union_bounds,
    complement_events,
    local_vertex_values,
    marginal,
    poincare_union,
    quantum_pair_probs,
    strategy_bell_inputs,
)
from ketsim.inequalities import STRATEGIES_FULL, STRATEGIES_REDUCED, StrategyMix
from conftest import rand_distribution

F = Fraction


def brute_union(d: EventDistribution) -> Fraction:
    """Atom-sum oracle: probability that at least one event is true."""
    return sum(
        (p for b, p in enumerate(d.atom_probs) if b != 0), start=F(0)
    )


def brute_intersection(d: EventDistribution) -> Fraction:
    return d.atom_probs[-1]


class TestEventDistribution:
    def test_atoms_must_sum_to_one(self):
        with pytest.raises(InvalidInput) as err:
            EventDistribution(2, (F(1, 2), F(1, 2), F(1, 16), F(0)))
        assert "1/16" in str(err.value)

    def test_unprintable_residual_is_invalid_input(self):
        # a residual 1/10**5000 would have more digits than Python prints:
        # its denominator is past the cap
        with pytest.raises(InvalidInput, match="common denominator of the atoms exceeds 4000 digits"):
            EventDistribution(1, (F(1, 10**5000), F(0)))
        # under the cap, a 5,000-digit numerator leaves an unprintable residual
        with pytest.raises(InvalidInput, match="residual too long to print"):
            EventDistribution(1, (F(10**5000), F(0)))

    def test_oversized_common_denominator_rejected_early(self):
        # 1,024 odd 100-digit denominators: the lcm passes 4,000 digits after
        # about 40 atoms, and the rest are never folded in
        rng = random.Random(23)
        atoms = tuple(F(1, rng.randrange(10**99, 10**100) | 1) for _ in range(1024))
        start = time.perf_counter()
        with pytest.raises(InvalidInput) as err:
            EventDistribution(10, atoms)
        assert time.perf_counter() - start < 1.0
        assert str(err.value) == "common denominator of the atoms exceeds 4000 digits"

    def test_denominator_cap_after_counts_before_signs(self):
        huge = F(-1, 10**4000)
        with pytest.raises(InvalidInput, match="2 events need 4 atoms, got 2"):
            EventDistribution(2, (huge, F(1)))
        with pytest.raises(InvalidInput, match="common denominator of the atoms exceeds"):
            EventDistribution(1, (huge, F(1)))

    def test_negative_atom_rejected(self):
        with pytest.raises(InvalidInput):
            EventDistribution(1, (F(3, 2), F(-1, 2)))

    def test_event_count_capped(self):
        with pytest.raises(InvalidInput):
            EventDistribution(11, (F(1),) + (F(0),) * ((1 << 11) - 1))


class TestMarginal:
    def test_uniform_single_event(self):
        d = EventDistribution(2, (F(1, 4),) * 4)
        assert marginal(d, {1}) == F(1, 2)

    def test_empty_subset_is_one(self):
        d = EventDistribution(2, (F(1, 4),) * 4)
        assert marginal(d, set()) == 1

    def test_point_mass_full_subset(self):
        d = EventDistribution(2, (F(0), F(0), F(0), F(1)))
        assert marginal(d, {1, 2}) == 1

    def test_bad_indices(self):
        d = EventDistribution(2, (F(1, 4),) * 4)
        with pytest.raises(InvalidInput):
            marginal(d, {3})


class TestBooleBounds:
    def test_union_halves(self):
        assert boole_union_bounds([F(1, 2), F(1, 2)]) == (F(1, 2), F(1))

    def test_union_null_events(self):
        assert boole_union_bounds([F(0), F(0), F(0)]) == (F(0), F(0))

    def test_union_quarter_third(self):
        assert boole_union_bounds([F(1, 4), F(1, 3)]) == (F(1, 3), F(7, 12))

    def test_intersection_certain(self):
        assert boole_intersection_bounds([F(1), F(1)]) == (F(1), F(1))

    def test_intersection_halves(self):
        assert boole_intersection_bounds([F(1, 2), F(1, 2)]) == (F(0), F(1, 2))

    def test_intersection_three_quarters(self):
        assert boole_intersection_bounds([F(3, 4)] * 3) == (F(1, 4), F(3, 4))

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInput):
            boole_union_bounds([F(3, 2)])
        with pytest.raises(InvalidInput):
            boole_intersection_bounds([F(-1, 2)])

    def test_bounds_bracket_brute_force(self):
        rng = RngStream(1)
        for n in (2, 3, 4):
            for _ in range(50):
                d = rand_distribution(n, rng)
                singles = d.event_probs()
                lo_u, hi_u = boole_union_bounds(singles)
                assert lo_u <= brute_union(d) <= hi_u
                lo_i, hi_i = boole_intersection_bounds(singles)
                assert lo_i <= brute_intersection(d) <= hi_i

    def test_each_bound_attained(self):
        # nested events: union lower bound and intersection upper bound tight
        nested = EventDistribution(2, (F(1, 2), F(0), F(1, 4), F(1, 4)))
        singles = nested.event_probs()
        assert boole_union_bounds(singles)[0] == brute_union(nested)
        assert boole_intersection_bounds(singles)[1] == brute_intersection(nested)
        # disjoint events: union upper bound tight
        disjoint = EventDistribution(2, (F(1, 2), F(1, 4), F(1, 4), F(0)))
        singles = disjoint.event_probs()
        assert boole_union_bounds(singles)[1] == brute_union(disjoint)
        # heavy overlap: intersection lower bound sum - n + 1 tight
        heavy = EventDistribution(2, (F(0), F(1, 4), F(1, 4), F(1, 2)))
        singles = heavy.event_probs()
        assert boole_intersection_bounds(singles)[0] == brute_intersection(heavy)


class TestPoincare:
    def test_single_event(self):
        d = EventDistribution(1, (F(1, 3), F(2, 3)))
        assert poincare_union(d) == F(2, 3)

    def test_two_uniform(self):
        d = EventDistribution(2, (F(1, 4),) * 4)
        assert poincare_union(d) == F(3, 4)

    def test_exact_on_random_distributions(self):
        rng = RngStream(2)
        for n in range(1, 6):
            for _ in range(20):
                d = rand_distribution(n, rng)
                assert poincare_union(d) == brute_union(d)

    def test_exact_at_n8(self):
        rng = RngStream(3)
        d = rand_distribution(8, rng)
        assert poincare_union(d) == brute_union(d)


class TestBonferroni:
    def test_disjoint_equality_case(self):
        d = EventDistribution(2, (F(0), F(1, 2), F(1, 2), F(0)))
        assert bonferroni_lower(d) == F(1) == brute_union(d)

    def test_three_independent_halves(self):
        d = EventDistribution(3, (F(1, 8),) * 8)
        assert bonferroni_lower(d) == F(3, 4)
        assert brute_union(d) == F(7, 8)

    def test_all_null(self):
        d = EventDistribution(2, (F(1), F(0), F(0), F(0)))
        assert bonferroni_lower(d) == 0 <= brute_union(d)

    def test_lower_bounds_union(self):
        rng = RngStream(4)
        for n in (2, 3, 4):
            for _ in range(40):
                d = rand_distribution(n, rng)
                assert bonferroni_lower(d) <= poincare_union(d) == brute_union(d)

    def test_matches_marginal_by_marginal_formula(self):
        rng = RngStream(15)
        for n in (2, 3, 5):
            for _ in range(10):
                d = rand_distribution(n, rng)
                singles = sum(d.event_probs(), start=F(0))
                pairs = sum(
                    (
                        marginal(d, {i, j})
                        for i in range(1, n + 1)
                        for j in range(i + 1, n + 1)
                    ),
                    start=F(0),
                )
                assert bonferroni_lower(d) == singles - pairs


class TestBonferroniVariants:
    def test_empty_complement_is_plain_bound(self):
        rng = RngStream(5)
        d = rand_distribution(3, rng)
        assert bonferroni_variants(d, set()) == bonferroni_lower(d)

    def test_complement_single_event(self):
        d = EventDistribution(1, (F(1, 3), F(2, 3)))
        # union of the complemented single event is that complement
        assert bonferroni_variants(d, {1}) == F(1, 3) == brute_union(complement_events(d, {1}))

    def test_complement_marginals(self):
        rng = RngStream(6)
        d = rand_distribution(3, rng)
        c = complement_events(d, {2})
        assert marginal(c, {2}) == 1 - marginal(d, {2})
        assert marginal(c, {1, 2}) == marginal(d, {1}) - marginal(d, {1, 2})

    def test_all_variants_bound_their_unions(self):
        rng = RngStream(7)
        for _ in range(100):
            d = rand_distribution(3, rng)
            for selector in range(1 << 3):
                subset = {i + 1 for i in range(3) if selector & (1 << i)}
                relabeled = complement_events(d, subset)
                assert bonferroni_variants(d, subset) <= brute_union(relabeled)

    def test_variant_equals_bound_of_relabeled_distribution(self):
        rng = RngStream(16)
        for n in (2, 4):
            d = rand_distribution(n, rng)
            for selector in range(1 << n):
                subset = {i + 1 for i in range(n) if selector & (1 << i)}
                assert bonferroni_variants(d, subset) == bonferroni_lower(
                    complement_events(d, subset)
                )


def _mixed_prime_distribution(n: int, rng: RngStream) -> EventDistribution:
    """Atoms with prime denominators, normalised; at least one is zero."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
    weights = [F(rng.next_u64() % 9, primes[rng.next_u64() % len(primes)]) for _ in range(1 << n)]
    zero = rng.next_u64() % len(weights)
    weights[zero] = F(0)
    weights[zero ^ 1] += 1  # keeps the total positive
    total = sum(weights)
    return EventDistribution(n, tuple(w / total for w in weights))


# Reference: per-mask Fraction sums straight over the atoms, independent of
# the engine's integer transforms.


def _oracle_joint(d: EventDistribution, mask: int) -> Fraction:
    return sum((p for b, p in enumerate(d.atom_probs) if b & mask == mask), start=F(0))


def _oracle_bonferroni(d: EventDistribution, mask: int) -> Fraction:
    # an atom with k true events (after relabeling b -> b ^ mask) has weight k - C(k, 2)
    groups = [F(0)] * (d.num_events + 1)
    for b, p in enumerate(d.atom_probs):
        groups[(b ^ mask).bit_count()] += p
    return sum(((k - k * (k - 1) // 2) * g for k, g in enumerate(groups)), start=F(0))


def _oracle_poincare(d: EventDistribution) -> Fraction:
    total = F(0)
    for mask in range(1, 1 << d.num_events):
        term = _oracle_joint(d, mask)
        total += term if mask.bit_count() % 2 else -term
    return total


class TestTransformsAgainstBruteForce:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_entry_equals_per_mask_sum(self, n):
        d = _mixed_prime_distribution(n, RngStream(400 + n))
        table = bonferroni_variant_table(d)
        assert len(table) == 1 << n
        for mask in range(1 << n):
            events = {i for i in range(1, n + 1) if mask & (1 << (n - i))}
            assert marginal(d, events) == _oracle_joint(d, mask)
            assert bonferroni_variants(d, events) == table[mask] == _oracle_bonferroni(d, mask)
        assert d.event_probs() == tuple(_oracle_joint(d, 1 << (n - i)) for i in range(1, n + 1))
        assert bonferroni_lower(d) == table[0]
        assert poincare_union(d) == _oracle_poincare(d) == brute_union(d)


class TestBellEffect:
    def test_paper_targets_infeasible(self):
        result = bell_effect_solve(F(3, 4), F(3, 4), F(1, 4))
        assert not result.feasible
        assert result.witness == F(-1, 8)

    def test_always_agreeing(self):
        result = bell_effect_solve(1, 1, 1)
        assert result.feasible
        assert result.mix.weights == (F(1), F(0), F(0), F(0))

    def test_even_mixture(self):
        result = bell_effect_solve(F(1, 2), F(1, 2), F(1, 2))
        assert result.feasible
        assert result.mix.weights == (F(1, 4),) * 4

    def test_round_trip_from_random_mixes(self):
        rng = RngStream(8)
        for _ in range(50):
            raw = [rng.next_u64() % 32 for _ in range(4)]
            total = sum(raw) or 1
            alpha, beta, gamma, delta = (F(w, total) for w in raw)
            result = bell_effect_solve(
                alpha + beta, alpha + delta, alpha + gamma
            )
            assert result.feasible
            assert result.mix.weights == (alpha, beta, gamma, delta)

    def test_out_of_range(self):
        with pytest.raises(InvalidInput):
            bell_effect_solve(F(5, 4), F(1, 2), F(1, 2))

    def test_strategy_tables(self):
        assert len(STRATEGIES_FULL) == 8
        assert STRATEGIES_REDUCED == STRATEGIES_FULL[:4]
        assert all(s[0] == "R" for s in STRATEGIES_REDUCED)


class TestQuantumPairProbs:
    def test_same_angle_always_opposite(self):
        p = quantum_pair_probs(0.7, 0.7)
        assert p.pp == 0.0
        assert p.pm == 0.5

    def test_opposite_angles(self):
        p = quantum_pair_probs(math.pi, 0.0)
        assert abs(p.pp - 0.5) <= 1e-15

    def test_third_pi_gap(self):
        p = quantum_pair_probs(math.pi / 3, 0.0)
        assert abs(p.pp - 0.125) <= 1e-15
        assert abs(p.pp - 0.5 * math.sin(math.pi / 6) ** 2) <= 1e-15

    def test_joints_sum_to_one(self):
        rng = RngStream(9)
        for _ in range(50):
            a, b = rng.uniform() * 2 * math.pi, rng.uniform() * 2 * math.pi
            p = quantum_pair_probs(a, b)
            assert abs(p.pp + p.pm + p.mp + p.mm - 1.0) <= 1e-12
            assert p.p1_plus == p.p2_plus == 0.5

    def test_huge_finite_angles(self):
        # alpha - beta overflows to inf here, alpha / 2 - beta / 2 does not
        p = quantum_pair_probs(1e308, -1e308)
        assert all(math.isfinite(v) for v in p)
        assert abs(p.pp + p.pm + p.mp + p.mm - 1.0) <= 1e-12


class TestBellExpression:
    def test_all_zero(self):
        assert bell_expression(0, 0, 0, 0, 0, 0) == 0

    def test_vertices_within_classical_window(self):
        values = local_vertex_values()
        assert len(values) == 8
        assert all(F(-1) <= v <= F(0) for v in values)

    def test_mixtures_stay_in_window(self):
        rng = RngStream(10)
        inputs = [strategy_bell_inputs(s) for s in STRATEGIES_FULL]
        for _ in range(50):
            raw = [rng.next_u64() % 16 for _ in range(8)]
            total = sum(raw) or 1
            weights = [F(w, total) for w in raw]
            mixed = [
                sum(w * inp[k] for w, inp in zip(weights, inputs)) for k in range(6)
            ]
            assert F(-1) <= bell_expression(*mixed) <= F(0)

    def test_out_of_range(self):
        with pytest.raises(InvalidInput):
            bell_expression(2, 0, 0, 0, 0, 0)


class TestBellViolation:
    PAPER_ANGLES = BellSetting(math.pi / 3, math.pi, 0.0, 2 * math.pi / 3)

    def test_paper_angles(self):
        value, excess = bell_violation(self.PAPER_ANGLES)
        assert abs(value - (-9 / 8)) <= 1e-12
        assert abs(excess - 1 / 8) <= 1e-12

    def test_equal_angles_boundary(self):
        value, excess = bell_violation(BellSetting(1.0, 1.0, 1.0, 1.0))
        assert value == -1.0
        assert excess == 0.0

    def test_grid_search(self):
        # alpha1 = pi/4 and beta1 = 0 fixed; scan the other two angles
        grid = np.linspace(0.0, 2 * math.pi, 100, endpoint=False)
        best = 0.0
        for a2 in grid:
            for b2 in grid:
                _, excess = bell_violation(BellSetting(math.pi / 4, a2, 0.0, b2))
                assert excess >= 0.0
                best = max(best, excess)
        assert best >= 0.125

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInput):
            BellSetting(math.nan, 0, 0, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: EventDistribution(2, (F(1),)), "2 events need 4 atoms, got 1",
                     id="atom-count"),
        # atoms that Fraction cannot take
        pytest.param(lambda: EventDistribution(1, (math.nan, F(1))),
                     "atom probabilities must be rational numbers", id="atom-nan"),
        pytest.param(lambda: EventDistribution(1, (math.inf, F(1))),
                     "atom probabilities must be rational numbers", id="atom-inf"),
        pytest.param(lambda: EventDistribution(1, (F(1), -math.inf)),
                     "atom probabilities must be rational numbers", id="atom-minus-inf"),
        pytest.param(lambda: EventDistribution(1, ("x", F(1))),
                     "atom probabilities must be rational numbers", id="atom-text"),
        pytest.param(lambda: boole_union_bounds([]), "at least one probability is required",
                     id="no-probabilities"),
        # probabilities that Fraction cannot take
        pytest.param(lambda: boole_union_bounds([math.nan]), "probabilities must lie in [0, 1]",
                     id="union-nan"),
        pytest.param(lambda: boole_intersection_bounds([F(1, 2), math.inf]),
                     "probabilities must lie in [0, 1]", id="intersection-inf"),
        pytest.param(lambda: bell_effect_solve(-math.inf, 0, 0),
                     "probabilities must lie in [0, 1]", id="bell-effect-minus-inf"),
        pytest.param(lambda: StrategyMix((F(1),) * 4), "strategy weights must sum to 1",
                     id="strategy-weights"),
        pytest.param(lambda: quantum_pair_probs(math.inf, 0), "angles must be finite",
                     id="infinite-angle"),
        pytest.param(lambda: strategy_bell_inputs(("R", "R", "X")),
                     "a strategy assigns R or S to each of A, B, C", id="strategy-answer"),
    ],
)
def test_raise_site(call, message):
    with pytest.raises(InvalidInput) as err:
        call()
    assert type(err.value) is InvalidInput and str(err.value) == message
