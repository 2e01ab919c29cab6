"""The two brute-force oracles are the ground truth everything else leans on,
so they get checked against each other, against frozen values, and against
their own alternate code paths.
"""

import random

import pytest

import sfast.oracle as oracle_module
from families import from_arcs, random_tournament
from reference import reference_generate_planted, reference_generate_random
from sfast.graphs import Instance, verify_solution
from sfast.oracle import (
    GeneratorSpec,
    OracleScaleError,
    generate_planted,
    generate_random,
    oracle_min_deletion,
    oracle_min_reversal_orderings,
)

# Values computed once at n small enough to audit by hand and pinned; any
# drift here means an oracle regression, not a data update.
GOLDEN = [
    ((6, 3, 11), 2),
    ((7, 4, 12), 3),
    ((8, 4, 13), 6),
    ((9, 5, 14), 10),
    ((7, 7, 15), 5),
    ((8, 2, 16), 3),
]


@pytest.mark.parametrize("params, expected", GOLDEN)
def test_golden_values(params, expected):
    n, s_count, seed = params
    instance = generate_random(GeneratorSpec(n=n, s_count=s_count, seed=seed, k=1))
    assert oracle_min_deletion(instance.tournament, instance.terminals, 10) == expected
    assert oracle_min_reversal_orderings(instance.tournament, instance.terminals) == expected


def random_terminals(n, seed, fraction=0.5):
    rng = random.Random(seed)
    return frozenset(v for v in range(n) if rng.random() < fraction)


@pytest.mark.parametrize("seed", range(60))
def test_deletion_matches_ordering_enumeration(seed):
    # A cap of 12 covers any optimum at this size: even reordering all seven
    # vertices never needs more reversals than that.
    n = 5 + seed % 3
    t = random_tournament(n, seed)
    terminals = random_terminals(n, seed + 1)
    assert oracle_min_deletion(t, terminals, 12) == \
        oracle_min_reversal_orderings(t, terminals)


@pytest.mark.parametrize("seed", range(25))
def test_branching_agrees_with_enumeration(seed, monkeypatch):
    t = random_tournament(7, seed + 500)
    terminals = random_terminals(7, seed)
    expected = oracle_min_deletion(t, terminals, 8)
    monkeypatch.setattr(oracle_module, "_ENUMERATION_BUDGET", 0)
    assert oracle_min_deletion(t, terminals, 8) == expected


def test_acyclic_instance_needs_nothing():
    t = random_tournament(6, seed=0)
    assert oracle_min_deletion(t, frozenset(), 3) == 0


def test_budget_zero_with_a_terminal_cycle():
    t = from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert oracle_min_deletion(t, frozenset({1}), 0) is None
    assert oracle_min_deletion(t, frozenset({1}), 1) == 1


def test_a_cap_past_the_arc_count_answers_at_once():
    # The score order's one S-backward arc is a solution, so a cap of 10**20
    # counts as 1 instead of summing and enumerating subset sizes up to it.
    t = from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    assert oracle_min_deletion(t, frozenset({1}), 10**20) == 1


def test_value_is_monotone_in_the_cap():
    t = random_tournament(7, seed=77)
    terminals = random_terminals(7, 77)
    full = oracle_min_deletion(t, terminals, 12)
    for cap in range(full):
        assert oracle_min_deletion(t, terminals, cap) is None
    assert oracle_min_deletion(t, terminals, full) == full


def test_ordering_oracle_scale_guard():
    t = random_tournament(10, seed=3)
    with pytest.raises(OracleScaleError):
        oracle_min_reversal_orderings(t, frozenset({0}))


def test_branching_scale_guard():
    t = random_tournament(30, seed=3)
    with pytest.raises(OracleScaleError):
        oracle_min_deletion(t, frozenset(range(15)), 14)


class TestGenerators:
    def test_random_is_deterministic(self):
        spec = GeneratorSpec(n=8, s_count=3, seed=42, k=2)
        assert generate_random(spec).tournament == generate_random(spec).tournament

    def test_random_needs_a_budget(self):
        with pytest.raises(ValueError):
            generate_random(GeneratorSpec(n=4, s_count=2, seed=0))

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 40, 300])
    def test_random_matches_the_pair_at_a_time_reference(self, n):
        spec = GeneratorSpec(n=n, s_count=min(n, 3), seed=n, k=2)
        assert generate_random(spec) == reference_generate_random(spec)

    @pytest.mark.parametrize("m, block", [(0, 4), (1, 4), (9, 4), (70_000, 1 << 16)])
    def test_coins_are_the_draws_below_one_half(self, m, block, monkeypatch):
        # The same draws, and the generator left in the same state, across
        # block boundaries too.
        monkeypatch.setattr(oracle_module, "_COIN_BLOCK", block)
        rng, expected = random.Random(m), random.Random(m)
        coins = oracle_module._coins(rng, m)
        assert coins.tolist() == [expected.random() < 0.5 for _ in range(m)]
        assert rng.getstate() == expected.getstate()

    def test_spec_validates_terminal_count(self):
        with pytest.raises(ValueError):
            GeneratorSpec(n=3, s_count=4, seed=0, k=1)

    @pytest.mark.parametrize("seed", range(20))
    def test_planted_solution_is_valid_both_ways(self, seed):
        spec = GeneratorSpec(n=10, s_count=4, seed=seed, planted_k=3)
        instance, planted = generate_planted(spec)
        assert instance.k == 3
        assert len(planted) <= 3
        assert verify_solution(instance, planted, mode="reversal")
        assert verify_solution(instance, planted, mode="deletion")

    def test_planted_optimum_never_exceeds_the_plant(self):
        for seed in range(10):
            spec = GeneratorSpec(n=8, s_count=3, seed=seed, planted_k=2)
            instance, _ = generate_planted(spec)
            value = oracle_min_deletion(instance.tournament, instance.terminals, 2)
            assert value is not None and value <= 2

    def test_planted_k_out_of_range(self):
        with pytest.raises(ValueError):
            generate_planted(GeneratorSpec(n=3, s_count=1, seed=0, planted_k=4))

    def test_planted_requires_planted_k(self):
        with pytest.raises(ValueError):
            generate_planted(GeneratorSpec(n=3, s_count=1, seed=0, k=1))

    @pytest.mark.parametrize(
        "n, s_count, seed, planted_k",
        [(0, 0, 0, 0), (1, 0, 1, 0), (1, 1, 2, 0), (2, 0, 3, 1), (2, 1, 4, 1), (2, 2, 5, 0)]
        + [(3, s, seed, 3) for s in range(4) for seed in (6, 7)]
        + [(n, s, seed, 3) for n in (5, 9, 17) for s in (0, 1, n // 2, n) for seed in (8, 9)]
        + [(40, 6, 10, 40 * 39 // 2), (50, 6, 11, 3), (150, 10, 12, 3)],
    )
    def test_planted_matches_the_pair_at_a_time_reference(self, n, s_count, seed, planted_k):
        # Same random stream: the same matrix and the same planted arcs.
        spec = GeneratorSpec(n=n, s_count=s_count, seed=seed, planted_k=planted_k)
        instance, planted = generate_planted(spec)
        expected, expected_planted = reference_generate_planted(spec)
        assert instance == expected
        assert planted == expected_planted
