"""Acceptance suite: seven end-to-end guarantees at fixed scales and seeds.

Each test here states one externally checkable property of the whole
pipeline. The brute-force oracles are the ground truth throughout; they are
memoized because the exhaustive sweeps revisit the same small tournaments
thousands of times.
"""

import itertools
import math
import random
from collections import Counter

import families
from families import (
    all_tournaments,
    random_tournament,
    relabel,
    rule5_instance,
    rule6_instance,
    rule7_instance,
    rule8_instance,
)
from invariants import assert_kernel_exhausted
from reference import interleaving_count, reference_minimum, split_deletions, successor
from sfast.graphs import Instance, Tournament, s_backward_arcs, verify_solution
from sfast.kernel import (
    _step,
    decomposition_class_size,
    equivalence_classes,
    kernelize,
)
from sfast.oracle import (
    GeneratorSpec,
    generate_planted,
    generate_random,
    oracle_min_deletion,
    oracle_min_reversal_orderings,
)
from sfast.solver import (
    classes_feasible,
    color_count,
    contract,
    draw_coloring,
    expand_order,
    solve_contracted,
    solve_report,
)

_ORACLE_MEMO = {}


def minimum_deletion(t, terminals, cap):
    key = (t.adj.tobytes(), t.n, tuple(sorted(terminals)), cap)
    if key not in _ORACLE_MEMO:
        _ORACLE_MEMO[key] = oracle_min_deletion(t, terminals, cap)
    return _ORACLE_MEMO[key]


def solvable(instance):
    if instance.k < 0:
        return False
    return minimum_deletion(instance.tournament, instance.terminals, instance.k) is not None


def terminal_subsets(n):
    for size in range(n + 1):
        yield from map(frozenset, itertools.combinations(range(n), size))


def small_instances(max_n, budgets):
    for n in range(1, max_n + 1):
        for t in all_tournaments(n):
            for terminals in terminal_subsets(n):
                for k in budgets:
                    yield Instance(t, terminals, k)


def cascade_check(instance, tally):
    """Take one driver step, checking every record it returns against the
    oracle. Returns the deciding rule's name (rr8 for a step of arc swaps
    and a deletion), or None when the instance is already exhausted.
    """
    records = checked_step(instance, tally)[0]
    return records[-1].rule if records else None


def checked_step(instance, tally, settled=False):
    """`cascade_check`'s step: its records, the instance it leads to (None
    unless it applied a rule), replayed record by record and deleted
    vertex by deleted vertex, and whether `_step` hands the next step a
    settled state. ``settled`` is what the previous step handed on; a
    settled step runs rules 1 and 2, then rule 9."""
    records, nxt, settled = _step(instance, settled)
    if not records:
        return (), None, False
    base = solvable(instance)
    for rec in split_deletions(instance, records):
        if rec.status == "applied":
            instance = successor(instance, rec)
            assert solvable(instance) == base
        else:
            assert (rec.status == "trivial-yes") == base
    tally[records[-1].rule] += 1
    if records[-1].status != "applied":
        return records, None, settled
    assert nxt == instance
    return records, instance, settled


def cascade_walk(instance, tally):
    """Kernelize with checked steps, handing on the settled state from
    step to step as `kernelize` does. Returns how many vertices rule 8
    deleted within a run, every one after the first of its step (a settled
    step deletes none by rule 8)."""
    carried = 0
    settled = False
    while instance is not None:
        records, instance, settled = checked_step(instance, tally, settled)
        deletions = sum(len(rec.detail["deleted"]) for rec in records if rec.rule == "rr8")
        carried += max(deletions - 1, 0)
    return carried


def spread_triangle_tournament():
    """Transitive on nine vertices, three far-apart flips, one triangle each.

    No arc lies on two terminal triangles and every vertex lies on one, so
    with at least four terminals and budget one, rule 4 is the first rule
    that can act.
    """
    adj = families.transitive(9)
    for u, v in ((0, 2), (3, 5), (6, 8)):
        adj[u, v] = False
        adj[v, u] = True
    return Tournament(adj)


def test_c1_deletion_and_ordering_oracles_agree():
    def check(t, terminals, k):
        by_orders = oracle_min_reversal_orderings(t, terminals)
        expected = by_orders if by_orders <= k else None
        assert minimum_deletion(t, terminals, k) == expected

    for n in range(1, 5):
        for t in all_tournaments(n):
            for terminals in terminal_subsets(n):
                for k in (0, 1, 2):
                    check(t, terminals, k)

    rng = random.Random(20260819)
    for _ in range(1000):
        n = rng.choice((5, 6))
        t = random_tournament(n, rng.randrange(2**30))
        terminals = frozenset(
            rng.sample(range(n), rng.randrange(0, n + 1))
        )
        check(t, terminals, rng.randrange(0, 9))


def test_c2_reduction_rules_match_oracle_verdicts():
    # Exhaustive sweep: every tournament on up to five vertices, every
    # terminal set, budgets zero through two. One cascade round per instance
    # verifies whichever rule fires.
    exhaustive = Counter()
    for instance in small_instances(5, (0, 1, 2)):
        cascade_check(instance, exhaustive)
    assert exhaustive["rr1"] == 33_866
    for rule in ("rr2", "rr3"):
        assert exhaustive[rule] > 10_000, exhaustive
    # A discovered fact, locked in: on five vertices no instance ever reaches
    # rule 4, because four or more terminals always put some terminal off
    # every triangle or some arc on two of them first. Its positive draws
    # come from the nine-vertex construction below.
    assert exhaustive["rr4"] == 0
    # Rules 5 through 8 need classes of twelve or more vertices, so on five
    # they cannot fire; the cascade above proves it by never reaching them.
    assert decomposition_class_size(1) > 5

    # At least 500 random applicable draws per rule. Rules 1 through 4 fire
    # on small random instances; rules 5 through 8 need more room than nine
    # vertices allow, so their draws are relabelings of the smallest
    # constructed instances on which they provably act.
    randomized = Counter()
    rng = random.Random(77)

    while randomized["rr1"] < 500:
        n = rng.randrange(4, 10)
        t = random_tournament(n, rng.randrange(2**30))
        terminals = frozenset(rng.sample(range(n), rng.randrange(0, n + 1)))
        assert cascade_check(Instance(t, terminals, 0), randomized) == "rr1"

    attempts = 0
    while (randomized["rr2"] < 500 or randomized["rr3"] < 500) and attempts < 30_000:
        attempts += 1
        n = rng.randrange(6, 10)
        k = rng.randrange(1, 4)
        if rng.random() < 0.5:
            adj = families.transitive(n)
            for _ in range(rng.randrange(0, 5)):
                u, v = rng.sample(range(n), 2)
                lo, hi = min(u, v), max(u, v)
                adj[lo, hi], adj[hi, lo] = False, True
            t = Tournament(adj)
            terminals = frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
        else:
            t = random_tournament(n, rng.randrange(2**30))
            terminals = frozenset(range(n))
        fired = cascade_check(Instance(t, terminals, k), randomized)
        assert fired in (None, "rr1", "rr2", "rr3", "rr4")
    assert randomized["rr2"] >= 500 and randomized["rr3"] >= 500

    # Each flipped triangle gets a terminal, and the rest of the terminals
    # are drawn at random: a triangle without one lies on no terminal
    # cycle, and rule 2 would delete it first.
    spread = spread_triangle_tournament()
    for draw in range(500):
        size = 4 + draw % 6
        shuffled, perm = relabel(Instance(spread, frozenset(range(size)), 1), 9000 + draw)
        picks = {perm[rng.choice(tri)] for tri in ((0, 1, 2), (3, 4, 5), (6, 7, 8))}
        rest = rng.sample(sorted(set(range(9)) - picks), size - 3)
        terminals = frozenset(picks) | frozenset(rest)
        assert (
            cascade_check(Instance(shuffled.tournament, terminals, 1), randomized)
            == "rr4"
        )
    assert randomized["rr4"] >= 500

    for name, base in (
        ("rr5", rule5_instance()),
        ("rr6", rule6_instance()),
        ("rr7", rule7_instance()),
        ("rr8", rule8_instance()),
    ):
        before = randomized[name]
        for draw in range(125):
            shuffled, _ = relabel(base, 31_000 * (draw + 1) + len(name))
            assert cascade_check(shuffled, randomized) == name
        assert randomized[name] == before + 125

    variants = [rule7_instance(a, b) for a, b in ((3, 4), (4, 7), (9, 10), (10, 3))]
    variants += [rule8_instance(first, second) for first, second in
                 (((4, 5), (6, 7)), ((5, 9), (10, 12)), ((4, 5), (4, 5)), ((8, 9), (8, 9)))]
    variant_tally = Counter()
    for base in variants:
        for draw in range(94):
            shuffled, _ = relabel(base, 63_000 + 97 * draw + base.n)
            fired = cascade_check(shuffled, variant_tally)
            assert fired in ("rr7", "rr8")
    assert variant_tally["rr7"] + randomized["rr7"] >= 500
    assert variant_tally["rr8"] + randomized["rr8"] >= 500
    assert randomized["rr5"] >= 125 and randomized["rr6"] >= 125

    for draw in range(375):
        shuffled, _ = relabel(rule5_instance(), 101_000 + draw)
        assert cascade_check(shuffled, randomized) == "rr5"
        shuffled, _ = relabel(rule6_instance(), 102_000 + draw)
        assert cascade_check(shuffled, randomized) == "rr6"
    assert randomized["rr5"] >= 500 and randomized["rr6"] >= 500
    # Rule 9 could only act if the class bounds failed to cap the vertex
    # count, which the other rules' exhaustion rules out.
    assert exhaustive["rr9"] == randomized["rr9"] == variant_tally["rr9"] == 0

    # Whole kernelizations, run as `kernelize` runs them: a rule-8 step
    # without arc swaps goes on deleting and tells the next step whether it
    # is settled. Every record of every step is checked; the variants
    # above add steps whose arc swaps hand on no settled state. Below
    # n = 40 rule 2 leaves rule 8 little to delete: 87 carried deletions at
    # n = 20 to 32, against 789 here.
    walked = Counter()
    carried = 0
    for n in (40, 48, 56, 64):
        for s_count in (1, 2, 3):
            for k in (1, 2):
                for seed in range(6):
                    spec = GeneratorSpec(n=n, s_count=s_count, seed=seed, planted_k=k)
                    carried += cascade_walk(generate_planted(spec)[0], walked)
    for base in variants:
        cascade_walk(base, walked)
    assert carried >= 500
    assert walked["rr9"] == 0

    # Driver-level verdicts on the four-vertex slice: composing the verified
    # steps must land on the oracle's answer.
    for instance in small_instances(4, (0, 1, 2)):
        result = kernelize(instance)
        if result.status == "trivial-yes":
            assert solvable(instance)
        elif result.status == "trivial-no":
            assert not solvable(instance)
        else:
            assert solvable(result.kernel) == solvable(instance)


def test_c3_kernel_sizes_within_bounds():
    statuses = Counter()
    for seed in range(1000):
        n = 8 + (seed * 7) % 53
        k = 1 + seed % 5
        kind = seed % 4
        if kind == 0:
            spec = GeneratorSpec(n=n, s_count=n // 3, seed=seed, planted_k=k)
            instance, _ = generate_planted(spec)
        elif kind == 1:
            spec = GeneratorSpec(n=n, s_count=2 + seed % 5, seed=seed, planted_k=k)
            instance, _ = generate_planted(spec)
        elif kind == 2:
            spec = GeneratorSpec(n=n, s_count=1 + seed % 4, seed=seed, k=k)
            instance = generate_random(spec)
        else:
            spec = GeneratorSpec(n=n, s_count=n if seed % 2 else n // 2, seed=seed, k=k)
            instance = generate_random(spec)
        result = kernelize(instance)
        statuses[result.status] += 1
        if result.status != "reduced":
            continue
        kernel = result.kernel
        kk = kernel.k
        assert kernel.n <= 30 * kk * kk + 40 * kk + 7
        assert len(kernel.terminals) <= 4 * kk
        classes = equivalence_classes(kernel.tournament, kernel.terminals)
        assert len(classes) <= 5 * kk + 1
        assert all(len(vs) <= 6 * kk + 6 for vs in classes)
        assert_kernel_exhausted(kernel)
    assert statuses["reduced"] >= 250, statuses


def test_c4_solver_reaches_planted_optimum():
    for seed in range(200):
        n = 8 + seed % 13
        k = 1 + seed % 4
        spec = GeneratorSpec(n=n, s_count=2 + seed % (n - 2), seed=seed, planted_k=k)
        instance, _ = generate_planted(spec)
        report = solve_report(instance)
        optimum = minimum_deletion(instance.tournament, instance.terminals, instance.k)
        assert optimum is not None
        assert report.solution is not None, (seed, n, k)
        assert report.size == optimum, (seed, n, k, report.size, optimum)
        assert verify_solution(instance, report.solution, "reversal")
        assert verify_solution(instance, report.solution, "deletion")


def test_c5_contracted_dp_matches_order_enumeration():
    rng = random.Random(515)
    checked = 0
    while checked < 300:
        n = rng.randrange(5, 11)
        k = rng.randrange(2, 5)
        t = random_tournament(n, rng.randrange(2**30))
        terminals = frozenset(rng.sample(range(n), rng.randrange(0, min(n, 5))))
        instance = Instance(t, terminals, k)
        q = color_count(k)
        coloring = draw_coloring(n, q, rng)
        if not classes_feasible(instance, coloring, q):
            continue
        ct = contract(instance, coloring, q)
        if len(ct.nodes) > 8 or interleaving_count(ct.color_nodes) > 20_000:
            continue
        value, order = solve_contracted(ct)
        assert value == reference_minimum(ct)
        backward = s_backward_arcs(t, terminals, expand_order(ct, order))
        assert len(backward) == value
        checked += 1


def test_c6_coloring_success_rate_holds():
    trials = 10_000
    for k in (2, 3, 4):
        q = color_count(k)
        rate_floor = (2 * math.e) ** -math.sqrt(k / 8)
        sigma = math.sqrt(rate_floor * (1 - rate_floor) / trials)
        found = 0
        seed = 0
        while found < 2:
            seed += 1
            spec = GeneratorSpec(n=3 * k + 4, s_count=(3 * k + 4) // 2, seed=seed, planted_k=k)
            instance, planted = generate_planted(spec)
            if minimum_deletion(instance.tournament, instance.terminals, k) != k:
                continue
            found += 1
            rng = random.Random(6000 + 31 * k + seed)
            colorful = 0
            for _ in range(trials):
                coloring = draw_coloring(instance.n, q, rng)
                if all(coloring[u] != coloring[v] for u, v in planted):
                    colorful += 1
            rate = colorful / trials
            assert rate >= rate_floor - 3 * sigma, (k, seed, rate, rate_floor)


def test_c7_no_instances_never_yield_solutions():
    rng = random.Random(717)
    collected = tight_budget = 0
    while collected < 100:
        n = rng.randrange(5, 10)
        t = random_tournament(n, rng.randrange(2**30))
        terminals = frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
        optimum = minimum_deletion(t, terminals, 12)
        if optimum is None or optimum < 1:
            continue
        collected += 1
        if optimum >= 2:
            tight_budget += 1
        instance = Instance(t, terminals, optimum - 1)
        report = solve_report(instance)
        assert report.solution is None, (n, sorted(terminals), optimum)
        if report.kernel.status == "trivial-no":
            assert not solvable(instance)
    assert tight_budget >= 40

    # Independently of budgets chosen to sit just below the optimum, any
    # trivial-no the kernelization emits must be oracle-confirmed.
    refuted = 0
    for seed in range(300):
        n = 5 + seed % 5
        t = random_tournament(n, 900_000 + seed)
        terminals = frozenset(
            random.Random(seed).sample(range(n), 1 + seed % n)
        )
        instance = Instance(t, terminals, seed % 4)
        if kernelize(instance).status == "trivial-no":
            refuted += 1
            assert not solvable(instance)
    assert refuted >= 30
