import functools
import hashlib
import json
import random
import tracemalloc
from collections import Counter

import networkx as nx
import numpy as np
import pytest

import families
import sfast.graphs
import sfast.kernel
import sfast.solver
from families import (
    all_tournaments,
    random_tournament,
    relabel,
    rule5_chain,
    rule5_instance,
    rule6_instance,
    rule7_instance,
    rule8_instance,
    stubborn_instance,
)
from invariants import assert_kernel_exhausted
from reference import (
    decomposition_sets,
    reference_class_decomposition,
    reference_conflict_edges,
    reference_conflict_packing,
    reference_equivalence_classes,
    reference_find_swap,
    reference_kernelize,
    reference_matching,
    reference_minimalize_solution,
    reference_outside_split,
    reference_packing_ordering,
    reference_rr2,
    reference_rr8_run,
    s_triangles_through_arc,
    successor,
)
from sfast.graphs import (
    Instance,
    InternalInvariantError,
    InvalidArcError,
    Tournament,
    has_s_triangle,
    is_s_acyclic,
    reverse_arcs,
    s_backward_arcs,
    verify_solution,
)
from sfast.kernel import (
    BipartiteConflictGraph,
    ConflictPacking,
    RuleOutcome,
    _MINUS,
    _PRIME,
    _R_GREATER_TILDE,
    _R_LESS,
    _find_swap,
    _step,
    build_conflict_bipartite,
    class_decomposition,
    conflict_packing,
    decomposition_class_size,
    deletion_class_size,
    equivalence_classes,
    kernelize,
    lift_solution,
    max_matching_min_vertex_cover,
    minimalize_solution,
    packing_ordering,
    rr1_sanity,
    rr2_triangle_free_terminal,
    rr3_many_triangles,
    rr4_bounded_terminal,
    rr5_safe_partition,
    rr6_many_types,
    rr7_wrong_arcs,
    rr9_vertex_bound,
    vertex_bound,
)
from sfast.oracle import GeneratorSpec, generate_planted, generate_random, oracle_min_deletion
from sfast.solver import solve_report


RULE5_BASES = {
    "witness": rule5_instance,
    **{
        f"chain-{m}-{s}": functools.partial(rule5_chain, m, s)
        for m, s in ((4, 4), (4, 5), (6, 7), (10, 6), (25, 4))
    },
}


def triangle_instance(k=1, terminals=frozenset({0})):
    return Instance(Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)]), terminals, k)


def transitive_instance(n, terminals, k):
    return Instance(Tournament(families.transitive(n)), frozenset(terminals), k)


class TestRule1:
    def test_negative_budget_is_a_no(self):
        out = rr1_sanity(triangle_instance(k=-1))
        assert out.status == "trivial-no"

    def test_zero_budget_acyclic_is_a_yes(self):
        out = rr1_sanity(transitive_instance(4, {0, 1}, 0))
        assert out.status == "trivial-yes"

    def test_zero_budget_with_terminal_triangle_is_a_no(self):
        out = rr1_sanity(triangle_instance(k=0))
        assert out.status == "trivial-no"
        assert sorted(out.detail["triangle"]) == [0, 1, 2]

    def test_slack_budget_defers(self):
        assert rr1_sanity(triangle_instance(k=1)).status == "not-applicable"


class TestRule2:
    def test_deletes_every_vertex_on_no_terminal_cycle_in_ascending_order(self):
        # Only a deleted terminal lowers the terminal count.
        records = rr2_triangle_free_terminal(transitive_instance(4, {1, 2}, 1))
        assert [rec.status for rec in records] == ["applied"] * 4
        assert [rec.note for rec in records] == ["on no terminal cycle"] * 4
        assert [rec.detail for rec in records] == [
            {"pre": [4, 2, 1], "post": [3, 2, 1], "deleted": [0]},
            {"pre": [3, 2, 1], "post": [2, 1, 1], "deleted": [1]},
            {"pre": [2, 1, 1], "post": [1, 0, 1], "deleted": [2]},
            {"pre": [1, 0, 1], "post": [0, 0, 1], "deleted": [3]},
        ]

    def test_child_keeps_labels_of_survivors(self):
        # Source 4 beats the cycle 1 -> 2 -> 3 -> 1, which beats the sink,
        # terminal 0: the sink and the source go.
        arcs = [(4, v) for v in range(4)] + [(1, 2), (2, 3), (3, 1), (1, 0), (2, 0), (3, 0)]
        instance = Instance(Tournament.from_arcs(5, arcs), frozenset({0, 2}), 1)
        records, nxt, decs = _step(instance)
        assert [rec.rule for rec in records] == ["rr2", "rr2"] and decs is None
        assert [rec.detail["deleted"] for rec in records] == [[0], [4]]
        assert successor(successor(instance, records[0]), records[1]) == nxt
        assert nxt.tournament.labels == (1, 2, 3)
        assert nxt.terminals == frozenset({1}) and nxt.k == 1

    def test_deletes_a_strong_component_without_a_terminal(self):
        # The terminal triangle 0 -> 1 -> 2 -> 0 beats the triangle
        # 3 -> 4 -> 5 -> 3: its vertices lie on cycles, on no terminal one.
        arcs = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
        arcs += [(u, v) for u in range(3) for v in range(3, 6)]
        instance = Instance(Tournament.from_arcs(6, arcs), frozenset({0}), 1)
        records = rr2_triangle_free_terminal(instance)
        assert [rec.detail["deleted"] for rec in records] == [[3], [4], [5]]
        assert [rec.detail["pre"] for rec in records] == [[6, 1, 1], [5, 1, 1], [4, 1, 1]]
        assert rr2_triangle_free_terminal(_step(instance)[1]) == ()

    def test_deletes_exactly_what_networkx_finds_on_no_terminal_cycle(self):
        # The sweep deletes the vertices of the strong components, as
        # networkx finds them, that are single vertices or hold no
        # terminal: on random and near-ordered tournaments, and on every
        # instance along the kernelizations of planted ones, where reversing
        # the planted arcs leaves terminal-free components behind.
        instances = []
        for seed in range(60):
            n = 4 + seed % 37
            terminals = random.Random(seed).sample(range(n), 1 + seed % 4)
            instances.append(Instance(random_tournament(n, seed), frozenset(terminals), 2))
        instances += map(families.near_ordered, range(60))
        for n, s_count, seed, k in [(40, 2, 0, 2), (50, 6, 6, 3), (100, 4, 1, 3), (150, 10, 1, 3)]:
            cur, decs = planted(n, s_count, seed, k), None
            while cur is not None:
                instances.append(cur)
                records, cur, decs = _step(cur, decs)
                if not records:
                    break
        seen = Counter()
        for instance in instances:
            g = nx.DiGraph()
            g.add_nodes_from(range(instance.n))
            g.add_edges_from(zip(*np.nonzero(instance.tournament.adj)))
            free = []
            for comp in nx.strongly_connected_components(g):
                held = bool(comp & instance.terminals)
                if len(comp) == 1 or not held:
                    free += comp
                if len(comp) > 1:
                    seen["with a terminal" if held else "without a terminal"] += 1
            labels = instance.tournament.labels
            sweep = rr2_triangle_free_terminal(instance)
            assert [rec.detail["deleted"] for rec in sweep] == [[labels[v]] for v in sorted(free)]
            seen["deleted"] += len(sweep)
        assert min(seen.values()) >= 100, seen

    def test_keeps_the_terminals_on_a_cycle(self):
        # 0 -> 1 -> 2 -> 0 beat the sink 3: terminal 3 goes, 0 stays.
        arcs = [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]
        instance = Instance(Tournament.from_arcs(4, arcs), frozenset({0, 3}), 1)
        (out,) = rr2_triangle_free_terminal(instance)
        assert out.detail["deleted"] == [3]
        nxt = _step(instance)[1]
        assert nxt.tournament.labels == (0, 1, 2)
        assert nxt.terminals == frozenset({0})

    @pytest.mark.parametrize("n, k", [(1, 1), (5, 1), (40, 3)])
    def test_one_step_deletes_every_terminal_of_a_transitive_instance(self, n, k):
        records, nxt, _ = _step(transitive_instance(n, range(n), k))
        assert [rec.detail["deleted"] for rec in records] == [[v] for v in range(n)]
        assert [rec.detail["pre"] for rec in records] == [[n - j, n - j, k] for j in range(n)]
        assert nxt.n == 0 and nxt.k == k

    def test_not_applicable_when_every_terminal_rides_a_triangle(self):
        assert rr2_triangle_free_terminal(triangle_instance()) == ()


class TestRule3:
    def overloaded(self):
        # Terminal 0 beats 1 and 4; both closing pairs send two triangles
        # through (0, 1) and (0, 4).
        arcs = [
            (0, 1), (1, 2), (1, 3), (2, 0), (3, 0),
            (0, 4), (4, 5), (4, 6), (5, 0), (6, 0),
            (4, 1), (5, 1), (6, 1), (2, 3), (5, 6),
            (4, 2), (4, 3), (2, 5), (2, 6), (3, 5), (3, 6),
        ]
        return Instance(Tournament.from_arcs(7, arcs), frozenset({0}), 1)

    def brute_eligible(self, instance):
        t, terms, k = instance.tournament, instance.terminals, instance.k
        return sorted(
            (u, v)
            for u, v in t.arcs()
            if len(s_triangles_through_arc(t, terms, (u, v))) >= k + 1
        )

    def test_reverses_the_smallest_overloaded_arc(self):
        instance = self.overloaded()
        eligible = self.brute_eligible(instance)
        assert len(eligible) >= 2
        out = rr3_many_triangles(instance)
        assert out.status == "applied"
        assert out.detail["reversed"] == [list(eligible[0])]
        nxt = successor(instance, out)
        assert nxt.k == instance.k - 1
        u, v = eligible[0]
        assert nxt.tournament.adj[v, u]

    def test_threshold_scales_with_the_budget(self):
        assert rr3_many_triangles(triangle_instance(k=1)).status == "not-applicable"
        # at k = 2 only the four-triangle arc (0, 4) stays eligible, and at
        # k = 4 nothing does
        middling = Instance(self.overloaded().tournament, frozenset({0}), 2)
        out = rr3_many_triangles(middling)
        assert out.status == "applied"
        assert out.detail["reversed"] == [[0, 4]]
        relaxed = Instance(self.overloaded().tournament, frozenset({0}), 4)
        assert rr3_many_triangles(relaxed).status == "not-applicable"

    @pytest.mark.parametrize("n", [12, 40, 150])
    @pytest.mark.parametrize("kind", ["none", "one", "few", "all"])
    def test_first_eligible_arc_matches_brute_force(self, n, kind):
        t = random_tournament(n, seed=n)
        terminals = frozenset(
            {"none": [], "one": [n // 2], "few": [1, n // 3, n - 2], "all": range(n)}[kind]
        )
        counts = [(arc, len(s_triangles_through_arc(t, terminals, arc))) for arc in t.arcs()]
        for k in range(4):
            eligible = [list(arc) for arc, count in counts if count >= k + 1]
            out = rr3_many_triangles(Instance(t, terminals, k))
            if eligible:
                assert out.status == "applied"
                assert out.detail["reversed"] == [eligible[0]]
            else:
                assert out.status == "not-applicable"

    def test_budget_beyond_float_range(self):
        # The counts are compared as floats; a threshold of k + 1 = 10**400
        # would not convert.
        instance = Instance(random_tournament(40, seed=1), frozenset(range(5)), 10**400)
        assert rr3_many_triangles(instance).status == "not-applicable"
        result = kernelize(instance)
        assert result.status == "reduced"
        assert result.kernel.k == 10**400


class TestRule4:
    def test_terminal_count_at_the_square_bound(self):
        out = rr4_bounded_terminal(transitive_instance(4, {0, 1, 2, 3}, 1))
        assert out.status == "trivial-no"

    def test_one_terminal_less_is_fine(self):
        out = rr4_bounded_terminal(transitive_instance(4, {0, 1, 2}, 1))
        assert out.status == "not-applicable"


class TestConflictPacking:
    @pytest.mark.parametrize("seed", range(30))
    def test_packing_is_arc_disjoint_and_maximal(self, seed):
        n = 8
        t = random_tournament(n, seed)
        rng = random.Random(seed)
        terminals = frozenset(v for v in range(n) if rng.random() < 0.6)
        packing = conflict_packing(t, terminals)

        seen = set()
        for a, b, c in packing.triangles:
            assert t.adj[a, b] and t.adj[b, c] and t.adj[c, a]
            assert {a, b, c} & terminals
            for arc in ((a, b), (b, c), (c, a)):
                assert arc not in seen
                seen.add(arc)
        assert seen == set(packing.packed_arcs)
        assert packing.covered == {v for tri in packing.triangles for v in tri}

        for x in range(n):
            for y in range(n):
                for z in range(n):
                    if not (t.adj[x, y] and t.adj[y, z] and t.adj[z, x]):
                        continue
                    if not {x, y, z} & terminals:
                        continue
                    tri_arcs = {(x, y), (y, z), (z, x)}
                    assert tri_arcs & packing.packed_arcs

    def test_deterministic(self):
        t = random_tournament(9, 4)
        assert conflict_packing(t, frozenset(range(5))) == conflict_packing(
            t, frozenset(range(5))
        )

    @pytest.mark.parametrize("n", [12, 40, 150])
    @pytest.mark.parametrize("kind", ["none", "one", "few", "half", "all"])
    def test_triangles_match_the_row_loop_on_random_tournaments(self, n, kind):
        t = random_tournament(n, seed=n + 1)
        terminals = frozenset(
            {
                "none": [],
                "one": [n // 2],
                "few": [1, n // 3, n - 2],
                "half": range(0, n, 2),
                "all": range(n),
            }[kind]
        )
        assert conflict_packing(t, terminals).triangles == reference_conflict_packing(t, terminals)

    @pytest.mark.parametrize("seed", range(3))
    def test_triangles_match_the_row_loop_on_planted_instances(self, seed):
        for spec in (GeneratorSpec(50, 6, seed, planted_k=3), GeneratorSpec(150, 10, seed, planted_k=3)):
            instance, _ = generate_planted(spec)
            kernel = kernelize(instance).kernel
            for inst in [instance] + ([kernel] if kernel is not None else []):
                t, terminals = inst.tournament, inst.terminals
                assert conflict_packing(t, terminals).triangles == reference_conflict_packing(
                    t, terminals
                )


class TestPackingOrdering:
    def test_ordering_on_the_rule5_witness(self):
        instance = rule5_instance()
        t, terminals = instance.tournament, instance.terminals
        packing = conflict_packing(t, terminals)
        sigma = packing_ordering(t, terminals, packing)
        assert sorted(sigma) == list(range(t.n))
        uncovered = {s for s in terminals if s not in packing.covered}
        # everything the ordering puts backward over uncovered terminals is
        # accounted for by the packing
        from sfast.graphs import s_backward_arcs

        assert s_backward_arcs(t, uncovered, sigma) <= packing.packed_arcs

    @pytest.mark.parametrize("base", sorted(RULE5_BASES))
    @pytest.mark.parametrize("seed", range(5))
    def test_relabelings_keep_the_reference_order_and_the_record(self, base, seed):
        instance = RULE5_BASES[base]()
        shuffled, perm = relabel(instance, seed)
        t, terminals = shuffled.tournament, shuffled.terminals
        packing = conflict_packing(t, terminals)
        sigma = packing_ordering(t, terminals, packing)
        assert sigma == reference_packing_ordering(t, terminals, packing)
        graph = build_conflict_bipartite(t, terminals, packing)
        assert graph.edges == reference_conflict_edges(t, terminals, packing)
        assert max_matching_min_vertex_cover(graph)[0] == reference_matching(graph)
        # The record of a relabeled instance is the original's, relabeled.
        expected, got = rr5_safe_partition(instance), rr5_safe_partition(shuffled)
        assert (got.rule, got.status, got.note) == (expected.rule, "applied", expected.note)
        moved = sorted([perm[u], perm[v]] for u, v in expected.detail["reversed"])
        assert got.detail == {**expected.detail, "reversed": moved}

    def test_fabricated_packings_raise_the_reference_errors(self):
        # A packing that is not the greedy one reaches the invariant checks.
        raised = Counter()
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(0, 9)
            t = random_tournament(n, seed)
            terminals = frozenset(v for v in range(n) if rng.random() < 0.6)
            arcs = [(u, v) for u in range(n) for v in range(n) if t.adj[u, v]]
            packed = frozenset(a for a in arcs if rng.random() < 0.3)
            covered = frozenset(v for v in range(n) if rng.random() < 0.4)
            packing = ConflictPacking((), packed, covered)
            outcomes = []
            for order in (packing_ordering, reference_packing_ordering):
                try:
                    outcomes.append(order(t, terminals, packing))
                except InternalInvariantError as err:
                    outcomes.append(str(err))
            assert outcomes[0] == outcomes[1]
            raised[type(outcomes[0]).__name__] += 1
        assert raised["str"] >= 50 and raised["tuple"] >= 50


class TestMatchingAndCover:
    @staticmethod
    def random_bipartite(seed, nl=6, nr=5, p=0.4):
        rng = random.Random(seed)
        left = tuple((i, i + 100) for i in range(nl))
        right = tuple(range(nr))
        edges = tuple(
            tuple(j for j in range(nr) if rng.random() < p) for i in range(nl)
        )
        return BipartiteConflictGraph(left, right, edges)

    @pytest.mark.parametrize("seed", range(40))
    def test_koenig_pair_against_networkx(self, seed):
        graph = self.random_bipartite(seed)
        matching, cover_arcs, cover_terms = max_matching_min_vertex_cover(graph)
        assert matching == reference_matching(graph)

        pairs = {(i, j) for i, j in matching}
        assert all(j in graph.edges[i] for i, j in pairs)
        assert len({i for i, _ in pairs}) == len(pairs)
        assert len({j for _, j in pairs}) == len(pairs)

        covered_left = {graph.left.index(a) for a in cover_arcs}
        covered_right = {graph.right.index(s) for s in cover_terms}
        for i in range(len(graph.left)):
            for j in graph.edges[i]:
                assert i in covered_left or j in covered_right

        g = nx.Graph()
        g.add_nodes_from(f"L{i}" for i in range(len(graph.left)))
        g.add_nodes_from(f"R{j}" for j in range(len(graph.right)))
        for i in range(len(graph.left)):
            for j in graph.edges[i]:
                g.add_edge(f"L{i}", f"R{j}")
        reference = nx.bipartite.maximum_matching(
            g, top_nodes={f"L{i}" for i in range(len(graph.left))}
        )
        assert len(matching) == len(reference) // 2
        assert len(cover_arcs) + len(cover_terms) == len(matching)

    def test_a_1200_step_augmenting_path_needs_no_recursion(self):
        # Left i is joined to rights i and i+1, the last left to right 0.
        # The last left vertex is matched along an alternating path through
        # every other one, deeper than Python's default recursion limit.
        n = 1200
        edges = tuple((i, i + 1) for i in range(n - 1)) + ((0, n - 1),)
        left = tuple((i, n + i) for i in range(n))
        graph = BipartiteConflictGraph(left, tuple(range(n)), edges)
        matching, cover_arcs, cover_terms = max_matching_min_vertex_cover(graph)
        assert matching == tuple((i, (i + 1) % n) for i in range(n))
        assert len(cover_arcs) + len(cover_terms) == n


class TestRule5:
    def test_witness_gets_a_forced_batch(self):
        result = kernelize(rule5_instance())
        first = result.trace[0]
        assert first.rule == "rr5" and first.status == "applied"
        assert first.detail["reversed"] == [[4, 0], [9, 5]]
        assert successor(rule5_instance(), first).k == 1
        assert result.status == "reduced"

    def test_batch_arcs_point_backward_in_the_original(self):
        instance = rule5_instance()
        out = rr5_safe_partition(instance)
        assert out.status == "applied"
        nxt = successor(instance, out)
        for u, v in out.detail["reversed"]:
            assert instance.tournament.adj[u, v]
            assert not nxt.tournament.adj[u, v]

    @pytest.mark.parametrize("seed", range(15))
    def test_witness_survives_relabeling(self, seed):
        shuffled, _ = relabel(rule5_instance(), seed)
        result = kernelize(shuffled)
        assert result.status == "reduced"
        assert result.trace[0].rule == "rr5"

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_chain_acts_in_its_window_and_reverses_the_flipped_arcs(self, m):
        for s in range(2, m + 4):
            instance = rule5_chain(m, s)
            first = kernelize(instance).trace[:1]
            if not 4 <= s <= m + 1:
                assert [rec.rule for rec in first] != ["rr5"]
                continue
            n = instance.n
            flipped = [[f + s, f] for f in range(0, n, s + 1)]
            assert first == (rr5_safe_partition(instance),)
            assert first[0].detail == {"pre": [n, n, m], "post": [n, n, 0], "reversed": flipped}

    def test_window_is_empty_below_budget_three(self):
        # Rule 5 wants more than 4k terminals, rule 4 already refuses
        # (k+1)^2 or more, and 4k + 1 >= (k+1)^2 for k <= 2, so at small
        # budgets rule 5 can never see an undecided instance.
        for k in (1, 2):
            assert 4 * k + 1 >= (k + 1) ** 2
        for seed in range(200):
            n = 5 + seed % 5
            t = random_tournament(n, seed)
            rng = random.Random(seed)
            terminals = frozenset(v for v in range(n) if rng.random() < 0.7)
            instance = Instance(t, terminals, 1 + seed % 2)
            if rr4_bounded_terminal(instance).status == "not-applicable":
                out = rr5_safe_partition(instance)
                assert out.status == "not-applicable"


class TestRule6:
    def test_types_partition_the_non_terminals(self):
        instance = rule7_instance()
        classes = equivalence_classes(instance.tournament, instance.terminals)
        members = sorted(v for vs in classes for v in vs)
        assert members == sorted(set(range(15)) - {0})
        assert classes == [tuple(range(1, 13)), (13, 14)]
        assert [bool(instance.tournament.adj[0, vs[0]]) for vs in classes] == [True, False]

    @pytest.mark.parametrize("n, s_count", [(12, 1), (30, 3), (60, 6)])
    def test_classes_are_ascending_tuples_by_smallest_member(self, n, s_count):
        for seed in range(10):
            t = random_tournament(n, 1000 * n + seed)
            terminals = frozenset(random.Random(seed).sample(range(n), s_count))
            expected = reference_equivalence_classes(t, terminals)
            # The reference's classes are ascending tuples.
            assert equivalence_classes(t, terminals) == sorted(expected.values(), key=min)

    def test_witness_has_too_many_types(self):
        instance = rule6_instance()
        classes = equivalence_classes(instance.tournament, instance.terminals)
        assert len(classes) == 12 > 5 * instance.k + 1
        out = rr6_many_types(instance, classes)
        assert out.status == "trivial-no"

    def test_witness_is_decided_by_rule6_alone(self):
        result = kernelize(rule6_instance())
        assert result.status == "trivial-no"
        assert [rec.rule for rec in result.trace] == ["rr6"]

    def test_witness_really_is_a_no_instance(self):
        instance = rule6_instance()
        assert oracle_min_deletion(instance.tournament, instance.terminals, instance.k) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_survives_relabeling(self, seed):
        shuffled, _ = relabel(rule6_instance(), seed)
        result = kernelize(shuffled)
        assert result.status == "trivial-no"
        assert result.trace[-1].rule == "rr6"


class TestClassDecomposition:
    def test_rule7_witness_decomposes_as_designed(self):
        instance = rule7_instance()
        classes = equivalence_classes(instance.tournament, instance.terminals)
        members = classes[0]
        assert len(members) >= decomposition_class_size(instance.k)
        assert instance.tournament.adj[0, list(members)].all()
        sets = decomposition_sets(class_decomposition(instance, members))
        assert sets["z"] == frozenset(range(1, 13))
        assert sets["z_prime"] == frozenset(range(3, 11))
        assert sets["z_minus"] == frozenset({1, 2})
        assert sets["z_plus"] == frozenset({11, 12})
        assert sets["r_less"] == frozenset({13, 14})
        assert sets["r_less_tilde"] == frozenset({13, 14})
        assert sets["r_greater"] == frozenset()

    def test_rule7_fires_on_the_witness(self):
        instance = rule7_instance()
        classes = equivalence_classes(instance.tournament, instance.terminals)
        dec = class_decomposition(instance, classes[0])
        assert rr7_wrong_arcs(instance, dec).status == "trivial-no"

    def test_rule7_witness_really_is_a_no_instance(self):
        instance = rule7_instance()
        assert oracle_min_deletion(instance.tournament, instance.terminals, 1) is None

    @pytest.mark.parametrize("a, b", [(3, 4), (10, 3), (6, 9), (4, 10)])
    def test_rule7_verdict_across_core_hitters(self, a, b):
        result = kernelize(rule7_instance(a, b))
        assert result.status == "trivial-no"
        assert result.trace[-1].rule == "rr7"

    def test_masks_and_counts(self):
        instance = rule7_instance()
        t, n = instance.tournament, instance.n
        members = equivalence_classes(t, instance.terminals)[0]
        dec = class_decomposition(instance, members)
        assert dec.masks.shape == (10, n) and dec.masks.dtype == bool
        assert dec.indeg.shape == (n,)
        assert not dec.masks.flags.writeable and not dec.indeg.flags.writeable
        sets = decomposition_sets(dec)
        assert dec.size == len(sets["z"]) == len(members)
        for v in range(n):
            assert dec.indeg[v] == sum(bool(t.adj[u, v]) for u in members)
        for v in members:
            assert dec.size - dec.indeg[v] - 1 == sum(bool(t.adj[v, u]) for u in members)


class TestArcSwapAndRule8:
    def test_swap_then_delete_on_the_witness(self):
        instance = rule8_instance()
        result = kernelize(instance)
        assert result.status == "reduced"
        swaps = [rec for rec in result.trace if rec.rule == "arc-swap"]
        deletions = [rec for rec in result.trace if rec.rule == "rr8"]
        assert len(swaps) == 1 and len(deletions) == 1
        assert swaps[0].detail["pivot"] == 21
        assert swaps[0].detail["reversed"] == [[7, 21], [21, 4]]
        assert deletions[0].detail["deleted"] == [7]
        assert result.kernel.n == 21
        assert result.kernel.k == 2

    def test_swap_preserves_the_budget_and_flips_two_arcs(self):
        instance = rule8_instance()
        result = kernelize(instance)
        swap = result.trace[0]
        assert swap.rule == "arc-swap"
        nxt = successor(instance, swap)
        assert nxt.k == instance.k
        changed = np.argwhere(instance.tournament.adj != nxt.tournament.adj)
        assert len(changed) == 4

    @pytest.mark.parametrize("hitters", [((4, 5), (6, 7)), ((4, 5), (5, 6))], ids=["swap", "none"])
    def test_a_step_searches_once_per_swap_and_once_more(self, hitters, monkeypatch):
        # One search per swap made and one that finds none, whether or not
        # the step swaps; the step's first search is normalization's own.
        calls = 0
        search = sfast.kernel._find_swap

        def counting(instance, masks):
            nonlocal calls
            calls += 1
            return search(instance, masks)

        monkeypatch.setattr(sfast.kernel, "_find_swap", counting)
        records = _step(rule8_instance(*hitters))[0]
        assert calls == sum(rec.rule == "arc-swap" for rec in records) + 1

    def test_overlapping_hitters_skip_the_swap(self):
        result = kernelize(rule8_instance((4, 5), (5, 6)))
        assert [rec.rule for rec in result.trace] == ["rr8"]
        assert result.kernel.n == 21

    def test_rule8_deletes_the_smallest_irrelevant_core_vertex(self):
        # A class of 19 is the smallest deletable one at k = 2, so the step
        # deletes one vertex, and the class less a member is not deletable.
        instance = rule8_instance((4, 5), (5, 6))
        dec = class_decomposition(instance, range(1, 20))
        (out,) = _step(instance)[0]
        assert out.rule == "rr8" and out.status == "applied" and out.next is None
        v = min(decomposition_sets(dec)["z_irrelevant"])
        assert out.detail == {"pre": [22, 1, 2], "post": [21, 1, 2], "deleted": [v]}
        assert out == kernelize(instance).trace[0]
        assert successor(instance, out) == instance.drop([v])
        smaller = instance.drop([10])
        assert kernelize(smaller).trace == ()

    @pytest.mark.parametrize("seed", range(10))
    def test_witness_survives_relabeling(self, seed):
        shuffled, _ = relabel(rule8_instance(), seed)
        result = kernelize(shuffled)
        assert result.status == "reduced"
        assert result.kernel.n == 21
        assert any(rec.rule == "rr8" for rec in result.trace)

    def test_solution_lifts_through_the_swap(self):
        instance = rule8_instance()
        result = kernelize(instance)
        labels = result.kernel.tournament.labels
        assert 20 in labels and 21 in labels and 0 in labels
        lifted = lift_solution(instance, result.trace, [(20, 0), (21, 0)])
        assert verify_solution(instance, lifted, mode="reversal")
        assert len(lifted) <= instance.k
        assert oracle_min_deletion(instance.tournament, instance.terminals, 2) == 2


class TestRule9:
    def test_numeric_bound(self):
        assert vertex_bound(1) == 77
        assert vertex_bound(2) == 207
        assert decomposition_class_size(1) == 12
        assert deletion_class_size(1) == 13

    def test_fires_just_above_the_bound(self):
        big = transitive_instance(78, {0}, 1)
        assert rr9_vertex_bound(big).status == "trivial-no"
        assert rr9_vertex_bound(transitive_instance(77, {0}, 1)).status == "not-applicable"


def chain(instance, trace):
    """The instance and every instance the trace's applied records leave,
    re-applied from the recorded label-space operations step by step."""
    instances = [instance]
    for rec in trace:
        if rec.status == "applied":
            instances.append(successor(instances[-1], rec))
    return instances


def replay(instance, trace):
    return chain(instance, trace)[-1]


# Instances whose kernelization reaches rules 6 to 8, arc swaps included.
driver_witnesses = pytest.mark.parametrize(
    "builder",
    [rule8_instance, lambda: generate_planted(GeneratorSpec(150, 10, 6, planted_k=3))[0]],
    ids=["rule8", "planted-150"],
)


class TestKernelizeDriver:
    @pytest.mark.parametrize(
        "builder",
        [rule5_instance, rule8_instance, stubborn_instance],
        ids=["rule5", "rule8", "stubborn"],
    )
    def test_trace_replays_to_the_kernel(self, builder):
        instance = builder()
        result = kernelize(instance)
        assert result.status == "reduced"
        assert replay(instance, result.trace) == result.kernel

    @pytest.mark.parametrize("seed", range(25))
    def test_trace_replays_on_random_instances(self, seed):
        n = 6 + seed % 4
        t = random_tournament(n, seed)
        rng = random.Random(seed)
        terminals = frozenset(v for v in range(n) if rng.random() < 0.5)
        instance = Instance(t, terminals, rng.randrange(4))
        result = kernelize(instance)
        if result.status == "reduced":
            assert replay(instance, result.trace) == result.kernel
            assert_kernel_exhausted(result.kernel)

    def test_deterministic(self):
        instance = rule8_instance()
        first = kernelize(instance)
        second = kernelize(instance)
        assert [(r.rule, r.status, r.detail) for r in first.trace] == [
            (r.rule, r.status, r.detail) for r in second.trace
        ]

    def test_budget_never_increases(self):
        result = kernelize(rule5_instance())
        budgets = [cur.k for cur in chain(rule5_instance(), result.trace)]
        assert all(a >= b for a, b in zip(budgets, budgets[1:]))

    @driver_witnesses
    def test_each_class_is_decomposed_once_per_instance(self, builder, monkeypatch):
        # Rule 7 decomposes every big class; rule 8 and the arc swaps reuse
        # that decomposition instead of computing it again.
        seen = []
        decompose = sfast.kernel.class_decomposition

        def recording(instance, members):
            seen.append((instance, tuple(sorted(members))))
            return decompose(instance, members)

        monkeypatch.setattr(sfast.kernel, "class_decomposition", recording)
        kernelize(builder())
        keys = [(id(instance), members) for instance, members in seen]
        assert keys
        assert len(keys) == len(set(keys))

    @driver_witnesses
    def test_each_step_classifies_once(self, builder, monkeypatch):
        # Rules 6 to 8 share the classification of the step that reaches them.
        classified, reached = [], []
        classify = sfast.kernel.equivalence_classes
        rule6 = sfast.kernel.rr6_many_types

        def recording_classify(t, terminals):
            classified.append(t)
            return classify(t, terminals)

        def recording_rule6(instance, *args):
            reached.append(instance.tournament)
            return rule6(instance, *args)

        monkeypatch.setattr(sfast.kernel, "equivalence_classes", recording_classify)
        monkeypatch.setattr(sfast.kernel, "rr6_many_types", recording_rule6)
        kernelize(builder())
        assert reached
        assert list(map(id, classified)) == list(map(id, reached))

    @pytest.mark.parametrize("seed", range(1, 4))
    def test_classes_and_decompositions_match_the_vertex_loops(self, seed, monkeypatch):
        classified, decomposed = [], []
        classify = sfast.kernel.equivalence_classes
        decompose = sfast.kernel.class_decomposition

        def recording_classify(t, terminals):
            classes = classify(t, terminals)
            classified.append((t, terminals, classes))
            return classes

        def recording_decompose(instance, members):
            dec = decompose(instance, members)
            decomposed.append((instance, dec))
            return dec

        monkeypatch.setattr(sfast.kernel, "equivalence_classes", recording_classify)
        monkeypatch.setattr(sfast.kernel, "class_decomposition", recording_decompose)
        kernelize(generate_planted(GeneratorSpec(150, 10, seed, planted_k=3))[0])
        assert classified and decomposed
        for t, terminals, classes in classified:
            expected = reference_equivalence_classes(t, terminals)
            assert classes == list(expected.values())
        for instance, dec in decomposed:
            sets = decomposition_sets(dec)
            expected = reference_outside_split(instance, sorted(sets["z"]), sorted(sets["z_prime"]))
            names = ("r_less", "r_greater", "r_less_tilde", "r_greater_tilde")
            split = tuple(sets[name] for name in names)
            assert split == tuple(frozenset(vs) for vs in expected)

    def test_stubborn_instance_is_reduced_untouched(self):
        instance = stubborn_instance()
        result = kernelize(instance)
        assert result.status == "reduced"
        assert result.trace == ()
        assert result.kernel == instance

    def test_exhaustive_small_verdicts(self):
        # all tournaments on three vertices, every terminal set and budget
        for t in all_tournaments(3):
            for bits in range(8):
                terminals = frozenset(v for v in range(3) if bits >> v & 1)
                for k in (-1, 0, 1):
                    result = kernelize(Instance(t, terminals, k))
                    opt = oracle_min_deletion(t, terminals, 3)
                    if result.status == "trivial-yes":
                        assert opt <= k
                    elif result.status == "trivial-no":
                        assert k < 0 or opt > k
                    else:
                        kernel = result.kernel
                        sub = oracle_min_deletion(
                            kernel.tournament, kernel.terminals, 12
                        )
                        assert (opt <= k) == (sub <= kernel.k)


def planted(n, s_count, seed, k=3):
    return generate_planted(GeneratorSpec(n, s_count, seed, planted_k=k))[0]


PLANTED_CORPORA = [(50, 6, seed) for seed in range(20)] + [(150, 10, seed) for seed in range(10)]

# Planted (n, terminals, seed, planted_k) instances on which rule 8 runs,
# often over several steps. Rule 2 deletes the big terminal-free blocks of
# the gated corpora before rule 8 reaches them, so there rule 8 runs 19
# times over 245 deletions, and hands on few decompositions.
CARRIED_CORPUS = [
    (n, s_count, seed, k)
    for n in (100, 150, 200, 300)
    for s_count in (2, 4, 6, 10)
    for seed in range(8)
    for k in (1, 2, 3, 4)
]


class TestCarriedState:
    """`kernelize` runs rule 8 on within a step and hands the class
    decompositions to the next step; the result must equal the driver's
    that steps afresh after every deletion, record for record."""

    @pytest.mark.parametrize("n, s_count, seed", PLANTED_CORPORA)
    def test_planted_corpora_match_the_stateless_driver(self, n, s_count, seed):
        instance = planted(n, s_count, seed)
        assert kernelize(instance) == reference_kernelize(instance)

    @pytest.mark.parametrize("n", [12, 40, 150])
    def test_random_tournaments_match_the_stateless_driver(self, n):
        for s_count in (1, 2, 4, n // 3):
            for k in range(5):
                t = random_tournament(n, 100 * n + 10 * s_count + k)
                terminals = frozenset(random.Random(k).sample(range(n), s_count))
                instance = Instance(t, terminals, k)
                assert kernelize(instance) == reference_kernelize(instance)

    @pytest.mark.parametrize(
        "n, s_count, seed, k, swaps",
        [
            (150, 10, 6, 3, 1),
            (100, 6, 0, 3, 2),
            (150, 6, 5, 3, 0),
            (200, 6, 5, 3, 1),
            (200, 2, 0, 2, 0),
        ],
        ids=["kernel6", "planted-100", "planted-150", "planted-200", "planted-200-k2"],
    )
    def test_every_carried_state_is_exact(self, n, s_count, seed, k, swaps):
        # Walk the driver one step at a time, replaying each record onto a
        # compact instance, which must be the instance the step returns. A
        # step with arc swaps hands on nothing. Whenever a step hands on
        # decompositions, rules 3 to 6 must indeed be inapplicable to the
        # replayed instance, and the decompositions must be fresh ones of
        # its big classes, in order, in-degree counts included. Rules 1 and
        # 2 run in the step handed them: it starts with rule 2's sweep
        # whenever there is one.
        cur = planted(n, s_count, seed, k)
        decs = None
        handed = swapped = deleted = 0
        sweep = ()
        while True:
            records, nxt, decs = _step(cur, decs)
            if sweep:
                assert records == sweep
            if not records or records[-1].status != "applied":
                break
            for rec in records:
                cur = successor(cur, rec)
            assert nxt == cur
            deleted += sum(rec.rule == "rr8" for rec in records)
            if records[0].rule == "arc-swap":
                swapped += 1
                assert decs is None
            sweep = ()
            if decs is None:
                continue
            handed += 1
            assert {rec.rule for rec in records} == {"rr8"}
            sweep = rr2_triangle_free_terminal(cur)
            for rule in (
                rr1_sanity,
                rr3_many_triangles,
                rr4_bounded_terminal,
                rr5_safe_partition,
            ):
                assert rule(cur).status == "not-applicable"
            classes = equivalence_classes(cur.tournament, cur.terminals)
            assert rr6_many_types(cur, classes).status == "not-applicable"
            big = [vs for vs in classes if len(vs) >= decomposition_class_size(cur.k)]
            members = [sorted(decomposition_sets(dec)["z"]) for dec in decs]
            assert list(map(tuple, members)) == big
            for dec, vs in zip(decs, members):
                fresh = class_decomposition(cur, vs)
                assert np.array_equal(dec.masks, fresh.masks)
                assert np.array_equal(dec.indeg, fresh.indeg)
        assert handed >= 2
        assert deleted >= 10
        assert swapped == swaps

    def test_a_run_stops_before_a_newly_first_class_with_a_swap(self, monkeypatch):
        # Here a run's deletions make another class first, and its swap
        # search finds a swap: the run ends before deleting from it, and the
        # next step, handed the decompositions, makes the swaps.
        found = []
        search = sfast.kernel._find_swap

        def recording(instance, masks):
            swap = search(instance, masks)
            found.append(swap is not None)
            return swap

        monkeypatch.setattr(sfast.kernel, "_find_swap", recording)
        instance = cur = planted(100, 6, 0, k=4)
        decs = None
        while not (found and found[-1]):
            found.clear()
            records, cur, decs = _step(cur, decs)
            assert records and records[-1].status == "applied"
        assert {rec.rule for rec in records} == {"rr8"}
        records = _step(cur, decs)[0]
        assert [rec.rule for rec in records] == ["arc-swap"] * (len(records) - 1) + ["rr8"]
        assert len(records) > 1
        monkeypatch.undo()
        assert kernelize(instance) == reference_kernelize(instance)

    def test_a_run_ends_at_a_crossing_exactly_when_its_class_changes(self):
        # A run stops after a deletion that takes a member's in- or
        # out-degree in the class to k, and that is exactly a deletion
        # after which a fresh decomposition of the class differs, less the
        # deleted column, in a degree-derived row (z_prime to
        # r_greater_tilde), outside vertices included. Any other run
        # ends where the first deletable class is another one with a swap,
        # or where no class is deletable. Over these 512 planted
        # kernelizations 94 runs end at a crossing and 5 before a swap.
        rows = slice(_PRIME, _R_GREATER_TILDE + 1)
        crossings = swaps_ahead = 0
        for n, s_count, seed, k in CARRIED_CORPUS:
            cur, decs = planted(n, s_count, seed, k), None
            while True:
                records, nxt, decs = _step(cur, decs)
                if not records or records[-1].status != "applied":
                    break
                if records[0].rule != "rr8":
                    cur = nxt
                    continue
                for pos, rec in enumerate(records):
                    v = cur.tournament.index_of()[rec.detail["deleted"][0]]
                    classes = equivalence_classes(cur.tournament, cur.terminals)
                    (members,) = (vs for vs in classes if v in vs)
                    before = class_decomposition(cur, members).masks[rows]
                    cur = successor(cur, rec)
                    left = [u - (u > v) for u in members if u != v]
                    after = class_decomposition(cur, left).masks[rows]
                    changed = not np.array_equal(np.delete(before, v, axis=1), after)
                    assert not changed or pos == len(records) - 1
                if changed:
                    crossings += 1
                    continue
                classes = equivalence_classes(cur.tournament, cur.terminals)
                deletable = sorted(
                    (vs for vs in classes if len(vs) >= deletion_class_size(cur.k)), key=min
                )
                if deletable:
                    assert list(deletable[0]) != left
                    swap = _find_swap(cur, class_decomposition(cur, deletable[0]).masks)
                    assert swap is not None
                    swaps_ahead += 1
        assert crossings >= 50
        assert swaps_ahead >= 1

    def test_carried_runs_rarely_decompose_or_search_for_swaps(self, monkeypatch):
        # Over the ten planted_kernel kernelizations a rule-8 run
        # decomposes a class afresh only when a deletion crosses a degree
        # threshold, and searches a class for swaps at most once: 19 and 18
        # calls, against 245 each were every deletion to redo both. Rule-2
        # sweeps and rule-8 runs take 63 steps, against 100 when rule 2
        # deleted only the terminals on no cycle, whose leftover blocks
        # rule 8 then deleted with 64 decompositions and 66 searches.
        calls = {"class_decomposition": 0, "_find_swap": 0, "_step": 0}
        for name in calls:
            original = getattr(sfast.kernel, name)

            def counting(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(sfast.kernel, name, counting)
        for seed in range(10):
            kernelize(planted(150, 10, seed))
        assert calls["class_decomposition"] <= 25
        assert calls["_find_swap"] <= 25
        assert calls["_step"] <= 70


def stepped_corpus():
    """Both planted corpora, random_budget, and 300 near-ordered
    tournaments."""
    yield from (planted(n, s_count, seed) for n, s_count, seed in PLANTED_CORPORA)
    yield from (generate_random(GeneratorSpec(12, 2, seed, k=6)) for seed in range(12))
    yield from map(families.near_ordered, range(300))


class TestSweepsAndRuns:
    """A rule-2 sweep is rule 2 stepped one vertex at a time, and a rule-8
    run returns what the run that updates every class after each deletion
    returns (`reference_rr2`, `reference_rr8_run`)."""

    def test_every_step_matches_the_one_at_a_time_loops(self, monkeypatch):
        counts = Counter()
        run = sfast.kernel._rr8_run

        def checked_run(instance, decs, first):
            got = run(instance, decs, first)
            records, nxt, handed = reference_rr8_run(instance, decs, first)
            assert got[0] == records and got[1] == nxt
            assert len(got[2]) == len(handed)
            for dec, expected in zip(got[2], handed):
                assert np.array_equal(dec.masks, expected.masks)
                assert np.array_equal(dec.indeg, expected.indeg)
            counts["runs"] += 1
            counts["run deletions"] += len(records)
            return got

        monkeypatch.setattr(sfast.kernel, "_rr8_run", checked_run)
        for instance in stepped_corpus():
            cur, decs = instance, None
            while True:
                records, nxt, decs = _step(cur, decs)
                if records and records[0].rule == "rr2":
                    stepped = []
                    while (out := reference_rr2(cur)).status == "applied":
                        assert rr1_sanity(cur).status == "not-applicable"
                        stepped.append(out)
                        cur = successor(cur, out)
                    assert records == tuple(stepped) and nxt == cur
                    counts["sweeps"] += 1
                    counts["sweeps of several"] += len(records) > 1
                if not records or records[-1].status != "applied":
                    break
                cur = nxt
        # Stepping rule 2 costs a strong-component search per deletion, so
        # the carried corpus, whose sweeps delete some 40000 vertices, is
        # checked for its runs alone.
        for n, s_count, seed, k in CARRIED_CORPUS:
            kernelize(planted(n, s_count, seed, k))
        # 410 sweeps (409 of several vertices) and 391 runs of 24101
        # deletions, 372 runs of 23829 of them on the carried corpus.
        assert counts["sweeps"] >= 300 and counts["sweeps of several"] >= 150
        assert counts["runs"] >= 350 and counts["run deletions"] >= 9000

    @pytest.mark.parametrize("m", [21, 81])
    def test_a_run_searches_each_class_for_a_swap_at_most_once(self, m, monkeypatch):
        # The run starts on the class that normalization has just searched,
        # and searches another class only the first time it becomes first.
        # Here the two classes take turns: the first run deletes the
        # vertices 0 to m - 5 in order, so it switches class after every
        # deletion, and a search per switch would search each class again.
        classes = searched = None
        run, search = sfast.kernel._rr8_run, sfast.kernel._find_swap

        def counting_run(instance, decs, first):
            nonlocal classes, searched
            classes = [np.flatnonzero(dec.masks[0]) for dec in decs]
            searched = [first]
            try:
                return run(instance, decs, first)
            finally:
                classes = searched = None

        def counting_search(instance, masks):
            if classes is not None:
                v = masks[0].argmax()
                (c,) = (c for c, members in enumerate(classes) if v in members)
                assert c not in searched
                searched.append(c)
            return search(instance, masks)

        monkeypatch.setattr(sfast.kernel, "_rr8_run", counting_run)
        monkeypatch.setattr(sfast.kernel, "_find_swap", counting_search)
        result = kernelize(alternating_classes(m))
        assert result.status == "reduced" and result.kernel.n == 25


def alternating_classes(m):
    """Terminal 2m over two classes of m members, the even vertices, which
    it beats, and the odd ones, which beat it and every even vertex but
    the last. Within each class, vertex i beats the next (m - 1) // 2 in
    cyclic order. At k = 1 rule 8 deletes from the classes in turn."""
    n = 2 * m + 1
    evens, odds = np.arange(0, n - 1, 2), np.arange(1, n - 1, 2)
    gap = (np.arange(m)[None, :] - np.arange(m)[:, None]) % m
    adj = np.zeros((n, n), dtype=bool)
    for part in (evens, odds):
        adj[np.ix_(part, part)] = (gap >= 1) & (gap <= (m - 1) // 2)
    adj[np.ix_(odds, evens)] = True
    adj[n - 1, evens] = adj[odds, n - 1] = True
    adj[evens[-1], odds[-1]], adj[odds[-1], evens[-1]] = True, False
    return Instance(Tournament(adj), frozenset({n - 1}), 1)


def assert_same_decomposition(instance, members):
    """class_decomposition gives the reference's ten sets, or raises its
    exception type with its message; True when it decomposed."""
    try:
        expected = reference_class_decomposition(instance, members)
    except (ValueError, InternalInvariantError) as exc:
        with pytest.raises(Exception) as got:
            class_decomposition(instance, members)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return False
    dec = class_decomposition(instance, members)
    assert decomposition_sets(dec) == expected
    return True


def hitter_instance(terminal_beats=range(12), k=1):
    """A transitive class 0..11 at budget k, an outside vertex 12 beaten by
    the odd members and beating the even ones, and a terminal 13 beating
    the members in ``terminal_beats``. At k = 1 vertex 12 has core degree
    4 both ways."""
    adj = np.zeros((14, 14), dtype=bool)
    adj[:12, :12] = np.triu(np.ones((12, 12), dtype=bool), 1)
    adj[1:12:2, 12] = adj[12, 0:12:2] = True
    beats = np.zeros(12, dtype=bool)
    beats[list(terminal_beats)] = True
    adj[13, :12], adj[:12, 13] = beats, ~beats
    adj[12, 13] = True
    return Instance(Tournament(adj), frozenset({13}), k)


class TestClassDecompositionReference:
    """The mask-backed decomposition against the frozenset one it replaced."""

    @pytest.mark.parametrize("n, s_count, seeds", [(50, 6, 20), (150, 10, 10)], ids=["dp", "kernel"])
    def test_every_big_class_along_the_planted_kernelizations(self, n, s_count, seeds):
        decomposed = 0
        for seed in range(seeds):
            instance = planted(n, s_count, seed)
            result = kernelize(instance)
            for cur in chain(instance, result.trace):
                for members in equivalence_classes(cur.tournament, cur.terminals):
                    if len(members) >= decomposition_class_size(cur.k):
                        decomposed += assert_same_decomposition(cur, members)
        assert decomposed >= 100

    @pytest.mark.parametrize("n", [20, 40, 150])
    def test_every_big_class_of_random_tournaments(self, n):
        # Uniformly random tournaments leave rule 3 unexhausted, and every
        # big class fails the outside-degree check; random orders with n/4
        # arcs turned backward give both outcomes.
        decomposed = raised = 0
        for s_count in (1, 2, 4):
            for k in range(4):
                rng = random.Random(100 * n + 10 * s_count + k)
                t = Tournament(_near_order_tournament(n, n // 4, rng)[0])
                terminals = frozenset(rng.sample(range(n), s_count))
                instance = Instance(t, terminals, k)
                for members in equivalence_classes(t, terminals):
                    if len(members) >= decomposition_class_size(k):
                        if assert_same_decomposition(instance, members):
                            decomposed += 1
                        else:
                            raised += 1
        assert decomposed and raised

    @pytest.mark.parametrize(
        "instance, members, message",
        [
            (hitter_instance(), range(11), "class too small"),
            (hitter_instance(range(6)), range(11), "class too small"),
            (hitter_instance(range(6)), range(12), "do not share a terminal"),
            (hitter_instance(), range(12), "high degree both ways"),
        ],
        ids=["small", "small-and-mixed", "mixed", "high-both-ways"],
    )
    def test_same_error_as_the_reference(self, instance, members, message):
        with pytest.raises((ValueError, InternalInvariantError), match=message):
            class_decomposition(instance, members)
        assert not assert_same_decomposition(instance, members)


def swap_outcome(search, instance, masks):
    """A swap search's result, or the message of the error it raised."""
    try:
        return search(instance, masks)
    except InternalInvariantError as exc:
        return str(exc)


class TestFindSwap:
    """`_find_swap`, which searches the sources as the sinks of the reversed
    tournament, against the two-sided search it replaced."""

    def test_every_big_class_along_kernelizations(self):
        # Both planted corpora and near-ordered tournaments (4 % of the
        # pairs turned backward), each with the instances its trace leaves.
        # 2581 classes; swaps found: 21 on a sink, 16 on a source.
        instances = [planted(n, s_count, seed) for n, s_count, seed in PLANTED_CORPORA]
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randrange(30, 121)
            adj = _near_order_tournament(n, round(0.02 * n * (n - 1)), rng)[0]
            terminals = frozenset(rng.sample(range(n), rng.randint(1, 5)))
            instances.append(Instance(Tournament(adj), terminals, rng.randint(1, 3)))
        searched, sides = 0, Counter()
        for instance in instances:
            for cur in chain(instance, kernelize(instance).trace):
                for members in equivalence_classes(cur.tournament, cur.terminals):
                    if len(members) < decomposition_class_size(cur.k):
                        continue
                    try:
                        masks = class_decomposition(cur, members).masks
                    except (ValueError, InternalInvariantError):
                        continue
                    got = swap_outcome(_find_swap, cur, masks)
                    assert got == swap_outcome(reference_find_swap, cur, masks)
                    searched += 1
                    if got is not None:
                        sinks = masks[_MINUS] | masks[_R_LESS]
                        sides["sink" if sinks[got[2]] else "source"] += 1
        assert searched >= 2000
        assert sides["sink"] >= 1 and sides["source"] >= 1

    def test_same_errors_on_arbitrary_masks(self):
        # Masks drawn at random break the decomposition's guarantees, so
        # both searches also meet pivots that no anchor answers.
        seen = Counter()
        rng = np.random.default_rng(0)
        for seed in range(300):
            n = 12 + seed % 9
            instance = Instance(random_tournament(n, seed), frozenset(), 1 + seed % 3)
            masks = np.zeros((10, n), dtype=bool)
            masks[_PRIME : _R_LESS + 2] = rng.random((5, n)) < 0.3
            got = swap_outcome(_find_swap, instance, masks)
            assert got == swap_outcome(reference_find_swap, instance, masks)
            seen[got if isinstance(got, str) else type(got).__name__] += 1
        assert seen["pivot dominates every anchor"] and seen["pivot dominated by every anchor"]
        assert seen["tuple"] and seen["NoneType"]


class TestLifting:
    def test_minimalize_drops_redundant_arcs(self):
        instance = triangle_instance(k=2)
        trimmed = minimalize_solution(instance, [(0, 1), (1, 2)])
        assert len(trimmed) == 1
        arcs = [tuple(a) for a in trimmed]
        assert verify_solution(instance, arcs, mode="reversal")

    @pytest.mark.parametrize(
        "arcs",
        [[(1, 0)], [(1, 0), (0, 2)], [(0, 3)]],
        ids=["alone", "with-a-present-arc", "unknown-label"],
    )
    def test_minimalize_rejects_an_absent_arc(self, arcs):
        instance = transitive_instance(3, range(3), 2)
        with pytest.raises(InvalidArcError):
            minimalize_solution(instance, arcs)

    def test_lift_through_rule5_and_rule2(self):
        instance = rule5_instance()
        result = kernelize(instance)
        kernel = result.kernel
        labels = kernel.tournament.labels
        u, v = next(iter(kernel.tournament.arcs()))
        lifted = lift_solution(instance, result.trace, [(labels[u], labels[v])])
        assert verify_solution(instance, lifted, mode="reversal")
        assert len(lifted) <= instance.k

    def test_lift_rejects_an_arc_naming_a_deleted_vertex(self):
        instance = rule8_instance()
        result = kernelize(instance)
        (deleted,) = next(rec for rec in result.trace if rec.rule == "rr8").detail["deleted"]
        kept = result.kernel.tournament.labels[0]
        for arc in ((deleted, kept), (kept, deleted)):
            with pytest.raises(InternalInvariantError, match=r"names a deleted vertex"):
                lift_solution(instance, result.trace, [arc])

    def test_lift_rejects_an_invalid_kernel_solution(self):
        instance = rule5_instance()
        result = kernelize(instance)
        with pytest.raises(InternalInvariantError):
            lift_solution(instance, result.trace, [])

    def test_empty_lift_through_pure_deletions(self):
        # the lone terminal rides no triangle and the triangle holds no
        # terminal, so rule 2 removes all four vertices: an empty kernel
        # solution lifts to an empty original solution
        t = Tournament.from_arcs(4, [(0, 1), (1, 2), (2, 0), (3, 0), (3, 1), (3, 2)])
        instance = Instance(t, frozenset({3}), 1)
        result = kernelize(instance)
        assert result.status == "reduced"
        assert result.kernel.n == 0
        assert [rec.rule for rec in result.trace] == ["rr2"] * 4
        lifted = lift_solution(instance, result.trace, [])
        assert lifted == frozenset()

    @pytest.mark.parametrize(
        "terminals, kernel_solution, expected",
        [
            (range(5), [(2, 0), (4, 2)], set()),
            ({1}, [(2, 0)], {(2, 4)}),
            ({1}, [(0, 1)], {(0, 1)}),
        ],
        ids=["both-cancelled", "one-cancelled", "none-cancelled"],
    )
    def test_lift_through_a_hand_built_arc_swap(self, terminals, kernel_solution, expected):
        # Swapping (0, 2) and (2, 4) of a transitive tournament puts 0, 1, 2
        # and 2, 3, 4 on triangles; a kernel solution that cancels a swapped
        # arc trades it for the other one, one that cancels neither stays.
        parent = transitive_instance(5, terminals, 2)
        swapped = [(0, 2), (2, 4)]
        child = Instance(reverse_arcs(parent.tournament, swapped), parent.terminals, 2)
        swap = RuleOutcome("arc-swap", "applied", child, detail={"reversed": swapped})
        lifted = lift_solution(parent, [swap], kernel_solution)
        assert lifted == expected
        assert verify_solution(parent, lifted, mode="reversal")

    def test_zero_budget_acyclic_yes_through_the_driver(self):
        instance = transitive_instance(5, {0, 2}, 0)
        result = kernelize(instance)
        assert result.status == "trivial-yes"
        assert lift_solution(instance, result.trace, []) == frozenset()

    def test_lift_rejects_a_deleted_vertex_that_closes_a_terminal_triangle(self):
        # The kernel 0 -> 1 -> 2 -> 0 is mended by reversing (2, 0); putting
        # back vertex 3, with 2 -> 3 -> 0, closes 0 -> 2 -> 3 -> 0 through the
        # terminal 0. Only the rr8 step's own check sees it.
        t = Tournament.from_arcs(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0), (1, 3)])
        instance = Instance(t, frozenset({0}), 1)
        with pytest.raises(InternalInvariantError, match="lift through rr8 broke"):
            lift_solution(instance, [deletion(3)], [(2, 0)])

    def test_lift_rejects_an_rr3_record_the_instance_does_not_replay(self):
        # A replayable rr3 record cannot leave a terminal cycle: the lifted
        # solution turns the arc the record turned, so the parent reversed
        # is the child reversed. What breaks a lift there is a record that
        # names an arc the instance lacks, or a vertex already deleted.
        instance = triangle_instance(k=2)
        for trace in ([reversal("rr3", (1, 0))], [deletion(2), reversal("rr3", (2, 0))]):
            with pytest.raises(InternalInvariantError, match="rr3 record"):
                lift_solution(instance, trace, [])

    def test_lift_rejects_a_solution_over_its_step_budget(self):
        # Two rr3 records spend the whole budget of one and more: the kernel
        # is transitive, but its k is -1, which even no arc exceeds.
        trace = [reversal("rr3", (0, 1)), reversal("rr3", (1, 2))]
        with pytest.raises(InternalInvariantError, match="lift through kernel solution broke"):
            lift_solution(triangle_instance(k=1), trace, [])
        assert lift_solution(triangle_instance(k=2), trace, []) == {(0, 1), (1, 2)}


def deletion(label, rule="rr8"):
    """A hand-built record of a rule that deleted ``label`` (rule 8 unless
    ``rule`` says otherwise): the delta alone, as `kernelize` writes it."""
    return RuleOutcome(rule, "applied", detail={"deleted": [label]})


def reversal(rule, *arcs):
    """A hand-built record of a rule that reversed ``arcs``."""
    return RuleOutcome(rule, "applied", detail={"reversed": [list(arc) for arc in arcs]})


def test_lift_step_checks_agree_with_verify_solution():
    # A hand-built trace of rule-8 deletions lifts an arc set of the kernel
    # back through every instance in between. The lift's score-based check
    # must first fail where verify_solution first fails, from the kernel
    # back, or nowhere; then the arcs come back as they are.
    seen = Counter()
    for n in (3, 6, 10, 20, 40):
        rng = random.Random(1000 + n)
        for _ in range(40):
            adj, order = _near_order_tournament(n, rng.randrange(n // 2 + 1), rng)
            t = Tournament(adj)
            terminals = frozenset(rng.sample(range(n), rng.randrange(n + 1)))
            gone = rng.sample(range(n), rng.randrange(n))
            kernel = Instance(t, terminals, 0).drop(gone)
            kept = kernel.tournament.labels
            backward = s_backward_arcs(
                kernel.tournament, kernel.terminals, [kept.index(v) for v in order if v in kept]
            )
            arcs = {(kept[u], kept[v]) for u, v in backward}
            if rng.random() < 0.5:
                arcs = set(rng.sample(sorted(arcs), len(arcs) // 2))
            instance = Instance(t, terminals, len(arcs) + rng.choice((-1, 0, 2)))
            expected = None
            for i in range(len(gone), -1, -1):
                state = instance.drop(gone[:i])
                index = state.tournament.index_of()
                if not verify_solution(state, [(index[u], index[v]) for u, v in arcs]):
                    expected = "kernel solution" if i == len(gone) else "rr8"
                    break
            trace = [deletion(v) for v in gone]
            if expected is None:
                assert lift_solution(instance, trace, arcs) == arcs
            else:
                with pytest.raises(InternalInvariantError, match=f"lift through {expected} broke"):
                    lift_solution(instance, trace, arcs)
            seen[expected] += 1
    assert min(seen[None], seen["rr8"], seen["kernel solution"]) >= 20, seen


def test_lift_checks_once_per_stretch_of_deletions(monkeypatch):
    # The lift checks the kernel's solution, the solution after every
    # undone reversal, and a stretch of consecutive deletions once, at its
    # top, and once more before an rr2 undo inside it minimalizes. A check
    # per rr8 undo made about 113 Landau passes per planted_kernel lift.
    lifts = []

    def recording_lift(*args):
        lifts.append(args)
        return lift_solution(*args)

    monkeypatch.setattr(sfast.solver, "lift_solution", recording_lift)
    for seed in range(10):
        solve_report(planted(150, 10, seed))
    calls = Counter()
    for name in ("_landau", "minimalize_solution"):
        original = getattr(sfast.kernel, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(sfast.kernel, name, counting)
    assert len(lifts) >= 10
    total = deletions = 0
    for original, trace, solution in lifts:
        deletes = [rec.rule in ("rr2", "rr8") for rec in trace if rec.status == "applied"]
        stretches = sum(b and not a for a, b in zip([False] + deletes, deletes))
        calls.clear()
        lift_solution(original, trace, solution)
        reversals = len(deletes) - sum(deletes)
        bound = 1 + reversals + stretches + calls["minimalize_solution"]
        assert 0 < calls["_landau"] <= bound
        total += calls["_landau"]
        deletions += sum(deletes)
    assert total * 20 < deletions


def mixed_deletion_trace(rng, stretches):
    """A near-ordered instance with two terminals and a hand-built trace:
    the deletion records of each stretch in ``stretches``, by rule, with an
    rr3 record between each two, and a minimal kernel solution; or None
    when some deletion finds no vertex to take. Every deleted vertex lies
    on no terminal cycle where it goes, so every lift of the trace
    succeeds."""
    n = rng.randrange(12, 20)
    t = Tournament(_near_order_tournament(n, rng.randrange(1, 5), rng)[0])
    instance = cur = Instance(t, frozenset(rng.sample(range(n), 2)), n * n)
    trace = []
    for i, rules in enumerate(stretches):
        if i:
            labels = cur.tournament.labels
            a, b = rng.choice(list(cur.tournament.arcs()))
            trace.append(reversal("rr3", (labels[a], labels[b])))
            cur = successor(cur, trace[-1])
        for rule in rules:
            free = rr2_triangle_free_terminal(cur)
            if not free:
                return None
            trace.append(deletion(rng.choice(free).detail["deleted"][0], rule))
            cur = successor(cur, trace[-1])
    labels = cur.tournament.labels
    order = np.argsort(-cur.tournament.adj.sum(axis=1), kind="stable").tolist()
    backward = s_backward_arcs(cur.tournament, cur.terminals, order)
    return instance, trace, minimalize_solution(cur, {(labels[u], labels[v]) for u, v in backward})


@pytest.mark.parametrize("last", [["rr8", "rr2"], ["rr2", "rr8"]], ids=["rr2-top", "rr8-top"])
def test_lift_checks_a_stretch_of_rr2_and_rr8_records_once(last, monkeypatch):
    # Three stretches of deletions, rr2 and rr8 mixed, with a reversal
    # between each two: the lift runs one Landau check for the kernel's
    # solution, one per reversal and one per stretch. A stretch undone
    # after a reversal starts at an rr2 record, which minimalizes first.
    # The trace's last stretch, undone first, has rr8 on top in the second
    # case and takes one check more: the kernel's solution, lifted through
    # that rr8 undo, is checked before the rr2 undo minimalizes it.
    rng = random.Random(24)
    stretches = [["rr2", "rr8", "rr2"], ["rr8", "rr8", "rr2"], last]
    cases = [mixed_deletion_trace(rng, stretches) for _ in range(200)]
    cases = [case for case in cases if case is not None]
    assert len(cases) >= 30
    calls = 0
    landau = sfast.kernel._landau

    def counting_landau(scores):
        nonlocal calls
        calls += 1
        return landau(scores)

    monkeypatch.setattr(sfast.kernel, "_landau", counting_landau)
    for instance, trace, solution in cases:
        calls = 0
        lift_solution(instance, trace, solution)
        assert calls == 1 + 2 + 3 + (last[-1] == "rr8")


def test_lift_minimalizes_again_after_each_reversal_undo():
    # Undoing the rr2 record of vertex 1 minimalizes the empty kernel
    # solution. Undoing the rr3 record then brings back (1, 2), which the
    # transitive input never needs, so the undo of vertex 0 must minimalize
    # afresh. Any lift of a trace rr2, rr3, rr2 ends inclusion-minimal.
    instance = transitive_instance(4, range(4), 1)
    trace = [deletion(0, "rr2"), reversal("rr3", (1, 2)), deletion(1, "rr2")]
    assert lift_solution(instance, trace, []) == frozenset()
    # As rule 2 does, the trace deletes vertices on no cycle where they go,
    # so every lift of a kernel solution succeeds.
    rng = random.Random(20)
    seen = Counter()
    for _ in range(300):
        n = rng.randrange(5, 9)
        t = Tournament(_near_order_tournament(n, rng.randrange(1, 4), rng)[0])
        terminals = frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
        instance = Instance(t, terminals, n * n)
        free = [v for v in range(n) if is_s_acyclic(t, {v})]
        if not free:
            continue
        x = rng.choice(free)
        arc = rng.choice([(u, v) for u, v in t.arcs() if x not in (u, v)])
        trace = [deletion(x, "rr2"), reversal("rr3", arc)]
        kernel = successor(successor(instance, trace[0]), trace[1])
        kt = kernel.tournament
        free = [kt.labels[v] for v in range(kt.n) if is_s_acyclic(kt, {v})]
        if not free:
            continue
        trace.append(deletion(rng.choice(free), "rr2"))
        kernel = successor(kernel, trace[2])
        labels = kernel.tournament.labels
        order = np.argsort(-kernel.tournament.adj.sum(axis=1), kind="stable").tolist()
        backward = s_backward_arcs(kernel.tournament, kernel.terminals, order)
        solution = {(labels[u], labels[v]) for u, v in backward}
        lifted = lift_solution(instance, trace, solution)
        assert minimalize_solution(instance, lifted) == lifted
        if (arc[1], arc[0]) in solution:
            seen["cancelled"] += 1
        else:
            seen["kept" if arc in lifted else "dropped"] += 1
    assert min(seen["cancelled"], seen["kept"], seen["dropped"]) >= 10, seen


def test_kernelize_builds_a_compact_instance_only_where_a_rule_needs_one(monkeypatch):
    # A run of rule-8 deletions reads the instance of the step where it
    # began, so a compact instance, one Tournament.drop, is built only for
    # an rr2 deletion, a class decomposed afresh, a found swap and the end
    # of a run: where a step with swaps follows it, and at the kernel.
    # Over the ten planted_kernel kernelizations that is 139 calls; a copy
    # per deletion made 1103, 1014 of them for rr8.
    drops = decomposed = 0
    drop, decompose = Tournament.drop, sfast.kernel.class_decomposition

    def counting_drop(self, vertices):
        nonlocal drops
        drops += 1
        return drop(self, vertices)

    def counting_decompose(instance, members):
        nonlocal decomposed
        decomposed += 1
        return decompose(instance, members)

    monkeypatch.setattr(Tournament, "drop", counting_drop)
    monkeypatch.setattr(sfast.kernel, "class_decomposition", counting_decompose)
    budget = deletions = 0
    for seed in range(10):
        rules = [rec.rule for rec in kernelize(planted(150, 10, seed)).trace]
        swap_steps = sum(a == "arc-swap" and b == "rr8" for a, b in zip(rules, rules[1:]))
        budget += rules.count("rr2") + 2 * swap_steps + 1
        deletions += rules.count("rr8")
    assert drops <= budget + decomposed
    assert drops < deletions // 4


def kernel_digest(instances):
    """SHA-256 over each kernelization's trace records (rule, status, note,
    detail), its status and its kernel (labels, terminals, k and arcs)."""
    digest = hashlib.sha256()
    for instance in instances:
        result = kernelize(instance)
        trace = [[rec.rule, rec.status, rec.note, rec.detail] for rec in result.trace]
        kernel = result.kernel
        if kernel is not None:
            t = kernel.tournament
            arcs = np.packbits(t.adj).tobytes().hex()
            kernel = [list(t.labels), sorted(kernel.terminals), kernel.k, arcs]
        digest.update(json.dumps([trace, result.status, kernel], default=int).encode())
    return digest.hexdigest()


def test_kernel_traces_match_their_pinned_digest():
    # The kernelizations of the planted_dp, planted_kernel and random_budget
    # corpora, pinned. A change that is meant to alter a trace updates the
    # digest and names the instances whose traces changed.
    instances = (
        [planted(50, 6, seed) for seed in range(20)]
        + [planted(150, 10, seed) for seed in range(10)]
        + [generate_random(GeneratorSpec(12, 2, seed, k=6)) for seed in range(12)]
    )
    assert kernel_digest(instances) == (
        "10b6d307568873e49377dd0f4ec68432f12b485ab2deebe4fcb5b43fa84db0be"
    )


def test_every_trace_detail_is_plain_json():
    # `sfast kernelize --trace` writes each record's detail with json.dumps,
    # which refuses NumPy scalars. The witness instances reach every rule
    # that decides or acts on them, the gated corpora rules 2, 3 and 8.
    instances = [
        make()
        for make in (
            rule5_instance,
            rule6_instance,
            rule7_instance,
            rule8_instance,
            stubborn_instance,
            families.unrefuted_no_instance,
        )
    ]
    instances += [triangle_instance(k=0)]
    instances += [planted(50, 6, seed) for seed in range(20)]
    instances += [planted(150, 10, seed) for seed in range(10)]
    rules = set()
    for instance in instances:
        for rec in kernelize(instance).trace:
            json.dumps(rec.detail)
            rules.add(rec.rule)
    assert rules == {"rr1", "rr2", "rr3", "rr5", "rr6", "rr7", "arc-swap", "rr8"}


def test_kernelize_keeps_quadratic_memory():
    # Each rule-8 record once kept its successor instance, about n^3/3
    # bytes in all; now the rule-8 records keep deltas.
    n = 1000
    instance = planted(n, 10, 0)
    tracemalloc.start()
    try:
        result = kernelize(instance)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.status == "reduced"
    assert peak < 48 * n * n


def test_reversal_records_keep_no_instance():
    # Twenty rr3 reversals. Records that kept the instance they leave
    # would retain about 20 n^2 bytes; deltas retain a small fraction.
    n = 200
    instance = generate_random(GeneratorSpec(n, n, 0, k=20))
    tracemalloc.start()
    try:
        result = kernelize(instance)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert [rec.rule for rec in result.trace] == ["rr3"] * 20 + ["rr1"]
    assert all(rec.next is None for rec in result.trace)
    assert retained < 2 * n * n


def _minimalize_terminals(n, rng):
    """Terminal sets of each size class: none, one vertex, a few, all."""
    return [
        frozenset(),
        frozenset({rng.randrange(n)}),
        frozenset(rng.sample(range(n), 3)),
        frozenset(range(n)),
    ]


def _near_order_tournament(n, flips, rng):
    """A random order with ``flips`` random arcs turned backward, and the order."""
    order = rng.sample(range(n), n)
    adj = np.zeros((n, n), dtype=bool)
    for i, u in enumerate(order):
        adj[u, order[i + 1 :]] = True
    for u, v in rng.sample(list(zip(*np.nonzero(adj))), flips):
        adj[u, v], adj[v, u] = False, True
    return adj, order


def _minimalize_cases(adj, order, terminals, rng):
    """Index arc sets by kind: the terminal-backward arcs of ``order`` (a
    reversal solution), those plus a few random arcs, those plus a forward
    arc whose reversal closes a terminal cycle (a deletion-only solution),
    and a random half of them that leaves a terminal cycle (no solution)."""
    t = Tournament(adj)
    backward = sorted(s_backward_arcs(t, terminals, order))
    others = [a for a in sorted(t.arcs()) if a not in backward]
    cases = {"backward": backward, "superset": backward + rng.sample(others, min(3, len(others)))}
    rng.shuffle(others)
    for a in others:
        if not is_s_acyclic(reverse_arcs(t, backward + [a]), terminals):
            cases["deletion-only"] = backward + [a]
            break
    half = rng.sample(backward, len(backward) // 2)
    if not verify_solution(Instance(t, terminals, len(half)), half, mode="deletion"):
        cases["none"] = half
    return cases


@pytest.mark.parametrize("n", [*range(4, 13), 40, 150])
def test_minimalize_matches_the_one_tarjan_pass_per_arc_reference(n):
    # Above 40 vertices the reference's Tarjan pass per arc is too slow for
    # the thousands of backward arcs of a uniform tournament's random order,
    # so there the tournament is a random order with a few arcs flipped.
    rng = random.Random(n)
    seen = set()
    for _ in range(3 if n <= 40 else 1):
        if n <= 40:
            adj = random_tournament(n, rng.randrange(10**6)).adj
            order = rng.sample(range(n), n)
        else:
            adj, order = _near_order_tournament(n, n // 3, rng)
        labels = rng.sample(range(10 * n), n)
        for terminals in _minimalize_terminals(n, rng):
            instance = Instance(Tournament(adj, labels), terminals, n * n)
            for kind, arcs in _minimalize_cases(adj, order, terminals, rng).items():
                solution = [(labels[u], labels[v]) for u, v in arcs]
                got = minimalize_solution(instance, solution)
                assert got == reference_minimalize_solution(instance, solution), kind
                if kind == "none":
                    assert got == set(solution)
                else:
                    index = instance.tournament.index_of()
                    assert verify_solution(instance, [(index[u], index[v]) for u, v in got])
                seen.add(kind)
    assert seen == {"backward", "superset", "deletion-only", "none"}


@pytest.mark.parametrize(
    "n, s_count, seeds, calls",
    [(50, 6, range(20), 34), (150, 10, range(10), 23)],
    ids=["planted_dp", "planted_kernel"],
)
def test_minimalize_matches_the_reference_on_every_lift_call(n, s_count, seeds, calls, monkeypatch):
    seen = []

    def checked(instance, solution_labels):
        solution = list(solution_labels)
        got = minimalize_solution(instance, solution)
        assert got == reference_minimalize_solution(instance, solution)
        seen.append(len(solution))
        return got

    monkeypatch.setattr(sfast.kernel, "minimalize_solution", checked)
    for seed in seeds:
        instance, _ = generate_planted(GeneratorSpec(n, s_count, seed, planted_k=3))
        solve_report(instance)
    assert len(seen) == calls


@pytest.mark.parametrize("seed", range(3))
def test_planted_instances_solve_without_tarjan(seed, monkeypatch):
    # Every tournament cycle test goes through Landau's scores, and the lift's
    # minimalization through reachability, so Tarjan's search never runs.
    def no_tarjan(succ):
        raise AssertionError("Tarjan's search ran")

    monkeypatch.setattr(sfast.graphs, "_tarjan", no_tarjan)
    instance, planted = generate_planted(GeneratorSpec(150, 10, seed, planted_k=3))
    report = solve_report(instance)
    assert report.certified
    assert report.size <= len(planted)
    assert verify_solution(instance, report.solution, mode="reversal")


def test_rule5_chain_at_1400_vertices_is_solved_through_rule5():
    instance, _ = relabel(rule5_chain(200, 6), 0)
    report = solve_report(instance)
    trace = [(rec.rule, rec.status) for rec in report.kernel.trace]
    assert trace == [("rr5", "applied"), ("rr1", "trivial-yes")]
    assert report.certified and report.size == 200
    assert verify_solution(instance, report.solution, mode="reversal")


def test_kernel_exhaustion_holds_on_the_witness_kernels():
    for builder in (rule5_instance, rule8_instance, stubborn_instance):
        result = kernelize(builder())
        assert result.status == "reduced"
        assert_kernel_exhausted(result.kernel)
