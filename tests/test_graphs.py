import itertools
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from families import all_tournaments, from_arcs, random_tournament, relabel, transitive
from sfast.graphs import (
    Digraph,
    Instance,
    InvalidArcError,
    Tournament,
    has_s_triangle,
    is_s_acyclic,
    reverse_arcs,
    s_backward_arcs,
    strongly_connected_components,
    verify_solution,
)
from reference import reference_has_s_triangle, s_triangles_through_arc
from sfast.kernel import rr2_triangle_free_terminal

# Sizes just past 256, where any 8-bit vertex or path count wraps, up to
# 600 vertices.
LARGE_SIZES = (257, 258, 300, 600)
KINDS = ("random", "transitive", "one-reversed")


def to_networkx(adj):
    g = nx.DiGraph()
    g.add_nodes_from(range(adj.shape[0]))
    g.add_edges_from(zip(*np.nonzero(adj)))
    return g


def networkx_s_acyclic(adj, terminals):
    """The definition: no terminal shares a strong component with another vertex."""
    return all(
        len(comp) == 1 or not comp & terminals
        for comp in nx.strongly_connected_components(to_networkx(adj))
    )


def sample_tournament(kind, n, seed):
    """A random tournament, a transitive one, or (from n = 3) a transitive
    one with the seeded arc (u, v), v >= u + 2, reversed so that u..v close
    a cycle."""
    if kind == "random":
        return random_tournament(n, seed)
    adj = transitive(n)
    if kind == "one-reversed" and n >= 3:
        rng = random.Random(seed)
        u = rng.randrange(n - 2)
        v = rng.randrange(u + 2, n)
        adj[u, v], adj[v, u] = False, True
    return Tournament(adj)


def sample_terminals(n, rng):
    """About half the vertices when n is small, about five when it is large."""
    share = min(0.5, 5 / n)
    return frozenset(v for v in range(n) if rng.random() < share)


def at_large_sizes(test):
    """Add every kind of tournament at every size in LARGE_SIZES as examples."""
    for n in LARGE_SIZES:
        for kind in KINDS:
            test = example(n=n, seed=n, kind=kind)(test)
    return test


def subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from itertools.combinations(items, r)


class TestTournamentBasics:
    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError):
            Tournament(np.zeros((2, 3), dtype=bool))

    def test_rejects_self_loops(self):
        adj = np.zeros((2, 2), dtype=bool)
        adj[0, 0] = adj[0, 1] = True
        with pytest.raises(ValueError):
            Tournament(adj)

    def test_rejects_unoriented_and_doubly_oriented_pairs(self):
        neither = np.zeros((2, 2), dtype=bool)
        with pytest.raises(ValueError):
            Tournament(neither)
        both = np.array([[False, True], [True, False]])
        with pytest.raises(ValueError):
            Tournament(both)

    def test_arcs_round_trip(self):
        t = random_tournament(6, seed=5)
        again = from_arcs(6, t.arcs())
        assert again == t
        assert t.arc_count() == 15

    def test_drop_keeps_labels(self):
        t = random_tournament(5, seed=2)
        smaller = t.drop([1, 3])
        assert smaller.labels == (0, 2, 4)
        for i, u in enumerate(smaller.labels):
            for j, v in enumerate(smaller.labels):
                if i != j:
                    assert smaller.adj[i, j] == t.adj[u, v]

    def test_drop_is_a_valid_tournament_and_rejects_bad_indices(self):
        t = random_tournament(5, seed=2)
        smaller = t.drop({4, 0})
        assert smaller == Tournament(t.adj[1:4, 1:4], (1, 2, 3))
        assert not smaller.adj.flags.writeable
        with pytest.raises(ValueError):
            t.drop([-1])
        with pytest.raises(ValueError):
            t.drop([5])

    def test_construction_leaves_the_callers_array_alone(self):
        a = transitive(4)
        t = Tournament(a)
        assert a.flags.writeable
        a[0, 1], a[1, 0] = False, True
        assert np.array_equal(t.adj, transitive(4))
        assert not t.adj.flags.writeable

    def test_equality_includes_labels(self):
        t = random_tournament(4, seed=9)
        assert t == Tournament(t.adj.copy())
        assert hash(t) == hash(Tournament(t.adj.copy()))
        relabeled = Tournament(t.adj.copy(), labels=[7, 8, 9, 10])
        assert t != relabeled

    def test_instance_rejects_foreign_terminals(self):
        t = random_tournament(3, seed=0)
        with pytest.raises(ValueError):
            Instance(t, frozenset({3}), 1)


def labeled_instance(n, seed):
    """A random instance whose labels are not 0..n-1 and whose terminals are
    a random subset."""
    rng = random.Random(seed)
    labels = rng.sample(range(10 * n + 10), n)
    t = Tournament(random_tournament(n, seed).adj, labels)
    return Instance(t, frozenset(rng.sample(range(n), rng.randrange(n + 1))), rng.randrange(5))


def validated_drop(instance, vertices):
    """The instance without ``vertices``, built through the validating
    constructors."""
    gone = set(vertices)
    keep = [v for v in range(instance.n) if v not in gone]
    t = instance.tournament
    sub = Tournament(t.adj[np.ix_(keep, keep)], [t.labels[v] for v in keep])
    terminals = frozenset(keep.index(s) for s in instance.terminals if s not in gone)
    return Instance(sub, terminals, instance.k)


DROP_SHAPES = {
    "list": lambda vs, rng: sorted(vs),
    "set": lambda vs, rng: set(vs),
    "unsorted list": lambda vs, rng: rng.sample(sorted(vs), len(vs)),
    "list with duplicates": lambda vs, rng: sorted(vs) + sorted(vs)[: 1 + len(vs) // 2],
    "numpy array": lambda vs, rng: np.array(sorted(vs), dtype=np.int64),
}


class TestDrop:
    @pytest.mark.parametrize("shape", DROP_SHAPES)
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_a_validated_construction(self, shape, seed):
        rng = random.Random(seed)
        instance = labeled_instance(rng.randrange(2, 40), seed)
        gone = set(rng.sample(range(instance.n), rng.randrange(1, instance.n)))
        self.check(instance, DROP_SHAPES[shape](gone, rng), gone)

    @pytest.mark.parametrize("seed", range(4))
    def test_empty_and_all_but_one(self, seed):
        instance = labeled_instance(12 + seed, seed)
        self.check(instance, [], set())
        for last in (0, 5, instance.n - 1):
            gone = set(range(instance.n)) - {last}
            self.check(instance, sorted(gone), gone)

    def test_single_vertices_at_every_position(self):
        instance = labeled_instance(9, 3)
        for v in range(instance.n):
            self.check(instance, [v], {v})

    @staticmethod
    def check(instance, vertices, gone):
        before = (instance.tournament.adj.copy(), instance.tournament.labels, instance.terminals)
        expected = validated_drop(instance, gone)
        dropped = instance.drop(vertices)
        assert dropped == expected
        assert dropped.tournament == instance.tournament.drop(vertices) == expected.tournament
        for adj in (dropped.tournament.adj, instance.tournament.drop(vertices).adj):
            assert not adj.flags.writeable and adj.flags.c_contiguous
        assert np.array_equal(instance.tournament.adj, before[0])
        assert (instance.tournament.labels, instance.terminals) == before[1:]
        assert not instance.tournament.adj.flags.writeable

    @pytest.mark.parametrize("bad", [[-1], [5], [0, 7], {2, -3}])
    def test_rejects_indices_outside_the_instance(self, bad):
        instance = labeled_instance(5, 1)
        with pytest.raises(ValueError, match="out of range"):
            instance.drop(bad)
        with pytest.raises(ValueError, match="out of range"):
            instance.tournament.drop(bad)


class TestDigraphBasics:
    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError, match="square"):
            Digraph(np.zeros((2, 3), dtype=bool))

    def test_rejects_self_loops(self):
        adj = np.zeros((3, 3), dtype=bool)
        adj[1, 1] = True
        with pytest.raises(ValueError, match="self-loops"):
            Digraph(adj)

    def test_a_tournament_is_a_digraph(self):
        t = random_tournament(4, seed=3)
        assert isinstance(t, Digraph)
        assert not t.adj.flags.writeable

    @pytest.mark.parametrize("arc", [(-1, 0), (3, 0), (0, 2)])
    def test_minus_rejects_arcs_outside_the_tournament(self, arc):
        t = from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(InvalidArcError, match="not present"):
            Digraph.minus(t, [arc])


@given(n=st.integers(2, 8), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_reverse_arcs_is_an_involution(n, seed):
    t = random_tournament(n, seed)
    rng = random.Random(seed + 1)
    arcs = [a for a in t.arcs() if rng.random() < 0.4]
    assert reverse_arcs(reverse_arcs(t, arcs), [(v, u) for u, v in arcs]) == t


@given(n=st.integers(2, 8), seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_reverse_arcs_matches_a_validated_tournament(n, seed):
    rng = random.Random(seed)
    labels = rng.sample(range(100), n)
    t = Tournament(random_tournament(n, seed).adj, labels)
    arcs = [a for a in t.arcs() if rng.random() < 0.4]
    adj = np.array(t.adj)
    for u, v in arcs:
        adj[u, v], adj[v, u] = False, True
    flipped = reverse_arcs(t, arcs)
    assert flipped == Tournament(adj, labels)
    assert not flipped.adj.flags.writeable


def test_reverse_arcs_rejects_missing_arc():
    t = from_arcs(2, [(0, 1)])
    with pytest.raises(InvalidArcError):
        reverse_arcs(t, [(1, 0)])
    with pytest.raises(InvalidArcError, match="twice"):
        reverse_arcs(t, [(0, 1), (0, 1)])


def test_triangle_detection_matches_acyclicity_exhaustively():
    # Every tournament on up to 4 vertices, every terminal set: a terminal
    # lies on a cycle (a nontrivial strong component) exactly when some
    # terminal lies on a triangle.
    for n in range(1, 5):
        for t in all_tournaments(n):
            for terms in subsets(range(n)):
                terminals = frozenset(terms)
                tri = has_s_triangle(t, terminals)
                expected = networkx_s_acyclic(t.adj, terminals)
                assert (tri is None) == expected
                assert is_s_acyclic(t, terminals) == expected
                if tri is not None:
                    s, a, b = tri
                    assert s in terminals
                    assert t.adj[s, a] and t.adj[a, b] and t.adj[b, s]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [50, 150, 600])
def test_triangle_search_matches_the_terminal_loop(n, kind):
    # The score-based search returns the same triangle as trying the terminals
    # one at a time: the smallest terminal, then the smallest (a, b). Of the
    # terminals, rule 2 deletes those the one-at-a-time search finds on no
    # triangle.
    for seed in range(2):
        t = sample_tournament(kind, n, seed)
        rng = random.Random(seed)
        for terminals in (
            frozenset(),
            sample_terminals(n, rng),
            frozenset(rng.sample(range(n), n // 3)),
            frozenset(range(n)),
        ):
            assert has_s_triangle(t, terminals) == reference_has_s_triangle(t, terminals)
            free = [s for s in sorted(terminals) if reference_has_s_triangle(t, {s}) is None]
            sweep = rr2_triangle_free_terminal(Instance(t, terminals, 1))
            deleted = sweep.detail.get("deleted", [])
            assert [v for v in deleted if v in terminals] == free


@at_large_sizes
@given(n=st.integers(3, 8), seed=st.integers(0, 10**6), kind=st.sampled_from(KINDS))
@settings(max_examples=60, deadline=None)
def test_triangle_detection_matches_acyclicity_sampled(n, seed, kind):
    t = sample_tournament(kind, n, seed)
    terminals = sample_terminals(n, random.Random(seed))
    expected = networkx_s_acyclic(t.adj, terminals)
    assert (has_s_triangle(t, terminals) is None) == expected
    assert is_s_acyclic(t, terminals) == expected


@at_large_sizes
@given(n=st.integers(2, 9), seed=st.integers(0, 10**6), kind=st.sampled_from(KINDS))
@settings(max_examples=80, deadline=None)
def test_acyclicity_agrees_with_component_sizes(n, seed, kind):
    # On digraphs with deleted arcs, where the triangle shortcut is wrong,
    # the answer must match the component-based definition.
    rng = random.Random(seed)
    t = sample_tournament(kind, n, seed)
    doomed = [arc for arc in t.arcs() if rng.random() < 0.3]
    g = Digraph.minus(t, doomed)
    terminals = sample_terminals(n, rng)
    assert is_s_acyclic(g, terminals) == networkx_s_acyclic(g.adj, terminals)


def naive_backward(t, terminals, order):
    pos = {v: i for i, v in enumerate(order)}
    found = set()
    for u, v in t.arcs():
        if pos[u] > pos[v]:
            between = any(pos[v] < pos[s] < pos[u] for s in terminals)
            if u in terminals or v in terminals or between:
                found.add((u, v))
    return frozenset(found)


@given(n=st.integers(1, 9), seed=st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_backward_arcs_match_direct_count(n, seed):
    t = random_tournament(n, seed)
    rng = random.Random(seed)
    terminals = frozenset(v for v in range(n) if rng.random() < 0.4)
    order = list(range(n))
    rng.shuffle(order)
    assert s_backward_arcs(t, terminals, order) == naive_backward(t, terminals, order)


def test_backward_arcs_reject_non_permutations():
    t = random_tournament(3, seed=3)
    with pytest.raises(ValueError):
        s_backward_arcs(t, frozenset(), [0, 1])
    with pytest.raises(ValueError):
        s_backward_arcs(t, frozenset(), [0, 1, 1])


def test_reversing_backward_arcs_clears_terminal_cycles():
    # Whatever the order, reversing its terminal-relevant backward arcs is a
    # (not necessarily small) valid reversal set.
    for seed in range(40):
        t = random_tournament(7, seed)
        rng = random.Random(seed)
        terminals = frozenset(v for v in range(7) if rng.random() < 0.5)
        order = list(range(7))
        rng.shuffle(order)
        arcs = s_backward_arcs(t, terminals, order)
        assert is_s_acyclic(reverse_arcs(t, arcs), terminals)


def assert_sources_first(t, comps):
    """Every vertex in one component, and every arc points to the same or a
    later component."""
    assert sorted(v for comp in comps for v in comp) == list(range(t.n))
    comp_of = np.empty(t.n, dtype=int)
    for i, comp in enumerate(comps):
        comp_of[list(comp)] = i
    tails, heads = np.nonzero(t.adj)
    assert (comp_of[tails] <= comp_of[heads]).all()


class TestStronglyConnectedComponents:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_networkx_on_tournaments(self, seed):
        t = random_tournament(9, seed)
        ours = strongly_connected_components(t)
        theirs = {frozenset(c) for c in nx.strongly_connected_components(to_networkx(t.adj))}
        assert {frozenset(c) for c in ours} == theirs

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n", [9, 257, 600])
    def test_matches_networkx_sources_first(self, n, kind, seed):
        t = sample_tournament(kind, n, seed)
        comps = strongly_connected_components(t)
        theirs = {frozenset(c) for c in nx.strongly_connected_components(to_networkx(t.adj))}
        assert {frozenset(c) for c in comps} == theirs
        assert all(list(comp) == sorted(comp) for comp in comps)
        assert_sources_first(t, comps)

    @pytest.mark.parametrize("seed", range(10))
    def test_condensation_order_is_topological(self, seed):
        # Four small random blocks, each beating the later ones, shuffled.
        rng = random.Random(seed)
        sizes = [rng.randrange(1, 4) for _ in range(4)]
        adj = transitive(sum(sizes))
        start = 0
        for size in sizes:
            block = random_tournament(size, seed + start).adj
            adj[start : start + size, start : start + size] = block
            start += size
        t = relabel(Instance(Tournament(adj), frozenset(), 0), seed)[0].tournament
        assert_sources_first(t, strongly_connected_components(t))

    def test_components_listed_ascending(self):
        t = from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert strongly_connected_components(t) == ((0, 1, 2),)


def test_vertex_in_any_triangle_matches_brute_force():
    # A one-terminal triangle search against the definition.
    for seed in range(30):
        t = random_tournament(6, seed)
        for v in range(6):
            brute = any(
                t.adj[v, a] and t.adj[a, b] and t.adj[b, v]
                for a in range(6)
                for b in range(6)
            )
            assert (has_s_triangle(t, {v}) is not None) == brute


def test_triangles_through_arc_match_brute_force():
    for seed in range(30):
        t = random_tournament(6, seed)
        rng = random.Random(seed)
        terminals = frozenset(v for v in range(6) if rng.random() < 0.5)
        for u, v in t.arcs():
            brute = [
                w
                for w in range(6)
                if t.adj[v, w]
                and t.adj[w, u]
                and ({u, v, w} & terminals)
            ]
            assert s_triangles_through_arc(t, terminals, (u, v)) == brute


def test_triangles_through_arc_rejects_absent_arc():
    t = from_arcs(2, [(0, 1)])
    with pytest.raises(InvalidArcError):
        s_triangles_through_arc(t, frozenset({0}), (1, 0))


class TestVerifySolution:
    def triangle_instance(self, k=1):
        t = from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        return Instance(t, frozenset({0}), k)

    def test_single_reversal_fixes_a_triangle(self):
        instance = self.triangle_instance()
        assert verify_solution(instance, [(0, 1)])
        assert verify_solution(instance, [(0, 1)], mode="deletion")

    def test_budget_is_enforced(self):
        instance = self.triangle_instance(k=0)
        assert not verify_solution(instance, [(0, 1)])

    def test_absent_arc_raises(self):
        instance = self.triangle_instance()
        with pytest.raises(InvalidArcError):
            verify_solution(instance, [(1, 0)])

    def test_duplicates_collapse_before_the_budget_check(self):
        instance = self.triangle_instance(k=1)
        assert verify_solution(instance, [(0, 1), (0, 1)])

    def test_reversal_can_fail_where_deletion_succeeds(self):
        # Reversing both arcs of a transitive path creates a fresh cycle,
        # deleting them does not.
        t = from_arcs(3, [(0, 1), (1, 2), (0, 2)])
        instance = Instance(t, frozenset({0}), 2)
        picked = [(0, 1), (1, 2)]
        assert verify_solution(instance, picked, mode="deletion")
        assert not verify_solution(instance, picked, mode="reversal")

    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            verify_solution(self.triangle_instance(), [], mode="contraction")
