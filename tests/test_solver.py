import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import (
    from_arcs,
    random_tournament,
    rule6_instance,
    stubborn_instance,
    transitive,
    unrefuted_no_instance,
)
from reference import (
    interleaving_count,
    interleavings,
    node_order_cost,
    reference_minimum,
    reference_solve_contracted,
)
from sfast.graphs import (
    Instance,
    InternalInvariantError,
    Tournament,
    is_s_acyclic,
    s_backward_arcs,
    verify_solution,
)
import sfast.solver
from sfast.kernel import ConflictPacking, conflict_packing, kernelize, lift_solution
from sfast.oracle import GeneratorSpec, generate_planted, generate_random, oracle_min_deletion
from sfast.solver import (
    ContractedTournament,
    SolverConfig,
    SolverScaleError,
    classes_feasible,
    color_count,
    contract,
    default_max_trials,
    draw_coloring,
    expand_order,
    kernel_solution_from_coloring,
    solve,
    solve_contracted,
    solve_report,
    _labeled_backward_arcs,
    _ordering_bound,
)


def random_instance(n, s_count, k, seed):
    rng = random.Random(seed)
    t = random_tournament(n, rng.randrange(2**30))
    terminals = frozenset(rng.sample(range(n), s_count))
    return Instance(t, terminals, k)


def feasible_coloring(instance, q, seed):
    """First feasible coloring drawn from the given seed, or None."""
    rng = random.Random(seed)
    for _ in range(300):
        coloring = draw_coloring(instance.n, q, rng)
        if classes_feasible(instance, coloring, q):
            return coloring
    return None


def synthetic_lattice(layout, seed):
    """A contraction laid out by one string per color: '.' is a node and 'T'
    a terminal node. Nonterminal nodes hold one or two vertices; arcs inside
    a color point forward, arcs between colors are split at random."""
    rng = random.Random(seed)
    sizes, node_color, color_nodes, terminals = [], [], [], set()
    for color, pattern in enumerate(layout):
        ids = []
        for mark in pattern:
            node = len(sizes)
            if mark == "T":
                terminals.add(node)
            sizes.append(1 if mark == "T" else rng.choice((1, 2)))
            node_color.append(color)
            ids.append(node)
        color_nodes.append(tuple(ids))
    total = len(sizes)
    mult = np.zeros((total, total), dtype=np.int64)
    for x in range(total):
        for y in range(x + 1, total):
            arcs = sizes[x] * sizes[y]
            forward = arcs if node_color[x] == node_color[y] else rng.randint(0, arcs)
            mult[x, y], mult[y, x] = forward, arcs - forward
    starts = np.cumsum([0] + sizes)
    return ContractedTournament(
        nodes=tuple(tuple(range(starts[i], starts[i + 1])) for i in range(total)),
        color_nodes=tuple(color_nodes),
        terminal_nodes=frozenset(terminals),
        mult=mult,
    )


LAYOUTS = {
    "two terminals in one color": (".T..T.", "....", "..."),
    "terminal first and last": ("T...", "...T", ".."),
    "terminal in every color": (".T.", "T..", "..T", ".T"),
    "no terminal": ("....", "...", "....."),
    "color with one node": ("T", "..T.", "..."),
    "color with zero nodes": ("", ".T..", "T..."),
    "wide boxes": ("..T...", ".T....", "....T.", "......"),
}


class TestParameters:
    @pytest.mark.parametrize(
        "k,expected", [(1, 3), (2, 4), (3, 5), (4, 6), (5, 7), (8, 8), (12, 10)]
    )
    def test_color_count_values(self, k, expected):
        assert color_count(k) == expected

    @pytest.mark.parametrize("k", [0, -1, -7])
    def test_color_count_rejects_nonpositive(self, k):
        with pytest.raises(ValueError):
            color_count(k)

    @given(st.integers(min_value=1, max_value=10_000))
    def test_color_count_brackets_sqrt_8k(self, k):
        q = color_count(k)
        assert (q - 1) ** 2 <= 8 * k - 1 < q**2

    @pytest.mark.parametrize("k,expected", [(1, 37), (2, 47), (3, 57), (4, 67)])
    def test_default_trials_values(self, k, expected):
        assert default_max_trials(k) == expected

    def test_default_trials_past_float_range_is_a_scale_limit(self):
        # 20 * (2e)**sqrt(k/8) is about 1.9e261 at k = 10**6 and overflows
        # a float from about k = 1.41 million.
        assert 10**261 < default_max_trials(10**6) < 10**262
        for k in (1_500_000, 10**20, 10**400):
            with pytest.raises(SolverScaleError):
                default_max_trials(k)

    def test_default_trials_monotone(self):
        counts = [default_max_trials(k) for k in range(1, 41)]
        assert counts == sorted(counts)

    def test_default_trials_covers_target_rate(self):
        for k in (1, 3, 7, 20):
            rate = (2 * math.e) ** -math.sqrt(k / 8)
            assert default_max_trials(k) * rate >= 20


class TestColoring:
    def test_draw_is_deterministic(self):
        first = draw_coloring(12, 4, random.Random(5))
        second = draw_coloring(12, 4, random.Random(5))
        assert first == second
        assert len(first) == 12
        assert all(0 <= c < 4 for c in first)

    def test_distinct_seeds_usually_differ(self):
        colorings = {draw_coloring(15, 3, random.Random(s)) for s in range(20)}
        assert len(colorings) > 15


class TestClassesFeasible:
    def test_monochromatic_terminal_triangle_is_infeasible(self):
        instance = Instance(
            from_arcs(3, [(0, 1), (1, 2), (2, 0)]), frozenset({0}), 1
        )
        assert not classes_feasible(instance, (0, 0, 0), 3)

    def test_terminal_free_cycle_is_fine(self):
        instance = Instance(
            from_arcs(3, [(0, 1), (1, 2), (2, 0)]), frozenset(), 1
        )
        assert classes_feasible(instance, (0, 0, 0), 3)

    def test_splitting_the_triangle_restores_feasibility(self):
        instance = Instance(
            from_arcs(3, [(0, 1), (1, 2), (2, 0)]), frozenset({0}), 1
        )
        assert classes_feasible(instance, (0, 0, 1), 3)

    def test_small_classes_are_skipped(self):
        adj = np.zeros((4, 4), dtype=bool)
        for u, v in [(0, 1), (1, 2), (2, 0), (0, 3), (1, 3), (2, 3)]:
            adj[u, v] = True
        instance = Instance(Tournament(adj), frozenset({0, 1, 2, 3}), 2)
        assert classes_feasible(instance, (0, 0, 1, 1), 2)


class TestContract:
    def collect(self, count=25):
        cases = []
        seed = 0
        while len(cases) < count:
            seed += 1
            n = 6 + seed % 6
            instance = random_instance(n, 2 + seed % 4, 2 + seed % 3, seed)
            q = color_count(instance.k)
            coloring = feasible_coloring(instance, q, seed)
            if coloring is None:
                continue
            cases.append((instance, coloring, q))
        return cases

    def test_nodes_partition_the_vertices(self):
        for instance, coloring, q in self.collect():
            ct = contract(instance, coloring, q)
            seen = [v for node in ct.nodes for v in node]
            assert sorted(seen) == list(range(instance.n))
            assert all(node == tuple(sorted(node)) for node in ct.nodes)

    def test_terminals_sit_in_singleton_nodes(self):
        for instance, coloring, q in self.collect():
            ct = contract(instance, coloring, q)
            for node_id in ct.terminal_nodes:
                assert len(ct.nodes[node_id]) == 1
                assert ct.nodes[node_id][0] in instance.terminals
            covered = {ct.nodes[i][0] for i in ct.terminal_nodes}
            assert covered == set(instance.terminals)

    def test_mult_counts_cross_arcs_exactly(self):
        for instance, coloring, q in self.collect(10):
            ct = contract(instance, coloring, q)
            adj = instance.tournament.adj
            for x, members_x in enumerate(ct.nodes):
                for y, members_y in enumerate(ct.nodes):
                    if x == y:
                        continue
                    want = sum(
                        bool(adj[u, v]) for u in members_x for v in members_y
                    )
                    assert ct.mult[x, y] == want

    def test_arc_conservation(self):
        for instance, coloring, q in self.collect():
            ct = contract(instance, coloring, q)
            intra = sum(len(node) * (len(node) - 1) // 2 for node in ct.nodes)
            assert int(ct.mult.sum()) + intra == instance.n * (instance.n - 1) // 2

    def test_color_nodes_follow_condensation_order(self):
        for instance, coloring, q in self.collect():
            ct = contract(instance, coloring, q)
            for ids in ct.color_nodes:
                for a in range(len(ids)):
                    for b in range(a + 1, len(ids)):
                        x, y = ids[a], ids[b]
                        assert ct.mult[y, x] == 0
                        assert ct.mult[x, y] == len(ct.nodes[x]) * len(ct.nodes[y])

    def test_terminal_inside_a_cycle_is_rejected(self):
        instance = Instance(
            from_arcs(3, [(0, 1), (1, 2), (2, 0)]), frozenset({1}), 1
        )
        with pytest.raises(InternalInvariantError, match="nontrivial component"):
            contract(instance, (0, 0, 0), 3)


class TestSolveContracted:
    def collect(self, count=35, max_nodes=8):
        cases = []
        seed = 100
        while len(cases) < count:
            seed += 1
            n = 5 + seed % 5
            instance = random_instance(n, 1 + seed % 4, 2 + seed % 3, seed)
            q = color_count(instance.k)
            coloring = feasible_coloring(instance, q, seed)
            if coloring is None:
                continue
            ct = contract(instance, coloring, q)
            if len(ct.nodes) > max_nodes:
                continue
            if interleaving_count(ct.color_nodes) > 20_000:
                continue
            cases.append((instance, ct))
        return cases

    def test_matches_exhaustive_order_enumeration(self):
        for _, ct in self.collect():
            value, order = solve_contracted(ct)
            assert value == reference_minimum(ct)
            assert node_order_cost(ct, order) == value

    def test_returned_order_is_a_legal_interleaving(self):
        for _, ct in self.collect(15):
            _, order = solve_contracted(ct)
            assert sorted(order) == list(range(len(ct.nodes)))
            assert tuple(order) in set(interleavings(ct.color_nodes))

    def test_expanded_order_realizes_the_value(self):
        for instance, ct in self.collect(15):
            value, order = solve_contracted(ct)
            vertex_order = expand_order(ct, order)
            backward = s_backward_arcs(
                instance.tournament, instance.terminals, vertex_order
            )
            assert len(backward) == value

    def test_transitive_single_color_costs_nothing(self):
        instance = Instance(Tournament(transitive(6)), frozenset({0, 3}), 2)
        ct = contract(instance, (0,) * 6, color_count(2))
        value, order = solve_contracted(ct)
        assert value == 0
        assert order == list(ct.color_nodes[0])

    def test_matches_the_reference_dp_on_planted_kernels(self):
        # The first feasible coloring of each planted kernel, as a solve
        # would contract it; the value and the witness order must both match.
        checked = 0
        for seed in range(40):
            instance, _ = generate_planted(GeneratorSpec(50, 6, seed, planted_k=3))
            kernel = kernelize(instance).kernel
            if kernel is None:
                continue
            q = color_count(kernel.k)
            coloring = feasible_coloring(kernel, q, seed)
            assert coloring is not None
            ct = contract(kernel, coloring, q)
            if math.prod(len(ids) + 1 for ids in ct.color_nodes) > 20_000:
                continue
            assert solve_contracted(ct) == reference_solve_contracted(ct), seed
            checked += 1
        assert checked >= 20

    @pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
    def test_matches_the_reference_dp_on_synthetic_layouts(self, layout):
        # Nodes of one or two vertices keep arc weights small and ties
        # common, which pins the tie order: packs first, then terminal steps
        # by color, each only on a strict gain.
        for seed in range(5):
            ct = synthetic_lattice(layout, seed)
            value, order = solve_contracted(ct)
            assert (value, order) == reference_solve_contracted(ct), seed
            assert node_order_cost(ct, order) == value

    def test_single_vertex(self):
        instance = Instance(from_arcs(1, []), frozenset({0}), 1)
        ct = contract(instance, (0,), 3)
        assert solve_contracted(ct) == (0, [0])


class TestScaleGuard:
    def test_oversized_lattice_is_refused_up_front(self):
        per_color, colors = 100, 4
        total = per_color * colors
        color_nodes = tuple(
            tuple(range(c * per_color, (c + 1) * per_color)) for c in range(colors)
        )
        ct = ContractedTournament(
            nodes=tuple((i,) for i in range(total)),
            color_nodes=color_nodes,
            terminal_nodes=frozenset(),
            mult=np.zeros((total, total), dtype=np.int64),
        )
        with pytest.raises(SolverScaleError, match="prefix vectors"):
            solve_contracted(ct)

    def test_dp_memory_is_linear_in_the_lattice(self):
        # 12**5 prefix vectors: 5 colors of 11 single-vertex terminal nodes
        # over a seeded random tournament.
        colors, per = 5, 11
        total = colors * per
        t = random_tournament(total, 12)
        adj = np.array(t.adj)
        for c in range(colors):
            block = slice(c * per, (c + 1) * per)
            adj[block, block] = transitive(per)
        ct = ContractedTournament(
            nodes=tuple((i,) for i in range(total)),
            color_nodes=tuple(tuple(range(c * per, (c + 1) * per)) for c in range(colors)),
            terminal_nodes=frozenset(range(total)),
            mult=adj.astype(np.int64),
        )
        states = (per + 1) ** colors
        tracemalloc.start()
        try:
            value, order = solve_contracted(ct)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 64 * states + 16 * 2**20
        assert node_order_cost(ct, order) == value


class TestKernelSolutionFromColoring:
    def test_infeasible_coloring_yields_none(self):
        instance = Instance(
            from_arcs(3, [(0, 1), (1, 2), (2, 0)]), frozenset({0}), 1
        )
        assert kernel_solution_from_coloring(instance, (0, 0, 0), 3) is None

    def test_feasible_coloring_yields_a_verified_solution(self):
        found = 0
        for seed in range(40):
            instance = random_instance(7, 3, 3, 1000 + seed)
            q = color_count(instance.k)
            coloring = feasible_coloring(instance, q, seed)
            if coloring is None:
                continue
            result = kernel_solution_from_coloring(instance, coloring, q)
            if result is None:
                continue
            value, arcs = result
            assert len(arcs) == value <= instance.k
            assert verify_solution(instance, arcs, "reversal")
            assert verify_solution(instance, arcs, "deletion")
            found += 1
        assert found >= 10

    def test_over_budget_optima_yield_none(self):
        instance = stubborn_instance()
        q = color_count(instance.k)
        rng = random.Random(9)
        for _ in range(80):
            coloring = draw_coloring(instance.n, q, rng)
            assert kernel_solution_from_coloring(instance, coloring, q) is None

    def test_arcs_are_reported_as_labels(self):
        base = from_arcs(
            5,
            [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 1), (1, 4), (2, 4), (3, 4)],
        )
        shrunk = base.drop([0])
        assert shrunk.labels == (1, 2, 3, 4)
        instance = Instance(shrunk, frozenset({shrunk.index_of()[1]}), 1)
        found = set()
        rng = random.Random(2)
        for _ in range(60):
            coloring = draw_coloring(instance.n, 3, rng)
            result = kernel_solution_from_coloring(instance, coloring, 3)
            if result is not None:
                value, arcs = result
                assert value == 1
                found |= arcs
        assert found
        assert found <= {(1, 2), (2, 3), (3, 1)}


class TestOrderingBound:
    @pytest.mark.parametrize("seed", range(6))
    def test_count_is_the_orders_backward_arcs(self, seed):
        instance = random_instance(14 + seed, 1 + seed, 3, seed)
        for target in (-1, 2):
            count, order = _ordering_bound(instance, target)
            assert sorted(order.tolist()) == list(range(instance.n))
            assert count == len(s_backward_arcs(instance.tournament, instance.terminals, order))

    def test_sweeps_end_at_a_local_optimum_below_the_score_order(self):
        gains = 0
        for seed in range(8):
            instance = random_instance(10, 3, 3, seed)
            t, terminals = instance.tournament, instance.terminals
            by_score = np.argsort(-t.adj.sum(axis=1), kind="stable")
            start = len(s_backward_arcs(t, terminals, by_score))
            count, order = _ordering_bound(instance, -1)
            assert count <= start
            gains += count < start
            for i, v in enumerate(order.tolist()):
                rest = np.delete(order, i)
                for j in range(instance.n):
                    moved = np.insert(rest, j, v)
                    assert len(s_backward_arcs(t, terminals, moved)) >= count
            # a target the score order already meets stops before any move
            assert _ordering_bound(instance, start)[1].tolist() == by_score.tolist()
        assert gains > 0


class TestConfig:
    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            SolverConfig(max_trials=0)

    def test_defaults(self):
        config = SolverConfig()
        assert config.seed == 0
        assert config.max_trials is None


class TestSolveReport:
    def test_acyclic_instance_solves_without_trials(self):
        instance = Instance(Tournament(transitive(8)), frozenset({0, 4, 7}), 3)
        report = solve_report(instance)
        assert report.solution == frozenset()
        assert report.size == 0
        assert report.trials == 0
        assert report.certified
        assert report.seconds >= 0

    def test_single_triangle_needs_one_reversal(self):
        instance = Instance(
            from_arcs(3, [(0, 1), (1, 2), (2, 0)]), frozenset({0}), 1
        )
        report = solve_report(instance)
        assert report.size == 1
        assert report.certified
        assert verify_solution(instance, report.solution, "reversal")

    def test_planted_instance_past_256_vertices(self):
        instance, _ = generate_planted(GeneratorSpec(300, 10, 0, planted_k=3))
        report = solve_report(instance)
        assert report.size is not None and report.size <= 3
        assert verify_solution(instance, report.solution, "reversal")
        assert verify_solution(instance, report.solution, "deletion")

    def test_planted_instance_at_600_vertices(self):
        instance, _ = generate_planted(GeneratorSpec(600, 10, 0, planted_k=3))
        report = solve_report(instance)
        assert report.size is not None and report.size <= 3
        assert report.certified
        assert verify_solution(instance, report.solution, "reversal")

    def test_planted_instance_at_1000_vertices(self):
        # About 960 kernel steps, nearly all rule-8 deletions that carry the
        # rule state on to the next step.
        instance, _ = generate_planted(GeneratorSpec(1000, 10, 0, planted_k=3))
        report = solve_report(instance)
        assert report.size is not None and report.size <= 3
        assert report.certified
        assert verify_solution(instance, report.solution, "reversal")

    def test_planted_scale_instance_is_certified_by_the_ordering_bound(self):
        # Its 137-vertex kernel at k' = 3 used to cost one 168 s DP call.
        instance, _ = generate_planted(GeneratorSpec(300, 10, 1, planted_k=3))
        report = solve_report(instance)
        assert report.size is not None and report.size <= 3
        assert report.certified
        assert report.trials == 0
        assert verify_solution(instance, report.solution, "reversal")

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 8, 50])
    def test_running_time_follows_the_optimum_not_the_budget(self, k):
        # Optimum 3 at every budget; the trials took 176 s at k = 5 and
        # more than 15 minutes at k = 8.
        planted, _ = generate_planted(GeneratorSpec(60, 10, 0, planted_k=3))
        instance = Instance(planted.tournament, planted.terminals, k)
        report = solve_report(instance)
        assert report.size == 3
        assert report.certified
        assert report.trials == 0
        assert verify_solution(instance, report.solution, "reversal")

    def test_trials_run_when_the_ordering_bound_falls_short(self):
        instance = generate_random(GeneratorSpec(12, 2, 8, k=6))
        report = solve_report(instance)
        assert report.trials >= 1
        assert report.certified
        assert report.size == oracle_min_deletion(instance.tournament, instance.terminals, instance.k)
        assert verify_solution(instance, report.solution, "reversal")

    def test_negative_budget_is_a_certified_no(self):
        instance = Instance(Tournament(transitive(4)), frozenset({0}), -1)
        report = solve_report(instance)
        assert report.solution is None
        assert report.trials == 0
        assert report.certified
        assert report.kernel.status == "trivial-no"

    def test_kernel_refutation_skips_the_trials(self):
        report = solve_report(rule6_instance())
        assert report.solution is None
        assert report.trials == 0
        assert report.certified
        assert report.kernel.status == "trivial-no"

    @pytest.mark.parametrize(
        "instance",
        [
            stubborn_instance(),
            generate_random(GeneratorSpec(40, 5, 1, k=50)),
            generate_random(GeneratorSpec(60, 60, 1, k=30)),
        ],
        ids=["stubborn", "random-40", "random-60"],
    )
    def test_packing_bound_refutes_without_trials(self, instance):
        # Each holds more than k arc-disjoint terminal triangles; the last
        # two used to end past the scale limit and after 531 trials.
        report = solve_report(instance)
        assert report.solution is None
        assert report.trials == 0
        assert report.certified
        assert report.kernel.status == "reduced"
        assert len(conflict_packing(instance.tournament, instance.terminals).triangles) > instance.k

    def test_exhausting_trials_is_not_a_certificate(self):
        instance = unrefuted_no_instance()
        assert oracle_min_deletion(instance.tournament, instance.terminals, instance.k) is None
        report = solve_report(instance)
        assert report.solution is None
        assert report.size is None
        assert not report.certified
        assert report.trials == default_max_trials(instance.k)
        assert report.kernel.status == "reduced"

    def test_trial_cap_is_honored(self):
        report = solve_report(unrefuted_no_instance(), SolverConfig(max_trials=5))
        assert report.trials == 5
        assert report.solution is None

    def test_matches_oracle_on_planted_instances(self):
        for seed in range(25):
            spec = GeneratorSpec(
                n=8 + seed % 7,
                s_count=3 + seed % 4,
                seed=seed,
                planted_k=1 + seed % 4,
            )
            instance, _ = generate_planted(spec)
            report = solve_report(instance)
            optimum = oracle_min_deletion(
                instance.tournament, instance.terminals, instance.k
            )
            if optimum is None:
                assert report.solution is None
            else:
                assert report.size == optimum
                assert verify_solution(instance, report.solution, "reversal")

    def test_solutions_are_deterministic(self):
        spec = GeneratorSpec(n=11, s_count=4, seed=3, planted_k=3)
        instance, _ = generate_planted(spec)
        first = solve_report(instance, SolverConfig(seed=7))
        second = solve_report(instance, SolverConfig(seed=7))
        assert first.solution == second.solution
        assert first.trials == second.trials

    def test_solve_is_the_report_solution(self):
        spec = GeneratorSpec(n=8, s_count=3, seed=11, planted_k=2)
        instance, _ = generate_planted(spec)
        config = SolverConfig(seed=4)
        assert solve(instance, config) == solve_report(instance, config).solution


def packing_of_size(size):
    return ConflictPacking(((0, 1, 2),) * size, frozenset(), frozenset())


def bounds_with_both_packings_first(instance, kr, packing):
    """The bound phase with the larger of the input's and the kernel's
    packing bounds taken before the ordering bound: (solution, certified),
    or None when the trials would run."""
    kernel = kr.kernel
    offset = instance.k - kernel.k
    lower = max(
        len(packing(instance.tournament, instance.terminals).triangles),
        offset + len(packing(kernel.tournament, kernel.terminals).triangles),
    )
    if lower > instance.k:
        return None, True
    count, order = _ordering_bound(kernel, lower - offset)
    if count <= kernel.k:
        best = lift_solution(instance, kr.trace, _labeled_backward_arcs(kernel, order, count))
        if len(best) <= lower:
            return best, True
    return None


class TestPackingOnDemand:
    @pytest.mark.parametrize("seed", range(3))
    def test_planted_kernel_instances_pack_only_the_kernel(self, seed, monkeypatch):
        instance, _ = generate_planted(GeneratorSpec(150, 10, seed, planted_k=3))
        packed = []

        def recording(t, terminals):
            packed.append(t)
            return conflict_packing(t, terminals)

        monkeypatch.setattr(sfast.solver, "conflict_packing", recording)
        report = solve_report(instance)
        assert report.certified and report.trials == 0
        # Seed 0's kernel is terminal-acyclic already; its packing is empty
        # and the bound path certifies it like the others.
        assert [t is report.kernel.kernel.tournament for t in packed] == [True]

    @pytest.mark.parametrize(
        "n, s_count, seed", [(50, 6, 12), (50, 6, 16), (50, 6, 19), (150, 10, 0), (150, 10, 7)]
    )
    def test_kernels_without_terminal_cycles_lift_the_empty_solution(self, n, s_count, seed):
        # These kernels keep no terminal on a cycle, so the bound path's
        # packing and ordering count are both 0 and it certifies the lift
        # of the empty kernel solution.
        instance, _ = generate_planted(GeneratorSpec(n, s_count, seed, planted_k=3))
        report = solve_report(instance)
        kernel = report.kernel.kernel
        assert is_s_acyclic(kernel.tournament, kernel.terminals)
        assert report.solution == lift_solution(instance, report.kernel.trace, ())
        assert report.certified and report.trials == 0

    @pytest.mark.parametrize("input_size, targets", [(4, [0]), (3, [0, 1])])
    def test_a_larger_input_packing_refutes_or_reruns_the_ordering_bound(
        self, input_size, targets, monkeypatch
    ):
        # Kernel k' = 1 at k = 3 (offset 2), optimum 3. An empty kernel
        # packing leaves the bound at 2, which the ordering bound, run to
        # target 0, cannot meet; so the input's packing runs, and its size
        # decides.
        instance, _ = generate_planted(GeneratorSpec(150, 10, 1, planted_k=3))

        def packing(t, terminals):
            return packing_of_size(input_size if t is instance.tournament else 0)

        ran = []

        def recording(kernel, target):
            ran.append(target)
            return _ordering_bound(kernel, target)

        monkeypatch.setattr(sfast.solver, "conflict_packing", packing)
        monkeypatch.setattr(sfast.solver, "_ordering_bound", recording)
        report = solve_report(instance)
        assert instance.k - report.kernel.kernel.k == 2
        assert ran == targets
        assert report.trials == 0
        assert (report.solution, report.certified) == bounds_with_both_packings_first(
            instance, report.kernel, packing
        )
        if input_size > instance.k:
            assert report.solution is None
        else:
            assert report.size == 3
            assert verify_solution(instance, report.solution, "reversal")


class TestAgainstOracleSweep:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**30))
    def test_small_random_instances(self, seed):
        rng = random.Random(seed)
        n = rng.randrange(4, 8)
        t = random_tournament(n, rng.randrange(2**30))
        terminals = frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
        k = rng.randrange(1, 5)
        instance = Instance(t, terminals, k)
        report = solve_report(instance, SolverConfig(seed=seed))
        optimum = oracle_min_deletion(t, terminals, k)
        if optimum is None:
            assert report.solution is None
        else:
            assert report.size == optimum
