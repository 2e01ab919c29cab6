"""Verdict checks that do not rely on sfast's own graph code.

Cycles are found with networkx strongly connected components: a terminal
lies on a cycle exactly when its component has more than one vertex (there
are no self-loops). The random workload's "no solution" verdicts are checked
against ``oracle_min_deletion``; the oracle is exact but slow, so it runs
here, outside the timed region, once per instance.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx


def _terminal_on_cycle(edges, n: int, terminals) -> bool:
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return any(
        len(comp) > 1 and not comp.isdisjoint(terminals)
        for comp in nx.strongly_connected_components(g)
    )


def solution_problem(instance, solution, limit: int) -> Optional[str]:
    """Why ``solution`` does not solve ``instance`` within ``limit`` arcs, or None."""
    adj = instance.tournament.adj
    n = instance.n
    arcs = set(solution)
    if len(arcs) != len(solution):
        return "an arc is listed twice"
    if len(arcs) > limit:
        return f"{len(arcs)} arcs exceed the limit {limit}"
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n and adj[u, v]):
            return f"arc ({u}, {v}) is not in the tournament"
    kept = [(int(u), int(v)) for u, v in zip(*adj.nonzero()) if (u, v) not in arcs]
    if _terminal_on_cycle(kept, n, instance.terminals):
        return "a terminal cycle survives deletion"
    if _terminal_on_cycle(kept + [(v, u) for u, v in arcs], n, instance.terminals):
        return "a terminal cycle survives reversal"
    return None


class Checker:
    """Checks verdicts against the workload's reference answers."""

    def __init__(self, sfast):
        self._sfast = sfast
        self._optimum: dict[int, Optional[int]] = {}

    def optimum(self, case) -> Optional[int]:
        """Minimum deletion size within the budget k, or None past it."""
        if case.id not in self._optimum:
            inst = case.instance
            self._optimum[case.id] = self._sfast.oracle_min_deletion(
                inst.tournament, inst.terminals, inst.k
            )
        return self._optimum[case.id]

    def problem(self, case, solution: Optional[frozenset], certified: bool) -> Optional[str]:
        """Why the verdict on ``case`` is wrong, or None when it checks out."""
        instance = case.instance
        if case.planted is not None:
            if solution is None:
                return "no solution reported for a planted yes-instance"
            return solution_problem(instance, solution, min(instance.k, len(case.planted)))
        optimum = self.optimum(case)
        if solution is None:
            if optimum is not None:
                return f"no solution reported, the oracle finds one of size {optimum}"
            return None
        if optimum is None:
            return "a solution reported where the oracle finds none"
        if len(solution) < optimum or (certified and len(solution) != optimum):
            return f"size {len(solution)} against the optimum {optimum}"
        return solution_problem(instance, solution, instance.k)
