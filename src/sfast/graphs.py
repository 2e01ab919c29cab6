"""Tournaments, terminal-aware acyclicity checks, and solution verification.

Vertices are 0..n-1. A tournament carries a stable external label per vertex
so that vertex deletions (which compact the range) stay traceable.

Every cycle question here has one answer: a terminal is on a cycle exactly
when its strong component has more than one vertex. In a tournament such a
vertex lies on cycles of every length from 3 up (Moon), so it is also on a
directed triangle; and sorting the vertices by score (out-degree) lists the
strong components as consecutive runs, sources first, each run ending where
the top scores reach their largest possible sum (Landau). So a tournament's
components cost one sort and one prefix sum, while a `Digraph`, a
tournament with arcs deleted, still needs Tarjan's search.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Optional, Sequence

import numpy as np

Arc = tuple[int, int]

__all__ = [
    "Arc",
    "Digraph",
    "Instance",
    "InternalInvariantError",
    "InvalidArcError",
    "Tournament",
    "has_s_triangle",
    "is_s_acyclic",
    "reverse_arcs",
    "s_backward_arcs",
    "strongly_connected_components",
    "verify_solution",
]


class InvalidArcError(ValueError):
    """An arc refers to an ordered pair absent from the graph at hand."""


class InternalInvariantError(RuntimeError):
    """A structural guarantee the algorithms depend on failed to hold."""


def _freeze(matrix: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(matrix, dtype=bool)
    out.setflags(write=False)
    return out


class Digraph:
    """Plain directed graph on 0..n-1, used for deletion-semantics checks.

    ``adj[u, v]`` is True exactly when the arc (u, v) is present.
    """

    __slots__ = ("n", "adj")

    def __init__(self, adj: np.ndarray):
        # A copy, so that freezing it leaves the caller's array writable.
        adj = np.array(adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError("adjacency matrix must be square")
        if bool(np.diagonal(adj).any()):
            raise ValueError("self-loops are not allowed")
        self.n = adj.shape[0]
        self.adj = _freeze(adj)

    @staticmethod
    def minus(t: "Tournament", arcs: Iterable[Arc]) -> "Digraph":
        """The digraph obtained by deleting ``arcs`` from a tournament."""
        adj = np.array(t.adj)
        for u, v in _checked_arcs(t, arcs):
            adj[u, v] = False
        return Digraph(adj)


class Tournament(Digraph):
    """A complete orientation of K_n.

    For every pair u != v exactly one of ``adj[u, v]`` and ``adj[v, u]`` is
    True.
    """

    __slots__ = ("labels",)

    def __init__(self, adj: np.ndarray, labels: Optional[Sequence[int]] = None):
        super().__init__(adj)
        n = self.n
        if not np.array_equal(self.adj ^ self.adj.T, ~np.eye(n, dtype=bool)):
            raise ValueError("matrix is not a tournament orientation")
        self.labels = tuple(labels) if labels is not None else tuple(range(n))
        if len(self.labels) != n:
            raise ValueError("label count does not match vertex count")
        if len(set(self.labels)) != n:
            raise ValueError("labels must be distinct")

    @classmethod
    def from_arcs(cls, n: int, arcs: Iterable[Arc]) -> "Tournament":
        adj = np.zeros((n, n), dtype=bool)
        for u, v in arcs:
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise ValueError(f"bad arc ({u}, {v})")
            if adj[u, v] or adj[v, u]:
                raise ValueError(f"pair {{{u}, {v}}} oriented twice")
            adj[u, v] = True
        if int(adj.sum()) != n * (n - 1) // 2:
            raise ValueError("not every pair is oriented")
        return cls(adj)

    def arcs(self) -> Iterator[Arc]:
        for u, v in np.argwhere(self.adj):
            yield (int(u), int(v))

    def arc_count(self) -> int:
        return self.n * (self.n - 1) // 2

    def index_of(self) -> dict[int, int]:
        """Map external label -> current vertex index."""
        return {lab: i for i, lab in enumerate(self.labels)}

    @staticmethod
    def _derived(adj: np.ndarray, labels: tuple[int, ...]) -> "Tournament":
        """A tournament derived from a valid one, taking ownership of ``adj``.

        A principal submatrix or an arc reversal of a tournament is a
        tournament, and a subset of distinct labels is distinct, so this skips
        the validation of ``__init__``, which would cost as much as the copy
        that derived ``adj``.
        """
        t = object.__new__(Tournament)
        t.adj = _freeze(adj)
        t.n = t.adj.shape[0]
        t.labels = labels
        return t

    def drop(self, vertices: Iterable[int]) -> "Tournament":
        """The tournament without the given vertices, renumbered in order.

        ``vertices`` holds indices in any order, repeats allowed; one outside
        0..n-1 raises ValueError. Labels stay with their vertices. One vertex
        goes by two slicing deletions, more by a `take` of the kept rows and
        one of the kept columns, read off a mask, so that the indices need no
        sorting. Both give a C-contiguous matrix, which freezing does not copy
        again; an `np.ix_` gather is several times slower at every size.
        """
        gone = list(vertices)
        if len(gone) == 1:
            (v,) = gone
            if not 0 <= v < self.n:
                raise ValueError("vertex index out of range")
            adj = np.delete(np.delete(self.adj, v, axis=0), v, axis=1)
            return Tournament._derived(adj, self.labels[:v] + self.labels[v + 1 :])
        index = np.array(gone, dtype=np.intp)
        if index.size and not (0 <= index.min() and index.max() < self.n):
            raise ValueError("vertex index out of range")
        keep = np.ones(self.n, dtype=bool)
        keep[index] = False
        kept = np.flatnonzero(keep)
        labels = tuple(map(self.labels.__getitem__, kept.tolist()))
        return Tournament._derived(self.adj.take(kept, axis=0).take(kept, axis=1), labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tournament):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.adj, other.adj)

    def __hash__(self) -> int:
        return hash((self.labels, self.adj.tobytes()))

    def __repr__(self) -> str:
        return f"Tournament(n={self.n})"


def _checked_arcs(g: Digraph, arcs: Iterable[Arc]) -> list[Arc]:
    """The arcs as int pairs, in order; each must be present in g and listed once."""
    checked: dict[Arc, None] = {}
    for u, v in arcs:
        a = (int(u), int(v))
        if a in checked:
            raise InvalidArcError(f"arc ({u}, {v}) listed twice")
        if not (0 <= a[0] < g.n and 0 <= a[1] < g.n) or not g.adj[a]:
            raise InvalidArcError(f"arc ({u}, {v}) not present")
        checked[a] = None
    return list(checked)


@dataclass(frozen=True)
class Instance:
    """A tournament, a terminal set, and a reversal budget."""

    tournament: Tournament
    terminals: frozenset[int]
    k: int

    def __post_init__(self) -> None:
        n = self.tournament.n
        if not all(0 <= s < n for s in self.terminals):
            raise ValueError("terminal out of range")

    @property
    def n(self) -> int:
        return self.tournament.n

    def drop(self, vertices: Iterable[int]) -> "Instance":
        """The instance without the given vertices, read as `Tournament.drop`
        reads them, with the same k; a kept terminal's new index is its old
        one less the deleted vertices below it. The vertices are sorted once,
        for that count, and the sorted list goes to `Tournament.drop`, which
        needs no order."""
        gone = sorted(set(vertices))
        terminals = frozenset(s - bisect_left(gone, s) for s in self.terminals.difference(gone))
        return Instance(self.tournament.drop(gone), terminals, self.k)


def _term_mask(n: int, terminals: Iterable[int]) -> np.ndarray:
    """The terminals as a boolean mask over the vertices 0..n-1."""
    mask = np.zeros(n, dtype=bool)
    mask[list(terminals)] = True
    return mask


def reverse_arcs(t: Tournament, arcs: Iterable[Arc]) -> Tournament:
    """Reverse the given arcs; every arc must currently be present."""
    adj = np.array(t.adj)
    for u, v in _checked_arcs(t, arcs):
        adj[u, v] = False
        adj[v, u] = True
    return Tournament._derived(adj, t.labels)


def _successor_lists(adj: np.ndarray) -> list[list[int]]:
    rows, cols = np.nonzero(adj)
    starts = np.searchsorted(rows, np.arange(adj.shape[0] + 1)).tolist()
    heads = cols.tolist()
    return [heads[starts[i] : starts[i + 1]] for i in range(adj.shape[0])]


def _tarjan(succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components (Tarjan, iterative), sink components first."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if index[w] == -1:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    comp: list[int] = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(comp)
    return comps


def _reachable(adj: np.ndarray, v: int) -> np.ndarray:
    """Mask of the vertices reachable from v, v included.

    Each frontier's rows are read once and a vertex joins one frontier
    only, so a search reads every row at most once: O(n^2) at any depth.
    """
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[v] = True
    front = np.array([v])
    while front.size:
        new = adj[front].any(axis=0)
        new &= ~seen
        seen |= new
        front = np.flatnonzero(new)
    return seen


def _landau(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A tournament's strong components, read off its score vector (each
    vertex's out-degree, ``adj.sum(axis=1)``).

    Returns the vertices by descending score, whether a component ends at
    each position of that order, and whether each vertex lies on a cycle.
    The top i scores sum to C(i, 2) + i(n - i) exactly when those i vertices
    beat all the others; a vertex is alone in its component when that cut
    holds on both sides of its position. Only the scores are read, so a
    caller that keeps them current under arc reversals and vertex deletions
    gets the components without the matrix.
    """
    order = np.argsort(-scores, kind="stable")
    n = scores.size
    # The largest sum, C(i, 2) + i(n - i), is the top i scores of a
    # transitive tournament, n - 1 down to n - i.
    ends = np.cumsum(scores[order] - np.arange(n - 1, -1, -1)) == 0
    alone = ends.copy()
    alone[1:] &= ends[:-1]
    on_cycle = np.empty(n, dtype=bool)
    on_cycle[order] = ~alone
    return order, ends, on_cycle


def strongly_connected_components(t: Tournament) -> tuple[tuple[int, ...], ...]:
    """All strong components, sources first; each an ascending vertex tuple.

    A tournament's condensation is transitive, so this order is its only
    topological order.
    """
    order, ends, _ = _landau(t.adj.sum(axis=1))
    runs = np.split(order, np.flatnonzero(ends[:-1]) + 1)
    return tuple(tuple(sorted(run.tolist())) for run in runs if run.size)


def has_s_triangle(
    t: Tournament, terminals: frozenset[int] | set[int]
) -> Optional[tuple[int, int, int]]:
    """Some directed triangle through a terminal, or None.

    Returns (s, a, b) with arcs (s, a), (a, b), (b, s), where s is the
    smallest terminal on any cycle (by Moon's theorem, on a triangle) and
    (a, b) is lexicographically smallest for that s.
    """
    if not terminals:
        return None
    candidates = sorted(terminals)
    hit = np.flatnonzero(_landau(t.adj.sum(axis=1))[2][candidates])
    if hit.size == 0:
        return None
    s = candidates[hit[0]]
    outs = np.flatnonzero(t.adj[s])
    ins = np.flatnonzero(t.adj[:, s])
    a, b = np.argwhere(t.adj[np.ix_(outs, ins)])[0]
    return (s, int(outs[a]), int(ins[b]))


def is_s_acyclic(g: Digraph, terminals: frozenset[int] | set[int]) -> bool:
    """True when no cycle passes through a terminal, that is, when no
    terminal shares its strong component with another vertex.

    On a `Tournament` the components come from the scores: by Landau's
    cuts a vertex is alone in its component exactly when the top scores
    reach their largest sum just before and just after it, and by Moon's
    theorem every other vertex lies on a triangle. A `Digraph` (a tournament
    with arcs deleted) can have long cycles and no triangle and no such
    score structure, so there Tarjan's search finds the components.
    """
    if not terminals:
        return True
    if isinstance(g, Tournament):
        return not _landau(g.adj.sum(axis=1))[2][list(terminals)].any()
    return not any(
        len(comp) > 1 and any(v in terminals for v in comp)
        for comp in _tarjan(_successor_lists(g.adj))
    )


def s_backward_arcs(
    t: Tournament,
    terminals: frozenset[int] | set[int],
    order: Sequence[int],
) -> frozenset[Arc]:
    """Arcs pointing backward across or out of a terminal in ``order``.

    An arc (x, y) with y placed before x qualifies when x or y is a terminal
    or some terminal sits strictly between their positions.
    """
    perm = np.asarray(order, dtype=int)
    if perm.shape != (t.n,) or sorted(perm.tolist()) != list(range(t.n)):
        raise ValueError("order must be a permutation of the vertices")
    if t.n == 0:
        return frozenset()
    sub = t.adj[np.ix_(perm, perm)]
    term_perm = _term_mask(t.n, terminals)[perm]
    cum = np.cumsum(term_perm)
    later, earlier = np.nonzero(np.tril(sub, k=-1))
    if later.size == 0:
        return frozenset()
    between = cum[later - 1] - cum[earlier] > 0
    keep = term_perm[later] | term_perm[earlier] | between
    return frozenset(
        (int(perm[i]), int(perm[j])) for i, j in zip(later[keep], earlier[keep])
    )


def verify_solution(
    instance: Instance,
    solution: Iterable[Arc],
    mode: Literal["reversal", "deletion"] = "reversal",
) -> bool:
    """Check a candidate solution against the instance and its budget.

    Arcs absent from the tournament raise InvalidArcError; a structurally
    valid candidate that exceeds k or leaves a terminal cycle returns False.
    """
    t = instance.tournament
    arcs = _checked_arcs(t, dict.fromkeys((int(u), int(v)) for u, v in solution))
    if len(arcs) > instance.k:
        return False
    if mode == "reversal":
        return is_s_acyclic(reverse_arcs(t, arcs), instance.terminals)
    if mode == "deletion":
        return is_s_acyclic(Digraph.minus(t, arcs), instance.terminals)
    raise ValueError(f"unknown mode {mode!r}")
