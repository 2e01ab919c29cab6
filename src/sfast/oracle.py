"""Brute-force oracles and seeded instance generators.

The oracles are deliberately independent of the kernel and solver code: they
only use the acyclicity primitives, so they can arbitrate disagreements.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import (
    Arc,
    Digraph,
    Instance,
    Tournament,
    has_s_triangle,
    is_s_acyclic,
    s_backward_arcs,
)

__all__ = [
    "GeneratorSpec",
    "OracleScaleError",
    "generate_planted",
    "generate_random",
    "oracle_min_deletion",
    "oracle_min_reversal_orderings",
]

# Above this many candidate subsets the deletion oracle switches to exact
# branch-and-bound; above this branching depth it refuses outright.
_ENUMERATION_BUDGET = 200_000
_BRANCHING_DEPTH_CAP = 12
# Coins drawn per `getrandbits` call: 512 KiB of random bits.
_COIN_BLOCK = 1 << 16
# The ordering oracle enumerates all n! orders, so it refuses larger n.
_ORDERING_CAP = 9


class OracleScaleError(ValueError):
    """The requested brute-force computation is hopelessly large."""


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for the seeded instance generators.

    ``k`` is the budget attached to a random instance; planted instances take
    their budget from ``planted_k`` instead.
    """

    n: int
    s_count: int
    seed: int
    planted_k: Optional[int] = None
    k: Optional[int] = None

    def __post_init__(self) -> None:
        if self.n < 0 or not (0 <= self.s_count <= self.n):
            raise ValueError("need 0 <= s_count <= n")


def _shortest_terminal_cycle(
    adj: np.ndarray, terminals: tuple[int, ...]
) -> Optional[list[Arc]]:
    """A shortest cycle through a terminal, as an arc list, or None.

    Ties are broken by the smallest terminal. Works on arbitrary digraphs,
    which matters because deletion leaves a non-tournament behind.
    """
    n = adj.shape[0]
    best: Optional[list[int]] = None
    for s in terminals:
        # BFS over successors; first path returning to s is a shortest cycle
        # through s.
        parent = np.full(n, -1, dtype=int)
        dist = np.full(n, -1, dtype=int)
        frontier = [s]
        dist[s] = 0
        closed = -1
        while frontier and closed < 0:
            nxt: list[int] = []
            for v in frontier:
                for w in np.flatnonzero(adj[v]):
                    w = int(w)
                    if w == s:
                        closed = v
                        break
                    if dist[w] < 0:
                        dist[w] = dist[v] + 1
                        parent[w] = v
                        nxt.append(w)
                if closed >= 0:
                    break
            frontier = nxt
        if closed < 0:
            continue
        path = [closed]
        while path[-1] != s:
            path.append(int(parent[path[-1]]))
        path.reverse()  # s ... closed
        if best is None or len(path) < len(best):
            best = path
    if best is None:
        return None
    return [(best[i], best[(i + 1) % len(best)]) for i in range(len(best))]


def _min_deletion_enumerate(
    t: Tournament, terminals: frozenset[int], k_max: int, tri_arcs: list[Arc]
) -> Optional[int]:
    arcs = [a for a in t.arcs()]
    for size in range(1, k_max + 1):
        # Only subsets hitting the fixed terminal triangle can be solutions;
        # partition them by the smallest triangle arc they contain.
        for j, anchor in enumerate(tri_arcs):
            rest = [a for a in arcs if a not in tri_arcs[: j + 1]]
            for combo in itertools.combinations(rest, size - 1):
                chosen = (anchor,) + combo
                if is_s_acyclic(Digraph.minus(t, chosen), terminals):
                    return size
    return None


def _min_deletion_branch(
    t: Tournament, terminals: frozenset[int], k_max: int
) -> Optional[int]:
    term_tuple = tuple(sorted(terminals))
    best: list[Optional[int]] = [None]

    def go(adj: np.ndarray, removed: int) -> None:
        if best[0] is not None and removed >= best[0]:
            return
        cycle = _shortest_terminal_cycle(adj, term_tuple)
        if cycle is None:
            best[0] = removed
            return
        if removed == k_max:
            return
        for u, v in cycle:
            adj[u, v] = False
            go(adj, removed + 1)
            adj[u, v] = True

    go(np.array(t.adj), 0)
    return best[0]


def oracle_min_deletion(
    t: Tournament, terminals: frozenset[int] | set[int], k_max: int
) -> Optional[int]:
    """Smallest arc set whose deletion kills all terminal cycles, if <= k_max.

    Exact. Enumerates subsets ascending by size (restricted to subsets that
    hit one fixed terminal triangle, which every solution must); when the
    subset count is too large it falls back to exact cycle branching, and
    past the branching guard it raises OracleScaleError.
    """
    terminals = frozenset(terminals)
    tri = has_s_triangle(t, terminals)
    if tri is None:
        return 0 if k_max >= 0 else None
    if k_max <= 0:
        return None
    # The S-backward arcs of any vertex order are a solution, here those of
    # the order by descending score, so no budget past their count changes
    # the answer; the subset count and the branching depth read the cap.
    m = t.arc_count()
    order = np.argsort(-t.adj.sum(axis=1), kind="stable")
    k_max = min(k_max, len(s_backward_arcs(t, terminals, order)))
    s, a, b = tri
    tri_arcs = [(s, a), (a, b), (b, s)]
    candidates = sum(
        math.comb(m, size) - math.comb(max(m - 3, 0), size)
        for size in range(1, k_max + 1)
    )
    if candidates <= _ENUMERATION_BUDGET:
        return _min_deletion_enumerate(t, terminals, k_max, tri_arcs)
    if k_max <= _BRANCHING_DEPTH_CAP:
        return _min_deletion_branch(t, terminals, k_max)
    raise OracleScaleError(
        f"{candidates} subsets and branching depth {k_max} both out of reach"
    )


def _backward_counts(
    adj: np.ndarray, is_term: np.ndarray, perms: np.ndarray
) -> np.ndarray:
    """Terminal-backward arc counts for a batch of orderings."""
    batch, n = perms.shape
    sub = adj[perms[:, :, None], perms[:, None, :]]
    term = is_term[perms]
    cum = np.cumsum(term, axis=1)
    prev = np.concatenate([np.zeros((batch, 1), cum.dtype), cum[:, :-1]], axis=1)
    between = (prev[:, :, None] - cum[:, None, :]) > 0
    qualifies = term[:, :, None] | term[:, None, :] | between
    lower = np.tril(np.ones((n, n), dtype=bool), k=-1)
    return (sub & lower[None, :, :] & qualifies).sum(axis=(1, 2))


def oracle_min_reversal_orderings(t: Tournament, terminals: frozenset[int] | set[int]) -> int:
    """Minimum terminal-backward arc count over all vertex orderings.

    Reversing the backward arcs of the best ordering is an optimal reversal
    solution, so this is the reversal optimum. Guarded at n <= 9.
    """
    if t.n > _ORDERING_CAP:
        raise OracleScaleError(f"n={t.n} exceeds the ordering oracle cap {_ORDERING_CAP}")
    if t.n <= 1:
        return 0
    is_term = np.zeros(t.n, dtype=bool)
    for s in terminals:
        is_term[s] = True
    best = t.arc_count() + 1
    chunk = 40320
    perm_iter = itertools.permutations(range(t.n))
    while True:
        block = list(itertools.islice(perm_iter, chunk))
        if not block:
            break
        counts = _backward_counts(t.adj, is_term, np.array(block, dtype=int))
        best = min(best, int(counts.min()))
        if best == 0:
            break
    return best


def _coins(rng: random.Random, m: int) -> np.ndarray:
    """m draws of ``rng.random() < 0.5``, leaving rng where m calls of
    ``random()`` would.

    `random()` reads two 32-bit words and is below 0.5 exactly when the top
    bit of the first is 0. ``getrandbits(64 * c)`` returns the next 2c words,
    the first lowest, so its little-endian bytes hold c draws. Drawing
    `_COIN_BLOCK` at a time bounds the memory that one call takes.
    """
    coins = np.empty(m, dtype=bool)
    for lo in range(0, m, _COIN_BLOCK):
        c = min(_COIN_BLOCK, m - lo)
        words = np.frombuffer(rng.getrandbits(64 * c).to_bytes(8 * c, "little"), dtype="<u4")
        coins[lo : lo + c] = words[::2] < 1 << 31
    return coins


def generate_random(spec: GeneratorSpec) -> Instance:
    """A uniformly random tournament with the first s_count vertices terminal."""
    if spec.k is None:
        raise ValueError("random instances need an explicit budget k")
    rng = random.Random(spec.seed)
    n = spec.n
    # One draw per pair u < v, in (u, v) order (a boolean mask fills in row
    # order): u -> v when it is below 0.5, else v -> u.
    above = np.triu(np.ones((n, n), dtype=bool), 1)
    adj = np.zeros((n, n), dtype=bool)
    adj[above] = _coins(rng, n * (n - 1) // 2)
    adj |= (above & ~adj).T
    return Instance(Tournament(adj), frozenset(range(spec.s_count)), spec.k)


def generate_planted(spec: GeneratorSpec) -> tuple[Instance, frozenset[Arc]]:
    """A yes-instance built by flipping planted_k arcs of a terminal-acyclic base.

    The base tournament orients every pair that touches or spans a terminal
    forward along a random vertex order, so it has no terminal cycle. The
    returned arc set restores the base when reversed, hence the instance with
    k = planted_k is a yes-instance and the optimum is at most planted_k.
    """
    if spec.planted_k is None:
        raise ValueError("planted instances need planted_k")
    n = spec.n
    pairs = n * (n - 1) // 2
    if not (0 <= spec.planted_k <= pairs):
        raise ValueError("planted_k out of range")
    rng = random.Random(spec.seed)
    order = list(range(n))
    rng.shuffle(order)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    terminals = frozenset(range(spec.s_count))
    is_term = np.arange(n) < spec.s_count

    # A pair of non-terminals spans a terminal exactly when a different
    # number of terminals precedes its two ends in the order, so the pairs
    # left to chance are those of one gap between consecutive terminals.
    before = np.cumsum(is_term[order]) - is_term[order]
    gap = np.where(is_term, -1, before[pos])
    free = np.triu(gap[:, None] == gap[None, :], 1) & (gap >= 0)[:, None]
    adj = pos[:, None] < pos[None, :]
    # One draw per free pair, in (u, v) order; a draw of 0.5 or more turns
    # the pair against the order.
    rows, cols = np.nonzero(free)
    back = ~_coins(rng, rows.size)
    rows, cols = rows[back], cols[back]
    adj[rows, cols], adj[cols, rows] = adj[cols, rows], adj[rows, cols]

    # Pair index i is the i-th of itertools.combinations(range(n), 2).
    starts = [u * (2 * n - u - 1) // 2 for u in range(n)]
    planted: set[Arc] = set()
    for i in rng.sample(range(pairs), spec.planted_k):
        u = bisect_right(starts, i) - 1
        v = i - starts[u] + u + 1
        planted.add((v, u) if adj[u, v] else (u, v))
        adj[u, v], adj[v, u] = adj[v, u], adj[u, v]
    instance = Instance(Tournament(adj), terminals, spec.planted_k)
    return instance, frozenset(planted)
