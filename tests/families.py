"""Hand-built instances that force specific reduction rules to act.

The small rules (1 to 3) fire all over random inputs, but the structural
rules need room: rule 5 wants more than 4k terminals yet fewer than (k+1)^2,
rule 6 wants many distinct in-neighborhood types with every arc still on at
most k terminal triangles, and rules 7/8 want one oversized type class.
Each builder returns an Instance whose kernelization trace is known, and the
module notes why the parameters are what they are.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from sfast.graphs import Instance, Tournament


def random_tournament(n: int, seed: int) -> Tournament:
    rng = random.Random(seed)
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                adj[i, j] = True
            else:
                adj[j, i] = True
    return Tournament(adj)


def all_tournaments(n: int):
    """Every labeled tournament on n vertices, 2 ** (n choose 2) of them."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        arcs = [
            (u, v) if bits >> i & 1 else (v, u) for i, (u, v) in enumerate(pairs)
        ]
        yield Tournament.from_arcs(n, arcs)


def transitive(n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for i in range(n):
        adj[i, i + 1 :] = True
    return adj


def near_ordered(seed: int) -> Instance:
    """A transitive tournament on 30 to 120 vertices in which each pair at
    most five apart is flipped with probability 4%, with 1 to 5 terminals
    and k from 1 to 3, under a seeded vertex permutation. Its cycles are
    short and few, so rule 2 often frees several terminals at once, and
    its classes are big, so rule 8 runs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 121))
    adj = transitive(n)
    u, v = np.triu_indices(n, 1)
    flip = (v - u <= 5) & (rng.random(u.size) < 0.04)
    adj[u[flip], v[flip]], adj[v[flip], u[flip]] = False, True
    terminals = frozenset(rng.choice(n, int(rng.integers(1, 6)), replace=False).tolist())
    return relabel(Instance(Tournament(adj), terminals, int(rng.integers(1, 4))), seed)[0]


def relabel(instance: Instance, seed: int) -> tuple[Instance, list[int]]:
    """Isomorphic copy under a seeded vertex permutation (old -> new)."""
    n = instance.n
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    p = np.array(perm)
    adj = np.zeros_like(instance.tournament.adj)
    adj[np.ix_(p, p)] = instance.tournament.adj
    terminals = frozenset(perm[s] for s in instance.terminals)
    return Instance(Tournament(adj), terminals, instance.k), perm


def rule5_instance() -> Instance:
    """All 13 vertices terminal, budget 3.

    Rule 5 needs at least 4k+1 terminals while rule 4 tolerates at most
    (k+1)^2 - 1, a window that is empty below k = 3. A transitive order with
    three well-separated flipped arcs gives three arc-disjoint terminal
    triangles, a conflict matching small enough to pass the no-gates, and a
    nonempty forced batch across the resulting partition.
    """
    adj = transitive(13)
    for u, v in ((0, 4), (5, 9), (10, 12)):
        adj[u, v] = False
        adj[v, u] = True
    return Instance(Tournament(adj), frozenset(range(13)), 3)


def rule5_chain(m: int, s: int) -> Instance:
    """m blocks of s+1 vertices in transitive order, every vertex a
    terminal, budget m; each block's first-to-last arc is flipped.

    Every cycle stays inside a block and uses its flipped arc, which lies on
    s-1 terminal triangles. Rule 3 waits for s-1 > m, rule 4 for
    m(s+1) >= (m+1)^2 and rule 5 needs m(s+1) > 4m, so rule 5 acts for
    4 <= s <= m+1: it reverses the m flipped arcs, and rule 1 then finds
    the instance acyclic at k = 0.
    """
    n = m * (s + 1)
    adj = transitive(n)
    for first in range(0, n, s + 1):
        last = first + s
        adj[first, last] = False
        adj[last, first] = True
    return Instance(Tournament(adj), frozenset(range(n)), m)


# Rule 6 needs more than 5k+1 type classes. At k = 1 that is impossible: a
# non-prefix type has a hole h below a filled slot j, the triangle caps then
# force it to beat every vertex whose type contains s_h and to lose to every
# vertex missing s_j, and any prefix type of length between h+1 and j demands
# both at once. So each non-prefix type rules out one prefix and at most
# 5k+1 types survive. At k = 2 the caps relax to two triangles per arc and
# twelve types over eight terminals fit; the orientation bits below came out
# of an annealing run over the free non-terminal pairs and are frozen so the
# construction stays deterministic.
_RULE6_TYPES = [frozenset(range(m)) for m in range(9)] + [
    frozenset({1}),
    frozenset({0, 1, 3}),
    frozenset({0, 1, 2, 3, 4, 6}),
]
_RULE6_BITS = "101111111111011111011101111011101110011111001101000100010000000111"


def rule6_instance() -> Instance:
    ns = 8
    nt = len(_RULE6_TYPES)
    n = ns + nt
    adj = np.zeros((n, n), dtype=bool)
    for i in range(ns):
        adj[i, i + 1 : ns] = True
    for vi, kind in enumerate(_RULE6_TYPES):
        v = ns + vi
        for s in range(ns):
            if s in kind:
                adj[s, v] = True
            else:
                adj[v, s] = True
    bits = iter(_RULE6_BITS)
    for a in range(nt):
        for b in range(a + 1, nt):
            u, v = ns + a, ns + b
            if next(bits) == "1":
                adj[u, v] = True
            else:
                adj[v, u] = True
    return Instance(Tournament(adj), frozenset(range(ns)), 2)


def rule7_instance(a: int = 3, b: int = 4) -> Instance:
    """One terminal, a 12-vertex type class, budget 1.

    Vertices 1..12 form a transitive chain beaten by the terminal 0, so the
    class core (in- and out-degree at least 2 inside the chain) is 3..10.
    The outsiders 13 and 14 beat the whole chain except for one core vertex
    each (a and b), which puts both in the low-in-degree outside slice with a
    wrong-direction arc, one more than the budget allows. Distinct a and b
    keep every arc on a single terminal triangle so rule 3 stays quiet. The
    chain's last vertex beats its first, so the chain past the last core
    hitter lies on a terminal cycle too, 0 -> 12 -> 1 -> a -> 13 -> 0, and
    rule 2 keeps it; the two ends stay off the core.
    """
    if not (3 <= a <= 10 and 3 <= b <= 10 and a != b):
        raise ValueError("core hitters must be distinct vertices of 3..10")
    n = 15
    adj = np.zeros((n, n), dtype=bool)
    adj[1:13, 1:13] = transitive(12)
    adj[1, 12], adj[12, 1] = False, True
    adj[0, 1:13] = True
    for r, z in ((13, a), (14, b)):
        adj[r, 0] = True
        adj[r, 1:13] = True
        adj[r, z] = False
        adj[z, r] = True
    adj[13, 14] = True
    return Instance(Tournament(adj), frozenset({0}), 1)


def rule8_instance(
    first: tuple[int, int] = (4, 5), second: tuple[int, int] = (6, 7)
) -> Instance:
    """One terminal, a 19-vertex type class, budget 2.

    The chain 1..19 has core 4..16. Outsiders 20 and 21 each lose to the two
    core vertices given, so both sit in the low-in-degree slice with two
    wrong-direction arcs, exactly the budget: rule 7 stays quiet. With four
    distinct core hitters the relevant set has size 4 > k+1 and one arc swap
    fires before rule 8 deletes; with overlapping pairs rule 8 acts directly.
    As in `rule7_instance`, the chain's last vertex beats its first, so that
    every vertex lies on a terminal cycle, while the terminal keeps 20 and
    21 as its only in-neighbours: reversing (20, 0) and (21, 0) solves it.
    """
    core = set(first) | set(second)
    if not core <= set(range(4, 17)):
        raise ValueError("core hitters must lie in 4..16")
    if len(set(first)) != 2 or len(set(second)) != 2:
        raise ValueError("each outsider needs two distinct core hitters")
    n = 22
    adj = np.zeros((n, n), dtype=bool)
    adj[1:20, 1:20] = transitive(19)
    adj[1, 19], adj[19, 1] = False, True
    adj[0, 1:20] = True
    for r, hitters in ((20, first), (21, second)):
        adj[r, 0] = True
        adj[r, 1:20] = True
        for z in hitters:
            adj[r, z] = False
            adj[z, r] = True
    adj[20, 21] = True
    return Instance(Tournament(adj), frozenset({0}), 2)


def stubborn_instance() -> Instance:
    """Solvable only above its budget, yet no rule refutes it.

    Two arc-disjoint triangles through the lone terminal need two arcs while
    k = 1, but every arc lies on one triangle and the class sizes are tiny,
    so kernelization returns a reduced instance; the solver's packing lower
    bound refutes it before the first trial.
    """
    t = Tournament.from_arcs(
        5,
        [
            (0, 1), (1, 2), (2, 0),
            (0, 3), (3, 4), (4, 0),
            (4, 1), (2, 3), (1, 3), (2, 4),
        ],
    )
    return Instance(t, frozenset({0}), 1)


def unrefuted_no_instance() -> Instance:
    """A no-instance that neither the kernel nor the packing bound refutes.

    The regular tournament on five vertices (i beats i+1 and i+2 mod 5)
    with terminals {0, 1} needs three reversals (the oracle's optimum),
    while k = 2, no rule fires and a packing holds only two arc-disjoint
    terminal triangles, so the solver can only exhaust its trials.
    """
    t = Tournament.from_arcs(5, [(i, (i + d) % 5) for i in range(5) for d in (1, 2)])
    return Instance(t, frozenset({0, 1}), 2)
