"""Independent reimplementations, small and slow, to cross-check the solver.

`s_triangles_through_arc` lists the terminal triangles through one arc, the
brute-force count that rule 3's matrix products must reproduce.

The dynamic program claims to minimize the terminal-relevant backward arc
count over all vertex orders that keep each color's condensed nodes in
sequence. At a handful of nodes that minimum is checkable by enumerating
every legal interleaving directly on the contraction.
"""

from __future__ import annotations

import numpy as np

from sfast.graphs import InvalidArcError


def s_triangles_through_arc(t, terminals, arc) -> list[int]:
    """Vertices w completing arc (u, v) to a terminal triangle u->v->w->u."""
    u, v = arc
    if not (0 <= u < t.n and 0 <= v < t.n) or not t.adj[u, v]:
        raise InvalidArcError(f"arc ({u}, {v}) not present")
    completing = t.adj[v] & t.adj[:, u]
    if u not in terminals and v not in terminals:
        mask = np.zeros(t.n, dtype=bool)
        mask[sorted(terminals)] = True
        completing = completing & mask
    return [int(w) for w in np.flatnonzero(completing)]


def interleavings(sequences):
    """Every merge of the given sequences that keeps each one in order."""
    seqs = [tuple(s) for s in sequences if s]
    if not seqs:
        yield ()
        return
    for i, seq in enumerate(seqs):
        rest = [seq[1:] if j == i else other for j, other in enumerate(seqs)]
        for tail in interleavings(rest):
            yield (seq[0],) + tail


def interleaving_count(sequences) -> int:
    from math import comb

    total, ways = 0, 1
    for seq in sequences:
        total += len(seq)
        ways *= comb(total, len(seq))
    return ways


def reference_minimum(ct) -> int:
    """Minimum terminal-relevant backward arc count over all legal node orders."""
    orders = np.array(list(interleavings(ct.color_nodes)), dtype=np.int64)
    if orders.ndim == 1:
        return 0
    m = orders.shape[1]
    term = np.zeros(len(ct.nodes), dtype=bool)
    for node in ct.terminal_nodes:
        term[node] = True
    term_at = term[orders]
    cum = np.cumsum(term_at, axis=1)
    later, earlier = np.tril_indices(m, k=-1)
    weight = ct.mult[orders[:, later], orders[:, earlier]]
    between = cum[:, later - 1] - cum[:, earlier] > 0
    relevant = term_at[:, later] | term_at[:, earlier] | between
    return int((weight * relevant).sum(axis=1).min())


def node_order_cost(ct, order) -> int:
    """Terminal-relevant backward arcs of one node order, counted plainly."""
    pos = {node: i for i, node in enumerate(order)}
    total = 0
    for x in range(len(ct.nodes)):
        for y in range(len(ct.nodes)):
            if x == y or pos[x] <= pos[y]:
                continue
            relevant = (
                x in ct.terminal_nodes
                or y in ct.terminal_nodes
                or any(
                    pos[y] < pos[s] < pos[x] for s in ct.terminal_nodes
                )
            )
            if relevant:
                total += int(ct.mult[x, y])
    return total
