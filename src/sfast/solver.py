"""Randomized solver for kernelized instances.

The kernel's packing bound refutes the instance first when it exceeds the
budget. Next comes a deterministic upper bound: the S-backward arcs of the
kernel's vertices by descending score, improved by single-vertex insertion
moves. When that count fits the kernel's budget it is lifted to a verified
solution of the input, and when it meets the packing bound it is returned,
certified, after 0 trials. Only when it is not certified does the packing
of the whole input run; a larger bound from it refutes the instance or
reruns the ordering bound to the raised target. An uncertified bound seeds
the best solution and the randomized trials below run as before.

Each trial colors the vertices uniformly at random with about sqrt(8k)
colors. When every color class happens to induce a terminal-acyclic
subtournament (and some minimum solution is cut by the coloring, which a
single trial achieves with probability at least (2e)^(-sqrt(k/8))), an exact
prefix-vector dynamic program over the per-color contractions recovers a
minimum solution. `solve` repeats trials, lifts kernel solutions back to the
input through the kernelization trace, and stops early whenever a packing
bound or a bounded exhaustive search certifies that the best solution found
is optimal.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Optional, Sequence

import numpy as np

from .graphs import (
    Arc,
    Instance,
    InternalInvariantError,
    is_s_acyclic,
    s_backward_arcs,
    strongly_connected_components,
    _landau,
    _term_mask,
)
from .kernel import KernelResult, conflict_packing, kernelize, lift_solution
from .oracle import OracleScaleError, oracle_min_deletion

__all__ = [
    "ContractedTournament",
    "SolveReport",
    "SolverConfig",
    "SolverScaleError",
    "classes_feasible",
    "color_count",
    "contract",
    "default_max_trials",
    "draw_coloring",
    "expand_order",
    "kernel_solution_from_coloring",
    "solve",
    "solve_contracted",
    "solve_report",
]

_LATTICE_CAP = 20_000_000
_CERTIFICATE_CAP = 8
_SEED_STRIDE = 1_000_003


class SolverScaleError(ValueError):
    """The prefix-vector lattice would not fit in memory, or the budget's
    default trial count cannot be represented."""


@dataclass(frozen=True)
class SolverConfig:
    seed: int = 0
    max_trials: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_trials is not None and self.max_trials < 1:
            raise ValueError("max_trials must be positive")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of `solve` plus the bookkeeping the CLI bench wants."""

    solution: Optional[frozenset[Arc]]
    trials: int
    kernel: KernelResult
    seconds: float
    certified: bool

    @property
    def size(self) -> Optional[int]:
        return None if self.solution is None else len(self.solution)


def color_count(k: int) -> int:
    """Number of colors for budget k."""
    if k < 1:
        raise ValueError("the solver expects a positive budget")
    return math.isqrt(8 * k - 1) + 1


def default_max_trials(k: int) -> int:
    """Enough trials to push the per-run failure odds below e**-20.

    A trial succeeds with probability at least (2e)**-sqrt(k/8), so
    20 * (2e)**sqrt(k/8) trials suffice. Past about k = 1.4 million that
    count overflows a float, which is reported as a scale limit.
    """
    try:
        return math.ceil(20 * (2 * math.e) ** math.sqrt(k / 8))
    except OverflowError:
        raise SolverScaleError("the default trial count for this budget exceeds a float") from None


def draw_coloring(n: int, q: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randrange(q) for _ in range(n))


def _class_members(coloring: tuple[int, ...], q: int) -> list[list[int]]:
    members: list[list[int]] = [[] for _ in range(q)]
    for v, c in enumerate(coloring):
        members[c].append(v)
    return members


def classes_feasible(instance: Instance, coloring: tuple[int, ...], q: int) -> bool:
    """True when every color class induces a terminal-acyclic subtournament."""
    for members in _class_members(coloring, q):
        if len(members) < 3:
            continue
        part = instance.drop(set(range(instance.n)).difference(members))
        if not is_s_acyclic(part.tournament, part.terminals):
            return False
    return True


@dataclass(frozen=True)
class ContractedTournament:
    """Per-color condensations of a feasibly colored kernel.

    Within one color class the strongly connected components contain no
    terminal except as singletons, and contracting each component to a node
    loses nothing: component members can always sit together, in any order,
    free of charge. nodes holds the member vertices of each node, ascending;
    color_nodes lists each color's node ids in condensation order; mult
    counts the original arcs between the members of two distinct nodes.
    """

    nodes: tuple[tuple[int, ...], ...]
    node_color: tuple[int, ...]
    color_nodes: tuple[tuple[int, ...], ...]
    terminal_nodes: frozenset[int]
    mult: np.ndarray


def contract(instance: Instance, coloring: tuple[int, ...], q: int) -> ContractedTournament:
    t, terminals = instance.tournament, instance.terminals
    nodes: list[tuple[int, ...]] = []
    node_color: list[int] = []
    color_nodes: list[tuple[int, ...]] = []
    terminal_nodes: set[int] = set()
    for color, members in enumerate(_class_members(coloring, q)):
        ids = []
        if members:
            part = instance.drop(set(range(t.n)).difference(members)).tournament
            for comp in strongly_connected_components(part):
                vertices = tuple(members[i] for i in comp)
                node_id = len(nodes)
                if any(v in terminals for v in vertices):
                    if len(vertices) > 1:
                        raise InternalInvariantError("terminal in a nontrivial component")
                    terminal_nodes.add(node_id)
                nodes.append(vertices)
                node_color.append(color)
                ids.append(node_id)
        color_nodes.append(tuple(ids))

    membership = np.zeros((len(nodes), t.n), dtype=np.int64)
    for node_id, vertices in enumerate(nodes):
        membership[node_id, list(vertices)] = 1
    mult = membership @ t.adj.astype(np.int64) @ membership.T
    np.fill_diagonal(mult, 0)

    for ids in color_nodes:
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                x, y = ids[a], ids[b]
                if mult[y, x] != 0 or mult[x, y] != len(nodes[x]) * len(nodes[y]):
                    raise InternalInvariantError("condensation order violated")
    intra = sum(len(v) * (len(v) - 1) // 2 for v in nodes)
    if int(mult.sum()) + intra != t.n * (t.n - 1) // 2:
        raise InternalInvariantError("contraction lost arcs")
    return ContractedTournament(
        tuple(nodes), tuple(node_color), tuple(color_nodes), frozenset(terminal_nodes), mult
    )


def _axis_shape(q: int, axis: int, length: int) -> tuple[int, ...]:
    shape = [1] * q
    shape[axis] = length
    return tuple(shape)


# Transition kinds stored per prefix state; a kind >= 0 is a terminal step
# on that color.
_BASE = -2
_PACK = -1
# Pack candidates are evaluated in chunks of about this many elements, which
# bounds the per-layer scratch memory.
_CHUNK = 1 << 16


def solve_contracted(ct: ContractedTournament) -> tuple[int, list[int]]:
    """Exact minimum over orders interleaving the per-color node sequences.

    State: per color, how many of its nodes sit in the prefix. A prefix
    costs nothing while terminal-free; otherwise it ends either with one
    terminal node (charged all its arcs into the rest of the prefix) or
    with a terminal-free pack of per-color node suffixes (charged all its
    arcs into the remaining prefix, each of which crosses the prefix's last
    terminal). Returns the optimum and one witness node order.

    Every transition lowers the coordinate sum, so the lattice is filled one
    coordinate-sum layer at a time, each layer in numpy: the terminal-free
    prefixes are one mask, terminal steps are gathers at a shifted flat
    index, and packs are evaluated in chunks of runs along one color. Per
    state the DP keeps the optimum ``sfas``, ``g = sfas - w`` (``w`` = arcs
    inside the prefix, so a pack from base p to state a costs
    ``g[p] + arcs(a -> p)``), and an int8 transition kind: ``_BASE``,
    ``_PACK``, or the color of a terminal step. Ties go to the pack, then to
    the first color in order; a later color wins only on a strict
    improvement.
    """
    q = len(ct.color_nodes)
    m = [len(ids) for ids in ct.color_nodes]
    shape = tuple(x + 1 for x in m)
    states = math.prod(shape)
    if states > _LATTICE_CAP:
        raise SolverScaleError(f"{states} prefix vectors exceed the supported size")
    big = np.iinfo(np.int64).max // 4
    span = max(m, default=0) + 1
    dims = np.array(shape, dtype=np.int64).reshape(q, 1)
    strides = np.array([math.prod(shape[i + 1 :]) for i in range(q)], dtype=np.int64)

    # node_into[i, j, s, t] = arcs from the s-th node of color i (1-based)
    # into the first t nodes of color j; cin[i, j, s, t] = arcs from the
    # first s nodes of color i into the first t nodes of color j.
    node_into = np.zeros((q, q, span, span), dtype=np.int64)
    for i in range(q):
        for j in range(q):
            block = ct.mult[np.ix_(ct.color_nodes[i], ct.color_nodes[j])]
            if block.size:
                node_into[i, j, 1 : m[i] + 1, 1 : m[j] + 1] = block.cumsum(axis=1)
    cin = node_into.cumsum(axis=2)
    # by_count[i][s] = cin[i, :, s, :], gathered per state into the arcs from
    # a whole prefix into the first t nodes of each color.
    by_count = [np.ascontiguousarray(cin[i].transpose(1, 0, 2)) for i in range(q)]

    # last[i, a] = largest index <= a holding a terminal node of color i.
    last = np.zeros((q, span), dtype=np.int64)
    for i in range(q):
        for pos, node_id in enumerate(ct.color_nodes[i], start=1):
            last[i, pos] = pos if node_id in ct.terminal_nodes else last[i, pos - 1]
    colors = np.arange(q).reshape(q, 1)

    level = np.zeros(shape, dtype=np.min_scalar_type(sum(m)))
    for i in range(q):
        level += np.arange(m[i] + 1, dtype=level.dtype).reshape(_axis_shape(q, i, m[i] + 1))
    level = level.ravel()
    by_level = np.argsort(level, kind="stable")
    sizes = np.bincount(level, minlength=sum(m) + 1)
    del level

    sfas = np.full(states, big, dtype=np.int64)
    g = np.full(states, big, dtype=np.int64)
    kind = np.empty(states, dtype=np.int8 if q < 128 else np.int16)

    for end, size in zip(np.cumsum(sizes).tolist(), sizes.tolist()):
        flat = by_level[end - size : end]
        a = flat // strides.reshape(q, 1) % dims
        lo = last[colors, a]
        w = np.zeros(flat.size, dtype=np.int64)
        for i in range(q):
            for j in range(q):
                w += cin[i, j, a[i], a[j]]
        best = np.full(flat.size, big, dtype=np.int64)
        pick = np.full(flat.size, _PACK, dtype=kind.dtype)

        held = (lo > 0).any(axis=0)
        packed = np.flatnonzero(held & (a > lo).any(axis=0))
        if packed.size:
            best[packed] = _pack_minima(g, by_count, strides, a[:, packed], lo[:, packed], big)

        for i in range(q):
            step = np.flatnonzero((a[i] > 0) & (lo[i] == a[i]))
            value = sfas[flat[step] - strides[i]]
            for j in range(q):
                if j != i:
                    value = value + node_into[i, j, a[i, step], a[j, step]]
            better = value < best[step]
            best[step[better]] = value[better]
            pick[step[better]] = i

        best[~held] = 0
        pick[~held] = _BASE
        if bool((best >= big).any()):
            raise InternalInvariantError("prefix state with no transition")
        sfas[flat] = best
        g[flat] = best - w
        kind[flat] = pick

    # Pack bases are not stored, which would take q ints per state: the at
    # most n states of the witness path search their whole box again, which
    # yields the lexicographically first cheapest base, as before pruning.
    segments: list[list[int]] = []
    state = tuple(m)
    index = states - 1
    while True:
        if kind[index] == _BASE:
            segments.append(
                [ct.color_nodes[i][s] for i in range(q) for s in range(state[i])]
            )
            break
        if kind[index] >= 0:
            i = int(kind[index])
            segments.append([ct.color_nodes[i][state[i] - 1]])
            prev = state[:i] + (state[i] - 1,) + state[i + 1 :]
        else:
            prev = _pack_base(g.reshape(shape), cin, last, state, int(sfas[index]), big)
            segments.append(
                [
                    ct.color_nodes[i][s]
                    for i in range(q)
                    for s in range(prev[i], state[i])
                ]
            )
        state = prev
        index = int(np.dot(state, strides))
    order = [node for seg in reversed(segments) for node in seg]
    return int(sfas[-1]), order


def _pack_minima(
    g: np.ndarray,
    by_count: list[np.ndarray],
    strides: np.ndarray,
    a: np.ndarray,
    lo: np.ndarray,
    big: int,
) -> np.ndarray:
    """Cheapest pack into each of the given states of one layer (q x S).

    A pack into state a starts from a base p in the box lo <= p <= a, p != a,
    and costs g[p] + arcs(a -> p). Only the slabs p_i = lo_i (colors i with
    lo_i > 0) are searched. Why that is exact: every p in the box holds the
    same last terminals as a, so p is not terminal-free. If the
    lexicographically first cheapest base p had itself been reached by a
    pack from p', then p' lies in the same box, is lexicographically
    smaller, and costs no more, since
    arcs(a - p' -> p') <= arcs(p - p' -> p') + arcs(a - p -> p). So that base
    was reached by a terminal step on some color i, which puts it at
    p_i = lo_i: the search finds the same value and the same first base. A
    slab whose color has lo_i = a_i is the whole box.

    Each (state, slab) pair is walked as runs along its longest free color.
    Pairs with runs of one length are evaluated together, in chunks of about
    _CHUNK elements. The base p = a is never excluded explicitly: its layer
    is not yet written, so g[a] is still big.
    """
    q = a.shape[0]
    span = by_count[0].shape[0]
    extent = a - lo + 1
    slab = lo > 0
    whole = slab & (extent == 1)
    slab = np.where(whole.any(axis=0), whole & (np.cumsum(whole, axis=0) == 1), slab)
    owner, pinned = np.nonzero(slab.T)
    ext = extent.T[owner]
    pairs = np.arange(owner.size)
    ext[pairs, pinned] = 1
    free = ext.argmax(axis=1)
    length = ext[pairs, free]
    ext[pairs, free] = 1
    runs = ext.prod(axis=1)

    by_length = np.argsort(length, kind="stable")
    weight = runs[by_length] * length[by_length] + q * span
    part = (np.cumsum(weight) - weight) // _CHUNK
    cuts = np.flatnonzero((np.diff(part) > 0) | (np.diff(length[by_length]) > 0)) + 1
    best = np.full(a.shape[1], big, dtype=np.int64)
    for sel in np.split(by_length, cuts):
        own = owner[sel]
        found = _slab_minima(
            g, by_count, strides, a[:, own], lo[:, own],
            ext[sel].T, free[sel], runs[sel], int(length[sel[0]]),
        )
        np.minimum.at(best, own, found)
    return best


def _slab_minima(
    g: np.ndarray,
    by_count: list[np.ndarray],
    strides: np.ndarray,
    a: np.ndarray,
    lo: np.ndarray,
    width: np.ndarray,
    color: np.ndarray,
    runs: np.ndarray,
    size: int,
) -> np.ndarray:
    """Cheapest base of each (state, slab) pair; every run has `size` elements.

    width[j] is the number of values p_j takes outside the run (1 on the
    pinned and the run color); runs is the product of the widths.
    """
    q, count = a.shape
    span = by_count[0].shape[0]
    # reach[(s * q + j) * span + t] = arcs from the prefix of pair s into
    # the first t nodes of color j; at_lo[j, s] indexes t = lo_j.
    reach = by_count[0][a[0]]
    for i in range(1, q):
        reach += by_count[i][a[i]]
    reach = reach.ravel()
    at_lo = (np.arange(count) * q + np.arange(q).reshape(q, 1)) * span + lo
    head = at_lo[color, np.arange(count)]
    steps = np.arange(size).reshape(size, 1)
    along = reach[head + steps]
    varies = width.max(axis=1) > 1
    rest = reach[at_lo[~varies]].sum(axis=0) - reach[head]

    row = np.repeat(np.arange(count), runs)
    starts = np.cumsum(runs) - runs
    at = (strides.reshape(q, 1) * lo).sum(axis=0)[row]
    rest = rest[row]
    # int32 halves the cost of the division; a lattice has < 2**31 states.
    local = (np.arange(row.size) - starts[row]).astype(np.int32)
    width = width.astype(np.int32)
    for j in np.flatnonzero(varies).tolist():
        local, d = np.divmod(local, width[j][row])
        at += d * strides[j]
        rest += reach[at_lo[j][row] + d]
    cand = g[at + strides[color][row] * steps]
    cand += np.take(along, row, axis=1)
    return np.minimum.reduceat(cand.min(axis=0) + rest, starts)


def _pack_base(
    g: np.ndarray, cin: np.ndarray, last: np.ndarray, state: tuple[int, ...], value: int, big: int
) -> tuple[int, ...]:
    """The lexicographically first cheapest pack base of one state, searched
    over the whole box; only the witness path needs it."""
    q = len(state)
    lo = tuple(int(last[i, state[i]]) for i in range(q))
    box = g[tuple(slice(lo[i], state[i] + 1) for i in range(q))]
    cinp = cin[np.arange(q), :, np.array(state), :].sum(axis=0)
    cand = box.copy()
    for j in range(q):
        cand += cinp[j, lo[j] : state[j] + 1].reshape(_axis_shape(q, j, state[j] - lo[j] + 1))
    cand[tuple(state[i] - lo[i] for i in range(q))] = big
    flat = int(np.argmin(cand))
    if int(cand.flat[flat]) != value:
        raise InternalInvariantError("pack base disagrees with the optimum")
    prev = np.unravel_index(flat, cand.shape)
    return tuple(lo[i] + int(prev[i]) for i in range(q))


def expand_order(ct: ContractedTournament, node_order: list[int]) -> list[int]:
    return [v for node_id in node_order for v in ct.nodes[node_id]]


def kernel_solution_from_coloring(
    instance: Instance, coloring: tuple[int, ...], q: int
) -> Optional[tuple[int, frozenset[Arc]]]:
    """Best solution compatible with one coloring, as labeled arcs, or None."""
    if not classes_feasible(instance, coloring, q):
        return None
    ct = contract(instance, coloring, q)
    value, node_order = solve_contracted(ct)
    labeled = _labeled_backward_arcs(instance, expand_order(ct, node_order), value)
    if value > instance.k:
        return None
    return value, labeled


def _labeled_backward_arcs(
    instance: Instance, order: Sequence[int], count: int
) -> frozenset[Arc]:
    """The S-backward arcs of an order, in vertex labels; there must be
    ``count`` of them."""
    arcs = s_backward_arcs(instance.tournament, instance.terminals, order)
    if len(arcs) != count:
        raise InternalInvariantError("witness order disagrees with its count")
    labels = instance.tournament.labels
    return frozenset((labels[u], labels[v]) for u, v in arcs)


def _insertion_costs(adj: np.ndarray, term: np.ndarray, rest: np.ndarray, v: int) -> np.ndarray:
    """For each slot j of ``rest``, the S-backward arcs that change with v's
    place when v is inserted before ``rest[j]`` (j = len(rest): at the end).

    An arc between v and w counts when it points backward and v or w is a
    terminal or a terminal sits between them. For a terminal v, the pairs
    of non-terminals in one terminal-free block of ``rest`` that v would
    split count too; they are read off a prefix sum of row minus column
    sums of that block's backward-pair matrix.
    """
    out = adj[v, rest]
    inn = ~out
    tr = term[rest]

    def before(x: np.ndarray) -> np.ndarray:
        return np.concatenate(([0], np.cumsum(x)))

    if term[v]:
        sub = adj[np.ix_(rest, rest)]
        block = before(tr)[:-1]
        pairs = np.triu(sub.T, 1)
        pairs &= (block[:, None] == block) & ~tr[:, None] & ~tr
        split = before(pairs.sum(axis=1) - pairs.sum(axis=0))
        return before(out) + inn.sum() - before(inn) + split
    slot_block = before(tr)
    nt_block = slot_block[:-1][~tr]
    blocks = int(slot_block[-1]) + 1
    below = before(np.bincount(nt_block[out[~tr]], minlength=blocks))
    above = np.bincount(nt_block[inn[~tr]], minlength=blocks)[::-1].cumsum()[::-1]
    above = np.concatenate((above[1:], [0]))
    return (
        before(out & tr)
        + (inn & tr).sum()
        - before(inn & tr)
        + below[slot_block]
        + above[slot_block]
    )


def _ordering_bound(instance: Instance, target: int) -> tuple[int, np.ndarray]:
    """A vertex order and its count of S-backward arcs, an upper bound.

    The order starts from the vertices by descending score, a
    constant-factor ranking for FAST (Coppersmith, Fleischer and Rudra,
    SODA 2006). Sweeps of single-vertex insertion moves improve it: each
    vertex in turn goes to the slot that lowers the count most, the earliest
    such slot on ties, when one lowers it at all. Every move lowers the
    count, so the sweeps end, either after one that moves nothing or once
    the count is at most ``target``.
    """
    t = instance.tournament
    order = _landau(t.adj.sum(axis=1))[0]
    term = _term_mask(t.n, instance.terminals)
    count = len(s_backward_arcs(t, instance.terminals, order))
    moved = True
    while moved and count > target:
        moved = False
        for v in order.tolist():
            here = int(np.flatnonzero(order == v)[0])
            rest = np.delete(order, here)
            costs = _insertion_costs(t.adj, term, rest, v)
            slot = int(np.argmin(costs))
            if costs[slot] < costs[here]:
                count -= int(costs[here] - costs[slot])
                order = np.insert(rest, slot, v)
                moved = True
                if count <= target:
                    break
    return count, order


def solve(instance: Instance, config: Optional[SolverConfig] = None) -> Optional[frozenset[Arc]]:
    """Minimum set of arcs to reverse, or None when no small-enough set
    exists (certified when the kernelization decides, otherwise with failure
    odds below e**-20 per the default trial budget).
    """
    return solve_report(instance, config).solution


def solve_report(instance: Instance, config: Optional[SolverConfig] = None) -> SolveReport:
    config = config or SolverConfig()
    start = perf_counter()

    def report(
        solution: Optional[frozenset[Arc]], trials: int, kr: KernelResult, certified: bool
    ) -> SolveReport:
        return SolveReport(solution, trials, kr, perf_counter() - start, certified)

    kr = kernelize(instance)
    if kr.status == "trivial-no":
        return report(None, 0, kr, True)
    if kr.status == "trivial-yes":
        return report(lift_solution(instance, kr.trace, ()), 0, kr, True)

    kernel = kr.kernel
    assert kernel is not None
    offset = instance.k - kernel.k

    def ordering_solution(lower: int) -> Optional[frozenset[Arc]]:
        """The lifted ordering bound run to ``lower``, None past the budget."""
        count, order = _ordering_bound(kernel, lower - offset)
        if count > kernel.k:
            return None
        return lift_solution(instance, kr.trace, _labeled_backward_arcs(kernel, order, count))

    lower = offset + len(conflict_packing(kernel.tournament, kernel.terminals).triangles)
    if lower > instance.k:
        return report(None, 0, kr, True)
    best = ordering_solution(lower)
    if best is None or len(best) > lower:
        # The input's packing is a lower bound too, but it costs a pass over
        # the whole input, so it runs only here. Taking the larger bound
        # first gives the same result. A lifted solution of at most `lower`
        # arcs caps the input's packing, so the larger bound was `lower` and
        # the ordering bound ran to the same target. Past that, a larger
        # input bound refutes or reruns the ordering bound to the raised
        # target, and a smaller one changes nothing.
        packed = len(conflict_packing(instance.tournament, instance.terminals).triangles)
        if packed > lower:
            lower = packed
            if lower > instance.k:
                return report(None, 0, kr, True)
            best = ordering_solution(lower)
    if best is not None and len(best) <= lower:
        return report(best, 0, kr, True)
    floor = lower
    # The bounded oracle runs at most once: it either certifies `best` or
    # raises the floor to the optimum.
    oracle_tried = False
    q = color_count(kernel.k)
    max_trials = config.max_trials or default_max_trials(kernel.k)
    for trial in range(max_trials):
        rng = random.Random(config.seed * _SEED_STRIDE + trial)
        result = kernel_solution_from_coloring(kernel, draw_coloring(kernel.n, q, rng), q)
        if result is None:
            continue
        _, labeled = result
        lifted = lift_solution(instance, kr.trace, labeled)
        if best is None or len(lifted) < len(best):
            best = lifted
        if len(best) <= floor:
            return report(best, trial + 1, kr, True)
        bound = len(best) - 1
        if bound <= _CERTIFICATE_CAP and not oracle_tried:
            oracle_tried = True
            try:
                exact = oracle_min_deletion(instance.tournament, instance.terminals, bound)
            except OracleScaleError:
                continue
            if exact is None:
                return report(best, trial + 1, kr, True)
            floor = max(floor, exact)
    return report(best, max_trials, kr, best is not None and len(best) <= floor)
