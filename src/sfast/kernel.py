"""Kernelization for subset feedback arc set in tournaments.

Nine reduction rules drive every instance down to O(k^2) vertices. One
driver step (`_step`) applies the first applicable rule in a fixed order, so
each rule may assume all earlier ones are exhausted. The acceptance suite
checks that same step, one step at a time, against a brute-force oracle.
Applied rules leave trace records (in original vertex labels) that
`lift_solution` walks backward to translate kernel solutions into solutions
of the input.

A step that applies rule 2 deletes every vertex on no terminal cycle at
once, in one record that lists them in ascending order. A cycle never
leaves its strong component, and by Camion's theorem a strong tournament
has a Hamiltonian cycle, so a vertex lies on a terminal cycle exactly when
its component holds a terminal and more than one vertex. Deleting a vertex
on no terminal cycle leaves every other component as it is, and what is
left of its own component, which held no terminal or only that vertex,
holds no terminal. So the vertices on no terminal cycle after a deletion
are those before it less the deleted one, and one pass over `_landau`'s
components finds them all. Nor can rule 1 act in between, as k does not
change and was positive. So the sweep is rule 2 applied to exhaustion.

A step that applies rule 8 with no arc swap goes on deleting (`_rr8_run`)
in one record, and tells the next step whether the run stopped because no
class was deletable. That step is then settled: it runs rules 1 and 2, as
every step does, then rule 9, and returns the kernel. Every other step
runs every rule. Within a run, deleting v, an irrelevant core vertex of
its class Z, keeps rules 3 to 6 inapplicable: each rule-3 triangle count
only loses its triangles through v, rules 4 and 5 read only |S| and k,
and no other vertex changes its terminal in-neighbourhood, so the class
count stays put.

A big class Y other than Z keeps its in-class degrees, its core and its
r-sets less v. Its relevant core stays too: v is no wrong-direction
witness of a core vertex y of Y. Say y -> v with v in Y's r_less (the
case v -> y with v in Y's r_greater is symmetric). Some terminal s tells
Y and Z apart. If s -> Z and Y -> s, then s -> v -> y' -> s for the more
than k core vertices y' that v beats. If Z -> s and s -> Y, then y is in
Z's r_less, as a source into v would make v relevant, and s -> y -> z -> s
for the more than k core vertices z of Z that y beats. Either way one arc
lies on more than k terminal triangles, but rule 3 was exhausted before
the deletion. So each such decomposition stays exact, less v's column.

Z's decomposition stays exact as well until the deletion crosses a degree
threshold. The seven degree-derived sets, z_prime to r_greater_tilde,
follow by thresholds from four degrees: k + 1 on a member's in- and
out-degree in the class, k + 1 and 1 on an outside vertex's in- and
out-degree from the core. Deleting v, a core member, takes one from the
in-degrees of the vertices that v beats and one from the out-degrees of
the others. A degree that falls by one crosses k + 1 exactly when it
falls to k, so the run stops after a deletion that takes a member's
in-degree (if v beats it) or out-degree (if not) to k. For that the
decomposition keeps one count, the class members beating each vertex
(see ClassDecomposition): a member's in-degree, and its out-degree is the
class size less that count less one. No other degree crosses, because v
was irrelevant: it beat no sink (z_minus and r_less), and no source
(z_plus and r_greater) beat it. So an r_less vertex keeps its in-degree
from the core, and an r_greater vertex its out-degree from the core, and
neither of these falls to 0. The other one falling to k would leave both
at most k, but they add up to the core size, which exceeds 2k: the class
keeps at least 6k + 6 members, at most 4k + 2 of them off the core. A
fringe member likewise keeps its other degree above k, as its two degrees
add up to the class size less one. So a crossing takes a core member off
the core. Otherwise none of the seven sets changes, and Z's decomposition
stays exact less v and is settled. Its relevant core stands as well, as
the core, the sinks and the sources are the same vertices less v, with
the same arcs among them.

So until a deletion crosses a threshold every decomposition is exact less
the deleted columns, and rule 7 stays inapplicable, as the r-sets it
counts only lose vertices. A run that stops for want of a deletable class
crossed no threshold, and its classes are those before it less the
deleted vertices: after rules 1 and 2, only rule 9 is left.

Rule 8's swap search is skipped when it would run on a settled class. The
search that preceded the deletion of v found no swap on Z; it ran there, or
Z was settled then too. Nor did v lie on either side set, the core members
that beat a sink or that a source beats. So the side sets, their k+1
smallest members (the anchors) and the rest (the far members) are the same,
with the same arcs to the same pivots, and the search would again find
nothing. The relevant core is unchanged as well, so its 2k+2 bound holds. A
class Y whose search found no swap stays settled while the run deletes
outside it, too: Y's decomposition stays exact, less the deleted vertices,
so its side sets, its far members and its pivots can only lose vertices,
and no far member that beats a pivot can appear. As the run ends at the
first crossing, every class stays settled once searched, and a run
searches each class at most once, when it first becomes first.

The run is a loop inside one step. It deletes in rule 8's order, from the
first deletable class by its smallest alive member. The sizes, the smallest
members, the anchors and the pivots it reads are those of the compact
instance, as renumbering keeps the order. A class's irrelevant core only
loses the vertices the run deletes from it, in ascending order, so the run
takes each core once and steps a cursor along it. It keeps the class sizes
and smallest alive members as ints: a deletion takes one from its class's
size and moves that class's smallest member only when it deleted that
member. Per deletion it clears the deleted vertex from its own class's
member row and updates that class's degree count, the two arrays the
threshold test reads; another class's masks lose the deleted columns just
before that class's swap search. The loop stops after a deletion that
crosses a threshold, before deleting from a newly first class whose swap
search finds a swap, or when no class is deletable.

Every applied record is a delta in original labels: the vertices it
deleted, in the order deleted, or the arcs it reversed. The trace holds no
instance and one record per rule application. `_apply` builds the
instance every applied record leaves, a rule-8 run's included, by
replaying that delta, so the driver executes exactly what its trace says;
`lift_solution` replays the same deltas onto the input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator, Optional, Sequence

import numpy as np

from .graphs import (
    Arc,
    Instance,
    InternalInvariantError,
    InvalidArcError,
    Tournament,
    has_s_triangle,
    is_s_acyclic,
    reverse_arcs,
    s_backward_arcs,
    verify_solution,
    _landau,
    _reachable,
    _term_mask,
)

__all__ = [
    "BipartiteConflictGraph",
    "ClassDecomposition",
    "ConflictPacking",
    "KernelResult",
    "RuleOutcome",
    "STATUS_APPLIED",
    "STATUS_NOT_APPLICABLE",
    "STATUS_TRIVIAL_NO",
    "STATUS_TRIVIAL_YES",
    "arc_swap_normalize",
    "build_conflict_bipartite",
    "class_decomposition",
    "conflict_packing",
    "equivalence_classes",
    "kernelize",
    "lift_solution",
    "max_matching_min_vertex_cover",
    "packing_ordering",
    "rr1_sanity",
    "rr2_triangle_free_terminal",
    "rr3_many_triangles",
    "rr4_bounded_terminal",
    "rr5_safe_partition",
    "rr6_many_types",
    "rr7_wrong_arcs",
    "rr9_vertex_bound",
    "vertex_bound",
]

STATUS_APPLIED = "applied"
STATUS_NOT_APPLICABLE = "not-applicable"
STATUS_TRIVIAL_YES = "trivial-yes"
STATUS_TRIVIAL_NO = "trivial-no"


def decomposition_class_size(k: int) -> int:
    """Classes at least this large support the degree decomposition."""
    return 6 * k + 6


def deletion_class_size(k: int) -> int:
    """Classes at least this large admit an irrelevant-vertex deletion."""
    return 6 * k + 7


def vertex_bound(k: int) -> int:
    """Vertex count above which the instance cannot be a yes-instance."""
    return 30 * k * k + 40 * k + 7


@dataclass(frozen=True)
class RuleOutcome:
    """What one rule did: applied, or a verdict.

    An applied record is a delta: ``detail`` names, in original labels, the
    vertices ``deleted`` (rr2, rr8), in the order deleted, or the arcs
    ``reversed`` (rr3, rr5, arc swaps), and ``pre`` and ``post`` the vertex
    count, terminal count and k before and after; rr3 and rr5 spend one
    unit of k per arc. ``next`` is
    always None. It stays declared because the benchmark still reads it
    (its trace-size count skips a None).
    """

    rule: str
    status: str
    next: Optional[Instance] = None
    note: str = ""
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ConflictPacking:
    """A maximal arc-disjoint set of terminal triangles."""

    triangles: tuple[tuple[int, int, int], ...]
    packed_arcs: frozenset[Arc]
    covered: frozenset[int]


@dataclass(frozen=True)
class BipartiteConflictGraph:
    """Packed arcs vs uncovered terminals; edges are shared triangles.

    ``edges[i]`` lists indices into ``right`` adjacent to ``left[i]``.
    """

    left: tuple[Arc, ...]
    right: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]


# The rows of `ClassDecomposition.masks`, one per vertex set.
_Z, _PRIME, _MINUS, _PLUS, _R_LESS, _R_GREATER = range(6)
_R_LESS_TILDE, _R_GREATER_TILDE, _RELEVANT, _IRRELEVANT = range(6, 10)


@dataclass(frozen=True, eq=False)
class ClassDecomposition:
    """Degree-based split of one equivalence class and its surroundings.

    z is the class. z_prime holds the class members with both in- and
    out-degree >= k+1 inside the class, z_minus/z_plus the low
    in-/out-degree rest. r_* classify the non-terminal vertices outside the
    class by their degrees into z_prime; the tilde variants additionally
    touch z_prime. z_relevant are the z_prime vertices adjacent to
    low-degree material in the wrong direction; z_irrelevant the remainder,
    candidates for deletion.

    ``masks`` holds the ten sets as one read-only (10, n) boolean matrix
    over the instance's vertices, a row per set in the order above.
    ``indeg`` is a read-only length-n integer row that gives, for every
    vertex, the class members beating it. For a member that is its in-class
    in-degree, and its in-class out-degree is the class size less that
    less one, so `_rr8_run` can tell from this one count when a deletion
    moves a member across a threshold of z_prime, z_minus or z_plus.
    """

    masks: np.ndarray
    indeg: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.masks.flags.writeable = False
        self.indeg.flags.writeable = False

    @property
    def size(self) -> int:
        """The number of class members."""
        return np.count_nonzero(self.masks[_Z])


@dataclass(frozen=True)
class KernelResult:
    status: str
    kernel: Optional[Instance]
    trace: tuple[RuleOutcome, ...]


def _outcome(
    rule: str,
    status: str,
    instance: Instance,
    note: str = "",
    *,
    deleted: Optional[Sequence[int]] = None,
    arcs: Optional[Collection[Arc]] = None,
    **detail: object,
) -> RuleOutcome:
    """A record of ``rule`` on ``instance``. An applied record gives its
    delta in indices of ``instance``, the distinct vertices ``deleted`` in
    the order deleted or the ``arcs`` reversed, and keeps it in labels,
    under ``deleted`` or ``reversed``, after the ``pre`` and ``post``
    stats."""
    n, s, k = instance.n, len(instance.terminals), instance.k
    pre = [n, s, k]
    labels = instance.tournament.labels
    if deleted is not None:
        post = [n - len(deleted), s - len(instance.terminals.intersection(deleted)), k]
        data: dict = {"pre": pre, "post": post, "deleted": [labels[v] for v in deleted]}
    elif arcs is not None:
        post = [n, s, k - _spent(rule, arcs)]
        pairs = sorted([labels[u], labels[v]] for u, v in arcs)
        data = {"pre": pre, "post": post, "reversed": pairs}
    else:
        data = {"pre": pre}
    data.update(detail)
    return RuleOutcome(rule, status, note=note, detail=data)


def _spent(rule: str, arcs: Collection[Arc]) -> int:
    """The units of k that ``rule`` spends reversing ``arcs``: one per arc,
    none for an arc swap."""
    return 0 if rule == "arc-swap" else len(arcs)


def _apply(instance: Instance, rec: RuleOutcome) -> Instance:
    """The instance that the applied record ``rec`` leaves from ``instance``."""
    index = instance.tournament.index_of()
    if "deleted" in rec.detail:
        return instance.drop([index[label] for label in rec.detail["deleted"]])
    arcs = [(index[a], index[b]) for a, b in rec.detail["reversed"]]
    k = instance.k - _spent(rec.rule, arcs)
    return Instance(reverse_arcs(instance.tournament, arcs), instance.terminals, k)


# -- Rules 1 to 4 -----------------------------------------------------------


def rr1_sanity(instance: Instance) -> RuleOutcome:
    """Decide exhausted budgets: k < 0 is no, k = 0 is a bare acyclicity test."""
    if instance.k > 0:
        return _outcome("rr1", STATUS_NOT_APPLICABLE, instance)
    if instance.k < 0:
        return _outcome("rr1", STATUS_TRIVIAL_NO, instance, note="negative budget")
    tri = has_s_triangle(instance.tournament, instance.terminals)
    if tri is None:
        return _outcome("rr1", STATUS_TRIVIAL_YES, instance, note="terminal-acyclic at k=0")
    return _outcome(
        "rr1",
        STATUS_TRIVIAL_NO,
        instance,
        note="terminal triangle with zero budget",
        triangle=[instance.tournament.labels[v] for v in tri],
    )


def rr2_triangle_free_terminal(instance: Instance) -> RuleOutcome:
    """Delete every vertex on no terminal cycle, in ascending order, in one
    record; not-applicable when there is none. These are the vertices alone
    in their strong component or in one without a terminal, and the sweep
    is the one-at-a-time rule run to exhaustion (see the module
    docstring)."""
    order, ends, on_cycle = _landau(instance.tournament.adj.sum(axis=1))
    term = _term_mask(instance.n, instance.terminals)
    # A position's component is the count of components that end before it.
    comp = np.cumsum(ends) - ends
    held = np.empty(instance.n, dtype=bool)
    held[order] = (np.bincount(comp, weights=term[order]) > 0)[comp]
    free = np.flatnonzero(~(held & on_cycle)).tolist()
    if not free:
        return _outcome("rr2", STATUS_NOT_APPLICABLE, instance)
    return _outcome("rr2", STATUS_APPLIED, instance, "on no terminal cycle", deleted=free)


def rr3_many_triangles(instance: Instance) -> RuleOutcome:
    """Reverse an arc on more than k terminal triangles; it is forced."""
    t, k = instance.tournament, instance.k
    n = t.n
    if n < 3:
        return _outcome("rr3", STATUS_NOT_APPLICABLE, instance)
    a = t.adj.astype(np.float64)
    s = np.flatnonzero(_term_mask(n, instance.terminals))
    # counts[u, v] = number of w with v -> w -> u, the triangles through arc
    # (u, v): every such w when u or v is a terminal, else the terminal w
    # only. The products are in float64 so that they run on BLAS; they are
    # exact, because every count is below n. Capping the threshold at n
    # changes no comparison for the same reason, and keeps a budget beyond
    # float range (k = 10**400) from overflowing the comparison.
    counts = (a[:, s] @ a[s, :]).T
    counts[s, :] = (a @ a[:, s]).T
    counts[:, s] = (a[s, :] @ a).T
    eligible = t.adj & (counts >= min(k + 1, n))
    hits = np.argwhere(eligible)
    if hits.size == 0:
        return _outcome("rr3", STATUS_NOT_APPLICABLE, instance)
    u, v = (int(x) for x in hits[0])
    note = "arc on more than k terminal triangles"
    return _outcome("rr3", STATUS_APPLIED, instance, note, arcs=[(u, v)])


def rr4_bounded_terminal(instance: Instance) -> RuleOutcome:
    """With rules 1-3 exhausted, (k+1)^2 terminals rule out a solution."""
    if len(instance.terminals) >= (instance.k + 1) ** 2:
        return _outcome(
            "rr4", STATUS_TRIVIAL_NO, instance, note="too many terminals survive rules 1-3"
        )
    return _outcome("rr4", STATUS_NOT_APPLICABLE, instance)


# -- Rule 5: safe partition -------------------------------------------------


def conflict_packing(t: Tournament, terminals: frozenset[int] | set[int]) -> ConflictPacking:
    """Greedy maximal arc-disjoint terminal triangles, smallest-first.

    Triangles are taken in ascending (a, b, c) order where a is the smallest
    vertex of the triangle and a -> b -> c -> a. Greedy over shrinking arc
    availability, so the result is deterministic and maximal. For each
    anchor a, one boolean pass over the rows b > a with a -> b still
    available finds the first (b, c); after a triangle is taken the pass
    runs again from row b + 1.
    """
    avail = np.array(t.adj)
    term = _term_mask(t.n, terminals)
    triangles: list[tuple[int, int, int]] = []
    # A terminal triangle's smallest vertex is at most its terminal.
    for a in range(max(terminals, default=-1) + 1):
        b_from = a + 1
        while True:
            rows = np.flatnonzero(avail[a, b_from:]) + b_from
            cands = avail[rows] & avail[:, a]
            cands[:, : a + 1] = False
            if not term[a]:
                cands[~term[rows]] &= term
            hit = cands.any(axis=1)
            if not hit.any():
                break
            i = int(hit.argmax())
            b, c = int(rows[i]), int(cands[i].argmax())
            triangles.append((a, b, c))
            avail[a, b] = avail[b, c] = avail[c, a] = False
            b_from = b + 1
    packed_arcs = frozenset(
        arc for (x, y, z) in triangles for arc in ((x, y), (y, z), (z, x))
    )
    covered = frozenset(v for tri in triangles for v in tri)
    return ConflictPacking(tuple(triangles), packed_arcs, covered)


def packing_ordering(
    t: Tournament,
    terminals: frozenset[int] | set[int],
    packing: ConflictPacking,
) -> tuple[int, ...]:
    """Vertex order from a maximal packing: uncovered terminals in their
    forced order, everything else slotted by its in-degree among them.

    Maximality forces (a) the uncovered terminals to induce a transitive
    subtournament, and (b) every other vertex's in-neighbourhood among them
    to be a prefix of that order; violations raise InternalInvariantError.
    All backward arcs of the result relative to the uncovered terminals are
    packing arcs, which is asserted.
    """
    s1 = np.setdiff1d(np.fromiter(terminals, np.intp), list(packing.covered))
    residual = Instance(t, frozenset(terminals), 0).drop(packing.covered)  # k is unused
    if not is_s_acyclic(residual.tournament, residual.terminals):
        raise InternalInvariantError("packing is not maximal: residual terminal triangle")

    # An uncovered terminal's rank is its in-degree among the others.
    rank = t.adj[np.ix_(s1, s1)].sum(axis=0)
    if not np.array_equal(np.sort(rank), np.arange(s1.size)):
        raise InternalInvariantError("uncovered terminals do not order transitively")
    others = np.setdiff1d(np.arange(t.n), s1)
    # rows[i, j]: the rank-i terminal beats others[j], whose slot is its
    # in-degree from them; its beaters must be the ranks below its slot.
    rows = t.adj[np.ix_(s1[np.argsort(rank)], others)]
    slot = rows.sum(axis=0)
    if (rows != (np.arange(s1.size)[:, None] < slot)).any():
        raise InternalInvariantError("vertex has no unambiguous slot")

    # The vertices of slot i go before the rank-i terminal, in index order.
    keys = np.empty(t.n, dtype=np.intp)
    keys[others] = 2 * slot
    keys[s1] = 2 * rank + 1
    sigma = np.argsort(keys, kind="stable").tolist()

    stray = s_backward_arcs(t, set(s1.tolist()), sigma) - packing.packed_arcs
    if stray:
        raise InternalInvariantError(f"unpacked backward arcs {sorted(stray)}")
    return tuple(sigma)


def build_conflict_bipartite(
    t: Tournament,
    terminals: frozenset[int] | set[int],
    packing: ConflictPacking,
) -> BipartiteConflictGraph:
    """Packed arcs against uncovered terminals, joined when they close a
    triangle. Maximality plus exhausted rules 1-2 leave no isolated terminal.
    """
    left = tuple(sorted(packing.packed_arcs))
    right = np.setdiff1d(np.fromiter(terminals, np.intp), list(packing.covered))
    u, v = np.array(left, dtype=np.intp).reshape(-1, 2).T
    # closes[i, j]: packed arc (u, v) and terminal y close v -> y -> u.
    closes = t.adj[np.ix_(v, right)] & t.adj[np.ix_(right, u)].T
    if not closes.any(axis=0).all():
        raise InternalInvariantError("isolated uncovered terminal in conflict graph")
    edges = tuple(tuple(np.flatnonzero(row).tolist()) for row in closes)
    return BipartiteConflictGraph(left, tuple(right.tolist()), edges)


def max_matching_min_vertex_cover(
    graph: BipartiteConflictGraph,
) -> tuple[tuple[tuple[int, int], ...], tuple[Arc, ...], tuple[int, ...]]:
    """Maximum matching and a matching-sized vertex cover (Koenig).

    Returns (matching pairs as (left index, right index), covered arcs,
    covered terminals). Deterministic: augmenting paths scan in index order.
    """
    nl, nr = len(graph.left), len(graph.right)
    match_l = [-1] * nl
    match_r = [-1] * nr

    for root in range(nl):
        # A depth-first search for an augmenting path from the free left
        # vertex root: path holds its left vertices, via the right vertex
        # each one took, and scans the edges each left vertex has left.
        seen = [False] * nr
        path, via, scans = [root], [], [iter(graph.edges[root])]
        while scans:
            j = next((j for j in scans[-1] if not seen[j]), None)
            if j is None:
                scans.pop()
                path.pop()
                del via[-1:]  # the root took no right vertex
                continue
            seen[j] = True
            via.append(j)
            if match_r[j] == -1:
                for i, j in zip(path, via):
                    match_l[i] = j
                    match_r[j] = i
                break
            path.append(match_r[j])
            scans.append(iter(graph.edges[match_r[j]]))

    reach_l = [match_l[i] == -1 for i in range(nl)]
    reach_r = [False] * nr
    queue = [i for i in range(nl) if reach_l[i]]
    while queue:
        i = queue.pop()
        for j in graph.edges[i]:
            if match_l[i] == j or reach_r[j]:
                continue
            reach_r[j] = True
            i2 = match_r[j]
            if i2 != -1 and not reach_l[i2]:
                reach_l[i2] = True
                queue.append(i2)

    matching = tuple((i, match_l[i]) for i in range(nl) if match_l[i] != -1)
    cover_arcs = tuple(graph.left[i] for i in range(nl) if not reach_l[i])
    cover_terms = tuple(graph.right[j] for j in range(nr) if reach_r[j])
    if len(cover_arcs) + len(cover_terms) != len(matching):
        raise InternalInvariantError("cover size differs from matching size")
    return matching, cover_arcs, cover_terms


def rr5_safe_partition(instance: Instance) -> RuleOutcome:
    """With more than 4k terminals, locate a batch of forced reversals.

    A maximal triangle packing orders the graph around the uncovered
    terminals; unmatched ones become singleton parts, and every backward arc
    crossing a part boundary belongs to some minimum solution. Oversized
    packings, matchings, or batches certify a no-instance.
    """
    t, terminals, k = instance.tournament, instance.terminals, instance.k
    if len(terminals) <= 4 * k:
        return _outcome("rr5", STATUS_NOT_APPLICABLE, instance, note="few terminals")
    packing = conflict_packing(t, terminals)
    if len(packing.triangles) > k:
        return _outcome(
            "rr5",
            STATUS_TRIVIAL_NO,
            instance,
            note="arc-disjoint terminal triangles exceed budget",
            packing=len(packing.triangles),
        )
    sigma = packing_ordering(t, terminals, packing)
    graph = build_conflict_bipartite(t, terminals, packing)
    matching, cover_arcs, cover_terms = max_matching_min_vertex_cover(graph)
    if len(matching) >= k + 1:
        return _outcome(
            "rr5",
            STATUS_TRIVIAL_NO,
            instance,
            note="conflict matching exceeds budget",
            matching=len(matching),
        )
    singles = sorted(set(graph.right) - set(cover_terms))
    if not singles:
        raise InternalInvariantError("no singleton terminals despite |S| > 4k")

    # Each singleton is a part of its own, and the stretches between them
    # are the other parts: a position's label counts the singletons up to
    # and including it, twice, less one at a singleton.
    order = np.array(sigma, dtype=np.intp)
    single = _term_mask(t.n, singles)[order]
    part = 2 * np.cumsum(single) - single
    later, earlier = np.nonzero(np.tril(t.adj[np.ix_(order, order)], k=-1))
    crossing = part[later] != part[earlier]
    batch = frozenset(zip(order[later[crossing]].tolist(), order[earlier[crossing]].tolist()))
    if not batch:
        raise InternalInvariantError("no boundary-crossing backward arcs")
    if batch - packing.packed_arcs:
        raise InternalInvariantError("crossing arc outside the packing")
    if batch - s_backward_arcs(t, terminals, sigma):
        raise InternalInvariantError("crossing arc is not terminal-backward")
    if len(batch) > k:
        return _outcome(
            "rr5",
            STATUS_TRIVIAL_NO,
            instance,
            note="forced reversal batch exceeds budget",
            batch=len(batch),
        )
    note = "reversed all safe-partition boundary arcs"
    return _outcome("rr5", STATUS_APPLIED, instance, note, arcs=batch)


# -- Rules 6 to 8: equivalence classes --------------------------------------


def equivalence_classes(
    t: Tournament, terminals: frozenset[int] | set[int]
) -> list[tuple[int, ...]]:
    """Non-terminal vertices grouped by their terminal in-neighbourhood, as
    ascending tuples ordered by their smallest members."""
    term = _term_mask(t.n, terminals)
    s, rest = np.flatnonzero(term), np.flatnonzero(~term)
    # Each vertex is keyed by its terminal in-column, packed into bytes.
    packed = np.packbits(t.adj[np.ix_(s, rest)], axis=0).T.copy()
    groups: dict[bytes, list[int]] = {}
    for v, col in zip(rest.tolist(), packed):
        groups.setdefault(col.tobytes(), []).append(v)
    return [tuple(vs) for vs in groups.values()]


def rr6_many_types(instance: Instance, classes: Sequence[tuple[int, ...]]) -> RuleOutcome:
    """More than 5k+1 distinct classes certify a no-instance.

    ``classes`` is the instance's `equivalence_classes`.
    """
    if len(classes) > 5 * instance.k + 1:
        return _outcome(
            "rr6",
            STATUS_TRIVIAL_NO,
            instance,
            note="too many terminal in-neighbourhood classes",
            classes=len(classes),
        )
    return _outcome("rr6", STATUS_NOT_APPLICABLE, instance)


def class_decomposition(instance: Instance, members: Iterable[int]) -> ClassDecomposition:
    """Degree decomposition of one class of distinct members; see
    ClassDecomposition.

    Requires a class of size at least 6k+6 with rules 1-3 exhausted; under
    those preconditions the mixed in/out categories outside the class are
    provably empty and the low-degree fringe has at most 4k+2 vertices, both
    of which are asserted.
    """
    t, k = instance.tournament, instance.k
    z_idx = np.fromiter(members, dtype=np.intp)
    if z_idx.size < decomposition_class_size(k):
        raise ValueError("class too small for the degree decomposition")
    term = _term_mask(t.n, instance.terminals)
    type_cols = t.adj[term][:, z_idx]
    if not (type_cols == type_cols[:, :1]).all():
        raise ValueError("members do not share a terminal in-neighbourhood")
    z = np.zeros(t.n, dtype=bool)
    z[z_idx] = True

    # In a tournament a member beats the members other than itself that do
    # not beat it, and an outside vertex every member that does not beat it.
    indeg = t.adj[z_idx].sum(axis=0)
    outdeg = z_idx.size - indeg - z
    prime = z & (indeg >= k + 1) & (outdeg >= k + 1)
    fringe = z & ~prime
    minus, plus = fringe & (indeg <= k), fringe & (outdeg <= k)
    if (minus & plus).any():
        raise InternalInvariantError("low in- and out-degree overlap in the class")
    if np.count_nonzero(fringe) > 4 * k + 2:
        raise InternalInvariantError("low-degree fringe exceeds 4k+2")

    # Likewise an outside vertex's out-degree into the core is the core
    # size less its in-degree from the core.
    core_rows = t.adj[prime]
    core_in = core_rows.sum(axis=0)
    core_out = core_rows.shape[0] - core_in
    rest, high_in, high_out = ~term & ~z, core_in >= k + 1, core_out >= k + 1
    if (rest & high_in & high_out).any():
        raise InternalInvariantError("outside vertex with high degree both ways")
    if (rest & ~high_in & ~high_out).any():
        raise InternalInvariantError("outside vertex with low degree both ways")
    r_less, r_greater = rest & ~high_in, rest & high_in

    # A core vertex is relevant when it beats a sink or a source beats it.
    relevant = prime & t.adj[plus | r_greater].any(axis=0)
    relevant[prime] |= (core_rows & (minus | r_less)).any(axis=1)
    tilde = (r_less & (core_in >= 1), r_greater & (core_out >= 1))
    masks = np.stack((z, prime, minus, plus, r_less, r_greater, *tilde, relevant, prime & ~relevant))
    return ClassDecomposition(masks, indeg)


def rr7_wrong_arcs(instance: Instance, dec: ClassDecomposition) -> RuleOutcome:
    """Too many outside vertices with wrong-direction arcs into the core."""
    k = instance.k
    r_less_tilde = int(np.count_nonzero(dec.masks[_R_LESS_TILDE]))
    r_greater_tilde = int(np.count_nonzero(dec.masks[_R_GREATER_TILDE]))
    if r_less_tilde > k or r_greater_tilde > k:
        return _outcome(
            "rr7",
            STATUS_TRIVIAL_NO,
            instance,
            note="wrong-direction fringe exceeds budget",
            r_less_tilde=r_less_tilde,
            r_greater_tilde=r_greater_tilde,
        )
    return _outcome("rr7", STATUS_NOT_APPLICABLE, instance)


def _find_swap(instance: Instance, masks: np.ndarray) -> Optional[tuple[Arc, Arc, int]]:
    """First normalization swap in the class decomposed as ``masks``, or
    None: ((q, z), (z, p), z) with q, p in the relevant core and z a
    low-degree pivot whose core arcs point the wrong way.

    The sinks are searched first, then the sources. The core members that
    beat a sink form the side; its k+1 smallest are the anchors and the
    rest the far members. The first sink z that a far member beats is the
    pivot, q the first far member beating it and p the first anchor it
    beats. The sources' search is the sinks' search in the reversed
    tournament, and the swap ((p, z), (z, q), z) it finds there is
    ((q, z), (z, p), z) here.
    """
    k, adj = instance.k, instance.tournament.adj
    zp = np.flatnonzero(masks[_PRIME])
    sides = (
        (adj, masks[_MINUS] | masks[_R_LESS], "pivot dominates every anchor"),
        (adj.T, masks[_PLUS] | masks[_R_GREATER], "pivot dominated by every anchor"),
    )
    for a, pivots, error in sides:
        pivots = np.flatnonzero(pivots)
        side = zp[a[zp][:, pivots].any(axis=1)]
        anchors, far = side[: k + 1], side[k + 1 :]
        if not far.size:
            continue
        for z in pivots.tolist():
            ins = far[a[far, z]]
            if not ins.size:
                continue
            outs = anchors[a[z, anchors]]
            if not outs.size:
                raise InternalInvariantError(error)
            q, p = int(ins[0]), int(outs[0])
            return ((q, z), (z, p), z) if a is adj else ((p, z), (z, q), z)
    return None


def arc_swap_normalize(
    instance: Instance, dec: ClassDecomposition
) -> tuple[Instance, ClassDecomposition, tuple[RuleOutcome, ...]]:
    """Shrink the relevant core to at most 2k+2 vertices by arc swaps.

    Each swap reverses one incoming and one outgoing arc of a low-degree
    pivot, rerouting it from a far core vertex to one of the k+1 smallest
    (the anchors). The pivot keeps its degrees, core vertices only lose
    degrees, so the decomposition can be recomputed live and the loop
    provably terminates; a generous cap guards that argument. When the
    first search finds no swap the instance and decomposition come back as
    they are with no records, and `_step` goes on to a rule-8 run.
    """
    k = instance.k
    members = np.flatnonzero(dec.masks[_Z])
    if members.size < deletion_class_size(k):
        raise ValueError("normalization expects a deletable-size class")
    records: list[RuleOutcome] = []
    cap = 4 * (instance.n + 2) ** 3 + 64
    for _ in range(cap):
        swap = _find_swap(instance, dec.masks)
        if swap is None:
            break
        arc_in, arc_out, pivot = swap
        rec = _outcome(
            "arc-swap",
            STATUS_APPLIED,
            instance,
            "rerouted a pivot to an anchor",
            arcs=[arc_in, arc_out],
            pivot=instance.tournament.labels[pivot],
        )
        records.append(rec)
        instance = _apply(instance, rec)
        dec = class_decomposition(instance, members)
    else:
        raise InternalInvariantError("swap loop exceeded its certified bound")
    if np.count_nonzero(dec.masks[_RELEVANT]) > 2 * k + 2:
        raise InternalInvariantError("relevant core still exceeds 2k+2 after swaps")
    return instance, dec, tuple(records)


def rr9_vertex_bound(instance: Instance) -> RuleOutcome:
    """Final size guard: more than 30k^2+40k+7 vertices is a no-instance."""
    if instance.n > vertex_bound(instance.k):
        return _outcome(
            "rr9", STATUS_TRIVIAL_NO, instance, note="vertex count above the kernel bound"
        )
    return _outcome("rr9", STATUS_NOT_APPLICABLE, instance)


# -- Driver ------------------------------------------------------------------


_RR8_NOTE = "deleted an irrelevant core vertex"


def _step(
    instance: Instance, settled: bool = False
) -> tuple[tuple[RuleOutcome, ...], Optional[Instance], bool]:
    """One driver step: the records of the first rule, in the fixed order,
    whose status is not not-applicable, the instance the next step starts
    from (None after a verdict), and whether that step is settled. When no
    rule acts the records are () and the instance, the kernel, comes back.
    Every applied record's next instance is `_apply`'s.

    Rule 2 deletes every vertex on no terminal cycle in one sweep. Rules 6
    to 8 share one classification. Rule 8 starts with one
    `arc_swap_normalize` of the first deletable class. A step with arc
    swaps returns them followed by the rule-8 deletion; a step without goes
    on deleting by rule 8 (`_rr8_run`), in one record, and the next step is
    settled when the run stopped because no class was deletable. A settled
    step runs rules 1 and 2, then rule 9, and returns the kernel (see the
    module docstring); every other step runs every rule.
    """
    rules = [rr1_sanity, rr2_triangle_free_terminal]
    if settled:
        rules.append(rr9_vertex_bound)
    else:
        rules += [rr3_many_triangles, rr4_bounded_terminal, rr5_safe_partition]
    for rule in rules:
        out = rule(instance)
        if out.status == STATUS_APPLIED:
            return (out,), _apply(instance, out), False
        if out.status != STATUS_NOT_APPLICABLE:
            return (out,), None, False
    if settled:
        return (), instance, False
    classes = equivalence_classes(instance.tournament, instance.terminals)
    out = rr6_many_types(instance, classes)
    if out.status != STATUS_NOT_APPLICABLE:
        return (out,), None, False
    big = [vs for vs in classes if len(vs) >= decomposition_class_size(instance.k)]
    decs = [class_decomposition(instance, vs) for vs in big]
    for dec in decs:
        out = rr7_wrong_arcs(instance, dec)
        if out.status != STATUS_NOT_APPLICABLE:
            return (out,), None, False

    deletable = [i for i, dec in enumerate(decs) if dec.size >= deletion_class_size(instance.k)]
    if not deletable:
        out = rr9_vertex_bound(instance)
        if out.status != STATUS_NOT_APPLICABLE:
            return (out,), None, False
        return (), instance, False
    swapped, dec, swaps = arc_swap_normalize(instance, decs[deletable[0]])
    if not swaps:
        out, settled = _rr8_run(instance, decs, deletable[0])
        return (out,), _apply(instance, out), settled
    out = _outcome("rr8", STATUS_APPLIED, swapped, _RR8_NOTE, deleted=[next(_core(dec.masks))])
    return swaps + (out,), _apply(swapped, out), False


def _rr8_run(
    instance: Instance, decs: Sequence[ClassDecomposition], first: int
) -> tuple[RuleOutcome, bool]:
    """Rule-8 deletions from ``decs[first]`` on, the class in which
    `arc_swap_normalize` just found no swap, until a deletion takes a
    member's in- or out-degree in its class to k, a newly first class has
    a swap, or no class is deletable (see the module docstring). Returns
    one record that lists the deletions in order, and whether the run
    stopped because no class was deletable."""
    k, adj = instance.k, instance.tournament.adj
    masks = np.stack([dec.masks for dec in decs])
    indeg = np.stack([dec.indeg for dec in decs])
    sizes = masks[:, _Z].sum(axis=1).tolist()
    smallest = masks[:, _Z].argmax(axis=1).tolist()
    cores = list(map(_core, masks))
    searched = {first}
    big = deletion_class_size(k)
    deleted: list[int] = []
    # Only the stop for want of a deletable class leaves this empty.
    i, deletable = first, [first]
    while True:
        v = next(cores[i])
        deleted.append(v)
        # v leaves its class, so the vertices it beats lose an in-neighbour
        # there and the other members an out-neighbour. A threshold is
        # crossed when a member's lowered degree is k: its in-degree if v
        # beats it, else the class size less its in-degree less one.
        z, count = masks[i, _Z], indeg[i]
        z[v] = False
        beaten = adj[v]
        count -= beaten
        sizes[i] -= 1
        if (z & (count == np.where(beaten, k, sizes[i] - 1 - k))).any():
            break
        if v == smallest[i]:
            smallest[i] = int(z.argmax())
        deletable = [c for c, size in enumerate(sizes) if size >= big]
        if not deletable:
            break
        j = min(deletable, key=smallest.__getitem__)
        if j not in searched:
            masks[j][:, deleted] = False
            if _find_swap(instance, masks[j]) is not None:
                break
            searched.add(j)
        i = j
    out = _outcome("rr8", STATUS_APPLIED, instance, _RR8_NOTE, deleted=deleted)
    return out, not deletable


def _core(masks: np.ndarray) -> Iterator[int]:
    """A cursor along the irrelevant core of the class decomposed as
    ``masks``, in ascending order, that raises once it has run dry."""
    yield from np.flatnonzero(masks[_IRRELEVANT]).tolist()
    raise InternalInvariantError("large class with empty irrelevant core")


def kernelize(instance: Instance) -> KernelResult:
    """Apply the reduction rules to exhaustion.

    Returns a reduced kernel, or a trivial verdict when some rule decides the
    instance outright. The trace holds one record per rule application (a
    rule-2 sweep or a rule-8 run is one) plus the deciding rule's, in
    original labels, and is what `lift_solution` consumes. Each step tells
    the next whether it is settled (`_step`).
    """
    trace: list[RuleOutcome] = []
    state: Optional[Instance] = instance
    settled = False
    cap = instance.n + max(instance.k, 0) + 8
    for _ in range(cap):
        records, state, settled = _step(state, settled)
        trace.extend(records)
        if not records:
            return KernelResult("reduced", state, tuple(trace))
        if records[-1].status != STATUS_APPLIED:
            return KernelResult(records[-1].status, None, tuple(trace))
    raise InternalInvariantError("kernelization failed to settle within its cap")


# -- Solution lifting --------------------------------------------------------


def minimalize_solution(
    adj: np.ndarray,
    alive: np.ndarray,
    term: np.ndarray,
    index: dict[int, int],
    solution_labels: Iterable[tuple[int, int]],
) -> set[tuple[int, int]]:
    """Greedy prune of a lift step's solution to an inclusion-minimal one.

    ``adj`` is the lift's working matrix, ``alive`` and ``term`` mask its
    alive vertices and its terminals, and ``index`` maps a label to its row.
    ``solution_labels`` names arcs between alive vertices whose reversal
    leaves no cycle through an alive terminal (S-cycle), as the lift's check
    has just verified. The alive vertices are compacted once, the
    solution's arcs cleared, and the arcs tried in sorted label order: an
    arc goes when the tournament T on the alive vertices minus the arcs
    still kept has no S-cycle.
    This works under deletion semantics; minimal deletion and reversal
    solutions coincide, so the result is again a reversal solution.

    Let F be the arcs kept and D = T - F. D is a subgraph of T with F
    reversed, so D starts S-acyclic, and the greedy keeps it so. So every
    S-cycle of D + (u, v) uses the arc (u, v) and lies in the arc's strong
    component, every vertex of which is on some cycle. So D + (u, v) has an
    S-cycle exactly when a terminal lies in that component. It is
    desc(v) ∩ anc(u) in D, as a simple path out of v or into u never uses
    the arc, and it is empty unless u is reachable from v: two reachability
    searches per arc decide whether the arc goes.
    """
    kept = np.flatnonzero(alive)
    arcs = sorted(solution_labels)
    ends = np.array([(index[u], index[v]) for u, v in arcs], dtype=np.intp)
    pairs = (np.cumsum(alive) - 1)[ends].reshape(-1, 2)
    d = adj.take(kept, axis=0).take(kept, axis=1)
    d[pairs[:, 0], pairs[:, 1]] = False
    d_in = np.ascontiguousarray(d.T)
    is_term = term[kept]
    current = set(arcs)
    for arc, (u, v) in zip(arcs, pairs.tolist()):
        desc = _reachable(d, v)
        if desc[u] and (desc & is_term & _reachable(d_in, u)).any():
            continue
        current.discard(arc)
        d[u, v] = d_in[v, u] = True
    return current


def lift_solution(
    original: Instance,
    trace: Sequence[RuleOutcome],
    kernel_solution_labels: Iterable[tuple[int, int]],
) -> frozenset[tuple[int, int]]:
    """Walk a kernelization trace backward, translating a kernel solution
    into a solution of the original instance (all arcs in original labels).

    The applied records are replayed as deltas onto one writable copy of the
    input matrix: vertices deleted (rr2, rr8), one at a time, or arcs
    reversed (rr3, rr5, arc swaps), with k spent as `_spent` says; a record
    that names a vertex already gone, its own repeats included, or an arc
    not there is rejected. The walk back then undoes one record per step
    and keeps the alive vertices' scores (out-degrees among the alive
    vertices) current: the vertices put back add their columns and get
    their rows' counts, O(n) each, and an arc turned back moves its two
    ends' scores, O(1).

    The kernel's solution is verified exactly, and so is the solution after
    every undone record: each arc must be present with both ends alive, the
    solution must fit that step's k, and no alive terminal may lie on a
    cycle once the solution's arcs are reversed. Reversing an arc (u, v)
    takes one from u's score and gives it to v, and the result is again a
    tournament on the alive vertices, so by Landau's theorem its strong
    components, and with them the terminals on a cycle, follow from those
    scores by one sort (`graphs._landau`). A failure means the trace or the
    rule algebra is broken and raises InternalInvariantError; an arc absent
    from the kernel, or one naming a label the input lacks, raises
    InvalidArcError.

    `minimalize_solution` prunes the checked solution on the working matrix
    at rr2 and arc-swap undos, but only once per reversal: after it runs,
    the solution stays minimal until an rr3, rr5 or arc-swap record is
    undone. Reviving a vertex keeps a minimal set minimal, since every
    arc's S-cycle survives, so a second call before the next reversal would
    return its input unchanged. The lifted solution passes
    `verify_solution` on the input at the end.
    """
    t = original.tournament
    index = t.index_of()
    adj = np.array(t.adj)
    alive = np.ones(t.n, dtype=bool)
    term = _term_mask(t.n, original.terminals)
    steps = [rec for rec in trace if rec.status == STATUS_APPLIED]

    def vertex(label: int, rec: RuleOutcome) -> int:
        v = index.get(label, -1)
        if v < 0 or not alive[v]:
            raise InternalInvariantError(f"{rec.rule} record names vertex {label}, absent there")
        return v

    # Per step, the vertices deleted or the arcs reversed, as input indices,
    # and the k before it.
    moves: list[list[int] | list[Arc]] = []
    budgets = [original.k]
    for rec in steps:
        if rec.rule in ("rr2", "rr8"):
            vs = []
            for label in rec.detail["deleted"]:
                v = vertex(label, rec)
                alive[v] = False
                vs.append(v)
            moves.append(vs)
            spent = 0
        elif rec.rule in ("rr3", "rr5", "arc-swap"):
            arcs = [(vertex(a, rec), vertex(b, rec)) for a, b in rec.detail["reversed"]]
            for a, b in arcs:
                if not adj[a, b]:
                    raise InternalInvariantError(f"{rec.rule} record reverses an absent arc")
                adj[a, b], adj[b, a] = False, True
            moves.append(arcs)
            spent = _spent(rec.rule, arcs)
        else:
            raise InternalInvariantError(f"unliftable trace rule {rec.rule!r}")
        budgets.append(budgets[-1] - spent)
    scores = (adj & alive).sum(axis=1)

    def check(labeled: set[tuple[int, int]], k: int, context: str) -> None:
        pairs = [(index.get(u, -1), index.get(v, -1)) for u, v in labeled]
        for (lu, lv), (u, v) in zip(labeled, pairs):
            if min(u, v) >= 0 and not (alive[u] and alive[v]):
                raise InternalInvariantError(f"lifted arc ({lu}, {lv}) names a deleted vertex")
        for (lu, lv), (u, v) in zip(labeled, pairs):
            if min(u, v) < 0 or not adj[u, v]:
                raise InvalidArcError(f"arc ({lu}, {lv}) not present")
        flipped = scores.copy()
        for u, v in pairs:
            flipped[u] -= 1
            flipped[v] += 1
        if len(pairs) > k or _landau(flipped[alive])[2][term[alive]].any():
            raise InternalInvariantError(f"lift through {context} broke the solution")

    current = {(int(u), int(v)) for u, v in kernel_solution_labels}
    check(current, budgets[-1], "kernel solution")
    minimal = False
    for i in reversed(range(len(steps))):
        rec, move = steps[i], moves[i]
        if rec.rule in ("rr2", "arc-swap") and not minimal:
            current = minimalize_solution(adj, alive, term, index, current)
            minimal = True
        if rec.rule in ("rr2", "rr8"):
            alive[move] = True
            scores += adj[:, move].sum(axis=1)
            scores[move] = (adj[move] & alive).sum(axis=1)
        else:
            for a, b in move:
                adj[a, b], adj[b, a] = True, False
                scores[a] += 1
                scores[b] -= 1
            pair = {tuple(a) for a in rec.detail["reversed"]}
            cancelled = {arc for arc in pair if (arc[1], arc[0]) in current}
            # a minimal solution that cancels neither swapped arc already
            # works upstairs as it is
            if cancelled or rec.rule != "arc-swap":
                current = current - {(v, u) for u, v in cancelled} | (pair - cancelled)
            minimal = False
        check(current, budgets[i], rec.rule)
    if not verify_solution(original, [(index[u], index[v]) for u, v in current]):
        raise InternalInvariantError("lifted solution fails the input")
    return frozenset(current)
