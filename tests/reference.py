"""Independent reimplementations, small and slow, to cross-check the solver.

`s_triangles_through_arc` lists the terminal triangles through one arc, the
brute-force count that rule 3's matrix products must reproduce.
`reference_has_s_triangle` tries the terminals one at a time, the search that
`has_s_triangle` answers from the tournament's scores.
`reference_equivalence_classes` keys one vertex at a time by its terminal
in-neighbourhood, and `reference_outside_split` sorts the outside vertices
of a class decomposition into the four r-sets one at a time, and
`reference_conflict_packing` looks for each greedy packing triangle one row
at a time; the kernel computes all three with whole-array passes and must
agree with these loops. `reference_packing_ordering` slots rule 5's vertices
one at a time, comparing each in-neighbourhood among the uncovered
terminals with a prefix set of their order, where the kernel compares whole
rows with one mask and sorts once; `reference_conflict_edges` tests rule 5's
conflict edges one pair at a time, where the kernel reads them off one
matrix; and `reference_matching` augments by recursion, where the kernel
keeps an explicit stack, in the same scan order, so the matchings are equal.

`reference_class_decomposition` builds a class decomposition from sorted
vertex lists and frozensets, the form the kernel kept before its masks; the
mask-backed one must give the same ten sets and raise the same errors.
`reference_find_swap` searches the sinks and then the sources with two
loops of their own, where `_find_swap` runs the sink search twice, the
second time in the reversed tournament; both must find the same swap or
raise the same error.

`reference_minimalize_solution` is the lift's greedy prune with one Tarjan
pass over the whole pruned digraph per solution arc; the reachability
searches of `minimalize_solution` must return the same arc set.

`reference_kernelize` is the driver loop with every step run from rule 1
and at most one rule-2 or rule-8 deletion per step: it keeps a fresh
step's records through the first rule-2 or rule-8 record, drops the rest,
and steps afresh. So each deletion of a rule-2 sweep or a batched rule-8
run must match the rule applied from scratch, record for record.
`reference_rr2` is rule 2 as one deletion per step, the smallest vertex on
no terminal cycle by Tarjan's strong components, or not-applicable, and
`reference_rr8_run` is the rule-8 run that clears every deleted column of
every class and recounts the class sizes and smallest members after each
deletion, and searches a class for a swap each time it becomes first; a
sweep must equal `reference_rr2` stepped to exhaustion, and a run must
return the same records, instance and decompositions. `successor` replays
one applied record's delta (the vertex it deleted or the arcs it reversed)
onto the instance before it, with a deletion and a budget rule of its own,
and checks that the record carries no successor instance.

`decomposition_sets` reads a `ClassDecomposition`'s mask rows as the named
frozensets that `reference_class_decomposition` returns.

`reference_generate_random` and `reference_generate_planted` are the
generators orienting one pair at a time with one `random()` call each, the
planted one sampling the planted pairs from a list of all pairs; the
generators, which draw their coins with one `getrandbits` call, must
leave the same random stream and return the same matrix and planted arcs.

`reference_parse_instance` reads an instance file one line at a time, with
`str.split` and `int` on every field, and `reference_serialize_instance`
formats one arc at a time; the array parser and serializer must agree with
them on every file, error line and message included.

The dynamic program claims to minimize the terminal-relevant backward arc
count over all vertex orders that keep each color's condensed nodes in
sequence. At a handful of nodes that minimum is checkable by enumerating
every legal interleaving directly on the contraction.
`reference_solve_contracted` is the state-at-a-time prefix DP with a full
pack-base search per state and a dict of backpointers, which the layered DP
must match in value and in witness order.
"""

from __future__ import annotations

import itertools
import random
from bisect import bisect_left, bisect_right

import numpy as np

from sfast.graphs import (
    Digraph,
    Instance,
    InternalInvariantError,
    InvalidArcError,
    Tournament,
    is_s_acyclic,
    reverse_arcs,
    s_backward_arcs,
    _successor_lists,
    _tarjan,
    _term_mask,
)
from sfast.instancefile import InstanceFormatError
from sfast.kernel import (
    STATUS_APPLIED,
    STATUS_NOT_APPLICABLE,
    ClassDecomposition,
    KernelResult,
    _IRRELEVANT,
    _MINUS,
    _PLUS,
    _PRIME,
    _R_GREATER,
    _R_LESS,
    _Z,
    _find_swap,
    _outcome,
    _step,
    class_decomposition,
    decomposition_class_size,
    deletion_class_size,
)
from sfast.oracle import GeneratorSpec
from sfast.solver import _LATTICE_CAP, SolverScaleError


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


def reference_has_s_triangle(t, terminals):
    """The terminal-by-terminal search `has_s_triangle` replaces: the smallest
    terminal on a triangle, with the lexicographically smallest (a, b)."""
    adj = t.adj
    for s in sorted(terminals):
        outs = np.flatnonzero(adj[s])
        ins = np.flatnonzero(adj[:, s])
        if outs.size == 0 or ins.size == 0:
            continue
        sub = adj[np.ix_(outs, ins)]
        hits = np.argwhere(sub)
        if hits.size:
            a, b = hits[0]
            return (s, int(outs[a]), int(ins[b]))
    return None


def reference_equivalence_classes(t, terminals):
    """Non-terminal vertices grouped by their terminal in-neighbourhood."""
    term_sorted = sorted(terminals)
    classes: dict[frozenset[int], list[int]] = {}
    for v in range(t.n):
        if v in terminals:
            continue
        key = frozenset(s for s in term_sorted if t.adj[s, v])
        classes.setdefault(key, []).append(v)
    return {key: tuple(sorted(vs)) for key, vs in classes.items()}


def reference_outside_split(instance, z_list, z_prime):
    """(r_less, r_greater, r_less_tilde, r_greater_tilde) of the class z_list
    with core z_prime, each a list in ascending order."""
    t, terminals, k = instance.tournament, instance.terminals, instance.k
    z_set = set(z_list)
    rest = [v for v in range(t.n) if v not in terminals and v not in z_set]
    zp_arr = np.array(z_prime, dtype=int)
    r_less: list[int] = []
    r_greater: list[int] = []
    r_less_tilde: list[int] = []
    r_greater_tilde: list[int] = []
    for v in rest:
        into = int(t.adj[zp_arr, v].sum()) if zp_arr.size else 0
        out = int(t.adj[v, zp_arr].sum()) if zp_arr.size else 0
        if into >= k + 1 and out >= k + 1:
            raise InternalInvariantError("outside vertex with high degree both ways")
        if into <= k and out <= k:
            raise InternalInvariantError("outside vertex with low degree both ways")
        if into <= k:
            r_less.append(v)
            if into >= 1:
                r_less_tilde.append(v)
        else:
            r_greater.append(v)
            if out >= 1:
                r_greater_tilde.append(v)
    return r_less, r_greater, r_less_tilde, r_greater_tilde


def reference_class_decomposition(instance, members) -> dict[str, frozenset[int]]:
    """The frozenset class decomposition, field name to vertex set; see
    `ClassDecomposition`.

    Requires a class of size at least 6k+6 with rules 1-3 exhausted; under
    those preconditions the mixed in/out categories outside the class are
    provably empty and the low-degree fringe has at most 4k+2 vertices, both
    of which are asserted.
    """
    t, terminals, k = instance.tournament, instance.terminals, instance.k
    z_list = sorted(int(v) for v in members)
    if len(z_list) < decomposition_class_size(k):
        raise ValueError("class too small for the degree decomposition")
    z_arr = np.array(z_list)
    term_sorted = sorted(terminals)
    if term_sorted:
        type_cols = t.adj[term_sorted][:, z_arr]
        if not (type_cols == type_cols[:, :1]).all():
            raise ValueError("members do not share a terminal in-neighbourhood")

    inside = t.adj[z_arr][:, z_arr]
    indeg = inside.sum(axis=0)
    outdeg = inside.sum(axis=1)
    prime_mask = (indeg >= k + 1) & (outdeg >= k + 1)
    minus_mask = ~prime_mask & (indeg <= k)
    plus_mask = ~prime_mask & (outdeg <= k)
    if (minus_mask & plus_mask).any():
        raise InternalInvariantError("low in- and out-degree overlap in the class")
    fringe = int((~prime_mask).sum())
    if fringe > 4 * k + 2:
        raise InternalInvariantError("low-degree fringe exceeds 4k+2")

    z_prime = [z_list[i] for i in np.flatnonzero(prime_mask)]
    z_minus = [z_list[i] for i in np.flatnonzero(minus_mask)]
    z_plus = [z_list[i] for i in np.flatnonzero(plus_mask)]

    rest_mask = ~_term_mask(t.n, terminals)
    rest_mask[z_arr] = False
    rest = np.flatnonzero(rest_mask)
    zp_arr = np.array(z_prime, dtype=int)
    # Submatrices are taken rows first, then columns: numpy gathers that
    # way several times faster than through np.ix_. An outside vertex beats
    # every core vertex that does not beat it, so its out-degree into the
    # core is the core size less its in-degree.
    into = t.adj[zp_arr].sum(axis=0)[rest]
    out = zp_arr.size - into
    high_in = into >= k + 1
    high_out = out >= k + 1
    if (high_in & high_out).any():
        raise InternalInvariantError("outside vertex with high degree both ways")
    if (~high_in & ~high_out).any():
        raise InternalInvariantError("outside vertex with low degree both ways")
    r_less = rest[~high_in].tolist()
    r_greater = rest[high_in].tolist()
    r_less_tilde = rest[~high_in & (into >= 1)].tolist()
    r_greater_tilde = rest[high_in & (out >= 1)].tolist()

    relevant = np.zeros(zp_arr.size, dtype=bool)
    sinks, sources = z_minus + r_less, z_plus + r_greater
    if zp_arr.size and sinks:
        relevant |= t.adj[zp_arr][:, sinks].any(axis=1)
    if zp_arr.size and sources:
        relevant |= t.adj[sources][:, zp_arr].any(axis=0)
    return dict(
        z=frozenset(z_list),
        z_prime=frozenset(z_prime),
        z_minus=frozenset(z_minus),
        z_plus=frozenset(z_plus),
        r_less=frozenset(r_less),
        r_greater=frozenset(r_greater),
        r_less_tilde=frozenset(r_less_tilde),
        r_greater_tilde=frozenset(r_greater_tilde),
        z_relevant=frozenset(zp_arr[relevant].tolist()),
        z_irrelevant=frozenset(zp_arr[~relevant].tolist()),
    )


def reference_find_swap(instance, masks):
    """`_find_swap` with the source side written out as its own loop."""
    t, k = instance.tournament, instance.k

    sinks = np.flatnonzero(masks[_MINUS] | masks[_R_LESS])
    sources = np.flatnonzero(masks[_PLUS] | masks[_R_GREATER])
    zp = np.flatnonzero(masks[_PRIME])

    if zp.size and sinks.size:
        side1 = zp[t.adj[zp][:, sinks].any(axis=1)]
        anchors, far = side1[: k + 1], side1[k + 1 :]
        if far.size:
            for v in sinks.tolist():
                ins = far[t.adj[far, v]]
                if not ins.size:
                    continue
                outs = anchors[t.adj[v, anchors]]
                if not outs.size:
                    raise InternalInvariantError("pivot dominates every anchor")
                return ((int(ins[0]), v), (v, int(outs[0])), v)

    if zp.size and sources.size:
        side2 = zp[t.adj[sources][:, zp].any(axis=0)]
        anchors, far = side2[: k + 1], side2[k + 1 :]
        if far.size:
            for v in sources.tolist():
                outs = far[t.adj[v, far]]
                if not outs.size:
                    continue
                ins = anchors[t.adj[anchors, v]]
                if not ins.size:
                    raise InternalInvariantError("pivot dominated by every anchor")
                return ((int(ins[0]), v), (v, int(outs[0])), v)

    return None


def reference_minimalize_solution(instance, solution_labels):
    """The greedy prune, each trial arc set checked by a Tarjan pass."""
    t, terminals = instance.tournament, instance.terminals
    index = instance.tournament.index_of()
    current = {tuple(a) for a in solution_labels}
    for arc in sorted(current):
        trial = current - {arc}
        arcs = [(index[u], index[v]) for u, v in trial]
        if is_s_acyclic(Digraph.minus(t, arcs), terminals):
            current = trial
    return current


DECOMPOSITION_ROWS = (
    "z",
    "z_prime",
    "z_minus",
    "z_plus",
    "r_less",
    "r_greater",
    "r_less_tilde",
    "r_greater_tilde",
    "z_relevant",
    "z_irrelevant",
)


def decomposition_sets(dec) -> dict[str, frozenset[int]]:
    """The ten vertex sets of a `ClassDecomposition`, read off the rows
    of its masks, under the names of `reference_class_decomposition`."""
    rows = zip(DECOMPOSITION_ROWS, dec.masks)
    return {name: frozenset(np.flatnonzero(row).tolist()) for name, row in rows}


def successor(instance, rec) -> Instance:
    """The instance that the applied record ``rec`` leaves from ``instance``."""
    index = instance.tournament.index_of()
    if rec.rule in ("rr2", "rr8"):
        (label,) = rec.detail["deleted"]
        v = index[label]
        terminals = frozenset(s - (s > v) for s in instance.terminals if s != v)
        nxt = Instance(instance.tournament.drop([v]), terminals, instance.k)
    else:
        arcs = [(index[a], index[b]) for a, b in rec.detail["reversed"]]
        spent = len(arcs) if rec.rule in ("rr3", "rr5") else 0
        nxt = Instance(reverse_arcs(instance.tournament, arcs), instance.terminals, instance.k - spent)
    assert rec.next is None, rec.rule
    return nxt


def reference_kernelize(instance) -> KernelResult:
    """`kernelize` with every step run from scratch, one deletion at a time."""
    trace = []
    cur = instance
    for _ in range(instance.n + max(instance.k, 0) + 8):
        records = _step(cur)[0]
        rules = [rec.rule for rec in records]
        if "rr8" in rules:
            records = records[: rules.index("rr8") + 1]
        if "rr2" in rules:
            records = records[:1]
        trace.extend(records)
        if not records:
            return KernelResult("reduced", cur, tuple(trace))
        if records[-1].status != STATUS_APPLIED:
            return KernelResult(records[-1].status, None, tuple(trace))
        for rec in records:
            cur = successor(cur, rec)
    raise InternalInvariantError("kernelization failed to settle within its cap")


def reference_rr2(instance):
    """Rule 2 deleting one vertex per step: the smallest vertex whose strong
    component, as Tarjan's search finds it, has one vertex or no terminal,
    or not-applicable."""
    comps = _tarjan(_successor_lists(instance.tournament.adj))
    terminals = instance.terminals
    free = [v for comp in comps if len(comp) == 1 or not terminals & set(comp) for v in comp]
    if not free:
        return _outcome("rr2", STATUS_NOT_APPLICABLE, instance)
    return _outcome("rr2", STATUS_APPLIED, instance, "on no terminal cycle", deleted=min(free))


def reference_rr8_run(instance, decs, first):
    """The rule-8 run that updates every class's masks and recounts the
    sizes and smallest members after each deletion, and searches a class
    for a swap whenever it becomes first."""
    k, adj = instance.k, instance.tournament.adj
    masks = np.stack([dec.masks for dec in decs])
    indeg = np.stack([dec.indeg for dec in decs])
    records = []
    deleted = []
    i, fresh = first, None
    while True:
        out, v = _reference_rule8(instance, masks[i], instance.n - len(deleted))
        records.append(out)
        deleted.append(v)
        masks[:, :, v] = False
        beaten = adj[v]
        indeg[i] -= beaten
        sizes = masks[:, _Z].sum(axis=1)
        lowered = np.where(beaten, indeg[i], sizes[i] - indeg[i] - 1)
        if (masks[i, _Z] & (lowered == k)).any():
            fresh = i
            break
        deletable = sizes >= deletion_class_size(k)
        if not deletable.any():
            break
        j = int(np.where(deletable, masks[:, _Z].argmax(axis=1), instance.n).argmin())
        if j != i and _find_swap(instance, masks[j]) is not None:
            break
        i = j
    nxt = instance.drop(deleted)
    masks, indeg = np.delete(masks, deleted, axis=2), np.delete(indeg, deleted, axis=1)
    if fresh is not None:
        dec = class_decomposition(nxt, np.flatnonzero(masks[fresh, _Z]))
        masks[fresh], indeg[fresh] = dec.masks, dec.indeg
    order = np.argsort(masks[:, _Z].argmax(axis=1))
    return tuple(records), nxt, tuple(map(ClassDecomposition, masks[order], indeg[order]))


def _reference_rule8(instance, masks, n):
    v = int(masks[_IRRELEVANT].argmax())
    if not masks[_IRRELEVANT, v]:
        raise InternalInvariantError("large class with empty irrelevant core")
    note = "deleted an irrelevant core vertex"
    return _outcome("rr8", STATUS_APPLIED, instance, note, n, deleted=v), v


def reference_generate_random(spec: GeneratorSpec) -> Instance:
    """`generate_random` orienting one pair at a time, one draw per pair."""
    if spec.k is None:
        raise ValueError("random instances need an explicit budget k")
    rng = random.Random(spec.seed)
    n = spec.n
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.5:
                adj[u, v] = True
            else:
                adj[v, u] = True
    return Instance(Tournament(adj), frozenset(range(spec.s_count)), spec.k)


def reference_generate_planted(spec: GeneratorSpec) -> tuple[Instance, frozenset]:
    """`generate_planted` orienting one pair at a time and sampling the
    planted pairs from a list of every pair."""
    if spec.planted_k is None:
        raise ValueError("planted instances need planted_k")
    n = spec.n
    pairs = n * (n - 1) // 2
    if not (0 <= spec.planted_k <= pairs):
        raise ValueError("planted_k out of range")
    rng = random.Random(spec.seed)
    order = list(range(n))
    rng.shuffle(order)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    terminals = frozenset(range(spec.s_count))
    term_positions = sorted(pos[s] for s in terminals)

    def spans_terminal(lo: int, hi: int) -> bool:
        return bisect_right(term_positions, hi - 1) > bisect_left(term_positions, lo + 1)

    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        for v in range(u + 1, n):
            a, b = (u, v) if pos[u] < pos[v] else (v, u)
            forced = a in terminals or b in terminals or spans_terminal(pos[a], pos[b])
            if forced or rng.random() < 0.5:
                adj[a, b] = True
            else:
                adj[b, a] = True

    flipped = rng.sample(list(itertools.combinations(range(n), 2)), spec.planted_k)
    planted = set()
    for u, v in flipped:
        if adj[u, v]:
            adj[u, v] = False
            adj[v, u] = True
            planted.add((v, u))
        else:
            adj[v, u] = False
            adj[u, v] = True
            planted.add((u, v))
    instance = Instance(Tournament(adj), terminals, spec.planted_k)
    return instance, frozenset(planted)


def reference_conflict_packing(t, terminals) -> tuple[tuple[int, int, int], ...]:
    """The greedy packing's triangles, found one row b at a time."""
    avail = np.array(t.adj)
    term = np.zeros(t.n, dtype=bool)
    term[sorted(terminals)] = True
    triangles: list[tuple[int, int, int]] = []
    a = 0
    b_from = 0
    while a < t.n:
        packed_here = False
        for b in range(max(a + 1, b_from), t.n):
            if not avail[a, b]:
                continue
            cands = avail[b] & avail[:, a]
            cands[: a + 1] = False
            if not (term[a] or term[b]):
                cands = cands & term
            hits = np.flatnonzero(cands)
            if hits.size == 0:
                continue
            c = int(hits[0])
            triangles.append((a, b, c))
            avail[a, b] = avail[b, c] = avail[c, a] = False
            b_from = b + 1
            packed_here = True
            break
        if not packed_here:
            a += 1
            b_from = 0
    return tuple(triangles)


def reference_packing_ordering(t, terminals, packing) -> tuple[int, ...]:
    """Rule 5's vertex order, built from growing prefix sets and one bag of
    vertices per slot. The same invariant errors as `packing_ordering`."""
    s1 = sorted(s for s in terminals if s not in packing.covered)
    residual = Instance(t, frozenset(terminals), 0).drop(packing.covered)
    if not is_s_acyclic(residual.tournament, residual.terminals):
        raise InternalInvariantError("packing is not maximal: residual terminal triangle")

    indeg = {s: sum(1 for r in s1 if t.adj[r, s]) for s in s1}
    if sorted(indeg.values()) != list(range(len(s1))):
        raise InternalInvariantError("uncovered terminals do not order transitively")
    order_s1 = sorted(s1, key=lambda s: indeg[s])
    prefix_sets = [set()]
    for s in order_s1:
        prefix_sets.append(prefix_sets[-1] | {s})

    bags: list[list[int]] = [[] for _ in range(len(s1) + 1)]
    s1_set = set(s1)
    for v in range(t.n):
        if v in s1_set:
            continue
        in_nbrs = {s for s in s1 if t.adj[s, v]}
        slot = len(in_nbrs)
        if in_nbrs != prefix_sets[slot]:
            raise InternalInvariantError("vertex has no unambiguous slot")
        bags[slot].append(v)

    sigma: list[int] = []
    for i, s in enumerate(order_s1):
        sigma.extend(bags[i])
        sigma.append(s)
    sigma.extend(bags[len(s1)])

    stray = s_backward_arcs(t, s1_set, sigma) - packing.packed_arcs
    if stray:
        raise InternalInvariantError(f"unpacked backward arcs {sorted(stray)}")
    return tuple(sigma)


def reference_conflict_edges(t, terminals, packing) -> tuple[tuple[int, ...], ...]:
    """Each packed arc's uncovered terminals closing a triangle with it."""
    right = sorted(s for s in terminals if s not in packing.covered)
    return tuple(
        tuple(j for j, y in enumerate(right) if t.adj[v, y] and t.adj[y, u])
        for u, v in sorted(packing.packed_arcs)
    )


def reference_matching(graph) -> tuple[tuple[int, int], ...]:
    """Kuhn's augmenting paths by recursion, left vertices and edges in index
    order; the recursion is as deep as the longest augmenting path."""
    match_l = [-1] * len(graph.left)
    match_r = [-1] * len(graph.right)

    def augment(i, seen):
        for j in graph.edges[i]:
            if not seen[j]:
                seen[j] = True
                if match_r[j] == -1 or augment(match_r[j], seen):
                    match_l[i], match_r[j] = j, i
                    return True
        return False

    for i in range(len(graph.left)):
        augment(i, [False] * len(graph.right))
    return tuple((i, j) for i, j in enumerate(match_l) if j != -1)


def _tokens(text: str):
    for number, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if fields and not fields[0].startswith("c"):
            yield number, fields


def _ints(number: int, fields: list[str]) -> list[int]:
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise InstanceFormatError(number, f"expected integers, got {' '.join(fields)}") from None


def reference_parse_instance(text: str) -> Instance:
    n = k = None
    terminals: frozenset[int] | None = None
    # The arc lines are checked together once the line loop ends, or when
    # it stops at an error, so that an earlier arc line's error wins.
    arc_lines: list[int] = []
    arc_ends: list[str] = []
    last = 0
    try:
        for number, fields in _tokens(text):
            last = number
            kind = fields[0]
            if kind == "a":
                if n is None:
                    raise InstanceFormatError(number, "arc line before the problem line")
                if len(fields) != 3:
                    raise InstanceFormatError(number, "arc line must read `a <u> <v>`")
                arc_lines.append(number)
                arc_ends += fields[1:]
            elif kind == "p":
                if n is not None:
                    raise InstanceFormatError(number, "second problem line")
                if len(fields) != 4 or fields[1] != "sfast":
                    raise InstanceFormatError(number, "problem line must read `p sfast <n> <k>`")
                n, k = _ints(number, fields[2:])
                if n < 0:
                    raise InstanceFormatError(number, "negative vertex count")
            elif kind == "s":
                if n is None:
                    raise InstanceFormatError(number, "terminal line before the problem line")
                if terminals is not None:
                    raise InstanceFormatError(number, "second terminal line")
                listed = _ints(number, fields[1:])
                for v in listed:
                    if not 0 <= v < n:
                        raise InstanceFormatError(number, f"terminal {v} out of range")
                if len(set(listed)) != len(listed):
                    raise InstanceFormatError(number, "terminal listed twice")
                terminals = frozenset(listed)
            else:
                raise InstanceFormatError(number, f"unknown line type {kind!r}")
        if n is None:
            raise InstanceFormatError(last + 1, "missing problem line")
        if terminals is None:
            raise InstanceFormatError(last + 1, "missing terminal line")
    except InstanceFormatError:
        if arc_lines:
            _arc_arrays(n, arc_lines, arc_ends)
        raise
    tails, heads = _arc_arrays(n, arc_lines, arc_ends)
    if len(arc_lines) != n * (n - 1) // 2:
        raise InstanceFormatError(
            last + 1,
            f"{len(arc_lines)} arcs given, a tournament on {n} vertices has {n * (n - 1) // 2}",
        )
    adj = np.zeros((n, n), dtype=bool)
    adj[tails, heads] = True
    return Instance(Tournament(adj), terminals, k)


def _arc_arrays(n: int, lines: list[int], ends: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The tails and heads of the arc lines, whose fields ``ends`` holds
    flat. Raises for the first line that is not two integers, names a bad
    arc, or orients a pair a second time."""
    values: list[int] = []
    try:
        values.extend(map(int, ends))
    except ValueError:
        pass
    # `values` stops at the first field that is no integer; the lines before
    # that one are checked as arrays.
    good = len(values) // 2
    ints = values[: 2 * good]
    try:
        pairs = np.array(ints, dtype=np.int64).reshape(good, 2)
    except OverflowError:
        pairs = np.array([x if 0 <= x < n else -1 for x in ints], dtype=np.int64)
        pairs = pairs.reshape(good, 2)
    tails, heads = pairs[:, 0], pairs[:, 1]
    bad = (pairs < 0).any(axis=1) | (pairs >= n).any(axis=1) | (tails == heads)
    lo, hi = np.minimum(tails, heads), np.maximum(tails, heads)
    order = np.lexsort((np.arange(good), hi, lo))
    repeat = np.zeros(good, dtype=bool)
    repeat[order[1:]] = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
    failing = np.flatnonzero(bad | repeat)
    first = int(failing[0]) if failing.size else good
    if first == len(lines):
        return tails, heads
    number = lines[first]
    if first == good:
        _ints(number, ends[2 * first : 2 * first + 2])
    u, v = ints[2 * first : 2 * first + 2]
    if bad[first]:
        raise InstanceFormatError(number, f"bad arc ({u}, {v})")
    raise InstanceFormatError(number, f"pair {{{u}, {v}}} oriented twice")


def reference_serialize_instance(instance: Instance) -> str:
    lines = [f"p sfast {instance.n} {instance.k}"]
    lines.append(" ".join(["s", *map(str, sorted(instance.terminals))]).rstrip())
    lines.extend(f"a {u} {v}" for u, v in instance.tournament.arcs())
    return "\n".join(lines) + "\n"


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


def _axis_shape(q: int, axis: int, length: int) -> tuple[int, ...]:
    shape = [1] * q
    shape[axis] = length
    return tuple(shape)


def reference_solve_contracted(ct) -> tuple[int, list[int]]:
    """Exact minimum over orders interleaving the per-color node sequences.

    State: per color, how many of its nodes sit in the prefix. A prefix
    costs nothing while terminal-free; otherwise it ends either with one
    terminal node (charged all its arcs into the rest of the prefix) or
    with a terminal-free pack of per-color node suffixes (charged all its
    arcs into the remaining prefix, each of which crosses the prefix's last
    terminal). Returns the optimum and one witness node order.
    """
    q = len(ct.color_nodes)
    m = [len(ids) for ids in ct.color_nodes]
    shape = tuple(x + 1 for x in m)
    states = int(np.prod([x + 1 for x in m], dtype=np.int64))
    if states > _LATTICE_CAP:
        raise SolverScaleError(f"{states} prefix vectors exceed the supported size")
    big = np.iinfo(np.int64).max // 4

    # cin4[i][j][s, t] = arcs from the first s nodes of color i
    # into the first t nodes of color j.
    cin4: list[list[np.ndarray]] = []
    for i in range(q):
        row = []
        for j in range(q):
            block = ct.mult[np.ix_(ct.color_nodes[i], ct.color_nodes[j])]
            cum = np.zeros((m[i] + 1, m[j] + 1), dtype=np.int64)
            if block.size:
                cum[1:, 1:] = block.cumsum(axis=0).cumsum(axis=1)
            row.append(cum)
        cin4.append(row)

    mmax = max(m, default=0)
    cin4p = np.zeros((q, q, mmax + 1, mmax + 1), dtype=np.int64)
    for i in range(q):
        for j in range(q):
            cin4p[i, j, : m[i] + 1, : m[j] + 1] = cin4[i][j]

    w = np.zeros(shape, dtype=np.int64)
    for i in range(q):
        for j in range(q):
            if i == j:
                w += np.diagonal(cin4[i][i]).reshape(_axis_shape(q, i, m[i] + 1))
            elif i < j:
                view = [1] * q
                view[i], view[j] = m[i] + 1, m[j] + 1
                w += cin4[i][j].reshape(view)
            else:
                view = [1] * q
                view[j], view[i] = m[j] + 1, m[i] + 1
                w += cin4[i][j].T.reshape(view)

    # last_s[i][a] = largest index <= a holding a terminal node of color i.
    last_s = []
    for i in range(q):
        arr = np.zeros(m[i] + 1, dtype=np.int64)
        for pos, node_id in enumerate(ct.color_nodes[i], start=1):
            arr[pos] = pos if node_id in ct.terminal_nodes else arr[pos - 1]
        last_s.append(arr)

    cout = {}
    for node_id in ct.terminal_nodes:
        rows = np.zeros((q, mmax + 1), dtype=np.int64)
        for j in range(q):
            if m[j]:
                rows[j, 1 : m[j] + 1] = np.cumsum(ct.mult[node_id, list(ct.color_nodes[j])])
        cout[node_id] = rows

    sfas = np.full(shape, big, dtype=np.int64)
    g = np.full(shape, big, dtype=np.int64)
    choice: dict[tuple[int, ...], tuple] = {}
    arange_q = np.arange(q)

    for state in np.ndindex(*shape):
        lo = tuple(int(last_s[i][state[i]]) for i in range(q))
        if not any(lo):
            sfas[state] = 0
            g[state] = -w[state]
            choice[state] = ("base",)
            continue
        best = big
        pick: tuple = ()

        box = g[tuple(slice(lo[i], state[i] + 1) for i in range(q))]
        if box.size > 1:
            avec = np.array(state)
            cinp = cin4p[arange_q, :, avec, :].sum(axis=0)
            cand = box + cinp[0, lo[0] : state[0] + 1].reshape(
                _axis_shape(q, 0, state[0] - lo[0] + 1)
            )
            for j in range(1, q):
                cand = cand + cinp[j, lo[j] : state[j] + 1].reshape(
                    _axis_shape(q, j, state[j] - lo[j] + 1)
                )
            cand[tuple(state[i] - lo[i] for i in range(q))] = big
            flat = int(np.argmin(cand))
            value = int(cand.flat[flat])
            if value < best:
                best = value
                prev = np.unravel_index(flat, cand.shape)
                pick = ("a", tuple(lo[i] + int(prev[i]) for i in range(q)))

        for i in range(q):
            a_i = state[i]
            if a_i == 0 or lo[i] != a_i:
                continue
            node_id = ct.color_nodes[i][a_i - 1]
            prev_state = state[:i] + (a_i - 1,) + state[i + 1 :]
            value = int(sfas[prev_state])
            for j in range(q):
                if j != i:
                    value += int(cout[node_id][j, state[j]])
            if value < best:
                best = value
                pick = ("b", i)

        if best >= big:
            raise InternalInvariantError("prefix state with no transition")
        sfas[state] = best
        g[state] = best - w[state]
        choice[state] = pick

    full = tuple(m)
    segments: list[list[int]] = []
    state = full
    while True:
        pick = choice[state]
        if pick[0] == "base":
            segments.append(
                [ct.color_nodes[i][s] for i in range(q) for s in range(state[i])]
            )
            break
        if pick[0] == "b":
            i = pick[1]
            segments.append([ct.color_nodes[i][state[i] - 1]])
            state = state[:i] + (state[i] - 1,) + state[i + 1 :]
        else:
            prev = pick[1]
            segments.append(
                [
                    ct.color_nodes[i][s]
                    for i in range(q)
                    for s in range(prev[i], state[i])
                ]
            )
            state = prev
    order = [node for seg in reversed(segments) for node in seg]
    return int(sfas[full]), order
