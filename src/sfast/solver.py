"""Randomized solver for kernelized instances.

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator, Optional

import numpy as np

from .graphs import (
    Arc,
    Digraph,
    Instance,
    InternalInvariantError,
    Tournament,
    is_s_acyclic,
    s_backward_arcs,
    strongly_connected_components,
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
    """The prefix-vector lattice would not fit in memory."""


@dataclass(frozen=True)
class SolverConfig:
    seed: int = 0
    max_trials: Optional[int] = None
    parallel_trials: int = 1

    def __post_init__(self) -> None:
        if self.max_trials is not None and self.max_trials < 1:
            raise ValueError("max_trials must be positive")
        if self.parallel_trials < 1:
            raise ValueError("parallel_trials must be positive")


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
    """Enough trials to push the per-run failure odds below e**-20."""
    rate = (2 * math.e) ** -math.sqrt(k / 8)
    return math.ceil(20 / rate)


def draw_coloring(n: int, q: int, rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randrange(q) for _ in range(n))


def _class_members(coloring: tuple[int, ...], q: int) -> list[list[int]]:
    members: list[list[int]] = [[] for _ in range(q)]
    for v, c in enumerate(coloring):
        members[c].append(v)
    return members


def classes_feasible(instance: Instance, coloring: tuple[int, ...], q: int) -> bool:
    """True when every color class induces a terminal-acyclic subtournament."""
    t, terminals = instance.tournament, instance.terminals
    for members in _class_members(coloring, q):
        if len(members) < 3:
            continue
        idx = np.array(members)
        local_terms = {i for i, v in enumerate(members) if v in terminals}
        if not is_s_acyclic(Tournament(t.adj[np.ix_(idx, idx)]), local_terms):
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
            idx = np.array(members)
            for comp in strongly_connected_components(Digraph(t.adj[np.ix_(idx, idx)])):
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


def solve_contracted(ct: ContractedTournament) -> tuple[int, list[int]]:
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
    vertex_order = expand_order(ct, node_order)
    arcs = s_backward_arcs(instance.tournament, instance.terminals, vertex_order)
    if len(arcs) != value:
        raise InternalInvariantError("witness order disagrees with the optimum")
    if value > instance.k:
        return None
    labels = instance.tournament.labels
    return value, frozenset((labels[u], labels[v]) for u, v in arcs)


def _run_trial(
    kernel: Instance, q: int, seed: int, trial: int
) -> tuple[int, Optional[tuple[int, frozenset[Arc]]]]:
    rng = random.Random(seed * _SEED_STRIDE + trial)
    coloring = draw_coloring(kernel.n, q, rng)
    return trial, kernel_solution_from_coloring(kernel, coloring, q)


def _trial_results(
    kernel: Instance, q: int, seed: int, max_trials: int, workers: int
) -> Iterator[tuple[int, Optional[tuple[int, frozenset[Arc]]]]]:
    if workers <= 1:
        for trial in range(max_trials):
            yield _run_trial(kernel, q, seed, trial)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for start in range(0, max_trials, workers):
            wave = range(start, min(start + workers, max_trials))
            futures = [pool.submit(_run_trial, kernel, q, seed, t) for t in wave]
            for future in futures:
                yield future.result()


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
    if is_s_acyclic(kernel.tournament, kernel.terminals):
        return report(lift_solution(instance, kr.trace, ()), 0, kr, True)

    q = color_count(kernel.k)
    max_trials = config.max_trials or default_max_trials(kernel.k)
    offset = instance.k - kernel.k
    lower = max(
        len(conflict_packing(instance.tournament, instance.terminals).triangles),
        offset
        + len(conflict_packing(kernel.tournament, kernel.terminals).triangles),
    )

    best: Optional[frozenset[Arc]] = None
    floor = lower
    checked_below: Optional[int] = None
    trials = 0
    for trial, result in _trial_results(
        kernel, q, config.seed, max_trials, config.parallel_trials
    ):
        trials = trial + 1
        if result is None:
            continue
        _, labeled = result
        lifted = lift_solution(instance, kr.trace, labeled)
        if best is None or len(lifted) < len(best):
            best = lifted
        if len(best) <= floor:
            return report(best, trials, kr, True)
        bound = len(best) - 1
        if bound <= _CERTIFICATE_CAP and (checked_below is None or bound < checked_below):
            checked_below = bound
            try:
                exact = oracle_min_deletion(
                    instance.tournament, instance.terminals, bound
                )
            except OracleScaleError:
                checked_below = -1
            else:
                if exact is None:
                    return report(best, trials, kr, True)
                floor = max(floor, exact)
                checked_below = -1
    return report(best, trials, kr, best is not None and len(best) <= floor)
