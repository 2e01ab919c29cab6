"""Plain-text instance and solution files.

An instance file holds one problem line `p sfast <n> <k>`, one terminal line
`s <v> ...` (possibly listing nothing), and one arc line `a <u> <v>` for each
ordered pair, together describing a full tournament on vertices 0..n-1.
Comment lines starting with `c` and blank lines are ignored anywhere. A
solution file lists arcs to reverse, one `r <u> <v>` line each.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .graphs import Arc, Instance, Tournament

__all__ = [
    "InstanceFormatError",
    "parse_instance",
    "parse_solution",
    "serialize_instance",
    "serialize_solution",
]


class InstanceFormatError(ValueError):
    """Raised with a 1-based line number when a file cannot be parsed."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


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


def parse_instance(text: str) -> Instance:
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


def serialize_instance(instance: Instance) -> str:
    lines = [f"p sfast {instance.n} {instance.k}"]
    lines.append(" ".join(["s", *map(str, sorted(instance.terminals))]).rstrip())
    lines.extend(f"a {u} {v}" for u, v in instance.tournament.arcs())
    return "\n".join(lines) + "\n"


def parse_solution(text: str) -> frozenset[Arc]:
    arcs: set[Arc] = set()
    for number, fields in _tokens(text):
        if fields[0] != "r" or len(fields) != 3:
            raise InstanceFormatError(number, "solution lines must read `r <u> <v>`")
        u, v = _ints(number, fields[1:])
        if (u, v) in arcs:
            raise InstanceFormatError(number, f"arc ({u}, {v}) listed twice")
        arcs.add((u, v))
    return frozenset(arcs)


def serialize_solution(arcs: Iterable[Arc]) -> str:
    return "".join(f"r {u} {v}\n" for u, v in sorted(arcs))
