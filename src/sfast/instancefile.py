"""Plain-text instance and solution files.

An instance file holds one problem line `p sfast <n> <k>`, one terminal line
`s <v> ...` (possibly listing nothing), and one arc line `a <u> <v>` for each
ordered pair, together describing a full tournament on vertices 0..n-1.
Comment lines starting with `c` and blank lines are ignored anywhere. A
solution file lists arcs to reverse, one `r <u> <v>` line each.

Nearly all of an instance file is its n(n-1)/2 arc lines, so the plain
ones (`a`, then two ASCII numbers of at most 18 digits, with spaces or tabs
between) are found and decoded together, as arrays over the file's bytes.
Every other line, including an arc line spelt any other way (`+1`, `1_0`,
other Unicode digits or blanks, longer numbers), is read one at a time with
`str.split` and `int`, so what the format accepts is what those accept.
All arc lines are then checked together in line order, and an error names
the first offending line.
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
    lines = text.splitlines()
    plain, plain_tails, plain_heads = _plain_arcs(lines)
    plain_lines = np.flatnonzero(plain) + 1
    n = k = None
    terminals: frozenset[int] | None = None
    # The arc lines are checked together once the line loop ends, or when
    # it stops at an error, so that an earlier arc line's error wins.
    arc_lines: list[int] = []
    last = 0
    try:
        for number in (np.flatnonzero(~plain) + 1).tolist():
            fields = lines[number - 1].split()
            if not fields or fields[0].startswith("c"):
                continue
            if n is None and plain_lines.size and plain_lines[0] < number:
                break  # a plain arc line came before the problem line
            last = number
            kind = fields[0]
            if kind == "a":
                if n is None:
                    raise InstanceFormatError(number, "arc line before the problem line")
                if len(fields) != 3:
                    raise InstanceFormatError(number, "arc line must read `a <u> <v>`")
                arc_lines.append(number)
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
        if n is None and plain_lines.size:
            raise InstanceFormatError(int(plain_lines[0]), "arc line before the problem line")
        if n is None:
            raise InstanceFormatError(last + 1, "missing problem line")
        if plain_lines.size:
            last = max(last, int(plain_lines[-1]))
        if terminals is None:
            raise InstanceFormatError(last + 1, "missing terminal line")
    except InstanceFormatError as error:
        if n is not None:
            cut = int(np.searchsorted(plain_lines, error.line))
            _arc_arrays(
                n, lines, plain_lines[:cut], plain_tails[:cut], plain_heads[:cut], arc_lines
            )
        raise
    tails, heads = _arc_arrays(n, lines, plain_lines, plain_tails, plain_heads, arc_lines)
    if tails.size != n * (n - 1) // 2:
        raise InstanceFormatError(
            last + 1,
            f"{tails.size} arcs given, a tournament on {n} vertices has {n * (n - 1) // 2}",
        )
    adj = np.zeros((n, n), dtype=bool)
    adj[tails, heads] = True
    return Instance(Tournament(adj), terminals, k)


def _plain_arcs(lines: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Which lines are plain arc lines, and the tail and head each names.

    A plain arc line is ``a``, spaces or tabs, 1-18 ASCII digits, spaces or
    tabs, 1-18 ASCII digits, and optional trailing spaces or tabs; its two
    numbers fit an int64. The lines are joined by single ``\\n`` bytes, so
    that each line break is one byte.
    """
    data = np.frombuffer(
        ("\n".join(lines) + "\n").encode("utf-8", "surrogatepass"), dtype=np.uint8
    )
    found, offsets, lengths = _plain_runs(data)
    plain = np.zeros(len(lines), dtype=bool)
    plain[found] = True
    tails, heads = _decimal(data, offsets, lengths)
    return plain, tails, heads


def _plain_runs(data: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The indices of the plain arc lines in the joined text, and the
    offsets and lengths of their two digit runs (two rows).

    The text is cut into runs of one byte class, a line break being a run of
    its own, so a plain line is five runs, or six with trailing blanks, of
    fixed classes. The per-byte and per-run arrays die when this returns,
    before the numbers are decoded, which keeps the parse's peak memory
    below that of a line-at-a-time parse.
    """
    # Byte classes: 0 other, 1 digit, 2 space or tab, 3 `a`, 4 line break.
    kind = ((data - ord("0")) < 10).view(np.uint8)
    kind |= ((data == ord(" ")) | (data == ord("\t"))).view(np.uint8) << 1
    kind |= (data == ord("a")).view(np.uint8) * np.uint8(3)
    kind |= (data == ord("\n")).view(np.uint8) << 2
    edge = kind == 4
    edge[1:] |= kind[1:] != kind[:-1]
    edge[0] = True
    starts = np.flatnonzero(edge)
    kind = kind[starts]
    breaks = np.flatnonzero(kind == 4)
    first = np.concatenate(([0], breaks[:-1] + 1))
    runs = breaks - first
    candidates = np.flatnonzero((runs == 5) | (runs == 6))
    # Run i is starts[i + 1] - starts[i] bytes long. The sixth run of a
    # candidate line is its trailing blanks or its line break.
    at = first[candidates]
    sixth = kind[at + 5]
    ok = (sixth == 2) | (sixth == 4)
    for offset, want in enumerate((3, 2, 1, 2, 1)):
        ok &= kind[at + offset] == want
    ok &= starts[at + 1] - starts[at] == 1
    digits = np.stack((at[ok] + 2, at[ok] + 4))
    offsets = starts[digits]
    lengths = starts[digits + 1] - offsets
    fits = (lengths <= 18).all(axis=0)
    return candidates[ok][fits], offsets[:, fits], lengths[:, fits]


def _decimal(data: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The values of ASCII digit runs, by Horner's rule over digit columns."""
    values = np.zeros(starts.shape, dtype=np.int64)
    for column in range(int(lengths.max(initial=0))):
        more = lengths > column
        digits = data[np.minimum(starts + column, data.size - 1)] - ord("0")
        np.multiply(values, 10, out=values, where=more)
        np.add(values, digits, out=values, where=more)
    return values


def _arc_arrays(
    n: int,
    lines: list[str],
    plain_lines: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    arc_lines: list[int],
) -> tuple[np.ndarray, np.ndarray]:
    """The tails and heads of all arc lines in line order: the plain ones,
    decoded already, and the others by line number. Raises for the first
    line that is not two integers, names a bad arc, or orients a pair a
    second time."""
    numbers = plain_lines
    if arc_lines:
        ends = [_arc_ends(n, lines[number - 1].split()[1:]) for number in arc_lines]
        numbers = np.concatenate((plain_lines, arc_lines))
        order = np.argsort(numbers)
        numbers = numbers[order]
        tails = np.concatenate((tails, [u for u, _ in ends]))[order]
        heads = np.concatenate((heads, [v for _, v in ends]))[order]
    bad = (tails < 0) | (tails >= n) | (heads < 0) | (heads >= n) | (tails == heads)
    first = int(bad.argmax()) if bad.any() else bad.size
    lo = np.minimum(tails[:first], heads[:first])
    hi = np.maximum(tails[:first], heads[:first])
    # The lines before the first bad one name pairs below n * n. When they
    # would fill a good share of that many codes, one count shows that no
    # pair repeats; the first repeat is looked for only when one may exist.
    if first and (n * n > 4 * first + 64 or np.bincount(lo * n + hi).max() > 1):
        order = np.lexsort((np.arange(first), hi, lo))
        repeat = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
        if repeat.any():
            first = int(order[1:][repeat].min())
    if first == bad.size:
        return tails, heads
    number = int(numbers[first])
    u, v = _ints(number, lines[number - 1].split()[1:])
    if bad[first]:
        raise InstanceFormatError(number, f"bad arc ({u}, {v})")
    raise InstanceFormatError(number, f"pair {{{u}, {v}}} oriented twice")


def _arc_ends(n: int, fields: list[str]) -> tuple[int, int]:
    """The ends of an arc line that is not plain, -1 for a field that is no
    integer or no vertex index that fits an int64."""
    top = min(n, np.iinfo(np.int64).max)
    values = []
    for field in fields:
        try:
            value = int(field)
        except ValueError:
            value = -1
        values.append(value if 0 <= value < top else -1)
    return values[0], values[1]


def serialize_instance(instance: Instance) -> str:
    lines = [f"p sfast {instance.n} {instance.k}"]
    lines.append(" ".join(["s", *map(str, sorted(instance.terminals))]).rstrip())
    tails, heads = np.nonzero(instance.tournament.adj)
    lines.extend(map("a {} {}".format, tails.tolist(), heads.tolist()))
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
