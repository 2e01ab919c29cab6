"""Plain-text instance and solution files.

An instance file holds one problem line `p sfast <n> <k>`, one terminal line
`s <v> ...` (possibly listing nothing), and one arc line `a <u> <v>` for each
ordered pair, together describing a full tournament on vertices 0..n-1.
Comment lines starting with `c` and blank lines are ignored anywhere. A
solution file lists arcs to reverse, one `r <u> <v>` line each.

Files are UTF-8, and a line ends at any line break that `str.splitlines`
knows. `parse_instance` and `parse_solution` take the file's bytes or its
text; a byte that is not UTF-8 is an error on its line. `parse_instance`
encodes text once. ASCII whose only line break is `\\n`, as
`serialize_instance` writes, is scanned as it stands. Any other instance
file is first cut with `str.splitlines` and joined with `\\n`, so that its
lines and their numbers stay the same.

Nearly all of an instance file is its n(n-1)/2 arc lines. The bytes are
scanned in chunks of 24 KiB, each cut just after a `\\n`, so that a
chunk's scratch arrays stay in cache and in memory the allocator reuses.
In each chunk the plain arc lines (`a`, then two ASCII numbers of at most
9 digits, with spaces or tabs between and optionally after) are found and
decoded together, as arrays over the chunk's bytes; only their line
numbers, tails and heads are kept, as int32. Of the chunk's other lines
only their byte spans are kept. Each of those (the problem and terminal
lines, comments, blank lines, and an arc line spelt any other way: `+1`,
`1_0`, other Unicode digits or blanks, longer numbers) is then decoded on
its own and read with `str.split` and `int`, so what the format accepts is
what those accept. All arc lines are checked together in line order, and
an error names the first offending line.
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

# Bytes per scanned chunk. A chunk is cut just after the last `\n` in this
# many bytes, and holds the whole of a longer line. A chunk's scratch arrays
# come to about ten times its size. Once that outgrows what glibc's malloc
# keeps between frees, every chunk draws fresh pages: at 64 KiB a planted
# n=150 parse took some 200 page faults, a third of its time. Smaller chunks
# cost more numpy calls per byte; of 16 KiB to 1 MiB, 24 KiB parsed planted
# n=150 files fastest (2-CPU x86-64 machine).
_CHUNK = 24 << 10

# The line breaks of `str.splitlines` that ASCII text can hold, but `\n`.
_BREAKS = (b"\r", b"\v", b"\f", b"\x1c", b"\x1d", b"\x1e")


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


def parse_instance(text: str | bytes) -> Instance:
    data = _file_bytes(text)
    plain_lines, plain_tails, plain_heads, others = _scan(data)
    n = k = None
    terminals: frozenset[int] | None = None
    # The arc lines are checked together once the line loop ends, or when
    # it stops at an error, so that an earlier arc line's error wins. The
    # fields of the arc lines that are not plain go by line number.
    arc_fields: dict[int, list[str]] = {}
    last = 0
    try:
        for number, begin, end in others:
            fields = data[begin:end].decode("utf-8", "surrogatepass").split()
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
                arc_fields[number] = fields[1:]
            elif kind == "p":
                if n is not None:
                    raise InstanceFormatError(number, "second problem line")
                if len(fields) != 4 or fields[1] != "sfast":
                    raise InstanceFormatError(number, "problem line must read `p sfast <n> <k>`")
                size, budget = _ints(number, fields[2:])
                if size < 0:
                    raise InstanceFormatError(number, "negative vertex count")
                n, k = size, budget
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
            _arc_matrix(n, plain_lines[:cut], plain_tails[:cut], plain_heads[:cut], arc_fields)
        raise
    adj = _arc_matrix(n, plain_lines, plain_tails, plain_heads, arc_fields)
    arcs = plain_lines.size + len(arc_fields)
    if arcs != n * (n - 1) // 2:
        raise InstanceFormatError(
            last + 1, f"{arcs} arcs given, a tournament on {n} vertices has {n * (n - 1) // 2}"
        )
    # Every pair is oriented once and no arc is a loop, so `adj` is a
    # tournament already and needs no second check.
    return Instance(Tournament._derived(adj, tuple(range(n))), terminals, k)


def _file_bytes(file: str | bytes) -> bytes:
    """The file as UTF-8 whose only line break is ``\\n``, one line per
    line of its text's ``splitlines()``.

    ASCII without another line break is returned as it is (a `str` encoded
    once); anything else is cut into lines and joined again. A byte that is
    not UTF-8 raises InstanceFormatError on its line.
    """
    data = file.encode("ascii") if isinstance(file, str) and file.isascii() else file
    if isinstance(data, bytes) and data.isascii() and not any(brk in data for brk in _BREAKS):
        return data
    return "\n".join([*_text(data).splitlines(), ""]).encode("utf-8", "surrogatepass")


def _text(file: str | bytes) -> str:
    """The file as text: bytes decoded as UTF-8, text as it is. A byte that
    is not UTF-8 raises InstanceFormatError on its line, counted as
    ``str.splitlines`` counts lines."""
    if isinstance(file, str):
        return file
    try:
        return file.decode("utf-8")
    except UnicodeDecodeError as error:
        line = len((file[: error.start].decode("utf-8") + "?").splitlines())
        raise InstanceFormatError(line, f"byte {file[error.start]:#04x} is not UTF-8") from None


def _scan(data: bytes) -> tuple[np.ndarray, np.ndarray, np.ndarray, zip]:
    """The plain arc lines' numbers, tails and heads, and the number and
    byte span of each other line, in line order.

    ``data`` is scanned in chunks that end just after a ``\\n``; a last
    line without one is scanned from a copy that has it. The plain lines'
    arrays are allocated once, for as many lines as the bytes could hold
    (six bytes at least, `a 0 1` and a break), and only the pages that
    their lines fill are ever touched.
    """
    most = (len(data) + 1) // 6
    found = np.empty(most, dtype=np.int32 if len(data) < 2**31 else np.int64)
    tails = np.empty(most, dtype=np.int32)
    heads = np.empty(most, dtype=np.int32)
    others: list[list[np.ndarray]] = [[], [], []]
    kept = lines = start = 0
    while start < len(data):
        stop = data.rfind(b"\n", start, start + _CHUNK) + 1
        if not stop:
            stop = data.find(b"\n", start + _CHUNK) + 1 or len(data)
        if data[stop - 1] == ord("\n"):
            chunk = np.frombuffer(data, np.uint8, stop - start, start)
        else:
            chunk = np.frombuffer(data[start:] + b"\n", np.uint8)
        plain, plain_tails, plain_heads, odd, begins, ends, count = _chunk_lines(chunk)
        part = slice(kept, kept + plain.size)
        np.add(plain, lines + 1, out=found[part], casting="unsafe")
        tails[part] = plain_tails
        heads[part] = plain_heads
        for column, more in zip(others, (odd + (lines + 1), begins + start, ends + start)):
            column.append(more)
        kept = part.stop
        lines += count
        start = stop
    odd, begins, ends = (np.concatenate(column).tolist() if column else [] for column in others)
    return found[:kept], tails[:kept], heads[:kept], zip(odd, begins, ends)


# The class of each run's first byte in `_chunk_lines`: a digit is 1, as
# `np.less` writes it, and any byte not named here is 0. A plain line's
# first five runs, read as one little-endian word of classes, are `a`, a
# digit, a blank, a digit, and a blank or its break; those last two classes
# differ in one bit, which the mask clears.
_DIGIT, _BLANK, _A, _BREAK = 1, 2, 3, 6
_PLAIN = int.from_bytes(bytes([_A, _DIGIT, _BLANK, _DIGIT, _BLANK]), "little")
_PLAIN_MASK = int.from_bytes(bytes([255, 255, 255, 255, 255 & ~(_BLANK ^ _BREAK)]), "little")


def _chunk_lines(x: np.ndarray) -> tuple:
    """Read a chunk of bytes that ends in ``\\n``, a line per ``\\n``.

    Returns the indices of its plain arc lines, their tails and heads, the
    indices of its other lines with the byte span of each (its break left
    out), and the chunk's line count.

    One pass over the bytes finds the first byte of each run that matters:
    each line's first byte, each byte that is no digit, space or tab (`a`,
    a line break, anything else), each digit after a blank (a number
    starts) and each blank after a digit (a number ends). A plain line is
    then four runs and its break: `a` with the blanks after it, a number,
    blanks and a number; or five, with trailing blanks. Every array here
    is per byte, per run or per line of the chunk alone, and dies with it.
    """
    digit = x - ord("0")
    digit = np.less(digit, 10, out=digit.view(bool))  # uint8 wraps below "0"
    blank = x == ord(" ")
    blank |= x == ord("\t")
    run = digit | blank
    np.logical_not(run, out=run)
    edge = digit[1:] ^ digit[:-1]
    edge &= blank[1:] ^ blank[:-1]
    edge |= x[:-1] == ord("\n")
    run[1:] |= edge
    run[0] = True
    at = np.flatnonzero(run)
    byte = x.take(at)
    # Seven spare bytes let every line's first eight classes make one word.
    kind = np.zeros(at.size + 7, dtype=np.uint8)
    runs = kind[: at.size]
    np.less(byte - ord("0"), 10, out=runs.view(bool))
    runs |= ((byte == ord(" ")) | (byte == ord("\t"))).view(np.uint8) * np.uint8(_BLANK)
    runs |= (byte == ord("a")).view(np.uint8) * np.uint8(_A)
    brk = byte == ord("\n")
    runs |= brk.view(np.uint8) * np.uint8(_BREAK)
    breaks = np.flatnonzero(brk)
    first = np.empty_like(breaks)
    first[:1] = 0
    np.add(breaks[:-1], 1, out=first[1:])
    words = np.ndarray((at.size,), "V8", buffer=kind, strides=(1,)).take(first)
    ok = (words.view("<u8") & _PLAIN_MASK) == _PLAIN
    ok &= ((breaks - first) >> 1) == 2  # four or five runs
    found = np.flatnonzero(ok)
    e = first.take(found)
    s1, e1, s2, e2 = (at.take(e + i) for i in range(1, 5))
    fits = (e1 - s1 <= 9) & (e2 - s2 <= 9)
    if not fits.all():
        found, s1, e1, s2, e2 = found[fits], s1[fits], e1[fits], s2[fits], e2[fits]
    plain = np.zeros(breaks.size, dtype=bool)
    plain[found] = True
    odd = np.flatnonzero(~plain)
    ends = at.take(breaks.take(odd))
    begins = at.take(breaks.take(odd - 1)) + 1
    begins[odd == 0] = 0
    return found, _decimal(x, s1, e1), _decimal(x, s2, e2), odd, begins, ends, breaks.size


# Row c holds the place value of a number's c-th digit from the right, by
# the number's length: 10**c if it has that digit, else 0. `_ZEROS` is the
# weighted sum of the "0" bytes that a number of each length reads.
_WEIGHT = np.array([[10**c if c < n else 0 for n in range(10)] for c in range(9)], np.int32)
_ZEROS = _WEIGHT.sum(axis=0, dtype=np.int32) * np.int32(ord("0"))


def _decimal(x: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """The int32 values of the ASCII digit runs ``x[starts:stops]`` of 1 to
    9 digits, by place value, one digit column at a time from the right."""
    lengths = stops - starts
    at = stops - 1
    values = x.take(at).astype(np.int32)
    for column in range(1, int(lengths.max(initial=0))):
        at -= 1
        values += x.take(at, mode="clip") * _WEIGHT[column].take(lengths)
    values -= _ZEROS.take(lengths)
    return values


def _arc_matrix(
    n: int,
    plain_lines: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    arc_fields: dict[int, list[str]],
) -> np.ndarray | None:
    """The adjacency matrix that the arc lines set: the plain ones, decoded
    already, and the others from their fields. Raises for the first line
    in line order that is not two integers, names a bad arc, or orients a
    pair a second time. Returns None when the arcs would fill less than a
    quarter of the matrix, too few for a tournament, without building it.
    """
    numbers = plain_lines
    if arc_fields:
        ends = [_arc_ends(n, fields) for fields in arc_fields.values()]
        numbers = np.concatenate((plain_lines, list(arc_fields)))
        order = np.argsort(numbers)
        numbers = numbers[order]
        tails = np.concatenate((tails, [u for u, _ in ends]))[order]
        heads = np.concatenate((heads, [v for _, v in ends]))[order]
    bad = (tails < 0) | (tails >= n) | (heads < 0) | (heads >= n) | (tails == heads)
    first = int(bad.argmax()) if bad.any() else bad.size
    # The lines before the first bad one name arcs between vertices below n.
    # When they fill a good share of the matrix, setting them in it shows
    # whether a pair repeats, as an arc set twice or as both arcs of a pair;
    # the first repeat is looked for only when one may exist.
    adj = None
    if n * n <= 4 * first + 64:
        adj = np.zeros((n, n), dtype=bool)
        flat = tails[:first] * np.intp(n)
        flat += heads[:first]
        adj.ravel()[flat] = True
        del flat
    if first and (adj is None or np.count_nonzero(adj) < first or (adj & adj.T).any()):
        lo = np.minimum(tails[:first], heads[:first])
        hi = np.maximum(tails[:first], heads[:first])
        order = np.lexsort((np.arange(first), hi, lo))
        repeat = (lo[order[1:]] == lo[order[:-1]]) & (hi[order[1:]] == hi[order[:-1]])
        if repeat.any():
            first = int(order[1:][repeat].min())
    if first == bad.size:
        return adj
    number = int(numbers[first])
    fields = arc_fields.get(number)
    if fields is None:
        u, v = int(tails[first]), int(heads[first])
    else:
        u, v = _ints(number, fields)
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
    """The instance file, written a row of the matrix at a time: the arc
    lines out of u join the tokens `` v\\n`` of its heads with ``a u``."""
    tokens = [f" {v}\n" for v in range(instance.n)]
    rows = [
        f"p sfast {instance.n} {instance.k}\n",
        " ".join(["s", *map(str, sorted(instance.terminals))]).rstrip() + "\n",
    ]
    for u, row in enumerate(instance.tournament.adj):
        rows.append(f"a {u}".join(["", *map(tokens.__getitem__, np.flatnonzero(row).tolist())]))
    return "".join(rows)


def parse_solution(file: str | bytes) -> frozenset[Arc]:
    """The arcs of a solution file, given as its bytes or its text."""
    arcs: set[Arc] = set()
    for number, fields in _tokens(_text(file)):
        if fields[0] != "r" or len(fields) != 3:
            raise InstanceFormatError(number, "solution lines must read `r <u> <v>`")
        u, v = _ints(number, fields[1:])
        if (u, v) in arcs:
            raise InstanceFormatError(number, f"arc ({u}, {v}) listed twice")
        arcs.add((u, v))
    return frozenset(arcs)


def serialize_solution(arcs: Iterable[Arc]) -> str:
    return "".join(f"r {u} {v}\n" for u, v in sorted(arcs))
