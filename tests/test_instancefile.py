import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import random_tournament
from reference import reference_parse_instance, reference_serialize_instance
from sfast import instancefile
from sfast.graphs import Instance
from sfast.instancefile import (
    InstanceFormatError,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)
from sfast.oracle import GeneratorSpec, generate_planted

SAMPLE = """\
c a three vertex cycle with one terminal
p sfast 3 1

s 0
a 0 1
a 1 2
c orientation of the last pair
a 2 0
"""


def test_parse_sample_with_comments_and_blanks():
    instance = parse_instance(SAMPLE)
    assert instance.n == 3
    assert instance.k == 1
    assert instance.terminals == frozenset({0})
    assert instance.tournament.adj[2, 0]


@given(n=st.integers(0, 8), seed=st.integers(0, 10**6), k=st.integers(-1, 5))
@settings(max_examples=60, deadline=None)
def test_round_trip_preserves_everything(n, seed, k):
    rng = random.Random(seed)
    t = random_tournament(n, seed) if n else parse_instance("p sfast 0 0\ns\n").tournament
    terminals = frozenset(v for v in range(n) if rng.random() < 0.5)
    instance = Instance(t, terminals, k)
    again = parse_instance(serialize_instance(instance))
    assert again.tournament == instance.tournament
    assert again.terminals == instance.terminals
    assert again.k == instance.k


def test_empty_terminal_line_round_trips():
    text = serialize_instance(parse_instance("p sfast 2 0\ns\na 1 0\n"))
    instance = parse_instance(text)
    assert instance.terminals == frozenset()


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("p sfast 2\ns\na 0 1\n", 1, "problem line"),
        ("p sfast 2 1\np sfast 2 1\ns\na 0 1\n", 2, "second problem"),
        ("s 0\np sfast 2 1\na 0 1\n", 1, "before the problem line"),
        ("p sfast 2 1\ns 0\ns 1\na 0 1\n", 3, "second terminal"),
        ("p sfast 2 1\ns 5\na 0 1\n", 2, "out of range"),
        ("p sfast 2 1\ns 0 0\na 0 1\n", 2, "twice"),
        ("p sfast 2 1\ns 0\na 0 2\n", 3, "bad arc"),
        ("p sfast 2 1\ns 0\na 0 0\n", 3, "bad arc"),
        ("p sfast 2 1\ns 0\na 0 1\na 1 0\n", 4, "oriented twice"),
        ("p sfast 2 1\ns 0\na 0 1\nq 1 2\n", 4, "unknown line type"),
        ("p sfast 3 1\ns 0\na 0 1\n", 4, "arcs given"),
        ("p sfast 2 x\ns 0\na 0 1\n", 1, "expected integers"),
        ("a 0 1\n", 1, "before the problem line"),
        ("", 1, "missing problem line"),
        ("p sfast 2 1\na 0 1\n", 3, "missing terminal line"),
        ("p sfast -1 0\ns\n", 1, "negative"),
        ("p sfast 99999999999999999999 0\ns\na 0 99999999999999999998\n", 3, "bad arc"),
    ],
)
def test_errors_carry_line_numbers(text, line, fragment):
    with pytest.raises(InstanceFormatError) as info:
        parse_instance(text)
    assert info.value.line == line
    assert fragment in str(info.value)
    assert str(info.value).startswith(f"line {line}:")


def test_solution_round_trip():
    arcs = frozenset({(3, 1), (0, 2), (5, 4)})
    assert parse_solution(serialize_solution(arcs)) == arcs


def test_solution_serialization_is_sorted():
    text = serialize_solution([(5, 4), (0, 2)])
    assert text == "r 0 2\nr 5 4\n"


def test_empty_solution_file_parses():
    assert parse_solution("c nothing to reverse\n") == frozenset()


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("r 0 1\nr 0 1\n", "twice"),
        ("x 0 1\n", "solution lines"),
        ("r 0\n", "solution lines"),
        ("r a b\n", "expected integers"),
    ],
)
def test_solution_errors(text, fragment):
    with pytest.raises(InstanceFormatError) as info:
        parse_solution(text)
    assert fragment in str(info.value)


def test_solution_bytes_parse_as_their_text():
    text = "c caf\u00e9\r\nr 0 2\rr 5 4\n"
    assert parse_solution(text.encode()) == parse_solution(text) == frozenset({(0, 2), (5, 4)})


@pytest.mark.parametrize(
    "data, line, byte",
    [
        (b"\xff", 1, 0xFF),
        (b"r 0 1\n\xffr 1 2\n", 2, 0xFF),
        (b"r 0 1\r\nc caf\xe9\r\nr 1 2\n", 2, 0xE9),
        (b"c \xe2\x82\xac\rc x\rr 0 \xc3", 3, 0xC3),
    ],
)
def test_a_byte_that_is_not_utf8_names_its_line_in_either_file(data, line, byte):
    # Both parsers decode through one helper, so they name the same line.
    for parse in (parse_solution, parse_instance):
        with pytest.raises(InstanceFormatError) as info:
            parse(data)
        assert str(info.value) == f"line {line}: byte {byte:#04x} is not UTF-8"


@pytest.mark.parametrize(
    "text, line, fragment",
    [
        ("p sfast 3 1\ns 0\na 0 5\nq 1 2\n", 3, "bad arc (0, 5)"),
        ("p sfast 3 1\na 0 1\na 1 0\ns 0\ns 1\n", 3, "pair {1, 0} oriented twice"),
        ("p sfast 3 1\ns 0\na 0 x\na 1 1\n", 3, "expected integers, got 0 x"),
        ("p sfast 3 1\ns 0\na 1 1\na 0 x\n", 3, "bad arc (1, 1)"),
        ("p sfast 3 1\na 2 2\n", 2, "bad arc (2, 2)"),
        ("p sfast 3 1\ns 0\na 0 1\na 99999999999999999999 1\n", 4, "bad arc (99999999999999999999, 1)"),
        ("p sfast 3 1\ns 0\na 0 1\na 1 0\na 0 99999999999999999999\n", 4, "oriented twice"),
        ("p sfast 3 1\ns 0\na 0 1\na 1 2\na 0 2\np sfast 3 1\n", 6, "second problem line"),
    ],
)
def test_the_first_offending_line_wins(text, line, fragment):
    # Arc lines are checked together after the line loop; an arc error must
    # still win over any error on a later line, and the reverse.
    with pytest.raises(InstanceFormatError) as info:
        parse_instance(text)
    assert info.value.line == line
    assert fragment in str(info.value)


BREAKS = ("\n", "\r\n", "\r", "\v", "\x1c")
BLANKS = (" ", "\t", "\x1f", "\xa0", "  ", " \t ")
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def respelled(token: str, rng, huge: bool) -> str:
    """The same integer spelt another way, no integer, or (when ``huge``) a
    number of 20 or more digits."""
    choice = rng.randrange(7 if huge else 6)
    if choice == 0:
        return "+" + token
    if choice == 1:
        return token[:1] + "_" + token[1:] if len(token) > 1 else "0_" + token
    if choice == 2:
        return token.translate(ARABIC_INDIC)
    if choice == 3:
        return "0" * rng.randrange(1, 4) + token
    if choice == 4:
        return "0" * 20 + token
    if choice == 5:
        return rng.choice(["x", "1.0", "--1", "0x1"])
    return str(rng.randrange(10**19, 10**21))


def mutated(text: str, rng) -> str:
    lines = text.splitlines()
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(len(lines) + 1)
        op = rng.randrange(9)
        if op == 0 and i < len(lines):
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == 1 and i < len(lines):
            lines.insert(i, lines[i])
        elif op == 2 and i < len(lines):
            del lines[i]
        elif op == 3:
            arcs = [line for line in lines if line.startswith("a")]
            if arcs:
                lines.insert(0, rng.choice(arcs))
        elif op == 4:
            lines.insert(i, rng.choice(["c a comment", "", "   ", "c", "\t", "ca 1 2"]))
        elif op in (5, 6) and i < len(lines):
            fields = lines[i].split(" ")
            numbers = [j for j, f in enumerate(fields) if j and f.lstrip("-").isdigit()]
            if numbers:
                j = rng.choice(numbers)
                # A vertex count past int64 is left out: the line-at-a-time
                # parser overflows on it.
                fields[j] = respelled(fields[j], rng, fields[0] != "p")
            lines[i] = " ".join(fields)
        elif i < len(lines):
            fields = lines[i].split()
            blank = "".join(rng.choice(BLANKS) for _ in range(rng.randrange(1, 3)))
            edge = rng.choice(["", "", " ", "\t", "\xa0"])
            lines[i] = (edge if op == 7 else "") + blank.join(fields) + edge
    breaks = [rng.choice(BREAKS) for _ in lines]
    if breaks and rng.random() < 0.3:
        breaks[-1] = ""
    return "".join(line + brk for line, brk in zip(lines, breaks))


def parsed(parse, text):
    """The instance a file holds, or the line and message of its error."""
    try:
        return parse(text)
    except InstanceFormatError as error:
        return error.line, str(error)


def mutated_files(seed):
    """The 250 mutated instance files drawn for a seed, of 0 to 6 vertices."""
    rng = random.Random(seed)
    for _ in range(250):
        n = rng.randrange(0, 7)
        terminals = frozenset(v for v in range(n) if rng.random() < 0.4)
        instance = Instance(random_tournament(n, rng.randrange(2**30)), terminals, rng.randrange(-1, 5))
        yield mutated(serialize_instance(instance), rng)


@pytest.mark.parametrize("seed", range(8))
def test_parse_matches_the_line_at_a_time_reference_on_mutated_files(seed):
    kinds = set()
    for text in mutated_files(seed):
        got = parsed(parse_instance, text)
        assert got == parsed(reference_parse_instance, text), repr(text)
        kinds.add(type(got))
    assert kinds == {Instance, tuple}


@pytest.mark.parametrize("seed", range(8))
def test_bytes_parse_as_their_text_on_mutated_files(seed):
    for text in mutated_files(seed):
        data = text.encode("utf-8", "surrogatepass")
        assert parsed(parse_instance, data) == parsed(parse_instance, text), repr(text)


@pytest.mark.parametrize("chunk", [1, 4, 9])
@pytest.mark.parametrize("seed", range(3))
def test_parse_matches_the_reference_when_chunks_cut_lines(seed, chunk, monkeypatch):
    # A chunk this small ends inside most lines; the scan must carry on to
    # the line's end, whatever the line.
    monkeypatch.setattr(instancefile, "_CHUNK", chunk)
    for text in mutated_files(seed):
        assert parsed(parse_instance, text) == parsed(reference_parse_instance, text), repr(text)
        data = text.encode("utf-8", "surrogatepass")
        assert parsed(parse_instance, data) == parsed(reference_parse_instance, text), repr(text)


def wrapping(digits: int, value: int) -> int:
    """The smallest number of this many digits that is ``value`` modulo 2**32."""
    return -(-(10 ** (digits - 1) - value) // 2**32) * 2**32 + value


@pytest.mark.parametrize("digits", range(10, 20))
def test_long_arc_numbers_are_bad_arcs_never_wrapped(digits):
    # Each long number is vertex 2 modulo 2**32: read into an int32, it
    # would wrap into a good arc.
    big = wrapping(digits, 2)
    assert len(str(big)) == digits
    for arc, shown in ((f"{big} 0", f"({big}, 0)"), (f"1 {big}", f"(1, {big})")):
        text = f"p sfast 3 1\ns 0\na 0 1\na {arc}\na 0 2\n"
        got = parsed(parse_instance, text)
        assert got == parsed(reference_parse_instance, text)
        assert got == (4, f"line 4: bad arc {shown}")


def test_long_spellings_of_small_numbers_are_read_as_int_reads_them():
    text = "p sfast 3 1\ns 0\na 0000000000 0000000001\na 1 002\na 000000000000000000002 0\n"
    assert parse_instance(text) == reference_parse_instance(text)
    assert parse_instance(text).tournament.adj[2, 0]
    nine = "p sfast 3 1\ns 0\na 0 999999999\n"
    assert parsed(parse_instance, nine) == (3, "line 3: bad arc (0, 999999999)")


@pytest.mark.parametrize("n, s_count", [(50, 6), (150, 10), (1000, 10)])
def test_parse_matches_the_reference_on_planted_files(n, s_count):
    instance, _ = generate_planted(GeneratorSpec(n, s_count, 0, planted_k=3))
    text = serialize_instance(instance)
    assert parse_instance(text) == reference_parse_instance(text) == instance


@pytest.mark.parametrize("seed", range(12))
def test_serialize_matches_the_arc_at_a_time_reference(seed):
    rng = random.Random(seed)
    n = rng.randrange(0, 41)
    t = random_tournament(n, seed) if n else parse_instance("p sfast 0 0\ns\n").tournament
    for terminals in (frozenset(), frozenset(rng.sample(range(n), rng.randrange(n + 1)))):
        instance = Instance(t, terminals, rng.randrange(-1, 9))
        assert serialize_instance(instance) == reference_serialize_instance(instance)
