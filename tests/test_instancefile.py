import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import random_tournament
from sfast.graphs import Instance
from sfast.instancefile import (
    InstanceFormatError,
    parse_instance,
    parse_solution,
    serialize_instance,
    serialize_solution,
)

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
    import random

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
