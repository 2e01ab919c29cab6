import pytest

from families import from_arcs


def test_from_arcs_needs_every_pair_once():
    with pytest.raises(ValueError):
        from_arcs(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        from_arcs(2, [(0, 1), (1, 0)])
