"""Property tests of game documents: random shapes, labels and payoff
literals round-trip through ``serialize_game`` and ``parse_game``, and the
text written is the standard library's. Skipped where ``hypothesis`` is
not installed."""

import json
import math
import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from periodic_games.io import parse_game, serialize_game

# Integers (as JSON numbers and as text), k/d texts and long numerators.
LITERALS = st.one_of(
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6).map(str),
    st.builds("{}/{}".format, st.integers(-999, 999), st.integers(1, 999)),
    st.builds("{}/{}".format, st.integers(-(10**60), 10**60), st.integers(1, 10**6)),
)


@st.composite
def game_documents(draw):
    """A game document of 2-4 players with 1-4 actions each, its payoffs
    drawn from a pool of literals by a seeded generator (so the document
    stays small to shrink)."""
    n = draw(st.integers(2, 4))
    shape = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    players = draw(st.lists(st.text(max_size=4), min_size=n, max_size=n, unique=True))
    actions = {p: draw(st.lists(st.text(max_size=3), min_size=size, max_size=size, unique=True)) for p, size in zip(players, shape)}
    pool = draw(st.lists(LITERALS, min_size=1, max_size=8))
    rng = random.Random(draw(st.integers(0, 2**32)))
    table = [[rng.choice(pool) for _ in range(n)] for _ in range(math.prod(shape))]
    for size in reversed(shape):
        table = [table[k:k + size] for k in range(0, len(table), size)]
    return {"players": players, "actions": actions, "payoffs": table[0]}


def canonical(doc):
    """The document with every payoff literal written as its exact value's text."""
    level = [doc["payoffs"]]
    for _ in doc["players"]:
        level = [child for node in level for child in node]
    for vector in level:
        vector[:] = [str(Fraction(v)) for v in vector]
    return doc


@settings(max_examples=150, deadline=None, database=None)
@given(game_documents())
def test_game_documents_round_trip_as_the_standard_library_writes_them(doc):
    g = parse_game(json.dumps(doc))
    text = serialize_game(g)
    assert text == json.dumps(canonical(doc), indent=2) + "\n"
    assert parse_game(text) == g
