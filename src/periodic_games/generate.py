"""Seeded random games shared by ``perigame check`` and the tests."""

from __future__ import annotations

import math
import random
from typing import Optional

from .game import Game


def random_game(rng: random.Random, num_players: Optional[int] = None) -> Game:
    """Random integer-payoff game: 2-4 players unless given, 2-4 actions
    each, payoffs uniform in [-9, 9]. The draws from ``rng`` are part of the
    contract: a seed names the same games in every release."""
    n = num_players if num_players is not None else rng.randint(2, 4)
    shape = [rng.randint(2, 4) for _ in range(n)]
    count = n * math.prod(shape)
    # randint(-9, 9) is -9 + getrandbits(5) redrawn until below 19; batched, none drawn past the last kept.
    draws: list[int] = []
    while len(draws) < count:
        draws += map((-9).__add__, filter((19).__gt__, map(rng.getrandbits, [5] * (count - len(draws)))))
    actions = [[f"s{k + 1}" for k in range(size)] for size in shape]
    return Game._from_integers([f"P{i + 1}" for i in range(n)], actions, [draws[i::n] for i in range(n)], (1,) * n)
