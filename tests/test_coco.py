import random
from fractions import Fraction

import pytest

from periodic_games import Decomposition, coco, coco_solution, decompose, game, max_combined_payoff, payoff
from periodic_games.errors import CertificateError
from periodic_games.generate import random_game
from periodic_games.io import parse_game, serialize_game

from conftest import random_rational_game, transformed_game

F = Fraction


def test_decompose_bos(bos):
    split = decompose(bos)
    assert split.cooperative == (
        (F(3, 2), F(0)),
        (F(0), F(3, 2)),
    )
    assert split.competitive == (
        (F(1, 2), F(0)),
        (F(0), F(-1, 2)),
    )


def test_decompose_recombines(bos, prisoners, four_by_four):
    rng = random.Random(1944)
    for g in (bos, prisoners, four_by_four, *(random_rational_game(rng, 2) for _ in range(30))):
        split = decompose(g)
        for r in range(g.shape[0]):
            for c in range(g.shape[1]):
                u = g.payoffs[g.profile_index((r, c))]
                assert split.cooperative[r][c] + split.competitive[r][c] == u[0]
                assert split.cooperative[r][c] - split.competitive[r][c] == u[1]


def test_max_combined_bos(bos):
    value, profile, tied = max_combined_payoff(bos)
    assert value == 3
    assert profile == (0, 0)
    assert tied == ((0, 0), (1, 1))


def test_joint_maximum_matches_a_scan_of_the_profiles():
    rng = random.Random(1945)
    for k in range(60):
        g = random_rational_game(rng, 2) if k % 2 else random_game(rng, 2)
        joint = {profile: sum(payoff(g, profile)) for profile in g.profiles()}
        best = max(joint.values())
        tied = tuple(profile for profile, value in joint.items() if value == best)
        assert max_combined_payoff(g) == (best, tied[0], tied)


def test_solution_bos(bos):
    s = coco_solution(bos)
    assert s.vsharp == 3
    assert s.vs == 0
    assert s.side_payment == F(-1, 2)
    assert s.final_payoffs == (F(3, 2), F(3, 2))


def test_solution_prisoners(prisoners):
    s = coco_solution(prisoners)
    assert s.vsharp == 8
    assert s.vs == 0
    assert s.profile == (0, 0)
    assert s.side_payment == 0
    assert s.final_payoffs == (F(4), F(4))


def test_solution_four_by_four(four_by_four):
    s = coco_solution(four_by_four)
    assert s.vsharp == 14
    assert s.profile == (1, 1)
    assert s.vs == F(3, 5)
    assert s.final_payoffs == (F(38, 5), F(32, 5))
    assert sum(s.final_payoffs) == s.vsharp


def test_zero_sum_strategies_certify_value(bos, prisoners, four_by_four):
    for g in (bos, prisoners, four_by_four):
        split = decompose(g)
        s = coco_solution(g)
        row, col = s.zero_sum_strategies
        m = split.competitive
        rows, cols = len(m), len(m[0])
        for c in range(cols):
            assert sum(row[r] * m[r][c] for r in range(rows)) >= s.vs
        for r in range(rows):
            assert sum(col[c] * m[r][c] for c in range(cols)) <= s.vs


def test_solution_checks_its_identities_without_assert(prisoners, monkeypatch):
    # A joint maximum that no profile attains breaks the side-payment identity;
    # the check must raise a typed error, which python -O cannot strip.
    true_max = coco._joint_maximum

    def inflated(split):
        value, profile, tied = true_max(split)
        return value + 1, profile, tied

    monkeypatch.setattr(coco, "_joint_maximum", inflated)
    with pytest.raises(CertificateError, match="side payment"):
        coco_solution(prisoners)


def test_coco_follows_a_player_swap_and_a_common_positive_scale():
    """Swapping the players swaps the final payoffs; scaling both players'
    payoffs by k > 0 scales the joint maximum, the zero-sum value, the side
    payment and the final payoffs by k."""
    rng = random.Random(1950)
    for n in range(40):
        g = random_rational_game(rng, 2) if n % 2 else random_game(rng, 2)
        s = coco_solution(g)
        assert coco_solution(transformed_game(g, [1, 0])).final_payoffs == s.final_payoffs[::-1]
        k = F(rng.randint(1, 12), rng.randint(1, 12))
        t = coco_solution(transformed_game(g, [0, 1], payoff=lambda u: tuple(k * v for v in u)))
        assert (t.vsharp, t.vs, t.side_payment) == (k * s.vsharp, k * s.vs, k * s.side_payment)
        assert t.final_payoffs == (k * s.final_payoffs[0], k * s.final_payoffs[1])


def test_decompositions_compare_by_their_fraction_matrices(bos, four_by_four):
    split = decompose(bos)
    assert (split.sums, split.differences, split.scale) == (((3, 0), (0, 3)), ((1, 0), (0, -1)), 2)
    doubled = Decomposition(*(tuple(tuple(2 * v for v in row) for row in m) for m in (split.sums, split.differences)),
                            2 * split.scale)
    assert doubled == split and hash(doubled) == hash(split)
    assert (doubled.cooperative, doubled.competitive) == (split.cooperative, split.competitive)
    assert Decomposition(split.sums, split.differences, 3) != split
    assert decompose(four_by_four) != split and split != (split.cooperative, split.competitive)


def test_coco_solution_forms_no_fraction_per_payoff_entry(monkeypatch):
    """Of the 800 entries of a 20x20 game's split, none becomes a Fraction:
    coco forms the joint maximum and game the two payoffs at its profile."""
    rng = random.Random(1951)
    texts = [[[f"{rng.randint(-9, 9)}/{rng.randint(1, 12)}" for _ in "AB"] for _ in range(20)] for _ in range(20)]
    g = parse_game(serialize_game(game.make_game("AB", [[f"a{k}" for k in range(20)]] * 2, texts)))
    formed = []

    def counted(*args):
        formed.append(args)
        return Fraction(*args)

    for module in (coco, game):
        monkeypatch.setattr(module, "Fraction", counted)
    s = coco_solution(g)
    assert len(formed) == 3, formed
    assert s.decomposition.competitive == tuple(
        tuple((u[0] - u[1]) / 2 for u in g.payoffs[r * 20:(r + 1) * 20]) for r in range(20))
