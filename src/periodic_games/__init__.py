"""Exact-arithmetic toolkit for periodic strategies, equilibria, and
cooperative-competitive analysis of finite strategic form games."""

__version__ = "0.1.0"

from .game import (
    Game,
    expected_utility,
    make_game,
    payoff,
    validate_game,
)
from .periodicity import (
    Cycle,
    Node,
    PeriodicityGraph,
    TiePolicy,
    best_deviation_profile,
    build_periodicity_graph,
    enumerate_cycles,
    nodes_on_cycles,
    periodic_actions,
    periodicity_number,
    reach_cycle,
)
from .mixed import (
    EquilibriumReport,
    PeriodicMixed,
    invariance_check,
    nash_support_enumeration,
    periodic_mixed,
)
from .rationalizability import (
    DominanceMode,
    SurvivorSet,
    TypeCount,
    iesds,
    rationalizable_periodic,
    type_count,
)
from .coco import CocoSolution, Decomposition, coco_solution, decompose, max_combined_payoff
from .lp import zero_sum_value
from .bayes import (
    BayesianGame,
    conditional_belief,
    ex_ante_game,
    first_order_belief,
    interim_correlated_game,
    interim_game,
    second_order_belief,
    validate_bayesian_game,
)
from .io import export_dot, parse_bayes, parse_game, serialize_game

__all__ = [
    "Game",
    "make_game",
    "validate_game",
    "payoff",
    "expected_utility",
    "TiePolicy",
    "Node",
    "Cycle",
    "PeriodicityGraph",
    "best_deviation_profile",
    "build_periodicity_graph",
    "nodes_on_cycles",
    "periodic_actions",
    "enumerate_cycles",
    "reach_cycle",
    "periodicity_number",
    "PeriodicMixed",
    "EquilibriumReport",
    "periodic_mixed",
    "nash_support_enumeration",
    "invariance_check",
    "DominanceMode",
    "SurvivorSet",
    "TypeCount",
    "iesds",
    "rationalizable_periodic",
    "type_count",
    "Decomposition",
    "CocoSolution",
    "decompose",
    "max_combined_payoff",
    "coco_solution",
    "zero_sum_value",
    "BayesianGame",
    "validate_bayesian_game",
    "conditional_belief",
    "first_order_belief",
    "second_order_belief",
    "ex_ante_game",
    "interim_game",
    "interim_correlated_game",
    "parse_game",
    "parse_bayes",
    "serialize_game",
    "export_dot",
]
