"""Replica placement algorithms: MTLS, MTOLS, and the baseline strategies."""

from .baselines import (default_thresholds, solve_jms_greedy, solve_local_search,
                        solve_naive_greedy, solve_no_replica, solve_pch, solve_starfront)
from .core import (ContentProblem, MoveSet, OptimizerConfig, PlacementResult, PlacementStats,
                   dp_pass)
from .local_search import solve_mtls, solve_mtols

SOLVERS = {
    "no_replica": solve_no_replica,
    "naive_greedy": solve_naive_greedy,
    "jms_greedy": solve_jms_greedy,
    "local_search": solve_local_search,
    "starfront": solve_starfront,
    "pch": solve_pch,
    "mtols": solve_mtols,
    "mtls": solve_mtls,
}

__all__ = [
    "ContentProblem", "MoveSet", "OptimizerConfig", "PlacementResult", "PlacementStats",
    "SOLVERS", "default_thresholds", "dp_pass", "solve_jms_greedy", "solve_local_search",
    "solve_mtls", "solve_mtols", "solve_naive_greedy", "solve_no_replica", "solve_pch",
    "solve_starfront",
]
