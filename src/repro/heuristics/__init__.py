"""The paper's routing heuristics (Section 5) and the XY baseline.

All heuristics are *single-path* (1-MP): the paper restricts to one route
per communication "because of the overhead incurred by routing a given
communication across several paths".  Multi-path solutions are produced by
the exact/relaxation solvers in :mod:`repro.optimal` instead.

========  ==============================================  =======
Name      Strategy                                        Section
========  ==============================================  =======
``XY``    horizontal first, then vertical                 §1
``YX``    vertical first, then horizontal                 (companion baseline)
``SG``    hop-by-hop greedy on least-loaded next link     §5.1
``IG``    greedy guided by ideal-spread pre-routing       §5.2
``TB``    best path among all ≤ 2-bend candidates         §5.3
``XYI``   local corner-relocation descent from XY         §5.4
``PR``    prune the all-paths spread link by link         §5.5
``BEST``  virtual best of all of the above                §6
``SA``    simulated annealing on corner flips             (extension)
``GA``    genetic search, heuristic-seeded population     (extension, cf. [18])
``TABU``  hot-link-guided tabu search with aspiration     (extension)
========  ==============================================  =======

The three metaheuristics are extensions beyond the paper; they share the
incremental-cost :class:`~repro.heuristics.local_moves.RoutingState`
machinery and are benchmarked against the paper's heuristics by the
``meta_heuristics`` campaign experiment (``repro campaign run
meta_heuristics``).
"""

from repro.heuristics.base import (
    Heuristic,
    HeuristicResult,
    available_heuristics,
    get_heuristic,
    register_heuristic,
)
from repro.heuristics.xy import XYRouting, YXRouting
from repro.heuristics.greedy import SimpleGreedy
from repro.heuristics.improved_greedy import ImprovedGreedy
from repro.heuristics.two_bend import TwoBend
from repro.heuristics.xy_improver import XYImprover
from repro.heuristics.path_remover import PathRemover
from repro.heuristics.best import BestOf, best_of_results, PAPER_HEURISTICS
from repro.heuristics.local_moves import (
    RoutingState,
    descend,
    initial_moves,
)
from repro.heuristics.annealing import SimulatedAnnealing
from repro.heuristics.genetic import GeneticRouting
from repro.heuristics.tabu import TabuRouting

#: the extension metaheuristics, by registry name
META_HEURISTICS = ("SA", "GA", "TABU")

__all__ = [
    "Heuristic",
    "HeuristicResult",
    "available_heuristics",
    "get_heuristic",
    "register_heuristic",
    "XYRouting",
    "YXRouting",
    "SimpleGreedy",
    "ImprovedGreedy",
    "TwoBend",
    "XYImprover",
    "PathRemover",
    "BestOf",
    "best_of_results",
    "PAPER_HEURISTICS",
    "RoutingState",
    "descend",
    "initial_moves",
    "SimulatedAnnealing",
    "GeneticRouting",
    "TabuRouting",
    "META_HEURISTICS",
]
