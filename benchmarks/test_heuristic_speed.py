"""E-SPEED — heuristic runtimes (Section 6.4).

The paper reports 24 ms (XYI) and 38 ms (PR) per instance on 2011
hardware with compiled code; this bench times each heuristic on a
representative instance (8×8 chip, 40 mixed communications) using
pytest-benchmark's proper statistics.  Absolute numbers differ (pure
Python), the *ordering* — XY/SG cheap, TB/IG/PR mid, XYI the heaviest —
is the reproducible signal.
"""

import pytest

from repro import Mesh, PowerModel, RoutingProblem
from repro.heuristics import PAPER_HEURISTICS, get_heuristic
from repro.workloads import uniform_random_workload

MESH = Mesh(8, 8)
POWER = PowerModel.kim_horowitz()
PROBLEM = RoutingProblem(
    MESH, POWER, uniform_random_workload(MESH, 40, 100.0, 2500.0, rng=99)
)


@pytest.mark.parametrize("name", PAPER_HEURISTICS)
def test_heuristic_speed(benchmark, name):
    heuristic = get_heuristic(name)
    result = benchmark(heuristic.solve, PROBLEM)
    assert result.routing.is_single_path
