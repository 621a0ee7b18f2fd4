"""Regenerate or verify the metaheuristic probe fixtures.

Usage::

    python benchmarks/record_meta_probes.py            # rewrite the fixture
    python benchmarks/record_meta_probes.py --check    # verify, exit 1 on drift

The probe fixture (``tests/probes/meta_probes.json``) pins the **exact**
routings — every move string, plus the hex-encoded total power — that the
stochastic metaheuristics (GA, SA, TABU) produce for fixed seeds on a
small matrix of instances: a pristine mesh, a faulty-links mesh and a
hotspot-derated mesh.  Its ``warm`` section pins the routing service's
answers the same way: :func:`repro.service.route_incremental` replayed
over a fixed churn trace of each probe platform (the cold first request,
then warm re-routes seeded with the previous answer), for every polish
mode — move strings, hex power and the :class:`RepairStats` counts.
``tests/test_meta_probes.py`` asserts the current implementations
reproduce the fixture bit for bit.

The point is refactor safety: the fixture was recorded from the scalar
seed implementations *before* the batched metaheuristic engine landed, so
any rewrite of the GA/SA/TABU inner loops must preserve the RNG draw
order and the float math exactly to stay green.  Regenerate only when a
PR deliberately changes metaheuristic behaviour, and say so in the PR
description.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro import Mesh, PowerModel, RoutingProblem  # noqa: E402
from repro.heuristics import (  # noqa: E402
    GeneticRouting,
    SimulatedAnnealing,
    TabuRouting,
)
from repro.scenarios import get_scenario  # noqa: E402
from repro.scenarios.churn import ChurnSpec, churn_trace  # noqa: E402
from repro.service import POLISH_MODES, route_incremental  # noqa: E402
from repro.workloads import uniform_random_workload  # noqa: E402

FIXTURE = REPO_ROOT / "tests" / "probes" / "meta_probes.json"


def _scenario_problem(name: str, num_comms: int, seed: int) -> RoutingProblem:
    scenario = get_scenario(name)
    mesh = scenario.build_mesh()
    comms = uniform_random_workload(
        mesh, num_comms, 100.0, 2500.0, rng=np.random.default_rng(seed)
    )
    return RoutingProblem(mesh, scenario.power_model(), comms)


def probe_problems() -> dict:
    """The probe instance matrix (insertion order is fixture order)."""
    mesh44 = Mesh(4, 4)
    mesh88 = Mesh(8, 8)
    power = PowerModel.kim_horowitz()
    return {
        "pristine-4x4": RoutingProblem(
            mesh44,
            power,
            uniform_random_workload(mesh44, 6, 200.0, 1500.0, rng=99),
        ),
        "pristine-8x8": RoutingProblem(
            mesh88,
            power,
            uniform_random_workload(mesh88, 20, 100.0, 2500.0, rng=99),
        ),
        "faulty-links": _scenario_problem("faulty-links", 12, 2012),
        "hotspot-derate": _scenario_problem("hotspot-derate", 14, 2012),
    }


def probe_heuristics() -> dict:
    """Fresh probe heuristic instances (fixed seeds, small budgets)."""
    return {
        "SA": SimulatedAnnealing(iterations=400, restarts=2, seed=7),
        "SA-resample": SimulatedAnnealing(
            iterations=300, resample_prob=0.5, init="XY", seed=11
        ),
        "GA": GeneticRouting(population=12, generations=8, seed=7),
        "TABU": TabuRouting(iterations=60, neighborhood=16, seed=7),
        "TABU-xyi": TabuRouting(
            iterations=40, neighborhood=24, hot_links=2, init="XYI", seed=3
        ),
    }


#: churn-trace platforms of the ``warm`` section: the pristine paper
#: setting and the two profiled probe meshes
WARM_SCENARIOS = ("paper-baseline", "faulty-links", "hotspot-derate")


def warm_trace(scenario: str) -> list:
    """The fixed churn trace replayed on ``scenario`` (moderate load)."""
    spec = ChurnSpec(
        scenario=scenario, requests=5, seed=8, fault_prob=0.3, rate_scale=0.5
    )
    return churn_trace(spec)


def warm_snapshot(scenario: str, polish: str) -> list:
    """Service answers along ``scenario``'s trace, each seeding the next."""
    out = []
    prev = None
    for step in warm_trace(scenario):
        outcome = route_incremental(
            step.problem, prev, polish=polish, seed=step.index
        )
        routing = outcome.routing
        out.append(
            {
                "moves": [
                    routing.paths(i)[0].moves
                    for i in range(step.problem.num_comms)
                ],
                "valid": outcome.valid,
                "total_power_hex": (
                    outcome.power.hex() if outcome.valid else "inf"
                ),
                "stats": outcome.stats.as_dict(),
            }
        )
        prev = routing
    return out


def snapshot() -> dict:
    out: dict = {
        "warm": {
            scenario: {
                polish: warm_snapshot(scenario, polish)
                for polish in POLISH_MODES
            }
            for scenario in WARM_SCENARIOS
        }
    }
    for pname, problem in probe_problems().items():
        entry: dict = {}
        for hname, heuristic in probe_heuristics().items():
            result = heuristic.solve(problem)
            routing = result.routing
            entry[hname] = {
                "moves": [
                    routing.paths(i)[0].moves
                    for i in range(problem.num_comms)
                ],
                "valid": result.valid,
                "total_power_hex": (
                    result.report.total_power.hex()
                    if result.valid
                    else "inf"
                ),
            }
        out[pname] = entry
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the committed fixture instead of rewriting it",
    )
    args = parser.parse_args(argv)
    text = json.dumps(snapshot(), indent=1, sort_keys=True) + "\n"
    if args.check:
        if not FIXTURE.exists():
            print(f"DRIFT   fixture {FIXTURE} missing", file=sys.stderr)
            return 1
        if FIXTURE.read_text() != text:
            print(
                "DRIFT   metaheuristic probes drifted — if intentional, "
                "regenerate with 'python benchmarks/record_meta_probes.py' "
                "and call the behaviour change out in the PR description",
                file=sys.stderr,
            )
            return 1
        print("ok      meta_probes.json")
        return 0
    FIXTURE.parent.mkdir(parents=True, exist_ok=True)
    FIXTURE.write_text(text)
    print(f"wrote   {FIXTURE.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
