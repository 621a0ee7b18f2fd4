"""Bit-exact probe fixture for the stochastic metaheuristics.

``tests/probes/meta_probes.json`` was recorded from the scalar GA/SA/TABU
implementations *before* the batched metaheuristic engine
(:mod:`repro.mesh.batch`) replaced their inner loops.  These tests assert
the current implementations still reproduce every recorded move string
and hex-encoded power exactly — same seeds, same RNG draw order, same
float math — on pristine, faulty-links and hotspot-derated meshes.

The fixture's ``warm`` section pins the routing service's answers along a
fixed churn trace per probe platform (cold first request, then warm
re-routes), for every polish mode, including the repair statistics.

Regenerate with ``python benchmarks/record_meta_probes.py`` only when a
change deliberately alters metaheuristic or service behaviour.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from benchmarks.record_meta_probes import (
    WARM_SCENARIOS,
    probe_heuristics,
    probe_problems,
    warm_snapshot,
)
from repro.service import POLISH_MODES

FIXTURE = pathlib.Path(__file__).parent / "probes" / "meta_probes.json"


@pytest.fixture(scope="module")
def fixture() -> dict:
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def problems() -> dict:
    return probe_problems()


@pytest.mark.parametrize("pname", list(probe_problems()))
@pytest.mark.parametrize("hname", list(probe_heuristics()))
def test_probe_bit_identical(pname, hname, fixture, problems):
    problem = problems[pname]
    heuristic = probe_heuristics()[hname]
    result = heuristic.solve(problem)
    expected = fixture[pname][hname]
    got_moves = [
        result.routing.paths(i)[0].moves for i in range(problem.num_comms)
    ]
    assert got_moves == expected["moves"]
    assert result.valid == expected["valid"]
    if expected["valid"]:
        assert result.report.total_power.hex() == expected["total_power_hex"]


@pytest.mark.parametrize("scenario", WARM_SCENARIOS)
@pytest.mark.parametrize("polish", POLISH_MODES)
def test_warm_probe_bit_identical(scenario, polish, fixture):
    assert warm_snapshot(scenario, polish) == fixture["warm"][scenario][polish]
