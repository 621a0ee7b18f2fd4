"""Cross-cutting tests run against every registered heuristic.

Structural guarantees every heuristic must honour regardless of quality:
single Manhattan path per communication, determinism, registry behaviour,
the graded-power plumbing they share — and, on faulty / heterogeneous
scenario meshes, feasibility and the local-move polishing invariant.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Communication, Mesh, PowerModel, RoutingProblem
from repro.heuristics import (
    PAPER_HEURISTICS,
    available_heuristics,
    get_heuristic,
)
from repro.heuristics.local_moves import RoutingState
from repro.mesh.batch import graded_power_delta, path_swap_deltas
from repro.scenarios import MeshSpec, duplex
from repro.utils.validation import InvalidParameterError
from repro.workloads import uniform_random_workload
from tests.conftest import make_random_problem

ALL_NAMES = tuple(PAPER_HEURISTICS) + ("YX",)


class TestRegistry:
    def test_paper_heuristics_registered(self):
        names = available_heuristics()
        for n in ALL_NAMES:
            assert n in names

    def test_get_unknown_heuristic(self):
        with pytest.raises(InvalidParameterError):
            get_heuristic("NOPE")

    def test_instances_are_fresh(self):
        assert get_heuristic("SG") is not get_heuristic("SG")


@pytest.mark.parametrize("name", ALL_NAMES)
class TestEveryHeuristic:
    def test_produces_single_manhattan_paths(self, name, random_problem):
        res = get_heuristic(name).solve(random_problem)
        assert res.routing.is_single_path
        for comm, paths in zip(
            random_problem.comms,
            (res.routing.paths(i) for i in range(random_problem.num_comms)),
        ):
            (path,) = paths
            assert path.length == comm.length
            assert path.cores()[0] == comm.src
            assert path.cores()[-1] == comm.snk

    def test_deterministic(self, name, random_problem):
        a = get_heuristic(name).solve(random_problem)
        b = get_heuristic(name).solve(random_problem)
        assert [p.moves for i in range(random_problem.num_comms) for p in a.routing.paths(i)] == [
            p.moves for i in range(random_problem.num_comms) for p in b.routing.paths(i)
        ]
        assert a.power == b.power or (np.isinf(a.power) and np.isinf(b.power))

    def test_report_matches_routing(self, name, random_problem):
        res = get_heuristic(name).solve(random_problem)
        assert res.valid == res.routing.is_valid()
        if res.valid:
            assert res.power == pytest.approx(res.routing.total_power())

    def test_single_communication(self, name, mesh8, pm_kh):
        prob = RoutingProblem(
            mesh8, pm_kh, [Communication((6, 1), (0, 5), 900.0)]
        )
        res = get_heuristic(name).solve(prob)
        assert res.valid
        # one communication alone: any Manhattan path gives the same power
        xy = get_heuristic("XY").solve(prob)
        assert res.power == pytest.approx(xy.power)

    def test_one_hop_communication(self, name, mesh8, pm_kh):
        prob = RoutingProblem(
            mesh8, pm_kh, [Communication((3, 3), (3, 4), 500.0)]
        )
        res = get_heuristic(name).solve(prob)
        assert res.valid
        assert res.routing.paths(0)[0].moves == "H"

    def test_rejects_empty_problem(self, name, mesh8, pm_kh):
        prob = RoutingProblem(mesh8, pm_kh, [])
        with pytest.raises(InvalidParameterError):
            get_heuristic(name).solve(prob)

    def test_runtime_recorded(self, name, random_problem):
        res = get_heuristic(name).solve(random_problem)
        assert res.runtime_s >= 0.0

    def test_works_on_rectangular_mesh(self, name, pm_kh):
        prob = make_random_problem(Mesh(3, 6), pm_kh, 6, 100.0, 900.0, seed=5)
        res = get_heuristic(name).solve(prob)
        assert res.routing.is_single_path

    def test_works_with_continuous_frequencies(self, name, mesh8):
        pm = PowerModel.continuous_kim_horowitz()
        prob = make_random_problem(mesh8, pm, 8, 100.0, 900.0, seed=17)
        res = get_heuristic(name).solve(prob)
        assert res.routing.is_single_path


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(ALL_NAMES),
    n=st.integers(1, 12),
    seed=st.integers(0, 10_000),
)
def test_property_heuristics_always_return_valid_structures(name, n, seed):
    """Whatever the instance, the output is a structurally legal routing."""
    mesh = Mesh(5, 5)
    prob = make_random_problem(
        mesh, PowerModel.kim_horowitz(), n, 50.0, 3000.0, seed=seed
    )
    res = get_heuristic(name).solve(prob)
    loads = res.routing.link_loads()
    assert loads.min() >= 0
    # total hop-weighted traffic is conserved: sum of loads equals
    # sum over comms of rate * path length
    expected = sum(
        c.rate * res.routing.paths(i)[0].length
        for i, c in enumerate(prob.comms)
    )
    assert loads.sum() == pytest.approx(expected)


# ----------------------------------------------------------------------
# scenario invariants: faulty and heterogeneous meshes
# ----------------------------------------------------------------------
_SCENARIO_SPECS = {
    "faulty": MeshSpec(
        6, 6, dead_links=duplex(((1, 1), (1, 2)), ((4, 3), (5, 3)))
    ),
    "derated": MeshSpec.center_derated(6, 6, factor=1.7, radius=1),
    "faulty-derated": MeshSpec(
        6,
        6,
        dead_links=duplex(((1, 1), (1, 2)), ((4, 3), (5, 3))),
        scale_rects=((0, 4, 5, 5, 1.5),),
    ),
}

#: heuristics with fixed paths cannot route around faults by design
_FIXED_PATH = {"XY", "YX"}


def scenario_problem(kind: str, *, n: int = 10, seed: int = 11):
    """A deterministic instance on a profiled mesh.

    On faulty meshes the workload is redrawn (deterministically) until
    every communication keeps a live Manhattan path, so feasibility is
    achievable and the fault-aware heuristics can be held to it.
    """
    mesh = _SCENARIO_SPECS[kind].build()
    rng = np.random.default_rng(seed)
    power = PowerModel.kim_horowitz()
    for _ in range(100):
        comms = uniform_random_workload(mesh, n, 100.0, 700.0, rng=rng)
        problem = RoutingProblem(mesh, power, comms)
        if all(problem.dag(i).has_live_path() for i in range(n)):
            return problem
    raise AssertionError("could not draw an all-live instance")


def polish(state: RoutingState, max_passes: int = 20) -> RoutingState:
    """First-improvement corner-flip descent until a local optimum."""
    for _ in range(max_passes):
        improved = False
        for ci in state.mutable_comms():
            applied = True
            while applied:  # flip positions shift after every applied flip
                applied = False
                for j in state.flip_pos(ci):
                    dcost = state.flip_dcost(ci, j)
                    if dcost < 0:
                        state.commit_flip(ci, j, dcost)
                        applied = improved = True
                        break
        if not improved:
            break
    return state


@pytest.mark.parametrize("kind", sorted(_SCENARIO_SPECS))
@pytest.mark.parametrize("name", sorted(available_heuristics()))
class TestScenarioInvariants:
    def test_structurally_legal_manhattan_routing(self, name, kind):
        problem = scenario_problem(kind)
        res = get_heuristic(name).solve(problem)
        assert res.routing.is_single_path
        for i, comm in enumerate(problem.comms):
            (path,) = res.routing.paths(i)
            assert path.length == comm.length
            assert path.cores()[0] == comm.src
            assert path.cores()[-1] == comm.snk
        assert res.valid == res.routing.is_valid()
        if res.valid:
            assert res.power == pytest.approx(res.routing.total_power())
            # a valid routing never touches a dead link (by definition)
            if problem.mesh.dead_mask is not None:
                loads = res.routing.link_loads()
                assert not np.any(loads[problem.mesh.dead_mask] > 0)

    def test_feasible_when_live_paths_exist(self, name, kind):
        """Adaptive heuristics find valid routings on all-live instances."""
        if name in _FIXED_PATH:
            pytest.skip("fixed-path heuristics cannot avoid faults")
        problem = scenario_problem(kind)
        res = get_heuristic(name).solve(problem)
        assert res.valid, f"{name} failed on an achievable {kind} instance"

    def test_polishing_never_increases_power(self, name, kind):
        """Local-move descent from any heuristic's output only helps."""
        problem = scenario_problem(kind)
        res = get_heuristic(name).solve(problem)
        moves = [res.routing.paths(i)[0].moves for i in range(len(problem))]
        state = RoutingState(problem, moves)
        before_cost = state.cost
        before_valid = res.valid
        polish(state)
        assert state.cost <= before_cost * (1 + 1e-12) + 1e-9
        polished = state.to_routing()
        if before_valid:
            assert polished.is_valid()
            assert polished.total_power() <= res.power * (1 + 1e-9)


class TestSharedHelpers:
    def test_path_swap_deltas_cancels_common_links(self, mesh8):
        from repro.mesh.paths import Path

        old = Path.xy(mesh8, (0, 0), (2, 2))
        new = Path.yx(mesh8, (0, 0), (2, 2))
        deltas = path_swap_deltas(
            list(old.link_ids), list(new.link_ids), 10.0
        )
        assert all(v != 0 for v in deltas.values())
        assert sum(deltas.values()) == pytest.approx(0.0)

    def test_path_swap_deltas_identical_paths_empty(self, mesh8):
        from repro.mesh.paths import Path

        p = Path.xy(mesh8, (0, 0), (2, 2))
        assert path_swap_deltas(list(p.link_ids), list(p.link_ids), 5.0) == {}

    def test_graded_power_delta_matches_direct(self, pm_kh):
        loads = np.array([100.0, 2000.0, 0.0, 3400.0])
        deltas = {0: 500.0, 2: 300.0, 3: -400.0}
        direct_before = pm_kh.total_power_graded(loads)
        after = loads.copy()
        for lid, d in deltas.items():
            after[lid] += d
        direct_after = pm_kh.total_power_graded(after)
        assert graded_power_delta(pm_kh, loads, deltas) == pytest.approx(
            direct_after - direct_before
        )

    def test_graded_power_delta_empty(self, pm_kh):
        assert graded_power_delta(pm_kh, np.zeros(4), {}) == 0.0
