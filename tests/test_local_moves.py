"""Tests for the local-move machinery shared by SA and TABU.

Flips go through the ledger's production entry points (``flip_pos`` →
``flip_dcost`` → ``commit_flip``) and resamples through ``resample_eval``
→ ``commit_resample``, the calls the metaheuristics and the warm-start
polish make.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Communication, Mesh, PowerModel, RoutingProblem
from repro.heuristics.local_moves import RoutingState, initial_moves
from repro.mesh.batch import flip_corners
from repro.mesh.moves import moves_to_links
from repro.mesh.paths import Path
from repro.utils.validation import InvalidParameterError
from tests.conftest import make_random_problem


def xy_state(problem: RoutingProblem) -> RoutingState:
    return RoutingState(
        problem,
        [Path.xy(problem.mesh, c.src, c.snk).moves for c in problem.comms],
    )


def flip(state: RoutingState, ci: int, j: int) -> None:
    """Grade and commit corner flip ``(ci, j)`` as the searchers do."""
    state.commit_flip(ci, j, state.flip_dcost(ci, j))


def resample(state: RoutingState, ci: int, new_moves: str) -> None:
    """Grade and commit a path resample as the searchers do."""
    new_links, deltas, dcost = state.resample_eval(ci, new_moves)
    state.commit_resample(ci, new_moves, new_links, deltas, dcost)


class TestFlipPositions:
    def test_alternating(self):
        assert flip_corners("HVHV") == [0, 1, 2]

    def test_blocked(self):
        assert flip_corners("HHVV") == [1]

    def test_uniform_string_has_none(self):
        assert flip_corners("HHHH") == []

    def test_empty_and_single(self):
        assert flip_corners("") == []
        assert flip_corners("H") == []


class TestRoutingStateConstruction:
    def test_loads_match_routing(self, random_problem):
        state = xy_state(random_problem)
        from repro.core.routing import Routing

        expected = Routing.xy(random_problem).link_loads()
        np.testing.assert_allclose(state.loads, expected)

    def test_cost_is_graded_total(self, random_problem):
        state = xy_state(random_problem)
        assert state.cost == pytest.approx(
            random_problem.power.total_power_graded(state.loads)
        )

    def test_wrong_moves_count_rejected(self, random_problem):
        with pytest.raises(InvalidParameterError):
            RoutingState(random_problem, ["H"])


class TestFlips:
    def test_flip_links_are_the_paths_links(self, mesh44, pm_kh):
        problem = RoutingProblem(
            mesh44, pm_kh, [Communication((0, 0), (2, 2), 500.0)]
        )
        state = RoutingState(problem, ["HVHV"])
        o1, o2 = state.links[0][:2]
        flip(state, 0, 0)
        assert state.move_str(0) == "VHHV"
        assert state.links[0] == moves_to_links(mesh44, (0, 0), (2, 2), "VHHV")
        assert {o1, o2}.isdisjoint(state.links[0][:2])
        assert state.loads[o1] == 0.0 and state.loads[o2] == 0.0

    def test_flip_on_equal_moves_rejected(self, mesh44, pm_kh):
        problem = RoutingProblem(
            mesh44, pm_kh, [Communication((0, 0), (2, 2), 500.0)]
        )
        state = RoutingState(problem, ["HHVV"])
        assert state.flip_pos(0) == [1]  # equal moves are no corner
        flip(state, 0, 1)
        assert state.flip_pos(0) == [0, 1, 2]  # HHVV -> HVHV

    def test_flip_out_of_range_rejected(self, mesh44, pm_kh):
        problem = RoutingProblem(
            mesh44, pm_kh, [Communication((0, 0), (2, 2), 500.0)]
        )
        state = RoutingState(problem, ["HVHV"])
        assert state.flip_pos(0) == [0, 1, 2]  # last move has no successor

    def test_commit_flip_keeps_path_valid(self, mesh44, pm_kh):
        problem = RoutingProblem(
            mesh44, pm_kh, [Communication((0, 3), (3, 0), 700.0)]
        )
        state = RoutingState(problem, ["HVHVHV"[:6]])
        flip(state, 0, 0)
        # materialisation re-validates the Manhattan property
        path = state.paths()[0]
        assert path.src == (0, 3) and path.snk == (3, 0)

    def test_flip_then_flip_back_restores(self, mesh44, pm_kh):
        problem = RoutingProblem(
            mesh44, pm_kh, [Communication((0, 0), (3, 3), 900.0)]
        )
        state = RoutingState(problem, ["HVHVHV"])
        before_moves = state.snapshot()
        before_loads = state.loads.copy()
        flip(state, 0, 2)
        flip(state, 0, 2)
        assert state.snapshot() == before_moves
        np.testing.assert_allclose(state.loads, before_loads, atol=1e-9)

    def test_delta_cost_matches_recompute(self, random_problem):
        state = xy_state(random_problem)
        rng = np.random.default_rng(5)
        movable = state.mutable_comms()
        for _ in range(40):
            ci = movable[int(rng.integers(len(movable)))]
            pos = state.flip_pos(ci)
            if not pos:
                continue
            flip(state, ci, pos[int(rng.integers(len(pos)))])
        drift = abs(state.cost - state.recompute_cost())
        assert drift <= 1e-6 * max(1.0, abs(state.cost))


class TestResample:
    def test_resample_roundtrip(self, random_problem):
        state = xy_state(random_problem)
        rng = np.random.default_rng(11)
        ci = state.mutable_comms()[0]
        original = "".join(state.moves[ci])
        new_mv = random_problem.dag(ci).random_moves(rng)
        resample(state, ci, new_mv)
        assert "".join(state.moves[ci]) == new_mv
        assert state.flip_pos(ci) == flip_corners(new_mv)
        resample(state, ci, original)
        assert state.cost == pytest.approx(state.recompute_cost())

    def test_to_routing_is_consistent(self, random_problem):
        state = xy_state(random_problem)
        routing = state.to_routing()
        np.testing.assert_allclose(routing.link_loads(), state.loads)


class TestHelpers:
    def test_mutable_comms_excludes_straight_lines(self, mesh44, pm_kh):
        problem = RoutingProblem(
            mesh44,
            pm_kh,
            [
                Communication((0, 0), (0, 3), 100.0),  # straight: not mutable
                Communication((0, 0), (2, 2), 100.0),  # bent: mutable
            ],
        )
        state = xy_state(problem)
        assert state.mutable_comms() == [1]

    def test_most_loaded_links_ordering(self, random_problem):
        state = xy_state(random_problem)
        top = state.most_loaded_links(5)
        loads = [state.loads[l] for l in top]
        assert loads == sorted(loads, reverse=True)
        assert state.loads.max() == pytest.approx(loads[0])

    def test_most_loaded_links_k_validation(self, random_problem):
        state = xy_state(random_problem)
        with pytest.raises(InvalidParameterError):
            state.most_loaded_links(0)

    def test_comms_using(self, fig2_problem):
        state = xy_state(fig2_problem)
        lid = state.links[0][0]
        assert state.comms_using(lid) == [0, 1]  # same src/snk: shared XY path

    def test_initial_moves_matches_heuristic(self, random_problem):
        moves = initial_moves(random_problem, "XY")
        for mv, comm in zip(moves, random_problem.comms):
            assert mv == Path.xy(random_problem.mesh, comm.src, comm.snk).moves

    def test_restore(self, random_problem):
        state = xy_state(random_problem)
        snap = state.snapshot()
        cost0 = state.cost
        rng = np.random.default_rng(3)
        ci = state.mutable_comms()[0]
        new_mv = random_problem.dag(ci).random_moves(rng)
        if new_mv != snap[ci]:
            resample(state, ci, new_mv)
        state.restore(snap)
        assert state.snapshot() == snap
        assert state.cost == pytest.approx(cost0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_flips=st.integers(1, 25),
)
def test_property_random_flip_walk_stays_consistent(seed, n_flips):
    """Any corner-flip walk keeps loads and cost consistent with paths."""
    problem = make_random_problem(
        Mesh(5, 6), PowerModel.kim_horowitz(), 8, 100.0, 1500.0, seed=seed
    )
    state = RoutingState(
        problem,
        [Path.xy(problem.mesh, c.src, c.snk).moves for c in problem.comms],
    )
    rng = np.random.default_rng(seed)
    movable = state.mutable_comms()
    if not movable:
        return
    for _ in range(n_flips):
        ci = movable[int(rng.integers(len(movable)))]
        pos = state.flip_pos(ci)
        if not pos:
            continue
        flip(state, ci, pos[int(rng.integers(len(pos)))])
    # 1) every path is still a Manhattan path of its communication
    routing = state.to_routing()  # construction re-validates
    # 2) loads equal the routing's loads
    np.testing.assert_allclose(routing.link_loads(), state.loads, atol=1e-9)
    # 3) incremental cost equals the from-scratch cost (float accumulation
    # across a few dozen deltas drifts at ~1e-8 relative)
    assert state.cost == pytest.approx(
        problem.power.total_power_graded(state.loads), rel=1e-6
    )
