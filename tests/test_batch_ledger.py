"""Property tests for the batched metaheuristic engine.

The engine's bit-compatibility contract decomposes into tier
equivalences, each fuzzed here:

* population-batched GA generation grading == per-individual scalar
  grading (loads and graded powers; pristine and faulty/derated meshes);
* the ledger's scalar flip fast path (``flip_dcost``) ==
  :func:`repro.mesh.batch.graded_power_delta` on the flip geometry
  of the scalar oracle :func:`repro.mesh.moves.moves_to_links`;
* the one-pass candidate-neighbourhood grading == per-candidate grading,
  for discrete *and* continuous power models;
* :func:`repro.mesh.batch._pairwise_sum` == ``np.sum`` through NumPy's
  single-block pairwise regime;
* the ledger's maintained indexes (corner positions, prefix counts, move
  strings, link→comms sets, per-link power cache) stay consistent under
  random flip/resample walks.

End-to-end, ``tests/test_meta_probes.py`` pins GA/SA/TABU routings
against fixtures recorded from the pre-engine scalar implementations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Communication, Mesh, PowerModel, RoutingProblem
from repro.heuristics.local_moves import RoutingState
from repro.mesh.batch import (
    _pairwise_sum,
    flip_corners,
    graded_power_delta,
    path_swap_deltas,
)
from repro.mesh.moves import moves_to_links
from repro.scenarios.spec import MeshSpec, duplex


def _mesh_variants(p: int, q: int):
    """Pristine, faulty and derated builds of a p x q mesh."""
    pristine = Mesh(p, q)
    faulty = MeshSpec(
        p, q, dead_links=duplex(((0, 1), (1, 1)), ((p - 1, q - 2), (p - 1, q - 1)))
    ).build()
    derated = MeshSpec.center_derated(p, q, factor=1.7, radius=1).build()
    return {"pristine": pristine, "faulty": faulty, "derated": derated}


def _random_problem(mesh: Mesh, power: PowerModel, n: int, seed: int):
    rng = np.random.default_rng(seed)
    p, q = mesh.p, mesh.q
    comms = []
    while len(comms) < n:
        src = (int(rng.integers(p)), int(rng.integers(q)))
        snk = (int(rng.integers(p)), int(rng.integers(q)))
        if src == snk:
            continue
        comms.append(Communication(src, snk, float(rng.uniform(50.0, 2800.0))))
    return RoutingProblem(mesh, power, comms)


def _flip_deltas(
    problem: RoutingProblem, state: RoutingState, ci: int, j: int
):
    """Reference load deltas of corner flip ``(ci, j)``.

    The old and new link pairs come from the scalar oracle applied to the
    current and the flipped move strings, in the ledger's grading order
    (old pair, then new pair).
    """
    comm = problem.comms[ci]
    mv = state.move_str(ci)
    flipped = mv[:j] + mv[j + 1] + mv[j] + mv[j + 2 :]
    mesh = problem.mesh
    o1, o2 = moves_to_links(mesh, comm.src, comm.snk, mv)[j : j + 2]
    n1, n2 = moves_to_links(mesh, comm.src, comm.snk, flipped)[j : j + 2]
    r = comm.rate
    return {o1: -r, o2: -r, n1: r, n2: r}


def _random_genome(problem: RoutingProblem, rng: np.random.Generator):
    return tuple(
        problem.dag(i).random_moves(rng) for i in range(problem.num_comms)
    )


class TestPopulationGrading:
    @pytest.mark.parametrize("variant", ["pristine", "faulty", "derated"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_batched_equals_per_individual(self, variant, seed):
        mesh = _mesh_variants(5, 5)[variant]
        power = PowerModel.kim_horowitz()
        problem = _random_problem(mesh, power, 8, seed)
        rng = np.random.default_rng(seed + 1)
        pop = [_random_genome(problem, rng) for _ in range(6)]
        kernel = problem.kernel()

        vmask = kernel.population_vmask(pop)
        batch_loads = kernel.loads(vmask)
        batch_powers = kernel.graded_powers(power, vmask)
        for k, genome in enumerate(pop):
            row = kernel.routing_vmask(list(genome))
            assert np.array_equal(kernel.loads(row), batch_loads[k])
            assert kernel.graded_powers(power, row) == batch_powers[k]
            # the ledger's from-scratch build agrees bit for bit
            state = RoutingState(problem, list(genome))
            assert np.array_equal(state.loads, batch_loads[k])
            assert state.cost == batch_powers[k]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_continuous_model_population(self, seed):
        problem = _random_problem(
            Mesh(4, 4), PowerModel.continuous_kim_horowitz(), 6, seed
        )
        rng = np.random.default_rng(seed)
        pop = [_random_genome(problem, rng) for _ in range(4)]
        kernel = problem.kernel()
        batch = kernel.graded_powers(problem.power, kernel.population_vmask(pop))
        for k, genome in enumerate(pop):
            row = kernel.routing_vmask(list(genome))
            assert kernel.graded_powers(problem.power, row) == batch[k]


class TestDeltaTiers:
    @pytest.mark.parametrize("variant", ["pristine", "faulty", "derated"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_flip_tiers_match_reference(self, variant, seed):
        """Scalar flip_dcost == batched row == graded_power_delta."""
        mesh = _mesh_variants(5, 5)[variant]
        power = PowerModel.kim_horowitz()
        problem = _random_problem(mesh, power, 8, seed)
        rng = np.random.default_rng(seed + 2)
        state = RoutingState(problem, list(_random_genome(problem, rng)))
        cands = [
            (ci, j)
            for ci in range(problem.num_comms)
            for j in flip_corners(state.moves[ci])
        ]
        if not cands:
            return
        batch = state.flip_dcost_batch(cands)
        for k, (ci, j) in enumerate(cands):
            ref = graded_power_delta(
                power,
                state.loads,
                _flip_deltas(problem, state, ci, j),
                scale=mesh.link_scale,
                dead=mesh.dead_mask,
            )
            assert state.flip_dcost(ci, j) == ref
            assert batch[k] == ref

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_continuous_batch_matches_reference(self, seed):
        problem = _random_problem(
            Mesh(5, 5), PowerModel.continuous_kim_horowitz(), 8, seed
        )
        rng = np.random.default_rng(seed + 3)
        state = RoutingState(problem, list(_random_genome(problem, rng)))
        cands = [
            (ci, j)
            for ci in range(problem.num_comms)
            for j in flip_corners(state.moves[ci])
        ]
        if not cands:
            return
        batch = state.flip_dcost_batch(cands)
        for k, (ci, j) in enumerate(cands):
            ref = graded_power_delta(
                problem.power, state.loads, _flip_deltas(problem, state, ci, j)
            )
            assert state.flip_dcost(ci, j) == ref
            assert batch[k] == ref

    @pytest.mark.parametrize("variant", ["pristine", "faulty", "derated"])
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_resample_eval_matches_reference(self, variant, seed):
        mesh = _mesh_variants(5, 5)[variant]
        power = PowerModel.kim_horowitz()
        problem = _random_problem(mesh, power, 8, seed)
        rng = np.random.default_rng(seed + 4)
        state = RoutingState(problem, list(_random_genome(problem, rng)))
        for ci in range(problem.num_comms):
            new_mv = problem.dag(ci).random_moves(rng)
            new_links, deltas, dcost = state.resample_eval(ci, new_mv)
            assert new_links == moves_to_links(
                mesh, problem.comms[ci].src, problem.comms[ci].snk, new_mv
            )
            assert deltas == path_swap_deltas(
                state.links[ci], new_links, problem.comms[ci].rate
            )
            assert dcost == graded_power_delta(
                power,
                state.loads,
                deltas,
                scale=mesh.link_scale,
                dead=mesh.dead_mask,
            )


class TestPairwiseSum:
    @settings(max_examples=120, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(0, 128),
    )
    def test_matches_numpy(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.uniform(0.0, 1e9, n)
        a[rng.random(n) < 0.25] = 0.0
        assert _pairwise_sum(a.tolist()) == float(np.sum(a))


class TestLedgerWalkConsistency:
    @pytest.mark.parametrize("variant", ["pristine", "faulty", "derated"])
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_indexes_after_random_walk(self, variant, seed):
        mesh = _mesh_variants(5, 5)[variant]
        power = PowerModel.kim_horowitz()
        problem = _random_problem(mesh, power, 8, seed)
        rng = np.random.default_rng(seed + 5)
        state = RoutingState(problem, list(_random_genome(problem, rng)))
        movable = state.mutable_comms()
        if not movable:
            return
        for _ in range(60):
            ci = movable[int(rng.integers(len(movable)))]
            if rng.random() < 0.3:
                new_mv = problem.dag(ci).random_moves(rng)
                if new_mv == state.move_str(ci):
                    continue
                nl, dl, dc = state.resample_eval(ci, new_mv)
                state.commit_resample(ci, new_mv, nl, dl, dc)
            else:
                pos = state.flip_pos(ci)
                if not pos:
                    continue
                j = pos[int(rng.integers(len(pos)))]
                dc = state.flip_dcost(ci, j)
                state.commit_flip(ci, j, dc)
        # rebuild from the snapshot and compare every maintained structure
        fresh = RoutingState(problem, state.snapshot())
        assert fresh.moves == state.moves
        assert fresh.links == state.links
        assert [fresh.move_str(i) for i in range(problem.num_comms)] == [
            state.move_str(i) for i in range(problem.num_comms)
        ]
        for i in range(problem.num_comms):
            assert state.flip_pos(i) == flip_corners(state.moves[i])
            assert fresh._cumv[i] == state._cumv[i]
        assert fresh._link_comms == state._link_comms
        # incremental float accumulation vs from-scratch rebuild: equal up
        # to additive dust (the cost-drift bound below is the real check)
        np.testing.assert_allclose(
            state.loads, fresh.loads, rtol=1e-9, atol=1e-6
        )
        assert state.loads.tolist() == state._loads_l
        if state._plist is not None:
            for lid, load in enumerate(state._loads_l):
                assert state._plist[lid] == state._link_power_scalar(
                    load, lid
                )
        drift = abs(state.cost - state.recompute_cost())
        assert drift <= 1e-6 * max(1.0, abs(state.cost))
