"""Behavioural tests for the XY/YX baselines, SG (simple greedy) and the
greedy hop walk that SG, IG and the warm re-insertion share."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Communication, Mesh, RoutingProblem
from repro.heuristics import SimpleGreedy, XYRouting, YXRouting
from repro.heuristics.greedy import diagonal_offset, greedy_walk
from repro.mesh.moves import moves_to_cores, moves_to_links
from repro.mesh.paths import CommDag


class TestXYBaselines:
    def test_xy_shape(self, mesh8, pm_kh):
        prob = RoutingProblem(
            mesh8, pm_kh, [Communication((1, 1), (4, 5), 100.0)]
        )
        res = XYRouting().solve(prob)
        assert res.routing.paths(0)[0].moves == "HHHHVVV"

    def test_yx_shape(self, mesh8, pm_kh):
        prob = RoutingProblem(
            mesh8, pm_kh, [Communication((1, 1), (4, 5), 100.0)]
        )
        res = YXRouting().solve(prob)
        assert res.routing.paths(0)[0].moves == "VVVHHHH"

    def test_xy_fails_where_separation_succeeds(self, mesh2, pm_fig2, fig2_problem):
        """Figure 2's premise: same-pair comms overload XY's single route."""
        res = XYRouting().solve(fig2_problem)
        assert res.valid  # 4 <= BW = 4: exactly at capacity
        assert res.power == pytest.approx(128.0)


class TestDiagonalOffset:
    def test_on_diagonal_is_zero(self):
        assert diagonal_offset((0, 0), (3, 3), (2, 2)) == 0
        assert diagonal_offset((0, 0), (3, 3), (0, 0)) == 0

    def test_off_diagonal_positive_and_symmetric(self):
        d1 = diagonal_offset((0, 0), (3, 3), (1, 2))
        d2 = diagonal_offset((0, 0), (3, 3), (2, 1))
        assert d1 == d2 > 0


class TestSimpleGreedy:
    def test_separates_two_equal_pair_comms(self, mesh2, pm_fig2):
        """With two same-pair comms, the second must avoid the first's
        links (least-loaded rule) — exactly the Figure 2(b) structure."""
        prob = RoutingProblem(
            mesh2,
            pm_fig2,
            [
                Communication((0, 0), (1, 1), 1.0),
                Communication((0, 0), (1, 1), 1.0),
            ],
        )
        res = SimpleGreedy().solve(prob)
        m0 = res.routing.paths(0)[0].moves
        m1 = res.routing.paths(1)[0].moves
        assert {m0, m1} == {"HV", "VH"}

    def test_heaviest_processed_first(self, mesh8, pm_kh):
        """The heaviest communication is routed on empty links, so it gets
        a straight two-bend-free XY-or-YX shape regardless of input order."""
        comms = [
            Communication((0, 0), (2, 2), 100.0),
            Communication((0, 0), (2, 2), 3000.0),
        ]
        prob = RoutingProblem(mesh8, pm_kh, comms)
        res = SimpleGreedy().solve(prob)
        heavy = res.routing.paths(1)[0].moves
        # first-processed path follows the tie-break (diagonal hugging)
        assert heavy in ("HVHV", "VHVH", "HVVH", "VHHV")

    def test_tie_break_hugs_diagonal(self, mesh8, pm_kh):
        """On an empty chip all loads tie, so SG must hug the diagonal:
        it alternates H and V instead of going straight then turning."""
        prob = RoutingProblem(
            mesh8, pm_kh, [Communication((0, 0), (3, 3), 500.0)]
        )
        res = SimpleGreedy().solve(prob)
        moves = res.routing.paths(0)[0].moves
        assert moves in ("HVHVHV", "VHVHVH", "HVHVVH")  # diagonal-hugging
        # definitely not the L-shaped extremes
        assert moves not in ("HHHVVV", "VVVHHH")

    def test_ordering_variant_changes_result(self, mesh8, pm_kh):
        comms = [
            Communication((0, 0), (3, 3), 1000.0),
            Communication((0, 0), (3, 3), 2000.0),
            Communication((0, 3), (3, 0), 1500.0),
        ]
        prob = RoutingProblem(mesh8, pm_kh, comms)
        by_weight = SimpleGreedy(ordering="weight").solve(prob)
        by_input = SimpleGreedy(ordering="input").solve(prob)
        # both must be structurally fine; they may (and here do) differ
        assert by_weight.routing.is_single_path
        assert by_input.routing.is_single_path

    def test_improves_on_xy_under_contention(self, mesh8, pm_kh):
        comms = [
            Communication((0, 0), (4, 4), 1500.0),
            Communication((0, 0), (4, 4), 1500.0),
            Communication((0, 0), (4, 4), 1500.0),
        ]
        prob = RoutingProblem(mesh8, pm_kh, comms)
        xy = XYRouting().solve(prob)
        sg = SimpleGreedy().solve(prob)
        assert not xy.valid  # 4500 on one link
        assert sg.valid  # SG spreads the three


def _flat(lid, x, y):
    return 0.0


class TestGreedyWalk:
    def test_score_called_only_at_two_way_hops(self, mesh8):
        src, snk = (1, 6), (4, 2)
        dag = CommDag(mesh8, src, snk)
        calls = []

        def score(lid, x, y):
            calls.append((lid, x, y))
            return float(lid % 7)

        moves, _ = greedy_walk(mesh8, src, snk, score)
        # the progress nodes the walk left, in order
        nodes = [(0, 0)]
        for m in moves[:-1]:
            x, y = nodes[-1]
            nodes.append((x + 1, y) if m == "V" else (x, y + 1))
        two_way = [(x, y) for x, y in nodes if x < dag.du and y < dag.dv]
        # one vertical then one horizontal call per two-way node, each
        # with the hop's link and its head's progress coordinates
        expected = []
        for x, y in two_way:
            expected.append((dag.edge(x, y, "V"), x + 1, y))
            expected.append((dag.edge(x, y, "H"), x, y + 1))
        assert calls == expected

    def test_smaller_score_wins(self, mesh8):
        # a vertical head keeps y == 0, so it out-scores the diagonal
        # tie-break all the way down
        moves, _ = greedy_walk(
            mesh8, (0, 0), (3, 3), lambda lid, x, y: 0.0 if y == 0 else 1.0
        )
        assert moves == "VVVHHH"

    def test_equal_score_goes_nearer_the_diagonal(self, mesh8):
        # (0,0)->(1,3): the horizontal head (0,1) lies nearer the diagonal
        # than the vertical head (1,0), then the tie at (0,1) is residual
        moves, _ = greedy_walk(mesh8, (0, 0), (1, 3), _flat)
        assert moves == "HHVH"
        assert diagonal_offset((0, 0), (1, 3), (0, 1)) < diagonal_offset(
            (0, 0), (1, 3), (1, 0)
        )

    @pytest.mark.parametrize(
        "src, snk", [((0, 0), (3, 3)), ((3, 3), (0, 0)), ((0, 5), (3, 2))]
    )
    def test_residual_tie_goes_horizontal(self, mesh8, src, snk):
        # on the diagonal both heads are equally far off it: horizontal
        # first, then back onto the diagonal, in every direction
        moves, _ = greedy_walk(mesh8, src, snk, _flat)
        assert moves == "HVHVHV"

    def test_bwd_forces_away_from_dead_hop(self):
        mesh = Mesh(3, 3).with_faults([((0, 0), (1, 0))])
        src, snk = (0, 0), (2, 2)
        bwd = CommDag(mesh, src, snk).live_reachability()[1]
        calls = []

        def score(lid, x, y):
            calls.append((x, y))
            return -1.0 if x > 0 else 1.0  # every vertical hop looks best

        moves, lids = greedy_walk(mesh, src, snk, score, bwd)
        assert moves[0] == "H"
        assert (1, 0) not in calls  # the forced first hop is not scored
        assert all(mesh.link_mask[lids])
        # without the guard the walk takes the dead link
        moves, lids = greedy_walk(mesh, src, snk, score)
        assert moves[0] == "V" and not mesh.link_mask[lids[0]]

    def test_bwd_forces_away_from_sink_unreachable_head(self):
        # the head (1,0) is alive but its only way on, east to (1,1), is
        # dead, so from (0,0) only the horizontal hop is viable
        mesh = Mesh(3, 3).with_faults([((1, 0), (1, 1))])
        src, snk = (0, 0), (1, 2)
        dag = CommDag(mesh, src, snk)
        bwd = dag.live_reachability()[1]
        assert mesh.link_mask[dag.edge(0, 0, "V")] and not bwd[1, 0]
        moves, lids = greedy_walk(
            mesh, src, snk, lambda lid, x, y: -float(x), bwd
        )
        assert moves[0] == "H"
        assert all(mesh.link_mask[lids])

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        p=st.integers(2, 7),
        q=st.integers(2, 7),
        fault_prob=st.floats(0.0, 0.4),
    )
    def test_lids_match_moves_and_end_at_sink(self, seed, p, q, fault_prob):
        rng = np.random.default_rng(seed)
        mesh = Mesh(p, q)
        dead = np.flatnonzero(rng.random(mesh.num_links) < fault_prob)
        if dead.size:
            mesh = mesh.with_faults(dead.tolist())
        src = (int(rng.integers(p)), int(rng.integers(q)))
        snk = (int(rng.integers(p)), int(rng.integers(q)))
        if src == snk:
            return
        dag = CommDag(mesh, src, snk)
        bwd = None
        if mesh.link_mask is not None and dag.has_live_path():
            bwd = dag.live_reachability()[1]
        noise = rng.random(mesh.num_links)
        moves, lids = greedy_walk(
            mesh, src, snk, lambda lid, x, y: float(noise[lid]), bwd
        )
        assert len(moves) == dag.length
        assert moves_to_cores(src, snk, moves)[-1] == snk
        assert lids == moves_to_links(mesh, src, snk, moves)
        if bwd is not None:
            assert all(mesh.link_mask[lids])
