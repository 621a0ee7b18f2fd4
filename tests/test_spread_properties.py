"""Hypothesis properties of the two virtual-spread heuristics' inner state.

* PR's node-bitmask cleaning cascade keeps exactly the links of the
  Manhattan paths that survive each removal (brute force over
  :meth:`CommDag.enumerate_moves`), spreads each band's load to the rate,
  and offers a link for removal exactly when its band holds two or more;
* IG's per-communication look-ahead table equals the band minimum of
  graded powers computed link by link;
* :meth:`CommDag.live_reachability` equals a breadth-first search over the
  alive links of the progress grid.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Mesh, PowerModel
from repro.heuristics.improved_greedy import lookahead_table
from repro.heuristics.path_remover import _CommState
from repro.mesh.moves import moves_to_links
from repro.mesh.paths import CommDag


def draw_dag(seed: int, p: int, q: int, fault_prob: float):
    """A random rectangle on a random fault mask (source != sink)."""
    rng = np.random.default_rng(seed)
    mask = rng.random(Mesh(p, q).num_links) >= fault_prob
    mesh = Mesh(p, q, mask)
    cores = [(u, v) for u in range(p) for v in range(q)]
    src, snk = [cores[i] for i in rng.choice(len(cores), 2, replace=False)]
    return rng, mesh, CommDag(mesh, src, snk)


def path_links(dag: CommDag):
    """Link sets of every Manhattan path of the DAG."""
    return [
        set(moves_to_links(dag.mesh, dag.src, dag.snk, m))
        for m in dag.enumerate_moves()
    ]


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.integers(1, 5),
    q=st.integers(2, 5),
    fault_prob=st.floats(0.0, 0.4),
)
def test_pr_cleaning_matches_brute_force(seed, p, q, fault_prob):
    rng, mesh, dag = draw_dag(seed, p, q, fault_prob)
    rate = float(rng.uniform(50, 1000))
    loads = np.zeros(mesh.num_links)
    state = _CommState(dag, rate, loads, mesh.link_mask)
    paths = path_links(dag)
    if mesh.link_mask is not None and dag.has_live_path():
        # a communication with a live path spreads over live paths only
        paths = [ls for ls in paths if all(mesh.link_mask[lid] for lid in ls)]
    links = dag.all_link_ids()

    def allowed():
        return {lid for lid in links if state.allows(lid)}

    while True:
        assert allowed() == set().union(*paths)
        for t, band in enumerate(dag.bands()):
            assert loads[band].sum() == pytest.approx(rate, rel=1e-12)
        for lid in links:
            avoidable = any(lid not in ls for ls in paths)
            if lid in allowed():
                assert (state.band_count_of(lid) >= 2) == avoidable
            else:
                assert state.band_count_of(lid) == 0
                assert loads[lid] == pytest.approx(0.0, abs=1e-9 * rate)
        if state.finished:
            break
        removable = sorted(lid for lid in allowed() if state.band_count_of(lid) >= 2)
        lid = removable[int(rng.integers(len(removable)))]
        before = allowed()
        paths = [ls for ls in paths if lid not in ls]
        removed = state.remove_and_clean(lid, loads)
        assert set(removed) == before - set().union(*paths)
        assert lid in removed

    (only,) = paths
    moves = state.extract_moves()
    assert set(moves_to_links(mesh, dag.src, dag.snk, moves)) == only
    for lid in only:
        with pytest.raises(AssertionError):
            state.remove_and_clean(lid, loads)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.integers(1, 6),
    q=st.integers(2, 6),
    fault_prob=st.floats(0.0, 0.5),
    derate=st.booleans(),
    continuous=st.booleans(),
)
def test_ig_lookahead_matches_band_minima(seed, p, q, fault_prob, derate, continuous):
    rng, mesh, dag = draw_dag(seed, p, q, fault_prob)
    if derate:
        mesh = mesh.with_link_scale(rng.uniform(0.5, 2.0, mesh.num_links))
        dag = CommDag(mesh, dag.src, dag.snk)
    power = (
        PowerModel.continuous_kim_horowitz() if continuous
        else PowerModel.kim_horowitz()
    )
    loads = rng.uniform(0, 4000, mesh.num_links) * (rng.random(mesh.num_links) < 0.7)
    rate = float(rng.uniform(50, 1000))
    alive, scale, dead = mesh.link_mask, mesh.link_scale, mesh.dead_mask
    lids = dag.link_arrays()[0]
    fl = power.link_power_graded(
        loads[lids] + rate,
        scale=None if scale is None else scale[lids],
        dead=None if dead is None else dead[lids],
    )
    table = lookahead_table(dag, fl, None if alive is None else alive[lids])
    assert table.shape == (dag.du + 1, dag.dv + 1, dag.length)
    for x0 in range(dag.du + 1):
        for y0 in range(dag.dv + 1):
            for t in range(dag.length):
                if t < x0 + y0:
                    assert table[x0, y0, t] == np.inf
                    continue
                # the band bound IG looked up link by link: reachable band
                # links, the live ones when any remain, graded as a subset
                reach = [
                    lid for lid in dag.band(t)
                    if dag.edge_tail(lid)[0] >= x0 and dag.edge_tail(lid)[1] >= y0
                ]
                if alive is not None and any(alive[lid] for lid in reach):
                    reach = [lid for lid in reach if alive[lid]]
                sub = np.asarray(reach, dtype=np.int64)
                expected = power.link_power_graded(
                    loads[sub] + rate,
                    scale=None if scale is None else scale[sub],
                    dead=None if dead is None else dead[sub],
                ).min()
                assert table[x0, y0, t] == expected


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    p=st.integers(1, 6),
    q=st.integers(2, 6),
    fault_prob=st.floats(0.0, 0.6),
)
def test_live_reachability_matches_search(seed, p, q, fault_prob):
    _, mesh, dag = draw_dag(seed, p, q, fault_prob)
    alive = mesh.link_mask
    live = dag.live_reachability()
    if alive is None:
        assert live is None
        return
    du, dv = dag.du, dag.dv

    def steps(x, y):
        if x < du and alive[dag.edge(x, y, "V")]:
            yield x + 1, y
        if y < dv and alive[dag.edge(x, y, "H")]:
            yield x, y + 1

    def search(start, forward):
        seen = {start}
        todo = [start]
        while todo:
            node = todo.pop()
            nxt = (
                steps(*node) if forward
                else (
                    (x, y) for x in range(du + 1) for y in range(dv + 1)
                    if node in steps(x, y)
                )
            )
            for other in nxt:
                if other not in seen:
                    seen.add(other)
                    todo.append(other)
        grid = np.zeros((du + 1, dv + 1), dtype=bool)
        for x, y in seen:
            grid[x, y] = True
        return grid

    fwd, bwd = live
    assert np.array_equal(fwd, search((0, 0), True))
    assert np.array_equal(bwd, search((du, dv), False))
    assert not fwd.flags.writeable and not bwd.flags.writeable
    assert dag.has_live_path() == bool(fwd[du, dv])
