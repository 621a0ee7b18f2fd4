"""IG — the improved greedy heuristic (Section 5.2).

Every communication is first *virtually pre-routed* as if it could be
spread evenly over all the links between consecutive diagonals of its
rectangle (the ideal distribution of Figure 3).  Communications are then
processed by decreasing weight: the communication's own pre-routing is
removed from the link loads, and a unique route is grown from the source;
at each step the candidate next link is scored by a lower bound on the
power to reach the sink through it — the power of the candidate link plus,
for every remaining band between the candidate's head and the sink, the
power of the least-loaded reachable band link if the communication were
added to it.  The candidate with the smaller bound wins; ties fall back to
SG's closest-to-the-diagonal rule.  The walk itself is SG's
(:func:`repro.heuristics.greedy.greedy_walk`) with the bound as its score.

A walk loads its links only once it reaches the sink, and a look-ahead
reads only bands ahead of the walk, so every band it reads keeps the loads
it had when the walk began.  Each communication therefore
grades all its DAG links once and tabulates the band minima for every
progress node in one suffix-minimum pass (:func:`lookahead_table`); a bound
is the candidate's graded power plus its head's table row, summed left to
right.  The same table serves pristine, faulty and derated meshes: graded
power is monotone in load, so the least graded power of a band is the
graded power of its least load.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.problem import RoutingProblem
from repro.heuristics.base import Heuristic, register_heuristic
from repro.heuristics.greedy import greedy_walk
from repro.heuristics.ordering import DEFAULT_ORDERING
from repro.mesh.paths import CommDag, Path


def lookahead_table(
    dag: CommDag, fl: np.ndarray, live: np.ndarray | None
) -> np.ndarray:
    """Band minima of one communication's graded link powers, per node.

    ``fl`` grades every DAG edge in :meth:`CommDag.link_arrays` order.
    Entry ``[x, y, t]`` is the least ``fl`` among the band-``t`` edges
    whose tail has progressed at least ``(x, y)`` in both coordinates
    (``inf`` where there is none, in particular for ``t < x + y``): a 2-D
    suffix minimum over the ``(Δu+1) × (Δv+1)`` progress grid.  With
    ``live`` (per-edge alive flags, same order) an entry takes the least
    live edge when there is one and falls back to every edge otherwise.
    """
    _, xs, ys = dag.link_arrays()
    shape = (dag.du + 1, dag.dv + 1, dag.length)

    def suffix_min(vals: np.ndarray) -> np.ndarray:
        grid = np.full(shape, np.inf)
        np.minimum.at(grid, (xs, ys, xs + ys), vals)
        grid = np.minimum.accumulate(grid[::-1], axis=0)[::-1]
        return np.minimum.accumulate(grid[:, ::-1], axis=1)[:, ::-1]

    table = suffix_min(fl)
    if live is not None:
        live_table = suffix_min(np.where(live, fl, np.inf))
        table = np.where(live_table < np.inf, live_table, table)
    return table


@register_heuristic("IG")
class ImprovedGreedy(Heuristic):
    """Pre-routed greedy with band-minimum lower-bound look-ahead."""

    def __init__(self, ordering: str = DEFAULT_ORDERING):
        self.ordering = ordering

    def _route(self, problem: RoutingProblem) -> List[Path]:
        mesh = problem.mesh
        power = problem.power
        n = problem.num_comms
        alive = mesh.link_mask  # None on pristine meshes
        scale = mesh.link_scale
        dead = mesh.dead_mask
        loads = np.zeros(mesh.num_links, dtype=np.float64)

        # virtual pre-routing: δ_i / |band| on every band link (Figure 3);
        # on faulty meshes the spread covers the *live* band links only
        # (every band of a connected communication keeps at least one),
        # falling back to the full bands for blocked communications
        pre_bands: List[List[np.ndarray]] = []
        pre_shares: List[List[float]] = []
        for i in range(n):
            dag = problem.dag(i)
            bands = [np.asarray(b, dtype=np.int64) for b in dag.bands()]
            if alive is not None and dag.has_live_path():
                bands = [b[alive[b]] for b in bands]
            share = [problem.comms[i].rate / len(b) for b in bands]
            for b, s in zip(bands, share):
                loads[b] += s
            pre_bands.append(bands)
            pre_shares.append(share)

        paths: List[Path | None] = [None] * n
        for i in problem.order_by(self.ordering):
            comm = problem.comms[i]
            dag = problem.dag(i)
            # remove this communication's own pre-routing (clamping the
            # numerical dust that uniform shares can leave behind)
            for b, s in zip(pre_bands[i], pre_shares[i]):
                loads[b] = np.maximum(loads[b] - s, 0.0)
            rate = comm.rate
            bwd = None
            if alive is not None and dag.has_live_path():
                bwd = dag.live_reachability()[1]
            # graded DAG links and their band-minimum table, built on the
            # first two-way choice; the loads they read stay fixed until
            # the walk is done
            table = graded = None

            def bound(lid: int, x: int, y: int) -> float:
                nonlocal table, graded
                if table is None:
                    lids = dag.link_arrays()[0]
                    # grade through the profile keywords so the bound
                    # matches the objective (scale applies to the base
                    # power only, never the overload penalty; a dead
                    # link draws the zero-bandwidth penalty)
                    fl = power.link_power_graded(
                        loads[lids] + rate,
                        scale=None if scale is None else scale[lids],
                        dead=None if dead is None else dead[lids],
                    )
                    graded = dict(zip(lids.tolist(), fl.tolist()))
                    table = lookahead_table(
                        dag, fl, None if alive is None else alive[lids]
                    )
                # left to right in Python floats: np.sum adds pairwise
                # and would round differently
                b = graded[lid]
                for m in table[x, y, x + y :].tolist():
                    b += m
                return b

            moves, lids = greedy_walk(mesh, comm.src, comm.snk, bound, bwd)
            lids = np.asarray(lids, dtype=np.int64)
            loads[lids] += rate
            paths[i] = Path.from_validated(
                mesh, comm.src, comm.snk, moves, lids
            )
        return paths  # type: ignore[return-value]
