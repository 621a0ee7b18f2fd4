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
SG's closest-to-the-diagonal rule.

A walk only loads the band it is leaving, so every band a look-ahead reads
keeps the loads it had when the walk began.  Each communication therefore
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
from repro.heuristics.greedy import diagonal_offset
from repro.heuristics.ordering import DEFAULT_ORDERING
from repro.mesh.moves import MOVE_H, MOVE_V
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
            du, dv = dag.du, dag.dv
            bwd = None
            if alive is not None and dag.has_live_path():
                bwd = dag.live_reachability()[1]
            # the walk only loads the band it is leaving, so every band
            # a look-ahead reads keeps the loads it has now: grade each
            # DAG link once and tabulate the band minima per node (built
            # on the first two-way choice)
            table = None
            x = y = 0
            moves: List[str] = []
            while (x, y) != (du, dv):
                cands = []  # (move, lid, x', y')
                if x < du:
                    cands.append((MOVE_V, dag.edge(x, y, MOVE_V), x + 1, y))
                if y < dv:
                    cands.append((MOVE_H, dag.edge(x, y, MOVE_H), x, y + 1))
                if bwd is not None and len(cands) > 1:
                    viable = [
                        c for c in cands if alive[c[1]] and bwd[c[2], c[3]]
                    ]
                    if viable:
                        cands = viable
                if len(cands) == 1:
                    move, lid, x2, y2 = cands[0]
                else:
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
                    scored = []
                    for move, lid, x2, y2 in cands:
                        # left to right in Python floats: np.sum adds
                        # pairwise and would round differently
                        bound = graded[lid]
                        for m in table[x2, y2, x2 + y2 :].tolist():
                            bound += m
                        scored.append((bound, move, lid, x2, y2))
                    b_v, b_h = scored[0][0], scored[1][0]
                    if b_v < b_h:
                        _, move, lid, x2, y2 = scored[0]
                    elif b_h < b_v:
                        _, move, lid, x2, y2 = scored[1]
                    else:
                        # tie: same rule as SG — head closest to the diagonal,
                        # residual tie preferring the horizontal hop
                        offs = []
                        for _, mv, ld, xx, yy in scored:
                            head = dag.node_core(xx, yy)
                            offs.append(
                                (
                                    diagonal_offset(comm.src, comm.snk, head),
                                    1 if mv == MOVE_V else 0,
                                    mv,
                                    ld,
                                    xx,
                                    yy,
                                )
                            )
                        offs.sort(key=lambda z: (z[0], z[1]))
                        _, _, move, lid, x2, y2 = offs[0]
                loads[lid] += rate
                moves.append(move)
                x, y = x2, y2
            paths[i] = Path.from_validated(mesh, comm.src, comm.snk, "".join(moves))
        return paths  # type: ignore[return-value]
