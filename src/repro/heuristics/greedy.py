"""SG — the simple greedy heuristic (Section 5.1) and the greedy hop walk.

Communications are processed by decreasing weight.  Each path is built hop
by hop from the source: among the (at most two) Manhattan-feasible next
links, take the least loaded one; on a tie, take the link whose head core
is closest to the straight diagonal from the source to the sink.

That hop rule is :func:`greedy_walk`, parameterised by how a link is
scored.  SG scores a link by its load, IG (:mod:`repro.heuristics.
improved_greedy`) by its look-ahead power bound, and the warm-start
re-insertion (:meth:`repro.heuristics.local_moves.RoutingState.
reroute_greedy`) by its load without the communication's own share.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

from repro.core.problem import RoutingProblem
from repro.heuristics.base import Heuristic, register_heuristic
from repro.heuristics.ordering import DEFAULT_ORDERING
from repro.mesh.kernel import direction_link_bases
from repro.mesh.moves import MOVE_H, MOVE_V
from repro.mesh.paths import Path
from repro.mesh.topology import Mesh

Coord = Tuple[int, int]


def diagonal_offset(src: Coord, snk: Coord, core: Coord) -> float:
    """Unnormalised distance of ``core`` from the straight line src→snk.

    The absolute value of the cross product of (snk − src) and
    (core − src); proportional to the perpendicular distance, which is all
    a comparison needs.
    """
    du, dv = snk[0] - src[0], snk[1] - src[1]
    cu, cv = core[0] - src[0], core[1] - src[1]
    return abs(du * cv - dv * cu)


def greedy_walk(
    mesh: Mesh,
    src: Coord,
    snk: Coord,
    score: Callable[[int, int, int], float],
    bwd: np.ndarray | None = None,
) -> Tuple[str, List[int]]:
    """One Manhattan path from ``src`` to ``snk``, greedy hop by hop.

    At every node with two Manhattan-feasible next hops the walk takes
    the one with the smaller ``score(lid, x, y)`` — ``lid`` the hop's
    link, ``(x, y)`` its head in progress coordinates; ``score`` is only
    called at such two-way nodes.  An equal score goes to the head nearer
    the src→snk diagonal (:func:`diagonal_offset`), a residual tie to the
    horizontal hop.  With ``bwd`` (the backward table of
    :meth:`repro.mesh.paths.CommDag.live_reachability`) a hop is forced
    when exactly one of the two is alive and can still reach the sink, so
    the walk never dead-ends on a faulty mesh.

    Returns ``(moves, lids)``: the move string and its link ids.
    """
    (u, v), (snk_u, snk_v) = src, snk
    su = 1 if snk_u >= u else -1
    sv = 1 if snk_v >= v else -1
    # O(1) link ids: vertical hop from (u, v) is vbase + u*q + v,
    # horizontal is hbase + u*(q-1) + v (bases fold the direction in)
    vbase, hbase = direction_link_bases(mesh, su, sv)
    q = mesh.q
    alive = mesh.link_mask
    x = y = 0  # progress coordinates of (u, v)
    moves: List[str] = []
    lids: List[int] = []
    while u != snk_u or v != snk_v:
        if u == snk_u:
            vert, lid = False, hbase + u * (q - 1) + v
        elif v == snk_v:
            vert, lid = True, vbase + u * q + v
        else:
            lv = vbase + u * q + v
            lh = hbase + u * (q - 1) + v
            viab_v = viab_h = True
            if bwd is not None:
                viab_v = alive[lv] and bwd[x + 1, y]
                viab_h = alive[lh] and bwd[x, y + 1]
            if viab_v != viab_h:
                vert = bool(viab_v)
            else:
                s_v = score(lv, x + 1, y)
                s_h = score(lh, x, y + 1)
                if s_v < s_h:
                    vert = True
                elif s_h < s_v:
                    vert = False
                else:
                    vert = diagonal_offset(src, snk, (u + su, v)) < (
                        diagonal_offset(src, snk, (u, v + sv))
                    )
            lid = lv if vert else lh
        lids.append(lid)
        if vert:
            moves.append(MOVE_V)
            u += su
            x += 1
        else:
            moves.append(MOVE_H)
            v += sv
            y += 1
    return "".join(moves), lids


@register_heuristic("SG")
class SimpleGreedy(Heuristic):
    """Least-loaded-next-link greedy with diagonal tie-breaking.

    Parameters
    ----------
    ordering:
        Communication processing order; the paper's default is decreasing
        weight (see :mod:`repro.heuristics.ordering`).
    """

    batch_eval = True

    def __init__(self, ordering: str = DEFAULT_ORDERING):
        self.ordering = ordering

    def _route(self, problem: RoutingProblem) -> List[Path]:
        mesh = problem.mesh
        # plain Python floats: SG only ever touches single links, and list
        # indexing beats ndarray scalar indexing in the hop loop
        loads = [0.0] * mesh.num_links

        def score(lid: int, x: int, y: int) -> float:
            return loads[lid]

        paths: List[Path | None] = [None] * problem.num_comms
        for i in problem.order_by(self.ordering):
            comm = problem.comms[i]
            # fault-awareness: when the mesh has dead links and this
            # communication still has a live Manhattan path, constrain the
            # walk to live hops.  Blocked communications fall back to the
            # unconstrained walk and are reported invalid by evaluation.
            bwd = None
            if mesh.link_mask is not None:
                dag = problem.dag(i)
                if dag.has_live_path():
                    bwd = dag.live_reachability()[1]
            moves, lids = greedy_walk(mesh, comm.src, comm.snk, score, bwd)
            # loading after the walk is exact: each link has a unique tail
            # node, so the walk never scores a link it has already taken
            rate = comm.rate
            for lid in lids:
                loads[lid] += rate
            paths[i] = Path.from_validated(
                mesh, comm.src, comm.snk, moves,
                np.asarray(lids, dtype=np.int64),
            )
        return paths  # type: ignore[return-value]
