"""PR — the path-remover heuristic (Section 5.5).

Every communication starts *virtually* routed over **all** its Manhattan
paths: each link of band ``t`` of its rectangle carries ``δ / n_t`` where
``n_t`` is the number of links in the band (the ideal spread of Figure 3).
Then, while some communication still has more than one remaining path, the
most loaded link is selected and the largest communication that can afford
to lose it gives it up; the communication's remaining spread is
re-balanced, and the *path cleaning* cascade removes every link of its
rectangle that no longer lies on any surviving source→sink path (the
generalisation of the paper's cascade-deletion rules).

The allowed links of a communication are two node bitmasks of its DAG's
progress grid (the tails of its allowed vertical and horizontal edges), so
the cleaning cascade is a forward and a backward shift-or reachability
fixpoint on two Python ints
(:func:`~repro.mesh.paths.node_reachability`); an edge survives when its
tail is reachable from the source and its head reaches the sink.  Loads
are then re-balanced band by band, only in the bands the cascade touched.

Invariants maintained (and exercised by the test suite):

* after cleaning, every allowed link of a communication lies on at least
  one surviving src→snk path — consequently a link is removable from a
  communication iff its band still holds ≥ 2 links, and a removal never
  disconnects;
* the virtual load of a communication over each band always sums to its
  rate, so when every band holds a single link the virtual load *is* the
  real single-path load.

Links that no communication can give up are frozen and skipped from then
on (band counts only shrink, so unremovability is permanent).
"""

from __future__ import annotations

from typing import List, Set

import numpy as np

from repro.core.problem import RoutingProblem
from repro.heuristics.base import Heuristic, register_heuristic
from repro.mesh.moves import MOVE_H, MOVE_V
from repro.mesh.paths import CommDag, Path, node_reachability


class _CommState:
    """Per-communication spread state: allowed band links and their shares.

    The allowed links are two node bitmasks of the DAG's progress grid
    (:func:`~repro.mesh.paths.node_reachability`): ``av`` holds the tails
    of the allowed vertical edges, ``ah`` those of the horizontal ones.
    """

    __slots__ = ("dag", "rate", "rows", "pos", "av", "ah", "counts", "excess")

    def __init__(
        self,
        dag: CommDag,
        rate: float,
        loads: np.ndarray,
        alive: np.ndarray | None = None,
    ):
        self.dag = dag
        self.rate = rate
        # band geometry (link ids, tail bits, edge kinds) is immutable and
        # cached on the — possibly pooled — DAG; only the masks and counts
        # are per-communication state
        self.rows, self.pos = dag.band_bits()
        # on a faulty mesh, a communication with a surviving live path
        # spreads over its live links only (cleaned so every remaining
        # link is on some fully-live path); blocked communications fall
        # back to the full spread and end up reported invalid
        use_alive = alive is not None and dag.has_live_path()
        self.av, self.ah = dag.node_masks(alive if use_alive else None)
        if use_alive:
            self._clean()
        self.counts: List[int] = []
        for row in self.rows:
            lids = [lid for lid, bit, v in row if (self.av if v else self.ah) & bit]
            loads[lids] += rate / len(lids)
            self.counts.append(len(lids))
        self.excess = sum(self.counts) - len(self.counts)

    @property
    def finished(self) -> bool:
        """True when every band holds exactly one link (a unique path)."""
        return self.excess == 0

    def band_count_of(self, lid: int) -> int:
        """Number of allowed links in the band containing ``lid`` (0 if gone)."""
        t, bit, v = self.pos[lid]
        return self.counts[t] if (self.av if v else self.ah) & bit else 0

    def allows(self, lid: int) -> bool:
        t_bit_v = self.pos.get(lid)
        if t_bit_v is None:
            return False
        _, bit, v = t_bit_v
        return bool((self.av if v else self.ah) & bit)

    # ------------------------------------------------------------------
    def remove_and_clean(self, lid: int, loads: np.ndarray) -> List[int]:
        """Give up ``lid`` (band count must be ≥ 2), cascade-clean, update loads.

        Returns every link id this communication stopped using (the target
        plus the cleaning cascade), band by band.
        """
        t0, bit0, v0 = self.pos[lid]
        if not (self.av if v0 else self.ah) & bit0:
            raise AssertionError(f"link {lid} already removed from this comm")
        if self.counts[t0] < 2:
            raise AssertionError(
                "removing the last band link would break the last path"
            )
        old_av, old_ah = self.av, self.ah
        if v0:
            self.av &= ~bit0
        else:
            self.ah &= ~bit0
        self._clean()
        gone = (old_av & ~self.av) | (old_ah & ~self.ah)
        w = self.dag.dv + 1
        bands = set()
        while gone:
            i = gone.bit_length() - 1
            gone ^= 1 << i
            bands.add(i // w + i % w)  # a tail (x, y) lies on band x + y
        removed: List[int] = []
        rate = self.rate
        for t in sorted(bands):
            kept: List[int] = []
            lost: List[int] = []
            for link, bit, v in self.rows[t]:
                if (self.av if v else self.ah) & bit:
                    kept.append(link)
                elif (old_av if v else old_ah) & bit:
                    lost.append(link)
            n_old = self.counts[t]
            n_new = len(kept)
            # re-balance: survivors go from rate/n_old to rate/n_new
            delta = rate / n_new - rate / n_old
            for link in kept:
                loads[link] += delta
            share = rate / n_old
            for link in lost:
                loads[link] = max(loads[link] - share, 0.0)
            removed.extend(lost)
            self.excess -= n_old - n_new
            self.counts[t] = n_new
        return removed

    def _clean(self) -> None:
        """Drop every allowed edge not on a surviving src→snk path."""
        du, dv = self.dag.du, self.dag.dv
        fwd, bwd = node_reachability(du, dv, self.av, self.ah)
        if not bwd & 1:
            raise AssertionError("cleaning disconnected src from snk")
        self.av &= fwd & (bwd >> (dv + 1))
        self.ah &= fwd & (bwd >> 1)

    def extract_moves(self) -> str:
        """The unique remaining path as a move string (requires finished)."""
        if not self.finished:
            raise AssertionError("communication still has multiple paths")
        w = self.dag.dv + 1
        node = 1
        out = []
        for _ in range(self.dag.length):
            if self.av & node:
                out.append(MOVE_V)
                node <<= w
            else:
                out.append(MOVE_H)
                node <<= 1
        return "".join(out)


@register_heuristic("PR")
class PathRemover(Heuristic):
    """Prune the all-paths spread, most-loaded link first."""

    batch_eval = True

    def _route(self, problem: RoutingProblem) -> List[Path]:
        mesh = problem.mesh
        alive = mesh.link_mask
        scale = mesh.link_scale
        dead = mesh.dead_mask
        n = problem.num_comms
        loads = np.zeros(mesh.num_links, dtype=np.float64)
        states = [
            _CommState(problem.dag(i), problem.comms[i].rate, loads, alive)
            for i in range(n)
        ]
        comms_on: List[Set[int]] = [set() for _ in range(mesh.num_links)]
        for i, st in enumerate(states):
            for lid in st.pos:
                comms_on[lid].add(i)
        frozen = np.zeros(mesh.num_links, dtype=bool)
        unfinished = {i for i in range(n) if not states[i].finished}

        while unfinished:
            if scale is None and dead is None:
                weighted = loads
            else:
                # relieve the most *power-costly* link first: scale-weight
                # heterogeneous regions, and evacuate any removable spread
                # from dead links before everything else
                weighted = loads if scale is None else loads * scale
                if dead is not None:
                    weighted = weighted + np.where(
                        dead & (loads > 0), np.inf, 0.0
                    )
            masked = np.where(frozen, -1.0, weighted)
            lid = int(np.argmax(masked))
            if masked[lid] <= 0:
                # No loaded, unfrozen link left: every unfinished comm should
                # have offered a removable link — defensive stop (unreached
                # under the documented invariants, exercised by tests).
                break
            cands = sorted(
                (
                    i
                    for i in comms_on[lid]
                    if states[i].allows(lid) and states[i].band_count_of(lid) >= 2
                ),
                key=lambda i: (-problem.comms[i].rate, i),
            )
            if not cands:
                frozen[lid] = True
                continue
            i = cands[0]
            for gone in states[i].remove_and_clean(lid, loads):
                comms_on[gone].discard(i)
            if states[i].finished:
                unfinished.discard(i)

        paths = []
        for i, st in enumerate(states):
            comm = problem.comms[i]
            paths.append(
                Path.from_validated(mesh, comm.src, comm.snk, st.extract_moves())
            )
        return paths
