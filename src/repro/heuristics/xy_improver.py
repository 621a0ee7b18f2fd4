"""XYI — the XY-improver heuristic (Section 5.4).

Start from the XY routing and iteratively relieve the most loaded links.
Links are kept in a worklist sorted by decreasing load.  For the link at
the head of the list, every communication routed through it is offered its
*corner-relocation* move (see :mod:`repro.mesh.moves`):

* a **vertical** target link is avoided by shifting the enclosing vertical
  run one column toward the source (relocating the nearest preceding
  horizontal hop to just after it);
* a **horizontal** target link is avoided by shifting it one row toward the
  sink (relocating the nearest following vertical hop to just before it).

If no candidate modification lowers the total (graded) power the link is
dropped from the worklist; otherwise the best modification is applied, the
worklist is rebuilt from the new loads, and the descent continues.  Total
graded power strictly decreases at every applied move, so the procedure
terminates; a generous safety cap guards the theoretical worst case.

Implementation notes — the descent runs on a
:class:`~repro.heuristics.local_moves.RoutingState`, the load ledger the
local-search metaheuristics and the warm-start polish share:

* the communications crossing the head link come from the ledger's
  maintained link index (:meth:`~repro.mesh.batch.LoadLedger.comms_using`);
* each candidate relocation is graded as a whole-path resample
  (:meth:`~repro.mesh.batch.LoadLedger.resample_eval`), whose delta and
  graded float math equal :func:`repro.mesh.batch.graded_power_delta`
  bit for bit, and the best one is committed with
  :meth:`~repro.mesh.batch.LoadLedger.commit_resample`;
* the accept threshold is scaled by a from-scratch graded total
  (:meth:`~repro.mesh.batch.LoadLedger.recompute_cost`), refreshed only on
  applied moves — loads are unchanged on rejected iterations.

:meth:`XYImprover.relocate` runs the descent on a caller's state in place,
which is how the warm-start polish alternates it with corner flips.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.problem import RoutingProblem
from repro.heuristics.base import Heuristic, register_heuristic
from repro.heuristics.local_moves import RoutingState
from repro.mesh.moves import relocate_h_after, relocate_v_before, xy_moves
from repro.mesh.paths import Path
from repro.utils.validation import InvalidParameterError

#: improvements smaller than this (relative to current power) are noise
_REL_EPS = 1e-12


@register_heuristic("XYI")
class XYImprover(Heuristic):
    """Local corner-relocation descent from the XY routing.

    Parameters
    ----------
    max_steps:
        Safety cap on applied modifications.  The paper bounds the work at
        ``p*q`` modifications per communication; the default cap is an
        order of magnitude above that and is never reached in practice.
    start:
        Registry name of the heuristic providing the starting routing
        (default ``"XY"``, the paper's choice).  Any registered
        single-path heuristic works — the descent itself is agnostic to
        where it starts, which the improver-start ablation exploits.
    """

    batch_eval = True

    def __init__(self, max_steps: Optional[int] = None, start: str = "XY"):
        if max_steps is not None and max_steps < 1:
            raise InvalidParameterError(f"max_steps must be >= 1, got {max_steps}")
        self.max_steps = max_steps
        self.start = start

    def _starting_moves(self, problem: RoutingProblem) -> List[str]:
        if self.start == "XY":
            return [xy_moves(c.src, c.snk) for c in problem.comms]
        from repro.heuristics.base import get_heuristic

        if self.start == self.name:
            raise InvalidParameterError(
                f"improver cannot start from itself ({self.start!r})"
            )
        paths = get_heuristic(self.start)._route(problem)
        return [p.moves for p in paths]

    def _route(self, problem: RoutingProblem) -> List[Path]:
        return self._descend_paths(problem, self._starting_moves(problem))

    def _route_from(self, problem: RoutingProblem, moves: List[str]) -> List[Path]:
        # warm entry (Heuristic.solve_from): the descent is start-agnostic,
        # so it serves as a relocation *polish* of any single-path routing —
        # the service's warm-start repair seeds it with the repaired
        # previous routing, where it converges in a handful of moves
        return self._descend_paths(problem, list(moves))

    def _descend_paths(self, problem: RoutingProblem, moves: List[str]) -> List[Path]:
        state = RoutingState(problem, moves)
        self.relocate(state)
        return state.paths()

    def relocate(self, state: RoutingState) -> None:
        """Run the corner-relocation descent on ``state``, in place."""
        mesh = state.mesh
        dead = state.dead  # None on fault-free meshes
        cap = self.max_steps
        if cap is None:
            cap = 10 * mesh.p * mesh.q * max(len(state.moves), 1)

        current = state.recompute_cost()
        worklist = self._sorted_links(state.loads, dead)
        steps = 0
        while worklist and steps < cap:
            lid = worklist[0]
            horizontal = mesh.is_horizontal(lid)
            best = None
            best_dp = np.inf
            for i in state.comms_using(lid):
                pos = state.links[i].index(lid)
                if horizontal:
                    new_m = relocate_v_before(state.move_str(i), pos)
                else:
                    new_m = relocate_h_after(state.move_str(i), pos)
                if new_m is None:
                    # cannot move without breaking the Manhattan rule
                    continue
                new_links, deltas, dp = state.resample_eval(i, new_m)
                if dp < best_dp:
                    best_dp = dp
                    best = (i, new_m, new_links, deltas, dp)
            if best is not None and best_dp < -_REL_EPS * max(current, 1.0):
                state.commit_resample(*best)
                current = state.recompute_cost()
                worklist = self._sorted_links(state.loads, dead)
                steps += 1
            else:
                worklist.pop(0)

    @staticmethod
    def _sorted_links(
        loads: np.ndarray, dead: Optional[np.ndarray] = None
    ) -> List[int]:
        """Loaded link ids by decreasing load (stable under equal loads).

        On faulty meshes, loaded *dead* links jump to the head of the
        worklist regardless of their load — evacuating them dominates any
        load-balancing move.
        """
        if dead is None:
            order = np.argsort(-loads, kind="stable")
        else:
            hot = np.where(dead & (loads > 0), np.inf, 0.0)
            order = np.argsort(-(loads + hot), kind="stable")
        return [int(l) for l in order if loads[l] > 0]
