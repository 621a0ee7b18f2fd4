"""Mutable 1-MP routing state with O(changed-links) cost updates.

The local-search metaheuristics (:mod:`repro.heuristics.annealing`,
:mod:`repro.heuristics.tabu`) explore the space of single-path Manhattan
routings through two elementary moves:

* **corner flip** — swap two adjacent, distinct moves ``…HV… ↔ …VH…`` of
  one communication's move string.  Adjacent transpositions generate every
  permutation of the H/V multiset, so corner flips alone connect the whole
  Manhattan path space of a communication; each flip replaces exactly two
  links of the path, giving an O(1)-sized load delta.
* **path resample** — replace one communication's path by a uniformly
  random Manhattan path (an O(length) delta).

:class:`RoutingState` is the problem-aware face of
:class:`repro.mesh.batch.LoadLedger` — the batched metaheuristic engine
that owns the link-load vector and the graded total power and keeps both
consistent under moves via O(1) flip-link arithmetic, a scalar fast path
for small graded deltas, and one-NumPy-pass grading of whole candidate
neighbourhoods.  All of it is float-for-float identical to evaluating
each move through :func:`repro.mesh.batch.graded_power_delta`.
The state adds only what needs the problem — seeding from a
:class:`~repro.core.routing.Routing`, the fault-aware greedy re-insertion
(SG's :func:`~repro.heuristics.greedy.greedy_walk` scored on the ledger's
loads) and export back to paths; every move goes through the ledger's
``flip_dcost``/``commit_flip`` and ``resample_eval``/``commit_resample``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

import numpy as np

from repro.core.problem import RoutingProblem
from repro.core.routing import Routing
from repro.heuristics.greedy import greedy_walk
from repro.mesh.batch import LoadLedger
from repro.mesh.paths import Path
from repro.utils.validation import InvalidParameterError

#: relative improvement threshold of :func:`descend` — flips whose gain is
#: numerical dust (within 1e-12 of the current cost scale) do not count,
#: mirroring XYI's acceptance rule
_DESCENT_REL_EPS = 1e-12


class RoutingState(LoadLedger):
    """A complete 1-MP routing under local-move mutation.

    Parameters
    ----------
    problem:
        The routing problem; one path per communication is maintained.
    moves_list:
        Initial move string per communication, in problem order.

    Attributes
    ----------
    loads:
        Link-load vector (Mb/s per link id), always consistent with the
        current paths.
    cost:
        Graded total power of ``loads`` (strict power when feasible; the
        graded overload penalty otherwise), maintained incrementally.
    """

    __slots__ = ("problem",)

    def __init__(self, problem: RoutingProblem, moves_list: Sequence[str]):
        self.problem = problem
        super().__init__(
            problem.mesh,
            problem.power,
            [(c.src, c.snk) for c in problem.comms],
            [c.rate for c in problem.comms],
            moves_list,
            kernel=problem.kernel(),
        )

    # ------------------------------------------------------------------
    # warm-start seeding
    # ------------------------------------------------------------------
    @classmethod
    def from_routing(
        cls, problem: RoutingProblem, routing: Routing
    ) -> "RoutingState":
        """Seed the state from an existing single-path routing.

        The routing may belong to a *different* problem instance — e.g.
        the pre-perturbation ancestor in a warm-start repair — as long as
        the communication endpoints match ``problem``'s in order.  Rates,
        the power model and the mesh's fault/derating profile are taken
        from ``problem``, so the returned state grades the old paths under
        the new conditions.
        """
        if not routing.is_single_path:
            raise InvalidParameterError(
                "warm-start seeding needs a single-path routing, got "
                f"max_split={routing.max_split}"
            )
        prev = routing.problem
        if prev.num_comms != problem.num_comms:
            raise InvalidParameterError(
                f"routing covers {prev.num_comms} communications, "
                f"problem has {problem.num_comms}"
            )
        moves: List[str] = []
        for i, comm in enumerate(problem.comms):
            pc = prev.comms[i]
            if pc.src != comm.src or pc.snk != comm.snk:
                raise InvalidParameterError(
                    f"communication {i} endpoints differ: routing has "
                    f"{pc.src}->{pc.snk}, problem has "
                    f"{comm.src}->{comm.snk}"
                )
            moves.append(routing.paths(i)[0].moves)
        return cls(problem, moves)

    def reroute_greedy(self, ci: int):
        """Fault-aware greedy re-insertion proposal for ``ci``.

        SG's walk (:func:`repro.heuristics.greedy.greedy_walk`) on the
        current loads with ``ci``'s own contribution removed, so the mesh
        is scored as if the communication were freshly inserted; on a
        faulty mesh it takes SG's live-reachability guard whenever a live
        path exists (blocked communications fall back to the unconstrained
        walk and stay invalid, like SG).  Returns ``(new_moves, new_links,
        deltas, dcost)``, ready for :meth:`commit_resample`.
        """
        loads = self._loads_l
        rate = self._rates_l[ci]
        own = set(self.links[ci])

        def score(lid: int, x: int, y: int) -> float:
            return loads[lid] - rate if lid in own else loads[lid]

        bwd = None
        if self.mesh.link_mask is not None:
            dag = self.problem.dag(ci)
            if dag.has_live_path():
                bwd = dag.live_reachability()[1]
        comm = self.problem.comms[ci]
        moves, _ = greedy_walk(self.mesh, comm.src, comm.snk, score, bwd)
        new_links, deltas, dcost = self.resample_eval(ci, moves)
        return moves, new_links, deltas, dcost

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def paths(self) -> List[Path]:
        """Materialise the current state as :class:`Path` objects.

        The internal move strings are valid by construction (validated on
        entry and only mutated by legal flips/resamples), so the trusted
        constructor is used with the maintained link arrays.
        """
        out = []
        for i, comm in enumerate(self.problem.comms):
            out.append(
                Path.from_validated(
                    self.mesh,
                    comm.src,
                    comm.snk,
                    self.move_str(i),
                    np.asarray(self.links[i], dtype=np.int64),
                )
            )
        return out

    def to_routing(self) -> Routing:
        """Materialise the current state as a single-path routing."""
        return Routing.single_path(self.problem, self.paths())


def descend(
    state: RoutingState,
    comms: Optional[Iterable[int]] = None,
    *,
    max_flips: Optional[int] = None,
) -> int:
    """First-improvement corner-flip descent on ``state``, in place.

    Deterministic and RNG-free: the communications in ``comms`` (default
    all mutable ones; indices outside the mutable set are ignored) are
    swept in ascending order, each scanning its flippable corners left to
    right and committing every flip that improves the graded cost by more
    than the relative noise threshold — restarting that communication's
    corner scan after a commit — until a full sweep commits nothing.  All
    grading runs through the ledger's scalar fast path, so the trajectory
    is identical across the ``REPRO_NATIVE`` tiers.  This is the polish
    stage of warm-start repair: restricted to the repaired neighbourhood
    it converges in a handful of flips, and on an already locally optimal
    state it commits nothing at all.

    Returns the number of committed flips.
    """
    if comms is None:
        targets = state.mutable_comms()
    else:
        targets = sorted(set(comms) & set(state.mutable_comms()))
    if not targets:
        return 0
    if max_flips is None:
        # same safety cap shape as XYI: generous, never binding in practice
        mesh = state.mesh
        max_flips = 10 * mesh.p * mesh.q * len(targets)
    flips = 0
    flip_dcost = state.flip_dcost
    commit_flip = state.commit_flip
    improved = True
    while improved:
        improved = False
        for ci in targets:
            pos = state.flip_pos(ci)  # live index, mutated by commits
            k = 0
            while k < len(pos):
                j = pos[k]
                dcost = flip_dcost(ci, j)
                if dcost < -_DESCENT_REL_EPS * max(abs(state.cost), 1.0):
                    commit_flip(ci, j, dcost)
                    flips += 1
                    if flips >= max_flips:
                        return flips
                    improved = True
                    k = 0
                else:
                    k += 1
    return flips


def initial_moves(problem: RoutingProblem, init: str) -> List[str]:
    """Move strings of the named registered heuristic's solution.

    ``init`` may be any registered heuristic name ("XY", "SG", "TB", ...);
    the heuristic is run on ``problem`` and its (single-path) routing is
    converted to move strings.  The result is memoised on the problem
    (every registered heuristic is deterministic for a fixed default
    seed), so SA and TABU sharing an ``init`` on one instance pay for it
    once.
    """
    return list(problem.initial_moves(init))
