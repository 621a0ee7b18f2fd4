"""Communications and routing-problem instances (Sections 3.2 and 3.4).

A :class:`Communication` is the system-level unit of work: a source core, a
sink core and a sustained rate in bytes-per-second units (Mb/s under the
paper's constants).  A :class:`RoutingProblem` bundles a mesh, a power model
and a communication set, and caches per-communication geometry
(:class:`repro.mesh.paths.CommDag`) so heuristics don't rebuild it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.core.power import PowerModel
from repro.mesh.diagonals import diag_index, direction_of
from repro.mesh.paths import CommDag, count_paths
from repro.mesh.topology import Mesh
from repro.utils.validation import InvalidParameterError, check_positive

Coord = Tuple[int, int]


@dataclass(frozen=True)
class Communication:
    """One communication ``γ = (src, snk, rate)``.

    ``rate`` is the requested sustained bandwidth ``δ`` (bytes/s in the
    paper's prose; Mb/s under the Kim–Horowitz constants).  Source and sink
    must differ — a self-communication never leaves the core and is outside
    the routing problem.
    """

    src: Coord
    snk: Coord
    rate: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "src", (int(self.src[0]), int(self.src[1])))
        object.__setattr__(self, "snk", (int(self.snk[0]), int(self.snk[1])))
        check_positive("rate", self.rate)
        if self.src == self.snk:
            raise InvalidParameterError(
                f"communication source and sink coincide at {self.src}"
            )

    @property
    def length(self) -> int:
        """Manhattan distance between the endpoints (= path length)."""
        return abs(self.snk[0] - self.src[0]) + abs(self.snk[1] - self.src[1])

    @property
    def direction(self) -> int:
        """Paper direction ``d`` in 1..4 (see :mod:`repro.mesh.diagonals`)."""
        return direction_of(self.src, self.snk)

    @property
    def delta_u(self) -> int:
        """Number of vertical hops."""
        return abs(self.snk[0] - self.src[0])

    @property
    def delta_v(self) -> int:
        """Number of horizontal hops."""
        return abs(self.snk[1] - self.src[1])

    def path_count(self) -> int:
        """Number of Manhattan paths available to this communication."""
        return count_paths(self.delta_u, self.delta_v)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"γ({self.src}->{self.snk}, δ={self.rate:g})"


class RoutingProblem:
    """A routing instance: mesh + power model + communications.

    The object is immutable; per-communication :class:`CommDag` geometry is
    built lazily and cached (heuristics call :meth:`dag` heavily).

    Parameters
    ----------
    mesh:
        The CMP platform.
    power:
        The link power model (continuous or discrete frequencies).
    comms:
        The communications to route.  Endpoints are validated against the
        mesh.
    """

    __slots__ = (
        "mesh",
        "power",
        "comms",
        "_dags",
        "_dag_pool",
        "_rates",
        "_kernel",
        "_initial_moves",
    )

    def __init__(
        self, mesh: Mesh, power: PowerModel, comms: Sequence[Communication]
    ):
        if not isinstance(mesh, Mesh):
            raise InvalidParameterError(f"mesh must be a Mesh, got {type(mesh)}")
        if not isinstance(power, PowerModel):
            raise InvalidParameterError(
                f"power must be a PowerModel, got {type(power)}"
            )
        comms = tuple(comms)
        for i, c in enumerate(comms):
            if not isinstance(c, Communication):
                raise InvalidParameterError(
                    f"comms[{i}] must be a Communication, got {type(c)}"
                )
            mesh.check_core(*c.src)
            mesh.check_core(*c.snk)
        self.mesh = mesh
        self.power = power
        self.comms = comms
        self._dags: List[CommDag | None] = [None] * len(comms)
        self._dag_pool: dict = {}
        self._rates = np.asarray([c.rate for c in comms], dtype=np.float64)
        self._rates.setflags(write=False)
        self._kernel = None
        self._initial_moves: dict = {}

    # ------------------------------------------------------------------
    @property
    def num_comms(self) -> int:
        """Number of communications."""
        return len(self.comms)

    @property
    def rates(self) -> np.ndarray:
        """Vector of communication rates (read-only)."""
        return self._rates

    @property
    def total_rate(self) -> float:
        """Aggregate requested bandwidth Σδᵢ."""
        return float(self._rates.sum())

    def dag(self, i: int) -> CommDag:
        """Cached :class:`CommDag` of communication ``i``.

        DAGs are pooled by ``(src, snk)``: communications with equal
        endpoints — necessarily equal displacement ``(Δu, Δv)`` — share one
        :class:`CommDag` object and therefore one set of cached band tables
        (:meth:`~repro.mesh.paths.CommDag.link_arrays`,
        :meth:`~repro.mesh.paths.CommDag.band_bits`).  Random workloads
        with many communications on a small mesh duplicate endpoints
        frequently, so the pool keeps the per-instance geometry cost
        sub-linear in the number of communications.
        """
        if not 0 <= i < len(self.comms):
            raise InvalidParameterError(
                f"communication index {i} out of range [0, {len(self.comms)})"
            )
        if self._dags[i] is None:
            c = self.comms[i]
            key = (c.src, c.snk)
            dag = self._dag_pool.get(key)
            if dag is None:
                dag = CommDag(self.mesh, c.src, c.snk)
                self._dag_pool[key] = dag
            self._dags[i] = dag
        return self._dags[i]

    def kernel(self):
        """Cached :class:`~repro.mesh.kernel.FlatRoutingKernel` of this instance.

        Every batched evaluator — the GA's generation grading, the load
        ledgers behind SA/TABU, population property tests — needs the
        same flattened hop metadata; building it once per problem instead
        of once per heuristic removes a per-trial fixed cost from the
        Monte-Carlo engine.
        """
        if self._kernel is None:
            from repro.mesh.kernel import FlatRoutingKernel

            self._kernel = FlatRoutingKernel(
                self.mesh,
                [(c.src, c.snk) for c in self.comms],
                self._rates,
            )
        return self._kernel

    def initial_moves(self, init: str) -> Tuple[str, ...]:
        """Memoised move strings of the named heuristic's routing.

        Registered heuristics are deterministic on a fixed problem (the
        stochastic ones carry fixed default seeds), so the first caller
        pays for the solve and every other improver/metaheuristic seeded
        from the same ``init`` on this instance reuses the result.
        """
        moves = self._initial_moves.get(init)
        if moves is None:
            from repro.heuristics.base import get_heuristic

            result = get_heuristic(init).solve(self)
            routing = result.routing
            if not routing.is_single_path:
                raise InvalidParameterError(
                    f"init heuristic {init!r} produced a split routing"
                )
            moves = tuple(
                routing.paths(i)[0].moves for i in range(self.num_comms)
            )
            self._initial_moves[init] = moves
        return moves

    def diag_span(self, i: int) -> Tuple[int, int]:
        """0-based ``(k_src, k_snk)`` diagonal indices of communication ``i``.

        ``k_snk = k_src + length``: the communication crosses bands
        ``k_src .. k_snk - 1`` of its direction.
        """
        c = self.comms[i]
        d = c.direction
        ks = diag_index(self.mesh, d, *c.src)
        return ks, ks + c.length

    def __iter__(self) -> Iterator[Communication]:
        return iter(self.comms)

    def __len__(self) -> int:
        return len(self.comms)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RoutingProblem({self.mesh!r}, {self.num_comms} comms, "
            f"total δ={self.total_rate:g})"
        )

    def order_by(self, key: str = "weight") -> List[int]:
        """Communication indices sorted for greedy processing.

        ``'weight'`` (paper default): decreasing rate; ``'length'``:
        decreasing Manhattan distance; ``'density'``: decreasing
        rate/length; ``'input'``: original order.  Ties break by original
        index, so the order is deterministic.
        """
        idx = list(range(self.num_comms))
        if key == "input":
            return idx
        if key == "weight":
            return sorted(idx, key=lambda i: (-self.comms[i].rate, i))
        if key == "length":
            return sorted(idx, key=lambda i: (-self.comms[i].length, i))
        if key == "density":
            return sorted(
                idx, key=lambda i: (-self.comms[i].rate / self.comms[i].length, i)
            )
        raise InvalidParameterError(
            f"unknown ordering {key!r}; expected 'weight', 'length', "
            "'density' or 'input'"
        )
