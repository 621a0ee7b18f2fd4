"""Manhattan path objects and the per-communication routing DAG.

Two central abstractions live here:

* :class:`Path` — an immutable, validated Manhattan path of one
  communication, carrying both its move string and its link-id sequence.
* :class:`CommDag` — the DAG of *all* Manhattan paths between a source and
  a sink: a ``(Δu+1) × (Δv+1)`` progress grid whose edges are the mesh links
  a shortest path may use.  Edges are grouped into *bands* (the links
  between consecutive diagonals ``D(d)_t → D(d)_{t+1}`` restricted to the
  communication's bounding rectangle); the IG pre-routing, the PR heuristic
  and the Frank–Wolfe relaxation all operate band-wise on this DAG.

Lemma 1 of the paper — there are ``C(p+q-2, p-1)`` Manhattan paths corner
to corner — generalises to ``C(Δu+Δv, Δu)`` paths per communication; see
:func:`count_paths` / :func:`manhattan_path_count`.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, List, Sequence, Tuple

import numpy as np

from repro.mesh.diagonals import direction_of, direction_steps
from repro.mesh.moves import (
    MOVE_H,
    MOVE_V,
    moves_to_cores,
    moves_to_links,
    validate_moves,
    xy_moves,
    yx_moves,
)
from repro.mesh.topology import Mesh
from repro.utils.validation import InvalidParameterError

Coord = Tuple[int, int]

#: sentinel for "live reachability not computed yet" (None is a valid result)
_UNSET = object()


def count_paths(du: int, dv: int) -> int:
    """Number of Manhattan paths over a ``du × dv`` displacement.

    ``C(du+dv, du)`` — the generalisation of Lemma 1 to an arbitrary
    source/sink pair.
    """
    if du < 0 or dv < 0:
        raise InvalidParameterError(f"displacements must be >= 0, got {du}, {dv}")
    return comb(du + dv, du)


def manhattan_path_count(p: int, q: int) -> int:
    """Lemma 1: number of Manhattan paths from ``C_{1,1}`` to ``C_{p,q}``."""
    if p < 1 or q < 1:
        raise InvalidParameterError(f"mesh dimensions must be >= 1, got {p}x{q}")
    return comb(p + q - 2, p - 1)


def node_reachability(du: int, dv: int, av: int, ah: int) -> Tuple[int, int]:
    """Progress-node reachability over the permitted edges of a DAG.

    Nodes of the ``(Δu+1) × (Δv+1)`` progress grid are bits of a Python
    int: node ``(x, y)`` is bit ``x*(Δv+1) + y``, so a vertical edge moves
    a bit up by ``Δv+1`` and a horizontal one by 1.  ``av`` / ``ah`` hold
    the tail bits of the permitted vertical / horizontal edges (see
    :meth:`CommDag.node_masks`).  Returns ``(fwd, bwd)``: the nodes
    reachable from ``(0, 0)`` and the nodes from which ``(Δu, Δv)`` is
    reachable, each the fixpoint of a shift-or sweep.  This is the single
    sweep behind :meth:`CommDag.live_reachability` (mesh fault masks) and
    the PR heuristic's path-cleaning cascade (per-communication allowed
    links).
    """
    w = dv + 1
    fwd, prev = 1, 0
    while fwd != prev:
        prev = fwd
        fwd |= ((fwd & av) << w) | ((fwd & ah) << 1)
    bwd, prev = 1 << (du * w + dv), 0
    while bwd != prev:
        prev = bwd
        bwd |= ((bwd >> w) & av) | ((bwd >> 1) & ah)
    return fwd, bwd


def _bit_grid(mask: int, du: int, dv: int) -> np.ndarray:
    """Read-only ``(du+1) × (dv+1)`` boolean grid of a node bitmask."""
    n = (du + 1) * (dv + 1)
    raw = np.frombuffer(mask.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    grid = np.unpackbits(raw, count=n, bitorder="little").astype(bool)
    grid = grid.reshape(du + 1, dv + 1)
    grid.setflags(write=False)
    return grid


class Path:
    """An immutable Manhattan path of a single communication.

    Construct through :meth:`from_moves`, :meth:`xy` or :meth:`yx`; the
    constructor validates that the move string joins ``src`` to ``snk``.

    Attributes
    ----------
    src, snk:
        Endpoint core coordinates.
    moves:
        Move string over ``{'H', 'V'}``; see :mod:`repro.mesh.moves`.
    link_ids:
        ``numpy`` int array of the traversed link ids, in order.
    """

    __slots__ = ("mesh", "src", "snk", "moves", "link_ids")

    def __init__(self, mesh: Mesh, src: Coord, snk: Coord, moves: str):
        mesh.check_core(*src)
        mesh.check_core(*snk)
        if src == snk:
            raise InvalidParameterError(f"path endpoints coincide at {src}")
        validate_moves(src, snk, moves)
        self.mesh = mesh
        self.src = (int(src[0]), int(src[1]))
        self.snk = (int(snk[0]), int(snk[1]))
        self.moves = moves
        self.link_ids = np.asarray(
            moves_to_links(mesh, self.src, self.snk, moves), dtype=np.int64
        )
        self.link_ids.setflags(write=False)

    # constructors ------------------------------------------------------
    @classmethod
    def from_moves(cls, mesh: Mesh, src: Coord, snk: Coord, moves: str) -> "Path":
        """Build a path from an explicit move string."""
        return cls(mesh, src, snk, moves)

    @classmethod
    def xy(cls, mesh: Mesh, src: Coord, snk: Coord) -> "Path":
        """The XY route (horizontal first, then vertical)."""
        return cls(mesh, src, snk, xy_moves(src, snk))

    @classmethod
    def yx(cls, mesh: Mesh, src: Coord, snk: Coord) -> "Path":
        """The YX route (vertical first, then horizontal)."""
        return cls(mesh, src, snk, yx_moves(src, snk))

    @classmethod
    def from_validated(
        cls,
        mesh: Mesh,
        src: Coord,
        snk: Coord,
        moves: str,
        link_ids: Sequence[int] | np.ndarray | None = None,
    ) -> "Path":
        """Trusted fast constructor for internally generated move strings.

        Skips endpoint and move-string re-validation — the caller warrants
        that ``moves`` is a Manhattan move string joining ``src`` to ``snk``
        (greedy/two-bend/XYI inner loops construct thousands of already
        valid paths).  When ``link_ids`` is omitted it is computed with the
        vectorised kernel; when given, ownership transfers to the path
        (the array is frozen in place).
        """
        from repro.mesh.kernel import links_from_vmask, moves_to_vmask

        self = object.__new__(cls)
        self.mesh = mesh
        self.src = (int(src[0]), int(src[1]))
        self.snk = (int(snk[0]), int(snk[1]))
        self.moves = moves
        if link_ids is None:
            su, sv = direction_steps(direction_of(src, snk))
            arr = links_from_vmask(mesh, self.src, su, sv, moves_to_vmask(moves))
        else:
            arr = np.asarray(link_ids, dtype=np.int64)
        if arr.flags.writeable:
            arr.setflags(write=False)
        self.link_ids = arr
        return self

    @classmethod
    def from_links(
        cls, mesh: Mesh, src: Coord, snk: Coord, link_ids: Sequence[int]
    ) -> "Path":
        """Build a path from a link-id sequence, recovering the move string."""
        moves = []
        cur = src
        for lid in link_ids:
            tail, head = mesh.link_endpoints(int(lid))
            if tail != cur:
                raise InvalidParameterError(
                    f"link {mesh.link_str(int(lid))} does not start at {cur}"
                )
            moves.append(MOVE_V if tail[1] == head[1] else MOVE_H)
            cur = head
        if cur != snk:
            raise InvalidParameterError(f"link sequence ends at {cur}, expected {snk}")
        return cls(mesh, src, snk, "".join(moves))

    # accessors ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.moves)

    @property
    def length(self) -> int:
        """Number of hops (= the Manhattan distance src→snk)."""
        return len(self.moves)

    def cores(self) -> List[Coord]:
        """Sequence of visited cores, endpoints included."""
        return moves_to_cores(self.src, self.snk, self.moves)

    def uses_link(self, lid: int) -> bool:
        """True when the path traverses link ``lid``."""
        return bool(np.any(self.link_ids == lid))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Path)
            and self.mesh == other.mesh
            and self.src == other.src
            and self.snk == other.snk
            and self.moves == other.moves
        )

    def __hash__(self) -> int:
        return hash((self.mesh, self.src, self.snk, self.moves))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Path({self.src}->{self.snk}, {self.moves!r})"


class CommDag:
    """The DAG of all Manhattan paths from ``src`` to ``snk``.

    Nodes are *progress* coordinates ``(x, y)`` with ``0 <= x <= Δu`` and
    ``0 <= y <= Δv``: the number of vertical / horizontal hops already
    taken.  The node ``(x, y)`` corresponds to the physical core
    ``(src_u + su*x, src_v + sv*y)``.  Edges advance one band: node
    ``(x, y)`` at band ``t = x + y`` connects to ``(x+1, y)`` via a vertical
    mesh link and to ``(x, y+1)`` via a horizontal one.

    ``band(t)`` lists the links crossing from diagonal ``t`` to ``t + 1``
    *inside the communication's rectangle* — the per-communication
    restriction of :func:`repro.mesh.diagonals.band_links_full`.
    """

    __slots__ = (
        "mesh",
        "src",
        "snk",
        "direction",
        "du",
        "dv",
        "su",
        "sv",
        "length",
        "_bands",
        "_edge_info",
        "_link_arrays",
        "_band_bits",
        "_live",
    )

    def __init__(self, mesh: Mesh, src: Coord, snk: Coord):
        mesh.check_core(*src)
        mesh.check_core(*snk)
        if src == snk:
            raise InvalidParameterError(f"communication endpoints coincide at {src}")
        self.mesh = mesh
        self.src = src
        self.snk = snk
        self.direction = direction_of(src, snk)
        self.su, self.sv = direction_steps(self.direction)
        self.du = abs(snk[0] - src[0])
        self.dv = abs(snk[1] - src[1])
        self.length = self.du + self.dv
        self._bands: List[List[int]] = []
        self._edge_info = {}  # lid -> (x, y, kind) of its tail node
        for t in range(self.length):
            band: List[int] = []
            for x in range(max(0, t - self.dv), min(t, self.du) + 1):
                y = t - x
                if x < self.du:
                    lid = self._link_of(x, y, MOVE_V)
                    band.append(lid)
                    self._edge_info[lid] = (x, y, MOVE_V)
                if y < self.dv:
                    lid = self._link_of(x, y, MOVE_H)
                    band.append(lid)
                    self._edge_info[lid] = (x, y, MOVE_H)
            self._bands.append(band)
        self._link_arrays = None
        self._band_bits = None
        self._live = _UNSET

    # geometry -----------------------------------------------------------
    def node_core(self, x: int, y: int) -> Coord:
        """Physical core of progress node ``(x, y)``."""
        if not (0 <= x <= self.du and 0 <= y <= self.dv):
            raise InvalidParameterError(
                f"progress node ({x}, {y}) outside [0,{self.du}]x[0,{self.dv}]"
            )
        return (self.src[0] + self.su * x, self.src[1] + self.sv * y)

    def _link_of(self, x: int, y: int, kind: str) -> int:
        tail = self.node_core(x, y)
        head = self.node_core(x + 1, y) if kind == MOVE_V else self.node_core(x, y + 1)
        return self.mesh.link_between(tail, head)

    def edge(self, x: int, y: int, kind: str) -> int:
        """Mesh link id of the DAG edge leaving node ``(x, y)``.

        ``kind`` is ``'V'`` (toward ``(x+1, y)``) or ``'H'`` (toward
        ``(x, y+1)``); raises when the edge would leave the rectangle.
        """
        if kind == MOVE_V:
            if x >= self.du:
                raise InvalidParameterError(
                    f"no vertical edge from progress node ({x}, {y})"
                )
        elif kind == MOVE_H:
            if y >= self.dv:
                raise InvalidParameterError(
                    f"no horizontal edge from progress node ({x}, {y})"
                )
        else:
            raise InvalidParameterError(f"kind must be 'H' or 'V', got {kind!r}")
        return self._link_of(x, y, kind)

    def band(self, t: int) -> List[int]:
        """Link ids crossing band ``t`` (``0 <= t < length``)."""
        if not 0 <= t < self.length:
            raise InvalidParameterError(
                f"band index {t} out of range [0, {self.length})"
            )
        return self._bands[t]

    def bands(self) -> List[List[int]]:
        """All bands, in order (list of lists of link ids)."""
        return self._bands

    def link_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat read-only ``(lids, tails_x, tails_y)`` of every DAG edge.

        Band order, as :meth:`all_link_ids`; the tails are progress
        coordinates (an edge belongs to band ``tails_x + tails_y``).  Built
        once per DAG and cached — the IG look-ahead grades and tabulates
        through it, and the displacement-keyed DAG pool of
        :class:`repro.core.problem.RoutingProblem` shares the cache across
        communications with equal endpoints.
        """
        if self._link_arrays is None:
            rows = [(lid, *self._edge_info[lid][:2]) for lid in self.all_link_ids()]
            self._link_arrays = tuple(
                np.array(col, dtype=np.int64) for col in zip(*rows)
            )
            for arr in self._link_arrays:
                arr.setflags(write=False)
        return self._link_arrays

    def band_bits(self) -> Tuple[List[List[Tuple[int, int, bool]]], dict]:
        """Per band, ``(lid, bit, vertical)`` of each edge, and their index.

        ``bit`` is the node-bitmask value ``1 << (x*(Δv+1) + y)`` of the
        edge's tail (see :func:`node_reachability`) and ``vertical`` tells
        which of the two masks holds it.  The second item maps each link
        id to ``(band, bit, vertical)``.  Cached and shared across pooled
        communications, so consumers must treat both as read-only.
        """
        if self._band_bits is None:
            w = self.dv + 1
            rows: List[List[Tuple[int, int, bool]]] = []
            pos = {}
            for t, band in enumerate(self._bands):
                row = []
                for lid in band:
                    x, y, kind = self._edge_info[lid]
                    bit, vertical = 1 << (x * w + y), kind == MOVE_V
                    row.append((lid, bit, vertical))
                    pos[lid] = (t, bit, vertical)
                rows.append(row)
            self._band_bits = (rows, pos)
        return self._band_bits

    def node_masks(self, ok: np.ndarray | None = None) -> Tuple[int, int]:
        """Tail bitmasks ``(av, ah)`` of the vertical / horizontal edges.

        With ``ok`` (a per-mesh-link boolean array) only the edges whose
        link it marks are included; without it every DAG edge is.
        """
        av = ah = 0
        for row in self.band_bits()[0]:
            for lid, bit, vertical in row:
                if ok is None or ok[lid]:
                    if vertical:
                        av |= bit
                    else:
                        ah |= bit
        return av, ah

    def edge_tail(self, lid: int) -> Tuple[int, int, str]:
        """``(x, y, kind)`` of the DAG edge using mesh link ``lid``.

        ``kind`` is ``'V'`` or ``'H'``; raises if the link is not an edge of
        this DAG.
        """
        try:
            return self._edge_info[lid]
        except KeyError:
            raise InvalidParameterError(
                f"link {self.mesh.link_str(lid)} is not on any Manhattan path "
                f"{self.src}->{self.snk}"
            ) from None

    def all_link_ids(self) -> List[int]:
        """Every mesh link usable by some Manhattan path of this pair."""
        return [lid for band in self._bands for lid in band]

    def path_count(self) -> int:
        """Number of distinct Manhattan paths (``C(Δu+Δv, Δu)``)."""
        return count_paths(self.du, self.dv)

    # fault-aware reachability -------------------------------------------
    def live_reachability(
        self,
    ) -> Tuple[np.ndarray, np.ndarray] | None:
        """Progress-node reachability over *alive* links, or ``None``.

        Returns ``None`` on pristine meshes (every node trivially live).
        Otherwise a pair of read-only ``(Δu+1) × (Δv+1)`` boolean grids
        ``(fwd, bwd)``: ``fwd[x, y]`` marks nodes reachable from the source
        and ``bwd[x, y]`` nodes from which the sink is reachable, both
        using only links the mesh's fault mask allows.  Cached per DAG (and
        therefore shared through the problem's DAG pool).
        """
        if self._live is _UNSET:
            alive = self.mesh.link_mask
            if alive is None:
                self._live = None
            else:
                masks = node_reachability(self.du, self.dv, *self.node_masks(alive))
                self._live = tuple(_bit_grid(m, self.du, self.dv) for m in masks)
        return self._live

    def has_live_path(self) -> bool:
        """True when at least one Manhattan path avoids every dead link."""
        live = self.live_reachability()
        return live is None or bool(live[0][self.du, self.dv])

    # path enumeration ---------------------------------------------------
    def enumerate_moves(
        self, limit: int | None = None, *, alive_only: bool = False
    ) -> Iterator[str]:
        """Yield all move strings, lexicographically ('H' < 'V').

        Parameters
        ----------
        limit:
            Optional hard cap; raises :class:`InvalidParameterError` if the
            total count exceeds it (protects exhaustive solvers from
            combinatorial blow-up).
        alive_only:
            Restrict the enumeration to paths avoiding every dead link of
            the mesh's fault mask.  Yields nothing when no live path
            exists; a no-op on pristine meshes.
        """
        total = self.path_count()
        if limit is not None and total > limit:
            raise InvalidParameterError(
                f"{total} Manhattan paths exceed the requested limit {limit}"
            )
        live = self.live_reachability() if alive_only else None
        if alive_only and live is not None and not live[0][self.du, self.dv]:
            return iter(())
        alive = self.mesh.link_mask if live is not None else None

        def usable(x: int, y: int, kind: str, x2: int, y2: int) -> bool:
            if alive is None:
                return True
            return bool(alive[self._link_of(x, y, kind)]) and bool(
                live[1][x2, y2]
            )

        def rec(x: int, y: int, prefix: List[str]) -> Iterator[str]:
            if x == self.du and y == self.dv:
                yield "".join(prefix)
                return
            if y < self.dv and usable(x, y, MOVE_H, x, y + 1):
                prefix.append(MOVE_H)
                yield from rec(x, y + 1, prefix)
                prefix.pop()
            if x < self.du and usable(x, y, MOVE_V, x + 1, y):
                prefix.append(MOVE_V)
                yield from rec(x + 1, y, prefix)
                prefix.pop()

        return rec(0, 0, [])

    def enumerate_paths(
        self, limit: int | None = None, *, alive_only: bool = False
    ) -> Iterator[Path]:
        """Yield all Manhattan paths as :class:`Path` objects.

        :meth:`enumerate_moves` walks the rectangle's DAG, so its move
        strings are legal by construction and the trusted constructor
        skips re-validation (the exhaustive optimum enumerates *every*
        path of an instance through this).
        """
        for moves in self.enumerate_moves(limit=limit, alive_only=alive_only):
            yield Path.from_validated(self.mesh, self.src, self.snk, moves)

    def random_moves(
        self, rng: np.random.Generator, *, alive_only: bool = False
    ) -> str:
        """Draw a random Manhattan move string.

        The default draws uniformly over all ``C(Δu+Δv, Δu)`` paths.  With
        ``alive_only`` (and a faulty mesh with a surviving path) the draw
        walks the live DAG, choosing uniformly among the viable hops of
        each node — every live path has positive probability, though not
        necessarily uniform.  Falls back to the unconstrained draw when no
        live path exists.
        """
        if alive_only and self.mesh.link_mask is not None and self.has_live_path():
            alive = self.mesh.link_mask
            _, bwd = self.live_reachability()
            x = y = 0
            out: List[str] = []
            while (x, y) != (self.du, self.dv):
                viable = []
                if x < self.du and alive[self._link_of(x, y, MOVE_V)] and bwd[x + 1, y]:
                    viable.append((MOVE_V, x + 1, y))
                if y < self.dv and alive[self._link_of(x, y, MOVE_H)] and bwd[x, y + 1]:
                    viable.append((MOVE_H, x, y + 1))
                mv, x, y = viable[int(rng.integers(len(viable)))]
                out.append(mv)
            return "".join(out)
        slots = [MOVE_V] * self.du + [MOVE_H] * self.dv
        rng.shuffle(slots)
        return "".join(slots)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommDag({self.src}->{self.snk}, d={self.direction}, "
            f"{self.du}x{self.dv})"
        )
