"""Flat-array routing kernel: vectorised move→link conversion.

The hop-by-hop primitives of :mod:`repro.mesh.moves` rebuild every path
through Python-level :func:`~repro.mesh.topology.Mesh.link_between` calls —
fine for one path, ruinous inside heuristic inner loops that construct
thousands of them.  This module provides the batched equivalents:

* :func:`moves_to_vmask` / :func:`stack_vmasks` — move strings as ``bool``
  arrays (``True`` = vertical hop), the kernel's native representation;
* :func:`links_from_vmask` — link ids of one path, a row-batch of paths, or
  an arbitrarily-shaped move array, computed with a cumulative sum over the
  move array and O(1) link-id arithmetic (no per-hop Python);
* :class:`FlatRoutingKernel` — per-problem flattened hop metadata enabling
  *population-level* evaluation: the link ids and link loads of a whole
  batch of complete routings (one move string per communication per row) in
  a handful of NumPy operations;
* :class:`MultiProblemKernel` — stacked evaluation of one routing per
  instance across a batch of instances: loads in one ``np.bincount`` over
  the routings' link ids, then power, validity and reports per power
  model in one pass.

The scalar :func:`repro.mesh.moves.moves_to_links` stays the reference
oracle the vectorised conversions are tested against.

Link ids follow the orientation-major layout documented in
:mod:`repro.mesh.topology`; the arithmetic below mirrors
``link_east/west/south/north`` without the bounds checks (inputs are either
validated once up front or come from trusted generators).
"""

from __future__ import annotations

import os

from typing import List, Sequence, Tuple

import numpy as np

from repro.mesh.diagonals import direction_of, direction_steps
from repro.mesh.topology import Mesh
from repro.utils.validation import InvalidParameterError

Coord = Tuple[int, int]

#: byte value of the vertical move character
_ORD_V = ord("V")
_ORD_H = ord("H")


def moves_to_vmask(moves: str) -> np.ndarray:
    """Move string → boolean array (``True`` where the hop is vertical).

    Raises on characters outside ``{'H', 'V'}`` so downstream arithmetic
    never sees foreign moves.
    """
    buf = np.frombuffer(moves.encode("ascii"), dtype=np.uint8)
    vmask = buf == _ORD_V
    if not np.all(vmask | (buf == _ORD_H)):
        bad = set(moves) - {"H", "V"}
        raise InvalidParameterError(f"move string contains invalid moves {bad}")
    return vmask


def stack_vmasks(moves_list: Sequence[str]) -> np.ndarray:
    """Equal-length move strings → one boolean matrix (one row per string)."""
    if not moves_list:
        return np.zeros((0, 0), dtype=bool)
    length = len(moves_list[0])
    if any(len(m) != length for m in moves_list):
        raise InvalidParameterError(
            "stack_vmasks needs equal-length move strings"
        )
    buf = np.frombuffer("".join(moves_list).encode("ascii"), dtype=np.uint8)
    vmask = buf == _ORD_V
    if not np.all(vmask | (buf == _ORD_H)):
        bad = set("".join(moves_list)) - {"H", "V"}
        raise InvalidParameterError(f"move strings contain invalid moves {bad}")
    return vmask.reshape(len(moves_list), length)


def direction_link_bases(mesh: Mesh, su: int, sv: int) -> Tuple[int, int]:
    """Base offsets folding a direction into the dense link-id layout.

    Returns ``(vbase, hbase)`` such that, for a communication stepping
    ``(su, sv)``, the hop leaving tail core ``(u, v)`` has id

    * ``vbase + u*q + v`` when vertical (south ``2ne``; north folds the
      ``(u-1)`` shift into ``2ne + ns - q``),
    * ``hbase + u*(q-1) + v`` when horizontal (east ``0``; west folds the
      ``(v-1)`` shift into ``ne - 1``).

    This is the **single home** of the E/W/S/N id-block arithmetic of
    :class:`~repro.mesh.topology.Mesh` used by the fast paths (the kernel
    and the greedy hop loop); change the layout there and here, nowhere
    else.
    """
    ne, ns, q = mesh._ne, mesh._ns, mesh.q
    vbase = 2 * ne if su > 0 else 2 * ne + ns - q
    hbase = 0 if sv > 0 else ne - 1
    return vbase, hbase


def _link_ids_from_coords(
    mesh: Mesh,
    su: int,
    sv: int,
    u: np.ndarray,
    v: np.ndarray,
    vmask: np.ndarray,
) -> np.ndarray:
    """Link ids for hops leaving tail cores ``(u, v)`` along ``(su, sv)``.

    ``vmask`` selects vertical hops; see :func:`direction_link_bases` for
    the id arithmetic.
    """
    vbase, hbase = direction_link_bases(mesh, su, sv)
    q = mesh.q
    return np.where(vmask, vbase + u * q + v, hbase + u * (q - 1) + v)


def links_from_vmask(
    mesh: Mesh, src: Coord, su: int, sv: int, vmask: np.ndarray
) -> np.ndarray:
    """Link ids traversed by the move array ``vmask`` starting at ``src``.

    ``vmask`` may be 1-D (one path) or 2-D (a batch of same-length paths,
    one per row); the result has the same shape.  The caller guarantees the
    moves stay on the mesh (they come from a validated move string or a
    trusted generator) — there is no bounds checking here.
    """
    vm = vmask.astype(np.int64)
    # exclusive cumulative hop counts = progress coordinates of each tail
    x = np.cumsum(vm, axis=-1) - vm
    hm = 1 - vm
    y = np.cumsum(hm, axis=-1) - hm
    u = src[0] + su * x
    v = src[1] + sv * y
    return _link_ids_from_coords(mesh, su, sv, u, v, vmask)


class FlatRoutingKernel:
    """Flattened per-hop metadata of a fixed communication set.

    One complete 1-MP routing assigns each communication a Manhattan move
    string whose length is fixed by its displacement, so a routing flattens
    into a single move array of ``total_hops = Σ lengths`` entries.  The
    kernel precomputes, per hop slot, the owning communication's source
    coordinates, direction steps and rate — after which converting any
    routing (or a whole population of routings) into link ids and link
    loads is pure NumPy.

    Parameters
    ----------
    mesh:
        The platform.
    endpoints:
        ``(src, snk)`` per communication, in problem order.
    rates:
        Communication rates, used as per-hop load weights.
    """

    __slots__ = (
        "mesh",
        "num_comms",
        "lengths",
        "total_hops",
        "starts",
        "_lengths_l",
        "_du",
        "_src_u",
        "_src_v",
        "_su",
        "_sv",
        "_south_base",
        "_west_base",
        "_hop_rates",
    )

    def __init__(
        self,
        mesh: Mesh,
        endpoints: Sequence[Tuple[Coord, Coord]],
        rates: Sequence[float],
    ):
        if len(endpoints) != len(rates):
            raise InvalidParameterError(
                f"{len(endpoints)} endpoint pairs vs {len(rates)} rates"
            )
        self.mesh = mesh
        self.num_comms = len(endpoints)
        lengths = np.empty(self.num_comms, dtype=np.int64)
        su_c = np.empty(self.num_comms, dtype=np.int64)
        sv_c = np.empty(self.num_comms, dtype=np.int64)
        src_u_c = np.empty(self.num_comms, dtype=np.int64)
        src_v_c = np.empty(self.num_comms, dtype=np.int64)
        vbase_c = np.empty(self.num_comms, dtype=np.int64)
        hbase_c = np.empty(self.num_comms, dtype=np.int64)
        du_c = np.empty(self.num_comms, dtype=np.int64)
        for i, (src, snk) in enumerate(endpoints):
            mesh.check_core(*src)
            mesh.check_core(*snk)
            su, sv = direction_steps(direction_of(src, snk))
            du_c[i] = abs(snk[0] - src[0])
            lengths[i] = du_c[i] + abs(snk[1] - src[1])
            su_c[i], sv_c[i] = su, sv
            src_u_c[i], src_v_c[i] = src
            vbase_c[i], hbase_c[i] = direction_link_bases(mesh, su, sv)
        self._du = du_c
        self.lengths = lengths
        self._lengths_l = lengths.tolist()
        self.total_hops = int(lengths.sum())
        self.starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        # broadcast per-communication metadata onto the hop axis, with the
        # direction folded into per-hop link-id bases (see
        # direction_link_bases) so the V/H arithmetic vectorises across
        # communications with different direction steps
        self._src_u = np.repeat(src_u_c, lengths)
        self._src_v = np.repeat(src_v_c, lengths)
        self._su = np.repeat(su_c, lengths)
        self._sv = np.repeat(sv_c, lengths)
        self._south_base = np.repeat(vbase_c, lengths)
        self._west_base = np.repeat(hbase_c, lengths)
        rates_arr = np.asarray(rates, dtype=np.float64)
        self._hop_rates = np.repeat(rates_arr, lengths)
        for arr in (
            self._du,
            self.lengths,
            self.starts,
            self._src_u,
            self._src_v,
            self._su,
            self._sv,
            self._south_base,
            self._west_base,
            self._hop_rates,
        ):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    def routing_vmask(self, moves_list: Sequence[str]) -> np.ndarray:
        """One routing's move strings → flat boolean hop array.

        Validates per communication — string length and vertical-hop count
        against the displacement — so a malformed genome raises here
        instead of silently yielding wrong link geometry downstream
        (:meth:`links`/:meth:`loads` have no bounds checks by design).
        """
        if len(moves_list) != self.num_comms:
            raise InvalidParameterError(
                f"expected {self.num_comms} move strings, got {len(moves_list)}"
            )
        if self.num_comms == 0:
            return np.zeros(0, dtype=bool)
        for i, m in enumerate(moves_list):
            if len(m) != self.lengths[i]:
                raise InvalidParameterError(
                    f"move string {i} has {len(m)} hops, its communication "
                    f"needs {self.lengths[i]}"
                )
        flat = "".join(moves_list)
        buf = np.frombuffer(flat.encode("ascii"), dtype=np.uint8)
        vmask = buf == _ORD_V
        if not np.all(vmask | (buf == _ORD_H)):
            bad = set(flat) - {"H", "V"}
            raise InvalidParameterError(
                f"move strings contain invalid moves {bad}"
            )
        nv = np.add.reduceat(vmask.astype(np.int64), self.starts)
        if not np.array_equal(nv, self._du):
            i = int(np.nonzero(nv != self._du)[0][0])
            raise InvalidParameterError(
                f"move string {i} has {nv[i]} V hops, its communication "
                f"needs {self._du[i]}"
            )
        return vmask

    def population_vmask(
        self, genomes: Sequence[Sequence[str]]
    ) -> np.ndarray:
        """A population of routings → ``(len(genomes), total_hops)`` matrix.

        The whole population is validated and converted in one pass: one
        string join, one ``frombuffer``, and a single ``reduceat`` for the
        per-communication V-hop counts of every genome — the per-genome
        Python loop this replaces dominated the GA's generation cost.
        Malformed genomes fall back to :meth:`routing_vmask` for its
        precise per-communication error.
        """
        if not genomes:
            return np.zeros((0, self.total_hops), dtype=bool)
        nc = self.num_comms
        lengths_l = self._lengths_l
        for g in genomes:
            if len(g) != nc:
                raise InvalidParameterError(
                    f"expected {nc} move strings, got {len(g)}"
                )
            if list(map(len, g)) != lengths_l:
                self.routing_vmask(list(g))  # raises the precise error
        flat = "".join(["".join(g) for g in genomes])
        buf = np.frombuffer(flat.encode("ascii"), dtype=np.uint8)
        vmask = buf == _ORD_V
        if not np.all(vmask | (buf == _ORD_H)):
            bad = set(flat) - {"H", "V"}
            raise InvalidParameterError(
                f"move strings contain invalid moves {bad}"
            )
        vmask = vmask.reshape(len(genomes), self.total_hops)
        if nc:
            nv = np.add.reduceat(vmask.astype(np.int64), self.starts, axis=1)
            if not np.array_equal(nv, np.broadcast_to(self._du, nv.shape)):
                row = int(np.nonzero((nv != self._du).any(axis=1))[0][0])
                self.routing_vmask(list(genomes[row]))  # precise error
        return vmask

    def links(self, vmask: np.ndarray) -> np.ndarray:
        """Link id of every hop (segmented-cumsum kernel).

        ``vmask`` is a flat hop array (``total_hops``,) or a population
        matrix (``P × total_hops``); the output has the same shape.
        """
        vm = vmask.astype(np.int64)
        cum_v = np.cumsum(vm, axis=-1)
        hm = 1 - vm
        cum_h = np.cumsum(hm, axis=-1)
        # reset the cumulative counts at each communication boundary
        starts = self.starts
        base_v = np.take(cum_v, starts, axis=-1) - np.take(vm, starts, axis=-1)
        base_h = np.take(cum_h, starts, axis=-1) - np.take(hm, starts, axis=-1)
        lengths = self.lengths
        x = cum_v - vm - np.repeat(base_v, lengths, axis=-1)
        y = cum_h - hm - np.repeat(base_h, lengths, axis=-1)
        u = self._src_u + self._su * x
        v = self._src_v + self._sv * y
        q = self.mesh.q
        vlid = self._south_base + u * q + v
        hlid = self._west_base + u * (q - 1) + v
        return np.where(vmask, vlid, hlid)

    def loads(self, vmask: np.ndarray) -> np.ndarray:
        """Link-load vector(s) of the routing(s) encoded by ``vmask``.

        Returns shape ``(num_links,)`` for a flat hop array and
        ``(P, num_links)`` for a population matrix — ready for
        :meth:`repro.core.power.PowerModel.total_power_graded_many`.
        """
        links = self.links(vmask)
        nl = self.mesh.num_links
        if links.ndim == 1:
            return np.bincount(
                links, weights=self._hop_rates, minlength=nl
            ).astype(np.float64)
        pop = links.shape[0]
        offset = (np.arange(pop, dtype=np.int64) * nl)[:, None]
        flat = (links + offset).ravel()
        weights = np.broadcast_to(self._hop_rates, links.shape).ravel()
        return np.bincount(flat, weights=weights, minlength=pop * nl).reshape(
            pop, nl
        )

    # ------------------------------------------------------------------
    # scenario threading (fault masks and power scaling)
    # ------------------------------------------------------------------
    def graded_powers(self, power, vmask: np.ndarray):
        """Graded total power of the routing(s), mesh profile threaded.

        Pristine meshes reduce to the plain
        :meth:`~repro.core.power.PowerModel.total_power_graded` /
        ``total_power_graded_many`` calls bit for bit; faulty or
        heterogeneous meshes feed the mask / scale vectors through in the
        same single NumPy pass.
        """
        loads = self.loads(vmask)
        mesh = self.mesh
        if loads.ndim == 1:
            return power.total_power_graded(
                loads, scale=mesh.link_scale, dead=mesh.dead_mask
            )
        return power.total_power_graded_many(
            loads, scale=mesh.link_scale, dead=mesh.dead_mask
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlatRoutingKernel({self.num_comms} comms, "
            f"{self.total_hops} hops)"
        )


# ----------------------------------------------------------------------
# multi-problem (stacked) evaluation tier
# ----------------------------------------------------------------------

_STACKED_MODES = ("auto", "0", "1")


def stacked_mode() -> str:
    """The validated ``REPRO_STACKED`` mode: ``"auto"``, ``"0"`` or ``"1"``.

    ``auto`` (default, also the empty string) and ``1`` enable the stacked
    multi-problem evaluation paths; ``0`` forces the per-instance looped
    reference paths everywhere.  The variable is re-read on every decision
    so tests (and the benches) can pin either side per call.
    """
    raw = os.environ.get("REPRO_STACKED", "")
    value = raw.strip().lower()
    if not value:
        return "auto"
    if value not in _STACKED_MODES:
        raise InvalidParameterError(
            f"REPRO_STACKED must be one of {', '.join(_STACKED_MODES)}; "
            f"got {raw!r}"
        )
    return value


def stacked_enabled() -> bool:
    """True unless ``REPRO_STACKED=0`` pins the looped reference paths."""
    return stacked_mode() != "0"


def _row_sums(flat: np.ndarray, bounds) -> np.ndarray:
    """Per-row ``np.sum`` of a flat array tiled by ``bounds``.

    ``bounds`` are ``(start, end)`` pairs covering ``flat`` contiguously in
    order.  Equal-width rows reduce through one C-contiguous
    ``(B, width).sum(axis=1)`` pass; NumPy's pairwise summation over the
    last axis of a contiguous matrix visits each row exactly like a 1-D sum
    of that row, so both branches are bit-identical to summing each
    instance's standalone vector.
    """
    n = len(bounds)
    width = bounds[0][1] - bounds[0][0]
    if all(e - s == width for s, e in bounds):
        return flat.reshape(n, width).sum(axis=1)
    return np.array([np.sum(flat[s:e]) for s, e in bounds])


class MultiProblemKernel:
    """Stacked evaluation of a batch of problem instances.

    Stacks B instances — possibly with different mesh shapes, fault masks,
    power-scale profiles and power models — into flat batch arrays: each
    instance's links occupy a disjoint block of the batch link-id space
    (``link_offsets``), the loads of one routing per instance land there in
    a single ``np.bincount`` (:meth:`loads_from_routings`), and power /
    validity / report evaluation runs one NumPy pass over the whole batch
    instead of a Python-level loop over instances.

    Mixed shapes are handled by *exact concatenation*, never zero-padding:
    every per-instance quantity lives in its own contiguous slice of the
    flat arrays, so per-instance reductions (``np.sum`` over a contiguous
    slice, boolean gathers, ``max``) reproduce the standalone per-instance
    results bit for bit — padding would change NumPy's pairwise-summation
    tree and is therefore never used.  Instances with different
    :class:`~repro.core.power.PowerModel` parameters are grouped by model
    equality and graded one pass per distinct model (one pass total in the
    common homogeneous case).

    The per-link ``scale`` / ``dead`` profiles of pristine instances are
    substituted with ones / ``False`` inside a heterogeneous batch; both
    substitutions are bit-exact (``x * 1.0`` is the identity on the finite
    powers produced here, and a ``False`` dead mask leaves every
    ``np.where`` untouched).
    """

    __slots__ = (
        "problems",
        "num_problems",
        "link_counts",
        "link_offsets",
        "total_links",
        "_scales",
        "_deads",
        "_scale_flat",
        "_dead_flat",
        "_power_groups",
    )

    def __init__(self, problems: Sequence) -> None:
        if not problems:
            raise InvalidParameterError(
                "MultiProblemKernel needs at least one problem"
            )
        self.problems = list(problems)
        self.num_problems = len(self.problems)
        self.link_counts = np.asarray(
            [p.mesh.num_links for p in self.problems], dtype=np.int64
        )
        self.link_offsets = np.concatenate(
            ([0], np.cumsum(self.link_counts))
        )
        self.total_links = int(self.link_offsets[-1])
        self._scales = [p.mesh.link_scale for p in self.problems]
        self._deads = [p.mesh.dead_mask for p in self.problems]
        if all(s is None for s in self._scales):
            self._scale_flat = None
        else:
            self._scale_flat = np.concatenate(
                [
                    s
                    if s is not None
                    else np.ones(int(nl), dtype=np.float64)
                    for s, nl in zip(self._scales, self.link_counts)
                ]
            )
        if all(d is None for d in self._deads):
            self._dead_flat = None
        else:
            self._dead_flat = np.concatenate(
                [
                    d if d is not None else np.zeros(int(nl), dtype=bool)
                    for d, nl in zip(self._deads, self.link_counts)
                ]
            )
        groups: dict = {}
        for b, p in enumerate(self.problems):
            groups.setdefault(p.power, []).append(b)
        self._power_groups = [
            (power, tuple(idxs)) for power, idxs in groups.items()
        ]
        for arr in (self.link_counts, self.link_offsets):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    def loads_from_routings(self, routings: Sequence) -> np.ndarray:
        """Flat batch load vector of one :class:`Routing` per instance.

        Replicates :meth:`repro.core.routing.Routing.link_loads` for every
        instance in a single ``np.bincount`` over offset link ids, and
        populates each routing's load cache with its (read-only) slice of
        the result.
        """
        if len(routings) != self.num_problems:
            raise InvalidParameterError(
                f"expected {self.num_problems} routings, got {len(routings)}"
            )
        loffs = self.link_offsets
        lid_parts: List[np.ndarray] = []
        flow_rates: List[float] = []
        flow_lens: List[int] = []
        inst_hops = np.zeros(self.num_problems, dtype=np.int64)
        for b, routing in enumerate(routings):
            if routing.problem is not self.problems[b]:
                raise InvalidParameterError(
                    f"routing {b} belongs to a different problem instance"
                )
            total = 0
            for fl in routing.flows:
                for f in fl:
                    lids = f.path.link_ids
                    lid_parts.append(lids)
                    flow_rates.append(f.rate)
                    total += lids.size
                    flow_lens.append(lids.size)
            inst_hops[b] = total
        weights = np.repeat(
            np.asarray(flow_rates, dtype=np.float64),
            np.asarray(flow_lens, dtype=np.int64),
        )
        # one offset add for the whole batch instead of one per flow;
        # integer addition, so the bincount sees the exact same ids
        ids = np.concatenate(lid_parts)
        if self.num_problems > 1:
            ids = ids + np.repeat(loffs[:-1], inst_hops)
        flat = np.bincount(
            ids,
            weights=weights,
            minlength=self.total_links,
        ).astype(np.float64)
        flat.setflags(write=False)
        for b, routing in enumerate(routings):
            if routing._loads is None:
                routing._loads = flat[loffs[b] : loffs[b + 1]]
        return flat

    # ------------------------------------------------------------------
    def _group_views(self, loads_flat: np.ndarray):
        """Per power-model group: contiguous load/profile segments + bounds.

        Yields ``(power, idxs, seg, scale_seg, dead_seg, bounds)`` where
        ``bounds[i]`` is instance ``idxs[i]``'s ``(start, end)`` slice
        inside ``seg``.  The homogeneous single-group case reuses the flat
        arrays without copying.
        """
        loffs = self.link_offsets
        single = len(self._power_groups) == 1
        for power, idxs in self._power_groups:
            if single:
                seg = loads_flat
                sc = self._scale_flat
                dd = self._dead_flat
                bounds = [
                    (int(loffs[b]), int(loffs[b + 1])) for b in idxs
                ]
            else:
                parts = [loads_flat[loffs[b] : loffs[b + 1]] for b in idxs]
                seg = np.concatenate(parts)
                sc = (
                    None
                    if self._scale_flat is None
                    else np.concatenate(
                        [
                            self._scale_flat[loffs[b] : loffs[b + 1]]
                            for b in idxs
                        ]
                    )
                )
                dd = (
                    None
                    if self._dead_flat is None
                    else np.concatenate(
                        [
                            self._dead_flat[loffs[b] : loffs[b + 1]]
                            for b in idxs
                        ]
                    )
                )
                bounds = []
                pos = 0
                for b in idxs:
                    nl = int(self.link_counts[b])
                    bounds.append((pos, pos + nl))
                    pos += nl
            yield power, idxs, seg, sc, dd, bounds

    def total_powers(self, loads_flat: np.ndarray) -> np.ndarray:
        """Per-instance strict total power (``inf`` on overload), batched.

        ``out[b]`` is bit-identical to ``Routing.total_power()`` of the
        instance's routing.
        """
        out = np.empty(self.num_problems, dtype=np.float64)
        for power, idxs, seg, sc, dd, bounds in self._group_views(loads_flat):
            lp = power.link_power(seg, scale=sc, dead=dd)
            out[list(idxs)] = _row_sums(lp, bounds)
        return out

    def valids(self, loads_flat: np.ndarray) -> List[bool]:
        """Per-instance paper validity, batched comparisons.

        ``out[b]`` matches ``power_b.is_feasible_load(loads_b, dead=...)``.
        """
        out: List[bool] = [False] * self.num_problems
        for power, idxs, seg, sc, dd, bounds in self._group_views(loads_flat):
            ok = seg <= power.bandwidth * (1 + 1e-9)
            dl = None if dd is None else dd & (seg > 0)
            # all()/any() are associative, so the batched reduceat rows
            # are exactly the per-instance reductions
            starts = np.fromiter(
                (s for s, _ in bounds), dtype=np.int64, count=len(bounds)
            )
            ok_rows = np.bitwise_and.reduceat(ok, starts)
            bad_rows = (
                None if dl is None else np.bitwise_or.reduceat(dl, starts)
            )
            for i, b in enumerate(idxs):
                bad_dead = False if bad_rows is None else bool(bad_rows[i])
                out[b] = (not bad_dead) and bool(ok_rows[i])
        return out

    def reports(self, loads_flat: np.ndarray) -> List:
        """Per-instance :class:`~repro.core.evaluate.RoutingReport`, batched.

        Replicates :func:`repro.core.evaluate.loads_report` field by field:
        the elementwise passes (strict link power, quantisation, dynamic
        term, scaled leakage) run once per power group over the whole
        batch; the per-instance reductions are contiguous-slice sums /
        counts / gathers, each bit-identical to the standalone computation.
        The leakage term keeps :func:`loads_report`'s branch: a count
        times ``p_leak`` for unscaled instances (an ``int * float``
        product, *not* a sum), a where/sum only for scaled ones.
        """
        from repro.core.evaluate import RoutingReport

        out = [None] * self.num_problems
        for power, idxs, seg, sc, dd, bounds in self._group_views(loads_flat):
            bw = power.bandwidth
            act = seg > 0
            ok = seg <= bw * (1 + 1e-9)
            over = seg > bw * (1 + 1e-9)
            dl = None if dd is None else dd & act
            capped = np.minimum(seg, bw)
            # dynamic_power(capped, scale=...) elementwise replica
            qf = power.quantize(capped)
            qact = qf > 0
            with np.errstate(over="ignore", invalid="ignore"):
                dyn0 = power.p0 * np.power(
                    qf / power.freq_unit, power.alpha
                )
            dyn = dyn0 if sc is None else dyn0 * sc
            dyn_term = np.where(qact, dyn, 0.0)
            # static_power(loads, scale=...) elementwise replica (only
            # consumed for instances whose own scale profile is not None)
            st_term = (
                None
                if sc is None
                else np.where(act, power.p_leak * sc, 0.0)
            )
            # strict total power: link_power(seg) rebuilt from the capped
            # pass above instead of a second full quantize/np.power —
            # capped == seg wherever seg <= bandwidth, so only the
            # over-capacity links (usually none) are re-quantised and
            # re-powered, elementwise on the same inputs the replaced
            # full pass would see
            over_cap = seg > bw
            if over_cap.any():
                oidx = np.nonzero(over_cap)[0]
                dyn_strict = dyn0.copy()
                with np.errstate(over="ignore", invalid="ignore"):
                    dyn_strict[oidx] = power.p0 * np.power(
                        power.quantize(seg[oidx]) / power.freq_unit,
                        power.alpha,
                    )
            else:
                dyn_strict = dyn0
            lp = np.where(act, power.p_leak + dyn_strict, 0.0)
            if sc is not None:
                lp = lp * sc
            if dd is not None:
                lp = np.where(dd & act, np.inf, lp)
            dyn_sums = _row_sums(dyn_term, bounds)
            lp_sums = _row_sums(lp, bounds)
            st_sums = None if st_term is None else _row_sums(st_term, bounds)
            # counts, all/any and max are associative reductions — the
            # batched reduceat rows match the per-instance calls bit for
            # bit (loads are non-negative, so the max never needs the
            # 0.0 ``initial`` the per-row call supplies)
            starts = np.fromiter(
                (s for s, _ in bounds), dtype=np.int64, count=len(bounds)
            )
            act_rows = np.add.reduceat(act.astype(np.intp), starts)
            over_rows = np.add.reduceat(over.astype(np.intp), starts)
            ok_rows = np.bitwise_and.reduceat(ok, starts)
            max_rows = np.maximum.reduceat(seg, starts)
            if dl is None:
                bad_rows = dead_over_rows = None
            else:
                bad_rows = np.bitwise_or.reduceat(dl, starts)
                dead_over_rows = np.add.reduceat(
                    (dl & ok).astype(np.intp), starts
                )
            # the active-load mean keeps its pairwise sum: one gather of
            # every active load in the batch (slice order preserved),
            # then per-row contiguous-slice sums over it
            comp = seg[act]
            comp_ends = np.cumsum(act_rows)
            for i, (b, (s, e)) in enumerate(zip(idxs, bounds)):
                n_active = int(act_rows[i])
                overload = int(over_rows[i])
                bad_dead = False
                if self._deads[b] is not None:
                    bad_dead = bool(bad_rows[i])
                    overload += int(dead_over_rows[i])
                valid = (not bad_dead) and bool(ok_rows[i])
                if self._scales[b] is None:
                    static = float(n_active * power.p_leak)
                else:
                    static = float(st_sums[i])
                total = float(lp_sums[i]) if valid else float("inf")
                if n_active:
                    cs = int(comp_ends[i]) - n_active
                    mean_active = float(
                        np.sum(comp[cs : cs + n_active]) / n_active
                    )
                else:
                    mean_active = 0.0
                out[b] = RoutingReport(
                    valid=valid,
                    total_power=total,
                    static_power=static,
                    dynamic_power=float(dyn_sums[i]),
                    active_links=n_active,
                    max_load=float(max_rows[i]),
                    mean_active_load=mean_active,
                    overloaded_links=overload,
                )
        return out

    def evaluate_routings(self, routings: Sequence) -> List:
        """One :class:`RoutingReport` per routing, in one stacked pass.

        ``out[b]`` is bit-identical to
        ``evaluate_routing(routings[b])``.
        """
        return self.reports(self.loads_from_routings(routings))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiProblemKernel({self.num_problems} problems, "
            f"{self.total_links} links)"
        )
