"""Property tests for the multi-problem stacked evaluation tier.

The stacked tier's bit-compatibility contract decomposes into layer
equivalences, each fuzzed here over random instance batches (mixed mesh
shapes, fault masks, derated profiles, discrete and continuous power
models):

* :meth:`~repro.mesh.kernel.MultiProblemKernel.loads_from_routings`
  load accumulation == per-instance :meth:`Routing.link_loads`;
* stacked strict total powers, validity bits and full
  :class:`~repro.core.evaluate.RoutingReport` records == the
  per-instance reference, hex-exactly — including through NumPy's
  pairwise-summation regime (instances with > 128 links);
* the sweep runner's stacked trial path (``REPRO_STACKED=1``) == the
  looped reference (``REPRO_STACKED=0``) on every aggregate;
* the service batch front's stacked final grading == per-document
  :func:`handle_request_doc` bodies.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Communication, Mesh, PowerModel, RoutingProblem
from repro.core.evaluate import evaluate_routing
from repro.core.routing import Routing
from repro.heuristics.base import get_heuristic
from repro.heuristics.batch_eval import DeferredEval, evaluate_deferred
from repro.mesh.paths import Path
from repro.mesh.kernel import (
    MultiProblemKernel,
    _row_sums,
    stacked_enabled,
    stacked_mode,
)
from repro.scenarios.spec import MeshSpec, duplex
from repro.utils.validation import InvalidParameterError


def _mesh_variant(kind: str, p: int, q: int) -> Mesh:
    if kind == "pristine":
        return Mesh(p, q)
    if kind == "faulty":
        return MeshSpec(
            p, q, dead_links=duplex(((0, 0), (0, 1)), ((p - 1, q - 2), (p - 1, q - 1)))
        ).build()
    return MeshSpec.center_derated(p, q, factor=1.6, radius=1).build()


#: the batch pool the fuzzers draw instances from: shapes deliberately
#: mixed (ragged stacking), 8x6 has 188 > 128 links so report sums cross
#: NumPy's pairwise-summation block boundary, profiles cover fault masks
#: and derating, and the continuous model exercises the non-table grading
_VARIANTS = [
    ("pristine", 4, 4, "kh"),
    ("pristine", 3, 5, "kh"),
    ("faulty", 5, 5, "kh"),
    ("derated", 5, 4, "kh"),
    ("pristine", 8, 6, "kh"),
    ("derated", 4, 4, "cont"),
    ("faulty", 3, 5, "cont"),
]


def _power(tag: str) -> PowerModel:
    if tag == "kh":
        return PowerModel.kim_horowitz()
    return PowerModel.continuous_kim_horowitz()


def _random_problem(
    mesh: Mesh, power: PowerModel, n: int, rng: np.random.Generator,
    hot: bool = False,
) -> RoutingProblem:
    p, q = mesh.p, mesh.q
    lo, hi = (2000.0, 3400.0) if hot else (50.0, 2500.0)
    comms = []
    while len(comms) < n:
        src = (int(rng.integers(p)), int(rng.integers(q)))
        snk = (int(rng.integers(p)), int(rng.integers(q)))
        if src == snk:
            continue
        comms.append(Communication(src, snk, float(rng.uniform(lo, hi))))
    return RoutingProblem(mesh, power, comms)


def _random_batch(seed: int, b: int, hot: bool = False):
    """B random problems over randomly chosen mesh/profile/model variants."""
    rng = np.random.default_rng(seed)
    problems = []
    for _ in range(b):
        kind, p, q, tag = _VARIANTS[int(rng.integers(len(_VARIANTS)))]
        problems.append(
            _random_problem(
                _mesh_variant(kind, p, q),
                _power(tag),
                int(rng.integers(4, 10)),
                rng,
                hot=hot,
            )
        )
    return problems, rng


def _random_routing(problem: RoutingProblem, rng: np.random.Generator):
    """A single-path routing with a uniformly random path per comm."""
    paths = [
        Path(problem.mesh, c.src, c.snk, problem.dag(i).random_moves(rng))
        for i, c in enumerate(problem.comms)
    ]
    return Routing.single_path(problem, paths)


def _hex(x: float) -> str:
    return float(x).hex()


class TestMultiProblemKernel:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), b=st.integers(2, 5))
    def test_graded_strict_valid_match_per_instance(self, seed, b):
        problems, rng = _random_batch(seed, b)
        mpk = MultiProblemKernel(problems)
        routings = [_random_routing(p, rng) for p in problems]
        loads_flat = mpk.loads_from_routings(routings)
        strict = mpk.total_powers(loads_flat)
        valid = mpk.valids(loads_flat)
        for i, problem in enumerate(problems):
            mesh, power = problem.mesh, problem.power
            lo, hi = mpk.link_offsets[i], mpk.link_offsets[i + 1]
            loads = loads_flat[lo:hi].copy()
            assert _hex(strict[i]) == _hex(
                power.total_power(
                    loads, scale=mesh.link_scale, dead=mesh.dead_mask
                )
            )
            assert valid[i] == power.is_feasible_load(
                loads, dead=mesh.dead_mask
            )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), b=st.integers(2, 5))
    def test_reports_match_evaluate_routing(self, seed, b):
        # hot rates push some instances into overload so the invalid
        # branches (inf totals, overloaded-link counts) are exercised too
        problems, rng = _random_batch(seed, b, hot=bool(seed % 2))
        routings = []
        for problem in problems:
            h = get_heuristic("XY" if seed % 3 else "SG")
            routing, _ = h.route_timed(problem)
            routings.append(routing)
        mpk = MultiProblemKernel(problems)
        reports = mpk.evaluate_routings(routings)
        for routing, rep in zip(routings, reports):
            ref = evaluate_routing(routing)
            assert rep.valid == ref.valid
            assert rep.active_links == ref.active_links
            assert rep.overloaded_links == ref.overloaded_links
            for field in (
                "total_power",
                "static_power",
                "dynamic_power",
                "max_load",
                "mean_active_load",
            ):
                assert _hex(getattr(rep, field)) == _hex(
                    getattr(ref, field)
                ), field

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), b=st.integers(2, 4))
    def test_loads_from_routings_matches_link_loads(self, seed, b):
        problems, rng = _random_batch(seed, b)
        routings = [
            get_heuristic("XY").route_timed(p)[0] for p in problems
        ]
        mpk = MultiProblemKernel(problems)
        flat = mpk.loads_from_routings(routings)
        for i, routing in enumerate(routings):
            lo, hi = mpk.link_offsets[i], mpk.link_offsets[i + 1]
            # the stacked pass populated the routing's own loads cache
            # with a view onto the flat vector ...
            assert np.shares_memory(routing.link_loads(), flat)
            # ... bit-identical to a standalone recomputation
            fresh = get_heuristic("XY").route_timed(problems[i])[0]
            assert np.array_equal(flat[lo:hi], fresh.link_loads())

    def test_deferred_single_and_empty(self, fig2_problem):
        assert evaluate_deferred([]) == []
        routing, elapsed = get_heuristic("XY").route_timed(fig2_problem)
        (res,) = evaluate_deferred([DeferredEval("XY", routing, elapsed)])
        ref = evaluate_routing(routing)
        assert res.report == ref and res.runtime_s == elapsed

    def test_mismatched_routing_rejected(self):
        problems, rng = _random_batch(3, 2)
        routings = [
            get_heuristic("XY").route_timed(p)[0] for p in problems
        ]
        mpk = MultiProblemKernel(problems)
        with pytest.raises(InvalidParameterError):
            mpk.loads_from_routings(list(reversed(routings)))


class TestRowSums:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), ragged=st.booleans())
    def test_matches_per_slice_np_sum(self, seed, ragged):
        # widths straddle 128, NumPy's pairwise-summation block size: the
        # slice sums must reproduce np.sum's pairwise tree on both sides
        rng = np.random.default_rng(seed)
        widths = [int(w) for w in rng.integers(1, 400, size=5)]
        if not ragged:
            widths = [widths[0]] * 5
        bounds = []
        lo = 0
        for w in widths:
            bounds.append((lo, lo + w))
            lo += w
        flat = rng.uniform(0.0, 3500.0, size=lo)
        got = _row_sums(flat, bounds)
        for i, (s, e) in enumerate(bounds):
            assert _hex(got[i]) == _hex(float(np.sum(flat[s:e].copy())))


class TestStackedMode:
    def test_modes(self, monkeypatch):
        monkeypatch.delenv("REPRO_STACKED", raising=False)
        assert stacked_mode() == "auto" and stacked_enabled()
        monkeypatch.setenv("REPRO_STACKED", "0")
        assert not stacked_enabled()
        monkeypatch.setenv("REPRO_STACKED", "1")
        assert stacked_enabled()
        monkeypatch.setenv("REPRO_STACKED", "yes")
        with pytest.raises(InvalidParameterError):
            stacked_mode()


class TestRunnerStackedParity:
    def test_run_point_matches_looped(self, monkeypatch):
        from repro.experiments.config import UniformRandomFactory
        from repro.experiments.runner import run_point

        mesh = Mesh(5, 5)
        power = PowerModel.kim_horowitz()
        wl = UniformRandomFactory(n=10, rate_min=100.0, rate_max=2500.0)
        names = ["XY", "SG", "TB", "XYI", "PR", "SA"]

        def point(stacked):
            monkeypatch.setenv("REPRO_STACKED", stacked)
            return run_point(
                mesh, power, wl, trials=6, seed=123,
                heuristic_names=names, x=1.0,
            )

        ref = point("0")
        got = point("1")
        for name in list(names) + ["BEST"]:
            a, b = ref.stats[name], got.stats[name]
            assert a.successes == b.successes
            for field in (
                "norm_power_inverse",
                "mean_power_inverse",
                "mean_static_fraction",
            ):
                assert _hex(getattr(a, field)) == _hex(getattr(b, field)), (
                    name,
                    field,
                )


class TestServiceStackedParity:
    def test_batch_bodies_match_serial_handler(self, monkeypatch):
        from repro.io.jsonio import problem_to_dict
        from repro.service.batching import (
            handle_batch_docs,
            handle_request_doc,
        )

        rng = np.random.default_rng(21)
        docs = []
        for seed, shape in ((1, (4, 4)), (2, (3, 5)), (3, (4, 4))):
            problem = _random_problem(
                Mesh(*shape), PowerModel.kim_horowitz(), 8, rng
            )
            docs.append(
                {
                    "problem": problem_to_dict(problem),
                    "solver": "XYI",
                    "polish": "descent",
                    "seed": seed,
                    "cache": False,
                }
            )
        docs.append(dict(docs[1]))  # replica coalesces with its prototype

        def strip(body):
            b = dict(body)
            b.pop("elapsed_ms", None)
            return json.dumps(b, sort_keys=True)

        ref = [handle_request_doc(d, use_cache=True) for d in docs]
        for stacked in ("0", "1"):
            monkeypatch.setenv("REPRO_STACKED", stacked)
            got = handle_batch_docs(list(docs), use_cache=True)
            assert [s for s, _ in got] == [s for s, _ in ref]
            assert [strip(b) for _, b in got] == [strip(b) for _, b in ref]
