"""The in-process workloads: ``paper-sweep`` and ``noc-latency``.

Both run closed-loop and serially in the benchmark's own process, in
whole *rounds* of a fixed composition, until the measuring time is used
up (at least two rounds).  Every round recomputes the same seeded work,
so each round's outputs must equal an untimed replay.  A round yields one
``(seconds, output)`` item per call into the program; host-speed samples
(:class:`common.HostSpeed`) are taken between items, never inside one.
"""

from __future__ import annotations

import json
import resource
import time
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import common
from tracing import Tracer

# ----------------------------------------------------------------------
# paper-sweep
# ----------------------------------------------------------------------
#: (label, factory spec, trials per round) — points of Figures 7, 8 and 9
#: with feasible, mixed and all-fail instances and 10 to 100 comms
SWEEP_POINTS: Tuple[Tuple[str, Tuple, int], ...] = (
    ("fig7b-n20", ("uniform", 20, 100.0, 2500.0), 12),
    ("fig7c-n10", ("uniform", 10, 2500.0, 3500.0), 12),
    ("fig7c-n30", ("uniform", 30, 2500.0, 3500.0), 6),
    ("fig8a-w2000", ("weight", 10, 2000.0), 12),
    ("fig8c-w1000", ("weight", 40, 1000.0), 6),
    ("fig9a-L6", ("length", 100, 6, 200.0, 800.0), 2),
    ("fig9c-L10", ("length", 12, 10, 2700.0, 3300.0), 6),
)


def _factory(spec: Tuple):
    from repro.experiments.config import (
        FixedWeightFactory,
        LengthTargetedFactory,
        UniformRandomFactory,
    )

    kind, *args = spec
    return {
        "uniform": UniformRandomFactory,
        "weight": FixedWeightFactory,
        "length": LengthTargetedFactory,
    }[kind](*args)


def sweep_setup() -> Tuple[Any, Any]:
    """Import, load the native tier and warm the 8x8 platform caches."""
    from repro.core.power import PowerModel
    from repro.experiments.runner import run_point, warm_platform_caches
    from repro.heuristics.best import PAPER_HEURISTICS
    from repro.mesh.topology import Mesh
    from repro.native import active_tier

    active_tier()
    mesh, power = Mesh(8, 8), PowerModel.kim_horowitz()
    warm_platform_caches(mesh, power)
    # one tiny point takes every heuristic's lazy set-up out of timing
    run_point(mesh, power, _factory(("uniform", 4, 100.0, 500.0)), trials=1,
              seed=0, heuristic_names=PAPER_HEURISTICS)
    return mesh, power


def _aggregates(point) -> str:
    """A point's aggregates minus the wall-clock ``mean_runtime_s``."""
    return json.dumps({
        name: [s.trials, s.successes, s.norm_power_inverse.hex(),
               s.mean_power_inverse.hex(), s.mean_static_fraction.hex()]
        for name, s in sorted(point.stats.items())
    })


def _sweep_round(mesh, power, seed: int, factories) -> Iterator[Tuple]:
    from repro.experiments import runner
    from repro.heuristics.best import PAPER_HEURISTICS

    for k, ((_, _, trials), factory) in enumerate(
        zip(SWEEP_POINTS, factories)
    ):
        t0 = time.perf_counter()
        point = runner.run_point(
            mesh, power, factory, trials=trials,
            seed=seed * 1_000_003 + k, heuristic_names=PAPER_HEURISTICS,
            jobs=1,
        )
        yield time.perf_counter() - t0, point


def _run_rounds(seconds: float, make_round,
                speed: common.HostSpeed) -> List[List[Tuple]]:
    """Whole rounds of ``(seconds, output)`` items, sampling host speed
    between items."""
    rounds: List[List[Tuple]] = []
    speed.sample()
    t_end = time.perf_counter() + seconds
    while len(rounds) < 2 or time.perf_counter() < t_end:
        rnd = []
        for item in make_round():
            rnd.append(item)
            if speed.due():
                speed.sample()
        rounds.append(rnd)
    speed.sample()
    return rounds


def _timing(rounds: List[List[Tuple]], units_per_item: Sequence[int]) -> Dict:
    """Per-unit times and throughput, as measured.

    In ``unit_ms`` a unit (trial or curve point) is charged its call's
    mean time.
    """
    unit_ms: List[float] = []
    busy = 0.0
    for rnd in rounds:
        for (dt, _), n in zip(rnd, units_per_item):
            unit_ms += [dt / n * 1e3] * n
            busy += dt
    units = len(unit_ms)
    per_round = sum(units_per_item)
    return {
        "units": units,
        # tail windows of whole rounds, so every window has one composition
        "tail_window": per_round * -(-common.TAIL_WINDOW // per_round),
        "unit_ms": unit_ms,
        "throughput": units / busy,
        "mean_unit_ms": busy / units * 1e3,
        "busy_s": busy,
        # every round has the same composition: its mean time per unit
        # is one sample of the workload's unit latency
        "round_unit_ms": [
            sum(dt for dt, _ in rnd) / per_round * 1e3 for rnd in rounds
        ],
    }


def check_sweep(rounds: Sequence[Sequence[Sequence]],
                replay: Sequence[Any]) -> int:
    """Trials whose point aggregates differ from the replay (any round)."""
    want = [_aggregates(p) for p in replay]
    failed = 0
    for rnd in rounds:
        for item, ref, (_, _, trials) in zip(rnd, want, SWEEP_POINTS):
            if _aggregates(item[1]) != ref:
                failed += trials
    return failed


def run_sweep(seed: int, seconds: float, tracer: Optional[Tracer],
              speed: common.HostSpeed) -> Dict:
    from repro.experiments.runner import BEST_KEY
    from repro.heuristics.best import PAPER_HEURISTICS

    mesh, power = sweep_setup()
    factories = [_factory(spec) for _, spec, _ in SWEEP_POINTS]
    if tracer is not None:
        import layers

        layers.install_sweep(tracer)
        factories = [layers.traced_factory(tracer, f) for f in factories]
    rounds = _run_rounds(
        seconds, lambda: _sweep_round(mesh, power, seed, factories), speed
    )
    trace = tracer.summary() if tracer is not None else None
    replay = [p for _, p in _sweep_round(mesh, power, seed, factories)]
    res = _timing(rounds, [t for _, _, t in SWEEP_POINTS])
    best = [p.stats[BEST_KEY] for p in replay]
    successes = sum(s.successes for s in best)
    inv_sum = sum(s.mean_power_inverse * s.trials for s in best)
    per_heuristic = {}
    for name in PAPER_HEURISTICS:
        st = [item[1].stats[name] for rnd in rounds for item in rnd]
        n = sum(s.trials for s in st)
        per_heuristic[name] = {
            "solve_ms": sum(s.mean_runtime_s * s.trials for s in st) / n * 1e3,
            "valid_share": sum(s.successes for s in st) / n,
        }
    res.update({
        "attempted": res["units"],
        "failed": check_sweep(rounds, replay),
        "routed_power": successes / inv_sum if inv_sum else float("inf"),
        "valid_share": successes / sum(s.trials for s in best),
        "per_heuristic": per_heuristic,
        "trace": trace,
    })
    return res


# ----------------------------------------------------------------------
# noc-latency
# ----------------------------------------------------------------------
NOC_SCENARIOS = ("paper-baseline", "faulty-links")
#: offered-load multiples of the nominal rates, both sides of saturation
NOC_FRACTIONS = (0.3, 0.6, 0.9, 1.2, 1.6, 2.2)
NOC_CYCLES = 4000
NOC_WARMUP = 800


def deploy():
    """BEST routings of each scenario's trial-0 instance, at the scenario's
    own seed (what ``repro noc sweep --scenario`` deploys).

    The instances are fixed: their traffic volume sets the simulation's
    cost, and it varies by half from instance to instance.  The benchmark
    seed drives the injection processes instead.
    """
    from repro.core.problem import RoutingProblem
    from repro.heuristics import BestOf
    from repro.scenarios import get_scenario
    from repro.utils.rng import spawn_rngs

    out = []
    for name in NOC_SCENARIOS:
        scenario = get_scenario(name)
        mesh = scenario.build_mesh()
        problem = RoutingProblem(
            mesh, scenario.power_model(),
            scenario.workload(mesh, spawn_rngs(scenario.seed, 1)[0]),
        )
        result = BestOf(names=scenario.heuristics).solve(problem)
        if not result.valid:
            raise RuntimeError(f"{name}: BEST found no routing to deploy")
        out.append((result.routing, result.power))
    return out


def noc_setup():
    """Import, load the native tier and deploy the routings."""
    from repro.native import active_tier

    active_tier()
    return deploy()


def _noc_round(deployed, seed: int) -> Iterator[Tuple]:
    from repro.noc import sweep

    for routing, _ in deployed:
        for frac in NOC_FRACTIONS:
            t0 = time.perf_counter()
            (point,) = sweep.latency_sweep(
                routing, [frac], cycles=NOC_CYCLES, warmup=NOC_WARMUP,
                seed=seed, engine="array",
            )
            yield time.perf_counter() - t0, point


def check_noc(rounds, replay) -> int:
    """Curve points that differ from the in-process replay (any round)."""
    want = [json.dumps(p.to_jsonable()) for p in replay]
    return sum(
        json.dumps(item[1].to_jsonable()) != ref
        for rnd in rounds
        for item, ref in zip(rnd, want)
    )


def run_noc(seed: int, seconds: float, tracer: Optional[Tracer],
            speed: common.HostSpeed) -> Dict:
    deployed = noc_setup()
    if tracer is not None:
        import layers

        layers.install_noc(tracer)
    rounds = _run_rounds(seconds, lambda: _noc_round(deployed, seed), speed)
    trace = tracer.summary() if tracer is not None else None
    replay = [p for _, p in _noc_round(deployed, seed)]
    res = _timing(rounds, [1] * len(replay))
    res.update({
        "attempted": res["units"],
        "failed": check_noc(rounds, replay),
        "routed_power": sum(p for _, p in deployed) / len(deployed),
        "valid_share": 1.0,
        "delivered_flits": sum(p.delivered_flits for p in replay)
        / len(replay),
        "deadlocked_points": sum(p.deadlocked for p in replay),
        "trace": trace,
    })
    return res


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
