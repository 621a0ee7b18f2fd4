"""The repository benchmark: one command, four seeded workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-sweep --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with layer spans installed and reports
the per-layer metrics, the layer-coverage check and the tracing
overhead.  The report lines come first; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for what each metric means on
each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("paper-sweep", "churn-stream", "dispatch-burst", "noc-latency")

#: the layer-coverage check: named layers' self time over the traced
#: end-to-end time must reach this share
COVERAGE_MIN = 0.85

#: layers whose self time is the glue around the named layers
GLUE = ("experiments.runner", "noc.sweep", "service.handler",
        "service.batch", "service.probe")

def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _ensure_program() -> None:
    """Import path for the checkout's package; build the native tier."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise FileNotFoundError(
            "no src/repro package here; run from the root of a checkout"
        )
    sys.path.insert(0, src)
    import common

    # the first import builds the native tier when it is missing, outside
    # every timed region (and outside set-up time)
    subprocess.run(
        [sys.executable, "-c",
         "from repro.native import native_module; native_module()"],
        env=common.child_env(), capture_output=True, timeout=600,
    )


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def end_to_end(res: dict) -> dict:
    """End-to-end metrics, timings scaled to the reference host speed.

    ``BENCHMARK.json`` bounds the steady ones; ``route_tail_ms`` and
    ``sustained_rps`` are reported only (see README.md).
    """
    import common

    f = res["speed"].factor
    unit_ms = [v * f for v in res["unit_ms"]]
    tail, res["tail_windows"] = common.window_tail(
        unit_ms, res.get("tail_window", common.TAIL_WINDOW))
    return {
        "setup_s": statistics.median(res["setup"]) * f,
        "peak_rss_mb": res["rss_mb"],
        # in process: median over rounds of the round's mean unit time
        "route_p50_ms": statistics.median(
            res.get("round_unit_ms", res["unit_ms"])) * f,
        "route_tail_ms": tail,
        "sustained_rps": res["sustained_rps"] / f,
        "routed_power": res["routed_power"],
        "valid_share": res["valid_share"],
    }


def declared(kind: str) -> dict:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(os.getcwd(), "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def report(workload: str, seed: int, res: dict, metrics: dict) -> None:
    """The human-readable report: host facts, all 13 named metrics, spread."""
    import common

    f = res["speed"].factor
    cls = {c: [v * f for v in vals]
           for c, vals in res.get("class_ms", {}).items()}
    print(f"perfbench {workload} seed={seed}")
    print("host " + json.dumps(common.host_facts(), sort_keys=True))
    named = [
        ("setup_s", metrics["setup_s"], "s"),
        ("peak_rss_mb", metrics["peak_rss_mb"], "MB"),
        ("failed_share", res["failed"] / res["attempted"], "share"),
        ("route_p50_ms", metrics["route_p50_ms"], "ms"),
        ("route_tail_ms", metrics["route_tail_ms"], "ms"),
        ("warm_p50_ms", _p50(cls.get("warm")), "ms"),
        ("cold_p50_ms", _p50(cls.get("cold")), "ms"),
        ("hit_p50_ms", _p50(cls.get("hit")), "ms"),
        ("sustained_rps", metrics["sustained_rps"], "1/s"),
        ("trials_per_s", res.get("trials_per_s", 0) / f or None, "1/s"),
        ("sim_cycles_per_s", res.get("sim_cycles_per_s", 0) / f or None,
         "1/s"),
        ("routed_power", metrics["routed_power"], "mW"),
        ("valid_share", metrics["valid_share"], "share"),
    ]
    for name, value, unit in named:
        print(f"metric {name:18s} {_fmt(value):>12s} {unit}")
    n = len(res["unit_ms"])
    print(f"route_tail_ms: median over {res['tail_windows']} windows of "
          f"{n // res['tail_windows']} units of each window's highest "
          f"percentile with 10 units beyond it (over all {n} units: "
          f"p{common.tail(res['unit_ms'])[0]:g})")
    print(f"host speed factor {f:.4f} (median of "
          f"{len(res['speed'].samples)} reference samples); as measured: "
          f"route_p50_ms {statistics.median(res['unit_ms']):.6g}, "
          f"route_tail_ms {metrics['route_tail_ms'] / f:.6g}, "
          f"setup_s {statistics.median(res['setup']):.6g}, "
          f"sustained_rps {res['sustained_rps']:.6g}")
    print("spread reference_s " + json.dumps(
        common.spread(res["speed"].samples)))
    print("spread unit_ms " + json.dumps(
        common.spread([v * f for v in res["unit_ms"]])))
    for c, vals in sorted(cls.items()):
        print(f"spread {c}_ms " + json.dumps(common.spread(vals)))
    print("spread setup_s " + json.dumps(
        common.spread([v * f for v in res["setup"]])))
    if res.get("round_unit_ms"):
        print("spread round_unit_ms " + json.dumps(
            common.spread([v * f for v in res["round_unit_ms"]])))
    for line in res.get("probe_log", []):
        print("ladder " + json.dumps(line))


def _p50(vals):
    return statistics.median(vals) if vals else None


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
SERVICE = ("churn-stream", "dispatch-burst")


def run_workload(workload: str, seed: int, seconds: float, *,
                 setup: bool, tracer=None, trace_dir=None) -> dict:
    """One pass of ``workload``; timings as measured plus the pass's
    :class:`common.HostSpeed`.  ``setup`` adds the set-up launches (and
    the service ladder) the end-to-end metrics need."""
    import common
    import inprocess
    import service

    speed = common.HostSpeed()
    if workload in SERVICE:
        res = service.run_service(
            service.PROFILES[workload], seed, seconds, trace_dir,
            os.path.join(common.WORK_DIR, "run"), speed, end_to_end=setup)
        res.update(service.summarize(res))
    else:
        launches = [common.setup_probe(workload, speed)
                    for _ in range(common.SETUP_LAUNCHES if setup else 0)]
        run = inprocess.run_sweep if workload == "paper-sweep" \
            else inprocess.run_noc
        res = run(seed, seconds, tracer, speed)
        res.update(setup=launches, rss_mb=inprocess.self_peak_rss_mb(),
                   sustained_rps=res["throughput"])
        if workload == "paper-sweep":
            res["trials_per_s"] = res["throughput"]
        else:
            res["sim_cycles_per_s"] = res["throughput"] * inprocess.NOC_CYCLES
    res["speed"] = speed
    return res


def per_layer(workload: str, seed: int, seconds: float) -> tuple:
    """Untraced then traced pass; per-layer metrics of the traced one."""
    import common
    import tracing

    half = seconds / 2
    base = run_workload(workload, seed, half, setup=False)
    if workload in SERVICE:
        trace_dir = os.path.join(common.WORK_DIR, "trace")
        shutil.rmtree(trace_dir, ignore_errors=True)
        os.makedirs(trace_dir)
        res = run_workload(workload, seed, half, setup=False,
                           trace_dir=trace_dir)
        summary = tracing.read_dir(trace_dir)
        shutil.rmtree(trace_dir, ignore_errors=True)
        total = sum(t["_root_s"] for t in summary["by_tag"].values())
        units = res["stats"]["routed"]
    else:
        res = run_workload(workload, seed, half, setup=False,
                           tracer=tracing.Tracer())
        summary = tracing.merge([res["trace"]])
        total = res["busy_s"]
        units = res["units"]
    layers = layer_metrics(res, summary, units)
    covered = sum(v for k, v in summary["self_s"].items() if k not in GLUE)
    layers["trace.coverage_share"] = covered / total if total else 0.0
    layers["trace.overhead_pct"] = (
        res["mean_unit_ms"] * res["speed"].factor
        / (base["mean_unit_ms"] * base["speed"].factor) - 1.0) * 100.0
    attempted = base["attempted"] + res["attempted"]
    failed = base["failed"] + res["failed"]
    return layers, attempted, failed


def lag_problems(res: dict) -> list:
    """A run whose generator ran late is invalid, not slow."""
    import common

    if not res.get("lag_ms"):
        return []
    lag = common.percentile(res["lag_ms"], 90)
    if lag <= res["lag_limit_ms"]:
        return []
    return [f"generator p90 lag {lag:.2f} ms > {res['lag_limit_ms']:g} ms: "
            "run invalid"]


def layer_metrics(res: dict, tr: dict, units: int) -> dict:
    """Per-layer metrics of a traced pass, as measured."""
    import common
    from repro.heuristics.best import PAPER_HEURISTICS

    def ms(layer, key="self_s"):
        return tr[key].get(layer, 0.0) / units * 1e3 if units else 0.0

    out = {}
    nominal = res.get("nominal")
    records = nominal.ok if nominal is not None else []
    lag = res.get("lag_ms", [])
    out["loadgen.lag_p99_ms"] = common.percentile(lag, 99) if lag else 0.0
    out["loadgen.backlog_max"] = res.get("backlog_max", 0)
    front = [r.service_ms - r.body["elapsed_ms"] for r in records]
    handler = [r.body["elapsed_ms"] for r in records]
    out["service.front_p50_ms"] = statistics.median(front) if front else 0.0
    out["service.front_tail_ms"] = common.tail(front)[1] if front else 0.0
    out["service.handler_p50_ms"] = (
        statistics.median(handler) if handler else 0.0)
    stats = res.get("stats", {})
    out["service.batch_size_mean"] = (
        stats["batched"] / stats["batches"] if stats.get("batches") else 0.0)
    out["service.rejected"] = stats.get("rejected", 0)
    out["service.timeouts"] = stats.get("timeouts", 0)
    out["service.client_retries"] = (
        nominal.exchanges - len(nominal.records) if nominal is not None else 0)
    out["service.cache_hit_share"] = (
        stats["cache_hits"] / stats["routed"] if stats.get("routed") else 0.0)
    out["service.coalesce_ms"] = ms("service.coalesce")
    out["service.parse_ms"] = ms("service.parse")
    out["service.store_probe_ms"] = (
        ms("service.store_key") + ms("service.store_probe"))
    out["service.store_write_ms"] = ms("service.store_write")
    out["service.solve_ms"] = ms("service.solve")
    out["service.repair_ms"] = ms("service.repair")
    out["service.polish_ms"] = ms("service.polish")
    out["service.cold_solve_ms"] = ms("service.cold_solve", "incl_s")
    out["service.finalize_ms"] = ms("service.finalize")
    out["service.serialize_ms"] = ms("service.serialize")
    routed = [r.body["stats"] for r in records if not r.body.get("cache_hit")]
    for key in ("polish_flips", "relocations", "rerouted"):
        out[f"service.{key}_mean"] = (
            statistics.fmean(s[key] for s in routed) if routed else 0.0)
    out["io.problem_parse_ms"] = ms("io.problem_parse")
    out["io.routing_parse_ms"] = ms("io.routing_parse")
    hits = tr["extra"].get("parse_cache_hits", 0)
    lookups = hits + tr["extra"].get("parse_cache_misses", 0)
    out["io.parse_cache_hit_share"] = hits / lookups if lookups else 0.0
    per_h = res.get("per_heuristic")
    for name in PAPER_HEURISTICS:
        if per_h is not None:
            out[f"heuristics.{name}.solve_ms"] = per_h[name]["solve_ms"]
            out[f"heuristics.{name}.valid_share"] = per_h[name]["valid_share"]
        else:
            out[f"heuristics.{name}.solve_ms"] = ms(f"heuristics.{name}",
                                                    "incl_s")
            out[f"heuristics.{name}.valid_share"] = 0.0
    out["heuristics.anneal_ms"] = ms("heuristics.anneal", "incl_s")
    out["heuristics.descend_ms"] = ms("heuristics.descend", "incl_s")
    out["heuristics.xyi_relocate_ms"] = ms("heuristics.xyi_relocate",
                                           "incl_s")
    cold = tr["by_tag"].get("cold", {})
    out["heuristics.xyi_descend_share_cold"] = (
        cold.get("heuristics.xyi_descend", 0.0) / cold["_root_s"]
        if cold.get("_root_s") else 0.0)
    out["mesh.kernel_build_ms"] = ms("mesh.kernel_build")
    out["mesh.grade_ms"] = ms("mesh.grade") + ms("service.finalize")
    calls = tr["counts"].get("grade_calls", 0)
    out["mesh.grade_batch_size"] = (
        tr["counts"]["grade_items"] / calls if calls else 0.0)
    out["workloads.draw_ms"] = ms("workloads.draw")
    out["experiments.aggregate_ms"] = ms("experiments.aggregate")
    out["experiments.runner_ms"] = ms("experiments.runner")
    out["noc.flow_table_ms"] = ms("noc.flow_table")
    out["noc.engine_setup_ms"] = ms("noc.engine_setup")
    out["noc.sim_ms"] = ms("noc.sim")
    out["noc.delivered_flits"] = res.get("delivered_flits", 0)
    out["noc.deadlocked_points"] = res.get("deadlocked_points", 0)
    out["trace.glue_ms"] = sum(ms(g) for g in GLUE)
    return out


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated run still unwinds, so its server processes are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0 or args.seconds <= 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    try:
        _ensure_program()
    except FileNotFoundError as exc:
        return _fail(str(exc))
    import common

    os.makedirs(common.WORK_DIR, exist_ok=True)
    t0 = time.perf_counter()
    if args.trace:
        # the generator-lag check guards latencies counted from due
        # times; per-layer times run from the send time and the server's
        # own spans, so a traced run reports the lag without enforcing it
        metrics, attempted, failed = per_layer(
            args.workload, args.seed, args.seconds)
        problems = []
        if not metrics["trace.coverage_share"] >= COVERAGE_MIN:
            problems.append(
                f"layer coverage {metrics['trace.coverage_share']:.3f} "
                f"< {COVERAGE_MIN}")
        print(f"perfbench {args.workload} seed={args.seed} (traced)")
        print("host " + json.dumps(common.host_facts(), sort_keys=True))
        for name, value in metrics.items():
            print(f"layer {name:40s} {_fmt(value)}")
        print(f"layer coverage check: >= {COVERAGE_MIN} of the traced "
              "end-to-end time under named layers")
    else:
        res = run_workload(args.workload, args.seed, args.seconds,
                           setup=True)
        metrics = end_to_end(res)
        attempted, failed = res["attempted"], res["failed"]
        report(args.workload, args.seed, res, metrics)
        problems = lag_problems(res)
    if failed:
        problems.append(f"{failed} of {attempted} operations failed")
    for p in problems:
        print(f"check FAILED: {p}")
    print(f"wall {time.perf_counter() - t0:.1f} s")
    units = declared("per_layer" if args.trace else "end_to_end")
    out = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
