"""Which public functions each layer's spans wrap.

One installer per workload family.  Each replaces the module attribute
the caller actually looks up (``from x import f`` binds ``f`` in the
importing module, so both bindings are patched where both are used).
Layer names follow the repository's modules.
"""

from __future__ import annotations

from tracing import Tracer, install, wrap


def _heuristic_layer(self, *args, **kwargs) -> str:
    return f"heuristics.{self.name}"


def install_sweep(tracer: Tracer) -> None:
    """Spans for the in-process Monte-Carlo sweep (``paper-sweep``)."""
    from repro.core.problem import RoutingProblem
    from repro.experiments import runner
    from repro.heuristics.base import Heuristic

    def grade_count(t, deferred):
        t.count("grade_calls")
        t.count("grade_items", len(deferred))

    install(tracer, runner, "run_point", "experiments.runner")
    install(tracer, runner, "evaluate_deferred", "mesh.grade",
            counter=grade_count)
    install(tracer, runner, "aggregate_records", "experiments.aggregate")
    install(tracer, RoutingProblem, "kernel", "mesh.kernel_build")
    install(tracer, Heuristic, "route_timed", _heuristic_layer)


def traced_factory(tracer: Tracer, factory):
    """A workload factory whose draws are ``workloads.draw`` spans."""
    return wrap(tracer, factory, "workloads.draw")


def install_noc(tracer: Tracer) -> None:
    """Spans for the flit-engine latency curves (``noc-latency``)."""
    from repro.noc import sweep
    from repro.noc.engine import ArrayFlitSimulator

    install(tracer, sweep, "latency_sweep", "noc.sweep")
    install(tracer, sweep, "build_flow_table", "noc.flow_table")
    install(tracer, sweep, "_aggregate", "noc.aggregate")
    install(tracer, ArrayFlitSimulator, "__init__", "noc.engine_setup")
    install(tracer, ArrayFlitSimulator, "run", "noc.sim")


def _body_tag(result) -> str:
    status, body = result
    if status != 200:
        return "error"
    return "hit" if body.get("cache_hit") else body.get("mode", "error")


def install_service(tracer: Tracer) -> None:
    """Spans for the routing service (server process and pool workers)."""
    from repro.heuristics.annealing import SimulatedAnnealing
    from repro.heuristics.base import Heuristic
    from repro.heuristics.xy_improver import XYImprover
    from repro.service import batching, server, warmstart

    handler = wrap(tracer, batching.handle_request_doc, "service.handler",
                   tag=_body_tag)
    batch = wrap(tracer, batching.handle_batch_docs, "service.batch",
                 tag=lambda r: "batch")
    for mod in (batching, server):
        mod.handle_request_doc = handler
        mod.handle_batch_docs = batch
    install(tracer, server, "probe_request_doc", "service.probe",
            tag=lambda r: "hit")

    install(tracer, batching, "_coalesce_key", "service.coalesce")
    install(tracer, batching, "parse_request_doc", "service.parse")
    install(tracer, batching, "problem_from_dict", "io.problem_parse")
    install(tracer, batching, "routing_from_dict", "io.routing_parse")
    install(tracer, batching.ParsedRequest, "key", "service.store_key")
    install(tracer, batching, "load_cached", "service.store_probe")
    install(tracer, batching, "save_cached", "service.store_write")
    install(tracer, batching, "outcome_to_doc", "service.serialize")

    solve = wrap(tracer, warmstart.solve_request, "service.solve")
    warmstart.solve_request = solve
    batching.solve_request = solve
    install(tracer, warmstart, "repair_state", "service.repair")
    install(tracer, warmstart, "_polish", "service.polish")
    install(tracer, warmstart, "descend", "heuristics.descend")
    finalize = wrap(tracer, warmstart.finalize_outcomes, "service.finalize")
    warmstart.finalize_outcomes = finalize
    batching.finalize_outcomes = finalize

    get_heuristic = warmstart.get_heuristic

    def traced_get_heuristic(name):
        h = get_heuristic(name)
        h.solve = wrap(tracer, h.solve, "service.cold_solve")
        return h

    warmstart.get_heuristic = traced_get_heuristic

    install(tracer, SimulatedAnnealing, "_route_from", "heuristics.anneal")
    install(tracer, XYImprover, "_route_from", "heuristics.xyi_relocate")
    install(tracer, XYImprover, "_descend_paths", "heuristics.xyi_descend")
    install(tracer, Heuristic, "route_timed", _heuristic_layer)

    cache = batching._PARSE_CACHE
    tracer.extra = lambda: {
        "parse_cache_hits": cache.hits,
        "parse_cache_misses": cache.misses,
    }
