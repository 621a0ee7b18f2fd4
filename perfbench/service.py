"""The service workloads: ``churn-stream`` and ``dispatch-burst``.

Both drive a real ``repro serve`` process over HTTP from an open-loop
generator in this process: every request has a due time fixed in
advance, latency is counted from that due time, and the generator
reports how late it itself sent (``lag``) and how many due requests were
waiting for a connection (``backlog``).  Each connection is one thread
with its own keep-alive :class:`~repro.service.ServiceClient`; retries are
off, so a refused or failed request surfaces as a failure.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

import common

#: a run is invalid once the generator's own p90 send delay in the
#: nominal phase exceeds half the gap between a connection's requests,
#: or this floor if higher.  Not p99: single scheduling stalls of this
#: shared host reach 20-30 ms and would invalidate runs the generator
#: kept up with
LAG_FLOOR_MS = 20.0


@dataclass(frozen=True)
class Profile:
    """One service workload's fixed settings."""

    name: str
    flags: Tuple[str, ...]  #: ``repro serve`` flags
    connections: int
    nominal_rps: float  #: request rate of the nominal phase
    tail_limit_ms: float  #: tail limit a sustained rate must meet
    ladder_base: float  #: lowest rate of the ladder (requests/s)
    ladder_step: float  #: ratio between neighbouring rungs
    ladder_rungs: int
    probe_requests: int  #: requests per ladder probe (all connections)
    warmup_requests: int


CHURN = Profile(
    name="churn-stream",
    flags=("--jobs", "1"),
    connections=1,
    nominal_rps=10.0,
    tail_limit_ms=300.0,
    ladder_base=8.0,
    ladder_step=1.05,
    ladder_rungs=45,
    probe_requests=60,
    warmup_requests=6,
)

BURST = Profile(
    name="dispatch-burst",
    flags=("--jobs", "2", "--no-cache", "--batch-window", "2",
           "--max-batch", "16"),
    connections=min(2, os.cpu_count() or 1),
    nominal_rps=60.0,
    tail_limit_ms=50.0,
    ladder_base=40.0,
    ladder_step=1.05,
    ladder_rungs=55,
    probe_requests=400,
    warmup_requests=40,
)

PROFILES = {p.name: p for p in (CHURN, BURST)}

#: share of the measuring time spent at the nominal rate (the rest
#: searches the ladder)
NOMINAL_SHARE = 0.7

# ----------------------------------------------------------------------
# request documents
# ----------------------------------------------------------------------
#: churn trace: seed, steps and load relative to the paper's regime.  The
#: trace is fixed so that runs differ in their traffic, not in how hard
#: the platform's instances happen to be (trace cost varies 2x by seed)
CHURN_TRACE_SEED = 5
CHURN_STEPS = 24
CHURN_RATE_SCALE = 0.5


def lag_limit_ms(profile: Profile) -> float:
    return max(LAG_FLOOR_MS, 500.0 * profile.connections / profile.nominal_rps)


def churn_pool() -> Tuple[List[dict], List[dict]]:
    """Problem documents of a churn trace and each step's deployed routing.

    Routing ``t`` is the warm answer to step ``t`` chained from step 0, so
    a warm request for step ``t`` attaches routing ``t - 1`` — what a
    client re-submitting its deployed routing sends.
    """
    from repro.io.jsonio import problem_to_dict, routing_to_dict
    from repro.scenarios import ChurnSpec, churn_trace
    from repro.service import route_incremental

    steps = churn_trace(ChurnSpec(
        scenario="paper-baseline", requests=CHURN_STEPS, seed=CHURN_TRACE_SEED,
        rate_scale=CHURN_RATE_SCALE,
    ))
    chain = route_incremental(steps[0].problem)
    routings = [routing_to_dict(chain.routing)]
    for step in steps[1:]:
        chain = route_incremental(step.problem, chain.routing)
        routings.append(routing_to_dict(chain.routing))
    return [problem_to_dict(s.problem) for s in steps], routings


class Shuffled:
    """Endless seeded permutations of ``items``: every item equally often.

    Stratified draws keep a run's mix the same from seed to seed; the
    seed only changes the order.
    """

    def __init__(self, items: Sequence, rng: np.random.Generator):
        self.items, self.rng, self.queue = list(items), rng, []

    def __next__(self):
        if not self.queue:
            self.queue = [self.items[i]
                          for i in self.rng.permutation(len(self.items))]
        return self.queue.pop()


class ChurnStream:
    """The seeded churn request sequence (``next`` yields ``(cls, doc)``).

    Every block of 20 requests holds 14 warm re-routes, 3 cold solves and
    3 exact resubmissions of earlier documents; warm and cold requests
    visit the trace steps equally often.  The seed draws the order, the
    resubmitted documents and the polish seeds.  Warm and cold documents
    carry a fresh polish ``seed`` each, so every one is a request the cache
    has not seen.
    """

    def __init__(self, seed: int):
        self.problems, self.routings = churn_pool()
        self.rng = np.random.default_rng([seed, 7])
        block = ["warm"] * 14 + ["cold"] * 3 + ["hit"] * 3
        self.classes = Shuffled(block, self.rng)
        steps = range(1, len(self.problems))
        self.steps = {c: Shuffled(steps, self.rng) for c in ("warm", "cold")}
        self.next_seed = seed * 1_000_000 + 1
        self.sent: List[dict] = []

    def doc(self, cls: str, cache: bool = True) -> dict:
        t = next(self.steps[cls])
        doc = {"problem": self.problems[t], "seed": self.next_seed}
        self.next_seed += 1
        if cls == "warm":
            doc["prev"] = self.routings[t - 1]
        if not cache:
            doc["cache"] = False
        return doc

    def __next__(self) -> Tuple[str, dict]:
        cls = next(self.classes)
        if cls == "hit" and self.sent:
            return "hit", self.sent[int(self.rng.integers(len(self.sent)))]
        doc = self.doc("cold" if cls == "hit" else cls)
        self.sent.append(doc)
        return ("cold" if cls == "hit" else cls), doc

    def warmup(self, n: int) -> List[dict]:
        """Cache-off documents that prime the server without the store."""
        return [self.doc("cold" if i % 3 == 0 else "warm", cache=False)
                for i in range(n)]


#: dispatch-burst instance: the E-SAT document shape (its base instance)
BURST_MESH = (4, 4)
BURST_COMMS = 8
BURST_RATES = (100.0, 700.0)
BURST_INSTANCE_SEED = 900
BURST_VARIANTS = 8


class BurstStream:
    """Tiny 4x4 warm re-routes, each sent as duplicates on every connection.

    One fixed base instance is routed once; each of the seeded variants
    raises one communication's rate and re-routes from the shared
    deployed routing with ``polish: "none"``.  ``next`` visits the
    variants equally often, in seeded order.
    """

    def __init__(self, seed: int):
        from repro import Communication
        from repro.core.power import PowerModel
        from repro.core.problem import RoutingProblem
        from repro.io.jsonio import problem_to_dict, routing_to_dict
        from repro.mesh.topology import Mesh
        from repro.service import route_incremental
        from repro.workloads.random_uniform import uniform_random_workload

        mesh = Mesh(*BURST_MESH)
        power = PowerModel.kim_horowitz()
        base = RoutingProblem(mesh, power, uniform_random_workload(
            mesh, BURST_COMMS, *BURST_RATES, rng=BURST_INSTANCE_SEED))
        prev = routing_to_dict(route_incremental(base).routing)
        rng = np.random.default_rng([seed, 11])
        self.docs = []
        for _ in range(BURST_VARIANTS):
            comms = list(base.comms)
            v = int(rng.integers(len(comms)))
            comms[v] = Communication(comms[v].src, comms[v].snk,
                                     comms[v].rate + rng.uniform(10, 80))
            self.docs.append({
                "problem": problem_to_dict(RoutingProblem(mesh, power, comms)),
                "prev": prev, "polish": "none", "cache": False,
            })
        self.order = Shuffled(self.docs, rng)

    def __next__(self) -> Tuple[str, dict]:
        return "warm", next(self.order)

    def warmup(self, n: int) -> List[dict]:
        return [self.docs[i % len(self.docs)] for i in range(n)]


# ----------------------------------------------------------------------
# open-loop generator
# ----------------------------------------------------------------------
@dataclass
class Record:
    cls: str
    doc: dict
    due: float  #: seconds after the phase start
    sent: float = 0.0
    done: float = 0.0
    lag: float = 0.0
    body: Optional[dict] = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        """From the due time to the answer (what a stall costs later ones)."""
        return (self.done - self.due) * 1e3

    @property
    def service_ms(self) -> float:
        """From sending to the answer."""
        return (self.done - self.sent) * 1e3


@dataclass
class Phase:
    records: List[Record] = field(default_factory=list)
    backlog_max: int = 0
    exchanges: int = 0

    @property
    def ok(self) -> List[Record]:
        return [r for r in self.records if r.body is not None]


def open_loop(port: int, streams: Sequence[Sequence[Record]]) -> Phase:
    """Send every stream's records on its own connection, on schedule."""
    from repro.service import ServiceClient
    from repro.utils.validation import ReproError

    exchanges = [0] * len(streams)
    t0 = time.perf_counter() + 0.02

    def drive(k: int, stream: Sequence[Record]) -> None:
        client = ServiceClient("127.0.0.1", port, retry=None, timeout=60.0)
        once = client._request_once

        def counted(*args, **kw):
            exchanges[k] += 1
            return once(*args, **kw)

        client._request_once = counted
        prev_done = t0
        try:
            for rec in stream:
                target = t0 + rec.due
                now = time.perf_counter()
                if now < target:
                    time.sleep(target - now)
                rec.sent = time.perf_counter()
                rec.lag = rec.sent - max(target, prev_done)
                try:
                    rec.body = client.route(rec.doc)
                except ReproError as exc:
                    rec.error = str(exc)
                rec.done = prev_done = time.perf_counter()
        finally:
            client.close()

    threads = [threading.Thread(target=drive, args=(k, s))
               for k, s in enumerate(streams)]
    # a collector pause in this process would read as generator lag
    gc.collect()
    gc.disable()
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    finally:
        gc.enable()
    phase = Phase(exchanges=sum(exchanges))
    for stream in streams:
        dues = [r.due for r in stream]
        for i, rec in enumerate(stream):
            rec.sent -= t0
            rec.done -= t0
            waiting = bisect.bisect_right(dues, rec.sent) - (i + 1)
            phase.backlog_max = max(phase.backlog_max, waiting)
        phase.records.extend(stream)
    return phase


def schedule(source: Iterator, profile: Profile, rate: float,
             count: int) -> List[List[Record]]:
    """``count`` requests at ``rate`` per second over the connections.

    With several connections every due time carries the same document on
    each of them (concurrent duplicates).
    """
    conns = profile.connections
    streams: List[List[Record]] = [[] for _ in range(conns)]
    for j in range(count // conns):
        cls, doc = next(source)
        for k in range(conns):
            streams[k].append(Record(cls, doc, j * conns / rate))
    return streams


#: seconds of traffic between two host-speed samples
SUBPHASE_S = 1.0


def timed_phase(port: int, source: Iterator, profile: Profile, rate: float,
                count: int, speed: common.HostSpeed) -> Phase:
    """``count`` requests at ``rate``, in sub-phases of about
    :data:`SUBPHASE_S` with a host-speed sample between sub-phases."""
    per = max(profile.connections,
              int(rate * SUBPHASE_S) // profile.connections
              * profile.connections)
    merged = Phase()
    speed.sample()
    while count > 0:
        n = min(per, count)
        phase = open_loop(port, schedule(source, profile, rate, n))
        speed.sample()
        merged.records += phase.records
        merged.backlog_max = max(merged.backlog_max, phase.backlog_max)
        merged.exchanges += phase.exchanges
        count -= n
    return merged


def ladder(profile: Profile) -> List[float]:
    return [profile.ladder_base * profile.ladder_step ** k
            for k in range(profile.ladder_rungs)]


def sustained_rate(port: int, source: Iterator, profile: Profile,
                   start: float, budget_s: float, speed: common.HostSpeed
                   ) -> Tuple[float, List[Phase], List[dict]]:
    """Highest ladder rate meeting the tail limit with no growing backlog.

    Searches the fixed ladder from the rung nearest ``start``: two rungs
    at a time until a probe passes and another fails, then bisects.  A
    probe passes when no request failed, its tail (from due times) is
    within ``tail_limit_ms`` and the backlog never exceeded a tenth of
    the probe.  Returns the rate, the probes' phases and a probe log.
    """
    rungs = ladder(profile)
    lo, hi = -1, len(rungs)
    k = min(max(bisect.bisect_left(rungs, start), 0), len(rungs) - 1)
    phases, log = [], []
    t_end = time.perf_counter() + budget_s
    while hi - lo > 1 and (not phases or time.perf_counter() < t_end):
        phase = timed_phase(port, source, profile, rungs[k],
                            profile.probe_requests, speed)
        phases.append(phase)
        failed = len(phase.records) - len(phase.ok)
        _, tail_ms = common.tail([r.latency_ms for r in phase.records])
        passed = (failed == 0 and tail_ms <= profile.tail_limit_ms
                  and phase.backlog_max <= profile.probe_requests // 10)
        log.append({"rate": rungs[k], "tail_ms": tail_ms,
                    "backlog": phase.backlog_max, "passed": passed})
        if passed:
            lo = k
        else:
            hi = k
        if lo < 0:
            k = max(k - 2, 0)
        elif hi == len(rungs):
            k = min(k + 2, len(rungs) - 1)
        else:
            k = (lo + hi) // 2
        if k in (lo, hi):
            break
    rate = rungs[lo] if lo >= 0 else rungs[0] / profile.ladder_step
    return rate, phases, log


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def check_churn(records: Sequence[Record], store_dir: str) -> int:
    """Served bodies that differ from an in-order in-process replay."""
    from repro.service import handle_request_doc

    shutil.rmtree(store_dir, ignore_errors=True)
    bad = 0
    for rec in records:
        status, want = handle_request_doc(rec.doc, cache_dir=store_dir)
        if rec.body is None or status != 200 or \
                common.canonical(rec.body) != common.canonical(want):
            bad += 1
    shutil.rmtree(store_dir, ignore_errors=True)
    return bad


def check_burst(records: Sequence[Record]) -> int:
    """Served bodies that differ from the in-process replay.

    Cache-off handling is a pure function of the document, so each
    distinct document is replayed once.
    """
    from repro.service import handle_request_doc

    memo: Dict[str, Tuple[int, str]] = {}
    bad = 0
    for rec in records:
        key = json.dumps(rec.doc, sort_keys=True)
        if key not in memo:
            status, want = handle_request_doc(rec.doc, use_cache=False)
            memo[key] = (status, common.canonical(want))
        status, want = memo[key]
        if rec.body is None or status != 200 or \
                common.canonical(rec.body) != want:
            bad += 1
    return bad


# ----------------------------------------------------------------------
# one workload run
# ----------------------------------------------------------------------
def _stream(profile: Profile, seed: int):
    return ChurnStream(seed) if profile is CHURN else BurstStream(seed)


def _pairs(docs: Sequence[dict]) -> Iterator[Tuple[str, dict]]:
    return iter([("warmup", d) for d in docs])


def run_service(profile: Profile, seed: int, seconds: float,
                trace_dir: Optional[str], store_root: str,
                speed: common.HostSpeed, end_to_end: bool) -> Dict[str, Any]:
    """One run: set-up, nominal phase and, for the end-to-end metrics,
    three launches and the ladder (a traced pass is nominal only)."""
    stream = _stream(profile, seed)
    store = os.path.join(store_root, "store")
    flags = list(profile.flags)
    if profile is CHURN:
        flags += ["--cache-dir", store]
    setup: List[float] = []
    launches = common.SETUP_LAUNCHES if end_to_end else 1
    for i in range(launches):
        shutil.rmtree(store, ignore_errors=True)
        server = common.Server(flags, speed, trace_dir=trace_dir)
        setup.append(server.setup_s)
        if i + 1 < launches:
            server.close()
    try:
        warm = stream.warmup(profile.warmup_requests)
        open_loop(server.port, schedule(_pairs(warm), profile, 50.0,
                                        len(warm) * profile.connections))
        nominal_s = seconds * NOMINAL_SHARE if end_to_end else seconds
        t_phase = time.perf_counter()
        nominal = timed_phase(server.port, stream, profile,
                              profile.nominal_rps,
                              int(profile.nominal_rps * nominal_s), speed)
        probes, probe_log = [], []
        rate = None
        if end_to_end:
            budget = seconds - (time.perf_counter() - t_phase)
            # start the search just below the capacity the nominal
            # phase's service times suggest
            service_s = statistics.fmean(r.service_ms for r in nominal.ok)
            start = 0.9 * profile.connections * 1e3 / service_s
            rate, probes, probe_log = sustained_rate(
                server.port, stream, profile, start, budget, speed)
        stats = server.stats()
        rss = server.peak_rss_mb()
    finally:
        server.close()
    records = nominal.records + [r for p in probes for r in p.records]
    replay_dir = os.path.join(store_root, "replay")
    failed = (check_churn(records, replay_dir) if profile is CHURN
              else check_burst(records))
    shutil.rmtree(store_root, ignore_errors=True)
    return {
        "nominal": nominal,
        "probes": probes,
        "probe_log": probe_log,
        "sustained_rps": rate,
        "setup": setup,
        "stats": stats,
        "rss_mb": rss,
        "attempted": len(records),
        "failed": failed,
        "lag_ms": [r.lag * 1e3 for r in nominal.records],
        "lag_limit_ms": lag_limit_ms(profile),
        "backlog_max": max(p.backlog_max for p in [nominal, *probes]),
    }


def summarize(res: Dict[str, Any]) -> Dict[str, Any]:
    """End-to-end figures of a service run's nominal phase, as measured."""
    records = res["nominal"].records
    ok = res["nominal"].ok
    by_cls: Dict[str, List[float]] = {}
    for r in ok:
        by_cls.setdefault(r.cls, []).append(r.latency_ms)
    valid = [r for r in ok if r.body.get("valid")]
    return {
        "unit_ms": [r.latency_ms for r in records],
        "class_ms": by_cls,
        "routed_power": statistics.fmean(r.body["power"] for r in valid)
        if valid else float("inf"),
        "valid_share": len(valid) / max(len(ok), 1),
        "mean_unit_ms": statistics.fmean(r.service_ms for r in ok),
    }
