"""The benchmark's own tests: its output checks catch a corrupted answer.

Run from the repository root: ``python -m pytest perfbench``.
"""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import inprocess  # noqa: E402
import service  # noqa: E402
import tracing  # noqa: E402


def _served(stream, n, store):
    """Records answered in-process, as a server with its own store would."""
    from repro.service import handle_request_doc

    records = []
    for j in range(n):
        cls, doc = next(stream)
        rec = service.Record(cls, doc, due=float(j))
        status, rec.body = handle_request_doc(doc, cache_dir=store)
        assert status == 200
        records.append(rec)
    return records


def test_churn_check_counts_one_corrupted_answer(tmp_path):
    stream = service.ChurnStream(3)
    records = _served(stream, 12, str(tmp_path / "served"))
    assert any(r.cls == "hit" for r in records)
    replay = str(tmp_path / "replay")
    assert service.check_churn(records, replay) == 0
    records[5].body = copy.deepcopy(records[5].body)
    records[5].body["power"] *= 1.0 + 1e-12
    assert service.check_churn(records, replay) == 1


def test_churn_check_counts_a_wrong_cache_flag(tmp_path):
    stream = service.ChurnStream(4)
    records = _served(stream, 12, str(tmp_path / "served"))
    hit = next(r for r in records if r.cls == "hit")
    hit.body = dict(hit.body, cache_hit=False)
    assert service.check_churn(records, str(tmp_path / "replay")) == 1


def test_burst_check_counts_one_corrupted_answer(tmp_path):
    from repro.service import handle_request_doc

    stream = service.BurstStream(5)
    records = []
    for j in range(10):
        cls, doc = next(stream)
        rec = service.Record(cls, doc, due=float(j))
        _, rec.body = handle_request_doc(doc, use_cache=False)
        records.append(rec)
    assert service.check_burst(records) == 0
    records[2].body = copy.deepcopy(records[2].body)
    records[2].body["routing"]["flows"] = records[2].body["routing"][
        "flows"][::-1]
    records[7].body = None  # a transport failure
    assert service.check_burst(records) == 2


def _point(successes):
    from repro.experiments.runner import HeuristicPointStats, PointResult

    stats = {
        n: HeuristicPointStats(n, 4, successes, 0.5, 0.001, 0.01, 0.2)
        for n in ("XY", "BEST")
    }
    return PointResult(x=0.0, stats=stats)


def test_sweep_check_counts_the_trials_of_a_changed_point():
    points = [_point(2) for _ in inprocess.SWEEP_POINTS]
    rounds = [[(0.1, p) for p in points] for _ in range(3)]
    assert inprocess.check_sweep(rounds, points) == 0
    rounds[1][3] = (0.1, _point(3))
    assert inprocess.check_sweep(rounds, points) == inprocess.SWEEP_POINTS[
        3][2]


def test_noc_check_counts_one_changed_point():
    from repro.noc.sweep import LatencyPoint

    pts = [LatencyPoint(f, 100, 99, 12.5, 0.4, False) for f in (0.5, 1.0)]
    rounds = [[(0.01, p) for p in pts] for _ in range(2)]
    assert inprocess.check_noc(rounds, pts) == 0
    rounds[0][1] = (0.01, LatencyPoint(1.0, 100, 99, 12.500001, 0.4, False))
    assert inprocess.check_noc(rounds, pts) == 1


def test_tracer_self_time_excludes_children():
    tr = tracing.Tracer()
    tr.enter("outer")
    tr.enter("inner")
    tr.exit()
    tr.exit(tag="t")
    assert tr.calls == {"outer": 1, "inner": 1}
    assert tr.incl_s["outer"] >= tr.incl_s["inner"]
    assert tr.self_s["outer"] == pytest.approx(
        tr.incl_s["outer"] - tr.incl_s["inner"])
    assert tr.by_tag["t"]["_roots"] == 1


def test_tail_needs_ten_samples_beyond_it():
    assert common.tail(list(range(100)))[0] == 90.0
    assert common.tail(list(range(1000)))[0] == 99.0
    assert common.tail(list(range(15)))[0] == 50.0


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: no program to run."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(HERE, "..", "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_every_declared_layer_metric_is_reported():
    import json

    import run

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    layers = run.layer_metrics({}, tracing.merge([]), units=0)
    reported = set(layers) | {"trace.coverage_share", "trace.overhead_pct"}
    assert reported == declared
