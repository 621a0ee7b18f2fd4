"""Span tracing installed from the benchmark's own files.

Nothing in ``src/`` is edited: :func:`install` replaces a module or class
attribute with a wrapper that records a span around each call and calls
the original.  A span's *self time* is its duration minus the time its
child spans cover; :class:`Tracer` keeps per-layer self and inclusive
totals and call counts in memory and writes them out as one JSON file per
process.

Spans are process-local and single-threaded (the server's event-loop
thread, a pool worker, or the benchmark's own workload loop), so a plain
stack is enough.  A forked pool worker starts from an empty tracer of its
own (``os.register_at_fork``) and writes ``<pid>.json`` in the same
directory as its parent.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: seconds between periodic summary writes of a long-lived process
FLUSH_INTERVAL_S = 0.25


class Tracer:
    """Per-process span recorder with self-time accounting."""

    def __init__(self, out_dir: Optional[str] = None) -> None:
        self.out_dir = out_dir
        #: extra process counters written with the summary
        self.extra: Callable[[], Dict[str, Any]] = dict
        self.reset()

    def reset(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        # per root-span tag: layer -> self seconds, plus the roots' total
        self.by_tag: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._stack: List[list] = []  # [name, start, child_s]
        self._root_layers: Dict[str, float] = defaultdict(float)
        self._last_flush = time.perf_counter()

    # ------------------------------------------------------------------
    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def exit(self, tag: Optional[str] = None) -> None:
        name, start, child = self._stack.pop()
        dur = time.perf_counter() - start
        own = dur - child
        self.self_s[name] += own
        self.incl_s[name] += dur
        self.calls[name] += 1
        self._root_layers[name] += own
        if self._stack:
            self._stack[-1][2] += dur
            return
        # a root span closed: file its layer breakdown under its tag
        bucket = self.by_tag[tag or name]
        for layer, s in self._root_layers.items():
            bucket[layer] += s
        bucket["_root_s"] += dur
        bucket["_roots"] += 1
        self._root_layers.clear()
        if self.out_dir and \
                time.perf_counter() - self._last_flush > FLUSH_INTERVAL_S:
            self.flush()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        return {
            "pid": os.getpid(),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "by_tag": {t: dict(v) for t, v in self.by_tag.items()},
            "extra": self.extra(),
        }

    def flush(self) -> None:
        """Write this process's summary to ``<out_dir>/<pid>.json``."""
        self._last_flush = time.perf_counter()
        if not self.out_dir or not self.calls:
            return
        path = os.path.join(self.out_dir, f"{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.summary(), fh)
        os.replace(tmp, path)

    def enable_process_files(self) -> None:
        """Flush at exit, here and in every forked child (pool workers)."""
        import multiprocessing.util as mp_util

        atexit.register(self.flush)

        def child() -> None:
            self.reset()
            # multiprocessing workers leave through os._exit after
            # running their finalizers, never through atexit
            mp_util.Finalize(None, self.flush, exitpriority=100)

        os.register_at_fork(after_in_child=child)


def merge(summaries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several process summaries into one."""
    out: Dict[str, Any] = {
        "self_s": defaultdict(float),
        "incl_s": defaultdict(float),
        "calls": defaultdict(int),
        "counts": defaultdict(float),
        "by_tag": defaultdict(lambda: defaultdict(float)),
        "extra": defaultdict(float),
    }
    for s in summaries:
        for key in ("self_s", "incl_s", "calls", "counts"):
            for k, v in s[key].items():
                out[key][k] += v
        for tag, layers in s["by_tag"].items():
            for k, v in layers.items():
                out["by_tag"][tag][k] += v
        for k, v in s.get("extra", {}).items():
            out["extra"][k] += v
    return out


def read_dir(out_dir: str) -> Dict[str, Any]:
    """Merge every process summary written under ``out_dir``."""
    summaries = []
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as fh:
                summaries.append(json.load(fh))
    return merge(summaries)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def wrap(
    tracer: Tracer,
    fn: Callable,
    layer: Any,
    *,
    tag: Optional[Callable[[Any], str]] = None,
    counter: Optional[Callable[..., None]] = None,
) -> Callable:
    """``fn`` with a span around every call.

    ``layer`` is a layer name, or a callable of the call's arguments
    returning one (per-heuristic layers).  ``tag`` maps a root call's
    return value to the bucket its breakdown is filed under.
    ``counter(tracer, *args, **kwargs)`` records counts at the boundary.
    """

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        name = layer(*args, **kwargs) if callable(layer) else layer
        if counter is not None:
            counter(tracer, *args, **kwargs)
        tracer.enter(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.exit(tag(result) if tag is not None and result is not None
                        else None)

    return traced


def install(tracer: Tracer, owner: Any, attr: str, layer: Any, **kw) -> None:
    """Replace ``owner.attr`` with its traced wrapper."""
    setattr(owner, attr, wrap(tracer, getattr(owner, attr), layer, **kw))
