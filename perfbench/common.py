"""Shared pieces of the benchmark: statistics, host facts, processes.

Every path here is relative to the checkout root, which is the working
directory the benchmark runs from.
"""

from __future__ import annotations

import json
import os
import platform
import re
import select
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: scratch space for stores and trace files (listed in .gitignore)
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: set-up launches per end-to-end run; ``setup_s`` is their median
SETUP_LAUNCHES = 3

#: percentiles a tail may be reported at, highest first
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def child_env(**extra: str) -> Dict[str, str]:
    """Environment for child processes: the checkout's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_FAULTS", None)
    env.update(extra)
    return env


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), p))


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest percentile with >= 10 samples
    beyond it (the median when there are fewer than 20 samples)."""
    n = len(values)
    for p in TAIL_PERCENTILES:
        if round(n * (100.0 - p) / 100.0, 6) >= 10.0 or p == 50.0:
            return p, percentile(values, p)
    raise AssertionError("unreachable")


#: units per window of :func:`window_tail`
TAIL_WINDOW = 100


def window_tail(values: Sequence[float],
                window: int = TAIL_WINDOW) -> Tuple[float, int]:
    """``(tail, windows)``: the median over consecutive windows of
    ``window`` units of each window's :func:`tail` (its p90).

    One slow second of a shared host moves one window, not the figure.
    Fewer units than a window make one window of all of them.
    """
    n = max(len(values) // window, 1)
    size = len(values) // n
    tails = [tail(values[i * size:(i + 1) * size])[1] for i in range(n)]
    return statistics.median(tails), n


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of ``values``."""
    vals = [float(v) for v in values]
    if not vals:
        return {"n": 0}
    if len(vals) == 1:
        return {"n": 1, "median": vals[0], "q1": vals[0], "q3": vals[0]}
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"n": len(vals), "median": statistics.median(vals), "q1": q1,
            "q3": q3}


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
#: seconds one :func:`reference` call takes at the reference host speed
#: (its median on the 2-core x86_64 host the benchmark was defined on)
REFERENCE_S = 0.0093
#: seconds of work between two host-speed samples
SPEED_SAMPLE_S = 0.15

_REF_MATRIX = np.random.default_rng(0).random((64, 64))


def reference() -> float:
    """Seconds taken by a fixed pure-Python and NumPy kernel.

    The host's speed drifts by tens of percent within seconds (shared
    cores).  Every timing metric is scaled by ``REFERENCE_S / reference()``
    sampled next to the work it times, which reports it at the reference
    speed; the raw figures are printed alongside.  The kernel calls no
    code of the repository, so no change to it can move the scale.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(60_000):
        s += i * i
    d: Dict[int, int] = {}
    for i in range(20_000):
        d[i & 1023] = d.get(i & 1023, 0) + 1
    for _ in range(40):
        _REF_MATRIX.dot(_REF_MATRIX).sum()
    return time.perf_counter() - t0


class HostSpeed:
    """The :func:`reference` samples of one run and its speed factor.

    Single samples jitter by tens of percent; the median over a run's
    samples tracks the host's speed while it ran.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._last = 0.0

    def sample(self) -> None:
        self.samples.append(reference())
        self._last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._last >= SPEED_SAMPLE_S

    @property
    def factor(self) -> float:
        """Multiply a duration by this to get it at the reference speed."""
        return REFERENCE_S / statistics.median(self.samples)


# ----------------------------------------------------------------------
# host facts
# ----------------------------------------------------------------------
def host_facts() -> Dict[str, Any]:
    """Facts recorded with every result."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (git unavailable)"
    version = subprocess.run(
        [sys.executable, "-m", "repro", "--version"], cwd=ROOT,
        env=child_env(), capture_output=True, text=True, timeout=60,
    ).stdout.strip()
    from repro.mesh.kernel import stacked_mode

    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "git_sha": sha,
        "repro_version": version,
        "repro_stacked": stacked_mode(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
def _children(pid: int) -> List[int]:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            out.append(int(entry))
    return out


def peak_rss_mb(pid: int) -> float:
    """Summed peak resident memory (VmHWM) of ``pid`` and its children."""
    total_kb = 0
    for p in [pid, *_children(pid)]:
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def read_line(proc: subprocess.Popen, timeout: float) -> str:
    """One stdout line of ``proc``, or ``""`` on EOF or timeout."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        return ""
    return proc.stdout.readline()


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> str:
    """SIGTERM ``proc``, wait for it (SIGKILL past ``timeout``)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out or ""


class Server:
    """A ``repro serve`` process on an ephemeral port.

    With ``trace_dir`` the server runs under :mod:`traced_serve`, which
    installs the layer spans in the server and its pool workers.
    ``setup_s`` is the time from launch to the listening line.
    """

    def __init__(self, flags: Sequence[str], speed: HostSpeed,
                 trace_dir: Optional[str] = None):
        speed.sample()
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", "serve"]
            env = child_env()
        else:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "traced_serve.py")]
            env = child_env(PERFBENCH_TRACE_DIR=trace_dir)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [*cmd, "--port", "0", *flags], cwd=ROOT, env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        line = read_line(self.proc, 120.0)
        self.setup_s = time.perf_counter() - t0
        m = re.search(r"http://[\d.]+:(\d+)", line)
        if m is None:
            out = stop(self.proc, 10.0)
            raise RuntimeError(f"server did not start: {line!r} {out!r}")
        self.port = int(m.group(1))

    def client(self, **kw):
        from repro.service import ServiceClient

        return ServiceClient("127.0.0.1", self.port, retry=None, **kw)

    def stats(self) -> Dict[str, Any]:
        c = self.client(timeout=30)
        try:
            return c.stats()
        finally:
            c.close()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def close(self) -> None:
        out = stop(self.proc)
        if self.proc.returncode not in (0, -signal.SIGTERM):
            raise RuntimeError(
                f"server exited {self.proc.returncode}: {out[-2000:]}"
            )


def setup_probe(workload: str, speed: HostSpeed) -> float:
    """Seconds from launch until :mod:`ready` reports set-up done."""
    speed.sample()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "ready.py"), workload],
        cwd=ROOT, env=child_env(), text=True, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    line = read_line(proc, 120.0)
    elapsed = time.perf_counter() - t0
    out = stop(proc, 30.0)
    if line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed: {line!r} {out!r}")
    return elapsed


def canonical(body: Dict[str, Any]) -> str:
    """A served or replayed body as compared: JSON, ``elapsed_ms`` dropped."""
    return json.dumps(
        {k: v for k, v in body.items() if k != "elapsed_ms"}, sort_keys=True
    )
