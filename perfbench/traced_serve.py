"""``repro serve`` with the service layer spans installed.

Usage: ``PERFBENCH_TRACE_DIR=<dir> python perfbench/traced_serve.py
[repro serve flags]``.  The spans are installed before the server starts,
so forked pool workers inherit them; every process writes its span
summary to ``<dir>/<pid>.json``.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from layers import install_service  # noqa: E402
from tracing import Tracer  # noqa: E402


def main() -> int:
    from repro.cli import main as repro_main

    tracer = Tracer(os.environ["PERFBENCH_TRACE_DIR"])
    tracer.enable_process_files()
    install_service(tracer)
    return repro_main(["serve", *sys.argv[1:]])


if __name__ == "__main__":
    sys.exit(main())
