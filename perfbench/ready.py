"""Set-up probe of the in-process workloads.

Usage: ``python perfbench/ready.py <workload>``.  Imports the
package, loads the native tier, warms the platform (``paper-sweep``) or
deploys the routings (``noc-latency``), then prints ``ready``.  The time
from launch to that line is one ``setup_s`` sample.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    import inprocess

    workload = sys.argv[1]
    if workload == "paper-sweep":
        inprocess.sweep_setup()
    elif workload == "noc-latency":
        inprocess.noc_setup()
    else:
        raise SystemExit(f"no set-up probe for {workload!r}")
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
