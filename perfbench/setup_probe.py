"""Time the benchmark's set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Set-up is the library import plus building the workload's input, the same
interval run.py times in its own process; the seconds are printed last.
"""

import sys
import time

from run import import_library

t0 = time.perf_counter()
import_library()
from workloads import WORKLOADS  # noqa: E402  (timed import)

WORKLOADS[sys.argv[1]].cloud(int(sys.argv[2]))
print(repr(time.perf_counter() - t0))
