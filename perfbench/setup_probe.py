"""Time one benchmark set-up in a fresh interpreter: import plus pass-0 inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

Prints the elapsed seconds.  run.py starts several of these and reports the
median as setup_s, so work moved into import or input generation shows.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402

import bootstrap  # noqa: E402

bootstrap.prepare()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].generate(int(sys.argv[2]), 0)
print(time.perf_counter() - START)
