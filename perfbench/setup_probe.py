"""Time one set-up of a workload in a fresh process and print the seconds.

    python3 perfbench/setup_probe.py <workload> <seed>

Set-up is importing tgk (and numpy with it) and generating the inputs of
the run's first repetition. ``run.py`` starts this several times and
reports the median as ``setup_s``; it pins the BLAS threads first, and
this process inherits them.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402

if __name__ == "__main__":
    wl = workloads.WORKLOADS[sys.argv[1]]
    wl.setup(workloads.sub_seed(int(sys.argv[2]), 0), wl.sizes)
    print(time.perf_counter() - T0)
