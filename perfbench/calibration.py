"""CPU-speed control for wall times measured on a shared machine.

The machines this benchmark runs on share cores with other tenants.  At any
moment one of the process's CPUs may run at half speed while another runs at
full speed, and which one is slow changes every few seconds.  Two measures
keep the numbers comparable between runs:

* ``pin_fastest_cpu`` times a fixed kernel on each allowed CPU and pins the
  process to the fastest; the benchmark repeats this every REPIN_S seconds
  between solves.
* A solve's latency is taken relative to the speed it ran at: the kernel is
  timed right before and right after each solve, and the solve's wall time is
  scaled by REFERENCE_S / (mean of the two kernel times).  The result is in
  seconds at reference speed, the speed at which the kernel takes
  REFERENCE_S.  REFERENCE_S is about the kernel's fastest time on the
  machine the benchmark was built on (2 vCPUs, x86-64, Python 3.11, numpy
  2.4), so there the numbers read as uncontended wall time.  Scaled times
  compare across runs on one machine, not across machines.

The kernel is interpreter work plus small numpy calls, the same mix as a
solve.
"""

import os
import time

import numpy as np

REFERENCE_S = 125e-6
REPIN_S = 0.05
PIN_SAMPLES = 3

_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []

_V = np.arange(3.0)


def kernel() -> float:
    acc = 0.0
    for i in range(150):
        acc += float(_V @ _V) * (i % 5)
    return acc


def sample() -> float:
    """Seconds one run of the kernel takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def pin_fastest_cpu() -> None:
    """Pin this process to whichever allowed CPU runs the kernel fastest now.

    Does nothing where CPU affinity is not available or only one CPU is.
    """
    if len(_CPUS) < 2:
        return
    best = None
    for cpu in _CPUS:
        os.sched_setaffinity(0, {cpu})
        took = sum(sample() for _ in range(PIN_SAMPLES))
        if best is None or took < best[0]:
            best = (took, cpu)
    os.sched_setaffinity(0, {best[1]})
