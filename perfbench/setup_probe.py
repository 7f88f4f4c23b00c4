"""Time one fresh set-up: imports plus input generation for a workload.

Run by ``run.py`` in a child process, several times per benchmark run, so
that import cost is measured cold each time.  Prints one JSON line with the
seconds taken, the set-up time scaled to reference speed and the hash of the
generated inputs.

    python3 perfbench/setup_probe.py <workload> <seed>

The speed is taken from a pure-Python kernel timed just before the imports
and just after generation.  It is not ``calibration.kernel``: that one needs
numpy, whose import belongs to the set-up, and set-up work (imports, small
allocations) slows less under contention than numpy calls do.
"""

import time

T_START = time.perf_counter()

# Seconds the kernel below takes at reference speed (see calibration.py).
KERNEL_REFERENCE_S = 0.6e-3


def kernel() -> int:
    acc, table = 0, {}
    for i in range(3000):
        table[i % 97] = str(i)
        acc += len(table[i % 97])
    return acc


def timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


KERNEL_BEFORE_S = timed_kernel()
T_SETUP = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports numpy and icqs)


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    jobs = workloads.build_jobs(workload, seed)
    setup_s = time.perf_counter() - T_SETUP
    speed = 0.5 * (KERNEL_BEFORE_S + timed_kernel())
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "scaled_setup_s": setup_s * KERNEL_REFERENCE_S / speed,
                "inputs_hash": workloads.inputs_hash(jobs),
            }
        )
    )


if __name__ == "__main__":
    main()
