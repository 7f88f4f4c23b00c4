"""One sha256 per benchmark workload over every output bit of its solves.

    python3 tests/report_bits.py --src path/to/src [--workloads corpus cycling]
                                 [--pools 0 1 2 3] [--mode integer]

Runs `icqs.cli.solve_pipeline` on every job of the given pools of each
workload (`perfbench/workloads.py` next to this directory), with `icqs`
imported from ``--src``, and prints one line per workload: its name and the
sha256 of every report field but the wall time ``t_br`` (floats as hex),
every trace's profiles (dtype and bytes), norms (as hex) and outcome
fields, and every error (its type and message).  Two source trees give the
same hashes exactly when their solves agree bit for bit, so comparing a
change with its parent is running this once on each tree.  BLAS is pinned
to one thread, as in the benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def canonical(value) -> str:
    """A text form of a report value in which every float is its hex."""
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (int, str)):
        return repr(value)
    if isinstance(value, dict):
        return "{" + ",".join(f"{k!r}:{canonical(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in value) + "]"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def solve_bits(cli, name: str, inst, start, mode: str) -> str:
    """Every output bit of one solve, or its error, as text."""
    try:
        result = cli.solve_pipeline(inst, start=start, mode=mode)
    except Exception as exc:  # a failed solve is part of the outputs
        return f"{name} error {type(exc).__name__}: {exc}"
    trace = result.pop("trace")
    result.pop("t_br")
    profiles = trace.profiles
    return " ".join((
        name,
        canonical(result),
        profiles.dtype.str + str(profiles.shape) + profiles.tobytes().hex(),
        canonical([trace.norms, trace.outcome, trace.mode, trace.cycle_start, trace.cycle_repeat,
                   trace.fixed_index, trace.divergence_index]),
    ))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="the source tree to import icqs from")
    parser.add_argument("--workloads", nargs="+", default=["corpus", "cycling", "divergence"])
    parser.add_argument("--pools", nargs="+", type=int, default=[0, 1, 2, 3])
    parser.add_argument("--mode", default="integer", choices=["integer", "continuous"])
    args = parser.parse_args(argv)
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(Path(args.src).resolve()), str(PERFBENCH)]
    from icqs import cli
    import workloads

    print(f"icqs from {Path(cli.__file__).parent}", file=sys.stderr)

    for workload in args.workloads:
        h = hashlib.sha256()
        for pool in args.pools:
            for name, inst, start in workloads.build_jobs(workload, pool):
                h.update(solve_bits(cli, name, inst, start, args.mode).encode())
                h.update(b"\n")
        print(f"{workload} pools {','.join(map(str, args.pools))} {args.mode}: {h.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
