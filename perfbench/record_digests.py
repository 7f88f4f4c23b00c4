"""Record the output digest of every workload and input pool entry.

    python3 perfbench/record_digests.py [workload ...]

Solves each pool entry's jobs once (untimed) and writes ``digests.json``,
which ``run.py`` compares every run's outputs against.  Run it only at a
commit whose outputs are known good: the digests define correct output for
later commits.  Refuses to record a pool entry whose solves fail or break an
invariant from ``check.py``.
"""

import sys

import run


def main(argv) -> int:
    run.load_program()
    import json

    import calibration
    import check
    import workloads
    from icqs import cli

    names = argv or list(workloads.WORKLOADS)
    try:
        with open(check.DIGESTS_PATH, "r", encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    for workload in names:
        entry = table.setdefault(workload, {})
        for pool in range(workloads.POOL):
            jobs = workloads.build_jobs(workload, pool)
            outputs = run.run_pass(cli, calibration, jobs, [[] for _ in jobs], [])
            records = run.records_of(check, jobs, outputs)
            problems = run.invariant_problems(check, workloads, workload, jobs, outputs)
            failed = [
                f"{name}: {out!r}"
                for (name, _, _), out in zip(jobs, outputs)
                if isinstance(out, BaseException)
            ]
            if problems or failed:
                print(f"{workload} pool {pool}: not recorded: {(problems + failed)[:5]}")
                return 1
            entry[str(pool)] = check.digest(records)
            print(f"{workload} pool {pool}: {entry[str(pool)]}", flush=True)
    with open(check.DIGESTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
