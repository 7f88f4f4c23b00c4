"""Per-solve benchmark of ``icqs.cli.solve_pipeline``.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 30 --trace 0

Runs one workload (``corpus``, ``cycling`` or ``divergence``; see
``workloads.py``) in this single process, calling ``solve_pipeline`` once
per (instance, start) job, which is the per-instance work of ``icqs solve``
and ``icqs bench``.  BLAS is pinned to one thread.

The jobs run in whole passes, closed loop, for about ``--seconds``.  Each
solve's wall time is scaled to a reference CPU speed (see
``calibration.py``), and a job's latency is its median over the passes.  Every pass's
outputs are compared with the first pass, and the first pass is checked
against the digest recorded for the seed plus the invariants in
``check.py``, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes after a warm-up pass and reports the per-layer
metrics of the fastest traced pass (spans from ``tracer.py``), plus the
tracing overhead.  Spans are written to ``.bench_out/`` at the end.

Human-readable lines go first; the last line of standard output is one JSON
object with keys correct, attempted, failed and metrics.  The exit code is 0
when the outputs are correct, 1 when they are not, and 2 when the program
cannot be found or loaded.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("corpus", "cycling", "divergence")
SETUP_PROBES = 7
SETUP_PROBE_TIMEOUT_S = 60
MIN_PASSES = 3
TAIL_BEYOND = 10

LAYERS_WITH_SOLVE_TIME = ("dynamics", "iqp", "game", "finite", "bounds", "linalg")


class ProgramMissing(Exception):
    """The solver's sources are not where the benchmark expects them."""


def load_program():
    """Import icqs from this checkout's ``src`` and nowhere else."""
    if not (SRC / "icqs" / "__init__.py").is_file():
        raise ProgramMissing(f"no icqs package under {SRC}")
    sys.path.insert(0, str(SRC))
    import icqs

    if SRC.resolve() not in Path(icqs.__file__).resolve().parents:
        raise ProgramMissing(f"icqs was imported from {icqs.__file__}, not from {SRC}")
    return icqs


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --- running solves -------------------------------------------------------------

def run_pass(cli, calibration, jobs, samples, speeds, tracer=None):
    """Solve every job once, appending (wall seconds, kernel seconds around the
    solve) to ``samples[i]`` and every kernel time to ``speeds``.

    Returns one report or exception per job.  Every exception is a failed
    solve, including the bare AssertionError of iqp's proximity check.
    """
    clock = time.perf_counter
    outputs = []
    pinned_at = -math.inf
    for i, (_, inst, start) in enumerate(jobs):
        if clock() - pinned_at > calibration.REPIN_S:
            calibration.pin_fastest_cpu()
            pinned_at = clock()
            before = calibration.sample()
            speeds.append(before)
        if tracer is not None:
            tracer.solve_id = i
        t0 = clock()
        try:
            result = cli.solve_pipeline(inst, start=start)
        except Exception as exc:  # a failed solve is counted, not fatal
            result = exc
        wall = clock() - t0
        after = calibration.sample()
        samples[i].append((wall, 0.5 * (before + after)))
        speeds.append(after)
        before = after
        outputs.append(result)
    return outputs


def records_of(check, jobs, outputs):
    return [check.solve_record(name, out) for (name, _, _), out in zip(jobs, outputs)]


def scaled(samples, reference):
    """Per job, per pass: wall time scaled to the ``reference`` kernel time."""
    return [[wall * reference / kernel for wall, kernel in s] for s in samples]


# --- metrics ---------------------------------------------------------------------

def end_to_end_metrics(times, failed_mask, setup_s):
    """``times[i]`` holds job i's scaled time in every pass; a job's latency
    is its median over the passes."""
    n = len(times)
    ok = n - sum(failed_mask)
    per_job = [statistics.median(ts) for ts in times]
    # a failed solve misses every latency target
    lat = sorted(math.inf if bad else t for t, bad in zip(per_job, failed_mask))
    tail_rank = max(n - TAIL_BEYOND - 1, 0)
    metrics = {
        "solves_per_s": (ok / sum(per_job), "1/s"),
        "solve_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "solve_ms_tail": (lat[tail_rank] * 1e3, "ms"),
        "solved_frac": (ok / n, "fraction"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    tail_note = f"p{100.0 * (tail_rank + 1) / n:.2f} of {n} jobs, {n - tail_rank - 1} beyond"
    return metrics, tail_note


def per_layer_metrics(summary, counters, n, setup_instgen_s, overhead_frac, shares):
    def entry(name):
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def calls(name):
        return (entry(name)["calls"] / n, "count")

    def ms(name):
        return (entry(name)["total_s"] * 1e3 / n, "ms")

    def self_ms(name):
        return (entry(name)["self_s"] * 1e3 / n, "ms")

    im = entry("iqp.integer_min")
    metrics = {
        "game.classify.calls": calls("game.classify"),
        "game.classify.ms": ms("game.classify"),
        "bounds.guarantee_pack.self_ms": self_ms("bounds.guarantee_pack"),
        "bounds.l_bound_theoretical.calls": calls("bounds.l_bound_theoretical"),
        "bounds.l_bound_theoretical.ms": ms("bounds.l_bound_theoretical"),
        "bounds.delta_a_priori.calls": calls("bounds.delta_a_priori"),
        "bounds.delta_a_priori.self_ms": self_ms("bounds.delta_a_priori"),
        "finite.restrict.ms": ms("finite.restrict"),
        "finite.solve_equilibrium.ms": ms("finite.solve_equilibrium"),
        "finite.verify_delta.self_ms": self_ms("finite.verify_delta"),
        "finite.game_cells": (counters["game_cells"] / n, "count"),
        "dynamics.run_br.self_ms": self_ms("dynamics.run_br"),
        "dynamics.run_br.sweeps": (counters["sweeps"] / n, "count"),
        "game.best_response.calls": calls("game.best_response"),
        "game.best_response.self_ms": self_ms("game.best_response"),
        "iqp.integer_min.calls": calls("iqp.integer_min"),
        "iqp.integer_min.ms": ms("iqp.integer_min"),
        "iqp.integer_min.us_per_call": (
            im["total_s"] * 1e6 / im["calls"] if im["calls"] else 0.0,
            "us",
        ),
        "iqp.integer_min.rounded_frac": (counters["rounded_frac"], "fraction"),
        "linalg.cholesky.calls": calls("linalg.cholesky"),
        "linalg.sym_eigen.calls": calls("linalg.sym_eigen"),
        "linalg.singular_values.calls": calls("linalg.singular_values"),
        "cli.solve_pipeline.self_ms": self_ms("cli.solve_pipeline"),
        "instgen.ms": (setup_instgen_s * 1e3, "ms"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
    }
    for layer in LAYERS_WITH_SOLVE_TIME:
        metrics[f"{layer}.share"] = (shares[layer], "fraction")
    return metrics


# --- set-up ------------------------------------------------------------------------

def probe_setup(calibration, workload, seed):
    """(set-up seconds, scaled set-up seconds) from fresh processes, and the
    input hashes they saw."""
    samples, hashes = [], set()
    for _ in range(SETUP_PROBES):
        calibration.pin_fastest_cpu()  # the child inherits the affinity
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True,
            text=True,
            timeout=SETUP_PROBE_TIMEOUT_S,
            check=True,
            cwd=ROOT,
        )
        line = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((line["setup_s"], line["scaled_setup_s"]))
        hashes.add(line["inputs_hash"])
    return samples, hashes


def provenance(np, workload, seed, pool, inputs_hash):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workload": workload,
        "seed": seed,
        "pool": pool,
        "inputs_sha256": inputs_hash,
    }


# --- the two modes -----------------------------------------------------------------

class Bench:
    """One workload's jobs, the solver entry point and the samples taken."""

    def __init__(self, cli, check, calibration, jobs):
        self.cli, self.check, self.calibration, self.jobs = cli, check, calibration, jobs
        self.speeds: list[float] = []
        self.first = self.first_records = None
        self.passes = self.differing = 0

    def new_samples(self):
        return [[] for _ in self.jobs]

    def run(self, samples, tracer=None):
        """One pass; the first pass's outputs are kept, later ones compared."""
        outputs = run_pass(self.cli, self.calibration, self.jobs, samples, self.speeds, tracer)
        self.passes += 1
        records = records_of(self.check, self.jobs, outputs)
        if self.first is None:
            self.first, self.first_records = outputs, records
        elif records != self.first_records:
            self.differing += 1
        return outputs


def keep_going(start, rounds, seconds, min_rounds):
    """True while another round of the same length would end within ``seconds``."""
    elapsed = time.perf_counter() - start
    return rounds < min_rounds or elapsed * (rounds + 1) / rounds <= seconds


def measure_untraced(bench, seconds):
    """Whole passes while the next would end within ``seconds`` (at least
    MIN_PASSES, so that every job has that many samples)."""
    samples = bench.new_samples()
    start = time.perf_counter()
    while True:
        bench.run(samples)
        if not keep_going(start, bench.passes, seconds, MIN_PASSES):
            return samples


def measure_traced(np, iqp, tracer_mod, bench, seconds):
    """A warm-up pass, then traced and untraced passes in turn.

    Returns the tracer and counters of the fastest traced pass and the
    tracing overhead: traced over untraced time, each the sum of the jobs'
    medians over passes, minus one.
    """
    continuous_min = iqp.continuous_min
    untraced, traced = bench.new_samples(), bench.new_samples()
    start = time.perf_counter()
    bench.run(untraced)
    best, rounds = None, 0
    while True:
        counters = {"sweeps": 0, "game_cells": 0}
        minimised = []

        def count_sweeps(args, kwargs, trace):
            counters["sweeps"] += trace.iterations

        def count_cells(args, kwargs, fg):
            counters["game_cells"] += math.prod(fg.sizes)

        def keep_minimised(args, kwargs, result):
            minimised.append((args[0], result[0]))

        hooks = {
            "dynamics.run_br": count_sweeps,
            "finite.restrict": count_cells,
            "iqp.integer_min": keep_minimised,
        }
        tracer = tracer_mod.Tracer(hooks)
        tracer.install()
        try:
            bench.run(traced, tracer)
        finally:
            tracer.uninstall()
        # share of calls the rounding certificate could answer, computed with
        # the tracer off so that it adds to no span
        rounded = sum(bool(np.array_equal(np.rint(continuous_min(q)), v)) for q, v in minimised)
        counters["rounded_frac"] = rounded / len(minimised) if minimised else 0.0
        pass_s = tracer.summary()["cli.solve_pipeline"]["total_s"]
        if best is None or pass_s < best[0]:
            best = (pass_s, tracer, counters)
        bench.run(untraced)
        rounds += 1
        if not keep_going(start, rounds, seconds, 1):
            break
    ref = bench.calibration.REFERENCE_S
    traced_s = sum(statistics.median(ts) for ts in scaled(traced, ref))
    untraced_s = sum(statistics.median(ts) for ts in scaled(untraced, ref))
    overhead = traced_s / untraced_s - 1.0
    return best[1], best[2], overhead


def digest_problems(check, workload, pool, records):
    expected = check.recorded_digest(workload, pool)
    got = check.digest(records)
    if expected is None:
        return [f"no digest recorded for {workload} pool {pool}"]
    if got != expected:
        return [f"output digest {got[:16]} differs from recorded {expected[:16]}"]
    return []


def invariant_problems(check, workloads, workload, jobs, outputs):
    problems = []
    for (name, inst, _), result in zip(jobs, outputs):
        if isinstance(result, BaseException):
            continue  # counted as a failure, and the digest records it
        for p in check.solve_problems(inst, result):
            problems.append(f"{name}: {p}")
        if workload == "cycling":
            for p in check.cycling_input_problems(result, workloads.CYCLING_SIGMA):
                problems.append(f"{name}: {p}")
    return problems


def engagement_problems(workload, outputs, summary, cells_per_solve):
    """The layers each workload was chosen to exercise are still exercised."""
    outcomes = Counter(
        "error" if isinstance(r, BaseException) else r["outcome"] for r in outputs
    )
    n = len(outputs)
    finite_calls = sum(v["calls"] for k, v in summary.items() if k.startswith("finite."))
    bounds_calls = sum(v["calls"] for k, v in summary.items() if k.startswith("bounds."))
    problems = []
    if workload == "corpus":
        if outcomes["fixed_point"] != n or cells_per_solve != 1.0:
            problems.append(f"corpus solves are not all 1x1 fixed points: {dict(outcomes)}")
    elif workload == "cycling":
        if outcomes["cycle"] * 2 < n or cells_per_solve <= 1.0:
            problems.append(
                f"cycling: {outcomes['cycle']} of {n} cycles, {cells_per_solve:.2f} cells per solve"
            )
    elif workload == "divergence":
        if outcomes["divergence"] != n or finite_calls or bounds_calls:
            problems.append(
                f"divergence: outcomes {dict(outcomes)}, {finite_calls} finite and "
                f"{bounds_calls} bounds calls"
            )
    return problems


def emit(lines, correct, attempted, failed, metrics):
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value if math.isfinite(value) else 1e12, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        icqs = load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import numpy as np

    import calibration
    import check
    import tracer as tracer_mod
    import workloads
    from icqs import cli, iqp

    pool = workloads.pool_index(args.seed)
    lines = [f"workload {args.workload}, seed {args.seed} (input pool {pool})"]

    setup_tracer = None
    if args.trace:
        setup_tracer = tracer_mod.Tracer()
        setup_tracer.install()
    t0 = time.perf_counter()
    try:
        jobs = workloads.build_jobs(args.workload, args.seed)
    finally:
        if setup_tracer is not None:
            setup_tracer.uninstall()
    generation_s = time.perf_counter() - t0
    inputs_hash = workloads.inputs_hash(jobs)
    prov = provenance(np, args.workload, args.seed, pool, inputs_hash)
    prov["icqs"] = icqs.__version__
    lines.append("provenance: " + json.dumps(prov, sort_keys=True))
    lines.append(
        f"{len(jobs)} solves per pass; in-process set-up {time.perf_counter() - T_START:.3f} s "
        f"(generation {generation_s:.3f} s)"
    )
    bench = Bench(cli, check, calibration, jobs)
    problems = []
    extra = {}
    measure_start = time.perf_counter()

    if args.trace:
        tracer, counters, overhead = measure_traced(np, iqp, tracer_mod, bench, args.seconds)
        summary = tracer.summary()
        n = len(jobs)
        solve_s = summary["cli.solve_pipeline"]["total_s"]
        layer_s = tracer.layer_seconds()
        shares = {layer: layer_s.get(layer, 0.0) / solve_s for layer in LAYERS_WITH_SOLVE_TIME}
        instgen_s = setup_tracer.layer_seconds().get("instgen", 0.0)
        metrics = per_layer_metrics(summary, counters, n, instgen_s, overhead, shares)
        problems += engagement_problems(args.workload, bench.first, summary, counters["game_cells"] / n)
        stages = tracer.children_seconds("cli.solve_pipeline")
        lines.append(
            f"passes: {bench.passes} in {time.perf_counter() - measure_start:.1f} s "
            "(a warm-up, then traced and untraced in turn)"
        )
        lines.append(f"fastest traced pass: {solve_s:.3f} s in solve_pipeline over {n} solves")
        lines.append(
            "stage split (s, direct children of solve_pipeline): "
            + ", ".join(f"{k} {v:.3f}" for k, v in sorted(stages.items(), key=lambda kv: -kv[1]))
        )
        lines.append(
            "layer shares of solve time: "
            + ", ".join(f"{k} {v:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1]))
        )
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(spans_path)
        lines.append(f"spans: {spans_path.relative_to(ROOT)}")
        extra = {"stages_s": stages, "layer_shares": shares}
    else:
        probes, probe_hashes = probe_setup(calibration, args.workload, args.seed)
        if probe_hashes != {inputs_hash}:
            problems.append(f"the same seed gave different inputs: {sorted(probe_hashes)}")
        samples = measure_untraced(bench, args.seconds)
        ref = calibration.REFERENCE_S
        failed_mask = [isinstance(r, BaseException) for r in bench.first]
        setup_s = statistics.median(scaled_s for _, scaled_s in probes)
        metrics, tail_note = end_to_end_metrics(scaled(samples, ref), failed_mask, setup_s)
        raw = [statistics.median(wall for wall, _ in s) for s in samples]
        lines.append(
            f"passes: {bench.passes} in {time.perf_counter() - measure_start:.1f} s; "
            f"kernel {min(bench.speeds) * 1e6:.1f} us fastest, "
            f"{statistics.median(bench.speeds) * 1e6:.1f} us median, {ref * 1e6:.1f} us reference"
        )
        lines.append(
            f"unscaled: {len(raw) / sum(raw):.4g} solves/s, p50 {statistics.median(raw) * 1e3:.4g} ms; "
            f"set-up {statistics.median(s for s, _ in probes):.4g} s"
        )
        lines.append(f"solve_ms_tail is {tail_note}")
        extra = {
            "tail": tail_note,
            "setup_probes": probes,
            "kernel_fastest_s": min(bench.speeds),
            "kernel_median_s": statistics.median(bench.speeds),
        }

    failures = Counter(type(r).__name__ for r in bench.first if isinstance(r, BaseException))
    failed = sum(failures.values())
    if bench.differing:
        problems.append(f"{bench.differing} passes gave outputs different from the first pass")
    problems += digest_problems(check, args.workload, pool, bench.first_records)
    problems += invariant_problems(check, workloads, args.workload, jobs, bench.first)
    correct = not problems
    lines.append(
        f"failed_frac: {failed / len(jobs)} fraction ({failed} of {len(jobs)}); "
        f"failures by type: {dict(failures)}"
    )
    for name, (value, unit) in metrics.items():
        lines.append(f"{name}: {value!r} {unit}")
    lines.append(f"correct: {correct}")
    lines.extend(f"  problem: {p}" for p in problems[:20])
    if len(problems) > 20:
        lines.append(f"  ... and {len(problems) - 20} more problems")

    OUT_DIR.mkdir(exist_ok=True)
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "provenance": prov,
                "correct": correct,
                "problems": problems,
                "attempted": len(jobs),
                "failed": failed,
                "failures_by_type": dict(failures),
                "failed_frac": failed / len(jobs),
                "passes": bench.passes,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                **extra,
            },
            fh,
            indent=1,
        )
    lines.append(f"result: {result_path.relative_to(ROOT)}")
    emit(lines, correct, len(jobs), failed, metrics)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
