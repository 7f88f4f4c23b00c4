"""Command-line front door: generate, classify, solve, benchmark, replicate.

Every command is deterministic given its flags and seed.  Exit codes:
0 success, 2 argument or file parse error, 3 solver error, 4 replication
check failed.  Tables are comma-separated UTF-8 with LF line endings and a
header row.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from . import bounds, dynamics, finite, game, instgen
from .errors import IcqsError, InvalidM

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_REPLICATION = 4


@dataclass
class RunRecord:
    """One row of the benchmark/result table."""

    instance: str
    n_players: int
    t_br: float  # wall seconds around the solve pipeline only
    k_br: int
    outcome: str
    max_gain: float | None
    max_delta_a_priori: float | None


def _parse_start(text: str, inst: game.IcqsInstance, mode: str) -> np.ndarray:
    # one comma list per player, players separated by semicolons; checked
    # here, so that a bad start is a parse error, and passed on as the
    # joint vector `dynamics.validate_start` returns
    try:
        parts = [p for p in text.split(";") if p.strip()]
        vectors = [np.array([float(v) for v in part.split(",")]) for part in parts]
    except ValueError as exc:
        raise IcqsError(f"cannot parse start {text!r}: {exc}") from exc
    return dynamics.validate_start(inst, vectors, mode)


def solve_pipeline(
    inst: game.IcqsInstance,
    start=None,
    max_iters: int = dynamics.DEFAULT_MAX_ITERS,
    mode: str = dynamics.INTEGER,
    *,
    joint: np.ndarray | None = None,
) -> dict:
    """Classify, iterate, restrict, solve the finite game, verify deltas.

    Returns a plain-dict report mirroring the instance file format; the
    equilibrium stage is skipped for divergent or capped runs.  The outcome,
    the radii and every bound read each player's proven proximity radius.
    The bounds ``l_bound``, ``delta_a_posteriori`` and ``delta_a_priori``
    are each one list under the key ``"exact"``.

    ``start`` holds one vector per player; ``joint``, given in its place,
    is the start as `dynamics.validate_start` returned it for this instance
    and mode, and is not checked again.  The start is checked first
    (DimensionMismatch), then the termination and divergence radii are read
    (BoundOverflow when one is unproven or overflows), then the run starts.
    So a radius error comes at once, before any sweep, and wins over every
    error the run would raise: ValueError for ``max_iters`` or ``mode``, and
    a sweep's own (a search budget, a proximity violation, a response
    beyond int64).
    """
    t0 = time.perf_counter()
    report = inst.report
    if joint is None:
        joint = dynamics.validate_start(inst, start, mode)
    termination_radius = dynamics.termination_radius(inst)
    divergence_radius = dynamics.divergence_radius(inst)
    trace = dynamics.run_br(inst, max_iters=max_iters, mode=mode, joint=joint)
    result: dict = {
        "classification": report.classification.value,
        "rho": report.rho,
        "sigma_max": list(report.sigma_max),
        "sigma_min": list(report.sigma_min),
        "outcome": trace.outcome,
        "iterations": trace.iterations,
        "termination_radius": termination_radius,
        "divergence_radius": divergence_radius,
        "mode": mode,
    }
    equilibrium = None
    if trace.outcome in (dynamics.OUTCOME_CYCLE, dynamics.OUTCOME_FIXED_POINT):
        if mode == dynamics.INTEGER:
            sets = dynamics.cycle_sets(trace)
            fg = finite.restrict(inst, sets)
            profile, achieved_eps = finite.solve_equilibrium(fg)
            delta = finite.verify_delta(inst, fg, profile, trace)
            pack = bounds.guarantee_pack(inst, sets)
            delta_bounded, delta_bounded_reason = _delta_bounded(delta, pack, report)
            equilibrium = {
                "strategies": [S_i.tolist() for S_i in fg.strategies],
                "probabilities": [p.tolist() for p in profile.probs],
                "within_game_eps": achieved_eps,
                "expected_costs": list(delta.expected_costs),
                "deviation_costs": list(delta.deviation_costs),
                "deviation_gains": list(delta.gains),
                "cycle_diameters": list(pack.l_measured),
                **{
                    name: {"exact": _maybe_list(getattr(pack, name))}
                    for name in ("l_bound", "delta_a_posteriori", "delta_a_priori")
                },
                "delta_bounded": delta_bounded,
                "delta_bounded_reason": delta_bounded_reason,
            }
        else:
            equilibrium = {"fixed_point": [x.tolist() for x in inst.split(trace.profiles[-1])]}
    result["equilibrium"] = equilibrium
    result["t_br"] = time.perf_counter() - t0
    result["trace"] = trace
    return result


def _maybe_list(values):
    if values is None:
        return None
    return [None if math.isinf(v) else v for v in values]


def _delta_bounded(
    delta: finite.DeltaReport, pack: bounds.GuaranteePack, report: game.AdequacyReport
) -> tuple[bool | None, str]:
    """Whether the gains are within the finite a-priori bounds, and why;
    None when no player has a finite bound.

    Player i's gain may exceed its bound by ``finite.EQ_TOLERANCE`` times
    the larger of |expected cost_i| and |deviation cost_i|, the rounding of
    the two costs it is the difference of, with no floor at 1.
    """
    priori = pack.delta_a_priori
    if priori is None:
        return None, f"no a-priori bound: the instance is {report.classification.value}"
    checked = [
        (g, b + finite.EQ_TOLERANCE * max(abs(e), abs(c)))
        for g, b, e, c in zip(delta.gains, priori, delta.expected_costs, delta.deviation_costs)
        if math.isfinite(b)
    ]
    if not checked:
        return None, (
            "no finite a-priori bound: the L-bound closure is infinite: "
            f"sum sigma^2/(1+sigma^2) = {bounds.closure_criterion(report.sigma_max):.2f} >= 1"
        )
    ok = all(g <= limit for g, limit in checked)
    verdict = "within" if ok else "exceed"
    return ok, (
        f"gains {verdict} the finite a-priori bounds of "
        f"{len(checked)} of {len(delta.gains)} players"
    )


def record_from_result(name: str, inst: game.IcqsInstance, result: dict) -> RunRecord:
    eq = result.get("equilibrium") or {}
    gains = eq.get("deviation_gains")
    dpe = (eq.get("delta_a_priori") or {}).get("exact")
    return RunRecord(
        instance=name,
        n_players=inst.k,
        t_br=result["t_br"],
        k_br=result["iterations"],
        outcome=result["outcome"],
        max_gain=max(gains) if gains else None,
        max_delta_a_priori=max(v for v in dpe) if dpe and None not in dpe else None,
    )


def _load(path: str) -> game.IcqsInstance:
    # the file is at fault for any failure to build the instance from it:
    # unreadable, not JSON, not an instance document, or an instance the
    # checks of `game.make_instance` reject
    try:
        return game.load_instance(path)
    except (OSError, ValueError, LookupError, TypeError, AttributeError, IcqsError) as exc:
        raise SystemExit(_fail(f"cannot read instance {path}: {exc}", EXIT_PARSE))


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_classify(args) -> int:
    inst = _load(args.instance)
    report = inst.report
    print(f"classification: {report.classification.value}")
    print(f"rho: {report.rho if report.rho is not None else ''}")
    for i in range(inst.k):
        print(
            f"player {i}: sigma_max={report.sigma_max[i]:.12g} sigma_min={report.sigma_min[i]:.12g}"
        )
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = _load(args.instance)
    _check_max_iters(args)
    try:
        joint = _parse_start(args.start, inst, args.mode) if args.start else None
    except IcqsError as exc:
        return _fail(str(exc), EXIT_PARSE)
    try:
        result = solve_pipeline(inst, max_iters=args.max_iters, mode=args.mode, joint=joint)
    except IcqsError as exc:
        return _fail(str(exc), EXIT_SOLVER)
    trace = result.pop("trace")
    record = record_from_result(Path(args.instance).stem, inst, result)
    out_dir = Path(args.out) if args.out else Path(args.instance).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = Path(args.instance).stem
    report_path = out_dir / f"{stem}.report.json"
    trace_path = out_dir / f"{stem}.trace.csv"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    dynamics.export_trace(trace, trace_path)
    print(f"outcome: {result['outcome']} after {result['iterations']} iterations")
    eq = result.get("equilibrium") or {}
    if "deviation_gains" in eq:
        print(f"max deviation gain: {max(eq['deviation_gains']):.6g}")
        if eq["delta_bounded"] is False:
            print(f"WARNING: {eq['delta_bounded_reason']}")
        elif eq["delta_bounded"] is None:
            print(f"NOT delta-bounded: {eq['delta_bounded_reason']}")
    print(f"report: {report_path}")
    print(f"trace: {trace_path}")
    return EXIT_OK


def _int_field(
    entry: dict, key: str, default: int | None = None, minimum: int | None = None
) -> int:
    value = entry.get(key, default)
    if value is None:
        raise IcqsError(f"{entry.get('family')} entry needs {key!r}")
    error = IcqsError(f"{key!r} must be an integer, got {value!r}")
    # a bool is an int to Python, int() truncates a float, and a JSON 1e400 is inf
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise error
    try:
        number = int(value)
    except (TypeError, ValueError):
        raise error from None
    if minimum is not None and number < minimum:
        raise IcqsError(f"{key!r} must be >= {minimum}, got {number}")
    return number


def _parse_entry(entry: dict, index: int) -> tuple[str, int, Callable[[], game.IcqsInstance]]:
    """Name, player count and generator of one entry; IcqsError when malformed."""
    family = entry.get("family")
    seed = _int_field(entry, "seed", index)
    if family == "pricing":
        spec = instgen.PricingSpec(
            n_players=_int_field(entry, "n_players", minimum=2), seed=seed
        )
        return f"pricing-{spec.n_players}p-s{seed}", spec.n_players, partial(instgen.gen_pricing, spec)
    if family == "random":
        spec = instgen.RandomSpec(
            n_players=_int_field(entry, "n_players", minimum=2),
            vars_per_player=_int_field(entry, "vars_per_player", 5, minimum=1),
            seed=seed,
        )
        name = f"random-{spec.n_players}p-{spec.vars_per_player}v-s{seed}"
        return name, spec.n_players, partial(instgen.gen_random, spec)
    if family == "negative":
        spec = instgen.NegativeSpec(
            n_players=_int_field(entry, "n_players", 2, minimum=2),
            vars_per_player=_int_field(entry, "vars_per_player", 2, minimum=1),
            seed=seed,
        )
        name = f"negative-{spec.n_players}p-{spec.vars_per_player}v-s{seed}"
        return name, spec.n_players, partial(instgen.gen_negative, spec)
    if family == "builtin":
        name = entry.get("name")
        if name not in instgen.BUILTIN_NAMES:
            raise IcqsError(
                f"builtin entry needs a name from {instgen.BUILTIN_NAMES}, got {name!r}"
            )
        M = None if entry.get("M") is None else _int_field(entry, "M")
        # built here, so that an M the builtin rejects is a parse error
        inst = instgen.builtin(name, M=M)
        return f"builtin-{name}", inst.k, lambda: inst
    raise IcqsError(f"unknown family {family!r}")


def _check_max_iters(args) -> None:
    if args.max_iters < 1:
        raise SystemExit(_fail(f"--max-iters must be >= 1, got {args.max_iters}", EXIT_PARSE))


def cmd_bench(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return _fail(f"cannot read bench spec {args.spec}: {exc}", EXIT_PARSE)
    _check_max_iters(args)
    # every entry is parsed before anything is solved, so a malformed spec
    # fails fast as a parse error instead of midway through the batch
    jobs: list[tuple[str, str, int, Callable[[], game.IcqsInstance]]] = []
    try:
        families = spec.get("families", []) if isinstance(spec, dict) else None
        if not isinstance(families, list):
            raise IcqsError("spec needs a 'families' list")
        for entry in families:
            if not isinstance(entry, dict):
                raise IcqsError(f"spec entry is not an object: {entry!r}")
            count = _int_field(entry, "count", 1, minimum=1)
            base_seed = _int_field(entry, "seed", 0)
            for r in range(count):
                job = {**entry, "seed": base_seed + r}
                jobs.append((f"{len(jobs):04d}", *_parse_entry(job, len(jobs))))
    except IcqsError as exc:
        return _fail(f"bad bench spec {args.spec}: {exc}", EXIT_PARSE)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    records: list[RunRecord] = []
    for job_id, name, n_players, make in jobs:
        try:
            inst = make()
            result = solve_pipeline(inst, max_iters=args.max_iters)
            result.pop("trace")
            records.append(record_from_result(f"{job_id}-{name}", inst, result))
        except IcqsError as exc:
            records.append(
                RunRecord(
                    instance=f"{job_id}-failed",
                    n_players=n_players,
                    t_br=float("nan"),
                    k_br=0,
                    outcome=f"error:{type(exc).__name__}",
                    max_gain=None,
                    max_delta_a_priori=None,
                )
            )
    records.sort(key=lambda r: r.instance)

    results_path = out_dir / "results.csv"
    with open(results_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("instance,n_players,t_br,k_br,outcome,max_gain,max_delta_a_priori\n")
        for rec in records:
            row = asdict(rec)
            fh.write(
                "{instance},{n_players},{t_br!r},{k_br},{outcome},{max_gain},{max_delta_a_priori}\n".format(
                    **{k: ("" if v is None else v) for k, v in row.items()}
                )
            )

    # cumulative solved-within-time curve over the solved instances
    times = sorted(r.t_br for r in records if not math.isnan(r.t_br))
    profile_path = out_dir / "profile.csv"
    with open(profile_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("time,fraction\n")
        n = len(records)
        for idx, t in enumerate(times, start=1):
            fh.write(f"{t!r},{idx / n!r}\n")
    print(f"results: {results_path}")
    print(f"profile: {profile_path}")
    return EXIT_OK


def _check(checks: list[tuple[str, bool, str]], label: str, ok: bool, detail: str = "") -> None:
    checks.append((label, ok, detail))


def replicate_checks(name: str, M: int) -> list[tuple[str, bool, str]]:
    """Scripted scenario checks for the built-in instances.

    Each scenario is one `solve_pipeline` call, and its checks read the
    report: the classification, the outcome, the trace, the probabilities
    and the deviation gains.  Only the counterexample's check that the
    restricted game has no pure equilibrium restricts the cycle again.  An
    M whose cycle, of joint norm sqrt(2) M, passes the norm cap is InvalidM.
    """
    checks: list[tuple[str, bool, str]] = []
    if name == "example1":
        report = solve_pipeline(instgen.builtin("example1"), start=[[5.0], [5.0]], max_iters=8)
        classification = report["classification"]
        _check(checks, "classified negatively adequate",
               classification == game.Adequacy.NEGATIVE.value, classification)
        profiles = report["trace"].profiles.tolist()
        doubling = all(x == 5.0 * 2.0**t for t, row in enumerate(profiles) for x in row)
        _check(checks, "iterates double each sweep", doubling, f"profiles={profiles}")
        _check(checks, "divergence certified",
               report["outcome"] == dynamics.OUTCOME_DIVERGENCE, report["outcome"])
    elif name == "cycling":
        report = solve_pipeline(instgen.builtin("cycling"), start=[[0.0], [0.0]])
        eq = report["equilibrium"]
        path = [tuple(row) for row in report["trace"].profiles.tolist()]
        _check(checks, "period-4 cycle from the origin",
               report["outcome"] == dynamics.OUTCOME_CYCLE
               and path == [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)], str(path))
        half = all(np.allclose(p, [0.5, 0.5], atol=1e-9) for p in eq["probabilities"])
        _check(checks, "mixed equilibrium is half-half", half, str(eq["probabilities"]))
        gain = max(eq["deviation_gains"])
        _check(checks, "no profitable lattice deviation",
               gain <= 1e-9, f"max gain {gain:.3e}")
    elif name == "counterexample":
        if M is not None and M > dynamics.DIVERGENCE_NORM_CAP / math.sqrt(2.0):  # exact for any int M
            raise InvalidM(f"M = {M}: the cycle's norm sqrt(2) M passes the norm cap {dynamics.DIVERGENCE_NORM_CAP:g}")
        inst = instgen.builtin("counterexample", M=M)
        report = solve_pipeline(inst, start=[[0.0, 1.0], [0.0, 1.0]])
        sets = dynamics.cycle_sets(report["trace"])  # NoCycle unless the run cycled
        eq = report["equilibrium"]
        expected = {(0.0, 1.0), (float(M), 0.0)}
        got = {tuple(map(float, s)) for player in eq["strategies"] for s in player}
        _check(checks, "cycle between (0,1) and (M,0)", got == expected, str(got))
        fg = finite.restrict(inst, sets)
        _check(checks, "restricted game has no pure equilibrium",
               finite.pne_search(fg) == [], "")
        gain = eq["deviation_gains"][0]
        target = M * M / 8.0
        _check(checks, f"x-player gains at least M^2/8 = {target}",
               gain >= target - 1e-6, f"measured gain {gain:.6g}")
    else:
        raise IcqsError(f"unknown replication scenario {name!r}")
    return checks


def cmd_replicate(args) -> int:
    try:
        checks = replicate_checks(args.name, args.M)
    except IcqsError as exc:
        return _fail(str(exc), EXIT_PARSE)
    failed = 0
    for label, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail and not ok else ""
        print(f"{status}: {label}{suffix}")
        if not ok:
            failed += 1
    return EXIT_OK if failed == 0 else EXIT_REPLICATION


def cmd_generate(args) -> int:
    try:
        entry = {
            "family": args.family,
            "n_players": args.players,
            "vars_per_player": args.vars,
            "seed": args.seed,
            "name": args.name,
            "M": args.M,
        }
        _, _, make = _parse_entry(entry, 0)
        inst = make()
    except IcqsError as exc:
        return _fail(str(exc), EXIT_PARSE)
    game.save_instance(inst, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icqs",
        description="Best-response solver for integer convex quadratic games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags `solve` and `bench` share
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--max-iters", type=int, default=dynamics.DEFAULT_MAX_ITERS)

    p = sub.add_parser("classify", help="print the adequacy classification")
    p.add_argument("instance")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", parents=[shared],
                       help="run the full solve pipeline on an instance file")
    p.add_argument("instance")
    p.add_argument("--start", default=None,
                   help="per-player comma lists separated by semicolons, e.g. '0,1;0,1'")
    p.add_argument("--mode", choices=[dynamics.INTEGER, dynamics.CONTINUOUS],
                   default=dynamics.INTEGER)
    p.add_argument("--out", default=None, help="directory for report and trace files")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", parents=[shared],
                       help="generate a seeded batch and solve every instance")
    p.add_argument("spec", help="JSON batch description")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("replicate", help="run the scripted checks for a built-in scenario")
    p.add_argument("name", choices=list(instgen.BUILTIN_NAMES))
    p.add_argument("--M", type=int, default=10)
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("generate", help="write a generated instance to a file")
    p.add_argument("--family", required=True,
                   choices=["pricing", "random", "negative", "builtin"])
    p.add_argument("--players", type=int, default=2)
    p.add_argument("--vars", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default=None, help="builtin name when --family builtin")
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except IcqsError as exc:
        return _fail(str(exc), EXIT_SOLVER)


if __name__ == "__main__":
    raise SystemExit(main())
