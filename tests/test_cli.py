import dataclasses
import json
import math
import subprocess
import sys

import pytest

from icqs import bounds, cli, dynamics, finite, game, instgen, iqp, linalg
from icqs.errors import BoundOverflow, DimensionMismatch


# 10^400: an even integer beyond the float range
HUGE_M = "1" + "0" * 400


def run_cli(argv):
    return cli.main(argv)


@pytest.fixture()
def cycling_file(tmp_path):
    path = tmp_path / "cycling.json"
    game.save_instance(instgen.builtin("cycling"), path)
    return path


def test_classify_command(cycling_file, capsys):
    assert run_cli(["classify", str(cycling_file)]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "positively_adequate" in out
    assert "0.9" in out


def test_classify_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SystemExit) as exc:
        run_cli(["classify", str(bad)])
    assert exc.value.code == cli.EXIT_PARSE


def test_classify_names_the_player_whose_interaction_matrix_overflows(tmp_path, capsys):
    # R_0 = Q_0^-1 C_0 = 1e-5^-1 * 1e305 is not a finite float
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "players": [{"Q": [[1e-5]], "C": {"1": [[1e305]]}, "d": [0.0]},
                    {"Q": [[1.0]], "C": {"0": [[0.5]]}, "d": [0.0]}],
        "meta": {},
    }))
    assert exit_code(["classify", str(path)]) == cli.EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert "player 0" in err[0] and "R_0" in err[0] and "non-finite" in err[0]


def test_solve_command_writes_report_and_trace(cycling_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert run_cli(["solve", str(cycling_file), "--out", str(out_dir)]) == cli.EXIT_OK
    report = json.loads((out_dir / "cycling.report.json").read_text())
    assert report["outcome"] == "cycle"
    assert report["iterations"] == 4
    eq = report["equilibrium"]
    for probs in eq["probabilities"]:
        assert probs == pytest.approx([0.5, 0.5], abs=1e-9)
    assert max(eq["deviation_gains"]) <= 1e-9
    assert eq["delta_bounded"] is True
    trace_lines = (out_dir / "cycling.trace.csv").read_text().splitlines()
    assert len(trace_lines) == 6  # header + 5 profiles


def test_solve_divergent_instance(tmp_path, capsys):
    path = tmp_path / "ex1.json"
    game.save_instance(instgen.builtin("example1"), path)
    assert run_cli(["solve", str(path), "--start", "5;5", "--out", str(tmp_path)]) == cli.EXIT_OK
    report = json.loads((tmp_path / "ex1.report.json").read_text())
    assert report["outcome"] == "divergence"
    assert report["equilibrium"] is None


def test_solve_counterexample_flags_unbounded_gain(tmp_path, capsys):
    path = tmp_path / "cg.json"
    game.save_instance(instgen.builtin("counterexample", M=10), path)
    code = run_cli(
        ["solve", str(path), "--start", "0,1;0,1", "--out", str(tmp_path)]
    )
    assert code == cli.EXIT_OK
    report = json.loads((tmp_path / "cg.report.json").read_text())
    gains = report["equilibrium"]["deviation_gains"]
    assert max(gains) >= 12.5 - 1e-9
    assert report["equilibrium"]["delta_bounded"] is None  # no a-priori bound
    out = capsys.readouterr().out
    assert "max deviation gain" in out


def test_replicate_all_pass(capsys):
    # 70710678118654 is the largest even M whose cycle, of joint norm
    # sqrt(2) M, stays below the iteration's norm cap 1e14
    cases = (("cycling", []), ("example1", []), ("counterexample", ["--M", "10"]),
             ("counterexample", ["--M", "70710678118654"]))
    for name, extra in cases:
        assert run_cli(["replicate", name, *extra]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out


def test_replicate_rejects_an_M_whose_cycle_passes_the_norm_cap(capsys):
    # the cycle's joint norm sqrt(2) M passes the cap 1e14, which had ended
    # the run at the cap and the scenario with "trace ended with outcome 'cap'"
    assert run_cli(["replicate", "counterexample", "--M", "70710678118656"]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert "norm cap 1e+14" in err and "outcome" not in err


def test_replicate_unknown_name_fails():
    with pytest.raises(SystemExit):
        run_cli(["replicate", "unknown"])


def test_generate_and_classify_round_trip(tmp_path, capsys):
    path = tmp_path / "r.json"
    assert (
        run_cli(
            ["generate", "--family", "random", "--players", "2", "--vars", "4",
             "--seed", "5", "--out", str(path)]
        )
        == cli.EXIT_OK
    )
    inst = game.load_instance(path)
    assert inst.dims == (4, 4)
    assert run_cli(["classify", str(path)]) == cli.EXIT_OK


def test_bench_command(tmp_path, capsys):
    spec = {
        "families": [
            {"family": "pricing", "count": 3, "n_players": 2, "seed": 10},
            {"family": "random", "count": 2, "n_players": 2, "vars_per_player": 4, "seed": 4},
        ]
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out_dir = tmp_path / "bench"
    assert run_cli(["bench", str(spec_path), "--out", str(out_dir)]) == cli.EXIT_OK
    rows = (out_dir / "results.csv").read_text().splitlines()
    assert rows[0] == "instance,n_players,t_br,k_br,outcome,max_gain,max_delta_a_priori"
    assert len(rows) == 6
    outcomes = [r.split(",")[4] for r in rows[1:]]
    assert all(o in ("cycle", "fixed_point") for o in outcomes)
    profile_rows = (out_dir / "profile.csv").read_text().splitlines()
    assert profile_rows[0] == "time,fraction"
    fractions = [float(r.split(",")[1]) for r in profile_rows[1:]]
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0


def test_bench_empty_spec(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"families": []}))
    out_dir = tmp_path / "bench"
    assert run_cli(["bench", str(spec_path), "--out", str(out_dir)]) == cli.EXIT_OK
    assert len((out_dir / "results.csv").read_text().splitlines()) == 1


def test_bench_seeded_rerun_identical(tmp_path):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(
        json.dumps({"families": [{"family": "random", "count": 2, "n_players": 2,
                                  "vars_per_player": 4, "seed": 1}]})
    )
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    run_cli(["bench", str(spec_path), "--out", str(dir_a)])
    run_cli(["bench", str(spec_path), "--out", str(dir_b)])
    strip = lambda p: [
        ",".join(col for idx, col in enumerate(line.split(",")) if idx != 2)
        for line in (p / "results.csv").read_text().splitlines()
    ]
    assert strip(dir_a) == strip(dir_b)  # identical apart from wall times


def test_console_entry_point(tmp_path):
    path = tmp_path / "cyc.json"
    game.save_instance(instgen.builtin("cycling"), path)
    proc = subprocess.run(
        [sys.executable, "-m", "icqs", "classify", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "positively_adequate" in proc.stdout


def test_solve_continuous_mode(cycling_file, tmp_path, capsys):
    out_dir = tmp_path / "cont"
    code = run_cli(
        ["solve", str(cycling_file), "--mode", "continuous", "--out", str(out_dir)]
    )
    assert code == cli.EXIT_OK
    report = json.loads((out_dir / "cycling.report.json").read_text())
    assert report["outcome"] == "fixed_point"
    fixed = report["equilibrium"]["fixed_point"]
    # x = 0.1 y + 0.45 and y = -0.1 x + 0.55 meet at (0.5, 0.5)
    assert fixed[0][0] == pytest.approx(0.5, abs=1e-9)
    assert fixed[1][0] == pytest.approx(0.5, abs=1e-9)


def test_solve_pipeline_classifies_once(monkeypatch):
    inst = instgen.builtin("cycling")  # validated and factored once, here
    calls = {"classify": 0, "guarantee_prox": 0, "factorize": 0, "cholesky": 0}
    targets = ((game, "classify"), (iqp, "guarantee_prox"), (iqp, "factorize"), (linalg, "cholesky"), (iqp, "cholesky"))
    for owner, name in targets:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    result = cli.solve_pipeline(inst, start=[[0.0], [0.0]])
    assert result["outcome"] == "cycle"
    # the classification and every player's factor, with its proven radius,
    # come with the instance, so no Q is factored, no radius taken and
    # nothing classified inside the solve
    assert calls == {"classify": 0, "guarantee_prox": 0, "factorize": 0, "cholesky": 0}


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_a_fixed_point_solve_takes_each_radius_and_cost_once(monkeypatch, k):
    calls = {"guarantee_prox": 0, "strategy_costs": 0}
    for owner, name in ((iqp, "guarantee_prox"), (finite, "strategy_costs")):
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    inst = instgen.gen_pricing(instgen.PricingSpec(n_players=k, seed=1000 * k))
    result = cli.solve_pipeline(inst)
    assert result["outcome"] == "fixed_point"
    assert [len(s) for s in result["equilibrium"]["strategies"]] == [1] * k
    assert result["equilibrium"]["within_game_eps"] == 0.0
    # one proven radius per player, when the instance is built, and one pass
    # of every player's pure-strategy costs, for the expected costs: a
    # one-cell game's regret is zero without one
    assert calls == {"guarantee_prox": k, "strategy_costs": 1}


def test_solve_pipeline_computes_the_a_priori_bounds_once(monkeypatch):
    calls = {"l_bound_theoretical": 0, "delta_a_priori": 0}
    for name in calls:
        original = getattr(bounds, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(bounds, name, counting)
    # one closure, when the instance is built, which takes the a-priori
    # deltas with it; a solve takes neither again
    inst = instgen.builtin("cycling")
    assert calls == {"l_bound_theoretical": 1, "delta_a_priori": 0}
    for _ in range(3):
        result = cli.solve_pipeline(inst, start=[[0.0], [0.0]])
        assert result["outcome"] == "cycle"
        assert result["equilibrium"]["delta_a_priori"]["exact"] == list(inst.delta_a_priori)
    assert calls == {"l_bound_theoretical": 1, "delta_a_priori": 0}


@pytest.mark.parametrize(
    "flags",
    [
        pytest.param(["--flatness-coeff", "0"], id="zero-coeff"),
        pytest.param(["--flatness-coeff", "inf"], id="inf-coeff"),
        pytest.param(["--flatness-exponent", "nan"], id="nan-exponent"),
        pytest.param(["--flatness-coeff", "1e308", "--flatness-exponent", "10"], id="overflowing-rule"),
    ],
)
def test_solve_rejects_a_nonpositive_flatness_coeff(cycling_file, tmp_path, capsys, flags):
    # a solve takes no flatness rule: each of the rule's flags is a parse
    # error that writes no report
    assert exit_code(["solve", str(cycling_file), "--out", str(tmp_path / "out"), *flags]) == cli.EXIT_PARSE
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith("error: unrecognized arguments: " + " ".join(flags))
    assert not (tmp_path / "out").exists()


def test_an_overflowing_radius_exits_3_with_one_error_line(tmp_path):
    # example1 with d = (1e160, 1e160): ||Q^-1 d||, and so the proven
    # divergence radius, overflows; the solve stops with one error line and
    # no numpy warning, and no report with an infinite radius is written
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "players": [{"Q": [[2.0]], "C": {"1": [[-4.0]]}, "d": [1e160]},
                    {"Q": [[2.0]], "C": {"0": [[-4.0]]}, "d": [1e160]}],
        "meta": {},
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "icqs", "solve", str(path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == cli.EXIT_SOLVER
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the proven radius "), proc.stderr
    assert not (tmp_path / "out").exists()


def test_an_unproven_radius_exits_3_naming_the_player(tmp_path):
    # Q_0 = diag(1, 1e-16): its lambda_min is within the eigensolver's
    # rounding of zero, so the error says the radius is unproven, not that
    # it overflows.  (d_0 = 0 keeps player 0 at the origin: a row with a
    # fractional part makes its search enumerate about 6e7 nodes.)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "players": [{"Q": [[1.0, 0.0], [0.0, 1e-16]], "C": {"1": [[0.0, 0.0], [0.0, 0.0]]}, "d": [0.0, 0.0]},
                    {"Q": [[2.0, 0.0], [0.0, 2.0]], "C": {"0": [[0.0, 0.0], [0.0, 0.0]]}, "d": [0.1, 0.4]}],
        "meta": {},
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "icqs", "solve", str(path), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == cli.EXIT_SOLVER
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: player 0: no proximity radius is proven: "), proc.stderr
    assert not (tmp_path / "out").exists()


def test_an_unproven_radius_stops_the_solve_before_the_run(tmp_path, monkeypatch, capsys):
    # Q_0 = diag(1, 1e-16) with d_0 = (0.3, 0.2): the run's searches around
    # player 0's centre took 52 s before the termination radius was read.
    # The radii are read before the run, which is then never called.
    def no_run(*args, **kwargs):
        raise AssertionError("run_br called")

    monkeypatch.setattr(dynamics, "run_br", no_run)
    players = [
        {"Q": [[1.0, 0.0], [0.0, 1e-16]], "C": {"1": [[0.0, 0.0], [0.0, 0.0]]}, "d": [0.3, 0.2]},
        {"Q": [[2.0, 0.0], [0.0, 2.0]], "C": {"0": [[0.0, 0.0], [0.0, 0.0]]}, "d": [0.1, 0.4]},
    ]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"players": players, "meta": {}}))
    for start in ([], ["--start", "3,-2;1,4"]):
        assert exit_code(["solve", str(path), "--out", str(tmp_path / "out"), *start]) == cli.EXIT_SOLVER
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: player 0: no proximity radius is proven: "), err
    assert not (tmp_path / "out").exists()
    inst = game.load_instance(path)
    with pytest.raises(BoundOverflow, match="^player 0: no proximity radius is proven: "):
        cli.solve_pipeline(inst, start=[[3.0, -2.0], [1.0, 4.0]])
    # a start that fails its check is still the error reported first
    with pytest.raises(DimensionMismatch, match="^start for player 1 is not integral$"):
        cli.solve_pipeline(inst, start=[[3.0, -2.0], [1.0, 4.5]])


def test_a_solve_checks_its_start_once(cycling_file, tmp_path, monkeypatch):
    # `icqs solve --start` checks the start when it parses it and passes the
    # joint vector on; solve_pipeline checks a start it is given as vectors
    calls = []
    validate = dynamics.validate_start

    def counting(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(dynamics, "validate_start", counting)
    for mode in ("integer", "continuous"):
        del calls[:]
        argv = ["solve", str(cycling_file), "--start", "1;-2", "--mode", mode, "--out", str(tmp_path / mode)]
        assert exit_code(argv) == cli.EXIT_OK
        assert len(calls) == 1
    inst = instgen.builtin("cycling")
    for start in (None, [[1.0], [-2.0]]):
        del calls[:]
        result = cli.solve_pipeline(inst, start=start)
        assert len(calls) == 1 and result["outcome"] == "cycle"
    # the joint vector a solve is given is not checked again, and solves as
    # the vectors it came from
    z = validate(inst, [[1.0], [-2.0]], dynamics.INTEGER)
    del calls[:]
    joint = cli.solve_pipeline(inst, joint=z)
    assert calls == []
    assert joint["trace"].profiles.tobytes() == result["trace"].profiles.tobytes()


def test_proximity_violation_exits_3(cycling_file, tmp_path, monkeypatch, capsys):
    from icqs import iqp

    monkeypatch.setattr(iqp, "guarantee_prox", lambda factor: 0.0)
    code = run_cli(["solve", str(cycling_file), "--start", "0;0", "--out", str(tmp_path)])
    assert code == cli.EXIT_SOLVER
    assert "exceeds proximity radius" in capsys.readouterr().err


def test_an_overflowing_linear_term_exits_3_naming_the_player(tmp_path):
    # C = 1e300 against a start of 1e10 makes the linear term, and so the
    # lattice search centre, infinite: a typed error, not round()'s traceback
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "players": [{"Q": [[2.0]], "C": {"1": [[1e300]]}, "d": [0.0]},
                    {"Q": [[2.0]], "C": {"0": [[1e300]]}, "d": [0.0]}],
        "meta": {},
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "icqs", "solve", str(path), "--start", "1e10;1e10",
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == cli.EXIT_SOLVER
    assert "Traceback" not in proc.stderr
    # one line: no numpy warning from the instance's Gram matrices, the
    # stacked matvec or the rounding before the typed error
    errors = proc.stderr.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: "), proc.stderr
    assert "player 0" in errors[0] and "not finite" in errors[0], proc.stderr


def test_a_response_beyond_int64_exits_3_with_one_line(tmp_path):
    # C = 1e5 against a start of 1e14 sends the first responses to -1e19,
    # past int64: a typed error, not a trace of wrapped integers
    path = tmp_path / "wrap.json"
    path.write_text(json.dumps({
        "players": [{"Q": [[1.0]], "C": {"1": [[1e5]]}, "d": [0.0]},
                    {"Q": [[1.0]], "C": {"0": [[1e5]]}, "d": [0.0]}],
        "meta": {},
    }))
    proc = subprocess.run(
        [sys.executable, "-m", "icqs", "solve", str(path), "--start", "1e14;1e14",
         "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == cli.EXIT_SOLVER
    errors = proc.stderr.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: ") and "int64" in errors[0], proc.stderr


def test_delta_bounded_is_null_without_a_finite_bound(tmp_path, capsys):
    path = tmp_path / "r6000.json"
    run_cli(["generate", "--family", "random", "--players", "3", "--seed", "6000",
             "--out", str(path)])
    assert run_cli(["solve", str(path), "--out", str(tmp_path)]) == cli.EXIT_OK
    report = json.loads((tmp_path / "r6000.report.json").read_text())
    eq = report["equilibrium"]
    assert eq["l_bound"] == {"exact": [None, None, None]}
    assert eq["delta_bounded"] is None
    assert "infinite" in eq["delta_bounded_reason"]
    criterion = bounds.closure_criterion(report["sigma_max"])
    assert criterion >= 1
    assert f"sum sigma^2/(1+sigma^2) = {criterion:.2f} >= 1" in eq["delta_bounded_reason"]
    assert "NOT delta-bounded" in capsys.readouterr().out


def test_delta_bounded_compares_a_gain_at_the_scale_of_the_costs():
    # the cycling builtin with Q, C and d times 1e-11: its exact a-priori
    # bounds are 5.2e-11, so an absolute slack of 1e-9 passed a gain 20 times
    # the bound
    inst = game.make_instance([
        game.PlayerProblem(Q=1e-11 * p.Q, C={j: 1e-11 * c for j, c in p.C.items()}, d=1e-11 * p.d)
        for p in instgen.builtin("cycling").players
    ])
    trace = dynamics.run_br(inst, start=[[0.0], [0.0]])
    sets = dynamics.cycle_sets(trace)
    fg = finite.restrict(inst, sets)
    profile, _ = finite.solve_equilibrium(fg)
    delta = finite.verify_delta(inst, fg, profile)
    pack = bounds.guarantee_pack(inst, sets)
    bound = pack.delta_a_priori[0]
    assert bound == pytest.approx(5.19e-11, rel=1e-3)
    assert cli._delta_bounded(delta, pack, inst.report) == (
        True, "gains within the finite a-priori bounds of 2 of 2 players"
    )
    gained = dataclasses.replace(delta, gains=(20.0 * bound, delta.gains[1]))
    assert cli._delta_bounded(gained, pack, inst.report) == (
        False, "gains exceed the finite a-priori bounds of 2 of 2 players"
    )


def exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def bench_spec(tmp_path, entry):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"families": [entry]}))
    return ["bench", str(path), "--out", str(tmp_path / "bench")]


def test_bench_error_rows_report_the_player_count(tmp_path, monkeypatch):
    # neither entry names n_players: one takes its family's default, the other
    # the builtin's own count; every solve fails as an overflowing radius would

    def overflowing(inst, **kwargs):
        raise BoundOverflow("the proven radius overflows")

    monkeypatch.setattr(cli, "solve_pipeline", overflowing)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"families": [
        {"family": "negative", "seed": 1, "vars_per_player": 2},
        {"family": "negative", "seed": 1, "n_players": 3},
        {"family": "builtin", "name": "cycling"},
    ]}))
    argv = ["bench", str(path), "--out", str(tmp_path / "bench")]
    assert run_cli(argv) == cli.EXIT_OK
    rows = [row.split(",") for row in (tmp_path / "bench" / "results.csv").read_text().splitlines()[1:]]
    assert [row[4] for row in rows] == ["error:BoundOverflow"] * 3
    assert [row[1] for row in rows] == ["2", "3", "2"]


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(lambda f, t: ["solve", f, "--start", "a,b;1,2"], id="start-not-numbers"),
        pytest.param(lambda f, t: ["solve", f, "--start", "0,0;1"], id="start-wrong-length"),
        pytest.param(lambda f, t: ["solve", f, "--start", "0.5;0"], id="start-not-integral"),
        pytest.param(lambda f, t: ["solve", f, "--start", "inf;0"], id="start-infinite"),
        pytest.param(
            lambda f, t: ["solve", f, "--start", "nan;0", "--mode", "continuous"],
            id="start-nan-continuous",
        ),
        pytest.param(lambda f, t: ["solve", f, "--max-iters", "0"], id="solve-max-iters-0"),
        pytest.param(lambda f, t: bench_spec(t, {"family": "pricing"}), id="bench-no-n_players"),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "pricing", "n_players": "x"}),
            id="bench-n_players-not-int",
        ),
        pytest.param(lambda f, t: bench_spec(t, {"family": "nope"}), id="bench-unknown-family"),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "builtin", "name": "counterexample", "M": "x"}),
            id="bench-M-not-int",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "builtin", "name": "counterexample", "M": 0}),
            id="bench-M-0",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "builtin", "name": "counterexample", "M": -5}),
            id="bench-M-negative",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "builtin", "name": "counterexample", "M": 3}),
            id="bench-M-odd",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "builtin", "name": "counterexample"}),
            id="bench-M-missing",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "pricing", "n_players": 2}) + ["--max-iters", "0"],
            id="bench-max-iters-0",
        ),
        pytest.param(
            lambda f, t: ["generate", "--family", "builtin", "--out", str(t / "g.json")],
            id="generate-builtin-without-name",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "pricing", "n_players": 0}),
            id="bench-n_players-0",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "negative", "n_players": 1}),
            id="bench-negative-n_players-1",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "random", "n_players": 2, "vars_per_player": 0}),
            id="bench-vars_per_player-0",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "pricing", "n_players": 2, "count": -3}),
            id="bench-count-negative",
        ),
        pytest.param(
            lambda f, t: ["generate", "--family", "random", "--players", "1",
                          "--out", str(t / "g.json")],
            id="generate-players-1",
        ),
        # 1.0 / M overflows for an M beyond the float range
        pytest.param(
            lambda f, t: ["generate", "--family", "builtin", "--name", "counterexample",
                          "--M", HUGE_M, "--out", str(t / "g.json")],
            id="generate-M-beyond-float",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "builtin", "name": "counterexample", "M": int(HUGE_M)}),
            id="bench-M-beyond-float",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "builtin", "name": "counterexample", "M": float("inf")}),
            id="bench-M-infinite",
        ),
        pytest.param(lambda f, t: ["replicate", "counterexample", "--M", HUGE_M], id="replicate-M-beyond-float"),
        # int() truncates a float and takes a bool
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "pricing", "n_players": 2.7, "seed": 1.5}),
            id="bench-n_players-and-seed-fractional",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "pricing", "n_players": 2, "seed": 1.5}),
            id="bench-seed-fractional",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "builtin", "name": "counterexample", "M": 4.9}),
            id="bench-M-fractional",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "pricing", "n_players": True}),
            id="bench-n_players-bool",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "pricing", "n_players": 2, "seed": True}),
            id="bench-seed-bool",
        ),
        pytest.param(
            lambda f, t: bench_spec(t, {"family": "random", "n_players": 2, "vars_per_player": True}),
            id="bench-vars_per_player-bool",
        ),
    ],
)
def test_malformed_arguments_exit_2_with_one_error_line(argv, cycling_file, tmp_path, capsys):
    assert exit_code(argv(str(cycling_file), tmp_path)) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "bench").exists()  # a bad spec is rejected before any solve
    assert not (tmp_path / "g.json").exists()


def test_bench_takes_integral_floats_and_numeric_strings(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"families": [
        {"family": "pricing", "n_players": 2.0, "seed": "1"},
        {"family": "builtin", "name": "counterexample", "M": 4.0, "count": "1"},
    ]}))
    assert exit_code(["bench", str(path), "--out", str(tmp_path / "bench")]) == cli.EXIT_OK
    rows = (tmp_path / "bench" / "results.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["0000-pricing-2p-s1", "0001-builtin-counterexample"]
    _, _, make = cli._parse_entry({"family": "builtin", "name": "counterexample", "M": 4.0}, 0)
    assert make().meta == instgen.builtin("counterexample", M=4).meta


NOT_AN_INSTANCE = [
    pytest.param({"players": 5}, id="players-not-a-list"),
    pytest.param([1, 2], id="top-level-list"),
    pytest.param(
        {"players": [{"Q": [[1.0]], "C": [[0.5]], "d": [0.0]},
                     {"Q": [[1.0]], "C": {"0": [[0.5]]}, "d": [0.0]}]},
        id="C-a-list",
    ),
    pytest.param(
        {"players": [{"Q": [[1.0]], "C": {"1": [[0.5]]}, "d": [0.0, 1.0]},
                     {"Q": [[1.0]], "C": {"0": [[0.5]]}, "d": [0.0]}]},
        id="d-wrong-length",
    ),
    pytest.param(
        {"players": [{"Q": [[-1.0]], "C": {"1": [[0.5]]}, "d": [0.0]},
                     {"Q": [[1.0]], "C": {"0": [[0.5]]}, "d": [0.0]}]},
        id="Q-not-positive-definite",
    ),
]


@pytest.mark.parametrize("command", ["classify", "solve"])
@pytest.mark.parametrize("doc", NOT_AN_INSTANCE)
def test_a_document_that_builds_no_instance_exits_2_with_one_error_line(command, doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)] + (["--out", str(tmp_path / "out")] if command == "solve" else [])
    assert exit_code(argv) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot read instance {path}: "), captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_every_error_class_is_exported_from_the_package():
    import icqs
    from icqs import errors

    classes = [
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and issubclass(obj, errors.IcqsError)
    ]
    assert len(classes) >= 14
    assert [c.__name__ for c in classes if getattr(icqs, c.__name__, None) is not c] == []


NEGATIVE_START = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]


def negative_instance():
    return instgen.gen_negative(instgen.NegativeSpec(n_players=2, vars_per_player=3, seed=1))


@pytest.mark.parametrize("mode", [dynamics.INTEGER, dynamics.CONTINUOUS])
def test_a_sharp_flatness_rule_does_not_reach_the_divergence_certificate(mode):
    # under a rule a millionth of the paper's, this instance's radius,
    # 8.27e-5, is below the start's norm, so a latch reading it would
    # certify divergence after one growing sweep; the latch reads the
    # instance's proven radius, 11.26, and the run reads cap
    inst = negative_instance()
    result = cli.solve_pipeline(inst, start=NEGATIVE_START, max_iters=1, mode=mode)
    sharp = (inst.qinv_d_norm + math.hypot(*[1e-6 * iqp.prox_bound(f) for f in inst.factors])) / inst.report.rho
    assert sharp < result["trace"].norms[0] < result["trace"].norms[1]
    assert result["outcome"] == dynamics.OUTCOME_CAP
    assert result["divergence_radius"].hex() == inst.norm_radius.hex()
    assert result["divergence_radius"] == pytest.approx(11.263, abs=5e-4)


@pytest.mark.parametrize("mode", [dynamics.INTEGER, dynamics.CONTINUOUS])
def test_the_solve_command_reads_cap_under_a_sharp_flatness_rule(tmp_path, mode, capsys):
    # the command takes no flatness rule: with --flatness-coeff it writes no
    # report, and without it the divergence certificate reads the proven
    # radius and the run reads cap
    path = tmp_path / "neg.json"
    assert run_cli(["generate", "--family", "negative", "--players", "2", "--vars", "3",
                    "--seed", "1", "--out", str(path)]) == cli.EXIT_OK
    argv = ["solve", str(path), "--start", "1,0,0;0,1,0", "--max-iters", "1", "--mode", mode]
    assert exit_code([*argv, "--out", str(tmp_path / "sharp"), "--flatness-coeff", "1e-6"]) == cli.EXIT_PARSE
    assert not (tmp_path / "sharp").exists()
    assert run_cli([*argv, "--out", str(tmp_path / "proven")]) == cli.EXIT_OK
    report = json.loads((tmp_path / "proven" / "neg.report.json").read_text())
    assert report["outcome"] == "cap"
    assert report["divergence_radius"] == pytest.approx(11.263, abs=5e-4)
