import json
import subprocess
import sys

import pytest

from icqs import bounds, cli, game, instgen, iqp, linalg


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
    for name, extra in (("cycling", []), ("example1", []), ("counterexample", ["--M", "10"])):
        assert run_cli(["replicate", name, *extra]) == cli.EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out


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


def test_solve_flatness_override_changes_reported_bounds(tmp_path):
    path = tmp_path / "r.json"
    run_cli(["generate", "--family", "random", "--players", "2", "--vars", "3",
             "--seed", "11", "--out", str(path)])
    reports = []
    for name, extra in (("a", []),
                        ("b", ["--flatness-coeff", "1.0", "--flatness-exponent", "1.0"]),
                        ("after", [])):
        assert run_cli(["solve", str(path), "--out", str(tmp_path / name), *extra]) == cli.EXIT_OK
        reports.append(json.loads((tmp_path / name / "r.report.json").read_text())["equilibrium"])
    rep_a, rep_b, after = reports
    da = rep_a["delta_a_priori"]["flatness"]
    db = rep_b["delta_a_priori"]["flatness"]
    assert all(b < a for a, b in zip(da, db))  # n^1 rule tightens every bound
    # the rule belongs to its solve: the next plain solve reports the defaults
    for key in ("l_bound", "delta_a_priori", "delta_a_posteriori"):
        assert after[key] == rep_a[key]


def test_solve_pipeline_classifies_once(monkeypatch):
    inst = instgen.builtin("cycling")  # validated and factored once, here
    calls = {"classify": 0, "prepare": 0, "factorize": 0, "cholesky": 0}
    targets = ((game, "classify"), (game, "prepare"), (iqp, "factorize"), (linalg, "cholesky"), (iqp, "cholesky"))
    for owner, name in targets:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    result = cli.solve_pipeline(inst, start=[[0.0], [0.0]])
    assert result["outcome"] == "cycle"
    # one prepared value per solve, which binds the flatness rule only: the
    # classification and every player's factor come with the instance, so
    # no Q is factored and nothing is classified inside the solve
    assert calls == {"classify": 0, "prepare": 1, "factorize": 0, "cholesky": 0}


def test_solve_pipeline_computes_the_a_priori_bounds_once(monkeypatch):
    calls = {"l_bound_theoretical": 0, "delta_a_priori": 0}
    for name in calls:
        original = getattr(bounds, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(bounds, name, counting)
    result = cli.solve_pipeline(instgen.builtin("cycling"), start=[[0.0], [0.0]])
    assert result["outcome"] == "cycle"
    assert result["equilibrium"]["delta_a_priori"]["exact"] is not None
    # one closure per prox variant; the a-priori deltas come with the pack
    assert calls == {"l_bound_theoretical": 2, "delta_a_priori": 0}


def test_sharp_flatness_override_solves_with_the_proven_postcondition(tmp_path):
    # a rule far below the proven n^{5/2} must change the reported bounds
    # only; the kernel's proximity check keeps the proven radius
    path = tmp_path / "p3.json"
    run_cli(["generate", "--family", "pricing", "--players", "2", "--seed", "3",
             "--out", str(path)])
    assert run_cli(["solve", str(path), "--out", str(tmp_path / "plain")]) == cli.EXIT_OK
    code = run_cli(["solve", str(path), "--out", str(tmp_path / "sharp"),
                    "--flatness-coeff", "0.01", "--flatness-exponent", "0"])
    assert code == cli.EXIT_OK
    plain = json.loads((tmp_path / "plain" / "p3.report.json").read_text())["equilibrium"]
    sharp = json.loads((tmp_path / "sharp" / "p3.report.json").read_text())["equilibrium"]
    for kind in ("delta_a_priori", "delta_a_posteriori"):
        for a, b in zip(plain[kind]["flatness"], sharp[kind]["flatness"]):
            assert b < a
    assert sharp["deviation_gains"] == plain["deviation_gains"]


@pytest.mark.parametrize(
    "flags, code, message",
    [
        pytest.param(["--flatness-coeff", "0"], cli.EXIT_PARSE, "must be positive", id="zero-coeff"),
        pytest.param(["--flatness-coeff", "inf"], cli.EXIT_PARSE, "must be finite", id="inf-coeff"),
        pytest.param(["--flatness-exponent", "nan"], cli.EXIT_PARSE, "must be finite", id="nan-exponent"),
        # Flt(1) = 1e308 is finite, but its square, which the bounds carry, is not
        pytest.param(["--flatness-coeff", "1e308", "--flatness-exponent", "10"], cli.EXIT_SOLVER,
                     "overflows at n = 1", id="overflowing-rule"),
    ],
)
def test_solve_rejects_a_nonpositive_flatness_coeff(cycling_file, tmp_path, capsys, flags, code, message):
    assert exit_code(["solve", str(cycling_file), "--out", str(tmp_path / "out"), *flags]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: flatness") and message in err[0]
    assert not (tmp_path / "out").exists()


def test_an_overflowing_radius_exits_3_with_one_error_line(tmp_path):
    # Flt = 1e154 squares to a finite float, but the joint norm of three
    # players' radii does not: the solve stops with one error line and no
    # numpy warning, and no report with an infinite radius is written
    path = tmp_path / "inst.json"
    assert run_cli(["generate", "--family", "random", "--players", "3", "--vars", "5",
                    "--seed", "7", "--out", str(path)]) == cli.EXIT_OK
    proc = subprocess.run(
        [sys.executable, "-m", "icqs", "solve", str(path), "--out", str(tmp_path / "out"),
         "--flatness-coeff", "1e154", "--flatness-exponent", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == cli.EXIT_SOLVER
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("error: the flatness radius"), proc.stderr
    assert not (tmp_path / "out").exists()


def test_proximity_violation_exits_3(cycling_file, tmp_path, monkeypatch, capsys):
    from icqs import iqp

    monkeypatch.setattr(iqp, "guarantee_prox", lambda factor, rule=iqp.PROVEN_RULE: 0.0)
    code = run_cli(["solve", str(cycling_file), "--start", "0;0", "--out", str(tmp_path)])
    assert code == cli.EXIT_SOLVER
    assert "exceeds proximity radius" in capsys.readouterr().err


def test_delta_bounded_is_null_without_a_finite_bound(tmp_path, capsys):
    path = tmp_path / "r6000.json"
    run_cli(["generate", "--family", "random", "--players", "3", "--seed", "6000",
             "--out", str(path)])
    assert run_cli(["solve", str(path), "--out", str(tmp_path)]) == cli.EXIT_OK
    report = json.loads((tmp_path / "r6000.report.json").read_text())
    eq = report["equilibrium"]
    assert eq["l_bound"]["exact"] == [None, None, None]
    assert eq["delta_bounded"] is None
    assert "infinite" in eq["delta_bounded_reason"]
    criterion = bounds.closure_criterion(report["sigma_max"])
    assert criterion >= 1
    assert f"sum sigma^2/(1+sigma^2) = {criterion:.2f} >= 1" in eq["delta_bounded_reason"]
    assert "NOT delta-bounded" in capsys.readouterr().out


def exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


def bench_spec(tmp_path, entry):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"families": [entry]}))
    return ["bench", str(path), "--out", str(tmp_path / "bench")]


def test_bench_writes_an_error_row_for_an_overflowing_flatness_rule(tmp_path):
    argv = bench_spec(tmp_path, {"family": "random", "n_players": 2, "vars_per_player": 2})
    assert run_cli(argv + ["--flatness-coeff", "1e300", "--flatness-exponent", "10"]) == cli.EXIT_OK
    rows = (tmp_path / "bench" / "results.csv").read_text().splitlines()
    assert [row.split(",")[4] for row in rows[1:]] == ["error:BoundOverflow"]


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
    ],
)
def test_malformed_arguments_exit_2_with_one_error_line(argv, cycling_file, tmp_path, capsys):
    assert exit_code(argv(str(cycling_file), tmp_path)) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert not (tmp_path / "bench").exists()  # a bad spec is rejected before any solve
    assert not (tmp_path / "g.json").exists()
