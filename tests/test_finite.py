import importlib.util
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import _enumeration_reference as reference
from _corpus import instance_corpus
from icqs import bounds, cli, dynamics, finite, game, instgen
from icqs.errors import DimensionMismatch, GameTooLarge, NoEquilibriumFound


def solved_cycle(inst, start):
    trace = dynamics.run_br(inst, start=start)
    return dynamics.cycle_sets(trace)


def cost_tensor(fg):
    # entry [s_1, ..., s_k, i] is player i's cost in cell s
    return np.stack([finite.cell_costs(fg, i) for i in range(fg.k)], axis=-1)


@pytest.fixture(scope="module")
def cycling_game():
    inst = instgen.builtin("cycling")
    return inst, finite.restrict(inst, solved_cycle(inst, [[0.0], [0.0]]))


@pytest.fixture(scope="module")
def counter_game():
    inst = instgen.builtin("counterexample", M=10)
    return inst, finite.restrict(inst, solved_cycle(inst, [[0.0, 1.0], [0.0, 1.0]]))


def test_restrict_cycling_matches_cost_table(cycling_game):
    _, fg = cycling_game
    expected = np.array(
        [[[0.0, 0.0], [0.0, -0.1]], [[0.1, 0.0], [-0.1, 0.1]]]
    )
    assert fg.sizes == (2, 2)
    assert np.allclose(cost_tensor(fg), expected, atol=1e-12)


def test_restrict_counterexample_matches_cost_table(counter_game):
    _, fg = counter_game
    expected = np.array(
        [[[-0.5, 0.5], [0.5, -50.0]], [[50.0, -0.5], [-50.0, 50.0]]]
    )
    assert np.allclose(cost_tensor(fg), expected, atol=1e-12)


def test_restrict_singleton_sets():
    inst = instgen.builtin("counterexample", M=10)
    sets = solved_cycle(inst, None)  # from the origin this settles at a PNE
    fg = finite.restrict(inst, sets)
    assert fg.sizes == (1, 1)
    assert cost_tensor(fg).shape == (1, 1, 2)


def test_restrict_rejects_non_finite_strategies():
    inst = instgen.builtin("cycling")
    sets = dynamics.CycleSets(
        strategies=((np.array([0.0]),), (np.array([np.nan]),))
    )
    with pytest.raises(ValueError):
        finite.restrict(inst, sets)


def mixed_dim_game(rng, dims):
    # random SPD Q_i, couplings and linear terms for players of dimensions dims
    players = []
    for i, n in enumerate(dims):
        A = rng.standard_normal((n, n))
        players.append(game.PlayerProblem(
            Q=A @ A.T + n * np.eye(n),
            C={j: rng.uniform(-2.0, 2.0, size=(n, m)) for j, m in enumerate(dims) if j != i},
            d=rng.uniform(-3.0, 3.0, size=n),
        ))
    return game.make_instance(players)


def strategy_sets(rng, dims, sizes):
    strategies = tuple(
        tuple(rng.integers(-6, 7, size=n).astype(np.float64) for _ in range(m))
        for n, m in zip(dims, sizes)
    )
    return dynamics.CycleSets(strategies=strategies)


def objective_at(inst, fg, cell, i):
    profile = [fg.strategies[j][cell[j]] for j in range(fg.k)]
    return game.objective(inst, i, profile[i], profile[:i] + profile[i + 1:])


def test_restrict_matches_the_objective_on_every_cell():
    rng = np.random.default_rng(11)
    for k in range(2, 6):
        for n in range(1, 4):
            for _ in range(2):
                dims = tuple(int(d) for d in rng.integers(1, n + 1, size=k))
                sizes = tuple(int(m) for m in rng.integers(1, 5, size=k))
                inst = mixed_dim_game(rng, dims)
                fg = finite.restrict(inst, strategy_sets(rng, dims, sizes))
                assert cost_tensor(fg).shape == sizes + (k,)
                for cell in np.ndindex(*sizes):
                    for i in range(k):
                        expected = objective_at(inst, fg, cell, i)
                        assert abs(finite.cell_costs(fg, i)[cell] - expected) <= 1e-12 * max(1.0, abs(expected))


def pair_products(inst, fg):
    # the reference: every block S_i C_ij S_j' as its own product
    S = [np.array(strats, dtype=np.float64) for strats in fg.strategies]
    return {(i, j): S[i] @ p.C[j] @ S[j].T for i, p in enumerate(inst.players) for j in p.C}


def d_blocks(fg):
    o = fg.offsets
    return {(i, j): fg.D[o[i]:o[i + 1], o[j]:o[j + 1]] for i in range(fg.k) for j in range(fg.k)}


def load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_d_is_every_pair_product_bitwise_in_two_player_games():
    # the benchmark's rotation games from their starts, the cycling and
    # counterexample builtins from their cycles, and every builtin on
    # seeded strategy sets
    games = []
    for _, inst, start in load_workloads().build_jobs("cycling", 0):
        games.append((inst, finite.restrict(inst, solved_cycle(inst, start))))
    for inst, start in (
        (instgen.builtin("cycling"), [[0.0], [0.0]]),
        (instgen.builtin("counterexample", M=10), [[0.0, 1.0], [0.0, 1.0]]),
    ):
        games.append((inst, finite.restrict(inst, solved_cycle(inst, start))))
    rng = np.random.default_rng(31)
    for name, M in (("example1", None), ("cycling", None), ("counterexample", 10)):
        inst = instgen.builtin(name, M=M)
        games.append((inst, finite.restrict(inst, strategy_sets(rng, inst.dims, (5, 4)))))
    assert sum(fg.sizes != (1, 1) for _, fg in games) >= 100
    for inst, fg in games:
        blocks = d_blocks(fg)
        for (i, j), want in pair_products(inst, fg).items():
            assert blocks[i, j].tobytes() == want.tobytes()
        assert not blocks[0, 0].any() and not blocks[1, 1].any()


def test_d_is_every_pair_product_for_three_to_five_players():
    rng = np.random.default_rng(37)
    for k in (3, 4, 5):
        for n in (1, 2, 3):
            dims = tuple(int(d) for d in rng.integers(1, n + 1, size=k))
            inst = mixed_dim_game(rng, dims)
            fg = finite.restrict(inst, strategy_sets(rng, dims, tuple(rng.integers(1, 6, size=k))))
            blocks = d_blocks(fg)
            for (i, j), want in pair_products(inst, fg).items():
                assert np.abs(blocks[i, j] - want).max() <= 1e-12 * np.abs(want).max()
            assert not any(blocks[i, i].any() for i in range(k))


def test_restrict_makes_no_objective_call(monkeypatch):
    rng = np.random.default_rng(12)
    inst = mixed_dim_game(rng, (2, 1, 3))
    sets = strategy_sets(rng, inst.dims, (3, 4, 2))

    def forbidden(*args, **kwargs):
        raise AssertionError("restrict called game.objective")

    monkeypatch.setattr(game, "objective", forbidden)
    assert cost_tensor(finite.restrict(inst, sets)).shape == (3, 4, 2, 3)


def test_restrict_builds_a_large_four_player_set_cell_for_cell():
    rng = np.random.default_rng(13)
    inst = coupled_game(rng, 4, 2)
    fg = finite.restrict(inst, strategy_sets(rng, inst.dims, (12, 15, 11, 13)))
    assert fg.sizes == (12, 15, 11, 13)
    for _ in range(200):
        cell = tuple(int(rng.integers(m)) for m in fg.sizes)
        i = int(rng.integers(4))
        expected = objective_at(inst, fg, cell, i)
        assert abs(finite.cell_costs(fg, i)[cell] - expected) <= 1e-12 * max(1.0, abs(expected))


def test_restrict_keeps_only_the_pieces_of_a_large_four_player_set():
    # the seeded (32, 43, 29, 32) set CI builds: 1.3 million cells, whose
    # tensor of all costs would take 41 MB; the pieces take about 0.1 MB
    rng = np.random.default_rng(0)
    inst = coupled_game(rng, 4, 2)
    sets = dynamics.CycleSets(
        strategies=tuple(
            tuple(rng.integers(-20, 21, size=2).astype(float) for _ in range(m)) for m in (32, 43, 29, 32)
        ),
    )
    tracemalloc.start()
    try:
        fg = finite.restrict(inst, sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not hasattr(fg, "costs")
    assert peak <= 1 << 20, peak


def test_restrict_rejects_an_overflowing_cost():
    # 0.5 s'Qs at s = 1e200 is about 1e400, beyond the largest float
    inst = instgen.builtin("cycling")
    sets = dynamics.CycleSets(
        strategies=((np.array([0.0]), np.array([1e200])), (np.array([1.0]),))
    )
    with pytest.raises(ValueError, match="overflows"):
        finite.restrict(inst, sets)


def test_pne_search(cycling_game, counter_game):
    _, fg_cycling = cycling_game
    _, fg_counter = counter_game
    assert finite.pne_search(fg_cycling) == []
    assert finite.pne_search(fg_counter) == []
    inst = instgen.builtin("counterexample", M=10)
    singleton = finite.restrict(inst, solved_cycle(inst, None))
    assert finite.pne_search(singleton) == [(0, 0)]


def loop_pne_search(fg, atol=finite.EQ_TOLERANCE):
    # cell by cell: keep a cell unless some player's cost there exceeds its
    # least cost over its own deviations by more than atol
    costs = cost_tensor(fg)
    result = []
    for index in np.ndindex(*fg.sizes):
        ok = True
        for i in range(fg.k):
            column = costs[index[:i] + (slice(None),) + index[i + 1 :] + (i,)]
            if costs[index + (i,)] > column.min() + atol:
                ok = False
                break
        if ok:
            result.append(index)
    return result


def labelled_strategies(sizes):
    return tuple(tuple(np.array([s]) for s in range(m)) for m in sizes)


def polymatrix_game(strategies, own, pair):
    # the joint own vector and D from one own-cost vector per player and one
    # block per ordered pair, ``pair[i][j]`` keyed by opponent
    offsets = np.cumsum([0] + [len(s) for s in strategies])
    D = np.zeros((offsets[-1], offsets[-1]))
    for i, blocks in enumerate(pair):
        for j, block in blocks.items():
            D[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = block
    return finite.FiniteGame(strategies=strategies, own=np.concatenate(own), D=D)


def player_costs(fg, i, profile):
    # player i's entries of the joint strategy costs
    return finite.strategy_costs(fg, np.concatenate(profile.probs))[fg.offsets[i]:fg.offsets[i + 1]]


def test_pne_search_matches_a_cell_by_cell_scan():
    # integer own costs and blocks in a small range tie often, so many cells
    # are equilibria
    rng = np.random.default_rng(71)
    found = 0
    for trial in range(120):
        k = 2 + trial % 3
        sizes = tuple(int(m) for m in rng.integers(1, 5, size=k))
        fg = polymatrix_game(
            strategies=labelled_strategies(sizes),
            own=tuple(rng.integers(-1, 2, size=m).astype(np.float64) for m in sizes),
            pair=tuple(
                {
                    j: rng.integers(-1, 2, size=(sizes[i], sizes[j])).astype(np.float64)
                    for j in range(k)
                    if j != i
                }
                for i in range(k)
            ),
        )
        got = finite.pne_search(fg)
        assert got == loop_pne_search(fg)
        assert all(type(v) is int for index in got for v in index)
        found += len(got)
    assert found > 0


def test_mne_two_player_cycling_half_half(cycling_game):
    _, fg = cycling_game
    profile = finite.mne_two_player(fg)
    for p in profile.probs:
        assert np.allclose(p, [0.5, 0.5], atol=1e-9)


def test_mne_two_player_counterexample(counter_game):
    _, fg = counter_game
    profile = finite.mne_two_player(fg)
    for p in profile.probs:
        assert np.allclose(p, [0.5, 0.5], atol=1e-9)
    assert np.allclose(finite.expected_costs(fg, profile), [0.0, 0.0], atol=1e-9)


def test_mne_two_player_returns_pne_as_degenerate_profile():
    costs = np.zeros((2, 2, 2))
    costs[..., 0] = [[0.0, 5.0], [5.0, 1.0]]
    costs[..., 1] = [[0.0, 5.0], [5.0, 1.0]]
    fg = bimatrix(costs)
    profile = finite.mne_two_player(fg)
    assert profile.probs[0].tolist() == [1.0, 0.0]
    assert profile.probs[1].tolist() == [1.0, 0.0]
    assert len(profile.support(0)) == 1


def test_mne_two_player_equilibrium_conditions_random():
    # support costs are equal-minimal, off-support never better than -1e-9
    for seed in range(8):
        inst = instgen.gen_random(instgen.RandomSpec(n_players=2, vars_per_player=2, seed=300 + seed))
        trace = dynamics.run_br(inst, start=[[9.0, -9.0], [-9.0, 9.0]])
        fg = finite.restrict(inst, dynamics.cycle_sets(trace))
        profile = finite.mne_two_player(fg)
        for i in range(2):
            costs_i = player_costs(fg, i, profile)
            v = float(costs_i @ profile.probs[i])
            support = profile.support(i)
            assert np.max(np.abs(costs_i[support] - v)) <= 1e-9
            assert np.min(costs_i) >= v - 1e-9


def cyclic_mismatching_pennies(s=1.0):
    # three players, each pays s for matching the next player's bit; the
    # unique equilibrium mixes both bits evenly
    return polymatrix_game(
        strategies=labelled_strategies((2, 2, 2)),
        own=(np.zeros(2),) * 3,
        pair=tuple(
            {j: s * np.eye(2) if j == (i + 1) % 3 else np.zeros((2, 2)) for j in range(3) if j != i}
            for i in range(3)
        ),
    )


def test_mne_k_player_uniform_on_cyclic_game():
    fg = cyclic_mismatching_pennies()
    assert finite.pne_search(fg) == []
    profile, eps = finite.mne_k_player(fg)
    assert eps <= 1e-6
    for p in profile.probs:
        assert np.allclose(p, [0.5, 0.5], atol=1e-6)


def test_mne_k_player_returns_pne_with_zero_eps():
    # each player's cost is its own bit: playing 0 dominates for everyone
    fg = polymatrix_game(
        strategies=labelled_strategies((2, 2, 2)),
        own=(np.array([0.0, 1.0]),) * 3,
        pair=tuple({j: np.zeros((2, 2)) for j in range(3) if j != i} for i in range(3)),
    )
    profile, eps = finite.mne_k_player(fg)
    assert eps == 0.0
    for p in profile.probs:
        assert p.tolist() == [1.0, 0.0]


def test_mne_k_player_singleton_sets_degenerate():
    fg = polymatrix_game(
        strategies=tuple((np.array([i]),) for i in range(3)),
        own=(np.zeros(1),) * 3,
        pair=tuple({j: np.zeros((1, 1)) for j in range(3) if j != i} for i in range(3)),
    )
    profile, eps = finite.mne_k_player(fg)
    assert eps == 0.0
    for p in profile.probs:
        assert p.tolist() == [1.0]


@pytest.mark.parametrize("s", [1e-20, 1e-12, 1e-9, 1e-6, 1.0, 1e6, 1e9, 1e12, 1e20])
def test_mne_k_player_solves_the_cyclic_game_at_any_cost_scale(s):
    # unscaled, the LCP mixed costs of 1e9 and more with its unit columns and
    # Lemke's algorithm ended on a ray; with absolute tolerances below cost
    # scale 1, every cell passed as a pure equilibrium from s = 1e-9 down
    fg = cyclic_mismatching_pennies(s)
    assert finite.pne_search(fg) == []
    profile, eps = finite.mne_k_player(fg)
    assert eps <= finite.EQ_TOLERANCE * 2.0 * s
    assert float(finite.regret(fg, profile).max()) == eps
    for p in profile.probs:
        assert np.allclose(p, [0.5, 0.5], atol=1e-9)


def singleton_games():
    rng = np.random.default_rng(15)
    for k in range(2, 6):
        for _ in range(5):
            yield polymatrix_game(
                strategies=tuple((rng.integers(-9, 10, size=2).astype(np.float64),) for _ in range(k)),
                own=tuple(rng.uniform(-50.0, 50.0, size=1) for _ in range(k)),
                pair=tuple({j: rng.uniform(-50.0, 50.0, size=(1, 1)) for j in range(k) if j != i} for i in range(k)),
            )


def test_a_one_cell_game_is_its_own_equilibrium():
    # every fixed point of the acceptance corpus, the negative and built-in
    # games, and singleton games for k = 2..5: the solvers return the one
    # cell as the pure profile with regret +0.0, which a fixed point's report
    # writes without solving, and its expected costs are bitwise the
    # strategy costs at probability one, which `fixed_point_delta` reads
    games = [
        finite.restrict(inst, dynamics.cycle_sets(trace))
        for _, inst, trace in terminated_runs()
        if trace.outcome == dynamics.OUTCOME_FIXED_POINT
    ]
    assert len(games) >= 150
    games += list(singleton_games())
    assert {fg.k for fg in games} == {2, 3, 4, 5}
    for fg in games:
        assert fg.sizes == (1,) * fg.k
        profile, eps = finite.solve_equilibrium(fg)
        assert [p.tolist() for p in profile.probs] == [[1.0]] * fg.k and float(eps).hex() == (0.0).hex()
        assert hexes(finite.expected_costs(fg, profile)) == hexes(finite.strategy_costs(fg, np.ones(fg.k)))


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("c", [1e8, 1e20, 1e300])
def test_a_one_cell_game_with_large_costs_is_solved(k, c):
    # support enumeration checks the one cell's indifference value against
    # an absolute tolerance, which its rounding missed at costs of 1e8
    fg = polymatrix_game(
        strategies=tuple((np.zeros(1),) for _ in range(k)),
        own=(np.array([c]),) + (np.zeros(1),) * (k - 1),
        pair=tuple({j: np.full((1, 1), c / 3) for j in range(k) if j != i} for i in range(k)),
    )
    profile, eps = finite.solve_equilibrium(fg)
    assert [p.tolist() for p in profile.probs] == [[1.0]] * k
    assert eps == 0.0


def test_solve_equilibrium_dispatch(cycling_game):
    _, fg = cycling_game
    profile, eps = finite.solve_equilibrium(fg)
    assert eps <= 1e-9
    with pytest.raises(DimensionMismatch):
        finite.mne_k_player(fg)
    with pytest.raises(DimensionMismatch):
        finite.mne_two_player(cyclic_mismatching_pennies())


def test_verify_delta_cycling_is_exact_equilibrium(cycling_game):
    inst, fg = cycling_game
    profile = finite.mne_two_player(fg)
    report = finite.verify_delta(inst, fg, profile)
    assert report.max_gain <= 1e-9
    assert all(g >= -1e-9 for g in report.gains)


def test_verify_delta_counterexample_gain(counter_game):
    inst, fg = counter_game
    profile = finite.mne_two_player(fg)
    report = finite.verify_delta(inst, fg, profile)
    assert report.gains[0] == pytest.approx(12.5, abs=1e-9)
    assert report.deviation_vectors[0].tolist() == [5, 0]


@pytest.mark.parametrize("M", [10, 20, 40])
def test_counterexample_gain_grows_quadratically(M):
    inst = instgen.builtin("counterexample", M=M)
    fg = finite.restrict(inst, solved_cycle(inst, [[0.0, 1.0], [0.0, 1.0]]))
    profile = finite.mne_two_player(fg)
    report = finite.verify_delta(inst, fg, profile)
    assert report.gains[0] >= M * M / 8.0 - 1e-9


def test_verify_delta_pne_fixed_point():
    inst = instgen.builtin("counterexample", M=10)
    fg = finite.restrict(inst, solved_cycle(inst, None))
    profile, _ = finite.solve_equilibrium(fg)
    report = finite.verify_delta(inst, fg, profile)
    assert report.max_gain <= 1e-9


def hexes(values):
    return [float(x).hex() for x in values]


def delta_bits(report):
    floats = (report.expected_costs, report.deviation_costs, report.gains)
    vectors = [v.dtype.str + v.tobytes().hex() for v in report.deviation_vectors]
    return [hexes(field) for field in floats], vectors


def report_bits(result):
    """A fixed point's equilibrium fields of a `cli.solve_pipeline` report, floats as hex."""
    eq = result["equilibrium"]
    return (
        [hexes(p) for p in eq["probabilities"]],
        float(eq["within_game_eps"]).hex(),
        [hexes(eq[key]) for key in ("expected_costs", "deviation_costs", "deviation_gains")],
        eq["delta_bounded"],
        eq["delta_bounded_reason"],
    )


def general_bits(inst, trace):
    """The same fields from the general path, and its `DeltaReport`: the
    restricted game through `solve_equilibrium`'s solvers, and one sweep at
    the means by `verify_delta`."""
    sets = dynamics.cycle_sets(trace)
    fg = finite.restrict(inst, sets)
    profile, eps = finite.solve_equilibrium(fg)
    delta = finite.verify_delta(inst, fg, profile)
    verdict = cli._delta_bounded(delta, bounds.guarantee_pack(inst, sets), inst.report)
    fields = (
        [hexes(p) for p in profile.probs],
        float(eps).hex(),
        [hexes(x) for x in (delta.expected_costs, delta.deviation_costs, delta.gains)],
        *verdict,
    )
    return fields, delta


def fixed_point_mismatches(jobs):
    """(fixed points compared, names of those whose report differs) over
    (name, inst, start) jobs: every equilibrium field of the report, and
    every field of `fixed_point_delta`, deviation vectors included, against
    the general path, bit for bit."""
    compared, mismatches = 0, []
    for name, inst, start in jobs:
        result = cli.solve_pipeline(inst, start=start)
        trace = result["trace"]
        if trace.outcome != dynamics.OUTCOME_FIXED_POINT:
            continue
        want, delta = general_bits(inst, trace)
        fg = finite.restrict(inst, dynamics.cycle_sets(trace))
        got = report_bits(result), delta_bits(finite.fixed_point_delta(inst, fg, trace.profiles[-1]))
        if got != (want, delta_bits(delta)):
            mismatches.append(name)
        compared += 1
    return compared, mismatches


def terminated_runs():
    """(label, inst, integer-mode trace) for every cycle or fixed point reached
    from seeded starts on the acceptance corpus, negatively adequate games
    and the built-in instances."""
    rng = np.random.default_rng(13)
    insts = list(instance_corpus())
    insts += [
        (f"negative-{k}p-{n}v-{seed}", instgen.gen_negative(instgen.NegativeSpec(k, n, seed=seed)))
        for k, n, seed in ((2, 1, 1), (2, 2, 2), (3, 1, 3), (3, 2, 4))
    ]
    insts += [(name, instgen.builtin(name)) for name in ("example1", "cycling")]
    insts.append(("counterexample", instgen.builtin("counterexample", M=10)))
    for name, inst in insts:
        starts = [None] + [[rng.integers(-3, 4, size=n) for n in inst.dims] for _ in range(2)]
        if name == "counterexample":
            starts.append([[0.0, 1.0], [0.0, 1.0]])
        for start in starts:
            trace = dynamics.run_br(inst, start=start, max_iters=200)
            if trace.outcome in (dynamics.OUTCOME_CYCLE, dynamics.OUTCOME_FIXED_POINT):
                yield name, inst, trace


@pytest.fixture
def sweeps(monkeypatch):
    """The joint vectors of every `game.integer_sweep` call, in call order."""
    calls = []
    integer_sweep = game.integer_sweep

    def counting(inst, z):
        calls.append(z)
        return integer_sweep(inst, z)

    monkeypatch.setattr(game, "integer_sweep", counting)
    return calls


def test_a_fixed_point_report_comes_from_its_last_sweep(monkeypatch, sweeps):
    # every fixed point of the acceptance corpus, the negative and built-in
    # games from seeded starts: the pipeline reports every field bitwise as
    # the general path does, with no solver and no sweep after the run.  A
    # cycle is solved and sweeps once more, at its means.
    runs = list(terminated_runs())
    for name, inst, trace in runs:
        if trace.outcome == dynamics.OUTCOME_CYCLE:
            sweeps.clear()
            result = cli.solve_pipeline(inst, joint=trace.profiles[0], max_iters=200)
            assert len(sweeps) == result["iterations"] + 1, name
    fixed = [(name, inst, trace) for name, inst, trace in runs if trace.outcome == dynamics.OUTCOME_FIXED_POINT]
    expected = [general_bits(inst, trace) for _, inst, trace in fixed]

    def not_called(*args, **kwargs):
        raise AssertionError("an integer fixed point went to a solver or a deviation sweep")

    for name in ("solve_equilibrium", "mne_two_player", "mne_k_player", "verify_delta"):
        monkeypatch.setattr(finite, name, not_called)
    kinds = set()
    for (name, inst, trace), (want, delta) in zip(fixed, expected):
        sweeps.clear()
        result = cli.solve_pipeline(inst, joint=trace.profiles[0], max_iters=200)
        assert len(sweeps) == result["iterations"] == trace.iterations, name
        assert report_bits(result) == want, name
        fg = finite.restrict(inst, dynamics.cycle_sets(result["trace"]))
        assert delta_bits(finite.fixed_point_delta(inst, fg, trace.profiles[-1])) == delta_bits(delta), name
        kinds.add(name.split("-")[0])
    assert len(fixed) >= 150
    assert kinds >= {"pricing", "random", "negative", "counterexample"}


def test_fixed_point_delta_takes_only_a_one_cell_game(cycling_game):
    inst, fg = cycling_game
    with pytest.raises(DimensionMismatch):
        finite.fixed_point_delta(inst, fg, np.zeros(2, dtype=np.int64))


def test_verify_delta_sweeps_for_a_continuous_fixed_point(sweeps):
    # d = 0: both modes settle at the origin from the origin, so the means of
    # the integer fixed point equal the continuous run's last profile.
    # `verify_delta` reads no trace: at those means it takes the deviations
    # from one integer sweep, bitwise the integer fixed point's report.  A
    # continuous fixed point is reported as the point alone, with no sweep
    # after the run.
    inst = game.make_instance([
        game.PlayerProblem(Q=2.0 * np.eye(2), C={1 - i: 0.3 * np.eye(2)}, d=np.zeros(2))
        for i in range(2)
    ])
    fixed = dynamics.run_br(inst)
    assert fixed.outcome == dynamics.OUTCOME_FIXED_POINT
    fg = finite.restrict(inst, dynamics.cycle_sets(fixed))
    profile, _ = finite.solve_equilibrium(fg)
    smooth = dynamics.run_br(inst, mode=dynamics.CONTINUOUS)
    assert smooth.outcome == dynamics.OUTCOME_FIXED_POINT
    means = finite.mean_strategies(fg, profile)
    assert all(np.array_equal(m, x) for m, x in zip(means, inst.split(smooth.profiles[-1])))
    sweeps.clear()
    report = finite.verify_delta(inst, fg, profile)
    assert len(sweeps) == 1
    assert all(v.dtype == np.int64 for v in report.deviation_vectors)
    assert delta_bits(report) == delta_bits(finite.fixed_point_delta(inst, fg, fixed.profiles[-1]))
    sweeps.clear()
    result = cli.solve_pipeline(inst, mode=dynamics.CONTINUOUS)
    assert not sweeps and list(result["equilibrium"]) == ["fixed_point"]


def test_mixed_profile_validation():
    with pytest.raises(ValueError):
        finite.MixedProfile(probs=(np.array([0.5, 0.4]),))
    with pytest.raises(ValueError):
        finite.MixedProfile(probs=(np.array([-0.1, 1.1]),))
    with pytest.raises(ValueError, match="non-finite"):
        finite.MixedProfile(probs=(np.array([np.nan, 1.0]),))
    with pytest.raises(ValueError, match="non-finite"):
        finite.MixedProfile(probs=(np.array([np.inf, 1.0]),))
    ok = finite.MixedProfile(probs=(np.array([0.25, 0.75]),))
    assert ok.probs[0].sum() == 1.0


def reference_mne_two_player(fg, atol=finite.EQ_TOLERANCE):
    """Plain support enumeration with no pruning, solving and checking both
    sides of every pair in the (total size, row size, lexicographic) order,
    with the reference module's solve and check (`_enumeration_reference`)."""
    A = finite.cell_costs(fg, 0)
    B = finite.cell_costs(fg, 1)
    m, n = A.shape
    for total in range(2, m + n + 1):
        for a in range(max(1, total - n), min(m, total - 1) + 1):
            for I in itertools.combinations(range(m), a):
                for J in itertools.combinations(range(n), total - a):
                    solved_q = reference._solve_indifference(A, I, J)
                    if solved_q is None:
                        continue
                    q_supp, vx = solved_q
                    solved_p = reference._solve_indifference(B.T, J, I)
                    if solved_p is None:
                        continue
                    p_supp, vy = solved_p
                    if np.any(q_supp < -1e-9) or np.any(p_supp < -1e-9):
                        continue
                    q = np.zeros(n)
                    q[list(J)] = np.clip(q_supp, 0.0, None)
                    p = np.zeros(m)
                    p[list(I)] = np.clip(p_supp, 0.0, None)
                    if abs(q.sum() - 1.0) > 1e-9 or abs(p.sum() - 1.0) > 1e-9:
                        continue
                    q /= q.sum()
                    p /= p.sum()
                    if reference._valid_side(A, q, I, vx, atol) and reference._valid_side(
                        B.T, p, J, vy, atol
                    ):
                        return p, q
    raise AssertionError("reference enumeration found no equilibrium")


def bimatrix(costs):
    # a bimatrix game is polymatrix with no own costs
    m, n = costs.shape[:2]
    return polymatrix_game(
        strategies=labelled_strategies((m, n)),
        own=(np.zeros(m), np.zeros(n)),
        pair=({1: costs[..., 0]}, {0: costs[..., 1].T}),
    )


def assert_equilibrium(fg, profile, atol=finite.EQ_TOLERANCE):
    # independent of the solver: every supported pure strategy costs within
    # 2 atol of the mix's expected cost, and none is cheaper by more than that
    tol = 2.0 * atol + 1e-12 * (1.0 + np.abs(cost_tensor(fg)).max())
    for i in range(2):
        costs_i = player_costs(fg, i, profile)
        v = float(costs_i @ profile.probs[i])
        assert np.max(np.abs(costs_i[profile.support(i)] - v)) <= tol
        assert np.min(costs_i) >= v - tol


def oracle_games():
    rng = np.random.default_rng(20240507)
    shapes = [(s, s) for s in range(1, 11)] + [(1, 10), (10, 1), (2, 7), (7, 3), (4, 9)]
    for m, n in shapes:
        for _ in range(3):
            yield f"gauss-{m}x{n}", rng.standard_normal((m, n, 2))
            # few distinct values: ties and degenerate indifference systems
            yield f"int-{m}x{n}", rng.integers(-2, 3, size=(m, n, 2)).astype(np.float64)


def test_mne_two_player_matches_plain_enumeration_bitwise(cycling_game, counter_game):
    games = [(label, bimatrix(costs)) for label, costs in oracle_games()]
    games += [("cycling", cycling_game[1]), ("counterexample", counter_game[1])]
    for label, fg in games:
        profile = finite.mne_two_player(fg)
        p_ref, q_ref = reference_mne_two_player(fg)
        assert profile.probs[0].tobytes() == p_ref.tobytes(), label
        assert profile.probs[1].tobytes() == q_ref.tobytes(), label
        assert_equilibrium(fg, profile)


def logged_solves(mp, module):
    """Patch ``module._solve_indifference`` to log each call's costs and
    supports; returns the log."""
    calls = []
    original = module._solve_indifference

    def logging(costs, rows, cols):
        calls.append((costs.tobytes(), tuple(int(r) for r in rows), tuple(int(c) for c in cols)))
        return original(costs, rows, cols)

    mp.setattr(module, "_solve_indifference", logging)
    return calls


def assert_reference_enumeration(monkeypatch, fg, label):
    # the same profile bit for bit, from the same solves in the same order
    with monkeypatch.context() as mp:
        calls, reference_calls = logged_solves(mp, finite), logged_solves(mp, reference)
        profile, expected = finite.mne_two_player(fg), reference.mne_two_player(fg)
    assert calls == reference_calls, label
    assert [p.tobytes() for p in profile.probs] == [p.tobytes() for p in expected.probs], label
    return calls


def seventy_strategy_game():
    # row (j + 1) % 70 is the row player's strict best response to column j
    # and column i the column player's to row i, so no cell but (66, 69),
    # made strict for both, is a pure equilibrium: the dominance masks are
    # read above bit 63
    rng = np.random.default_rng(3)
    m = 70
    costs = 1.0 + rng.uniform(size=(m, m, 2))
    costs[(np.arange(m) + 1) % m, np.arange(m), 0] = 0.0
    costs[np.arange(m), np.arange(m), 1] = 0.0
    costs[66, 69] = -1.0
    return bimatrix(costs)


def duplicated_strategy_game():
    # matching pennies on rows 2 and 3, and a strategy, rows 0 and 1, that
    # both players rate the same against either column: no row or column is
    # dominated on the supports {0, 1}, whose square system is singular
    A = np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]])
    return bimatrix(np.stack([A, -A], axis=-1))


def test_mne_two_player_solves_the_reference_pairs_bitwise(monkeypatch, cycling_game, counter_game):
    games = [(label, bimatrix(costs)) for label, costs in oracle_games()]
    games += [("cycling", cycling_game[1]), ("counterexample", counter_game[1])]
    games += [("70x70", seventy_strategy_game()), ("duplicated", duplicated_strategy_game())]
    solved = 0
    for label, fg in games:
        solved += len(assert_reference_enumeration(monkeypatch, fg, label))
    assert solved > 300


def test_seventy_strategies_per_side_solve_only_the_pure_equilibrium(monkeypatch):
    fg = seventy_strategy_game()
    assert finite.pne_search(fg) == [(66, 69)]
    calls = assert_reference_enumeration(monkeypatch, fg, "70x70")
    assert [call[1:] for call in calls] == [((66,), (69,)), ((69,), (66,))]


def test_a_singular_support_system_takes_the_least_squares_fallback(monkeypatch):
    fg = duplicated_strategy_game()
    calls = assert_reference_enumeration(monkeypatch, fg, "duplicated")
    assert (finite.cell_costs(fg, 0).tobytes(), (0, 1), (0, 1)) in calls
    fallbacks = []
    original = np.linalg.lstsq
    monkeypatch.setattr(
        np.linalg, "lstsq", lambda M, *args, **kwargs: fallbacks.append(M.shape) or original(M, *args, **kwargs)
    )
    profile = finite.mne_two_player(fg)
    assert fallbacks.count((3, 3)) == 1  # the rest are non-square systems
    assert [p.tolist() for p in profile.probs] == [[0.0, 0.0, 0.5, 0.5], [0.5, 0.5]]
    assert_equilibrium(fg, profile)


def test_mne_two_player_matches_the_reference_enumeration_on_the_cycling_workload(monkeypatch):
    # the restricted game of every pool-0 job of the benchmark's cycling workload
    games = 0
    for name, inst, start in benchmark_jobs("cycling", 0):
        trace = dynamics.run_br(inst, start=start)
        fg = finite.restrict(inst, dynamics.cycle_sets(trace))
        if fg.sizes != (1, 1):
            assert_reference_enumeration(monkeypatch, fg, name)
            games += 1
    assert games == 145


def test_mne_two_player_keeps_a_support_row_within_twice_atol():
    # row 0 costs 1.999 atol more than row 1 against column 0, so a mix over
    # both rows still passes the equilibrium check against column 0; pruning
    # must not cut that row, and the smallest-support equilibrium it is part
    # of must still come back
    atol = finite.EQ_TOLERANCE
    costs = np.zeros((2, 2, 2))
    costs[..., 0] = [[1.999 * atol, 0.0], [0.0, 1.0]]
    costs[..., 1] = [[0.0, 1.0], [0.0, -1.0]]
    fg = bimatrix(costs)
    assert finite.pne_search(fg) == []
    profile = finite.mne_two_player(fg)
    p_ref, q_ref = reference_mne_two_player(fg)
    assert profile.probs[0].tobytes() == p_ref.tobytes()
    assert profile.probs[1].tobytes() == q_ref.tobytes()
    assert np.allclose(profile.probs[0], [0.5, 0.5], atol=1e-12)
    assert profile.probs[1].tolist() == [1.0, 0.0]
    assert_equilibrium(fg, profile)


def test_mne_two_player_solves_only_the_winner_of_a_strict_pure_game(monkeypatch):
    # with every gap far above the tolerance, each pure pair before the first
    # pure equilibrium has a dominated strategy on the other's support, so
    # only the winning pair pays for its two linear solves
    rng = np.random.default_rng(7)
    while True:
        fg = bimatrix(rng.standard_normal((10, 10, 2)))
        pnes = finite.pne_search(fg)
        if pnes and pnes[0] != (0, 0):
            break
    solves = []
    original = finite._solve_indifference
    monkeypatch.setattr(
        finite, "_solve_indifference", lambda *args: solves.append(args) or original(*args)
    )
    profile = finite.mne_two_player(fg)
    assert tuple(int(profile.support(i)[0]) for i in range(2)) == pnes[0]
    assert len(solves) == 2


@pytest.mark.parametrize("s", [1e-20, 1e-12, 1e-9, 1e-6, 1.0, 1e8, 1e9, 1e12, 1e20])
def test_mne_two_player_solves_a_mixed_game_at_any_cost_scale(s):
    # the equilibrium check's tolerance is relative to the costs: an absolute
    # 1e-9 failed every support from s = 1e8 on, and a floor at 1 passed a
    # pure support from s = 1e-9 down
    A = s * np.array([[3.0, -1.0], [-2.0, 1.5]])
    fg = bimatrix(np.stack([A, -0.7 * A], axis=-1))
    assert finite.pne_search(fg) == []
    profile, eps = finite.solve_equilibrium(fg)
    assert np.allclose(profile.probs[0], [7 / 15, 8 / 15], rtol=0.0, atol=1e-9)
    assert np.allclose(profile.probs[1], [1 / 3, 2 / 3], rtol=0.0, atol=1e-9)
    assert eps <= finite.EQ_TOLERANCE * float(np.abs(A).max())
    assert float(finite.regret(fg, profile).max()) == eps


def test_the_cycling_builtin_solves_to_its_half_half_mix_at_any_cost_scale():
    # Q, C and d times s: best responses and equilibria are those at s = 1.
    # An absolute Cholesky pivot floor rejected Q from s = 1e-11 down, and
    # absolute equilibrium tolerances passed a pure profile at s = 1e-9
    base = instgen.builtin("cycling")
    for s in (1e-20, 1e-11, 1e-9, 1e20):
        inst = game.make_instance([
            game.PlayerProblem(Q=s * p.Q, C={j: s * c for j, c in p.C.items()}, d=s * p.d)
            for p in base.players
        ])
        report = cli.solve_pipeline(inst, start=[[0.0], [0.0]])
        assert (report["outcome"], report["iterations"]) == ("cycle", 4), s
        for probs in report["equilibrium"]["probabilities"]:
            assert probs == pytest.approx([0.5, 0.5], abs=1e-9), s


def coupled_game(rng, k, n):
    # Q_i = 2 I, every coupling entry in (-1.9, 1.9): best responses move far
    # enough to cycle through many strategies
    players = [
        game.PlayerProblem(
            Q=2.0 * np.eye(n),
            C={j: rng.uniform(-1.9, 1.9, size=(n, n)) for j in range(k) if j != i},
            d=rng.uniform(-3.0, 3.0, size=n),
        )
        for i in range(k)
    ]
    return game.make_instance(players)


def restricted_cycle_games(seed, k, n, draws):
    """(instance, restricted game) of the seeded draws whose integer
    iteration cycles."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        inst = coupled_game(rng, k, n)
        start = [rng.integers(-5, 6, size=n).astype(float) for _ in range(k)]
        trace = dynamics.run_br(inst, start=start, max_iters=200)
        if trace.outcome == dynamics.OUTCOME_CYCLE:
            yield inst, finite.restrict(inst, dynamics.cycle_sets(trace))


def restricted_cycles(seed, k, n, draws):
    """Restricted games of the seeded draws whose integer iteration cycles."""
    for _, fg in restricted_cycle_games(seed, k, n, draws):
        yield fg


def per_player_own_costs(inst, fg):
    """The own costs as one einsum and one matvec per player, the former
    form `restrict`'s per-group terms must reproduce bit for bit."""
    S = [np.asarray(S_i, dtype=np.float64) for S_i in fg.strategies]
    return np.concatenate([0.5 * np.einsum("sa,ab,sb->s", S_i, p.Q, S_i) + S_i @ p.d for S_i, p in zip(S, inst.players)])


def test_own_costs_are_bitwise_the_per_player_einsum(cycling_game):
    # the restricted games of the acceptance corpus's fixed points and
    # cycles, the cycling builtin's cycle, the k = 3..5 cycles of coupled
    # draws, pool 0 of the corpus and cycling benchmark workloads, and
    # mixed-dimension games on seeded strategy sets of unequal sizes: one
    # group, several, equal counts and padded ones
    games = [(inst, finite.restrict(inst, dynamics.cycle_sets(trace))) for _, inst, trace in terminated_runs()]
    games.append(cycling_game)
    for seed, (k, n, draws) in enumerate(((3, 1, 60), (3, 2, 30), (4, 1, 40), (4, 2, 20), (5, 1, 30), (5, 2, 15)), 41):
        games += list(restricted_cycle_games(seed, k, n, draws))
    for workload in ("corpus", "cycling"):
        for _, inst, start in load_workloads().build_jobs(workload, 0):
            games.append((inst, finite.restrict(inst, solved_cycle(inst, start))))
    rng = np.random.default_rng(43)
    for k in range(2, 7):
        for n in (1, 2, 3, 6, 10):
            for lowest in (1, n):
                dims = tuple(int(d) for d in rng.integers(lowest, n + 1, size=k))
                inst = mixed_dim_game(rng, dims)
                sizes = tuple(int(m) for m in rng.integers(1, 9, size=k))
                games.append((inst, finite.restrict(inst, strategy_sets(rng, dims, sizes))))
    shapes = {"several strategies": 0, "several groups": 0, "padded": 0, "k >= 3 multi-strategy": 0}
    for inst, fg in games:
        assert fg.own.tobytes() == per_player_own_costs(inst, fg).tobytes(), fg.sizes
        shapes["several strategies"] += max(fg.sizes) > 1
        shapes["several groups"] += len(inst.groups) > 1
        shapes["padded"] += any(len({fg.sizes[i] for i in g.players}) > 1 for g in inst.groups)
        shapes["k >= 3 multi-strategy"] += fg.k >= 3 and max(fg.sizes) > 1
    assert min(shapes.values()) >= 50, shapes


@pytest.fixture(scope="module")
def k_player_cycles():
    return (
        list(restricted_cycles(1, 3, 1, 120))
        + list(restricted_cycles(2, 3, 2, 40))
        + list(restricted_cycles(3, 4, 1, 60))
    )


def test_polymatrix_blocks_reproduce_the_cost_tensor(k_player_cycles):
    assert {fg.k for fg in k_player_cycles} == {3, 4}
    for fg in k_player_cycles:
        D, offsets = finite.polymatrix_blocks(fg)
        costs = cost_tensor(fg)
        scale = max(1.0, float(np.abs(costs).max()))
        for i in range(fg.k):
            assert not D[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]].any()
        for s in np.ndindex(*fg.sizes):
            for i in range(fg.k):
                row = offsets[i] + s[i]
                total = sum(D[row, offsets[j] + s[j]] for j in range(fg.k))
                assert abs(total - costs[s + (i,)]) <= 1e-12 * scale


def test_mne_k_player_solves_every_mixed_only_cycle(k_player_cycles):
    mixed = [fg for fg in k_player_cycles if not finite.pne_search(fg)]
    assert {(fg.k, len(fg.strategies[0][0])) for fg in mixed} == {(3, 1), (3, 2), (4, 1)}
    assert max(max(fg.sizes) for fg in mixed) >= 8
    for fg in mixed:
        profile, eps = finite.mne_k_player(fg)
        assert eps <= 1e-9, fg.sizes
        assert float(finite.regret(fg, profile).max()) == eps


def test_mne_k_player_raises_when_lemke_returns_no_equilibrium(monkeypatch):
    # every player on bit 0 matches the next player's bit, so each gains 1 by
    # switching: the regret check must catch a pivoting result that far off
    fg = cyclic_mismatching_pennies()
    z = np.concatenate([np.tile([1.0, 0.0], 3), np.zeros(3)])
    monkeypatch.setattr(finite, "_lemke", lambda M, q: z)
    with pytest.raises(NoEquilibriumFound, match="regret"):
        finite.mne_k_player(fg)


def tensor_pure_strategy_costs(fg, i, profile):
    # the contraction of the full tensor, opponent axes from the back so the
    # axis numbering stays stable
    T = finite.cell_costs(fg, i)
    for j in range(fg.k - 1, -1, -1):
        if j != i:
            T = np.tensordot(T, profile.probs[j], axes=([j], [0]))
    return T


def test_costs_and_regret_match_the_tensor_contraction(k_player_cycles):
    rng = np.random.default_rng(29)
    games = list(k_player_cycles) + [bimatrix(costs) for _, costs in oracle_games()]
    for fg in games:
        scale = 1e-12 * max(1.0, float(np.abs(cost_tensor(fg)).max()))
        for _ in range(3):
            profile = finite.MixedProfile(probs=tuple(rng.dirichlet(np.ones(m)) for m in fg.sizes))
            want = [tensor_pure_strategy_costs(fg, i, profile) for i in range(fg.k)]
            expected = np.array([w @ p for w, p in zip(want, profile.probs)])
            costs = finite.strategy_costs(fg, np.concatenate(profile.probs))
            assert np.abs(costs - np.concatenate(want)).max() <= scale
            assert np.abs(finite.expected_costs(fg, profile) - expected).max() <= scale
            regret = expected - np.array([w.min() for w in want])
            assert np.abs(finite.regret(fg, profile) - regret).max() <= scale


def test_finite_game_rejects_costs_of_the_wrong_shape():
    strategies = labelled_strategies((2, 3))
    for own, D in ((np.zeros(5), np.zeros((5, 4))), (np.zeros(4), np.zeros((5, 5)))):
        with pytest.raises(DimensionMismatch):
            finite.FiniteGame(strategies=strategies, own=own, D=D)


def test_finite_game_rejects_a_nonzero_diagonal_block():
    # `strategy_costs` reads all of D and `cell_costs` only the pair blocks
    D = np.zeros((5, 5))
    D[3, 4] = 1.0
    with pytest.raises(ValueError, match="diagonal"):
        finite.FiniteGame(strategies=labelled_strategies((2, 3)), own=np.zeros(5), D=D)


def test_finite_game_bounds_every_piece_by_the_largest_float_over_k():
    # a cell adds k pieces, so each must stay below finfo.max / k
    def bimatrix_game(own0, entry):
        return polymatrix_game(
            strategies=labelled_strategies((2, 2)),
            own=(own0, np.zeros(2)),
            pair=({1: np.array([[0.0, entry], [0.0, 0.0]])}, {0: np.zeros((2, 2))}),
        )

    limit = np.finfo(np.float64).max / 2
    with pytest.raises(ValueError):
        bimatrix_game(np.array([0.0, np.nan]), 0.0)
    with pytest.raises(ValueError):
        bimatrix_game(np.zeros(2), limit)
    with pytest.raises(ValueError):
        bimatrix_game(np.zeros(2), -limit)
    fg = bimatrix_game(np.zeros(2), np.nextafter(limit, 0.0))
    assert np.isfinite(cost_tensor(fg)).all()


THREE_PLAYER_CYCLE = {
    "players": [
        {"Q": [[2.0]], "C": {"1": [[-0.5]], "2": [[1.5]]}, "d": [0.5]},
        {"Q": [[2.0]], "C": {"0": [[-1.0]], "2": [[-1.5]]}, "d": [2.0]},
        {"Q": [[2.0]], "C": {"0": [[-1.5]], "1": [[-1.0]]}, "d": [2.0]},
    ],
    "meta": {},
}


def test_solve_pipeline_mixes_a_three_player_cycle():
    result = cli.solve_pipeline(game.instance_from_dict(THREE_PLAYER_CYCLE))
    assert result["outcome"] == dynamics.OUTCOME_CYCLE
    eq = result["equilibrium"]
    assert eq["within_game_eps"] <= 1e-9
    expected = [[1 / 3, 2 / 3], [0.0, 1.0], [1 / 3, 2 / 3]]
    for probs, want in zip(eq["probabilities"], expected):
        assert np.allclose(probs, want, atol=1e-9)


def benchmark_jobs(workload, pool):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.build_jobs(workload, pool)


def test_verify_delta_matches_the_per_player_deviations():
    # every fixed point of the corpus workload's pool 3, by
    # `fixed_point_delta`, and every cycle of the cycling workload's, by
    # `verify_delta`: the joint deviation vectors are bitwise
    # `best_responses` on the means, and each joint deviation cost is
    # `game.objective` up to a few ulps (5.9 at most when measured)
    ulps = 16 * np.finfo(np.float64).eps
    outcomes = []
    for workload, want_outcome in (("corpus", dynamics.OUTCOME_FIXED_POINT), ("cycling", dynamics.OUTCOME_CYCLE)):
        for name, inst, start in benchmark_jobs(workload, 3):
            trace = dynamics.run_br(inst, start=start)
            if trace.outcome != want_outcome:
                continue
            fg = finite.restrict(inst, dynamics.cycle_sets(trace))
            profile, _ = finite.solve_equilibrium(fg)
            if trace.outcome == dynamics.OUTCOME_FIXED_POINT:
                report = finite.fixed_point_delta(inst, fg, trace.profiles[-1])
            else:
                report = finite.verify_delta(inst, fg, profile)
            means = finite.mean_strategies(fg, profile)
            for got, want in zip(report.deviation_vectors, game.best_responses(inst, means)):
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            for i, (v, cost) in enumerate(zip(report.deviation_vectors, report.deviation_costs)):
                want = game.objective(inst, i, v, means[:i] + means[i + 1:])
                assert abs(cost - want) <= ulps * abs(want), (name, i, cost, want)
            outcomes.append(workload)
    assert outcomes.count("corpus") == 500 and outcomes.count("cycling") >= 100


def test_verify_delta_names_the_first_player_with_a_non_finite_linear_term():
    # x_0 = 1e10 against C_10 = C_20 = 1e300: players 1 and 2 have an
    # infinite linear term, while every cost of the one-cell game is finite
    # (their strategies are zero).  A fixed point's deviations are the point
    # itself, so no sweep meets the infinite term first.
    inst = game.make_instance([
        game.PlayerProblem(Q=[[2.0]], C={1: [[1.0]], 2: [[1.0]]}, d=[0.0]),
        game.PlayerProblem(Q=[[2.0]], C={0: [[1e300]], 2: [[1.0]]}, d=[0.0]),
        game.PlayerProblem(Q=[[2.0]], C={0: [[1e300]], 1: [[1.0]]}, d=[0.0]),
    ])
    cell = (np.array([10**10]), np.array([0]), np.array([0]))
    fg = finite.restrict(inst, dynamics.CycleSets(strategies=tuple((x,) for x in cell)))
    with pytest.raises(ValueError) as per_player, np.errstate(over="ignore"):
        game.objective(inst, 1, cell[1], [cell[0], cell[2]])
    with pytest.raises(ValueError) as joint, np.errstate(over="ignore"):
        finite.fixed_point_delta(inst, fg, np.concatenate(cell))
    assert str(joint.value) == str(per_player.value) == "player 1: the linear term C_i y + d_i is not finite"


def seventy_player_game(multi, seed, pennies=False):
    # 70 one-dimensional players with weak couplings; the players in
    # ``multi`` have two strategies, every other player one.  With
    # ``pennies``, players 3 and 61 play matching pennies on {0, 1}: player
    # 3 pays x_3 (x_3 - 2 x_61) and player 61 x_61 (x_61 + 2 x_3 - 2), and
    # no other player moves their costs.
    rng = np.random.default_rng(seed)
    k = 70
    players = [
        game.PlayerProblem(
            Q=[[2.0]], C={j: [[rng.uniform(-0.5, 0.5)]] for j in range(k) if j != i}, d=[rng.uniform(-3.0, 3.0)]
        )
        for i in range(k)
    ]
    strategies = [
        tuple(np.array([float(s)]) for s in rng.choice(np.arange(-5, 6), size=2 if i in multi else 1, replace=False))
        for i in range(k)
    ]
    if pennies:
        for i, j, c, d in ((3, 61, -2.0, 0.0), (61, 3, 2.0, -2.0)):
            players[i] = game.PlayerProblem(Q=[[2.0]], C={o: [[c if o == j else 0.0]] for o in range(k) if o != i}, d=[d])
            strategies[i] = (np.array([0.0]), np.array([1.0]))
    inst = game.make_instance(players)
    return inst, finite.restrict(inst, dynamics.CycleSets(strategies=tuple(strategies)))


def test_cell_costs_on_the_multi_strategy_axes_keep_their_bits():
    # dropping the size-1 axes of the single-strategy players changes no bit
    rng = np.random.default_rng(73)
    for trial in range(40):
        k = 2 + trial % 4
        dims = tuple(int(n) for n in rng.integers(1, 3, size=k))
        sizes = tuple(int(m) for m in rng.integers(1, 4, size=k))
        fg = finite.restrict(mixed_dim_game(rng, dims), strategy_sets(rng, dims, sizes))
        axes = tuple(a for a, m in enumerate(sizes) if m > 1)
        for i in axes:
            full = finite.cell_costs(fg, i)
            got = finite.cell_costs(fg, i, axes)
            assert got.tobytes() == full.reshape([sizes[a] for a in axes]).tobytes()


def test_pne_search_beyond_the_array_dimension_limit():
    # 70 players, two of them with two strategies: the search runs over the
    # two axes, not one per player (numpy arrays have at most 64 axes)
    for seed in range(6):
        inst, fg = seventy_player_game(multi=(3, 61), seed=seed)
        profile, eps = finite.solve_equilibrium(fg)
        scale = float(np.abs(fg.own).max() + np.abs(fg.D).sum(axis=1).max())  # bounds every |cost|
        assert eps <= finite.EQ_TOLERANCE * scale
        assert float(finite.regret(fg, profile).max()) <= finite.EQ_TOLERANCE * scale
        # the 2 x 2 game of players 3 and 61 by objective, cell by cell
        pnes = []
        for s3, s61 in itertools.product(range(2), repeat=2):
            index = [0] * fg.k
            index[3], index[61] = s3, s61
            ok = True
            for i in (3, 61):
                costs = []
                for s in range(2):
                    cell = list(index)
                    cell[i] = s
                    costs.append(objective_at(inst, fg, cell, i))
                ok &= costs[index[i]] <= min(costs) + finite.EQ_TOLERANCE * scale
            if ok:
                pnes.append(tuple(index))
        assert finite.pne_search(fg) == pnes


def test_a_seventy_player_game_without_a_pure_equilibrium_solves():
    _, fg = seventy_player_game(multi=(3, 61), seed=0, pennies=True)
    assert finite.pne_search(fg) == []
    profile, eps = finite.solve_equilibrium(fg)
    scale = float(np.abs(fg.own).max() + np.abs(fg.D).sum(axis=1).max())
    assert eps <= finite.EQ_TOLERANCE * scale
    assert np.allclose(profile.probs[3], [0.5, 0.5]) and np.allclose(profile.probs[61], [0.5, 0.5])


def test_pne_search_refuses_more_multi_strategy_players_than_array_axes():
    _, fg = seventy_player_game(multi=tuple(range(0, 66, 2)), seed=1)
    with pytest.raises(GameTooLarge, match="33 players have several strategies"):
        finite.pne_search(fg)
