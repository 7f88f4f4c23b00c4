import itertools

import numpy as np
import pytest

from icqs import cli, dynamics, finite, game, instgen
from icqs.errors import DimensionMismatch, NoEquilibriumFound


def solved_cycle(inst, start):
    trace = dynamics.run_br(game.prepare(inst), start=start)
    return dynamics.cycle_sets(trace)


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
    assert np.allclose(fg.costs, expected, atol=1e-12)


def test_restrict_counterexample_matches_cost_table(counter_game):
    _, fg = counter_game
    expected = np.array(
        [[[-0.5, 0.5], [0.5, -50.0]], [[50.0, -0.5], [-50.0, 50.0]]]
    )
    assert np.allclose(fg.costs, expected, atol=1e-12)


def test_restrict_singleton_sets():
    inst = instgen.builtin("counterexample", M=10)
    sets = solved_cycle(inst, None)  # from the origin this settles at a PNE
    fg = finite.restrict(inst, sets)
    assert fg.sizes == (1, 1)
    assert fg.costs.shape == (1, 1, 2)


def test_restrict_rejects_non_finite_strategies():
    inst = instgen.builtin("cycling")
    sets = dynamics.CycleSets(
        strategies=((np.array([0.0]),), (np.array([np.nan]),)), joint_profiles=()
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
    return dynamics.CycleSets(strategies=strategies, joint_profiles=())


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
                assert fg.costs.shape == sizes + (k,)
                for cell in np.ndindex(*sizes):
                    for i in range(k):
                        expected = objective_at(inst, fg, cell, i)
                        assert abs(fg.costs[cell + (i,)] - expected) <= 1e-12 * max(1.0, abs(expected))


def test_restrict_makes_no_objective_call(monkeypatch):
    rng = np.random.default_rng(12)
    inst = mixed_dim_game(rng, (2, 1, 3))
    sets = strategy_sets(rng, inst.dims, (3, 4, 2))

    def forbidden(*args, **kwargs):
        raise AssertionError("restrict called game.objective")

    monkeypatch.setattr(game, "objective", forbidden)
    assert finite.restrict(inst, sets).costs.shape == (3, 4, 2, 3)


def test_restrict_builds_a_large_four_player_set_cell_for_cell():
    rng = np.random.default_rng(13)
    inst = coupled_game(rng, 4, 2)
    fg = finite.restrict(inst, strategy_sets(rng, inst.dims, (12, 15, 11, 13)))
    assert fg.sizes == (12, 15, 11, 13)
    for _ in range(200):
        cell = tuple(int(rng.integers(m)) for m in fg.sizes)
        i = int(rng.integers(4))
        expected = objective_at(inst, fg, cell, i)
        assert abs(fg.costs[cell + (i,)] - expected) <= 1e-12 * max(1.0, abs(expected))


def test_restrict_rejects_an_overflowing_cost():
    # 0.5 s'Qs at s = 1e200 is about 1e400, beyond the largest float
    inst = instgen.builtin("cycling")
    sets = dynamics.CycleSets(
        strategies=((np.array([0.0]), np.array([1e200])), (np.array([1.0]),)), joint_profiles=()
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
    result = []
    for index in np.ndindex(*fg.sizes):
        ok = True
        for i in range(fg.k):
            column = fg.costs[index[:i] + (slice(None),) + index[i + 1 :] + (i,)]
            if fg.costs[index + (i,)] > column.min() + atol:
                ok = False
                break
        if ok:
            result.append(index)
    return result


def test_pne_search_matches_a_cell_by_cell_scan():
    # integer costs in a small range tie often, so many cells are equilibria
    rng = np.random.default_rng(71)
    found = 0
    for trial in range(120):
        k = 2 + trial % 3
        sizes = tuple(int(m) for m in rng.integers(1, 5, size=k))
        strategies = tuple(tuple(np.array([s]) for s in range(m)) for m in sizes)
        costs = rng.integers(-2, 3, size=sizes + (k,)).astype(np.float64)
        fg = finite.FiniteGame(strategies=strategies, costs=costs)
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
    strategies = ((np.array([0]), np.array([1])), (np.array([0]), np.array([1])))
    costs = np.zeros((2, 2, 2))
    costs[..., 0] = [[0.0, 5.0], [5.0, 1.0]]
    costs[..., 1] = [[0.0, 5.0], [5.0, 1.0]]
    fg = finite.FiniteGame(strategies=strategies, costs=costs)
    profile = finite.mne_two_player(fg)
    assert profile.probs[0].tolist() == [1.0, 0.0]
    assert profile.probs[1].tolist() == [1.0, 0.0]
    assert len(profile.support(0)) == 1


def test_mne_two_player_equilibrium_conditions_random():
    # support costs are equal-minimal, off-support never better than -1e-9
    for seed in range(8):
        inst = instgen.gen_random(instgen.RandomSpec(n_players=2, vars_per_player=2, seed=300 + seed))
        trace = dynamics.run_br(game.prepare(inst), start=[[9.0, -9.0], [-9.0, 9.0]])
        fg = finite.restrict(inst, dynamics.cycle_sets(trace))
        profile = finite.mne_two_player(fg)
        for i in range(2):
            costs_i = finite.pure_strategy_costs(fg, i, profile)
            v = float(costs_i @ profile.probs[i])
            support = profile.support(i)
            assert np.max(np.abs(costs_i[support] - v)) <= 1e-9
            assert np.min(costs_i) >= v - 1e-9


def cyclic_mismatching_pennies():
    # three players, each pays 1 for matching the next player's bit; the
    # unique equilibrium mixes both bits evenly
    strategies = tuple((np.array([0]), np.array([1])) for _ in range(3))
    costs = np.zeros((2, 2, 2, 3))
    for s in np.ndindex(2, 2, 2):
        for i in range(3):
            costs[s + (i,)] = 1.0 if s[i] == s[(i + 1) % 3] else 0.0
    return finite.FiniteGame(strategies=strategies, costs=costs)


def test_mne_k_player_uniform_on_cyclic_game():
    fg = cyclic_mismatching_pennies()
    assert finite.pne_search(fg) == []
    profile, eps = finite.mne_k_player(fg)
    assert eps <= 1e-6
    for p in profile.probs:
        assert np.allclose(p, [0.5, 0.5], atol=1e-6)


def test_mne_k_player_returns_pne_with_zero_eps():
    strategies = tuple((np.array([0]), np.array([1])) for _ in range(3))
    costs = np.zeros((2, 2, 2, 3))
    for s in np.ndindex(2, 2, 2):
        for i in range(3):
            costs[s + (i,)] = float(s[i])  # playing 0 dominates for everyone
    fg = finite.FiniteGame(strategies=strategies, costs=costs)
    profile, eps = finite.mne_k_player(fg)
    assert eps == 0.0
    for p in profile.probs:
        assert p.tolist() == [1.0, 0.0]


def test_mne_k_player_singleton_sets_degenerate():
    strategies = tuple((np.array([i]),) for i in range(3))
    costs = np.zeros((1, 1, 1, 3))
    fg = finite.FiniteGame(strategies=strategies, costs=costs)
    profile, eps = finite.mne_k_player(fg)
    assert eps == 0.0
    for p in profile.probs:
        assert p.tolist() == [1.0]


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
    report = finite.verify_delta(game.prepare(inst), fg, profile)
    assert report.max_gain <= 1e-9
    assert all(g >= -1e-9 for g in report.gains)


def test_verify_delta_counterexample_gain(counter_game):
    inst, fg = counter_game
    profile = finite.mne_two_player(fg)
    report = finite.verify_delta(game.prepare(inst), fg, profile)
    assert report.gains[0] == pytest.approx(12.5, abs=1e-9)
    assert report.deviation_vectors[0].tolist() == [5, 0]


@pytest.mark.parametrize("M", [10, 20, 40])
def test_counterexample_gain_grows_quadratically(M):
    inst = instgen.builtin("counterexample", M=M)
    fg = finite.restrict(inst, solved_cycle(inst, [[0.0, 1.0], [0.0, 1.0]]))
    profile = finite.mne_two_player(fg)
    report = finite.verify_delta(game.prepare(inst), fg, profile)
    assert report.gains[0] >= M * M / 8.0 - 1e-9


def test_verify_delta_pne_fixed_point():
    inst = instgen.builtin("counterexample", M=10)
    fg = finite.restrict(inst, solved_cycle(inst, None))
    profile, _ = finite.solve_equilibrium(fg)
    report = finite.verify_delta(game.prepare(inst), fg, profile)
    assert report.max_gain <= 1e-9


def test_mixed_profile_validation():
    with pytest.raises(ValueError):
        finite.MixedProfile(probs=(np.array([0.5, 0.4]),))
    with pytest.raises(ValueError):
        finite.MixedProfile(probs=(np.array([-0.1, 1.1]),))
    ok = finite.MixedProfile(probs=(np.array([0.25, 0.75]),))
    assert ok.probs[0].sum() == 1.0


def reference_mne_two_player(fg, atol=finite.EQ_TOLERANCE):
    """Plain support enumeration with no pruning, solving and checking both
    sides of every pair in the (total size, row size, lexicographic) order."""
    A = fg.costs[..., 0]
    B = fg.costs[..., 1]
    m, n = A.shape
    for total in range(2, m + n + 1):
        for a in range(max(1, total - n), min(m, total - 1) + 1):
            for I in itertools.combinations(range(m), a):
                for J in itertools.combinations(range(n), total - a):
                    solved_q = finite._solve_indifference(A, I, J)
                    if solved_q is None:
                        continue
                    q_supp, vx = solved_q
                    solved_p = finite._solve_indifference(B.T, J, I)
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
                    if finite._valid_side(A, q, I, vx, atol) and finite._valid_side(
                        B.T, p, J, vy, atol
                    ):
                        return p, q
    raise AssertionError("reference enumeration found no equilibrium")


def bimatrix(costs):
    m, n = costs.shape[:2]
    strategies = tuple(tuple(np.array([s]) for s in range(size)) for size in (m, n))
    return finite.FiniteGame(strategies=strategies, costs=costs)


def assert_equilibrium(fg, profile, atol=finite.EQ_TOLERANCE):
    # independent of the solver: every supported pure strategy costs within
    # 2 atol of the mix's expected cost, and none is cheaper by more than that
    tol = 2.0 * atol + 1e-12 * (1.0 + np.abs(fg.costs).max())
    for i in range(2):
        costs_i = finite.pure_strategy_costs(fg, i, profile)
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


def restricted_cycles(seed, k, n, draws):
    """Restricted games of the seeded draws whose integer iteration cycles."""
    rng = np.random.default_rng(seed)
    for _ in range(draws):
        inst = coupled_game(rng, k, n)
        start = [rng.integers(-5, 6, size=n).astype(float) for _ in range(k)]
        trace = dynamics.run_br(game.prepare(inst), start=start, max_iters=200)
        if trace.outcome == dynamics.OUTCOME_CYCLE:
            yield finite.restrict(inst, dynamics.cycle_sets(trace))


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
        scale = max(1.0, float(np.abs(fg.costs).max()))
        for i in range(fg.k):
            assert not D[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]].any()
        for s in np.ndindex(*fg.sizes):
            for i in range(fg.k):
                row = offsets[i] + s[i]
                total = sum(D[row, offsets[j] + s[j]] for j in range(fg.k))
                assert abs(total - fg.costs[s + (i,)]) <= 1e-12 * scale


def test_mne_k_player_solves_every_mixed_only_cycle(k_player_cycles):
    mixed = [fg for fg in k_player_cycles if not finite.pne_search(fg)]
    assert {(fg.k, len(fg.strategies[0][0])) for fg in mixed} == {(3, 1), (3, 2), (4, 1)}
    assert max(max(fg.sizes) for fg in mixed) >= 8
    for fg in mixed:
        profile, eps = finite.mne_k_player(fg)
        assert eps <= 1e-9, fg.sizes
        assert float(finite.regret(fg, profile).max()) == eps


def test_mne_k_player_never_returns_a_false_equilibrium_off_polymatrix():
    # a random tensor is not polymatrix: Lemke solves the game its slices
    # define, and the full-tensor check must catch every miss
    rng = np.random.default_rng(11)
    raised = 0
    for shape in [(2, 2, 2)] * 6 + [(3, 2, 2)] * 6:
        costs = rng.standard_normal(shape + (3,))
        fg = finite.FiniteGame(
            strategies=tuple(tuple(np.array([s]) for s in range(m)) for m in shape), costs=costs
        )
        if finite.pne_search(fg):
            continue
        try:
            profile, eps = finite.mne_k_player(fg)
        except NoEquilibriumFound:
            raised += 1
            continue
        assert eps <= finite.EQ_TOLERANCE * max(1.0, np.abs(costs).max())
        assert float(finite.regret(fg, profile).max()) == eps
    assert raised > 0


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
