import copy
import dataclasses

import numpy as np
import pytest

from _corpus import instance_corpus
from icqs import bounds, dynamics, game, instgen, iqp, linalg
from icqs.errors import DimensionMismatch, NotPositiveDefinite, OracleBudgetExceeded, ProximityViolation


def test_make_instance_validates_pd_and_blocks():
    good = instgen.builtin("cycling")
    assert good.k == 2 and good.dims == (1, 1)
    with pytest.raises(NotPositiveDefinite):
        game.make_instance(
            [
                game.PlayerProblem(Q=np.array([[-1.0]]), C={1: np.zeros((1, 1))}, d=np.zeros(1)),
                game.PlayerProblem(Q=np.array([[1.0]]), C={0: np.zeros((1, 1))}, d=np.zeros(1)),
            ]
        )
    with pytest.raises(DimensionMismatch):
        game.make_instance(
            [
                game.PlayerProblem(Q=np.eye(2), C={1: np.zeros((1, 1))}, d=np.zeros(2)),
                game.PlayerProblem(Q=np.eye(1), C={0: np.zeros((1, 2))}, d=np.zeros(1)),
            ]
        )


def test_replacing_a_q_with_a_non_pd_one_raises_at_once():
    # the instance's Cholesky factor is derived on construction, so a copy
    # with a non-PD or asymmetric Q fails when it is built, not later in a solve
    inst = instgen.builtin("cycling")
    bad = dataclasses.replace(inst.players[0], Q=np.array([[-1.0]]))
    with pytest.raises(NotPositiveDefinite):
        dataclasses.replace(inst, players=(bad, inst.players[1]))
    wide = game.make_instance(
        [
            game.PlayerProblem(Q=np.eye(2), C={1: np.zeros((2, 1))}, d=np.zeros(2)),
            game.PlayerProblem(Q=np.eye(1), C={0: np.zeros((1, 2))}, d=np.zeros(1)),
        ]
    )
    asymmetric = dataclasses.replace(wide.players[0], Q=np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch, match=r"^Q\[0\] must be symmetric"):
        dataclasses.replace(wide, players=(asymmetric, wide.players[1]))


def test_replacing_a_q_rederives_the_instance_data():
    inst = instgen.builtin("cycling")
    steeper = dataclasses.replace(inst.players[0], Q=np.array([[4.0]]))
    rebuilt = dataclasses.replace(inst, players=(steeper, inst.players[1]))
    assert rebuilt.factors[0].Q is steeper.Q and rebuilt.factors[0].lambda_max == 4.0
    assert rebuilt.factors[1].Q is inst.players[1].Q
    assert rebuilt.report == game.classify(rebuilt)
    assert rebuilt.report.sigma_max[0] == pytest.approx(0.5 * inst.report.sigma_max[0])
    assert [g.factors for g in rebuilt.groups] == [rebuilt.factors]
    assert rebuilt.qinv_d_norm != inst.qinv_d_norm


def test_instances_and_generator_draws_factor_each_q_once(monkeypatch):
    # building an instance runs one Cholesky factorization, one factor and
    # one classification per player and instance, and the classification
    # runs no Cholesky; a generator draw classifies nothing a second time
    calls = {"cholesky": 0, "factorize": 0, "make_instance": 0, "classify": 0}
    cholesky, factorize, make_instance, classify = (
        linalg.cholesky, iqp.factorize, game.make_instance, game.classify
    )

    def counting_cholesky(*args, **kwargs):
        calls["cholesky"] += 1
        return cholesky(*args, **kwargs)

    def counting_factorize(*args, **kwargs):
        calls["factorize"] += 1
        return factorize(*args, **kwargs)

    def counting_make_instance(*args, **kwargs):
        calls["make_instance"] += 1
        return make_instance(*args, **kwargs)

    def counting_classify(inst):
        before = calls["cholesky"]
        report = classify(inst)
        assert calls["cholesky"] == before
        calls["classify"] += 1
        return report

    monkeypatch.setattr(linalg, "cholesky", counting_cholesky)
    monkeypatch.setattr(iqp, "factorize", counting_factorize)
    monkeypatch.setattr(game, "make_instance", counting_make_instance)
    monkeypatch.setattr(game, "classify", counting_classify)
    inst = instgen.builtin("counterexample", M=10)
    assert calls == {"cholesky": inst.k, "factorize": inst.k, "make_instance": 1, "classify": 1}
    for generate, spec in (
        (instgen.gen_pricing, instgen.PricingSpec(n_players=3, seed=21)),
        (instgen.gen_negative, instgen.NegativeSpec(n_players=3, vars_per_player=2, seed=1)),
    ):
        calls.update(cholesky=0, factorize=0, make_instance=0, classify=0)
        inst = generate(spec)
        assert calls["classify"] == calls["make_instance"] >= 1
        assert calls["cholesky"] == calls["factorize"] == inst.k * calls["make_instance"]
    calls.update(cholesky=0, factorize=0, make_instance=0, classify=0)
    # the radii and the bounds read the instance's factors
    dynamics.divergence_radius(inst)
    bounds.delta_a_posteriori(inst, 0, 1.0)
    assert calls == {"cholesky": 0, "factorize": 0, "make_instance": 0, "classify": 0}


def test_interaction_matrix_scalars():
    assert game.interaction_matrix(instgen.builtin("example1"), 0)[0, 0] == pytest.approx(-2.0)
    assert game.interaction_matrix(instgen.builtin("cycling"), 0)[0, 0] == pytest.approx(-0.1)


def test_interaction_matrix_zero_coupling():
    inst = game.make_instance(
        [
            game.PlayerProblem(Q=2 * np.eye(2), C={1: np.zeros((2, 3))}, d=np.zeros(2)),
            game.PlayerProblem(Q=np.eye(3), C={0: np.zeros((3, 2))}, d=np.zeros(3)),
        ]
    )
    assert np.allclose(game.interaction_matrix(inst, 0), 0.0)


def test_classify_the_three_builtins():
    rep = game.classify(instgen.builtin("cycling"))
    assert rep.classification is game.Adequacy.POSITIVE
    assert rep.rho == pytest.approx(0.9)

    rep = game.classify(instgen.builtin("example1"))
    assert rep.classification is game.Adequacy.NEGATIVE
    assert rep.rho == pytest.approx(1.0)

    rep = game.classify(instgen.builtin("counterexample", M=10))
    assert rep.classification is game.Adequacy.NEITHER
    assert rep.rho is None
    assert rep.sigma_max[0] == pytest.approx(1.0)  # R_1 = -I


def test_classify_scale_consistency():
    # shrinking every coupling block can only shrink interaction sigmas
    rng = np.random.default_rng(12)
    for seed in range(10):
        inst = instgen.gen_random(instgen.RandomSpec(n_players=2, vars_per_player=3, seed=seed))
        base = game.classify(inst)
        t = rng.uniform(0.05, 0.95)
        scaled = game.make_instance(
            [
                game.PlayerProblem(Q=p.Q, C={j: t * B for j, B in p.C.items()}, d=p.d)
                for p in inst.players
            ]
        )
        rep = game.classify(scaled)
        assert rep.classification is game.Adequacy.POSITIVE
        for i in range(inst.k):
            assert rep.sigma_max[i] <= base.sigma_max[i] + 1e-12


def test_objective_known_cost_table_entries():
    cyc = instgen.builtin("cycling")
    assert game.objective(cyc, 0, [1.0], [[1.0]]) == pytest.approx(-0.1)

    cg = instgen.builtin("counterexample", M=10)
    assert game.objective(cg, 0, [10.0, 0.0], [[0.0, 1.0]]) == pytest.approx(50.0)
    assert game.objective(cg, 0, [0.0, 0.0], [[7.0, -3.0]]) == 0.0


def test_objective_dimension_mismatch():
    cyc = instgen.builtin("cycling")
    with pytest.raises(DimensionMismatch):
        game.objective(cyc, 0, [1.0, 2.0], [[1.0]])
    with pytest.raises(DimensionMismatch):
        game.objective(cyc, 0, [1.0], [[1.0, 2.0]])


def test_objective_rejects_non_finite_opponents():
    cyc = instgen.builtin("cycling")
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            game.objective(cyc, 0, [1.0], [[bad]])


def reference_objective(inst, i, own, others):
    # game.objective before it was trimmed: the checked concatenation, the
    # validated linear term and the value of the validated quadratic
    x = np.asarray(own, dtype=np.float64).ravel()
    y = np.concatenate([np.asarray(v, dtype=np.float64).ravel() for v in others])
    d = linalg.as_vector(inst.C_cat[i] @ y + inst.players[i].d, "d")
    return iqp.Quadratic(inst.players[i].Q, d).value(x)


def test_objective_is_bitwise_the_reference_expression():
    # integer profiles as best-response runs give them, and halves and
    # thirds as mixed means do, on the corpus and negatively adequate games
    rng = np.random.default_rng(31)
    insts = [inst for _, inst in instance_corpus()]
    insts += [
        instgen.gen_negative(instgen.NegativeSpec(n_players=k, vars_per_player=n, seed=40 + 3 * k + n))
        for k in (2, 3, 4) for n in (1, 2, 3)
    ]
    checked = 0
    for inst in insts:
        for scale in (1.0, 2.0, 3.0):
            profile = [rng.integers(-60, 61, size=n) / scale for n in inst.dims]
            if scale == 1.0:
                profile = [v.astype(np.int64) for v in profile]
            for i in range(inst.k):
                others = profile[:i] + profile[i + 1:]
                got = game.objective(inst, i, profile[i], others)
                assert type(got) is float
                assert got.hex() == reference_objective(inst, i, profile[i], others).hex()
                checked += 1
    assert checked >= 500


def test_objective_raises_each_error():
    inst = instgen.builtin("counterexample", M=10)  # two players of 2 variables
    own, other = [1.0, 2.0], [3.0, -1.0]
    assert game.objective(inst, 1, own, [other]) == reference_objective(inst, 1, own, [other])
    for bad_own, bad_others in (
        ([1.0], [other]),  # own vector of the wrong length
        (own, []),  # too few opponents
        (own, [other, other]),  # too many opponents
        (own, [[3.0]]),  # an opponent vector of the wrong length
    ):
        with pytest.raises(DimensionMismatch):
            game.objective(inst, 1, bad_own, bad_others)
    with np.errstate(over="ignore", invalid="ignore"):
        for bad in ([np.nan, 0.0], [np.inf, 0.0], [1e308, 1e308]):
            with pytest.raises(ValueError, match="linear term"):
                game.objective(inst, 1, own, [bad])


def test_coupling_concat_is_derived_from_players():
    cg = instgen.builtin("counterexample", M=10)
    for i in range(cg.k):
        expected = np.hstack([cg.players[i].C[j] for j in cg.opponents(i)])
        assert np.array_equal(cg.C_cat[i], expected)
    with pytest.raises(TypeError):
        game.IcqsInstance(players=cg.players, C_cat=())
    doubled = tuple(
        game.PlayerProblem(Q=p.Q, C={j: 2.0 * B for j, B in p.C.items()}, d=p.d)
        for p in cg.players
    )
    replaced = dataclasses.replace(cg, players=doubled)
    for i in range(cg.k):
        assert np.array_equal(replaced.C_cat[i], 2.0 * cg.C_cat[i])


def test_best_response_examples():
    ex1 = instgen.builtin("example1")
    assert game.best_response(ex1, 0, [[5.0]]).tolist() == [10]

    cyc = instgen.builtin("cycling")
    assert game.best_response(cyc, 1, [[0.0]]).tolist() == [1]

    cg = instgen.builtin("counterexample", M=10)
    assert game.best_response(cg, 1, [[0.0, 1.0]]).tolist() == [10, 0]


def test_best_response_against_mixed_mean_matches_pure_concentration():
    inst = instgen.builtin("counterexample", M=10)
    pure = game.best_response(inst, 1, [[10.0, 0.0]])
    concentrated_mean = 1.0 * np.array([10.0, 0.0])
    assert np.array_equal(game.best_response(inst, 1, [concentrated_mean]), pure)


def test_best_response_beats_box_oracle():
    # the response's cost is minimal over every integer point in a prox box
    rng = np.random.default_rng(13)
    for seed in range(10):
        inst = instgen.gen_random(instgen.RandomSpec(n_players=2, vars_per_player=3, seed=50 + seed))
        others = [rng.integers(-5, 6, size=3).astype(float)]
        v = game.best_response(inst, 0, others)
        q = iqp.Quadratic(inst.players[0].Q, inst.C_cat[0] @ others[0] + inst.players[0].d)
        _, oracle_value = iqp.brute_force_min(q)
        assert q.value(v) == pytest.approx(oracle_value, abs=1e-9)


def test_instance_file_round_trip(tmp_path):
    inst = instgen.gen_pricing(instgen.PricingSpec(n_players=3, seed=21))
    path = tmp_path / "inst.json"
    game.save_instance(inst, path)
    loaded = game.load_instance(path)
    for p, q in zip(inst.players, loaded.players):
        assert np.array_equal(p.Q, q.Q)
        assert np.array_equal(p.d, q.d)
        for j in p.C:
            assert np.array_equal(p.C[j], q.C[j])
    assert loaded.meta == inst.meta
    # save -> load -> save is byte-stable
    path2 = tmp_path / "inst2.json"
    game.save_instance(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_round_trip_is_value_exact_for_decimal_literals(tmp_path):
    # 12-significant-digit decimals survive load -> save -> load untouched
    doc = {
        "players": [
            {"Q": [[1.23456789012]], "C": {"1": [[-0.000123456789012]]}, "d": [99.9999999999]},
            {"Q": [[2.0]], "C": {"0": [[0.1]]}, "d": [-1.1]},
        ],
        "meta": {"note": "literal exactness"},
    }
    inst = game.instance_from_dict(doc)
    assert inst.players[0].Q[0, 0] == 1.23456789012
    path = tmp_path / "literal.json"
    game.save_instance(inst, path)
    again = game.load_instance(path)
    assert again.players[0].Q[0, 0] == 1.23456789012
    assert again.players[0].C[1][0, 0] == -0.000123456789012
    assert again.players[0].d[0] == 99.9999999999


def test_wide_interaction_matrix_shape_multiplayer():
    inst = instgen.gen_random(instgen.RandomSpec(n_players=3, vars_per_player=4, seed=2))
    R = game.interaction_matrix(inst, 1)
    assert R.shape == (4, 8)
    assert len(linalg.singular_values(R)) == 4


def reference_quadratic(inst, i, others):
    """Player i's subproblem built from the instance's raw blocks, validated."""
    C = np.hstack([inst.players[i].C[j] for j in inst.opponents(i)])
    y = np.concatenate([np.asarray(o, dtype=np.float64) for o in others])
    return iqp.Quadratic(Q=inst.players[i].Q, d=C @ y + inst.players[i].d)


def test_prepared_best_response_matches_reference_and_oracle():
    # half-integer opponent vectors, as mixed means produce them; the
    # instance's prepared factors must reproduce the kernel on a freshly
    # factored quadratic bit for bit, and
    # the sweep kernel must give every player of a joint half-integer
    # profile that same response
    rng = np.random.default_rng(31)
    joint_rng = np.random.default_rng(37)
    cases = instance_corpus()
    cases += [(name, instgen.builtin(name)) for name in ("cycling", "example1")]
    cases.append(("counterexample", instgen.builtin("counterexample", M=10)))
    draws = oracle_checked = split_ties = 0
    for name, inst in cases:
        for _ in range(2):
            profile = [joint_rng.integers(-12, 13, size=n) / 2.0 for n in inst.dims]
            sweep = game.best_responses(inst, profile)
            for i in range(inst.k):
                others = [profile[j] for j in inst.opponents(i)]
                ref, _ = iqp.integer_min(reference_quadratic(inst, i, others))
                assert sweep[i].dtype == ref.dtype and np.array_equal(sweep[i], ref), (name, i, profile)
        for i in range(inst.k):
            for _ in range(2):
                others = [rng.integers(-12, 13, size=inst.dims[j]) / 2.0 for j in inst.opponents(i)]
                v = game.best_response(inst, i, others)
                q = reference_quadratic(inst, i, others)
                ref, _ = iqp.integer_min(q)
                assert np.array_equal(v, ref), (name, i, others)
                assert game.objective(inst, i, v, others) == q.value(v)
                draws += 1
                try:
                    oracle, _ = iqp.brute_force_min(q)
                except OracleBudgetExceeded:
                    continue  # ill-conditioned 5- and 10-variable blocks
                oracle_checked += 1
                if not np.array_equal(v, oracle):
                    # co-optimal in f, but the kernel ranks ties by the energy
                    # 0.5||L'(x - u)||^2, whose last bits can split them
                    assert q.value(v) == q.value(oracle), (name, i, others)
                    split_ties += 1
    assert oracle_checked >= 0.9 * draws
    assert split_ties <= 1  # random-4p-5v-4, player 1

    # an exact tie: u = 1/2 makes 0 and 1 co-optimal; the smaller one wins
    tied = game.make_instance(
        [
            game.PlayerProblem(Q=np.eye(1), C={1: np.eye(1)}, d=np.zeros(1)),
            game.PlayerProblem(Q=np.eye(1), C={0: np.eye(1)}, d=np.zeros(1)),
        ]
    )
    inst = tied
    for i in (0, 1):
        q = reference_quadratic(tied, i, [[-0.5]])
        assert iqp.continuous_min(q).tolist() == [0.5]
        v = game.best_response(inst, i, [[-0.5]])
        assert v.tolist() == [0] == iqp.brute_force_min(q)[0].tolist()


def test_sweep_kernel_raises_proximity_violation_for_the_broken_player(monkeypatch):
    # player 1 of a (3, 5, 5) instance shares its group with player 2; with
    # its proven radius or gap shrunk to zero, the sweep must raise for it,
    # as the one-player call does, and the other players stay unaffected
    inst = dict(instance_corpus())["pricing-3p-0"]
    profile = [np.full(n, 0.5) for n in inst.dims]
    assert len(game.best_responses(inst, profile)) == 3
    others = [[profile[j] for j in inst.opponents(i)] for i in range(inst.k)]
    factorize = iqp.factorize
    for bound in ("radius", "gap"):

        def breaking_factorize(Q, L, _bound=bound):
            factor = factorize(Q, L)
            if Q is inst.players[1].Q:
                factor = copy.copy(factor)
                # the postcondition reads the limit, taken from the bound once per factor
                object.__setattr__(factor, _bound, 0.0)
                object.__setattr__(factor, f"{_bound}_limit", 0.0)
            return factor

        # the instance's factors and sweep stacks are derived when it is
        # built, so the broken factor goes in through a rebuilt copy
        with monkeypatch.context() as m:
            m.setattr(iqp, "factorize", breaking_factorize)
            bad = dataclasses.replace(inst)
        assert getattr(bad.factors[1], bound) == 0.0
        assert bad.groups[1].factors[0] is bad.factors[1]
        with pytest.raises(ProximityViolation, match="^player 1: ") as one:
            game.best_response(bad, 1, others[1])
        with pytest.raises(ProximityViolation) as sweep:
            game.best_responses(bad, profile)
        assert str(sweep.value) == str(one.value)
        for i in (0, 2):
            game.best_response(bad, i, others[i])


def test_continuous_mins_is_bitwise_the_former_expression():
    # the negated linear terms, formed from the negated couplings and linear
    # terms in one (m, n, 1) array, give bitwise the former gather, matvec,
    # sum and negation of 2-D arrays
    rng = np.random.default_rng(71)
    for k, n in ((2, 1), (3, 2), (5, 5), (50, 5), (4, 20)):
        inst = instgen.gen_random(instgen.RandomSpec(k, n, seed=1))
        for g in inst.groups:
            C = np.stack([inst.C_cat[i] for i in g.players])
            d = np.stack([inst.players[i].d for i in g.players])
            for scale in (1e-3, 1.0, 1e9):
                z = rng.integers(-50, 51, size=sum(inst.dims)) * scale
                D = np.matmul(C, z[g.gather[:, :, 0]][:, :, None])[:, :, 0] + d
                former = linalg.gesv(g.G, linalg.gesv(g.L, -D[:, :, None]))[:, :, 0]
                assert g.continuous_mins(z).tobytes() == former.tobytes(), (k, n, scale)
