import numpy as np
import pytest

from icqs import dynamics, game, instgen
from icqs.errors import InvalidM


def test_splitmix64_reference_stream():
    # first outputs for seed 0 (golden-ratio increment, 64-bit mixing)
    rng = instgen.SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_uniform_and_randint_ranges():
    rng = instgen.SplitMix64(123)
    for _ in range(200):
        u = rng.uniform(-2.0, 3.0)
        assert -2.0 <= u < 3.0
    rng = instgen.SplitMix64(123)
    values = {rng.randint(3, 6) for _ in range(100)}
    assert values == {3, 4, 5, 6}


def test_pricing_decoupled_monopoly_prices():
    spec = instgen.PricingSpec(
        n_players=2,
        seed=5,
        products_range=(3, 3),
        a_range=(10.0, 10.0),
        b_range=(1.0, 1.0),
        c_range=(0.0, 0.0),
        cross_scale=0.0,
    )
    inst = instgen.gen_pricing(spec)
    for p in inst.players:
        assert np.allclose(p.Q, 2.0 * np.eye(3))
        assert np.allclose(p.d, -10.0)
        for block in p.C.values():
            assert np.allclose(block, 0.0)
    assert game.classify(inst).classification is game.Adequacy.POSITIVE
    trace = dynamics.run_br(inst)
    assert trace.outcome == dynamics.OUTCOME_FIXED_POINT
    for x in inst.split(trace.profiles[-1]):
        assert x.tolist() == [5, 5, 5]  # a_j / (2 b_j)


def test_pricing_seed_determinism(tmp_path):
    spec = instgen.PricingSpec(n_players=3, seed=77)
    a = instgen.gen_pricing(spec)
    b = instgen.gen_pricing(spec)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    game.save_instance(a, pa)
    game.save_instance(b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_pricing_batch_all_positively_adequate():
    for seed in range(100):
        inst = instgen.gen_pricing(instgen.PricingSpec(n_players=2, seed=seed))
        assert game.classify(inst).classification is game.Adequacy.POSITIVE


def test_pricing_product_counts_in_range():
    for seed in range(10):
        inst = instgen.gen_pricing(instgen.PricingSpec(n_players=4, seed=seed))
        assert inst.k == 4
        assert all(3 <= n <= 6 for n in inst.dims)


def test_random_zero_coupling_edge():
    spec = instgen.RandomSpec(n_players=2, vars_per_player=3, seed=9, c_entry_range=(0, 0))
    inst = instgen.gen_random(spec)
    # sigma~ = 0 uses the unit scale: Q = PP' + I, still positively adequate
    assert game.classify(inst).classification is game.Adequacy.POSITIVE
    for p in inst.players:
        for block in p.C.values():
            assert np.allclose(block, 0.0)


def test_random_seed_determinism(tmp_path):
    spec = instgen.RandomSpec(n_players=2, vars_per_player=5, seed=123)
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    game.save_instance(instgen.gen_random(spec), pa)
    game.save_instance(instgen.gen_random(spec), pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_random_batch_contract_three_players():
    for seed in range(20):
        inst = instgen.gen_random(instgen.RandomSpec(n_players=3, vars_per_player=10, seed=seed))
        assert inst.dims == (10, 10, 10)
        assert game.classify(inst).classification is game.Adequacy.POSITIVE


def test_random_integer_entries():
    inst = instgen.gen_random(instgen.RandomSpec(n_players=2, vars_per_player=4, seed=3))
    for p in inst.players:
        assert np.array_equal(p.d, np.rint(p.d))
        for block in p.C.values():
            assert np.array_equal(block, np.rint(block))
        assert np.array_equal(p.Q, np.rint(p.Q))  # scaled Gram of integers plus I


def test_negative_family_classification_and_sigmas():
    for seed in range(10):
        spec = instgen.NegativeSpec(n_players=2, vars_per_player=3, seed=seed)
        inst = instgen.gen_negative(spec)
        rep = game.classify(inst)
        assert rep.classification is game.Adequacy.NEGATIVE
        assert min(rep.sigma_min) >= spec.sigma_range[0] - 1e-6
        assert max(rep.sigma_max) <= spec.sigma_range[1] + 1e-6


def test_builtin_coefficients():
    ex1 = instgen.builtin("example1")
    assert ex1.players[0].Q[0, 0] == 2.0
    assert ex1.players[0].C[1][0, 0] == -4.0
    assert ex1.players[0].d[0] == 0.0

    cyc = instgen.builtin("cycling")
    assert cyc.players[0].C[1][0, 0] == -0.2
    assert cyc.players[0].d[0] == -0.9
    assert cyc.players[1].C[0][0, 0] == 0.2
    assert cyc.players[1].d[0] == -1.1

    cg = instgen.builtin("counterexample", M=10)
    assert np.array_equal(cg.players[0].Q, np.eye(2))
    assert np.array_equal(cg.players[0].C[1], -np.eye(2))
    assert np.allclose(cg.players[1].C[0], [[0.1, -9.0], [-0.1, 0.0]])
    assert cg.players[1].d.tolist() == [-1.0, 0.0]


def test_builtin_rejects_bad_M_and_name():
    with pytest.raises(InvalidM):
        instgen.builtin("counterexample", M=7)
    with pytest.raises(InvalidM):
        instgen.builtin("counterexample", M=0)
    with pytest.raises(InvalidM, match="float range"):
        instgen.builtin("counterexample", M=10**400)  # 1.0 / M would overflow
    big = instgen.builtin("counterexample", M=10**308)
    assert big.players[1].C[0][0, 1] == -(1e308 - 1.0)
    with pytest.raises(ValueError):
        instgen.builtin("no-such-instance")
