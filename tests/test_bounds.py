import importlib.util
import math
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from _corpus import instance_corpus
from icqs import bounds, dynamics, finite, game, instgen, iqp
from icqs.errors import BoundOverflow

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def cycle_of(inst, start):
    return dynamics.cycle_sets(dynamics.run_br(inst, start=start))


@pytest.fixture(scope="module")
def cycling_setup():
    inst = instgen.builtin("cycling")
    return inst, cycle_of(inst, [[0.0], [0.0]])


def test_cycle_diameter(cycling_setup):
    _, sets = cycling_setup
    assert bounds.cycle_diameter(sets, 0) == pytest.approx(1.0)
    inst = instgen.builtin("counterexample", M=10)
    sets10 = cycle_of(inst, [[0.0, 1.0], [0.0, 1.0]])
    assert bounds.cycle_diameter(sets10, 0) == pytest.approx(math.sqrt(101.0))
    singleton = cycle_of(inst, None)
    assert bounds.cycle_diameter(singleton, 0) == 0.0


def pairwise_diameter(strategies):
    # the reference: one row against the rows after it, on float64 vectors
    if len(strategies) == 1:
        return 0.0
    pts = np.stack([np.asarray(s, dtype=np.float64) for s in strategies])
    best = 0.0
    for a in range(len(pts) - 1):
        d = np.linalg.norm(pts[a + 1 :] - pts[a], axis=1).max()
        best = max(best, float(d))
    return best


def test_cycle_diameter_of_a_strategy_matrix_is_the_pairwise_loop_bitwise():
    rng = np.random.default_rng(23)
    for m in range(1, 13):
        for n in (1, 2, 3, 5, 8):
            for scale in (3, 1000, 10**9):
                S = rng.integers(-scale, scale + 1, size=(m, n))
                sets = dynamics.CycleSets(strategies=(S, S[:1]))
                got = bounds.cycle_diameter(sets, 0)
                assert type(got) is float and got == pairwise_diameter(list(S)), (m, n, scale)
                assert bounds.cycle_diameter(sets, 1) == 0.0


def test_delta_a_posteriori_values(cycling_setup):
    inst, _ = cycling_setup
    # lambda_1 = 2, the radius of a 1-D Q=2 block is 1/2, diameter 1
    assert bounds.delta_a_posteriori(inst, 0, 1.0) == pytest.approx(2.0 * 1.5**2)
    assert bounds.delta_a_posteriori(inst, 0, 0.0) == pytest.approx(2.0 * 0.5**2)
    # Q = I_2: the radius is sqrt(2)/2, where the paper's formula gives sqrt(2)
    cg = instgen.builtin("counterexample", M=10)
    val = bounds.delta_a_posteriori(cg, 0, math.sqrt(101.0))
    assert val == pytest.approx((math.sqrt(0.5) + math.sqrt(101.0)) ** 2)


def test_delta_a_posteriori_monotone_in_diameter(cycling_setup):
    inst, _ = cycling_setup
    values = [bounds.delta_a_posteriori(inst, 0, L) for L in np.linspace(0.0, 5.0, 20)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_delta_a_posteriori_overflow_is_a_typed_error():
    # lambda_1 = 1e300 times (1/2 + L)^2 overflows at L = 1e5, a finite
    # diameter; an infinite diameter stays a plain inf
    players = [
        game.PlayerProblem(Q=np.array([[1e300]]), C={1: np.zeros((1, 1))}, d=np.zeros(1)),
        game.PlayerProblem(Q=np.array([[1.0]]), C={0: np.zeros((1, 1))}, d=np.zeros(1)),
    ]
    inst = game.make_instance(players)
    with pytest.raises(BoundOverflow, match="^player 0: "):
        bounds.delta_a_posteriori(inst, 0, 1e5)
    assert bounds.delta_a_posteriori(inst, 0, math.inf) == math.inf
    assert bounds.delta_a_posteriori(inst, 0, 0.0) == pytest.approx(1e300 / 4.0)
    assert bounds.delta_a_posteriori(inst, 1, 1e5) == pytest.approx((0.5 + 1e5) ** 2)


def test_an_overflowing_a_priori_bound_is_raised_where_it_is_read():
    # lambda_1 = 1e308 and the L bound 2 prox = 1 at sigma = 0: player 0's
    # a-priori deviation bound 1e308 (1/2 + 1)^2 overflows, player 1's (at
    # lambda_1 = 1e300) does not.  Building the instance raises nothing; a
    # read of the bounds raises, an a-posteriori overflow first
    inst = game.make_instance([
        game.PlayerProblem(Q=np.array([[1e308]]), C={1: np.zeros((1, 1))}, d=np.zeros(1)),
        game.PlayerProblem(Q=np.array([[1e300]]), C={0: np.zeros((1, 1))}, d=np.zeros(1)),
    ])
    assert inst.l_bound == pytest.approx([1.0, 1.0])
    assert inst.delta_a_priori[0] == math.inf
    assert inst.delta_a_priori[1] == pytest.approx(2.25e300)
    with pytest.raises(BoundOverflow, match="^player 0: .* L = 1$"):
        bounds.delta_a_priori(inst)
    still = np.zeros((1, 1), dtype=np.int64)
    with pytest.raises(BoundOverflow, match="^player 0: .* L = 1$"):
        bounds.guarantee_pack(inst, dynamics.CycleSets(strategies=(still, still)))
    far = np.array([[0], [100_000]], dtype=np.int64)
    with pytest.raises(BoundOverflow, match="^player 1: .* L = 100000$"):
        bounds.guarantee_pack(inst, dynamics.CycleSets(strategies=(still, far)))


def test_an_infinite_radius_gives_infinite_l_bounds():
    assert bounds.l_closure([0.5, 0.5], [math.inf, 1.0]) == [math.inf, math.inf]
    assert bounds.l_closure([0.5, 0.5], [1e308, 1e308]) == [math.inf, math.inf]


def test_l_bound_two_player_closed_form(cycling_setup):
    inst, _ = cycling_setup
    lb = bounds.l_bound_theoretical(inst)
    expected = (2 * 0.5 * 0.1 + 2 * 0.5) / (1 - 0.01)
    assert lb[0] == pytest.approx(expected)
    assert lb[0] == pytest.approx(1.1111, abs=5e-5)
    assert lb[1] == pytest.approx(expected)  # symmetric sigmas and proxes


def test_l_bound_zero_coupling_and_negative():
    inst = game.make_instance(
        [
            game.PlayerProblem(Q=2 * np.eye(1), C={1: np.zeros((1, 1))}, d=np.zeros(1)),
            game.PlayerProblem(Q=2 * np.eye(1), C={0: np.zeros((1, 1))}, d=np.zeros(1)),
        ]
    )
    lb = bounds.l_bound_theoretical(inst)
    assert lb == pytest.approx([1.0, 1.0])  # sigma = 0 leaves 2 * prox
    assert bounds.l_bound_theoretical(instgen.builtin("example1")) is None


@pytest.mark.parametrize(
    "sigma, prox",
    [
        pytest.param((0.3, 0.6), (0.7, 0.2), id="0.3-0.6"),
        pytest.param((0.1, 0.1), (0.25, 0.25), id="cycling"),
        pytest.param((0.0, 0.9), (1.0, 3.0), id="one-uncoupled"),
        pytest.param((0.99, 0.999), (0.5, 2.0), id="near-critical"),
        pytest.param((0.5, 0.5), (0.0, 0.0), id="no-prox"),
    ],
)
def test_l_closure_matches_the_two_player_formula(sigma, prox):
    (sx, sy), (px, py) = sigma, prox
    denom = 1 - sx * sy
    displayed = [(2 * py * sx + 2 * px) / denom, (2 * px * sy + 2 * py) / denom]
    assert bounds.l_closure(sigma, prox) == pytest.approx(displayed, rel=1e-12)


@pytest.mark.parametrize(
    "k, sigma",
    [(3, 0.5), (4, 0.4), (5, 0.3), (6, 0.2), (3, 0.7070537488407882)],
    ids=["k3", "k4", "k5", "k6", "k3-near-critical"],
)
def test_l_closure_matches_the_symmetric_closed_form(k, sigma):
    # by symmetry L = sigma sqrt(k-1) L + 2p; the last case has criterion 0.9999
    assert bounds.closure_criterion([sigma] * k) < 1
    expected = 2.0 / (1 - sigma * math.sqrt(k - 1))
    assert bounds.l_closure([sigma] * k, [1.0] * k) == pytest.approx([expected] * k, rel=1e-9)


def test_l_closure_is_infinite_when_unstable():
    # symmetric sigma with sigma * sqrt(k-1) > 1 has no finite closure
    assert bounds.closure_criterion([0.9] * 3) >= 1
    out = bounds.l_closure([0.9, 0.9, 0.9], [1.0, 1.0, 1.0])
    assert all(math.isinf(v) for v in out)


def fixed_point_oracle(sigma, prox):
    """Least fixed point of L_i = sigma_i ||L_{-i}|| + 2 prox_i, iterated from zero."""
    sigma, prox = np.asarray(sigma, dtype=float), np.asarray(prox, dtype=float)
    L = np.zeros(len(sigma))
    for _ in range(100_000):
        rest = np.sqrt(np.maximum(L @ L - L * L, 0.0))
        nxt = sigma * rest + 2.0 * prox
        if np.max(np.abs(nxt - L)) < 1e-13 * max(1.0, float(np.max(nxt))):
            return [float(v) for v in nxt]
        L = nxt
        if float(L.max()) > 1e15:
            break
    return [math.inf] * len(sigma)


def seeded_draws(count=400):
    rng = np.random.default_rng(20240)
    for _ in range(count):
        k = int(rng.integers(2, 7))
        yield rng.uniform(0.0, 1.2, k) * rng.choice([0.3, 1.0]), rng.uniform(0.01, 5.0, k)


def least_solution_in_digits(sigma, prox, digits=60):
    """The least solution of L_i = sigma_i ||L_{-i}|| + 2 prox_i, by bisection
    on N = ||L|| in ``digits``-digit decimals, from the side above it."""
    with localcontext() as ctx:
        ctx.prec = digits
        s = [Decimal(float(v)) for v in sigma]
        tp = [2 * Decimal(float(p)) for p in prox]

        def L(N):
            return [(t + v * ((1 + v * v) * N * N - t * t).sqrt()) / (1 + v * v) for v, t in zip(s, tp)]

        lo = hi = max(tp)  # at N = max 2 prox_i, sum L_i(N)^2 >= N^2
        while sum(x * x for x in L(hi)) > hi * hi:
            lo, hi = hi, 2 * hi
        for _ in range(4 * digits):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if sum(x * x for x in L(mid)) > mid * mid else (lo, mid)
        return L(hi)


def test_l_closure_never_understates_the_least_solution():
    # the root-find stops on either side of the root (unrounded, 4,109 of
    # 8,837 bounds were below it); its rounded-up result never is
    checked = 0
    for sigma, prox in seeded_draws(200):
        if bounds.closure_criterion(sigma) >= 1.0:
            continue
        got, want = bounds.l_closure(sigma, prox), least_solution_in_digits(sigma, prox)
        assert all(Decimal(g) >= w for g, w in zip(got, want)), (sigma, prox)
        assert got == pytest.approx([float(w) for w in want], rel=1e-11)
        checked += 1
    assert checked > 100
    # near criterion 1, down to 1 - sigma_x sigma_y = 1e-14, where the
    # root-find's error grows as 1 / (1 - criterion)
    for gap in (1e-6, 1e-10, 1e-14):
        sigma = (0.9, (1.0 - gap) / 0.9)
        for prox in ((0.5, 0.5), (0.7, 0.2)):
            got = bounds.l_closure(sigma, prox)
            assert all(Decimal(g) >= w for g, w in zip(got, least_solution_in_digits(sigma, prox, 80))), (gap, prox)


def test_l_closure_agrees_with_the_fixed_point_oracle():
    checked = 0
    for sigma, prox in seeded_draws():
        if bounds.closure_criterion(sigma) > 0.99:
            continue
        checked += 1
        expected = fixed_point_oracle(sigma, prox)
        got = bounds.l_closure(sigma, prox)
        assert [math.isinf(v) for v in got] == [math.isinf(v) for v in expected]
        assert got == pytest.approx(expected, rel=1e-9)
    assert checked > 100


def test_l_closure_residual_on_seeded_draws():
    finite_draws = 0
    for sigma, prox in seeded_draws():
        L = bounds.l_closure(sigma, prox)
        finite = bounds.closure_criterion(sigma) < 1
        assert all(math.isfinite(v) == finite for v in L)
        if not finite:
            continue
        finite_draws += 1
        for i in range(len(L)):
            rest = math.sqrt(sum(v * v for j, v in enumerate(L) if j != i))
            assert abs(L[i] - sigma[i] * rest - 2 * prox[i]) <= 1e-12 * L[i]
    assert finite_draws > 100


def test_delta_a_priori_values(cycling_setup):
    inst, _ = cycling_setup
    dp = bounds.delta_a_priori(inst)
    lb = bounds.l_bound_theoretical(inst)[0]
    assert dp[0] == pytest.approx(2.0 * (0.5 + lb) ** 2)
    assert dp[0] == pytest.approx(5.191, abs=5e-4)
    assert bounds.delta_a_priori(instgen.builtin("example1")) is None


def test_delta_a_priori_zero_coupling_reduces_to_three_prox():
    inst = game.make_instance(
        [
            game.PlayerProblem(Q=2 * np.eye(1), C={1: np.zeros((1, 1))}, d=np.zeros(1)),
            game.PlayerProblem(Q=2 * np.eye(1), C={0: np.zeros((1, 1))}, d=np.zeros(1)),
        ]
    )
    dp = bounds.delta_a_priori(inst)
    assert dp[0] == pytest.approx(2.0 * (3 * 0.5) ** 2)


def test_the_public_bounds_default_to_the_exact_radius(cycling_setup):
    # the public bounds take no radius: they read the factors' proven radius
    # (1/2 for a 1-D player, where the paper's formula gives 1/4), and give
    # bitwise the bounds of the run's guarantee pack
    inst, sets = cycling_setup
    pack = bounds.guarantee_pack(inst, sets)
    assert [f.radius for f in inst.factors] == pytest.approx([0.5, 0.5], rel=1e-11)
    assert bounds.delta_a_priori(inst) == list(pack.delta_a_priori)
    assert bounds.l_bound_theoretical(inst) == list(pack.l_bound)
    assert [bounds.delta_a_posteriori(inst, i, L) for i, L in enumerate(pack.l_measured)] == list(
        pack.delta_a_posteriori
    )


def cycle_cases():
    """The acceptance corpus from a far start, and pool 0 of the benchmark's
    `cycling` workload: (instance, start) pairs."""
    cases = [(inst, [np.full(n, 7.0 * (-1) ** i) for i, n in enumerate(inst.dims)]) for _, inst in instance_corpus()]
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    cases += [(inst, start) for _, inst, start in workloads.build_jobs("cycling", 0)]
    return cases


def test_every_measured_cycle_diameter_is_within_the_proven_l_bound():
    # the L bound is the least solution of L_i = sigma_i ||L_-i|| + 2 prox_i
    # at the proven radii, so no run's measured diameter may exceed it; the
    # float closure is not exactly a post-fixed point, hence the relative 1e-9
    checked = 0
    for inst, start in cycle_cases():
        if inst.report.classification is not game.Adequacy.POSITIVE:
            continue
        trace = dynamics.run_br(inst, start=start)
        pack = bounds.guarantee_pack(inst, dynamics.cycle_sets(trace))
        for measured, bound in zip(pack.l_measured, pack.l_bound):
            assert measured <= bound * (1.0 + 1e-9), (inst.meta, measured, bound)
            checked += measured > 0.0
    assert checked > 100


def test_guarantee_chain_on_solved_positively_adequate_instances():
    # gain <= a-posteriori(measured L) <= a-priori, in the certified variant
    for seed in (1, 4, 9):
        inst = instgen.gen_random(instgen.RandomSpec(n_players=2, vars_per_player=3, seed=seed))
        trace = dynamics.run_br(inst, start=[[30.0, -20.0, 10.0], [-10.0, 25.0, -30.0]])
        sets = dynamics.cycle_sets(trace)
        fg = finite.restrict(inst, sets)
        profile, _ = finite.solve_equilibrium(fg)
        delta = finite.verify_delta(inst, fg, profile)
        pack = bounds.guarantee_pack(inst, sets)
        for i in range(inst.k):
            post = pack.delta_a_posteriori[i]
            assert delta.gains[i] <= post + 1e-9
            if pack.delta_a_priori is not None:
                assert pack.l_measured[i] <= pack.l_bound[i] + 1e-9
                assert post <= pack.delta_a_priori[i] + 1e-9


def test_proven_exact_radii_are_bitwise_the_factors_radii():
    # the certificates and the reported bounds read the same floats: every
    # bound of the pack is the closure and deltas taken at `Factor.radius`
    cases = [inst for _, inst in instance_corpus()]
    cases += [instgen.builtin(name) for name in ("example1", "cycling")]
    for inst in cases:
        radii = [f.radius for f in inst.factors]
        assert [r.hex() for r in radii] == [iqp.guarantee_prox(f).hex() for f in inst.factors]
        lb = bounds.l_bound_theoretical(inst)
        if lb is None:
            continue
        assert [v.hex() for v in lb] == [v.hex() for v in bounds.l_closure(inst.report.sigma_max, radii)]
        priori = [f.lambda_max * (r + L) ** 2 for f, r, L in zip(inst.factors, radii, lb)]
        assert [v.hex() for v in bounds.delta_a_priori(inst)] == [v.hex() for v in priori]
