import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from _corpus import instance_corpus, quadratic_corpus
from icqs import dynamics, game, instgen, iqp
from icqs.errors import BoundOverflow, CentreTooLarge, DimensionMismatch, NoCycle, NonFiniteCentre, ResponseOverflow


def path_scalars(trace):
    # each player's first entry, per profile
    return [tuple(float(p[a]) for a, _ in trace.slots) for p in trace.profiles]


def test_cycling_example_period_four():
    trace = dynamics.run_br(instgen.builtin("cycling"), start=[[0.0], [0.0]])
    assert trace.outcome == dynamics.OUTCOME_CYCLE
    assert (trace.cycle_start, trace.cycle_repeat) == (0, 4)
    assert path_scalars(trace) == [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]
    sets = dynamics.cycle_sets(trace)
    assert [s[0].tolist() for s in sets.strategies[0]] == [0, 1]
    assert [s[0].tolist() for s in sets.strategies[1]] == [0, 1]


def test_example1_doubles_and_certifies_divergence():
    trace = dynamics.run_br(instgen.builtin("example1"), start=[[5.0], [5.0]], max_iters=8)
    assert trace.outcome == dynamics.OUTCOME_DIVERGENCE
    assert trace.divergence_index == 0
    assert path_scalars(trace) == [(5 * 2**t, 5 * 2**t) for t in range(9)]


def test_example1_stops_before_float_blowup():
    trace = dynamics.run_br(instgen.builtin("example1"), start=[[5.0], [5.0]])
    assert trace.outcome == dynamics.OUTCOME_DIVERGENCE
    assert trace.norms[-1] > dynamics.DIVERGENCE_NORM_CAP
    assert trace.iterations < 100


def test_counterexample_cycle_sets():
    inst = instgen.builtin("counterexample", M=10)
    trace = dynamics.run_br(inst, start=[[0.0, 1.0], [0.0, 1.0]])
    assert trace.outcome == dynamics.OUTCOME_CYCLE
    sets = dynamics.cycle_sets(trace)
    for i in (0, 1):
        assert {tuple(map(int, s)) for s in sets.strategies[i]} == {(0, 1), (10, 0)}


def test_counterexample_from_origin_finds_fixed_point():
    inst = instgen.builtin("counterexample", M=10)
    trace = dynamics.run_br(inst)
    assert trace.outcome == dynamics.OUTCOME_FIXED_POINT
    fixed = inst.split(trace.profiles[-1])
    assert fixed[0].tolist() == [1, 0] and fixed[1].tolist() == [1, 0]
    sets = dynamics.cycle_sets(trace)
    assert sets.sizes == (1, 1)


def test_termination_radius_cycling_value():
    inst = instgen.builtin("cycling")
    L = dynamics.termination_radius(inst)
    d_part = math.hypot(0.45, 0.55)
    prox_part = math.hypot(0.5, 0.5)  # the exact radius of a 1-D player is 1/2
    assert L == pytest.approx((d_part + prox_part) / 0.9, rel=1e-12)
    assert L == pytest.approx(1.575, abs=5e-4)


def test_termination_radius_decoupled():
    inst = game.make_instance(
        [
            game.PlayerProblem(Q=2 * np.eye(1), C={1: np.zeros((1, 1))}, d=np.zeros(1)),
            game.PlayerProblem(Q=2 * np.eye(1), C={0: np.zeros((1, 1))}, d=np.zeros(1)),
        ]
    )
    # rho = 1 and d = 0: the radius is just the exact prox-vector norm
    assert dynamics.termination_radius(inst) == pytest.approx(math.hypot(0.5, 0.5))
    assert dynamics.divergence_radius(inst) is None
    assert dynamics.termination_radius(instgen.builtin("example1")) is None


def test_divergence_radius_example1():
    inst = instgen.builtin("example1")
    assert dynamics.divergence_radius(inst) == pytest.approx(math.hypot(0.5, 0.5))
    assert dynamics.divergence_radius(instgen.builtin("cycling")) is None


def test_norm_descent_above_certified_radius():
    # one sweep strictly shrinks any profile outside the reported radius
    inst = instgen.builtin("cycling")
    L_exact = dynamics.termination_radius(inst)
    for x in range(-4, 5):
        for y in range(-4, 5):
            start = [np.array([float(x)]), np.array([float(y)])]
            if math.hypot(x, y) <= L_exact:
                continue
            trace = dynamics.run_br(inst, start=start, max_iters=1)
            assert trace.norms[1] < trace.norms[0], (x, y)


def test_flatness_radius_alone_does_not_certify_descent():
    # (-1, 1) maps to (1, 1): same norm, sitting between the radius built on
    # the paper's 1-D radius 1/4 and the proven one, built on 1/2
    inst = instgen.builtin("cycling")
    rho = inst.report.rho
    L_flat = (inst.qinv_d_norm + math.hypot(*[iqp.prox_bound(f) for f in inst.factors])) / rho
    L_exact = dynamics.termination_radius(inst)
    assert L_flat < math.hypot(-1, 1) < L_exact
    trace = dynamics.run_br(inst, start=[[-1.0], [1.0]], max_iters=1)
    assert trace.norms[1] == trace.norms[0]


def test_divergence_latch_reads_the_certified_radius():
    # 1-D and negatively adequate (sigma = 3/2, rho = 1/2): the proven radius
    # (||Q^-1 d|| + ||(1/2, 1/2)||) / rho is 2 sqrt 2, and the start's norm
    # sqrt 5 lies between it and the one built on the paper's 1/4, 3 / sqrt 2
    inst = game.make_instance(
        [
            game.PlayerProblem(Q=2 * np.eye(1), C={1: -3 * np.eye(1)}, d=-np.ones(1)),
            game.PlayerProblem(Q=2 * np.eye(1), C={0: -3 * np.eye(1)}, d=-np.ones(1)),
        ]
    )
    assert dynamics.divergence_radius(inst) == pytest.approx(2 * math.sqrt(2))
    start = [[2.0], [1.0]]
    one = dynamics.run_br(inst, start=start, max_iters=1)
    assert one.norms[1] > one.norms[0] == pytest.approx(math.sqrt(5))
    assert one.outcome == dynamics.OUTCOME_CAP and one.divergence_index is None
    two = dynamics.run_br(inst, start=start, max_iters=2)
    assert two.outcome == dynamics.OUTCOME_DIVERGENCE
    assert two.divergence_index == 1


def _three_player_game(coupling, q):
    # k = 3, n_i = 1, Q_i = q, d = 0 and C_ij = coupling(i, j)
    return game.make_instance([
        game.PlayerProblem(Q=[[q]], C={j: [[coupling(i, j)]] for j in range(3) if j != i}, d=[0.0])
        for i in range(3)
    ])


@pytest.mark.xfail(
    strict=True,
    reason="for k >= 3 the per-player sigma_max(R_i) do not bound the joint R = Q^-1 C, which the descent needs",
)
def test_a_three_player_termination_radius_certifies_descent():
    # Q_i = 2 and every C_ij = -1.2: each sigma_max(R_i) is 0.849, so the
    # instance is labelled positively adequate with radius 5.72, but the
    # joint R has norm 1.2.  From (100, 100, 100) one sweep raises the joint
    # norm from 173.2 to 207.8, and the run ends in cap after 149 sweeps.
    inst = _three_player_game(lambda i, j: -1.2, 2.0)
    radius = dynamics.termination_radius(inst)
    trace = dynamics.run_br(inst, start=[[100.0]] * 3)
    if radius is not None:
        # a claimed certificate: outside the radius every sweep shrinks the norm
        rises = [t for t in range(trace.iterations) if trace.norms[t] > radius and not trace.norms[t + 1] < trace.norms[t]]
        assert not rises, (radius, trace.norms[:3])
        assert trace.outcome in (dynamics.OUTCOME_CYCLE, dynamics.OUTCOME_FIXED_POINT)


@pytest.mark.xfail(
    strict=True,
    reason="for k >= 3 each R_i is wide, so sigma_min(R_i) bounds no ||R_i y|| from below, which the growth needs",
)
def test_a_three_player_divergence_radius_certifies_growth():
    # Q_i = 1, C_{i,i+1} = 0.8 and C_{i,i-1} = -0.8: each sigma_min(R_i) is
    # 1.131, so the instance is labelled negatively adequate with radius
    # 6.59, but from (1000, 1000, 1000) the run reaches the origin in 2 sweeps
    inst = _three_player_game(lambda i, j: 0.8 if j == (i + 1) % 3 else -0.8, 1.0)
    radius = dynamics.divergence_radius(inst)
    trace = dynamics.run_br(inst, start=[[1000.0]] * 3)
    if radius is not None:
        # a claimed certificate: beyond the radius the norm grows forever
        assert trace.norms[0] > radius
        assert all(b > a for a, b in zip(trace.norms, trace.norms[1:])), trace.norms
        assert trace.outcome == dynamics.OUTCOME_DIVERGENCE


def test_cycle_telemetry_zero_inside_cycle():
    trace = dynamics.run_br(instgen.builtin("cycling"), start=[[0.0], [0.0]])
    assert np.allclose(dynamics.cycle_telemetry(trace), 0.0)


def test_cycle_telemetry_decreases_from_far_start():
    trace = dynamics.run_br(instgen.builtin("cycling"), start=[[10.0], [10.0]])
    dist = dynamics.cycle_telemetry(trace)
    assert dist[0] > 0
    entry = next(t for t in range(len(dist)) if dist[t] == 0.0)
    for t in range(entry):
        assert dist[t + 1] < dist[t]


def test_cycle_telemetry_fixed_point_and_errors():
    inst = instgen.builtin("counterexample", M=10)
    fixed_trace = dynamics.run_br(inst)
    dist = dynamics.cycle_telemetry(fixed_trace)
    assert dist[-1] == 0.0
    divergent = dynamics.run_br(instgen.builtin("example1"), start=[[5.0], [5.0]], max_iters=8)
    with pytest.raises(NoCycle):
        dynamics.cycle_telemetry(divergent)


def test_run_br_deterministic():
    inst = instgen.gen_random(instgen.RandomSpec(n_players=3, vars_per_player=5, seed=8))
    start = [np.array([3.0, -7.0, 2.0, 0.0, 1.0])] * 3
    a = dynamics.run_br(inst, start=start)
    b = dynamics.run_br(inst, start=start)
    assert a.outcome == b.outcome and a.iterations == b.iterations
    for pa, pb in zip(a.profiles, b.profiles):
        for xa, xb in zip(pa, pb):
            assert np.array_equal(xa, xb)


def test_continuous_mode_contracts_to_stationary_point():
    inst = instgen.gen_pricing(instgen.PricingSpec(n_players=2, seed=33))
    rep = game.classify(inst)
    trace = dynamics.run_br(inst, mode=dynamics.CONTINUOUS)
    assert trace.outcome == dynamics.OUTCOME_FIXED_POINT
    z = inst.split(trace.profiles[-1])
    step = inst.split(game.continuous_sweep(inst, game.joint_vector(inst, z))[0])
    residual = math.sqrt(sum(float(np.sum((a - b) ** 2)) for a, b in zip(step, z)))
    assert residual <= 1e-8

    # the sweep is a contraction with modulus sigma_max between any two points
    rng = np.random.default_rng(0)
    sigma = rep.max_sigma
    for _ in range(20):
        z1 = [rng.uniform(-20, 20, size=n) for n in inst.dims]
        z2 = [rng.uniform(-20, 20, size=n) for n in inst.dims]
        f1 = game.continuous_sweep(inst, game.joint_vector(inst, z1))[0]
        f2 = game.continuous_sweep(inst, game.joint_vector(inst, z2))[0]
        lhs = np.linalg.norm(f1 - f2)
        rhs = sigma * np.linalg.norm(np.concatenate(z1) - np.concatenate(z2))
        assert lhs <= rhs + 1e-9


def _d_scaled(inst, s):
    return game.make_instance([game.PlayerProblem(Q=p.Q, C=p.C, d=s * p.d) for p in inst.players])


def _relative_residual(inst, trace):
    z = trace.profiles[-1]
    return float(np.linalg.norm(game.continuous_sweep(inst, z)[0] - z)) / trace.norms[-1]


@pytest.mark.parametrize("s", [1e-12, 1e-9, 1.0, 1e9])
def test_the_continuous_fixed_point_test_is_relative_to_the_iterates(s):
    # d times s moves the cycling builtin's fixed point (1/2, 1/2) to s/2 and
    # every iterate with it, so the run takes the same sweeps at every s.  An
    # absolute step tolerance of 1e-10 stopped after 1 sweep at s = 1e-12, 10%
    # away from the fixed point, and after 2 at s = 1e-9, 1% away
    inst = _d_scaled(instgen.builtin("cycling"), s)
    trace = dynamics.run_br(inst, mode=dynamics.CONTINUOUS)
    assert (trace.outcome, trace.iterations) == (dynamics.OUTCOME_FIXED_POINT, 12)
    for x in inst.split(trace.profiles[-1]):
        assert x[0] == pytest.approx(0.5 * s, rel=1e-9, abs=0.0)
    assert _relative_residual(inst, trace) <= 1e-8


@pytest.mark.parametrize("s", [1e-9, 1.0, 1e9])
def test_a_continuous_run_far_from_the_origin_settles(s):
    # with d times 1e9 the iterates of the seed-2 random instance are so large
    # that their float spacing exceeds an absolute step tolerance of 1e-10:
    # the run ended at the cap of 3,000 sweeps, where unscaled it settles
    inst = _d_scaled(instgen.gen_random(instgen.RandomSpec(3, 5, seed=2)), s)
    trace = dynamics.run_br(inst, mode=dynamics.CONTINUOUS, max_iters=3000)
    assert (trace.outcome, trace.iterations) == (dynamics.OUTCOME_FIXED_POINT, 30)
    assert _relative_residual(inst, trace) <= 1e-8


def test_a_zero_continuous_step_at_the_origin_is_a_fixed_point():
    # with d = 0 the origin is the fixed point: a zero step from a zero
    # profile ends the run after one sweep
    trace = dynamics.run_br(_d_scaled(instgen.builtin("cycling"), 0.0), mode=dynamics.CONTINUOUS)
    assert (trace.outcome, trace.iterations, trace.norms) == (dynamics.OUTCOME_FIXED_POINT, 1, (0.0, 0.0))


def _rotation_pair(c):
    return game.make_instance(
        [
            game.PlayerProblem(Q=2 * np.eye(1), C={1: c * np.eye(1)}, d=np.zeros(1)),
            game.PlayerProblem(Q=2 * np.eye(1), C={0: -c * np.eye(1)}, d=np.zeros(1)),
        ]
    )


@pytest.mark.parametrize(
    "inst, sweeps",
    [(_d_scaled(instgen.builtin("cycling"), 0.0), 12), (_rotation_pair(1.98), 2327)],
    ids=["cycling", "rho-0.99"],
)
def test_a_continuous_run_shrinking_to_the_origin_settles(inst, sweeps):
    # with d = 0 and a nonzero start the iterates shrink geometrically, so a
    # step stays a fixed fraction of their norm: the start's norm sets the
    # scale.  Relative to the iterates alone, the cycling builtin ran 163
    # sweeps, until its iterates (1e-163) squared to 0, and the rho = 0.99
    # pair's iterates came to rest at +-5e-324 with rotating signs, ending
    # at the cap
    trace = dynamics.run_br(inst, start=[[1.0], [1.0]], mode=dynamics.CONTINUOUS)
    assert (trace.outcome, trace.iterations) == (dynamics.OUTCOME_FIXED_POINT, sweeps)
    assert trace.norms[-1] <= 1e-10 * trace.norms[0]


def test_continuous_mode_diverges_on_example1():
    trace = dynamics.run_br(
        instgen.builtin("example1"), start=[[5.0], [5.0]], mode=dynamics.CONTINUOUS, max_iters=30
    )
    assert trace.outcome == dynamics.OUTCOME_DIVERGENCE
    for t in range(trace.iterations):
        assert trace.norms[t + 1] > trace.norms[t]


def _overflowing_coupling():
    # C = 1e300 both ways against a start of 1e10: the first sweep's linear
    # terms, and so the continuous minimizers, are infinite
    return game.make_instance([
        game.PlayerProblem(Q=np.array([[2.0]]), C={1: np.array([[1e300]])}, d=np.array([0.0])),
        game.PlayerProblem(Q=np.array([[2.0]]), C={0: np.array([[1e300]])}, d=np.array([0.0])),
    ])


def test_an_overflowing_coupling_warns_only_from_the_continuous_matvec():
    inst = _overflowing_coupling()
    start = [[1e10], [1e10]]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonFiniteCentre):
            dynamics.run_br(inst, start=start)
    assert caught == []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        trace = dynamics.run_br(inst, start=start, mode=dynamics.CONTINUOUS)
    assert trace.outcome == dynamics.OUTCOME_DIVERGENCE
    # the stacked matvec of PlayerGroup.continuous_mins overflows; the solve
    # of its infinite linear terms adds no warning of its own
    seen = [(w.category, str(w.message), Path(w.filename).name) for w in caught]
    assert seen == [(RuntimeWarning, "overflow encountered in matmul", "game.py")]


def test_neither_instance_runs_under_cap_without_certificate():
    # boundary sigma = 1: rotation-like dynamics, no certificate may fire
    inst = game.make_instance(
        [
            game.PlayerProblem(Q=np.eye(1), C={1: np.array([[1.0]])}, d=np.array([-0.25])),
            game.PlayerProblem(Q=np.eye(1), C={0: np.array([[-1.0]])}, d=np.array([-0.25])),
        ]
    )
    assert game.classify(inst).classification is game.Adequacy.NEITHER
    trace = dynamics.run_br(inst, start=[[3.0], [0.0]], max_iters=7)
    assert trace.outcome in (dynamics.OUTCOME_CAP, dynamics.OUTCOME_CYCLE)
    assert trace.divergence_index is None


def test_export_trace(tmp_path):
    trace = dynamics.run_br(instgen.builtin("cycling"), start=[[0.0], [0.0]])
    path = tmp_path / "trace.csv"
    dynamics.export_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,p0_0,p1_0,norm"
    assert len(lines) == len(trace.profiles) + 1
    assert lines[1].startswith("0,0,0,")
    # one joint row per sweep: the period-4 cycle from the origin
    assert path.read_text() == (
        "iter,p0_0,p1_0,norm\n"
        "0,0,0,0.0\n"
        "1,0,1,1.0\n"
        "2,1,1,1.4142135623730951\n"
        "3,1,0,1.0\n"
        "4,0,0,0.0\n"
    )


def test_export_trace_header_follows_the_player_dimensions(tmp_path):
    inst = instgen.gen_pricing(instgen.PricingSpec(n_players=3, seed=1))
    assert len(set(inst.dims)) == 3  # players of three dimensions
    trace = dynamics.run_br(inst)
    path = tmp_path / "trace.csv"
    dynamics.export_trace(trace, path)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    assert header == ["iter", *(f"p{i}_{j}" for i, n in enumerate(inst.dims) for j in range(n)), "norm"]
    assert len(rows) == len(trace.profiles)
    for t, row in enumerate(rows):
        assert row[0] == str(t) and row[-1] == repr(trace.norms[t])
        players = inst.split(trace.profiles[t])
        assert row[1:-1] == [str(x) for x in np.concatenate(players).tolist()]


def _reference_cycle_sets(trace):
    # one dict per player, keyed by the bytes of its entries, in first-seen order
    start, stop = trace.cycle_window()
    per_player = [dict() for _ in trace.slots]
    for t in range(start, stop):
        for seen, (a, b) in zip(per_player, trace.slots):
            x = trace.profiles[t, a:b]
            seen.setdefault(x.tobytes(), x)
    return [list(seen.values()) for seen in per_player]


def test_cycle_sets_gives_one_matrix_of_first_seen_rows_per_player():
    # k = 3 players of dimensions 1, 2 and 3; players 0 and 1 draw from
    # small pools, so their rows repeat inside the window, player 2's do not
    rng = np.random.default_rng(31)
    slots = ((0, 1), (1, 3), (3, 6))
    for _ in range(20):
        rows = 9
        pools = [rng.integers(-4, 5, size=(2, 1)), rng.integers(-4, 5, size=(3, 2))]
        profiles = np.concatenate([
            pools[0][rng.integers(0, 2, size=rows)],
            pools[1][rng.integers(0, 3, size=rows)],
            rng.integers(-50, 51, size=(rows, 3)) * 10 + np.arange(rows)[:, None],
        ], axis=1)
        start = int(rng.integers(0, 4))
        profiles[-1] = profiles[start]
        traces = [
            dynamics.BrTrace(profiles=profiles, slots=slots, norms=(0.0,) * rows, outcome=dynamics.OUTCOME_CYCLE,
                             mode=dynamics.INTEGER, cycle_start=start, cycle_repeat=rows - 1),
            dynamics.BrTrace(profiles=profiles[[*range(start + 1), start]], slots=slots, norms=(0.0,) * (start + 2),
                             outcome=dynamics.OUTCOME_FIXED_POINT, mode=dynamics.INTEGER, fixed_index=start + 1),
        ]
        for trace in traces:
            sets = dynamics.cycle_sets(trace)
            reference = _reference_cycle_sets(trace)
            assert sets.sizes == tuple(len(r) for r in reference)
            for S, ref, (a, b) in zip(sets.strategies, reference, slots):
                assert S.dtype == np.int64 and S.shape == (len(ref), b - a)
                assert np.array_equal(S, np.array(ref))
        # in the cycle's window of at least 5 rows, players 0 and 1 repeat rows
        window = rows - 1 - start
        assert dynamics.cycle_sets(traces[0]).sizes in {(a, b, window) for a in (1, 2) for b in (1, 2, 3)}


def test_cycle_telemetry_linear_contraction_rate():
    # far from the cycle the distance shrinks at least geometrically: while
    # dist > 2*||prox vector||/eps, one sweep contracts by (1 - rho + eps)
    rng = np.random.default_rng(55)
    n = 2
    U = np.linalg.qr(rng.normal(size=(n, n)))[0]
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    players = []
    for i in range(2):
        R = U @ np.diag([0.9, 0.85]) @ V.T
        players.append(
            game.PlayerProblem(Q=np.eye(n), C={1 - i: R.copy()}, d=np.zeros(n))
        )
    inst = game.make_instance(players)
    report = game.classify(inst)
    assert report.classification is game.Adequacy.POSITIVE
    rho = report.rho
    eps = rho / 2.0
    prox_norm = math.hypot(math.sqrt(n) / 2.0, math.sqrt(n) / 2.0)  # exact 1-D... n=2 blocks
    threshold = 2.0 * prox_norm / eps

    start = [np.full(n, 300.0), np.full(n, -300.0)]
    trace = dynamics.run_br(inst, start=start)
    assert trace.outcome in (dynamics.OUTCOME_CYCLE, dynamics.OUTCOME_FIXED_POINT)
    dist = dynamics.cycle_telemetry(trace)
    checked = 0
    for t in range(len(dist) - 1):
        if dist[t] > threshold:
            assert dist[t + 1] <= (1.0 - rho + eps) * dist[t] + 1e-9
            checked += 1
    assert checked >= 5  # the start is far enough to see several rate steps


def _per_player_norm(profile):
    # the joint l2 norm from one np.dot per player's float64 vector
    return math.sqrt(
        sum(float(np.dot(xf, xf)) for xf in (np.asarray(x, np.float64) for x in profile))
    )


def _reference_run_br(inst, start, max_iters=dynamics.DEFAULT_MAX_ITERS):
    """Integer best-response iteration from one `game.best_response` call per
    player and sweep, with the outcome rules of `dynamics.run_br`."""
    profiles = [inst.split(dynamics.validate_start(inst, start, dynamics.INTEGER))]
    norms = [_per_player_norm(profiles[0])]
    seen = {np.concatenate(profiles[0]).tobytes(): 0}
    div_radius = dynamics.divergence_radius(inst)
    latch = None
    outcome, indices = dynamics.OUTCOME_CAP, (None, None, None)
    for t in range(1, max_iters + 1):
        prev = profiles[-1]
        nxt = tuple(
            game.best_response(inst, i, [prev[j] for j in inst.opponents(i)]) for i in range(inst.k)
        )
        profiles.append(nxt)
        norms.append(_per_player_norm(nxt))
        key = np.concatenate(nxt).tobytes()
        if key in seen:
            if seen[key] == t - 1:
                outcome, indices = dynamics.OUTCOME_FIXED_POINT, (None, None, t)
            else:
                outcome, indices = dynamics.OUTCOME_CYCLE, (seen[key], t, None)
            break
        seen[key] = t
        if div_radius is not None:
            if latch is None:
                if norms[t - 1] > div_radius and norms[t] > norms[t - 1]:
                    latch = t - 1
            elif norms[t] <= norms[t - 1]:
                latch = None
        if norms[t] > dynamics.DIVERGENCE_NORM_CAP:
            break
    if outcome == dynamics.OUTCOME_CAP and latch is not None:
        outcome = dynamics.OUTCOME_DIVERGENCE
    divergence = latch if outcome == dynamics.OUTCOME_DIVERGENCE else None
    return profiles, norms, outcome, indices + (divergence,)


def test_run_br_matches_per_player_reference():
    # run_br iterates one joint vector through the sweep kernel; its trace
    # must be bitwise the one a loop of public per-player responses gives
    rng = np.random.default_rng(41)
    cases = [inst for _, inst in instance_corpus()]
    cases += [
        instgen.gen_negative(instgen.NegativeSpec(n_players=k, vars_per_player=n, seed=7 * k + n))
        for k in (2, 3)
        for n in (2, 3, 4)
    ]
    cases += [instgen.builtin(name) for name in ("cycling", "example1")]
    cases.append(instgen.builtin("counterexample", M=10))
    outcomes = set()
    for inst in cases:
        for _ in range(2):
            start = [rng.integers(-60, 61, size=n) for n in inst.dims]
            trace = dynamics.run_br(inst, start=start)
            profiles, norms, outcome, indices = _reference_run_br(inst, start)
            assert trace.outcome == outcome
            assert (
                trace.cycle_start, trace.cycle_repeat, trace.fixed_index, trace.divergence_index
            ) == indices
            assert trace.norms == tuple(norms)
            joined = np.array([np.concatenate(p) for p in profiles])
            assert trace.profiles.shape == joined.shape
            assert trace.profiles.dtype == joined.dtype == np.int64 and np.array_equal(trace.profiles, joined)
            assert trace.profiles.base is None  # the trace holds its own array, not a view
            outcomes.add(outcome)
    assert {dynamics.OUTCOME_FIXED_POINT, dynamics.OUTCOME_CYCLE, dynamics.OUTCOME_DIVERGENCE} <= outcomes


def test_continuous_step_matches_per_player_responses():
    # the stacked continuous sweep gives every player bitwise the response
    # `iqp.continuous_min` gives it alone on its quadratic
    rng = np.random.default_rng(43)
    cases = [inst for _, inst in instance_corpus()]
    cases += [
        instgen.gen_negative(instgen.NegativeSpec(n_players=3, vars_per_player=n, seed=n))
        for n in (2, 3)
    ]
    cases += [instgen.builtin(name) for name in ("cycling", "example1")]
    for inst in cases:
        for _ in range(3):
            profile = [rng.uniform(-1e3, 1e3, size=n) for n in inst.dims]
            step = inst.split(game.continuous_sweep(inst, game.joint_vector(inst, profile))[0])
            for i in range(inst.k):
                y = np.concatenate([profile[j] for j in inst.opponents(i)])
                q = iqp.Quadratic(inst.players[i].Q, inst.C_cat[i] @ y + inst.players[i].d)
                ref = iqp.continuous_min(q)
                assert step[i].dtype == ref.dtype and np.array_equal(step[i], ref)


def _reference_validate_start(inst, start, mode):
    """The per-player start check: each player in turn, its length, then its
    entries finite, integral and within +-2^53 (the last two in integer mode)."""
    if len(start) != inst.k:
        raise DimensionMismatch(f"start has {len(start)} players, expected {inst.k}")
    out = []
    for i, vec in enumerate(start):
        v = np.asarray(vec, dtype=np.float64).ravel()
        if v.shape[0] != inst.dims[i]:
            raise DimensionMismatch(f"start for player {i} has length {v.shape[0]}, expected {inst.dims[i]}")
        if not np.all(np.isfinite(v)):
            raise DimensionMismatch(f"start for player {i} has non-finite entries")
        if mode == dynamics.INTEGER:
            if not np.all(np.rint(v) == v):
                raise DimensionMismatch(f"start for player {i} is not integral")
            if np.any(np.abs(v) > 2.0**53):
                raise DimensionMismatch(f"start for player {i} exceeds 2^53 in magnitude")
            v = v.astype(np.int64)
        out.append(v)
    return np.concatenate(out)


def _weak_instance(k, seed):
    # k players of dimensions 1, 2, 3, 1, 2, ... and weak couplings
    rng = np.random.default_rng(seed)
    dims = [1 + i % 3 for i in range(k)]
    return game.make_instance([
        game.PlayerProblem(
            Q=2.0 * np.eye(n),
            C={j: rng.uniform(-0.01, 0.01, size=(n, dims[j])) for j in range(k) if j != i},
            d=rng.uniform(-3.0, 3.0, size=n),
        )
        for i, n in enumerate(dims)
    ])


@pytest.mark.parametrize("k", [2, 3, 4, 5, 100])
def test_validate_start_names_the_first_player_at_fault(k):
    # the joint check raises the per-player check's error: the first player
    # at fault, by the first check its vector fails
    inst = _weak_instance(k, seed=k)
    rng = np.random.default_rng(k)
    bad_entries = {
        "non-finite": (np.nan, np.inf, -np.inf),
        "not integral": (0.5, -1e-3, 2.0**51 + 0.5),
        "beyond 2^53": (2.0**53 + 2.0, -(2.0**54)),
    }
    seen = set()
    for trial in range(60):
        start = [rng.integers(-50, 51, size=n).astype(np.float64) for n in inst.dims]
        for _ in range(int(rng.integers(1, 4))):
            i = int(rng.integers(k))
            kind = list(bad_entries)[int(rng.integers(3))]
            if kind == "beyond 2^53" and trial % 5 == 0:
                start[i] = np.append(start[i], 0.0)  # a wrong length instead
                continue
            values = bad_entries[kind]
            start[i][int(rng.integers(len(start[i])))] = values[int(rng.integers(len(values)))]
        for mode in (dynamics.INTEGER, dynamics.CONTINUOUS):
            try:
                want = _reference_validate_start(inst, start, mode)
            except DimensionMismatch as exc:
                with pytest.raises(DimensionMismatch) as got:
                    dynamics.validate_start(inst, start, mode)
                assert str(got.value) == str(exc), (trial, mode)
                seen.add(str(exc).split(" ", 4)[-1].split(",")[0])
            else:
                got = dynamics.validate_start(inst, start, mode)
                assert got.dtype == want.dtype and np.array_equal(got, want)
    assert {"has non-finite entries", "is not integral", "exceeds 2^53 in magnitude"} <= seen
    assert any(s.startswith("has length") for s in seen)
    for wrong in (k - 1, k + 1):
        start = [np.zeros(n) for n in inst.dims] + [np.zeros(1)]
        with pytest.raises(DimensionMismatch, match=f"^start has {wrong} players, expected {k}$"):
            dynamics.validate_start(inst, start[:wrong], dynamics.INTEGER)


@pytest.mark.parametrize("k", [2, 5, 100])
def test_validate_start_gives_the_joint_vector(k):
    inst = _weak_instance(k, seed=k)
    start = [np.arange(n) - 1.0 for n in inst.dims]
    for mode, dtype in ((dynamics.INTEGER, np.int64), (dynamics.CONTINUOUS, np.float64)):
        z = dynamics.validate_start(inst, start, mode)
        assert z.dtype == dtype and np.array_equal(z, np.concatenate(start))
        zero = dynamics.validate_start(inst, None, mode)
        assert zero.dtype == dtype and zero.shape == (sum(inst.dims),) and not zero.any()
        trace = dynamics.run_br(inst, start=start, mode=mode, max_iters=1)
        assert all(x.dtype == dtype and np.array_equal(x, s) for x, s in zip(inst.split(trace.profiles[0]), start))


def test_an_overflowing_proven_radius_is_a_typed_error_before_any_sweep(monkeypatch):
    # example1 with d = (1e160, 1e160): ||Q^-1 d|| overflows, so the proven
    # divergence radius the latch reads does too, and the run stops before
    # its first sweep
    ex1 = instgen.builtin("example1")
    inst = game.make_instance([game.PlayerProblem(Q=p.Q, C=p.C, d=np.full(1, 1e160)) for p in ex1.players])
    assert inst.report.classification is game.Adequacy.NEGATIVE

    def no_sweep(inst, z):
        raise AssertionError("swept before the radius was checked")

    monkeypatch.setattr(game, "integer_sweep", no_sweep)
    with pytest.raises(BoundOverflow, match="^the proven radius "):
        dynamics.run_br(inst, start=[[5.0], [5.0]])


def test_an_unproven_radius_is_named_not_called_an_overflow():
    # Q_0 = diag(1, 1e-16) passes the Cholesky pivot test, but its computed
    # lambda_min is within 4 n eps lambda_max of zero, so no radius is proven
    # for player 0 and none for the instance
    inst = game.make_instance([
        game.PlayerProblem(Q=np.diag([1.0, 1e-16]), C={1: np.zeros((2, 2))}, d=np.zeros(2)),
        game.PlayerProblem(Q=2.0 * np.eye(2), C={0: np.zeros((2, 2))}, d=np.array([0.1, 0.4])),
    ])
    assert inst.report.classification is game.Adequacy.POSITIVE
    with pytest.raises(BoundOverflow, match=r"^player 0: no proximity radius is proven: .* 4 n eps lambda_max = 1\.77636e-15 of zero$"):
        dynamics.termination_radius(inst)


def test_a_sweep_past_the_float_integers_ends_the_run_as_the_norm_cap_does():
    # sigma = (1.4e8, 1.06): the second sweep's search centre for player 0 is
    # about 1e16, where floats are 2 apart.  The run ends without that sweep,
    # and the latch reads its response's norm as above every earlier one.
    R = np.array([[1e8, 1e8], [0.0, 1.5]])
    inst = game.make_instance([
        game.PlayerProblem(Q=2.0 * np.eye(2), C={1 - i: 2.0 * R}, d=np.zeros(2)) for i in range(2)
    ])
    with pytest.raises(CentreTooLarge, match="^player 0: "):
        game.integer_sweep(inst, np.array([-5e8, -6.0, -1e8, 3.0]))
    trace = dynamics.run_br(inst, start=[[3.0, -2.0], [1.0, 4.0]])
    assert trace.outcome == dynamics.OUTCOME_DIVERGENCE and trace.divergence_index == 1
    assert trace.profiles.tolist() == [[3, -2, 1, 4], [-500000000, -6, -100000000, 3]]


def test_a_response_beyond_int64_raises_with_its_own_norm():
    # Q = [[2]], C = [[-1e7]], d = 0: each sweep multiplies the profile by
    # 5e6, so sweep 3's responses are 1.25e20, beyond int64.  The message
    # gives their own joint norm, sqrt(2) * 1.25e20, not that of the int64
    # cast (sqrt(2) * 2^63 = 1.30438e+19)
    inst = game.make_instance([
        game.PlayerProblem(Q=np.array([[2.0]]), C={1 - i: np.array([[-1e7]])}, d=np.zeros(1)) for i in range(2)
    ])
    with pytest.raises(ResponseOverflow, match=r"^sweep 3: .* \(joint norm 1\.76777e\+20 >= 2\^63\)$"):
        dynamics.run_br(inst, start=[[1], [1]])


def _slice_norm(zf, slots):
    # the former per-slice joint norm of `dynamics.run_br`, verbatim: one dot
    # per player slice of the float64 joint vector, summed in player order
    return math.sqrt(sum([float(x.dot(x)) for x in [zf[s] for s in slots]]))


def _slice_squares(inst, z):
    # each player's squared norm as the former form took it, on its slice
    zf = np.asarray(z, dtype=np.float64)
    return [float(zf[a:b].dot(zf[a:b])) for a, b in inst.slots]


def _hexes(values):
    return [float(v).hex() for v in values]


def _coupled_instance(dims, seed, scale=0.1):
    # seeded Q_i of the given dimensions and couplings of about ``scale``
    rng = np.random.default_rng(seed)
    Qs = [q.Q for q in quadratic_corpus(seed=seed, count=len(dims), dims=tuple(dims), cond=10.0)]
    return game.make_instance([
        game.PlayerProblem(
            Q=Q,
            C={j: scale * rng.standard_normal((n, dims[j])) for j in range(len(dims)) if j != i},
            d=rng.uniform(-5.0, 5.0, size=n),
        )
        for i, (n, Q) in enumerate(zip(dims, Qs))
    ])


def _former_step(zf, prev, slots):
    # the former continuous fixed-point step of `dynamics.run_br`, verbatim
    return math.sqrt(sum(float(np.sum((zf[s] - prev[s]) ** 2)) for s in slots))


def test_the_continuous_step_is_the_former_per_slice_sum():
    # one, two and three groups, at n = 1..20 (np.sum's pairwise blocks begin
    # at n = 8), from steps of 1e-12 to 1 relative to the iterates' scale:
    # the step is bitwise the former per-slice np.sum form
    rng = np.random.default_rng(109)
    groups = set()
    for n in (1, 2, 5, 7, 8, 9, 13, 16, 17, 20):
        for dims in ((n, n, n), (n, n + 3, n, n + 3), (n, n + 1, n + 9, n)):
            inst = _coupled_instance(dims, seed=n, scale=0.05)
            slots = [slice(a, b) for a, b in inst.slots]
            for scale in (1e-9, 1.0, 1e9):
                for rel in (1e-12, 1e-6, 1.0):
                    prev = rng.standard_normal(sum(dims)) * scale
                    z = prev + rng.standard_normal(sum(dims)) * scale * rel
                    assert dynamics._step_norm(inst, z, prev).hex() == _former_step(z, prev, slots).hex(), (dims, scale, rel)
            groups.add(len(inst.groups))
    assert groups == {1, 2, 3}


@pytest.mark.parametrize("mode", [dynamics.INTEGER, dynamics.CONTINUOUS])
def test_run_br_norms_are_the_former_per_slice_norms(mode):
    # every norm of a run, the start's included, is bitwise the former
    # per-slice form on the trace's row, on one-group and several-group
    # instances, in both modes
    rng = np.random.default_rng(83)
    cases = [instgen.builtin(name) for name in ("cycling", "example1")]
    cases += [
        instgen.gen_negative(instgen.NegativeSpec(n_players=k, vars_per_player=n, seed=5 * k + n))
        for k in (2, 3)
        for n in (2, 4)
    ]
    cases += [_coupled_instance((5, 6, 5, 4), seed=seed, scale=scale) for seed, scale in ((1, 0.5), (2, 2.0))]
    cases += [_weak_instance(7, 89)]
    cases += [inst for _, inst in instance_corpus()[::5]]
    groups = set()
    for inst in cases:
        slots = [slice(a, b) for a, b in inst.slots]
        for _ in range(2):
            start = [rng.integers(-40, 41, size=n) for n in inst.dims]
            trace = dynamics.run_br(inst, start=start, mode=mode, max_iters=60)
            want = [_slice_norm(np.asarray(row, dtype=np.float64), slots) for row in trace.profiles]
            assert _hexes(trace.norms) == _hexes(want)
        groups.add(len(inst.groups))
    assert {1, 2, 3} <= groups


def test_the_start_and_sweep_squares_are_the_per_slice_dots():
    # `game.squared_norms` of a joint vector and the squares a sweep returns
    # beside its response are bitwise each player's own dot on its slice
    rng = np.random.default_rng(97)
    for inst in (_coupled_instance((5, 6, 5, 4), seed=3), _coupled_instance((3, 3, 3), seed=4), instgen.builtin("cycling")):
        for scale in (1e-3, 1.0, 1e6):
            z = rng.standard_normal(sum(inst.dims)) * scale
            assert _hexes(game.squared_norms(inst, z)) == _hexes(_slice_squares(inst, z))
            zi = np.rint(z)
            response, floats, squares = game.integer_sweep(inst, zi)
            assert response.dtype == np.int64 and floats.dtype == np.float64
            assert np.array_equal(floats, response)
            assert _hexes(squares) == _hexes(_slice_squares(inst, response))
            assert np.array_equal(response, np.concatenate(game.best_responses(inst, inst.split(zi))))
            step, squares = game.continuous_sweep(inst, z)
            assert step.dtype == np.float64
            assert _hexes(squares) == _hexes(_slice_squares(inst, step))


def test_a_response_that_rounds_to_minus_zero_squares_to_plus_zero():
    # u = (-0.2, 0.3) for both players: rint gives -0.0 in the float rows the
    # kernel squares, and its square is +0.0, as the integer 0's is.  The
    # -0.0 stays in the float64 response the next sweep takes, and the run
    # still settles at once
    inst = game.make_instance([
        game.PlayerProblem(Q=2.0 * np.eye(2), C={1 - i: np.zeros((2, 2))}, d=np.array([0.4, -0.6])) for i in range(2)
    ])
    g = inst.groups[0]
    z = np.zeros(4)
    rows = iqp._lattice_rows(g.factors, g.continuous_mins(z), labels=g.labels, G=g.G)
    assert np.signbit(rows[:, 0]).all() and not rows.any()
    response, floats, squares = game.integer_sweep(inst, z)
    assert response.tolist() == [0, 0, 0, 0]
    assert np.signbit(floats).tolist() == [True, False, True, False]
    assert _hexes(squares) == _hexes(_slice_squares(inst, response)) == [(0.0).hex()] * 2
    trace = dynamics.run_br(inst)
    assert trace.outcome == dynamics.OUTCOME_FIXED_POINT and _hexes(trace.norms) == [(0.0).hex()] * 2


def _blas_name() -> str:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


@pytest.mark.skipif(
    "openblas" not in _blas_name().lower(),
    reason="np.vecdot and ndarray.dot are checked to run OpenBLAS's ddot alike; other BLAS libraries may block it by alignment",
)
def test_stacked_squares_are_the_per_slice_dots_at_every_length():
    # one group of four players, and a group of three beside a player of
    # another dimension, at n = 1..40: from n = 16 ddot blocks its sum, and
    # each row's square must still be bitwise its slice's dot
    rng = np.random.default_rng(101)
    for n in range(1, 41):
        for dims in ((n, n, n, n), (n, n + 1, n, n)):
            inst = _coupled_instance(dims, seed=n, scale=0.05)
            z = rng.uniform(-30.0, 30.0, size=sum(dims))
            assert _hexes(game.squared_norms(inst, z)) == _hexes(_slice_squares(inst, z))
            response, _, squares = game.integer_sweep(inst, np.rint(z))
            assert _hexes(squares) == _hexes(_slice_squares(inst, response))
            step, squares = game.continuous_sweep(inst, z)
            assert _hexes(squares) == _hexes(_slice_squares(inst, step))
