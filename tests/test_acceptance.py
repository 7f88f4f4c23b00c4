"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the checklist.
Shared corpora are module-scoped so the termination runs feed the equilibrium
quality and continuous-mode criteria without re-solving.
"""

import math
import time

import numpy as np
import pytest

from _corpus import instance_corpus, quadratic_corpus
from icqs import bounds, dynamics, finite, game, instgen, iqp, linalg


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# --------------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="module")
def instances6():
    corpus = instance_corpus()
    assert len(corpus) == 50
    return corpus


@pytest.fixture(scope="module")
def solves6(instances6):
    """10 seeded integer-mode solves per instance, full pipeline timed."""
    records = []
    rng = np.random.default_rng(20240601)
    for name, inst in instances6:
        for start_idx in range(10):
            start = [rng.integers(-50, 51, size=n).astype(float) for n in inst.dims]
            t0 = time.perf_counter()
            trace = dynamics.run_br(inst, start=start, max_iters=10_000)
            terminated = trace.outcome in (
                dynamics.OUTCOME_CYCLE,
                dynamics.OUTCOME_FIXED_POINT,
            )
            max_gain = math.inf
            delta_ok = False
            if terminated:
                sets = dynamics.cycle_sets(trace)
                fg = finite.restrict(inst, sets)
                profile, _ = finite.solve_equilibrium(fg)
                delta = finite.verify_delta(inst, fg, profile)
                max_gain = delta.max_gain
                priori = bounds.delta_a_priori(inst)
                delta_ok = priori is not None and all(
                    g <= b + 1e-9 for g, b in zip(delta.gains, priori)
                )
            elapsed = time.perf_counter() - t0
            records.append(
                {
                    "name": name,
                    "start": start_idx,
                    "terminated": terminated,
                    "outcome": trace.outcome,
                    "iterations": trace.iterations,
                    "elapsed": elapsed,
                    "max_gain": max_gain,
                    "delta_ok": delta_ok,
                }
            )
    return records


# --------------------------------------------------------------------------
# criteria


def test_criterion_1_example1_divergence():
    inst = instgen.builtin("example1")
    t0 = time.perf_counter()
    trace = dynamics.run_br(inst, start=[[5.0], [5.0]], max_iters=8)
    elapsed = time.perf_counter() - t0
    expected = [(5 * 2**t, 5 * 2**t) for t in range(9)]
    got = [tuple(int(x[0]) for x in inst.split(p)) for p in trace.profiles]
    ok = (
        got == expected
        and trace.iterations == 8
        and trace.outcome == dynamics.OUTCOME_DIVERGENCE
        and elapsed < 0.1
    )
    announce(1, ok, f"8 doubling steps, certified divergence, {elapsed * 1e3:.1f} ms")


def test_criterion_2_cycling_example():
    inst = instgen.builtin("cycling")
    t0 = time.perf_counter()
    trace = dynamics.run_br(inst, start=[[0.0], [0.0]])
    sets = dynamics.cycle_sets(trace)
    fg = finite.restrict(inst, sets)
    profile = finite.mne_two_player(fg)
    delta = finite.verify_delta(inst, fg, profile)
    elapsed = time.perf_counter() - t0

    path = [tuple(int(x[0]) for x in inst.split(p)) for p in trace.profiles]
    table = np.array([[[0.0, 0.0], [0.0, -0.1]], [[0.1, 0.0], [-0.1, 0.1]]])
    ok = (
        path == [(0, 0), (0, 1), (1, 1), (1, 0), (0, 0)]
        and np.allclose(np.stack([finite.cell_costs(fg, i) for i in range(2)], axis=-1), table, atol=1e-12)
        and all(np.allclose(p, [0.5, 0.5], atol=1e-9) for p in profile.probs)
        and delta.max_gain <= 1e-9
        and elapsed < 0.1
    )
    announce(
        2,
        ok,
        f"period-4 cycle, table match, half-half mix, max gain {delta.max_gain:.2e}, "
        f"{elapsed * 1e3:.1f} ms",
    )


@pytest.mark.parametrize("M", [10, 20, 40])
def test_criterion_3_counterexample_family(M):
    inst = instgen.builtin("counterexample", M=M)
    trace = dynamics.run_br(inst, start=[[0.0, 1.0], [0.0, 1.0]])
    sets = dynamics.cycle_sets(trace)
    expected_set = {(0, 1), (M, 0)}
    sets_ok = all(
        {tuple(map(int, s)) for s in sets.strategies[i]} == expected_set for i in (0, 1)
    )
    fg = finite.restrict(inst, sets)
    no_pne = finite.pne_search(fg) == []
    profile = finite.mne_two_player(fg)
    mix_ok = all(np.allclose(p, [0.5, 0.5], atol=1e-9) for p in profile.probs)
    costs_ok = np.allclose(finite.expected_costs(fg, profile), [0.0, 0.0], atol=1e-9)
    delta = finite.verify_delta(inst, fg, profile)
    target = M * M / 8.0
    gain_ok = delta.gains[0] >= target - 1e-6

    # independent confirmation of the deviation value by exhaustive scan
    means = finite.mean_strategies(fg, profile)
    q = iqp.Quadratic(inst.players[0].Q, inst.C_cat[0] @ means[1] + inst.players[0].d)
    _, oracle_value = iqp.brute_force_min(q)
    oracle_ok = oracle_value == pytest.approx(delta.deviation_costs[0], abs=1e-9)

    ok = sets_ok and no_pne and mix_ok and costs_ok and gain_ok and oracle_ok
    announce(
        3,
        ok,
        f"M={M}: cycle sets, no PNE, half-half mix at cost 0, "
        f"gain {delta.gains[0]:.6g} >= {target} (oracle {oracle_value:.6g})",
    )


@pytest.fixture(scope="module")
def iqp_corpus():
    return quadratic_corpus(seed=42, count=200, dims=(1, 2, 3, 4), cond=100.0)


def test_criterion_4_oracle_equivalence(iqp_corpus):
    t0 = time.perf_counter()
    mismatches = 0
    for q in iqp_corpus:
        _, f_enum = iqp.integer_min(q)
        _, f_oracle = iqp.brute_force_min(q)
        if abs(f_enum - f_oracle) > 1e-9:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 10.0
    announce(4, ok, f"200/200 enumeration == exhaustive oracle, {elapsed:.2f} s")


def test_criterion_5_proximity_invariants(iqp_corpus):
    # the proven radius sqrt(sum G_jj^2) / (2 sqrt(lambda_min)) and gap
    # sum G_jj^2 / 8 hold on every draw; for n >= 2 the radius is below the
    # paper's (n^{5/2}/4) sqrt(lambda_max/lambda_min), and for n = 1 above
    # it, since the paper's 1/4 understates the true 1-D worst case 1/2
    dist_viol = gap_viol = above_paper = 0
    ratios = []
    for q in iqp_corpus:
        v, value = iqp.integer_min(q)
        u = iqp.continuous_min(q)
        f = iqp.factorize(q.Q, linalg.cholesky(q.Q))
        dist = float(np.linalg.norm(v - u))
        gap = value - q.value(u)
        if dist > f.radius + 1e-9:
            dist_viol += 1
        if gap > f.gap + 1e-9:
            gap_viol += 1
        if q.n >= 2:
            ratios.append(iqp.prox_bound(f) / f.radius)
            if ratios[-1] < 1.0:
                above_paper += 1

    sharp_ok = True
    for n in (1, 2, 3, 4):
        q = iqp.Quadratic(np.eye(n), np.full(n, -0.5))
        v, _ = iqp.integer_min(q)
        achieved = float(np.linalg.norm(v - iqp.continuous_min(q)))
        if abs(achieved - math.sqrt(n) / 2.0) > 1e-12:
            sharp_ok = False

    ok = dist_viol == 0 and gap_viol == 0 and above_paper == 0 and sharp_ok
    announce(
        5,
        ok,
        f"proximity radius and gap bounds hold on all {len(iqp_corpus)}; for n >= 2 the "
        f"paper's radius is {min(ratios):.1f} to {max(ratios):.1f} times the proven one; "
        "cube-center distance = sqrt(n)/2 for n=1..4",
    )


def test_criterion_6_termination(instances6, solves6):
    classified_ok = all(
        inst.report.classification is game.Adequacy.POSITIVE for _, inst in instances6
    )
    terminated = [r for r in solves6 if r["terminated"]]
    median = float(np.median([r["elapsed"] for r in solves6]))
    ok = (
        classified_ok
        and len(solves6) == 500
        and len(terminated) == 500
        and median < 1.0
    )
    announce(
        6,
        ok,
        f"{len(terminated)}/500 runs reached a cycle or fixed point "
        f"(median solve {median * 1e3:.1f} ms)",
    )


def test_criterion_7_equilibrium_quality(instances6, solves6):
    small_gain = sum(1 for r in solves6 if r["max_gain"] <= 1e-6)
    bounded = sum(1 for r in solves6 if r["delta_ok"])
    worst = max(r["max_gain"] for r in solves6)
    # a gain is only checked against a finite bound; count where one exists
    finite_bound = sum(
        1
        for _, inst in instances6
        if any(math.isfinite(b) for b in bounds.delta_a_priori(inst) or [])
    )
    ok = small_gain >= 0.95 * len(solves6) and bounded == len(solves6)
    announce(
        7,
        ok,
        f"{small_gain}/{len(solves6)} runs with max gain <= 1e-6 (worst {worst:.2e}); "
        f"{bounded}/{len(solves6)} within the a-priori delta bound, which is finite "
        f"on {finite_bound}/{len(instances6)} instances",
    )


def test_criterion_8_divergence():
    failures = []
    for seed in range(20):
        spec = instgen.NegativeSpec(n_players=2, vars_per_player=3, seed=7000 + seed)
        inst = instgen.gen_negative(spec)
        radius = dynamics.divergence_radius(inst)
        rng = np.random.default_rng(seed)
        # any integer start strictly outside the certified radius
        scale = math.ceil(radius / math.sqrt(sum(inst.dims))) + 1
        start = [
            rng.integers(1, 3, size=n).astype(float) * scale for n in inst.dims
        ]
        trace = dynamics.run_br(inst, start=start, max_iters=50)
        monotone = all(
            trace.norms[t + 1] > trace.norms[t] for t in range(len(trace.norms) - 1)
        )
        if not (
            trace.norms[0] > radius
            and monotone
            and trace.iterations == 50
            and trace.outcome == dynamics.OUTCOME_DIVERGENCE
        ):
            failures.append(seed)
    announce(8, not failures, f"20/20 runs grow strictly for all 50 iterations")


def _affine_fixed_point(inst):
    """Exact stationary profile of the continuous sweep, by linear solve."""
    dims = inst.dims
    offsets = np.concatenate([[0], np.cumsum(dims)])
    N = int(offsets[-1])
    A = np.zeros((N, N))
    b = np.zeros(N)
    for i in range(inst.k):
        rows = slice(offsets[i], offsets[i + 1])
        Rq = linalg.solve_spd(inst.players[i].Q, inst.C_cat[i])
        col = 0
        for j in inst.opponents(i):
            cols = slice(offsets[j], offsets[j + 1])
            A[rows, cols] = -Rq[:, col : col + dims[j]]
            col += dims[j]
        b[rows] = linalg.solve_spd(inst.players[i].Q, -inst.players[i].d)
    z = np.linalg.solve(np.eye(N) - A, b)
    return z


def test_criterion_9_continuous_mode(instances6):
    stationarity_bad = contraction_bad = 0
    for name, inst in instances6:
        trace = dynamics.run_br(inst, mode=dynamics.CONTINUOUS, max_iters=10_000)
        if trace.outcome != dynamics.OUTCOME_FIXED_POINT:
            stationarity_bad += 1
            continue
        z_end = inst.split(trace.profiles[-1])
        step = inst.split(game.continuous_sweep(inst, game.joint_vector(inst, z_end))[0])
        residual = math.sqrt(
            sum(float(np.sum((a - b) ** 2)) for a, b in zip(step, z_end))
        )
        if residual > 1e-8:
            stationarity_bad += 1
        z_star = _affine_fixed_point(inst)
        sigma = inst.report.max_sigma
        dists = [
            float(np.linalg.norm(np.asarray(p, float) - z_star))
            for p in trace.profiles
        ]
        guard = 1e-6 * (1.0 + float(np.linalg.norm(z_star)))
        for t in range(len(dists) - 1):
            if dists[t] > guard and dists[t + 1] > (sigma + 1e-6) * dists[t]:
                contraction_bad += 1
                break

    ex1 = dynamics.run_br(
        instgen.builtin("example1"), start=[[5.0], [5.0]],
        mode=dynamics.CONTINUOUS, max_iters=30,
    )
    ex1_ok = ex1.outcome == dynamics.OUTCOME_DIVERGENCE and all(
        ex1.norms[t + 1] > ex1.norms[t] for t in range(len(ex1.norms) - 1)
    )

    ok = stationarity_bad == 0 and contraction_bad == 0 and ex1_ok
    announce(
        9,
        ok,
        "50/50 continuous runs reach stationarity <= 1e-8 with per-step "
        "contraction <= sigma_max + 1e-6; continuous example1 diverges",
    )


def test_criterion_10_linear_algebra_invariants():
    rng = np.random.default_rng(101)
    diag_bad = bound_bad = 0
    for _ in range(100):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        A = rng.normal(size=(m, n))
        B = rng.normal(size=(n, m))
        block = np.zeros((m + n, n + m))
        block[:m, :n] = A
        block[m:, n:] = B
        union = np.concatenate(
            [linalg.singular_values(A), linalg.singular_values(B), np.zeros(abs(m - n))]
        )
        if not np.allclose(linalg.singular_values(block), np.sort(union)[::-1], atol=1e-8):
            diag_bad += 1
    for _ in range(100):
        n = int(rng.integers(1, 7))
        M = rng.normal(size=(n, n))
        sv = linalg.singular_values(M)
        shrink = M * (0.99 / sv[0])
        stretch = M * (1.01 / sv[-1]) if sv[-1] > 0 else None
        for _ in range(100):
            x = rng.normal(size=n)
            if np.linalg.norm(x) == 0.0:
                continue
            if not np.linalg.norm(shrink @ x) < np.linalg.norm(x) + 1e-8:
                bound_bad += 1
            if stretch is not None and not np.linalg.norm(stretch @ x) > np.linalg.norm(x) - 1e-8:
                bound_bad += 1
    ok = diag_bad == 0 and bound_bad == 0
    announce(10, ok, "block-diagonal spectrum and norm-bound suites pass at 1e-8")
