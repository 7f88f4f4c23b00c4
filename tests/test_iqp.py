from __future__ import annotations

import dataclasses
import importlib.util
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from _corpus import quadratic_corpus, random_quadratic
from _frame_reference import frames_agree, searches
from icqs import cli, iqp, linalg
from icqs.errors import (
    CentreTooLarge,
    EnumerationBudgetExceeded,
    NonFiniteCentre,
    NotPositiveDefinite,
    OracleBudgetExceeded,
    ProximityViolation,
)


def scalar(qval, dval):
    return iqp.Quadratic(np.array([[qval]]), np.array([dval]))


def factor_of(Q):
    return iqp.factorize(Q, linalg.cholesky(Q))


def test_continuous_min_examples():
    assert np.allclose(iqp.continuous_min(scalar(2.0, -0.9)), [0.45])
    assert np.allclose(iqp.continuous_min(iqp.Quadratic(np.eye(3), np.zeros(3))), np.zeros(3))
    q = iqp.Quadratic(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([-3.0, -3.0]))
    u = iqp.continuous_min(q)
    assert np.allclose(u, [1.0, 1.0])
    # gradient vanishes at the continuous minimizer
    assert np.linalg.norm(q.Q @ u + q.d) <= 1e-9


@pytest.mark.parametrize("n,expected", [(1, 1.0), (4, 32.0), (9, 243.0)])
def test_flatness_constant_default(n, expected):
    # the paper's radius on I_n is Flt(n) / 4, with the proven Flt(n) = n^{5/2}
    assert 4.0 * iqp.prox_bound(factor_of(np.eye(n))) == expected


def test_prox_bound_identity_n4():
    f = factor_of(np.eye(4))
    assert iqp.prox_bound(f) == pytest.approx(8.0)
    assert f.lambda_max == pytest.approx(1.0)
    assert f.lambda_min == pytest.approx(1.0)


def test_prox_bound_identity_n1():
    f = factor_of(np.eye(1))
    assert iqp.prox_bound(f) == pytest.approx(0.25)
    # the gap bound sum G_jj^2 / 8 is the 1-D worst case 1/8, at u = 1/2
    assert f.gap == pytest.approx(1.0 / 8.0, rel=1e-11)


def test_prox_bound_diag_4_1():
    f = factor_of(np.diag([4.0, 1.0]))
    assert iqp.prox_bound(f) == pytest.approx((2.0**2.5 / 4.0) * 2.0)
    # G = diag(2, 1) and lambda_min = 1: the proven radius is sqrt(5) / 2
    assert iqp.guarantee_prox(f) == pytest.approx(math.sqrt(5.0) / 2.0, rel=1e-11)


def test_prox_bound_invariant_relations():
    for q in quadratic_corpus(seed=5, count=30, dims=(1, 2, 3, 4)):
        f = factor_of(q.Q)
        kappa = f.lambda_max / f.lambda_min
        prox = iqp.prox_bound(f)
        assert prox == pytest.approx((q.n**2.5 / 4.0) * math.sqrt(kappa))
        squares = sum(g * g for g in f.gdiag)
        assert f.radius == iqp.guarantee_prox(f)
        assert f.radius == pytest.approx(math.sqrt(squares / f.lambda_min) / 2.0, rel=1e-11)
        assert f.gap == pytest.approx(squares / 8.0, rel=1e-11)
        # sum G_jj^2 <= tr Q <= n lambda_max: n^2 / 2 below the paper's radius
        assert f.radius <= (math.sqrt(q.n) / 2.0) * math.sqrt(kappa) * (1.0 + 1e-9)
        if q.n >= 2:
            assert f.radius <= prox
        assert min(prox, f.lambda_max, f.lambda_min, f.radius, f.gap) > 0


def test_guarantee_prox_upgrades_scaled_identity():
    # the paper's 1-D radius 1/4 understates the rounding worst case 1/2,
    # which the proven radius gives; on I_4 it gives sqrt(4)/2, where the
    # paper's formula gives 8
    f = factor_of(np.array([[2.0]]))
    assert iqp.prox_bound(f) == pytest.approx(0.25)
    assert iqp.guarantee_prox(f) == pytest.approx(0.5, rel=1e-11)
    assert iqp.guarantee_prox(factor_of(np.eye(4))) == pytest.approx(1.0, rel=1e-11)


def test_the_radius_of_a_scaled_identity_is_never_below_sqrt_n_over_2():
    # c I_n attains sqrt(n)/2 with u at a cube centre, so that is the least
    # valid radius; the 1e-12 lift keeps it above the rounding of the formula
    # (unlifted, about a fifth of these draws sit one ulp below sqrt(n)/2)
    rng = np.random.default_rng(26)
    for n in range(1, 11):
        for c in 10.0 ** rng.uniform(-11.0, 20.0, size=270):
            f = factor_of(c * np.eye(n))
            half = math.sqrt(n) / 2.0
            assert half <= f.radius <= half * (1.0 + 2e-12), (n, c)
            assert f.gap >= n * c / 8.0, (n, c)


def exactly_positive_definite(Q, shift) -> bool:
    """Whether Q - shift I is positive definite, by an LDL' of the exact
    rationals of Q's entries and the shift."""
    n = len(Q)
    S = [[Fraction(float(Q[i, j])) - (Fraction(shift) if i == j else 0) for j in range(n)] for i in range(n)]
    for k in range(n):
        if S[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            ratio = S[i][k] / S[k][k]
            for j in range(k + 1, n):
                S[i][j] -= ratio * S[k][j]
    return True


def test_the_radius_divides_by_a_floor_below_the_least_eigenvalue():
    # 40 draws of 4 x 4 Q per condition number: Q - lambda_floor I is
    # positive definite in exact arithmetic, so the radius divides by less
    # than the true lambda_min; the computed lambda_min, less a relative
    # 2e-12, is above the true one on some draws (15 of these 120)
    rng = np.random.default_rng(27)
    above = 0
    for cond in (1e2, 1e5, 1e8):
        for _ in range(40):
            f = factor_of(random_quadratic(rng, 4, cond).Q)
            assert exactly_positive_definite(f.Q, iqp.lambda_floor(f)), (cond, f.Q.tolist())
            assert f.radius == math.hypot(*f.gdiag) / (2.0 * math.sqrt(iqp.lambda_floor(f))) * (1.0 + 1e-12)
            above += not exactly_positive_definite(f.Q, f.lambda_min * (1.0 - 2e-12))
    assert above > 0


def test_a_floor_at_or_below_zero_gives_an_infinite_radius():
    # diag(1, 1e-16) passes the Cholesky pivot test, but its computed
    # lambda_min is within the eigensolver's rounding of zero: no finite
    # radius is proven
    f = factor_of(np.diag([1.0, 1e-16]))
    assert iqp.lambda_floor(f) < 0.0
    assert f.radius == math.inf
    assert dataclasses.replace(f, lambda_min=1.0).radius < math.inf


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_radius_and_gap_bound_every_brute_force_minimum(n):
    # Babai's bound holds for every integer minimizer, so for the oracle's
    # too, at any conditioning; a draw whose oracle box outgrows the budget
    # is skipped
    rng = np.random.default_rng(100 + n)
    checked = 0
    for cond in (1.0, 1e2, 1e4, 1e5):
        for _ in range(25):
            q = random_quadratic(rng, n, cond)
            f = factor_of(q.Q)
            try:
                v, _ = iqp.brute_force_min(q)
            except OracleBudgetExceeded:
                continue
            u = iqp.continuous_min(q)
            w = v - u
            slack = 1e-9 * max(1.0, float(np.abs(u).max()))
            assert math.sqrt(float(w @ w)) <= f.radius + slack, (q.Q, q.d)
            assert 0.5 * float(w @ q.Q @ w) <= f.gap + f.lambda_max * slack, (q.Q, q.d)
            checked += 1
    assert checked >= 80


def test_integer_min_scalar_examples():
    v, value = iqp.integer_min(scalar(2.0, -0.9))
    assert v.tolist() == [0] and value == pytest.approx(0.0)
    v, value = iqp.integer_min(scalar(2.0, -20.0))
    assert v.tolist() == [10] and value == pytest.approx(-100.0)


def test_integer_min_tie_breaks_lexicographically():
    # continuous minimizer at the cube center: all four corners cost 0
    q = iqp.Quadratic(np.eye(2), np.array([-0.5, -0.5]))
    v, value = iqp.integer_min(q)
    assert v.tolist() == [0, 0]
    assert value == pytest.approx(0.0, abs=1e-15)
    corner_values = {(0, 0): 0.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}
    for corner, expect in corner_values.items():
        assert q.value(np.array(corner)) == pytest.approx(expect, abs=1e-15)


def test_brute_force_examples():
    v, value = iqp.brute_force_min(scalar(2.0, -0.9), radius=2.0)
    assert v.tolist() == [0] and value == pytest.approx(0.0)
    v, value = iqp.brute_force_min(iqp.Quadratic(np.eye(2), np.zeros(2)), radius=1.0)
    assert v.tolist() == [0, 0] and value == 0.0


@pytest.mark.parametrize("entry", ["integer_min", "continuous_min", "brute_force_min"])
def test_bare_quadratic_entry_points_scan_q_once(entry, monkeypatch):
    # building the Quadratic validates Q; the entry point factors it unscanned
    scans = {"finite": 0, "symmetric": 0}
    as_matrix, symmetric = linalg.as_matrix, linalg._symmetric

    def counting_as_matrix(*args, **kwargs):
        scans["finite"] += 1
        return as_matrix(*args, **kwargs)

    def counting_symmetric(*args, **kwargs):
        scans["symmetric"] += 1
        return symmetric(*args, **kwargs)

    monkeypatch.setattr(linalg, "as_matrix", counting_as_matrix)
    monkeypatch.setattr(linalg, "_symmetric", counting_symmetric)
    Q = np.array([[2.0, 0.5], [0.5, 1.0]])
    getattr(iqp, entry)(iqp.Quadratic(Q, np.array([-0.7, 0.3])))
    assert scans == {"finite": 1, "symmetric": 1}
    with pytest.raises(NotPositiveDefinite):
        getattr(iqp, entry)(iqp.Quadratic(np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros(2)))


def test_brute_force_budget():
    with pytest.raises(OracleBudgetExceeded):
        iqp.brute_force_min(iqp.Quadratic(np.eye(4), np.zeros(4)), radius=50.0, point_budget=1000)


def test_oracle_equivalence_200_random_instances():
    for q in quadratic_corpus(seed=42, count=200, dims=(1, 2, 3, 4)):
        v1, f1 = iqp.integer_min(q)
        v2, f2 = iqp.brute_force_min(q)
        assert f1 == pytest.approx(f2, abs=1e-9), (q.Q, q.d)


def test_proximity_invariants_on_corpus():
    # the proven radius and gap hold on every draw, and for n >= 2 the
    # radius is below the paper's; for n = 1 the paper's 1/4 understates the
    # true worst case 1/2
    for q in quadratic_corpus(seed=42, count=200, dims=(1, 2, 3, 4)):
        v, value = iqp.integer_min(q)
        u = iqp.continuous_min(q)
        f = factor_of(q.Q)
        dist = float(np.linalg.norm(v - u))
        gap = value - q.value(u)
        if q.n >= 2:
            assert f.radius <= iqp.prox_bound(f)
        assert dist <= f.radius + 1e-9
        assert gap <= f.gap + 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_identity_cube_center_achieves_sqrt_n_over_2(n):
    q = iqp.Quadratic(np.eye(n), np.full(n, -0.5))
    v, _ = iqp.integer_min(q)
    u = iqp.continuous_min(q)
    assert float(np.linalg.norm(v - u)) == pytest.approx(math.sqrt(n) / 2.0, abs=1e-12)


def test_translation_invariance():
    rng = np.random.default_rng(9)
    for q in quadratic_corpus(seed=6, count=40, dims=(1, 2, 3)):
        t = rng.integers(-5, 6, size=q.n).astype(np.float64)
        v_base, _ = iqp.integer_min(q)
        shifted = iqp.Quadratic(q.Q, q.d - q.Q @ t)
        v_shift, _ = iqp.integer_min(shifted)
        assert np.array_equal(v_shift, v_base + t.astype(np.int64))


def test_integer_min_matches_oracle_on_larger_dims():
    for q in quadratic_corpus(seed=11, count=20, dims=(5, 6), cond=25.0):
        v1, f1 = iqp.integer_min(q)
        v2, f2 = iqp.brute_force_min(q, point_budget=5_000_000)
        assert f1 == pytest.approx(f2, abs=1e-9)


def test_enumeration_budget_raises():
    q = iqp.Quadratic(np.eye(2), np.array([-0.5, -0.5]))  # tie-rich: no fast path
    with pytest.raises(EnumerationBudgetExceeded):
        iqp.integer_min(q, node_budget=0)


def _numpy_scalar_search(q):
    """The rounding certificate and the zig-zag search with every per-node
    value a numpy array entry or scalar: the form whose results the batched
    certificate and the Python-float search must reproduce bit for bit."""
    f = factor_of(q.Q)
    n, G, gdiag = q.n, f.G, f.gdiag
    u = np.linalg.solve(f.L.T, np.linalg.solve(f.L, -q.d))
    inc = np.rint(u)
    w = inc - u
    best_excess = 0.0
    for j in range(n - 1, -1, -1):
        best_excess += 0.5 * float(G[j, j:] @ w[j:]) ** 2
    best_vec = inc.copy()
    max_frac = float(np.max(np.abs(w)))
    if max_frac < 0.5 and best_excess < 0.999 * 0.5 * f.lambda_min * (1.0 - max_frac) ** 2:
        return best_vec.astype(np.int64)
    x, centers, bases, dirs, acc = (np.zeros(n) for _ in range(5))
    ctr = np.zeros(n, dtype=np.int64)

    def enter(j):
        t = 0.0 if j == n - 1 else float(G[j, j + 1 :] @ (x[j + 1 :] - u[j + 1 :]))
        centers[j] = u[j] - t / gdiag[j]
        bases[j] = np.rint(centers[j])
        dirs[j] = 1.0 if centers[j] >= bases[j] else -1.0
        ctr[j] = 0

    j = n - 1
    enter(j)
    while True:
        k = int(ctr[j])
        step = 0 if k == 0 else ((k + 1) // 2 if k % 2 else -(k // 2))
        cand = bases[j] + dirs[j] * step
        total = acc[j] + 0.5 * (gdiag[j] * (cand - centers[j])) ** 2
        if total > best_excess:
            j += 1
            if j == n:
                return best_vec.astype(np.int64)
            ctr[j] += 1
            continue
        x[j] = cand
        if j == 0:
            if total < best_excess or (total == best_excess and list(x) < list(best_vec)):
                best_excess, best_vec = total, x.copy()
            ctr[0] += 1
        else:
            acc[j - 1] = total
            j -= 1
            enter(j)


# The counter form of the zig-zag search, kept verbatim as the reference:
# the step form of `iqp._enumerate` must reproduce its points, excess bits
# and node counts.
def _reference_enumerate(
    factor: Factor, u: np.ndarray, x0: np.ndarray, excess: float, node_budget: int
) -> tuple[list[float], float]:
    """Zig-zag depth-first search for the integer minimizer around ``u``,
    from the incumbent ``x0 = rint(u)`` and its excess energy ``excess``:
    the minimizer and its excess energy 0.5*||G(x - u)||^2.

    The per-node state lives in Python floats and lists, which perform the
    same IEEE operations as numpy scalars; x - u stays one numpy vector so
    that each row's partial dot is the same BLAS call on the same operands.
    The dots are `ndarray.dot`, not `@`: on 1-D float64 of length >= 2
    both call the same ddot, bit for bit, but `.dot` skips the matmul
    ufunc's dispatch, which costs more than the dot itself at these
    lengths.  At length one numpy multiplies the two entries, the same value
    as ddot's 0 + a*b; only an exact zero can differ in sign, and the
    search never reads that sign: a zero dot moves the center c by a zero,
    `round(c)` returns +0.0 either way, and c enters every cost squared.
    """
    n = factor.n
    gdiag = factor.gdiag
    rows = factor.strict_rows
    us = u.tolist()
    best_excess = excess
    best = x0.tolist()

    xu = np.zeros(n)  # x - u on the coordinates fixed so far
    tails = [xu[j + 1 :] for j in range(n)]
    x = [0.0] * n
    centers = [0.0] * n
    bases = [0.0] * n
    dirs = [0.0] * n
    ctr = [0] * n
    acc = [0.0] * n  # acc[j]: cost of rows j+1..n-1

    nodes = 0
    j = n - 1
    # Entering a level: its conditional center c, the nearest integer (half
    # to even, as np.rint) and the side of c the zig-zag tries first.
    c = us[j]
    b = float(round(c))
    centers[j], bases[j], dirs[j], ctr[j] = c, b, 1.0 if c >= b else -1.0, 0
    while True:
        # k-th candidate around the center: base, base+dir, base-dir, ...
        k = ctr[j]
        if k == 0:
            cand = bases[j]
        elif k % 2 == 1:
            cand = bases[j] + dirs[j] * ((k + 1) // 2)
        else:
            cand = bases[j] - dirs[j] * (k // 2)
        total = acc[j] + 0.5 * (gdiag[j] * (cand - centers[j])) ** 2
        if total > best_excess:
            # zig-zag order is monotone in |cand - center|: level exhausted
            j += 1
            if j == n:
                break
            ctr[j] += 1
            continue
        nodes += 1
        if nodes > node_budget:
            raise EnumerationBudgetExceeded(
                f"enumeration exceeded {node_budget} nodes"
            )
        x[j] = cand
        if j == 0:
            if total < best_excess or (total == best_excess and x < best):
                best_excess = total
                best = x.copy()
            ctr[0] += 1
        else:
            xu[j] = cand - us[j]
            acc[j - 1] = total
            j -= 1
            c = us[j] - float(rows[j].dot(tails[j])) / gdiag[j]
            b = float(round(c))
            centers[j], bases[j], dirs[j], ctr[j] = c, b, 1.0 if c >= b else -1.0, 0
    return best, best_excess


class _CountingBudget:
    """A budget of 10**6 nodes that keeps the largest node count compared
    against it: for a search within it, the smallest int budget that does
    not raise."""

    def __init__(self):
        self.nodes = 0

    def __lt__(self, nodes):  # the search's `nodes > node_budget`, reflected
        self.nodes = max(self.nodes, nodes)
        return nodes > 10**6


def _all_ddot_excess(f, w):
    """The rounded point's excess with every row's partial dot a ddot, the
    last row's one-element dot included."""
    excess = 0.0
    for j in range(f.n - 1, -1, -1):
        excess += 0.5 * float(f.G[j, j:].dot(w[j:])) ** 2
    return excess


def _search_rows():
    """Seeded (Q, u) rows for the search: n = 1..10, condition up to 1e6,
    fractions near and exactly at +-1/2 over whole parts up to 1e12, and
    small integer Qs with half-integer minimizers, whose co-optimal points
    tie exactly."""
    rng = np.random.default_rng(2024)
    rows = []
    for trial in range(1200):
        n = 1 + trial % 10
        cond = 10.0 ** rng.uniform(0.0, 6.0)
        Q = quadratic_corpus(seed=10_000 + trial, count=1, dims=(n,), cond=cond)[0].Q
        base = np.rint(rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.uniform(0, 12))
        frac = rng.uniform(-0.5, 0.5, size=n) * rng.choice([0.02, 0.3, 1.0])
        frac = np.where(rng.random(size=n) < 0.15, np.where(frac < 0.0, -0.5, 0.5), frac)
        rows.append((Q, base + np.round(frac * 4096.0) / 4096.0))
    for trial in range(300):
        n = 1 + trial % 8
        A = rng.integers(-1, 2, size=(n, n)).astype(np.float64)
        Q = A @ A.T + rng.integers(1, 3) * np.eye(n)
        rows.append((Q, rng.integers(-6, 7, size=n) / 2.0))
    return rows


def test_step_search_matches_the_counter_search_point_excess_and_budget():
    # the same point, the same excess bits and the same smallest node budget
    # that does not raise, on every row
    most = 0
    for Q, u in _search_rows():
        # the Cholesky frame: node counts and excess bits are that frame's
        f = dataclasses.replace(factor_of(Q), reduced=None)
        x0 = np.rint(u)
        excess = _all_ddot_excess(f, x0 - u)
        want_budget, got_budget = _CountingBudget(), _CountingBudget()
        want = _reference_enumerate(f, u, x0, excess, want_budget)
        scratch = iqp._scratch(len(u))
        got = iqp._enumerate(f, u, x0, excess, got_budget, scratch)
        assert got[0] == want[0] and got[1].hex() == want[1].hex(), (Q, u)
        nodes = want_budget.nodes
        assert got_budget.nodes == nodes, (Q, u)
        assert iqp._enumerate(f, u, x0, excess, nodes, scratch) == got
        if nodes:
            with pytest.raises(EnumerationBudgetExceeded):
                iqp._enumerate(f, u, x0, excess, nodes - 1, scratch)
        most = max(most, nodes)
    assert most > 100


def test_ndarray_dot_is_bitwise_matmul_on_vectors():
    # the search takes its dots with `ndarray.dot`, and the numpy scalar
    # reference above with `@`.  On 1-D float64 of length >= 2 both reach the
    # same BLAS ddot, so every bit agrees, the sign of a zero result
    # included.  numpy treats a one-element operand as a scalar and returns
    # the IEEE product a*b, where ddot returns 0 + a*b: the values agree and
    # only an exact zero may differ in sign.
    rng = np.random.default_rng(41)
    for trial in range(4000):
        n = 1 + trial % 12
        a, b = (
            rng.choice([-1.0, 1.0], size=n)
            * rng.uniform(1.0, 10.0, size=n)
            * 10.0 ** rng.integers(-5, 13, size=n)
            * (rng.random(size=n) > 0.25)
            for _ in range(2)
        )
        got, want = a.dot(b), a @ b
        if n == 1:
            assert got == want and (got.tobytes() == want.tobytes() or got == 0.0), (a, b)
        else:
            assert got.tobytes() == want.tobytes(), (a, b)
    for zeros in ([0.0, -0.0], [-0.0, -0.0, 0.0], [0.0] * 12):
        a = np.array(zeros)
        for b in (a, -a, np.ones_like(a), -np.ones_like(a)):
            assert a.dot(b).tobytes() == (a @ b).tobytes(), (a, b)


def test_search_ignores_the_sign_of_a_zero_dot():
    # Q = diag(2, 4) and u = (-0.0, 0.5): the search fixes x_1 = 0, so the
    # one-element dot G[0, 1] * (x_1 - u_1) is -0.0 by `ndarray.dot` and
    # +0.0 by `@`, and the center of x_0 is +0.0 against -0.0.  The center
    # is rounded by `round`, which returns +0.0 for both, and enters every
    # cost squared, so the minimizer is bitwise the reference's.
    q = iqp.Quadratic(np.diag([2.0, 4.0]), np.array([0.0, -2.0]))
    f = factor_of(q.Q)
    u = np.linalg.solve(f.L.T, np.linalg.solve(f.L, -q.d))
    assert np.signbit(u[0]) and u[1] == 0.5
    row, tail = f.G[0, 1:], np.array([0.0 - u[1]])
    assert np.signbit(row.dot(tail)) and not np.signbit(row @ tail)
    v, value = iqp.integer_min(q)
    assert v.tobytes() == _numpy_scalar_search(q).tobytes()
    assert v.tolist() == [0, 0] and value == 0.0


def test_a_one_element_dot_is_the_plain_product():
    # the last row of the rounded point's excess and the search's level
    # n - 2 take their one-term dot as the Python product a * b: numpy's
    # one-element dot in value, and in bits wherever it is not a zero
    rng = np.random.default_rng(43)
    size = 20_000
    a, b = (
        rng.choice([-1.0, 1.0], size=size)
        * rng.uniform(1.0, 10.0, size=size)
        * 10.0 ** rng.integers(-165, 150, size=size)
        * (rng.random(size=size) > 0.1)
        for _ in range(2)
    )
    specials = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e-200, -1e-200, 1e150, -1e150]
    pairs = list(zip(a.tolist(), b.tolist())) + [(x, y) for x in specials for y in specials]
    for x, y in pairs:
        got, want = x * y, float(np.array([x]).dot(np.array([y])))
        assert got == want, (x, y)
        if want != 0.0:
            assert got.hex() == want.hex(), (x, y)


def test_the_rounded_points_excess_is_bitwise_the_all_ddot_sum():
    # with every certificate constant zero, each row reaches the search,
    # which receives the excess lattice_mins summed, its last row's term a
    # plain product
    seen = []
    # 60 centres per quadratic, its own and 59 shifted ones: x ** 2 and
    # x * x part on about 1 float in 1,300, so a few thousand rows tell them
    # apart
    rng = np.random.default_rng(37)
    for q in quadratic_corpus(seed=31, count=140, dims=(1, 2, 3, 4, 5, 8, 10), cond=1e4):
        f = factor_of(q.Q)
        object.__setattr__(f, "cert", [0.0] * q.n)
        u = linalg.solve_with_factor(f.L, -q.d)
        U = np.vstack([u, u + rng.uniform(-50.0, 50.0, size=(59, q.n))])
        seen.clear()
        with searches(lambda factor, u, x0, excess: seen.append(excess)):
            iqp.lattice_mins((f,) * len(U), U)
        assert [e.hex() for e in seen] == [_all_ddot_excess(f, np.rint(u) - u).hex() for u in U]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_row_fails_the_certificate_at_any_coordinate(bad):
    # the certificate's comparisons are all false on a NaN excess, so the
    # row reaches the search, whose round() names it as a non-finite centre
    f = factor_of(np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]]))
    for j in range(3):
        U = np.array([[0.1, 0.2, 0.3], [0.4, -0.2, 7.0], [1.1, 2.2, 3.3]])
        U[1, j] = bad
        with pytest.raises(NonFiniteCentre, match="^row 1: "), np.errstate(invalid="ignore"):
            iqp.lattice_mins((f,) * 3, U, labels=("row 0", "row 1", "row 2"))


def test_batched_certificate_and_search_match_a_numpy_scalar_reference():
    # random quadratics, and small integer Qs with half-integer minimizers,
    # whose co-optimal points tie exactly; one at a time and stacked by
    # dimension, the results must be bitwise the reference's
    rng = np.random.default_rng(17)
    cases = quadratic_corpus(seed=23, count=120, dims=(1, 2, 3, 5, 8), cond=1e3)
    for n in (1, 2, 3, 4):
        for _ in range(25):
            A = rng.integers(-1, 2, size=(n, n)).astype(np.float64)
            Q = A @ A.T + rng.integers(1, 3) * np.eye(n)
            cases.append(iqp.Quadratic(Q, -Q @ (rng.integers(-6, 7, size=n) / 2.0)))
    by_dim: dict[int, list] = {}
    for q in cases:
        ref = _numpy_scalar_search(q)
        v, _ = iqp.integer_min(q)
        assert v.dtype == np.int64 and np.array_equal(v, ref), (q.Q, q.d)
        by_dim.setdefault(q.n, []).append((q, ref))
    for group in by_dim.values():
        factors = tuple(factor_of(q.Q) for q, _ in group)
        U = np.array([linalg.solve_with_factor(f.L, -q.d) for f, (q, _) in zip(factors, group)])
        assert np.array_equal(iqp.lattice_mins(factors, U), np.array([ref for _, ref in group]))


def test_per_coordinate_certificate_is_sound_and_never_weaker():
    # rows the certificate answers without a search must have rint(u) as
    # their unique minimizer, by the exhaustive oracle, and every row the
    # former smallest-eigenvalue guard answered must still be answered.
    # Some fractional parts are exactly +-1/2: the certificate has no
    # max|w| < 1/2 clause, and such a row must still be searched, since
    # rint(u) itself then pays the energy it compares against.
    searched = []
    rng = np.random.default_rng(59)
    accepted = old_accepted = rows = halves = 0
    for trial in range(240):
        n = 1 + trial % 6
        cond = 10.0 ** rng.uniform(0.0, 6.0)
        Q = quadratic_corpus(seed=trial, count=1, dims=(n,), cond=cond)[0].Q
        f = factor_of(Q)
        factors = (f,) * 8
        # a whole vector of magnitude up to 1e12 plus fractions near and away
        # from 1/2, multiples of 2^-12 so that u is exact at that magnitude
        base = np.rint(rng.uniform(-1.0, 1.0, size=(8, n)) * 10.0 ** rng.uniform(0, 12, size=(8, 1)))
        frac = rng.uniform(-0.5, 0.5, size=(8, n)) * rng.choice([0.02, 0.3, 1.0], size=(8, 1))
        near = rng.random(size=(8, n)) < 0.2
        frac = np.where(near, np.sign(frac) * (0.5 - 2.0 ** -rng.integers(2, 12, size=(8, n))), frac)
        frac = np.round(frac * 4096.0) / 4096.0
        half = rng.random(size=(8, n)) < 0.08
        frac = np.where(half, np.where(frac < 0.0, -0.5, 0.5), frac)
        U = base + frac
        searched.clear()
        with searches(lambda factor, u, x0, excess: searched.append(np.asarray(u).tobytes())):
            iqp.lattice_mins(factors, U)
        for r in range(8):
            rows += 1
            w = np.rint(U[r]) - U[r]
            t = f.G @ w
            excess = 0.5 * float(t @ t)
            max_frac = float(np.abs(w).max())
            old = max_frac < 0.5 and excess < 0.999 * 0.5 * f.lambda_min * (1.0 - max_frac) ** 2
            halves += max_frac == 0.5
            if U[r].tobytes() in searched:
                assert not old, (Q, U[r])
                continue
            assert max_frac < 0.5, (Q, U[r])
            accepted += 1
            old_accepted += old
            # the translated problem around the fractional part
            x, _ = iqp.brute_force_min(iqp.Quadratic(Q, -Q @ (U[r] - base[r])))
            assert np.array_equal(x + base[r].astype(np.int64), np.rint(U[r])), (Q, U[r])
    assert rows == 1920 and accepted > old_accepted > 500 and halves > 200


@pytest.mark.parametrize("s", [1.0, 1e-6, 1e-11])
def test_the_gap_postcondition_holds_at_every_cost_scale(s):
    # with its gap bound forced to zero, every row's excess breaks the
    # postcondition; the slack scales with the factor, so a cost scale of
    # 1e-11 (true excess about 2.1e-11) must not hide the violation
    Q = s * np.array([[2.0, 0.3], [0.3, 1.0]])
    d = s * np.array([0.37, -0.81])
    f = factor_of(Q)
    object.__setattr__(f, "gap", 0.0)
    object.__setattr__(f, "gap_limit", 0.0)  # the postcondition reads the limit, taken once per factor
    u = linalg.solve_with_factor(f.L, -d)
    with pytest.raises(ProximityViolation, match="objective gap"):
        iqp.lattice_mins((f,), u[None])


def test_the_stacked_frame_is_the_per_row_frame_on_the_corpus():
    # each quadratic's own centre and 19 shifted ones, with the certificate
    # as it is and with every row sent to the search: the same points, and
    # the same centres, incumbents and excess bits handed to the search
    rng = np.random.default_rng(61)
    searched = 0
    for q in quadratic_corpus(seed=31, count=140, dims=(1, 2, 3, 4, 5, 8, 10), cond=1e4):
        f = factor_of(q.Q)
        u = linalg.solve_with_factor(f.L, -q.d)
        U = np.vstack([u, u + rng.uniform(-50.0, 50.0, size=(19, q.n))])
        for g in (f, dataclasses.replace(f, cert=[0.0] * q.n)):
            searched += frames_agree((g,) * len(U), U)
    # every row with the certificate off, and some with it on
    assert searched > 140 * 20


def test_the_stacked_frame_is_the_per_row_frame_on_stacked_groups():
    # four distinct Qs per group at n = 1..40 (n >= 16 takes the per-level
    # dots), over whole parts up to 1e9, fractions near 0, near 1/2 and
    # exactly 1/2, with the certificate as it is and with every row searched
    rng = np.random.default_rng(63)
    searched = 0
    for n in range(1, 41):
        factors = tuple(factor_of(q.Q) for q in quadratic_corpus(seed=n, count=4, dims=(n,), cond=10.0))
        G = np.stack([f.G for f in factors])
        base = np.rint(rng.uniform(-1.0, 1.0, size=(4, n)) * 10.0 ** rng.uniform(0, 9, size=(4, 1)))
        frac = rng.uniform(-0.5, 0.5, size=(4, n)) * np.array([[0.02], [0.1], [0.02], [0.1]])
        frac[2:, : min(n, 2)] = 0.5 - 2.0**-10  # near 1/2: rows the certificate sends to the search
        frac[3, -1] = -0.5
        U = base + np.round(frac * 4096.0) / 4096.0
        for fs in (factors, tuple(dataclasses.replace(f, cert=[0.0] * n) for f in factors)):
            searched += frames_agree(fs, U, G)
    # every row with the certificate off, and most near-1/2 rows with it on
    assert searched > 40 * 5


def _blas_name() -> str:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


@pytest.mark.skipif(
    "openblas" not in _blas_name().lower(),
    reason="OpenBLAS's ddot below length 16 is one chain of fused multiply-adds; other BLAS libraries may block it",
)
def test_leading_zeros_leave_a_dot_below_length_16_unchanged():
    # lattice_mins takes the last min(n, 15) levels' dots in one vecdot over
    # rows G[j, n - 15:], zeros before the diagonal, and each earlier level's
    # on the slice G[j, j:]; each is bitwise the slice's ddot.  A row padded
    # to 16 terms or more is not: from length 16 the kernel blocks.
    rng = np.random.default_rng(67)
    m = 100
    for n in (*range(1, 18), 20, 24, 31, 32, 40, 64):
        G = np.triu(rng.standard_normal((m, n, n)) * 10.0 ** rng.integers(-3, 4, size=(m, n, n)))
        W = rng.uniform(-0.5, 0.5, size=(m, n))
        a = max(0, n - 15)
        window = np.vecdot(G[:, a:, a:], W[:, None, a:])
        levels = [np.vecdot(G[:, j, j:], W[:, j:]) for j in range(a)]
        padded = np.vecdot(G, W[:, None])
        differ = 0
        for r in range(m):
            slices = [G[r, j, j:].dot(W[r, j:]) for j in range(n)]
            for j in range(a, n):
                assert window[r, j - a].tobytes() == slices[j].tobytes(), (n, r, j)
            for j in range(a):
                assert levels[j][r].tobytes() == slices[j].tobytes(), (n, r, j)
            differ += sum(padded[r, j].tobytes() != slices[j].tobytes() for j in range(n))
        assert (differ > 0) == (n >= 16), (n, differ)


def test_a_search_centre_of_2_52_or_more_is_a_typed_error_before_any_node():
    # u = (2^60, 1/2) reaches the search, whose unit steps at 2^60 round back
    # onto the same float: it searched 134 nodes and returned (2^60, 0).  With
    # a budget of no node, the error shows that it raises before the search.
    f = factor_of(np.array([[2.0, 0.5], [0.5, 1.0]]))
    for big in (2.0**60, 2.0**52, -(2.0**52)):
        with pytest.raises(CentreTooLarge, match="^row 0: .*2\\^52"):
            iqp.lattice_mins((f,), np.array([[big, 0.5]]), node_budget=0, labels=("row 0",))
    # a non-finite entry is still a non-finite centre, beside any other
    for bad in (math.nan, math.inf):
        with pytest.raises(NonFiniteCentre), np.errstate(invalid="ignore"):
            iqp.lattice_mins((f,), np.array([[2.0**60, bad]]))
    # a certified row pays no check, and below 2^52 the search runs
    assert iqp.lattice_mins((f,), np.array([[2.0**60, 0.1]])).tolist() == [[2**60, 0]]
    x = iqp.lattice_mins((f,), np.array([[2.0**52 - 0.5, 0.5]]))
    assert np.abs(x - [2**52, 0]).max() <= 1


def _rounded_by_the_search(centre):
    """The point of the first leaf of a search around ``centre`` with Q = I:
    its rounded centre at every level, as the search computes it, the
    generated search's and `_zigzag`'s alike."""
    f = factor_of(np.eye(len(centre)))
    assert f.reduced is None and not f.corner and not any(map(np.any, f.strict_rows))
    leaves = []
    for search in (iqp._kernels(len(centre))[0], iqp._zigzag):
        keep = []
        search(f, list(centre), [0.0] * len(centre), math.inf, 10**6, iqp._scratch(len(centre)), 0.0, keep)
        leaves.append(keep[0][1])
    assert [x.hex() for x in leaves[0]] == [x.hex() for x in leaves[1]], centre
    return leaves[0]


def test_the_search_rounds_each_centre_bitwise_as_round_does():
    # below 2^51 in magnitude the search rounds c by adding and taking away
    # 1.5 * 2^52, and beyond by float(round(c)): on half-integers, the signed
    # zeros, the values next to +-2^51 and seeded reals, the first leaf of a
    # 3-variable search with Q = I holds float(round(c)) at each level, the
    # first level's, the one-product corner level's and a dot level's,
    # sign of zero included
    limit = 2.0**51
    values = [k + 0.5 for k in range(-1000, 1000)] + [0.0, -0.0, 1e-300, -1e-300, 0.49999999999999994, -0.49999999999999994]
    for v in (limit, -limit, 2.0 * limit, -2.0 * limit):
        for step in (-1.5, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 1.5):
            values.append(v + step)
        values += [math.nextafter(v, math.inf), math.nextafter(v, -math.inf)]
    rng = np.random.default_rng(113)
    values += (rng.uniform(-1.0, 1.0, size=6000) * 10.0 ** rng.uniform(-3.0, 16.5, size=6000)).tolist()
    shuffled = rng.permutation(np.array(values)).tolist()
    rounded = 0
    for centre in zip(values, shuffled, values[::-1]):
        got = _rounded_by_the_search(centre)
        assert [x.hex() for x in got] == [float(round(c)).hex() for c in centre], centre
        rounded += 3
    assert rounded == 3 * len(values) > 20_000


def test_a_non_finite_centre_is_named_in_the_reduced_frame_too():
    # the shifted rounding never sees a NaN or infinite centre: it reaches
    # round(), which names it, through the reduced frame's start as well as
    # in the Cholesky frame (test_a_non_finite_row_fails_the_certificate_at_any_coordinate)
    rng = np.random.default_rng(127)
    f = reduced(factor_of(random_quadratic(rng, 6, 1e3).Q))
    for bad in (math.nan, math.inf, -math.inf):
        for j in range(6):
            U = rng.uniform(-9.0, 9.0, size=(2, 6))
            U[1, j] = bad
            with pytest.raises(NonFiniteCentre, match="^row 1: "), np.errstate(invalid="ignore"):
                iqp.lattice_mins((f,) * 2, U, labels=("row 0", "row 1"))


# The reduced frame must return the Cholesky frame's point on every search:
# the checks below compare it with the counter form `_reference_enumerate`,
# which reads the factor's Cholesky frame only.


def reduced_frame(factor):
    """``factor``'s LLL-reduced frame, whether or not it pays: T and its
    inverse are integer matrices whose product is exactly I."""
    frame = iqp.reduced_frame(factor)
    assert frame is not None
    T, Tinv = frame.T.astype(np.int64), frame.Tinv.astype(np.int64)
    assert np.array_equal(frame.T, T) and np.array_equal(frame.Tinv, Tinv)
    assert np.array_equal(T @ Tinv, np.eye(factor.n, dtype=np.int64))
    return frame


def reduced(factor):
    """``factor`` in its LLL-reduced frame."""
    return dataclasses.replace(factor, reduced=reduced_frame(factor))


class _CappedBudget:
    """A node budget that raises past ``cap`` nodes."""

    def __init__(self, cap):
        self.cap = cap

    def __lt__(self, nodes):  # the search's `nodes > node_budget`, reflected
        return nodes > self.cap


def reduced_frame_draws(seed: int, count: int):
    """Seeded (Q, u) rows for the reduced frame: n = 2..20, condition 1 to
    1e6, whole parts of magnitude 1 to 1e13, and fractions anywhere in
    [-1/2, 1/2], near 1/2 and exactly 1/2."""
    rng = np.random.default_rng(seed)
    for trial in range(count):
        n = 2 + trial % 19
        Q = random_quadratic(rng, n, 10.0 ** rng.uniform(0.0, 6.0)).Q
        base = np.rint(rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.uniform(0.0, 13.0))
        frac = rng.uniform(-0.5, 0.5, size=n)
        frac = np.where(rng.random(size=n) < 0.1, np.sign(frac) * (0.5 - 2.0**-20), frac)
        frac = np.where(rng.random(size=n) < 0.1, 0.5, frac)
        yield Q, base + frac


def check_reduced_rows(rows, cap=None) -> tuple[int, int]:
    """For each (Q, u): the reduced frame's point is the reference's, and
    `iqp._energy` of a point the search found is the excess it reported, bit
    for bit.  A row whose reference search passes ``cap`` nodes is skipped.
    The rows compared and skipped."""
    compared = skipped = 0
    for Q, u in rows:
        f = factor_of(Q)
        g = reduced(f)
        x0 = np.rint(u)
        excess = _all_ddot_excess(f, x0 - u)
        try:
            want, want_excess = _reference_enumerate(f, u, x0, excess, 10**9 if cap is None else _CappedBudget(cap))
        except EnumerationBudgetExceeded:
            skipped += 1
            continue
        got, _ = iqp._enumerate(g, u.tolist(), x0.tolist(), excess, 10**9, iqp._scratch(len(u)))
        assert got == want, (Q.tolist(), u.tolist())
        if want_excess != excess:
            assert iqp._energy(f, u.tolist(), want).hex() == want_excess.hex(), (Q.tolist(), u.tolist())
        compared += 1
    return compared, skipped


def test_the_reduced_frame_gives_the_reference_point_on_seeded_draws():
    # n = 2..20 at condition up to 1e6 and centres up to 1e13; a reference
    # search past 5e4 nodes is left to CI's large draws
    compared, skipped = check_reduced_rows(reduced_frame_draws(71, 190), cap=50_000)
    assert compared >= 170 and skipped <= 20


def test_exact_ties_in_the_reduced_frame_break_as_in_the_cholesky_frame():
    # Q = 2I with half-integer centres: every corner of the cube around u
    # has the same exact energy.  An integer Q with u midway between two
    # lattice points: they tie exactly.  In both, the reduced frame returns
    # the reference's point, an exact minimizer, and the least exact
    # minimizer in the search's order: computed energy, then the point.
    rng = np.random.default_rng(73)
    rows = []
    for trial in range(60):
        n = 2 + trial % 5
        u = rng.integers(-9, 10, size=n) + np.where(rng.random(size=n) < 0.6, 0.5, 0.0)
        u[trial % n] += 0.5
        rows.append((2.0 * np.eye(n), u))
    for trial in range(120):
        n = 2 + trial % 4
        A = rng.integers(-2, 3, size=(n, n)).astype(np.float64)
        Q = A @ A.T + rng.integers(1, 3) * np.eye(n)
        v = rng.integers(-1, 2, size=n)
        v[trial % n] = 1
        rows.append((Q, rng.integers(-20, 21, size=n) + v / 2.0))
    ties = 0
    for Q, u in rows:
        f = factor_of(Q)
        g = reduced(f)
        x0 = np.rint(u)
        excess = _all_ddot_excess(f, x0 - u)
        want, _ = _reference_enumerate(f, u, x0, excess, 10**8)
        got, _ = iqp._enumerate(g, u.tolist(), x0.tolist(), excess, 10**8, iqp._scratch(len(u)))
        assert got == want, (Q.tolist(), u.tolist())
        # exact objectives in integers: 2 f(x) - x'Qx is -2 x'Q u, and 2u is integral
        Qi, u2 = Q.astype(np.int64), (2.0 * u).astype(np.int64)
        box = [np.arange(int(math.floor(c)) - 2, int(math.ceil(c)) + 3) for c in u]
        X = np.stack([a.ravel() for a in np.meshgrid(*box, indexing="ij")], axis=1)
        exact = np.einsum("ij,jk,ik->i", X, Qi, X) - X @ (Qi @ u2)
        best = X[exact == exact.min()]
        assert any(list(map(float, x)) == got for x in best), (Q.tolist(), u.tolist())
        # the search's order: (computed energy, point), with rint(u) at the
        # certificate's excess beside its own
        pairs = [(iqp._energy(f, u.tolist(), x), x) for x in (list(map(float, x)) for x in best)]
        if any(x == x0.tolist() for _, x in pairs):
            pairs.append((excess, x0.tolist()))
        assert got == min(pairs)[1], (Q.tolist(), u.tolist())
        ties += sum(e == min(pairs)[0] for e, _ in pairs) > 1
    assert ties > 60


def load_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_search_in_the_reduced_frame_is_the_reference_point(monkeypatch):
    # every factor of pools 0, 3 and 11 of the benchmark's three workloads
    # takes the reduced frame; every search the solves make returns the
    # reference's point, and nearly all of them run in that frame
    workloads = load_workloads()
    monkeypatch.setattr(iqp, "_choose_frame", reduced_frame)
    calls = []
    frames = {"reduced": 0, "cholesky": 0}
    search, start_ = iqp._enumerate, iqp._reduced_start

    def recording(factor, us, x0, excess, node_budget, scratch):
        found = search(factor, us, x0, excess, node_budget, scratch)
        calls.append((factor, us, x0, excess, found[0]))
        return found

    def counting(reduced_, us, x0, excess):
        start = start_(reduced_, us, x0, excess)
        frames["cholesky" if start is None else "reduced"] += 1
        return start

    monkeypatch.setattr(iqp, "_enumerate", recording)
    monkeypatch.setattr(iqp, "_reduced_start", counting)
    for workload in workloads.WORKLOADS:
        for pool in (0, 3, 11):
            for name, inst, start in workloads.build_jobs(workload, pool):
                assert all(f.reduced is not None for f in inst.factors), name
                cli.solve_pipeline(inst, start=start)
    for factor, us, x0, excess, x in calls:
        assert x == _reference_enumerate(factor, np.array(us), np.array(x0), excess, 10**8)[0], (factor.Q, us)
    assert len(calls) == sum(frames.values()) > 100_000
    assert frames["cholesky"] < 0.05 * len(calls)


def cholesky_search_mismatches(workload: str, pool: int) -> tuple[int, list]:
    """(searches, mismatches) of the solves of one benchmark pool with every
    factor in the Cholesky frame: each search `iqp.lattice_mins` starts must
    return the point and the excess bits of `_reference_enumerate`, the
    counter search with ``float(round(c))`` and its own x - u buffer.  The
    searches are recorded at the search `iqp._kernels` returns."""
    workloads = load_workloads()
    calls = []
    choose, kernels = iqp._choose_frame, iqp._kernels

    def kernelling(n):
        search, certify = kernels(n)

        def recording(frame, us, x0, excess, node_budget, *rest):
            found = search(frame, us, x0, excess, node_budget, *rest)
            calls.append((frame, us, x0, excess, found))
            return found

        return recording, certify

    iqp._choose_frame, iqp._kernels = (lambda factor: None), kernelling
    try:
        for name, inst, start in workloads.build_jobs(workload, pool):
            assert all(f.reduced is None for f in inst.factors), name
            cli.solve_pipeline(inst, start=start)
    finally:
        iqp._choose_frame, iqp._kernels = choose, kernels
    mismatches = []
    for factor, us, x0, excess, (x, got) in calls:
        want, want_excess = _reference_enumerate(factor, np.array(us), np.array(x0), excess, 10**8)
        if x != want or got.hex() != want_excess.hex():
            mismatches.append((workload, pool, us))
    return len(calls), mismatches


def test_every_workload_search_in_the_cholesky_frame_is_the_reference_point():
    # the factors of pools 0 and 3 of the benchmark's three workloads, all
    # in the Cholesky frame: every search the solves make returns the
    # reference's point and excess, bit for bit.  CI runs all 16 pools.
    searched = 0
    for workload in load_workloads().WORKLOADS:
        for pool in (0, 3):
            count, mismatches = cholesky_search_mismatches(workload, pool)
            assert not mismatches, mismatches[:5]
            searched += count
    assert searched > 50_000


@pytest.mark.parametrize("frame", ["cholesky", "reduced"])
def test_a_budget_stop_names_the_row_in_both_frames(frame):
    # a search past its node budget raises EnumerationBudgetExceeded naming
    # the row, as the other errors of lattice_mins do, in whichever frame
    # runs; the nodes counted are that frame's
    rng = np.random.default_rng(79)
    q = random_quadratic(rng, 8, 1e4)
    f = factor_of(q.Q)
    f = dataclasses.replace(f, reduced=None) if frame == "cholesky" else reduced(f)
    # rows 0 and 2 are lattice points, which the certificate answers; row 1
    # has a fraction of 1/2, which it cannot
    U = np.rint(rng.uniform(-5.0, 5.0, size=(3, 8)))
    U[1] += rng.uniform(-0.5, 0.5, size=8)
    U[1, 0] = 0.5 + np.rint(U[1, 0])
    with pytest.raises(EnumerationBudgetExceeded, match=r"^player 4: enumeration exceeded 2 nodes$"):
        iqp.lattice_mins((f,) * 3, U, node_budget=2, labels=("player 3", "player 4", "player 5"))
    with pytest.raises(EnumerationBudgetExceeded, match=r"^enumeration exceeded 2 nodes$"):
        iqp.lattice_mins((f,), U[1:2], node_budget=2)


# The generated kernels: one search and one certificate per dimension,
# compiled by `iqp._kernels`.  `iqp._zigzag` and `_reference_enumerate` are
# the references for the search, and the former per-row loops of
# `lattice_mins` (`_former_certificate`) for the certificate.


def _former_certificate(cert, ws, ds):
    """The rounding certificate as two loops, kept verbatim as the
    reference of the generated one: the excess summed from the last row
    up, then the tests in j order."""
    excess = 0.0
    for t in reversed(ds):
        excess += 0.5 * t ** 2
    for c, t in zip(cert, ws):
        if not excess < c * (1.0 - abs(t)) ** 2:
            return excess, False
    return excess, True


def _bits(value):
    """``value`` with every float as its hex, lists and tuples as lists."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    return value


def _run(search, frame, us, x0, excess, budget, window, keep):
    """What one search gives: ("ok", point, excess, kept leaves) with every
    float as hex, or ("raised", type, message)."""
    kept = None if keep is None else []
    try:
        x, found = search(frame, us, x0, excess, budget, iqp._scratch(len(us)), window, kept)
    except (ArithmeticError, ValueError, EnumerationBudgetExceeded) as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", _bits(x), found.hex(), _bits(kept))


def _kernel_draws(seed: int, per_n: int):
    """Seeded (Q, u) rows for every n up to the nesting limit: condition up
    to 1e3, whole parts up to 1e12, fractions anywhere in [-1/2, 1/2] and
    exactly 1/2, and a coordinate beyond 2^51 in every fourth row, where
    the search rounds with round()."""
    rng = np.random.default_rng(seed)
    for n in range(1, iqp._NESTING_LIMIT + 1):
        for trial in range(per_n):
            Q = random_quadratic(rng, n, 10.0 ** rng.uniform(0.0, 3.0)).Q
            u = np.rint(rng.uniform(-1.0, 1.0, size=n) * 10.0 ** rng.uniform(0.0, 12.0))
            frac = rng.uniform(-0.5, 0.5, size=n)
            u += np.where(rng.random(size=n) < 0.1, 0.5, frac)
            if trial % 4 == 3:
                u[rng.integers(n)] = rng.choice([-1.0, 1.0]) * (2.0**51 + 2.0 * rng.integers(1, 2**49) + 0.5)
            yield Q, u


def _kernel_searches(Q, u):
    """The searches to compare on one draw: (frame, centre, incumbent,
    excess, window, keep) in the Cholesky frame with no window, as
    `lattice_mins` runs it, and in the LLL-reduced frame (from n = 2), as
    `_enumerate` runs it, at a window that keeps nothing but the best, one
    that keeps some leaves and one past which `_KEPT` leaves stop it."""
    f = factor_of(Q)
    x0 = np.rint(u)
    excess = _all_ddot_excess(f, x0 - u)
    yield f, u.tolist(), x0.tolist(), excess, 0.0, None
    frame = iqp.reduced_frame(f) if f.n > 1 else None
    if frame is not None:
        centre = frame.Tinv.dot(u - x0).tolist()
        for scale in (0.0, 0.05, 4.0):
            slack = scale * excess
            yield frame, centre, [0.0] * f.n, excess + slack, 2.0 * slack, []


def test_every_dimension_up_to_the_nesting_limit_compiles_and_the_next_takes_zigzag():
    # each n up to the limit has its own generated search and certificate,
    # named for its dimension in profiles and tracebacks; above the limit,
    # where CPython's 20 nested blocks run out, the search is `_zigzag`
    for n in range(1, iqp._NESTING_LIMIT + 1):
        search, certify = iqp._kernels(n)
        assert search is not iqp._zigzag
        assert search.__code__.co_filename == f"<icqs.iqp search n={n}>"
        assert certify.__code__.co_filename == f"<icqs.iqp certify n={n}>"
        assert iqp._search_source(n).count("while True:") == n
        assert iqp._kernels(n) == (search, certify)
    search, certify = iqp._kernels(iqp._NESTING_LIMIT + 1)
    assert search is iqp._zigzag
    assert certify.__code__.co_filename == f"<icqs.iqp certify n={iqp._NESTING_LIMIT + 1}>"


def test_the_generated_search_is_zigzag_and_the_reference_in_both_frames():
    # on seeded draws of every n up to the limit, in the Cholesky frame and
    # the reduced frame at three windows: the same point, excess bits and
    # kept leaves as `_zigzag`, and in the Cholesky frame the reference's
    # point and excess; the same smallest node budget that does not raise,
    # and an EnumerationBudgetExceeded one node below it
    compared = kept = full = 0
    for Q, u in _kernel_draws(2033, 8):
        for frame, us, x0, excess, window, keep in _kernel_searches(Q, u):
            search = iqp._kernels(len(us))[0]
            budgets = _CountingBudget(), _CountingBudget()
            got = _run(search, frame, us, x0, excess, budgets[0], window, keep)
            want = _run(iqp._zigzag, frame, us, x0, excess, budgets[1], window, keep)
            assert got == want, (Q.tolist(), u.tolist(), window)
            assert got[0] == "ok", got
            nodes = budgets[1].nodes
            assert budgets[0].nodes == nodes > 0
            assert _run(search, frame, us, x0, excess, nodes, window, keep) == got
            for s in (search, iqp._zigzag):
                stop = _run(s, frame, us, x0, excess, nodes - 1, window, keep)
                assert stop == ("raised", EnumerationBudgetExceeded, f"enumeration exceeded {nodes - 1} nodes")
            if keep is None:
                point, found = _reference_enumerate(frame, u, np.rint(u), excess, 10**9)
                assert got[1:3] == (_bits(point), found.hex()), (Q.tolist(), u.tolist())
            else:
                kept += len(got[3]) > 1
                full += len(got[3]) > iqp._KEPT
            compared += 1
    assert compared > 600 and kept > 200 and full > 100


def test_the_generated_search_raises_as_zigzag_on_non_finite_centres():
    # a NaN or infinite entry at any level, with the certificate's NaN
    # excess or an infinite one: the search reaches round() of a NaN or
    # infinite centre and raises what `_zigzag` raises, with its message
    rng = np.random.default_rng(2039)
    raised = 0
    for n in range(1, iqp._NESTING_LIMIT + 1):
        f = factor_of(random_quadratic(rng, n, 10.0).Q)
        for bad in (math.nan, math.inf, -math.inf):
            for excess in (math.nan, math.inf):
                us = rng.uniform(-9.0, 9.0, size=n).tolist()
                us[rng.integers(n)] = bad
                x0 = [float(round(c)) if math.isfinite(c) else 0.0 for c in us]
                got = _run(iqp._kernels(n)[0], f, us, x0, excess, 10**6, 0.0, None)
                assert got == _run(iqp._zigzag, f, us, x0, excess, 10**6, 0.0, None)
                assert got[0] == "raised" and got[1] in (ValueError, OverflowError), got
                raised += 1
    assert raised == iqp._NESTING_LIMIT * 6


def test_the_generated_certificate_is_the_former_loops():
    # the excess bits and the verdict of the two former loops, for every n
    # up to past the nesting limit (the certificate has no nesting), on
    # rows the certificate passes and fails, fractions of exactly 1/2,
    # signed zeros, and NaN and infinite dots and fractions, whose NaN
    # excess fails every test
    rng = np.random.default_rng(2053)
    verdicts = {True: 0, False: 0}
    for n in range(1, iqp._NESTING_LIMIT + 6):
        certify = iqp._kernels(n)[1]
        for trial in range(200):
            cert = (10.0 ** rng.uniform(-2.0, 2.0, size=n)).tolist()
            ws = rng.uniform(-0.5, 0.5, size=n)
            ws[rng.random(size=n) < 0.05] = 0.5
            ws[rng.random(size=n) < 0.05] = -0.0
            ds = rng.normal(size=n) * 10.0 ** rng.uniform(-4.0, 0.5)
            if trial % 10 == 9:
                (ds if trial % 20 == 9 else ws)[rng.integers(n)] = rng.choice([math.nan, math.inf, -math.inf])
            got = certify(cert, ws.tolist(), ds.tolist())
            want = _former_certificate(cert, ws.tolist(), ds.tolist())
            assert (got[0].hex(), got[1]) == (want[0].hex(), want[1]), (cert, ws, ds)
            verdicts[got[1]] += 1
    assert min(verdicts.values()) > 500


def kernel_search_mismatches(workload: str, pool: int) -> tuple[int, list]:
    """(searches, mismatches) of the solves of one benchmark pool, each
    factor in the frame it chose: every search the generated kernels run is
    replayed through `iqp._zigzag`, which must return the same point,
    excess bits and kept leaves."""
    workloads = load_workloads()
    calls = []
    kernels = iqp._kernels

    def kernelling(n):
        search, certify = kernels(n)

        def recording(frame, us, x0, excess, node_budget, scratch, window=0.0, keep=None):
            found = search(frame, us, x0, excess, node_budget, scratch, window, keep)
            calls.append((frame, us, x0, excess, node_budget, window, keep is not None, _bits(found), _bits(keep)))
            return found

        return recording, certify

    iqp._kernels = kernelling
    try:
        for name, inst, start in workloads.build_jobs(workload, pool):
            cli.solve_pipeline(inst, start=start)
    finally:
        iqp._kernels = kernels
    mismatches = []
    for frame, us, x0, excess, node_budget, window, keeps, found, kept in calls:
        keep = [] if keeps else None
        want = iqp._zigzag(frame, us, x0, excess, node_budget, iqp._scratch(len(us)), window, keep)
        if _bits(want) != found or _bits(keep) != kept:
            mismatches.append((workload, pool, us))
    return len(calls), mismatches


def test_every_workload_search_through_the_generated_kernel_is_zigzags():
    # pool 0 of the benchmark's three workloads, each factor in its own
    # frame: every search is `_zigzag`'s, kept leaves included.  CI runs
    # all 16 pools.
    searched = 0
    for workload in load_workloads().WORKLOADS:
        count, mismatches = kernel_search_mismatches(workload, 0)
        assert not mismatches, mismatches[:5]
        assert count > 0, workload
        searched += count
    assert searched > 10_000
