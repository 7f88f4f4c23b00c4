import math

import numpy as np
import pytest

from _corpus import quadratic_corpus
from icqs import iqp, linalg
from icqs.errors import NotPositiveDefinite, OracleBudgetExceeded


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
    assert iqp.PROVEN_RULE.constant(n) == expected


def test_flatness_constant_override():
    assert iqp.FlatnessRule(coeff=2.0, exponent=1.0).constant(4) == 8.0


def test_prox_bound_identity_n4():
    f = factor_of(np.eye(4))
    assert iqp.prox_bound(f) == pytest.approx(8.0)
    assert f.lambda_max == pytest.approx(1.0)
    assert f.lambda_min == pytest.approx(1.0)


def test_prox_bound_identity_n1():
    f = factor_of(np.eye(1))
    assert iqp.prox_bound(f) == pytest.approx(0.25)
    # the flatness gap 1/32 is raised to the scaled-identity gap n/8
    assert f.gap == pytest.approx(max(1.0 / 32.0, 1.0 / 8.0))


def test_prox_bound_diag_4_1():
    f = factor_of(np.diag([4.0, 1.0]))
    assert iqp.prox_bound(f) == pytest.approx((2.0**2.5 / 4.0) * 2.0)
    assert iqp.PROVEN_RULE.constant(f.n) == pytest.approx(2.0**2.5)


def test_prox_bound_invariant_relations():
    for q in quadratic_corpus(seed=5, count=30, dims=(1, 2, 3, 4)):
        f = factor_of(q.Q)
        flatness = iqp.PROVEN_RULE.constant(q.n)
        prox = iqp.prox_bound(f)
        assert prox == pytest.approx((flatness / 4.0) * math.sqrt(f.lambda_max / f.lambda_min))
        obj_gap = f.lambda_max * flatness**2 / 32.0
        if f.scaled_identity:
            obj_gap = max(obj_gap, f.lambda_max * q.n / 8.0)
        assert f.gap == pytest.approx(obj_gap)
        assert f.radius == iqp.guarantee_prox(f)
        assert min(prox, f.lambda_max, f.lambda_min, flatness, f.gap) > 0


def test_guarantee_prox_upgrades_scaled_identity():
    # 1-D flatness value 0.25 understates the true rounding worst case 0.5
    assert iqp.guarantee_prox(factor_of(np.array([[2.0]]))) == pytest.approx(0.5)
    # for larger identities the flatness formula already dominates sqrt(n)/2
    assert iqp.guarantee_prox(factor_of(np.eye(4))) == pytest.approx(8.0)


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
    # flatness-based distance and gap bounds hold verbatim for n >= 2; 1-D
    # blocks use the exact scaled-identity radius (the flatness constant is
    # provably below the true 1-D worst case, see guarantee_prox)
    for q in quadratic_corpus(seed=42, count=200, dims=(1, 2, 3, 4)):
        v, value = iqp.integer_min(q)
        u = iqp.continuous_min(q)
        f = factor_of(q.Q)
        dist = float(np.linalg.norm(v - u))
        gap = value - q.value(u)
        if q.n >= 2:
            assert dist <= iqp.prox_bound(f) + 1e-9
            # for n >= 2 the flatness gap n^5/32 is above n/8, so it is f.gap
            assert gap <= f.lambda_max * iqp.PROVEN_RULE.constant(q.n) ** 2 / 32.0 + 1e-9
        assert dist <= iqp.guarantee_prox(f) + 1e-9
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
    from icqs.errors import EnumerationBudgetExceeded

    q = iqp.Quadratic(np.eye(2), np.array([-0.5, -0.5]))  # tie-rich: no fast path
    with pytest.raises(EnumerationBudgetExceeded):
        iqp.integer_min(q, node_budget=0)


def test_set_flatness_rule_flows_through_prox():
    f = factor_of(np.eye(4))
    baseline = iqp.prox_bound(f)
    assert baseline == pytest.approx(8.0)
    linear = iqp.FlatnessRule(coeff=2.0, exponent=1.0)  # a linear-rule override
    assert linear.constant(4) == 8.0
    assert iqp.prox_bound(f, linear) == pytest.approx(2.0)
    # the proven gap the postcondition checks does not follow the rule
    assert f.gap == pytest.approx(1.0 * 4.0**5 / 32.0)
    assert iqp.guarantee_prox(f, linear) == pytest.approx(2.0)  # above sqrt(4)/2
    # the rule travels with the call: nothing changed for the next caller
    assert iqp.prox_bound(f) == baseline
    with pytest.raises(ValueError):
        iqp.FlatnessRule(coeff=0.0, exponent=1.0)


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
        stack = iqp.FactorStack(tuple(factor_of(q.Q) for q, _ in group))
        U = stack.continuous_mins(np.array([q.d for q, _ in group]))
        assert np.array_equal(iqp.lattice_mins(stack, U), np.array([ref for _, ref in group]))


def test_per_coordinate_certificate_is_sound_and_never_weaker(monkeypatch):
    # rows the certificate answers without a search must have rint(u) as
    # their unique minimizer, by the exhaustive oracle, and every row the
    # former smallest-eigenvalue guard answered must still be answered
    searched = []
    enumerate_ = iqp._enumerate

    def recording(factor, u, x0, w, node_budget):
        searched.append(u.tobytes())
        return enumerate_(factor, u, x0, w, node_budget)

    monkeypatch.setattr(iqp, "_enumerate", recording)
    rng = np.random.default_rng(59)
    accepted = old_accepted = rows = 0
    for trial in range(240):
        n = 1 + trial % 6
        cond = 10.0 ** rng.uniform(0.0, 6.0)
        Q = quadratic_corpus(seed=trial, count=1, dims=(n,), cond=cond)[0].Q
        f = factor_of(Q)
        stack = iqp.FactorStack((f,) * 8)
        # a whole vector of magnitude up to 1e12 plus fractions near and away
        # from 1/2, multiples of 2^-12 so that u is exact at that magnitude
        base = np.rint(rng.uniform(-1.0, 1.0, size=(8, n)) * 10.0 ** rng.uniform(0, 12, size=(8, 1)))
        frac = rng.uniform(-0.5, 0.5, size=(8, n)) * rng.choice([0.02, 0.3, 1.0], size=(8, 1))
        near = rng.random(size=(8, n)) < 0.2
        frac = np.where(near, np.sign(frac) * (0.5 - 2.0 ** -rng.integers(2, 12, size=(8, n))), frac)
        frac = np.round(frac * 4096.0) / 4096.0
        U = base + frac
        searched.clear()
        iqp.lattice_mins(stack, U)
        for r in range(8):
            rows += 1
            w = np.rint(U[r]) - U[r]
            t = f.G @ w
            excess = 0.5 * float(t @ t)
            max_frac = float(np.abs(w).max())
            old = max_frac < 0.5 and excess < 0.999 * 0.5 * f.lambda_min * (1.0 - max_frac) ** 2
            if U[r].tobytes() in searched:
                assert not old, (Q, U[r])
                continue
            accepted += 1
            old_accepted += old
            # the translated problem around the fractional part
            x, _ = iqp.brute_force_min(iqp.Quadratic(Q, -Q @ (U[r] - base[r])))
            assert np.array_equal(x + base[r].astype(np.int64), np.rint(U[r])), (Q, U[r])
    assert rows == 1920 and accepted > old_accepted > 500
