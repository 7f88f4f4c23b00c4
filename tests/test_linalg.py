import warnings

import numpy as np
import pytest

from icqs import dynamics, game, linalg
from icqs.errors import DimensionMismatch, NonConvergence, NotPositiveDefinite


def test_cholesky_identity():
    L = linalg.cholesky(np.eye(3))
    assert np.allclose(L, np.eye(3))


def test_cholesky_known_factor():
    Q = np.array([[4.0, 2.0], [2.0, 5.0]])
    L = linalg.cholesky(Q)
    assert np.allclose(L, [[2.0, 0.0], [1.0, 2.0]])
    assert np.allclose(L @ L.T, Q)


def test_cholesky_rejects_indefinite():
    # eigenvalues 3 and -1 by the 2x2 closed form
    with pytest.raises(NotPositiveDefinite):
        linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_pivot_test_is_relative_to_the_diagonal():
    # the second pivot is s * 1e-11 (to rounding), below 1e-10 times its own
    # diagonal entry at every s; an absolute floor passed it at 1e6
    for s in (1e-6, 1.0, 1e6):
        with pytest.raises(NotPositiveDefinite, match="pivot 1 "):
            linalg.cholesky(s * np.array([[1.0, 1.0], [1.0, 1.0 + 1e-11]]))
    for s in (1e-20, 1e20):
        L = linalg.cholesky(s * np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(L, np.sqrt(s) * np.array([[2.0, 0.0], [1.0, 2.0]]))
    # each pivot is compared with its own diagonal entry, not the largest,
    # so a diagonal Q factors however widely its entries spread
    for diagonal in ([1e10, 1.0], [1e12, 1.0], [1.0, 1e-12]):
        L = linalg.cholesky(np.diag(diagonal))
        assert np.array_equal(L, np.diag(np.sqrt(diagonal)))


def test_cholesky_rejects_asymmetric():
    with pytest.raises(DimensionMismatch):
        linalg.cholesky(np.array([[1.0, 2.0], [0.0, 1.0]]))
    # the symmetry test is relative to Q: an absolute slack let any asymmetry
    # through at small scale, where the lower triangle that Cholesky reads
    # is not Q's symmetric part
    for s in (1e-13, 1.0, 1e13):
        with pytest.raises(DimensionMismatch, match="symmetric"):
            linalg.cholesky(s * np.array([[1.0, 0.0], [0.5, 1.0]]))
        L = linalg.cholesky(s * np.array([[1.0, 0.25], [0.25, 1.0]]))
        assert np.allclose(L @ L.T, s * np.array([[1.0, 0.25], [0.25, 1.0]]), rtol=1e-12, atol=0.0)


def test_sym_eigen_identity():
    eig = linalg.sym_eigen(np.eye(4))
    assert np.allclose(eig.eigenvalues, np.ones(4))


def test_sym_eigen_diagonal_sorted_descending():
    eig = linalg.sym_eigen(np.diag([2.0, 3.0]))
    assert np.allclose(eig.eigenvalues, [3.0, 2.0])


def test_sym_eigen_2x2_characteristic_roots():
    Q = np.array([[2.0, 1.0], [1.0, 2.0]])
    eig = linalg.sym_eigen(Q)
    assert np.allclose(eig.eigenvalues, [3.0, 1.0])
    # reconstruction and orthonormality within tolerance
    W, lam = eig.eigenvectors, eig.eigenvalues
    assert np.linalg.norm(Q - (W * lam) @ W.T) <= linalg.EIGEN_TOLERANCE * np.linalg.norm(Q)
    assert np.allclose(W.T @ W, np.eye(2), atol=1e-12)


def test_sym_eigen_reconstructs_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(25):
        n = int(rng.integers(1, 12))
        A = rng.normal(size=(n, n))
        Q = 0.5 * (A + A.T)
        eig = linalg.sym_eigen(Q)
        W, lam = eig.eigenvectors, eig.eigenvalues
        scale = max(1.0, np.linalg.norm(Q))
        assert np.linalg.norm(Q - (W * lam) @ W.T) <= linalg.EIGEN_TOLERANCE * scale
        assert list(lam) == sorted(lam, reverse=True)


def test_sym_eigen_positive_for_pd():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = int(rng.integers(1, 8))
        A = rng.normal(size=(n, n))
        Q = A @ A.T + np.eye(n)
        assert linalg.sym_eigen(Q).lambda_min > 0.0


def test_singular_values_identity_and_scalar():
    assert np.allclose(linalg.singular_values(np.eye(3)), np.ones(3))
    assert np.allclose(linalg.singular_values(np.array([[-2.0]])), [2.0])


def test_singular_values_rank_one_column():
    sv = linalg.singular_values(np.array([[3.0, 0.0], [4.0, 0.0]]))
    assert np.allclose(sv, [5.0, 0.0], atol=1e-8)


def test_singular_values_past_an_overflowing_gram_matrix():
    # A.T @ A overflows once a singular value passes about 1.3e154; before,
    # the overflowed Gram spectrum fell under its own floor and read as zero,
    # so a coupling of 1e300 classified as positively adequate
    rng = np.random.default_rng(8)
    for A in ([[5e299]], [[5e299, 1.0], [2.0, -3e299]], rng.normal(size=(4, 3)) * 1e200, rng.normal(size=(2, 5)) * 1e160):
        A = np.asarray(A)
        want = np.linalg.svd(A, compute_uv=False)
        assert np.allclose(linalg.singular_values(A), want, rtol=1e-12, atol=1e-12 * want[0])
    assert np.isinf(linalg.singular_values(np.full((2, 2), 1.7e308))[0])
    inst = game.make_instance([
        game.PlayerProblem(Q=np.array([[2.0]]), C={1 - i: np.array([[1e300]])}, d=np.zeros(1))
        for i in range(2)
    ])
    assert inst.report.classification is game.Adequacy.NEGATIVE
    assert inst.report.sigma_max == (5e299, 5e299)


def rotation(a):
    return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])


def coupled_pair(R):
    # Q_i = 2 I and C_i = 2 R both ways: each player's interaction matrix is R
    return game.make_instance([
        game.PlayerProblem(Q=2.0 * np.eye(2), C={1 - i: 2.0 * R}, d=np.zeros(2)) for i in range(2)
    ])


def test_an_ill_conditioned_interaction_matrix_keeps_its_smallest_singular_value():
    # sigma = (1.4e8, 1.06): through the Gram matrix sigma_min read as 0.0, the
    # game as neither, and a diverging run ended at the iteration cap
    inst = coupled_pair(np.array([[1e8, 1e8], [0.0, 1.5]]))
    assert inst.report.classification is game.Adequacy.NEGATIVE
    for sigma in inst.report.sigma_min:
        assert abs(sigma - 1.0606601717798212) <= 1e-9
    trace = dynamics.run_br(inst, start=[[3.0, -2.0], [1.0, 4.0]])
    assert trace.outcome == dynamics.OUTCOME_DIVERGENCE
    # sigma_min = 1 + 1e-5 under sigma_max = 1e6, in 20 random orientations
    rng = np.random.default_rng(19)
    for _ in range(20):
        a, b = rng.uniform(0.0, 2.0 * np.pi, size=2)
        R = rotation(a) @ np.diag([1e6, 1.0 + 1e-5]) @ rotation(b).T
        assert coupled_pair(R).report.classification is game.Adequacy.NEGATIVE


def test_singular_values_raise_nonconvergence_naming_the_matrix(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(NonConvergence, match="^R_0: SVD did not converge$"):
        linalg.singular_values(np.eye(2), "R_0")


def test_solve_spd_examples():
    assert np.allclose(linalg.solve_spd(np.eye(2), np.array([1.0, 2.0])), [1.0, 2.0])
    assert np.allclose(linalg.solve_spd(np.diag([2.0, 4.0]), np.array([2.0, 4.0])), [1.0, 1.0])
    Q = np.array([[2.0, 1.0], [1.0, 2.0]])
    x = linalg.solve_spd(Q, np.array([3.0, 3.0]))
    assert np.allclose(x, [1.0, 1.0])
    assert np.linalg.norm(Q @ x - [3.0, 3.0]) <= linalg.SOLVE_TOLERANCE * (
        np.linalg.norm(Q) * np.linalg.norm(x) + np.linalg.norm([3.0, 3.0])
    )


def test_solve_spd_residuals_random():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 15))
        A = rng.normal(size=(n, n))
        Q = A @ A.T + 0.1 * np.eye(n)
        b = rng.normal(size=n)
        x = linalg.solve_spd(Q, b)
        assert np.linalg.norm(Q @ x - b) <= linalg.SOLVE_TOLERANCE * (
            np.linalg.norm(Q) * np.linalg.norm(x) + np.linalg.norm(b)
        )


def _factor_pair(n, rng):
    A = rng.normal(size=(n, n))
    L = linalg.cholesky(A @ A.T + n * np.eye(n))
    return L, np.ascontiguousarray(L.T)


# the right-hand side entries gesv must pass through as np.linalg.solve does
_EXTREMES = (1e308, -1e308, np.inf, -np.inf, np.nan, 5e-324, -1e-310)


@pytest.mark.parametrize("n", [1, 4])
def test_gesv_is_numpy_solve_bit_for_bit(n):
    # gesv is the gufunc call np.linalg.solve ends in: the same bytes for
    # vector, matrix and stacked right-hand sides, against a factor L, its
    # F-order view L.T and the contiguous G = L', and no warning even where
    # the right-hand side overflows the solve or holds inf, NaN or subnormals
    rng = np.random.default_rng(n)
    factors = [_factor_pair(n, rng) for _ in range(3)]
    cases = []
    L, G = factors[0]
    for a in (L, L.T, G):
        cases += [(a, rng.normal(size=n)), (a, rng.normal(size=(n, 1))), (a, rng.normal(size=(n, 3)))]
        cases += [(a, np.full(n, v)) for v in _EXTREMES]
        cases += [(a, np.full((n, 2), v)) for v in _EXTREMES]
    for m in (1, 3):
        Ls = np.stack([L for L, _ in factors[:m]])
        Gs = np.stack([G for _, G in factors[:m]])
        for a in (Ls, Ls.transpose(0, 2, 1), Gs):
            cases += [(a, rng.normal(size=(m, n, 1))), (a, rng.normal(size=(m, n, 2)))]
            cases += [(a, np.full((m, n, 1), v)) for v in _EXTREMES]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in cases:
            got = linalg.gesv(a, b)
            want = np.linalg.solve(a, b)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes(), (a, b, got, want)


@pytest.mark.parametrize("b", [np.ones(2), np.ones((2, 1))])
def test_gesv_gives_nan_not_linalgerror_on_a_singular_matrix(b):
    # pinned so that no caller relies on either: every matrix gesv is given
    # is a Cholesky factor or its transpose, with a positive diagonal
    with pytest.warns(RuntimeWarning, match="invalid value"):
        x = linalg.gesv(np.zeros((2, 2)), b)
    assert x.shape == b.shape and np.isnan(x).all()


def test_block_diagonal_singular_values_are_the_union():
    # singular values of [[A,0],[0,B]] equal those of A and B together
    rng = np.random.default_rng(3)
    for _ in range(100):
        m = int(rng.integers(1, 6))
        n = int(rng.integers(1, 6))
        A = rng.normal(size=(m, n))
        B = rng.normal(size=(n, m))
        block = np.zeros((m + n, n + m))
        block[:m, :n] = A
        block[m:, n:] = B
        # rectangular blocks contribute min(m,n) values each; the block matrix
        # pads the remaining |m-n| directions with zeros
        union = np.concatenate(
            [linalg.singular_values(A), linalg.singular_values(B), np.zeros(abs(m - n))]
        )
        assert np.allclose(linalg.singular_values(block), np.sort(union)[::-1], atol=1e-8)


def test_singular_value_bounds_control_image_norms():
    # sigma_max < 1 shrinks every vector; sigma_min > 1 stretches every vector
    rng = np.random.default_rng(4)
    for _ in range(100):
        n = int(rng.integers(1, 6))
        M = rng.normal(size=(n, n))
        sv = linalg.singular_values(M)
        shrink = M * (0.99 * rng.uniform(0.1, 1.0) / sv[0])
        for _ in range(5):
            x = rng.normal(size=n)
            if np.linalg.norm(x) == 0.0:
                continue
            assert np.linalg.norm(shrink @ x) < np.linalg.norm(x)
        if sv[-1] > 0:
            stretch = M * (1.01 * rng.uniform(1.0, 3.0) / sv[-1])
            for _ in range(5):
                x = rng.normal(size=n)
                if np.linalg.norm(x) == 0.0:
                    continue
                assert np.linalg.norm(stretch @ x) > np.linalg.norm(x)
