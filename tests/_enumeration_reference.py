"""The two-player support enumeration with boolean dominance lookups, the
form `icqs.finite` had before it kept them as bitmasks, kept verbatim as an
independent oracle.

`mne_two_player` here visits the same support pairs in the same order as
`icqs.finite.mne_two_player` must, solves each indifference system with
`np.linalg.solve` or `np.linalg.lstsq`, and looks conditional dominance up
in boolean arrays, one cached frozenset per opponent support.  Tests and
the CI compare the two bit for bit, and compare the sequences of
`_solve_indifference` calls by patching this module's and `finite`'s.
"""

from __future__ import annotations

import itertools

import numpy as np

from icqs.errors import DimensionMismatch, NoEquilibriumFound
from icqs.finite import _SING_PERTURBATION, EQ_TOLERANCE, FiniteGame, MixedProfile, cell_costs


def _support_pairs(m: int, n: int):
    # ascending total size, then x-support size, then lexicographic supports
    for total in range(2, m + n + 1):
        for a in range(max(1, total - n), min(m, total - 1) + 1):
            b = total - a
            for I in itertools.combinations(range(m), a):
                for J in itertools.combinations(range(n), b):
                    yield I, J


def _solve_indifference(costs: np.ndarray, supp_rows, supp_cols) -> tuple[np.ndarray, float] | None:
    """Opponent mix + value making the supported rows of ``costs`` indifferent.

    Rows are the supported player's strategies, columns the opponent's; solves
    [A | -1; 1' | 0] (q, v) = (0, 1), least squares when non-square.  Singular
    systems get a 1e-12 diagonal perturbation and one retry.
    """
    A = costs[np.ix_(supp_rows, supp_cols)]
    a, b = A.shape
    M = np.zeros((a + 1, b + 1))
    M[:a, :b] = A
    M[:a, b] = -1.0
    M[a, :b] = 1.0
    rhs = np.zeros(a + 1)
    rhs[a] = 1.0
    try:
        if a == b:
            # np.linalg.solve, not linalg.gesv: a singular M must raise
            sol = np.linalg.solve(M, rhs)
        else:
            sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    except np.linalg.LinAlgError:
        try:
            Mp = M + _SING_PERTURBATION * np.eye(a + 1, b + 1)
            sol, *_ = np.linalg.lstsq(Mp, rhs, rcond=None)
        except np.linalg.LinAlgError:
            return None
    if not np.all(np.isfinite(sol)):
        return None
    return sol[:b], float(sol[b])


def _valid_side(costs: np.ndarray, opp_mix: np.ndarray, supp, value: float, atol: float) -> bool:
    # every support row attains `value`, every other row costs at least it
    expected = costs @ opp_mix
    if np.max(np.abs(expected[list(supp)] - value)) > atol:
        return False
    mask = np.ones(len(expected), dtype=bool)
    mask[list(supp)] = False
    return not np.any(expected[mask] < value - atol)


def _dominance_margin(A: np.ndarray, B: np.ndarray, atol: float) -> float:
    """Cost gap above which a dominated strategy provably fails ``_valid_side``.

    Under a mix that passes, a supported row costs at most ``value + atol``
    and every row at least ``value - atol``, so no supported row costs more
    than ``2 * atol`` above any other row.  The second term covers the float
    rounding of the expected costs, of the normalised mix and of the
    comparisons, relative to the largest cost magnitude of the bimatrix game
    (A, B) and with a wide safety factor.
    """
    scale = max(float(np.max(np.abs(A))), float(np.max(np.abs(B)))) + atol
    return 2.0 * atol + 8.0 * (sum(A.shape) + 2) * np.finfo(np.float64).eps * scale


def _dominated_given(costs: np.ndarray, margin: float):
    """Lookup: opponent support -> set of rows dominated on it.

    Row r is dominated on columns S when some row r' costs more than
    ``margin`` less than r on every column of S.  Then every mix over S
    leaves r more than ``2 * atol`` above r', so no support containing r
    passes the equilibrium check against S.  Masks are cached per S.
    """
    beaten = (costs[:, None, :] - costs[None, :, :]) > margin  # [r, r', col]
    cache: dict[tuple[int, ...], frozenset[int]] = {}

    def lookup(cols: tuple[int, ...]) -> frozenset[int]:
        rows = cache.get(cols)
        if rows is None:
            dominated = beaten[:, :, list(cols)].all(axis=2).any(axis=1)
            rows = cache[cols] = frozenset(np.flatnonzero(dominated).tolist())
        return rows

    return lookup


def _side(costs: np.ndarray, own, opp, size: int, atol: float):
    """Normalised opponent mix over ``opp`` that makes ``own`` an equilibrium
    support of ``costs``; None when the indifference system has no usable
    solution or the mix fails the sign, sum or ``_valid_side`` checks."""
    solved = _solve_indifference(costs, own, opp)
    if solved is None:
        return None
    mix_supp, value = solved
    if np.any(mix_supp < -1e-9):
        return None
    mix = np.zeros(size)
    mix[list(opp)] = np.clip(mix_supp, 0.0, None)
    if abs(mix.sum() - 1.0) > 1e-9:
        return None
    mix /= mix.sum()
    if not _valid_side(costs, mix, own, value, atol):
        return None
    return mix


def mne_two_player(fg: FiniteGame) -> MixedProfile:
    """Exact mixed equilibrium of a bimatrix game by support enumeration.

    Returns the first valid equilibrium in the (total size ascending,
    lexicographic) support order, i.e. a smallest-support equilibrium,
    deterministically.  The equilibrium check's tolerance is ``EQ_TOLERANCE``
    times ``max(max|A|, max|B|)``, with no floor, as the k-player check's
    is.  Pairs that provably fail the check are skipped without a solve: a
    pair is dropped when one of its strategies is dominated, by more than
    twice that tolerance plus rounding, on the other player's support
    (conditional dominance, Porter, Nudelman & Shoham 2008), and the column
    player's mix is solved and checked before the row player's.  Neither
    changes the order or the returned profile.  When a player has a single
    strategy there is nothing to prune and no pruning table is built.
    NoEquilibriumFound cannot occur for a finite game and signals numerical
    failure.
    """
    if fg.k != 2:
        raise DimensionMismatch(f"two-player solver got k={fg.k}")
    A = cell_costs(fg, 0)
    B = cell_costs(fg, 1)
    m, n = A.shape
    atol = EQ_TOLERANCE * max(float(np.abs(A).max()), float(np.abs(B).max()))
    prune = m > 1 and n > 1
    if prune:
        margin = _dominance_margin(A, B, atol)
        rows_dominated = _dominated_given(A, margin)
        cols_dominated = _dominated_given(B.T, margin)
    for I, J in _support_pairs(m, n):
        if prune and not (rows_dominated(J).isdisjoint(I) and cols_dominated(I).isdisjoint(J)):
            continue
        q = _side(A, I, J, n, atol)
        if q is None:
            continue
        p = _side(B.T, J, I, m, atol)
        if p is None:
            continue
        return MixedProfile(probs=(p, q))
    raise NoEquilibriumFound("support enumeration exhausted all supports")

