"""The cycle-restricted finite game and its equilibria.

When best-response iteration cycles, restricting every player to the
strategies visited inside the cycle yields a small finite game whose mixed
equilibrium approximates an equilibrium of the full instance.  This module
builds that game's cost tensor, finds pure and mixed equilibria, and measures
a-posteriori how much any player could gain by deviating to an arbitrary
lattice point.  The cost tensor needs only the instance (`restrict`); the
deviation check solves integer best responses, so `verify_delta` takes the
solve's `game.Prepared` value.

The coupling is linear, so the restricted game is polymatrix: player i's
cost at a cell is an own term 0.5 s_i'Q_i s_i + d_i's_i plus one term
s_i'C_ij s_j per opponent.  `restrict` builds the tensor from those pieces:
one own cost per strategy and one block S_i C_ij S_j' per ordered pair of
players, O(sum_ij m_i m_j n) arithmetic for m_i strategies per player,
broadcast onto the prod(m_i) cells with no loop over cells.  A
(32, 43, 29, 32) four-player set takes about a tenth of a second.

Two-player games are solved exactly by support enumeration: support pairs are
visited by total size ascending (lexicographic within a size), the
indifference conditions are solved as a linear system per pair, and the first
pair whose solution is a valid equilibrium wins, so the smallest-support
equilibrium is returned deterministically.  Two exact shortcuts skip work on
pairs that cannot win: a pair is dropped without a solve when one of its
strategies is conditionally dominated on the other player's support, by more
than the check's own tolerance can absorb, and each pair solves and checks
the column player's mix before it solves the row player's.  The visiting
order, and the arithmetic of the pair that wins, are those of the plain
enumeration, so the returned equilibrium is the same to the bit.

Games with three or more players are solved exactly by one run of Lemke's
complementary pivoting (Howson 1972; Miller & Zucker 1991).  This needs the
cost tensor to be polymatrix: player i's cost is an own term plus one term
per opponent that depends on i's and that opponent's strategy only.  A
restricted game always is, because the coupling is linear.  Then the slices
of the tensor with one opponent free and the rest at strategy 0 determine
every entry, so the LCP is read off the tensor and `FiniteGame` needs no
other field.  The result is checked on the full tensor, so a hand-built
tensor that is not polymatrix raises instead of returning a false
equilibrium.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import dynamics, game
from .errors import DimensionMismatch, NoEquilibriumFound

EQ_TOLERANCE = 1e-9
PROB_SUM_TOLERANCE = 1e-12
_SING_PERTURBATION = 1e-12
_PIVOT_TOLERANCE = 1e-9
_MAX_PIVOTS = 10_000


@dataclass(frozen=True)
class FiniteGame:
    """Strategy lists plus the cost tensor of the restricted game.

    ``costs`` has shape (m_1, ..., m_k, k): entry [s_1, ..., s_k, i] is the
    objective of player i at the indexed joint profile.
    """

    strategies: tuple[tuple[np.ndarray, ...], ...]
    costs: np.ndarray

    @property
    def k(self) -> int:
        return len(self.strategies)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strategies)


@dataclass(frozen=True)
class MixedProfile:
    """One probability vector per player over that player's strategy list."""

    probs: tuple[np.ndarray, ...]

    def __post_init__(self):
        cleaned = []
        for i, p in enumerate(self.probs):
            p = np.asarray(p, dtype=np.float64)
            if np.any(p < -PROB_SUM_TOLERANCE):
                raise ValueError(f"player {i} has a negative probability")
            total = p.sum()
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"player {i} probabilities sum to {total}")
            cleaned.append(np.clip(p, 0.0, None) / np.clip(p, 0.0, None).sum())
        object.__setattr__(self, "probs", tuple(cleaned))

    def support(self, i: int) -> np.ndarray:
        return np.nonzero(self.probs[i] > 0.0)[0]


def pure_profile(fg: FiniteGame, index: tuple[int, ...]) -> MixedProfile:
    probs = []
    for i, m in enumerate(fg.sizes):
        p = np.zeros(m)
        p[index[i]] = 1.0
        probs.append(p)
    return MixedProfile(probs=tuple(probs))


def restrict(inst: game.IcqsInstance, cycle: dynamics.CycleSets) -> FiniteGame:
    """Cost tensor of the game restricted to the cycle strategies.

    Player i's strategies are stacked into S_i (m_i x n_i).  Its own costs
    ``0.5 s'Q_i s + d_i's`` are taken once per strategy and each block
    ``S_i C_ij S_j'`` once per ordered pair; ``costs[..., i]`` is the own
    term plus the blocks, added in ascending opponent order, each broadcast
    onto the axes (i, j).  That is O(sum_ij m_i m_j n) arithmetic and one
    broadcast add per block over the prod(m_i) cells, with no loop over
    cells.  Each cell is `game.objective` at that profile up to rounding in
    its last bits.  Raises ValueError when a cost is not finite, which a
    non-finite strategy or an overflow makes it.
    """
    strategies = cycle.strategies
    if any(len(s) == 0 for s in strategies):
        raise DimensionMismatch("every player needs at least one cycle strategy")
    sizes = tuple(len(s) for s in strategies)
    k = len(strategies)
    S = [np.array(strats, dtype=np.float64) for strats in strategies]
    lengths = tuple(S_i.shape[1] for S_i in S)
    if lengths != inst.dims:
        raise DimensionMismatch(f"strategy lengths {lengths} do not fit the player dimensions {inst.dims}")
    costs = np.empty(sizes + (k,), dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, p in enumerate(inst.players):
            # the own costs on axis i, then each block on the axes (i, j)
            shape = [1] * k
            shape[i] = sizes[i]
            total = (0.5 * np.einsum("sa,ab,sb->s", S[i], p.Q, S[i]) + S[i] @ p.d).reshape(shape)
            for j in inst.opponents(i):
                block = S[i] @ p.C[j] @ S[j].T
                pair = shape.copy()
                pair[j] = sizes[j]
                total = total + (block.T if j < i else block).reshape(pair)
            costs[..., i] = total
    if not np.isfinite(costs).all():
        # a non-finite strategy makes its owner's cost non-finite: Q_i is PD
        raise ValueError("a cost of the restricted game overflows or a strategy is not finite")
    return FiniteGame(strategies=strategies, costs=costs)


def pure_strategy_costs(fg: FiniteGame, i: int, profile: MixedProfile) -> np.ndarray:
    """Player i's expected cost for each pure strategy vs the others' mixes."""
    T = fg.costs[..., i]
    # contract opponent axes from the back so axis numbering stays stable
    for j in range(fg.k - 1, -1, -1):
        if j == i:
            continue
        T = np.tensordot(T, profile.probs[j], axes=([j], [0]))
    return T


def expected_costs(fg: FiniteGame, profile: MixedProfile) -> np.ndarray:
    """Expected cost per player under the product distribution."""
    return np.array(
        [float(pure_strategy_costs(fg, i, profile) @ profile.probs[i]) for i in range(fg.k)]
    )


def regret(fg: FiniteGame, profile: MixedProfile) -> np.ndarray:
    """Per-player gain from the best pure strategy inside the finite game."""
    out = []
    for i in range(fg.k):
        costs_i = pure_strategy_costs(fg, i, profile)
        out.append(float(costs_i @ profile.probs[i] - costs_i.min()))
    return np.array(out)


def pne_search(fg: FiniteGame, atol: float = EQ_TOLERANCE) -> list[tuple[int, ...]]:
    """All pure joint indices with no profitable unilateral deviation, in
    `np.ndindex` order.

    One reduction per player: a cell is kept unless player i's cost there
    exceeds the least cost along axis i (its deviations) by more than
    ``atol``.
    """
    keep = np.ones(fg.sizes, dtype=bool)
    for i in range(fg.k):
        cost = fg.costs[..., i]
        keep &= ~(cost > cost.min(axis=i, keepdims=True) + atol)
    return [tuple(index) for index in np.argwhere(keep).tolist()]


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


def _dominance_margin(costs: np.ndarray, atol: float) -> float:
    """Cost gap above which a dominated strategy provably fails ``_valid_side``.

    Under a mix that passes, a supported row costs at most ``value + atol``
    and every row at least ``value - atol``, so no supported row costs more
    than ``2 * atol`` above any other row.  The second term covers the float
    rounding of the expected costs, of the normalised mix and of the
    comparisons, relative to the largest cost magnitude and with a wide
    safety factor.
    """
    scale = float(np.max(np.abs(costs))) + atol
    return 2.0 * atol + 8.0 * sum(costs.shape) * np.finfo(np.float64).eps * scale


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
    deterministically.  Pairs that provably fail the equilibrium check are
    skipped without a solve: a pair is dropped when one of its strategies is
    dominated, by more than twice ``EQ_TOLERANCE`` plus rounding, on the other
    player's support (conditional dominance, Porter, Nudelman & Shoham 2008),
    and the column player's mix is solved and checked before the row
    player's.  Neither changes the order or the returned profile.  When a
    player has a single strategy there is nothing to prune and no pruning
    table is built.  NoEquilibriumFound cannot occur for a finite game and
    signals numerical failure.
    """
    if fg.k != 2:
        raise DimensionMismatch(f"two-player solver got k={fg.k}")
    A = fg.costs[..., 0]
    B = fg.costs[..., 1]
    m, n = A.shape
    prune = m > 1 and n > 1
    if prune:
        margin = _dominance_margin(fg.costs, EQ_TOLERANCE)
        rows_dominated = _dominated_given(A, margin)
        cols_dominated = _dominated_given(B.T, margin)
    for I, J in _support_pairs(m, n):
        if prune and not (rows_dominated(J).isdisjoint(I) and cols_dominated(I).isdisjoint(J)):
            continue
        q = _side(A, I, J, n, EQ_TOLERANCE)
        if q is None:
            continue
        p = _side(B.T, J, I, m, EQ_TOLERANCE)
        if p is None:
            continue
        return MixedProfile(probs=(p, q))
    raise NoEquilibriumFound("support enumeration exhausted all supports")


def polymatrix_blocks(fg: FiniteGame) -> tuple[np.ndarray, tuple[int, ...]]:
    """Stacked blocks D, with D[i][j] in rows offsets[i]: and columns
    offsets[j]:, such that player i's expected cost against any mixes is
    ``sum_j D_ij p_j``; the diagonal blocks are zero.

    D_ij is the slice of player i's costs with player j free and every other
    opponent at strategy 0; the first opponent's block also carries
    ``-(k - 2)`` times the slice with all opponents at 0.  For a polymatrix
    tensor this reproduces every entry exactly.
    """
    k, sizes = fg.k, fg.sizes
    offsets = tuple(int(o) for o in np.cumsum((0,) + sizes))
    D = np.zeros((offsets[-1], offsets[-1]))
    for i in range(k):
        T = fg.costs[..., i]
        base = T[tuple(slice(None) if a == i else 0 for a in range(k))]
        for j in range(k):
            if j == i:
                continue
            block = T[tuple(slice(None) if a in (i, j) else 0 for a in range(k))]
            if j < i:
                block = block.T
            if j == (1 if i == 0 else 0):
                block = block - (k - 2) * base[:, None]
            D[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = block
    return D, offsets


def _lemke(M: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solution z of the LCP w = M z + q >= 0, z >= 0, w'z = 0.

    Lemke's algorithm on the tableau [I, -M, -1 | q] (columns: w, z, the
    artificial z0 with a covering vector of ones, right-hand side).  Ties in
    the ratio test are broken lexicographically by the columns of the
    initial identity, so no basis repeats.  Column entries up to
    ``_PIVOT_TOLERANCE`` times the column's largest count as zero, which
    keeps rounding noise from pivoting onto a singular basis.  Raises
    NoEquilibriumFound on a secondary ray or after ``_MAX_PIVOTS`` pivots.
    """
    n = len(q)
    tableau = np.hstack([np.eye(n), -M, -np.ones((n, 1)), q[:, None]])
    lex_columns = [2 * n + 1] + list(range(n))
    basis = list(range(n))
    entering = 2 * n
    for _ in range(_MAX_PIVOTS):
        col = tableau[:, entering]
        if entering == 2 * n:
            # z0 enters at the level that lifts the most negative q to zero
            rows, denom = np.arange(n), -col
        else:
            rows = np.flatnonzero(col > _PIVOT_TOLERANCE * max(1.0, float(np.abs(col).max())))
            denom = col
            if rows.size == 0:
                raise NoEquilibriumFound("Lemke's algorithm ended on a ray")
        for c in lex_columns:
            if rows.size == 1:
                break
            ratios = tableau[rows, c] / denom[rows]
            low = ratios.min()
            rows = rows[ratios <= low + _PIVOT_TOLERANCE * max(1.0, abs(low))]
        r = int(rows[0])
        tableau[r] /= tableau[r, entering]
        others = np.arange(n) != r
        tableau[others] -= np.outer(tableau[others, entering], tableau[r])
        leaving, basis[r] = basis[r], entering
        if leaving == 2 * n:
            z = np.zeros(n)
            for row, var in enumerate(basis):
                if n <= var < 2 * n:
                    z[var - n] = tableau[row, -1]
            return z
        entering = leaving + n if leaving < n else leaving - n
    raise NoEquilibriumFound(f"Lemke's algorithm exceeded {_MAX_PIVOTS} pivots")


def mne_k_player(fg: FiniteGame) -> tuple[MixedProfile, float]:
    """Exact equilibrium for k >= 3 players of a polymatrix cost tensor.

    A pure equilibrium is returned when one exists.  Otherwise the game is
    written as the LCP ``M = [[D + c, -E], [E', 0]]``, ``q = (0, -1)``, with
    D from `polymatrix_blocks`, E each player's column of ones and c making
    every entry of D + c at least 2, so M is copositive-plus and Lemke's
    algorithm ends with a solution (Howson 1972; Miller & Zucker 1991).  The
    x part, normalised per player, is the profile.  Its regret is measured
    on the full tensor, and NoEquilibriumFound is raised when it exceeds
    ``EQ_TOLERANCE`` times ``max(1, max|costs|)``: a tensor that is not
    polymatrix never returns a false equilibrium.
    """
    if fg.k < 3:
        raise DimensionMismatch(f"k-player solver got k={fg.k}")
    pnes = pne_search(fg)
    if pnes:
        profile = pure_profile(fg, pnes[0])
        return profile, float(regret(fg, profile).max())
    D, offsets = polymatrix_blocks(fg)
    m, k = offsets[-1], fg.k
    E = np.repeat(np.eye(k), fg.sizes, axis=0)
    M = np.block([[D + (2.0 - D.min()), -E], [E.T, np.zeros((k, k))]])
    x = np.clip(_lemke(M, np.concatenate([np.zeros(m), -np.ones(k)]))[:m], 0.0, None)
    blocks = np.split(x, offsets[1:-1])
    if any(b.sum() <= 0.0 for b in blocks):
        raise NoEquilibriumFound("Lemke's solution leaves a player without a mix")
    profile = MixedProfile(probs=tuple(b / b.sum() for b in blocks))
    eps = float(regret(fg, profile).max())
    if eps > EQ_TOLERANCE * max(1.0, float(np.abs(fg.costs).max())):
        raise NoEquilibriumFound(f"regret {eps:.3e} on the full tensor: it is not polymatrix")
    return profile, eps


def solve_equilibrium(fg: FiniteGame) -> tuple[MixedProfile, float]:
    """Dispatch on the player count; returns (profile, achieved regret)."""
    if fg.k == 2:
        profile = mne_two_player(fg)
        return profile, float(regret(fg, profile).max())
    return mne_k_player(fg)


def mean_strategies(fg: FiniteGame, profile: MixedProfile) -> list[np.ndarray]:
    """Probability-weighted mean strategy vector per player."""
    out = []
    for i in range(fg.k):
        stack = np.stack([np.asarray(s, dtype=np.float64) for s in fg.strategies[i]])
        out.append(profile.probs[i] @ stack)
    return out


@dataclass(frozen=True)
class DeltaReport:
    """Measured deviation gains of a mixed profile against the full lattice.

    ``gains[i]`` is (expected cost under the profile) minus (cost of the best
    integer deviation against the mean opponent strategies); it can exceed
    zero only up to numerical noise for an exact equilibrium of the full
    game.  The a-priori bounds to compare them with are in
    `bounds.GuaranteePack`.
    """

    expected_costs: tuple[float, ...]
    deviation_costs: tuple[float, ...]
    deviation_vectors: tuple[np.ndarray, ...]
    gains: tuple[float, ...]

    @property
    def max_gain(self) -> float:
        return max(self.gains)


def verify_delta(prep: game.Prepared, fg: FiniteGame, profile: MixedProfile) -> DeltaReport:
    """Measure every player's best-deviation gain against the full lattice.

    The coupling is linear in the opponents, so the expected cost of any own
    strategy against the mixed opponents equals its cost against their mean
    vector; the best deviation is therefore an exact integer minimization
    against the means.
    """
    means = mean_strategies(fg, profile)
    exp = expected_costs(fg, profile)
    dev_vecs = game.best_responses(prep, means)
    dev_costs, gains = [], []
    for i, v in enumerate(dev_vecs):
        others = [means[j] for j in range(fg.k) if j != i]
        cost = game.objective(prep.inst, i, v, others)
        dev_costs.append(cost)
        gains.append(float(exp[i]) - cost)
    return DeltaReport(
        expected_costs=tuple(float(e) for e in exp),
        deviation_costs=tuple(dev_costs),
        deviation_vectors=tuple(dev_vecs),
        gains=tuple(gains),
    )
