"""The cycle-restricted finite game and its equilibria.

When best-response iteration cycles, restricting every player to the
strategies visited inside the cycle yields a small finite game whose mixed
equilibrium approximates an equilibrium of the full instance.  This module
builds that game's costs, finds pure and mixed equilibria, and measures
a-posteriori how much any player could gain by deviating to an arbitrary
lattice point.  The functions that read the full game take the instance:
the costs (`restrict`), and the deviation check (`verify_delta`), which
solves integer best responses.  That check runs on joint vectors: the mean
profile is one vector, the deviations one `game.integer_sweep` of it, and
every player's deviation cost one `game.objectives` expression.

The coupling is linear, so the restricted game is polymatrix (Howson 1972):
player i's cost is an own term 0.5 s_i'Q_i s_i + d_i's_i plus one term
s_i'C_ij s_j per opponent.  `FiniteGame` holds the joint vector of own costs
and one matrix D = (S C) S', S the block-diagonal stack of the strategies and
C the instance's joint coupling, whose block (i, j) is S_i C_ij S_j'.  Expected
costs and regret read one matvec, own + D p at the joint probability vector p
(`strategy_costs`), the Lemke LCP reads D, and `cell_costs` builds one
player's costs over the cells from views.  `pne_search` takes only the axes
of the players with more than one strategy, so the player count is not
bound by numpy's axis limit.

A game in which every player has one strategy, the restricted game of an
integer fixed point z, is its own pure equilibrium, and the run's last sweep
has already answered z with z: `fixed_point_delta` builds its report from
z alone, with no solver and no further sweep.

Two-player games are solved exactly by support enumeration, smallest
supports first (`mne_two_player`).  Conditional dominance is one table of
Python-integer bitmasks per player, so the column supports of a row support
are drawn only from the columns not dominated on it, and a pair's rows are
tested against its column support with a few integer operations.  The pairs it
skips provably cannot win: it solves the same pairs in the same order as
the plain enumeration, and returns bitwise its profile.  Games
with three or more players are solved exactly by one run of Lemke's
complementary pivoting on the LCP built from D (Howson 1972; Miller & Zucker
1991).  The result's regret is checked, so a numerical failure of the
pivoting raises instead of returning a false equilibrium.
Every equilibrium test takes ``EQ_TOLERANCE`` times the largest |cost| it
reads, with no floor, so a game and its positive multiples have the same
equilibria.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import dynamics, game
from .errors import DimensionMismatch, GameTooLarge, NoEquilibriumFound
from .linalg import gesv

EQ_TOLERANCE = 1e-9
PROB_SUM_TOLERANCE = 1e-12
_SING_PERTURBATION = 1e-12
_PIVOT_TOLERANCE = 1e-9
_MAX_PIVOTS = 10_000
_FLOAT_MAX = float(np.finfo(np.float64).max)
# numpy 1.x arrays have at most 32 axes (numpy 2.x: 64), and a game with
# more players of several strategies has at least 2^33 cells
_MAX_SEARCH_AXES = 32


@dataclass(frozen=True)
class FiniteGame:
    """Strategy matrices plus the polymatrix costs of the restricted game.

    ``strategies[i]`` is player i's m_i x n_i int64 matrix of cycle
    strategies, one per row (`dynamics.CycleSets`).  Its m_i = ``sizes[i]``
    strategies take entries ``offsets[i]`` to
    ``offsets[i + 1]`` of ``own``, the joint vector of own costs
    ``0.5 s'Q_i s + d_i's``, and of each axis of ``D``, whose block (i, j) is
    ``S_i C_ij S_j'`` and whose diagonal blocks are zero.  Raises
    DimensionMismatch for a wrong shape, and ValueError for a nonzero
    diagonal block or an entry not below ``finfo.max / k`` in magnitude (NaN
    and infinities too), so that no sum of k pieces overflows.
    """

    strategies: tuple[np.ndarray, ...]
    own: np.ndarray
    D: np.ndarray
    sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)
    offsets: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = tuple(len(s) for s in self.strategies)
        offsets = tuple(itertools.accumulate(sizes, initial=0))
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "offsets", offsets)
        if self.own.shape != offsets[-1:] or self.D.shape != (offsets[-1],) * 2:
            raise DimensionMismatch(f"own {self.own.shape} and D {self.D.shape} do not fit {sizes}")
        if not np.abs(np.concatenate([self.own, self.D.ravel()])).max() < _FLOAT_MAX / len(sizes):
            raise ValueError("a cost of the restricted game overflows or a strategy is not finite")
        if max(sizes) == 1:  # every diagonal block is one entry of the diagonal
            diagonal = np.count_nonzero(self.D.diagonal())
        else:
            diagonal = any(self.D[a:b, a:b].any() for a, b in zip(offsets, offsets[1:]))
        if diagonal:
            raise ValueError("a diagonal block of D is not zero")

    @property
    def k(self) -> int:
        return len(self.strategies)


@dataclass(frozen=True)
class MixedProfile:
    """One probability vector per player over that player's strategy list."""

    probs: tuple[np.ndarray, ...]

    def __post_init__(self):
        cleaned = []
        for i, p in enumerate(self.probs):
            p = np.asarray(p, dtype=np.float64)
            total = p.sum()  # not finite iff an entry is not, or the entries overflow
            if not math.isfinite(total):
                raise ValueError(f"player {i} has a non-finite probability or probability sum")
            if abs(total - 1.0) > 1e-9:
                raise ValueError(f"player {i} probabilities sum to {total}")
            if p.min() < -PROB_SUM_TOLERANCE:
                raise ValueError(f"player {i} has a negative probability")
            p = p.clip(0.0, None)
            cleaned.append(p / p.sum())
        object.__setattr__(self, "probs", tuple(cleaned))

    def support(self, i: int) -> np.ndarray:
        return np.nonzero(self.probs[i] > 0.0)[0]


def pure_profile(fg: FiniteGame, index: tuple[int, ...]) -> MixedProfile:
    return MixedProfile(probs=tuple(np.eye(m)[s] for m, s in zip(fg.sizes, index)))


def restrict(inst: game.IcqsInstance, cycle: dynamics.CycleSets) -> FiniteGame:
    """The game restricted to the cycle strategies.

    Player i's strategy matrix ``cycle.strategies[i]`` is converted once to
    the float64 matrix S_i (m_i x n_i), and the own costs
    ``0.5 s'Q_i s + d_i's`` are taken per group of players of one dimension
    (`_own_costs`).  D is one product ``(S C) S'`` of the block-diagonal
    stack S of the S_i and the joint coupling ``inst.C``, with no loop over
    cells or pairs.  Each cell of `cell_costs` is `game.objective` at that
    profile up to rounding in its last bits.  ValueError when a piece is
    not finite or too large.
    """
    strategies = cycle.strategies
    if any(len(s) == 0 for s in strategies):
        raise DimensionMismatch("every player needs at least one cycle strategy")
    S = [np.asarray(S_i, dtype=np.float64) for S_i in strategies]
    lengths = tuple(S_i.shape[1] for S_i in S)
    if lengths != inst.dims:
        raise DimensionMismatch(f"strategy lengths {lengths} do not fit the player dimensions {inst.dims}")
    offsets = tuple(itertools.accumulate(map(len, S), initial=0))
    stack = np.zeros((offsets[-1], sum(lengths)))
    for S_i, r, (a, b) in zip(S, offsets, inst.slots):
        stack[r:r + len(S_i), a:b] = S_i
    with np.errstate(over="ignore", invalid="ignore"):
        own = _own_costs(inst, S)
        D = (stack @ inst.C) @ stack.T
    return FiniteGame(strategies=strategies, own=own, D=D)


def _own_costs(inst: game.IcqsInstance, S: list[np.ndarray]) -> np.ndarray:
    """The joint vector of own costs ``0.5 s'Q_i s + d_i's``, each bitwise
    the per-player ``0.5 * einsum("sa,ab,sb->s", S_i, Q_i, S_i) + S_i @
    d_i``.

    Per group of players of one dimension (`game.PlayerGroup`), the
    quadratic terms come from one einsum over the stacked S_i, zero-padded
    to the group's largest count, which sums each row as the per-player
    einsum does.  When every player of the group has the same count, the
    linear terms are one stacked matmul, which runs each player's own
    product, and one group's costs are the joint vector as they stand.
    Otherwise each player's linear term is its own ``S_i @ d_i``: a matmul
    over padded rows can round differently, and so can one ``stack @ d``
    over every player.
    """
    parts: list = [None] * inst.k
    for g in inst.groups:
        ps = g.players
        counts = [len(S[i]) for i in ps]
        m = max(counts)
        if m == min(counts):
            Sg = S[ps[0]][None] if len(ps) == 1 else np.concatenate([S[i] for i in ps]).reshape(len(ps), m, -1)
            costs = 0.5 * np.einsum("gsa,gab,gsb->gs", Sg, g.Q, Sg) + np.matmul(Sg, g.d)[:, :, 0]
            if len(inst.groups) == 1:
                return costs.reshape(-1)
            for i, row in zip(ps, costs):
                parts[i] = row
            continue
        Sg = np.zeros((len(ps), m, g.Q.shape[1]))
        for r, i in enumerate(ps):
            Sg[r, :counts[r]] = S[i]
        half = 0.5 * np.einsum("gsa,gab,gsb->gs", Sg, g.Q, Sg)
        for i, row, count in zip(ps, half, counts):
            parts[i] = row[:count] + S[i] @ inst.players[i].d
    return np.concatenate(parts)


def strategy_costs(fg: FiniteGame, p: np.ndarray) -> np.ndarray:
    """Every player's pure-strategy costs against the others' mixes, as one
    vector ``own + D p`` at the joint probability vector ``p``."""
    return fg.own + fg.D @ p


def _expected(fg: FiniteGame, costs: np.ndarray, p: np.ndarray) -> np.ndarray:
    return np.add.reduceat(costs * p, fg.offsets[:-1])


def expected_costs(fg: FiniteGame, profile: MixedProfile) -> np.ndarray:
    """Expected cost per player under the product distribution."""
    p = np.concatenate(profile.probs)
    return _expected(fg, strategy_costs(fg, p), p)


def regret(fg: FiniteGame, profile: MixedProfile) -> np.ndarray:
    """Per-player gain from the best pure strategy inside the finite game."""
    p = np.concatenate(profile.probs)
    costs = strategy_costs(fg, p)
    return _expected(fg, costs, p) - np.minimum.reduceat(costs, fg.offsets[:-1])


def cell_costs(fg: FiniteGame, i: int, axes: tuple[int, ...] | None = None) -> np.ndarray:
    """Player i's cost in every cell: own, then blocks by ascending opponent.

    One axis per player of ``axes``, ascending and holding i, all players
    by default, so the shape is ``fg.sizes``.  A player left out has one
    strategy, and its block adds to every cell as a size-1 axis would: the
    costs are bitwise those on all axes with the size-1 axes dropped.
    """
    o, sizes = fg.offsets, fg.sizes
    axes = tuple(range(fg.k)) if axes is None else axes
    own = [sizes[a] if a == i else 1 for a in axes]
    total = fg.own[o[i]:o[i + 1]].reshape(own)
    for j in itertools.chain(range(i), range(i + 1, fg.k)):
        block = fg.D[o[i]:o[i + 1], o[j]:o[j + 1]]
        shape = [sizes[a] if a in (i, j) else 1 for a in axes] if j in axes else own
        total = total + (block.T if j < i else block).reshape(shape)
    return total


def pne_search(fg: FiniteGame) -> list[tuple[int, ...]]:
    """All pure joint indices with no profitable unilateral deviation, in
    `np.ndindex` order.

    A player with one strategy has no deviation inside the game, so the
    search runs over the axes of the players with more than one
    (`cell_costs` on those axes).  One reduction per such player: a cell
    is kept unless player i's cost there exceeds the least cost along axis
    i (its deviations) by more than ``EQ_TOLERANCE`` times max|cost| over
    player i's cells.  One player's costs are held at a time.
    GameTooLarge when more than ``_MAX_SEARCH_AXES`` players have several
    strategies: the game then has at least 2^33 cells.
    """
    axes = tuple(a for a, m in enumerate(fg.sizes) if m > 1)
    if len(axes) > _MAX_SEARCH_AXES:
        raise GameTooLarge(
            f"{len(axes)} players have several strategies: the game has at least "
            f"2^{len(axes)} cells, too many to search for a pure equilibrium"
        )
    keep = np.ones([fg.sizes[a] for a in axes], dtype=bool)
    for axis, i in enumerate(axes):
        cost = cell_costs(fg, i, axes)
        atol = EQ_TOLERANCE * float(np.abs(cost).max())
        keep &= ~(cost > cost.min(axis=axis, keepdims=True) + atol)
    cells = np.zeros((np.count_nonzero(keep), fg.k), dtype=np.int64)  # index 0 on the other axes
    cells[:, list(axes)] = np.argwhere(keep)
    return [tuple(index) for index in cells.tolist()]


def _solve_indifference(costs: np.ndarray, supp_rows: list, supp_cols: list) -> tuple[np.ndarray, float] | None:
    """Opponent mix + value making the supported rows of ``costs`` indifferent.

    Rows are the supported player's strategies, columns the opponent's; solves
    [A | -1; 1' | 0] (q, v) = (0, 1), least squares when non-square.  A square
    system goes to `linalg.gesv`, `np.linalg.solve`'s LAPACK call and bits;
    only a non-finite result, as a singular M gives, is solved again by
    `np.linalg.solve`, which raises on a singular M.  Singular systems get a
    1e-12 diagonal perturbation and one retry.
    """
    A = costs[supp_rows][:, supp_cols]
    a, b = A.shape
    M = np.zeros((a + 1, b + 1))
    M[:a, :b] = A
    M[:a, b] = -1.0
    M[a, :b] = 1.0
    rhs = np.zeros(a + 1)
    rhs[a] = 1.0
    try:
        if a == b:
            with np.errstate(all="ignore"):
                sol = gesv(M, rhs)
            if not np.isfinite(sol).all():
                sol = np.linalg.solve(M, rhs)
        else:
            sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    except np.linalg.LinAlgError:
        try:
            Mp = M + _SING_PERTURBATION * np.eye(a + 1, b + 1)
            sol, *_ = np.linalg.lstsq(Mp, rhs, rcond=None)
        except np.linalg.LinAlgError:
            return None
    if not np.isfinite(sol).all():
        return None
    return sol[:b], float(sol[b])


def _valid_side(costs: np.ndarray, opp_mix: np.ndarray, supp: list, value: float, atol: float) -> bool:
    # every support row attains `value`, every other row costs at least it
    expected = costs @ opp_mix
    gap = np.abs(expected[supp] - value).max()
    expected[supp] = np.inf
    return not (gap > atol or expected.min() < value - atol)


def _dominance_margin(top: float, size: int, atol: float) -> float:
    """Cost gap above which a dominated strategy provably fails ``_valid_side``.

    Under a mix that passes, a supported row costs at most ``value + atol``
    and every row at least ``value - atol``, so no supported row costs more
    than ``2 * atol`` above any other row.  The second term covers the float
    rounding of the expected costs, of the normalised mix and of the
    comparisons, relative to ``top``, the largest cost magnitude of a
    bimatrix game of ``size`` strategies in all, with a wide safety factor.
    """
    return 2.0 * atol + 8.0 * (size + 2) * np.finfo(np.float64).eps * (top + atol)


def _dominated_given(costs: np.ndarray, margin: float):
    """Lookup: opponent support (a tuple) -> bitmask of the rows dominated on it.

    Row r is dominated on columns S when some row r' costs more than
    ``margin`` less than r on every column of S.  Then every mix over S
    leaves r more than ``2 * atol`` above r', so no support containing r
    passes the equilibrium check against S.  Bit r of ``beats[r'][c]``, a
    Python integer of any width, is set when row r costs more than
    ``margin`` above row r' in column c, so the rows dominated on S are the
    union over r' of the intersection over S.  Cached per S.
    """
    beaten = (costs[:, None, :] - costs[None, :, :]) > margin  # [r, r', col]
    packed = np.packbits(beaten, axis=0, bitorder="little").astype(object)
    beats = sum(byte << 8 * k for k, byte in enumerate(packed)).tolist()  # [r'][col]

    @functools.cache
    def lookup(cols: tuple[int, ...]) -> int:
        rows = 0
        for row in beats:
            common = row[cols[0]]
            for c in cols[1:]:
                common &= row[c]
            rows |= common
        return rows

    return lookup


def _side(costs: np.ndarray, own: list, opp: list, size: int, atol: float):
    """Normalised opponent mix over ``opp`` that makes ``own`` an equilibrium
    support of ``costs``; None when the indifference system has no usable
    solution or the mix fails the sign, sum or ``_valid_side`` checks."""
    solved = _solve_indifference(costs, own, opp)
    if solved is None or solved[0].min() < -1e-9:
        return None
    mix_supp, value = solved
    mix = np.zeros(size)
    mix[opp] = np.maximum(mix_supp, 0.0)
    total = mix.sum()
    if abs(total - 1.0) > 1e-9:
        return None
    mix /= total
    return mix if _valid_side(costs, mix, own, value, atol) else None


def mne_two_player(fg: FiniteGame) -> MixedProfile:
    """Exact mixed equilibrium of a bimatrix game by support enumeration.

    Returns the first valid equilibrium in the (total size, row support
    size, lexicographic) support order, a smallest-support equilibrium.
    The equilibrium check's tolerance is ``EQ_TOLERANCE`` times ``max(max|A|,
    max|B|)``, with no floor, as the k-player check's is.  Pairs that
    provably fail the check are never solved (conditional dominance, Porter,
    Nudelman & Shoham 2008): the columns dominated, by more than twice that
    tolerance plus rounding, on a row support are dropped before its column
    supports are enumerated, then a pair with a row dominated on its column
    support, and the column player's mix is solved and checked before the
    row player's.  None of this changes the pairs solved, their order or the
    returned profile.  With a single strategy for a player, nothing is
    pruned.  NoEquilibriumFound signals a numerical failure.
    """
    if fg.k != 2:
        raise DimensionMismatch(f"two-player solver got k={fg.k}")
    A = cell_costs(fg, 0)
    BT = cell_costs(fg, 1).T
    m, n = A.shape
    top = max(float(np.abs(A).max()), float(np.abs(BT).max()))
    atol = EQ_TOLERANCE * top
    # no cost difference exceeds an infinite margin: nothing is pruned
    margin = _dominance_margin(top, m + n, atol) if m > 1 and n > 1 else math.inf
    rows_dominated, cols_dominated = _dominated_given(A, margin), _dominated_given(BT, margin)
    for total in range(2, m + n + 1):
        for a in range(max(1, total - n), min(m, total - 1) + 1):
            for I in itertools.combinations(range(m), a):
                own, rows, skip = sum(1 << i for i in I), list(I), cols_dominated(I)
                for J in itertools.combinations([j for j in range(n) if not skip >> j & 1], total - a):
                    if rows_dominated(J) & own:
                        continue
                    cols = list(J)
                    q = _side(A, rows, cols, n, atol)
                    p = None if q is None else _side(BT, cols, rows, m, atol)
                    if p is not None:
                        return MixedProfile(probs=(p, q))
    raise NoEquilibriumFound("support enumeration exhausted all supports")


def polymatrix_blocks(fg: FiniteGame) -> tuple[np.ndarray, tuple[int, ...]]:
    """Stacked blocks D, with D[i][j] in rows offsets[i]: and columns
    offsets[j]:, such that player i's expected cost against any mixes is
    ``sum_j D_ij p_j``; the diagonal blocks are zero.

    D_ij is the game's block (i, j) of ``fg.D``; the first opponent's block
    also carries player i's own costs, which any mix of that opponent
    multiplies by one.
    """
    o = fg.offsets
    D = fg.D.copy()
    D[:o[1], o[1]:o[2]] += fg.own[:o[1], None]
    D[o[1]:, :o[1]] += fg.own[o[1]:, None]
    return D, o


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
    """Exact equilibrium of a polymatrix game with k >= 3 players.

    A pure equilibrium is returned when one exists.  Otherwise the game is
    written as the LCP ``M = [[D' + c, -E], [E', 0]]``, ``q = (0, -1)``, with
    D from `polymatrix_blocks` scaled to D' = D / max|D|, E each player's
    column of ones and c making every entry of D' + c at least 2, so M is
    copositive-plus and Lemke's algorithm ends with a solution (Howson 1972;
    Miller & Zucker 1991).  A positive scale leaves the equilibria as they
    are, and puts D on the scale of E, to which the pivot tolerances are
    relative: unscaled, costs of 1e9 and more ended on a ray.  The x part,
    normalised per player, is the profile.  NoEquilibriumFound is raised
    when its regret in the unscaled game exceeds ``EQ_TOLERANCE`` times
    ``(k - 1) max|D|``, a bound on every |cost|, at any cost scale: a
    numerical failure of the pivoting never returns a false equilibrium.
    """
    if fg.k < 3:
        raise DimensionMismatch(f"k-player solver got k={fg.k}")
    pnes = pne_search(fg)
    if pnes:
        profile = pure_profile(fg, pnes[0])
        return profile, float(regret(fg, profile).max())
    D, offsets = polymatrix_blocks(fg)
    m, k = offsets[-1], fg.k
    scale = float(np.abs(D).max())
    if scale > 0.0:
        D = D / scale
    E = np.repeat(np.eye(k), fg.sizes, axis=0)
    M = np.block([[D + (2.0 - D.min()), -E], [E.T, np.zeros((k, k))]])
    x = np.clip(_lemke(M, np.concatenate([np.zeros(m), -np.ones(k)]))[:m], 0.0, None)
    blocks = np.split(x, offsets[1:-1])
    if any(b.sum() <= 0.0 for b in blocks):
        raise NoEquilibriumFound("Lemke's solution leaves a player without a mix")
    profile = MixedProfile(probs=tuple(b / b.sum() for b in blocks))
    eps = float(regret(fg, profile).max())
    if eps > EQ_TOLERANCE * (k - 1) * scale:
        raise NoEquilibriumFound(f"regret {eps:.3e} of Lemke's solution")
    return profile, eps


def solve_equilibrium(fg: FiniteGame) -> tuple[MixedProfile, float]:
    """An exact equilibrium and its regret in the game: (profile, regret).

    Two players go to `mne_two_player` and more to `mne_k_player`.  A
    one-cell game, an integer fixed point's, comes back from either as its
    pure profile with regret 0.0 (each cost c is finite, `FiniteGame`, and
    c * 1.0 - c is +0.0): what `cli.solve_pipeline` writes for a fixed point
    without solving.
    """
    if fg.k > 2:
        return mne_k_player(fg)
    profile = mne_two_player(fg)
    return profile, float(regret(fg, profile).max())


def mean_strategies(fg: FiniteGame, profile: MixedProfile) -> list[np.ndarray]:
    """Probability-weighted mean strategy vector per player: p_i @ S_i, with
    player i's strategy matrix converted once to float64."""
    return [p @ np.asarray(S_i, dtype=np.float64) for p, S_i in zip(profile.probs, fg.strategies)]


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


def verify_delta(inst: game.IcqsInstance, fg: FiniteGame, profile: MixedProfile) -> DeltaReport:
    """Measure every player's best-deviation gain against the full lattice.

    The coupling is linear in the opponents, so the expected cost of any own
    strategy against the mixed opponents equals its cost against their mean
    vector; the best deviation is therefore an exact integer minimization
    against the means.

    Everything runs on joint vectors: the means form one vector z, the
    deviations are one joint integer vector v, one `game.integer_sweep` of
    z (bitwise `game.best_responses` on the means), and every player's
    deviation cost comes from one `game.objectives` expression at v against
    z, up to rounding in its last bits `game.objective`'s.
    """
    z = np.concatenate(mean_strategies(fg, profile))
    return _delta_report(inst, expected_costs(fg, profile), game.integer_sweep(inst, z)[0], z)


def fixed_point_delta(inst: game.IcqsInstance, fg: FiniteGame, z: np.ndarray) -> DeltaReport:
    """The report of an integer fixed point: `verify_delta` at its pure
    profile, bit for bit, from the joint int64 fixed point ``z`` alone.

    ``fg`` is the one-cell game restricted from ``z`` (DimensionMismatch
    for any other size).  Its expected costs are `strategy_costs` at
    probability one, which are bitwise `expected_costs` at the pure profile:
    c * 1.0 and a one-element sum are exact.  The means are z itself, and
    the last sweep of the run that settled at z answered z with z, so z is
    every player's best deviation, with no further sweep.
    """
    if fg.sizes != (1,) * fg.k:
        raise DimensionMismatch(f"a fixed point's game has one strategy per player, not {fg.sizes}")
    return _delta_report(inst, strategy_costs(fg, np.ones(fg.k)), z, z.astype(np.float64))


def _delta_report(inst: game.IcqsInstance, exp: np.ndarray, v: np.ndarray, z: np.ndarray) -> DeltaReport:
    # expected costs, the joint int64 deviations v and the joint float64 means z
    dev_costs = game.objectives(inst, v.astype(np.float64), z)
    return DeltaReport(
        expected_costs=tuple(exp.tolist()),
        deviation_costs=tuple(dev_costs.tolist()),
        deviation_vectors=inst.split(v),
        gains=tuple((exp - dev_costs).tolist()),
    )
