"""The cycle-restricted finite game and its equilibria.

When best-response iteration cycles, restricting every player to the
strategies visited inside the cycle yields a small finite game whose mixed
equilibrium approximates an equilibrium of the full instance.  This module
builds that game's cost tensor, finds pure and mixed equilibria, and measures
a-posteriori how much any player could gain by deviating to an arbitrary
lattice point.  The cost tensor needs only the instance (`restrict`); the
deviation check solves integer best responses, so `verify_delta` takes the
solve's `game.Prepared` value.

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

Games with three or more players have multilinear indifference conditions
instead; small supports are searched with a damped fixed-point sweep on the
per-player indifference systems, with deterministic full-feedback regret
matching as a fallback.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import dynamics, game
from .errors import DimensionMismatch, NoEquilibriumFound, ToleranceNotReached

EQ_TOLERANCE = 1e-9
PROB_SUM_TOLERANCE = 1e-12
KPLAYER_TARGET_EPS = 1e-6
KPLAYER_SUPPORT_CAP = 3
KPLAYER_SWEEPS = 400
KPLAYER_DAMPING = 0.5
REGRET_MATCH_ROUNDS = 10**6
_SING_PERTURBATION = 1e-12


@dataclass(frozen=True)
class FiniteGame:
    """Strategy lists plus the cost tensor of the restricted game.

    ``costs`` has shape (m_1, ..., m_k, k): entry [s_1, ..., s_k, i] is the
    exact objective of player i at the indexed joint profile.
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
    """Cost tensor of the game restricted to the cycle strategies."""
    strategies = cycle.strategies
    if any(len(s) == 0 for s in strategies):
        raise DimensionMismatch("every player needs at least one cycle strategy")
    sizes = tuple(len(s) for s in strategies)
    k = len(strategies)
    costs = np.empty(sizes + (k,), dtype=np.float64)
    for index in np.ndindex(*sizes):
        profile = [strategies[i][index[i]] for i in range(k)]
        for i in range(k):
            others = [profile[j] for j in range(k) if j != i]
            costs[index + (i,)] = game.objective(inst, i, profile[i], others)
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
    """All pure joint indices with no profitable unilateral deviation."""
    result = []
    for index in np.ndindex(*fg.sizes):
        ok = True
        for i in range(fg.k):
            slicer = list(index)
            slicer[i] = slice(None)
            column = fg.costs[tuple(slicer) + (i,)]
            if fg.costs[index + (i,)] > column.min() + atol:
                ok = False
                break
        if ok:
            result.append(tuple(index))
    return result


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


def _support_tuples(sizes: tuple[int, ...], cap: int):
    per_player = []
    for m in sizes:
        combos = []
        for size in range(1, min(cap, m) + 1):
            combos.extend(itertools.combinations(range(m), size))
        per_player.append(combos)
    tuples = list(itertools.product(*per_player))
    tuples.sort(key=lambda t: (sum(len(s) for s in t), tuple(map(len, t)), t))
    return tuples


def _damped_support_solve(fg: FiniteGame, supports) -> MixedProfile:
    """Damped sweep: player i's indifference pins the next player's mix.

    Each condition set is linear in one opponent's probabilities once the
    rest are frozen, so a round-robin of small solves with damping settles on
    mixes satisfying all indifference systems when the support admits one.
    """
    k = fg.k
    probs = []
    for i, supp in enumerate(supports):
        p = np.zeros(fg.sizes[i])
        p[list(supp)] = 1.0 / len(supp)
        probs.append(p)
    profile = MixedProfile(probs=tuple(probs))
    for _ in range(KPLAYER_SWEEPS):
        shift = 0.0
        for i in range(k):
            j = (i + 1) % k
            if len(supports[j]) == 1 or len(supports[i]) == 1:
                continue  # nothing to pin: j is a point mass or i has no indifference
            coeff = _cost_coefficients(fg, i, j, profile)
            solved = _solve_indifference(coeff, list(supports[i]), list(supports[j]))
            if solved is None:
                continue
            pj_supp, _ = solved
            if not np.all(np.isfinite(pj_supp)):
                continue
            pj = np.zeros(fg.sizes[j])
            pj[list(supports[j])] = np.clip(pj_supp, 0.0, None)
            if pj.sum() <= 0.0:
                continue
            pj /= pj.sum()
            new = (1.0 - KPLAYER_DAMPING) * profile.probs[j] + KPLAYER_DAMPING * pj
            shift = max(shift, float(np.abs(new - profile.probs[j]).max()))
            updated = list(profile.probs)
            updated[j] = new / new.sum()
            profile = MixedProfile(probs=tuple(updated))
        if shift < 1e-14:
            break
    return profile


def _cost_coefficients(fg: FiniteGame, i: int, j: int, profile: MixedProfile) -> np.ndarray:
    """Matrix [s_i, s_j] of player i's expected cost with all but j mixed."""
    T = fg.costs[..., i]
    for axis_owner in range(fg.k - 1, -1, -1):
        if axis_owner in (i, j):
            continue
        T = np.tensordot(T, profile.probs[axis_owner], axes=([axis_owner], [0]))
    if i < j:
        return T  # axes are (s_i, s_j)
    return T.T


def _regret_matching(fg: FiniteGame, eps: float, rounds: int) -> tuple[MixedProfile, float]:
    """Deterministic full-feedback regret matching; returns the time average."""
    k = fg.k
    cum_regret = [np.zeros(m) for m in fg.sizes]
    cum_strategy = [np.zeros(m) for m in fg.sizes]
    current = MixedProfile(probs=tuple(np.full(m, 1.0 / m) for m in fg.sizes))
    best_profile, best_eps = current, float(regret(fg, current).max())
    for t in range(1, rounds + 1):
        for i in range(k):
            costs_i = pure_strategy_costs(fg, i, current)
            avg_cost = float(costs_i @ current.probs[i])
            cum_regret[i] += avg_cost - costs_i  # positive where a pure action beats the mix
            cum_strategy[i] += current.probs[i]
        nxt = []
        for i in range(k):
            pos = np.clip(cum_regret[i], 0.0, None)
            total = pos.sum()
            if total > 0.0:
                nxt.append(pos / total)
            else:
                fallback = np.zeros(fg.sizes[i])
                fallback[int(np.argmax(cum_regret[i]))] = 1.0
                nxt.append(fallback)
        current = MixedProfile(probs=tuple(nxt))
        if t % 1000 == 0 or t == rounds:
            avg = MixedProfile(probs=tuple(s / s.sum() for s in cum_strategy))
            eps_now = float(regret(fg, avg).max())
            if eps_now < best_eps:
                best_profile, best_eps = avg, eps_now
            if best_eps <= eps:
                break
    return best_profile, best_eps


def mne_k_player(fg: FiniteGame) -> tuple[MixedProfile, float]:
    """Approximate equilibrium for k >= 3 players.

    Pure profiles and small supports (up to ``KPLAYER_SUPPORT_CAP``
    strategies per player) are searched first with the damped indifference
    sweep; if nothing reaches the target regret ``KPLAYER_TARGET_EPS``,
    ``REGRET_MATCH_ROUNDS`` rounds of regret matching run as a fallback.
    Returns the profile and its achieved per-player regret; raises
    ToleranceNotReached (carrying the best regret) when even the fallback
    stays above the target.
    """
    if fg.k < 3:
        raise DimensionMismatch(f"k-player solver got k={fg.k}")
    pnes = pne_search(fg)
    if pnes:
        profile = pure_profile(fg, pnes[0])
        return profile, float(regret(fg, profile).max())
    best_profile: MixedProfile | None = None
    best_eps = np.inf
    tuples = _support_tuples(fg.sizes, KPLAYER_SUPPORT_CAP)
    for supports in tuples:
        if all(len(s) == 1 for s in supports):
            continue  # pure profiles were handled by pne_search
        profile = _damped_support_solve(fg, supports)
        eps_now = float(regret(fg, profile).max())
        if eps_now < best_eps:
            best_profile, best_eps = profile, eps_now
        if best_eps <= KPLAYER_TARGET_EPS:
            return best_profile, best_eps
    rm_profile, rm_eps = _regret_matching(fg, KPLAYER_TARGET_EPS, REGRET_MATCH_ROUNDS)
    if rm_eps < best_eps:
        best_profile, best_eps = rm_profile, rm_eps
    if best_profile is None or best_eps > KPLAYER_TARGET_EPS:
        exc = ToleranceNotReached(best_eps)
        exc.best_profile = best_profile
        raise exc
    return best_profile, best_eps


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
