"""Closed-form guarantee calculators for cycle-restricted equilibria.

Given the cycle a run ended in, the maximum profitable deviation any player
can find in the full lattice game is bounded a posteriori by

    delta_i = lambda_1(Q_i) * (prox_i + L_i)^2

where L_i is the measured diameter of player i's cycle strategies.  When the
instance is positively adequate, L_i itself is bounded a priori by the least
solution of the one-step inequalities taken with equality,

    L_i = sigma_i * ||(L_j)_{j != i}|| + 2 prox_i        (i = 1..k).

One closure serves every k.  Given N = ||L||, each equation solves for L_i,

    L_i(N) = (2 prox_i + sigma_i sqrt((1 + sigma_i^2) N^2 - 4 prox_i^2)) / (1 + sigma_i^2),

and on N >= max 2 prox_i the sum of (L_i(N) / N)^2 falls strictly toward
sum sigma_i^2 / (1 + sigma_i^2).  So the system has a finite solution iff
that sum is below one (for two players exactly sigma_x sigma_y < 1), and then
exactly one, at the root of sum (L_i(N) / N)^2 = 1; a bracketed scalar
root-find in 1/N locates it.  Otherwise every bound is inf.  For two players the
root is the displayed closed form

    L_x = (2 prox_y sigma_x + 2 prox_x) / (1 - sigma_x sigma_y)

(symmetrically for y).  Composing the two gives the a-priori deviation bound
per player: the a-posteriori bound at the bounded diameter.

Every formula reads each player's proven proximity radius prox_i, the one
its factor carries (`iqp.Factor.radius`) and every certificate reads, so the
reported bounds are the bounds the certificates are proven for.
`guarantee_pack` computes a run's measured diameters and its bounds once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, game
from .errors import BoundOverflow


def cycle_diameter(cycle: dynamics.CycleSets, i: int) -> float:
    """Largest l2 distance between two of player i's cycle strategies."""
    strategies = cycle.strategies[i]
    if len(strategies) == 0:
        raise ValueError(f"player {i} has no cycle strategies")
    if len(strategies) == 1:
        return 0.0
    pts = np.asarray(strategies, dtype=np.float64)
    best = 0.0
    for a in range(len(pts) - 1):
        d = np.linalg.norm(pts[a + 1 :] - pts[a], axis=1).max()
        best = max(best, float(d))
    return best


def delta_a_posteriori(inst: game.IcqsInstance, i: int, L_i: float) -> float:
    """lambda_1(Q_i) * (prox_i + L_i)^2 for a measured cycle diameter L_i.

    An infinite L_i gives an infinite bound; BoundOverflow when a finite
    L_i gives one too large for a float.
    """
    if L_i < 0:
        raise ValueError("cycle diameter must be nonnegative")
    f = inst.factors[i]
    return _delta(i, f.lambda_max, f.radius, L_i)


def _delta(i: int, lambda_max: float, prox: float, L_i: float) -> float:
    try:
        delta = lambda_max * (prox + L_i) ** 2
    except OverflowError:
        delta = math.inf
    if delta == math.inf and L_i != math.inf:
        raise BoundOverflow(
            f"player {i}: the deviation bound lambda_1 (prox + L)^2 overflows at "
            f"prox = {prox:.6g}, L = {L_i:.6g}"
        )
    return delta


def closure_criterion(sigma) -> float:
    """sum sigma_i^2 / (1 + sigma_i^2); the L-bound closure is finite iff it is below one."""
    return sum(s * s / (1.0 + s * s) for s in sigma)


def l_closure(sigma, prox) -> list[float]:
    """Least solution of L_i = sigma_i ||L_{-i}|| + 2 prox_i; all inf when none is finite.

    Solved in t = 1/N: the excess sum (L_i(N)/N)^2 - 1 rises, nearly
    linearly, from criterion - 1 < 0 at t = 0 to >= 0 at t = 1/||2 prox||,
    where every L_i(N) >= 2 prox_i.  Illinois false position on that bracket
    stops once the excess is at the rounding level of a sum of k terms near
    one.
    """
    sigma = [float(s) for s in sigma]
    two_p = [2.0 * float(p) for p in prox]
    criterion = closure_criterion(sigma)
    if criterion >= 1.0:
        return [math.inf] * len(sigma)
    norm = math.hypot(*two_p)
    if norm == 0.0:
        return [0.0] * len(sigma)

    terms = [(s, tp, 1.0 + s * s) for s, tp in zip(sigma, two_p)]

    def ratios(t: float) -> list[float]:
        return [(tp * t + s * math.sqrt(a - (tp * t) ** 2)) / a for s, tp, a in terms]

    def excess(t: float) -> float:
        return sum([r * r for r in ratios(t)]) - 1.0

    noise = len(sigma) * math.ulp(1.0)
    lo, f_lo = 0.0, criterion - 1.0
    t = hi = 1.0 / norm
    f_t = f_hi = excess(hi)
    side = 0
    while abs(f_t) > noise and hi - lo > 4.0 * math.ulp(hi):
        t = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < t < hi:
            t = 0.5 * (lo + hi)
        f_t = excess(t)
        if f_t < 0.0:
            if side == -1:
                f_hi *= 0.5
            lo, f_lo, side = t, f_t, -1
        else:
            if side == 1:
                f_lo *= 0.5
            hi, f_hi, side = t, f_t, 1
    return [r / t for r in ratios(t)]


def l_bound_theoretical(inst: game.IcqsInstance) -> list[float] | None:
    """A-priori per-player cycle diameter bounds; None unless positively adequate."""
    if inst.report.classification is not game.Adequacy.POSITIVE:
        return None
    return l_closure(inst.report.sigma_max, [f.radius for f in inst.factors])


def _deltas(inst: game.IcqsInstance, diameters) -> tuple[float, ...]:
    """`delta_a_posteriori` of every player at its nonnegative diameter."""
    return tuple(_delta(i, f.lambda_max, f.radius, L) for i, (f, L) in enumerate(zip(inst.factors, diameters)))


def delta_a_priori(inst: game.IcqsInstance) -> list[float] | None:
    """Per-player a-priori deviation bounds; None unless positively adequate."""
    l_bounds = l_bound_theoretical(inst)
    return None if l_bounds is None else list(_deltas(inst, l_bounds))


@dataclass(frozen=True)
class GuaranteePack:
    """The measured cycle diameters of one run and its bounds, one per player.

    ``l_bound`` and ``delta_a_priori`` are None unless the instance is
    positively adequate.
    """

    l_measured: tuple[float, ...]
    l_bound: tuple[float, ...] | None
    delta_a_posteriori: tuple[float, ...]
    delta_a_priori: tuple[float, ...] | None


def guarantee_pack(inst: game.IcqsInstance, cycle: dynamics.CycleSets) -> GuaranteePack:
    """Assemble the measured diameters and the bounds of one run."""
    l_measured = tuple(cycle_diameter(cycle, i) for i in range(inst.k))
    lb = l_bound_theoretical(inst)
    return GuaranteePack(
        l_measured=l_measured,
        l_bound=None if lb is None else tuple(lb),
        delta_a_posteriori=_deltas(inst, l_measured),
        # the a-priori delta is the a-posteriori one at the bounded diameter
        delta_a_priori=None if lb is None else _deltas(inst, lb),
    )
