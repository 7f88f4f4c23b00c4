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
The a-priori bounds depend on the instance alone: it takes them once, when
it is built (`a_priori`), as ``l_bound`` and ``delta_a_priori``, with an
overflow stored as inf and raised as BoundOverflow only where a bound is
read.  `guarantee_pack` adds a run's measured diameters and its
a-posteriori bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, game, iqp
from .errors import BoundOverflow


def cycle_diameter(cycle: dynamics.CycleSets, i: int) -> float:
    """Largest l2 distance between two of player i's cycle strategies."""
    strategies = cycle.strategies[i]
    if len(strategies) == 0:
        raise ValueError(f"player {i} has no cycle strategies")
    if len(strategies) == 1:
        return 0.0
    pts = np.asarray(strategies, dtype=np.float64)
    return float(np.linalg.norm(pts[:, None] - pts[None], axis=2).max())


def delta_a_posteriori(inst: game.IcqsInstance, i: int, L_i: float) -> float:
    """lambda_1(Q_i) * (prox_i + L_i)^2 for a measured cycle diameter L_i.

    An infinite L_i gives an infinite bound; BoundOverflow when a finite
    L_i gives one too large for a float.
    """
    if L_i < 0:
        raise ValueError("cycle diameter must be nonnegative")
    return _checked(inst, i, L_i, _delta(inst.factors[i], L_i))


def _delta(f: iqp.Factor, L_i: float) -> float:
    """lambda_1 (prox + L_i)^2 for player factor ``f``; inf when it overflows."""
    try:
        return f.lambda_max * (f.radius + L_i) ** 2
    except OverflowError:
        return math.inf


def _checked(inst: game.IcqsInstance, i: int, L_i: float, delta: float) -> float:
    """``delta``, player i's bound at diameter L_i; BoundOverflow when it is
    inf at a finite L_i."""
    if delta == math.inf and L_i != math.inf:
        raise BoundOverflow(
            f"player {i}: the deviation bound lambda_1 (prox + L)^2 overflows at "
            f"prox = {inst.factors[i].radius:.6g}, L = {L_i:.6g}"
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
    one.  That leaves the root, and each L_i, within about that level over
    1 - criterion of the least solution, relative and on either side, so
    the result is rounded up by eight times as much, so that it does not
    understate the least solution: against a 60-digit bisection on 3,000
    seeded draws the unrounded result was off by at most 4.6 times that
    level, and at 1 - sigma_x sigma_y = 1e-12 to 1e-14, where the lift
    grows to a relative 0.7, the rounded one was above it on every seeded
    draw tried.
    """
    sigma = [float(s) for s in sigma]
    two_p = [2.0 * float(p) for p in prox]
    criterion = closure_criterion(sigma)
    if criterion >= 1.0:
        return [math.inf] * len(sigma)
    norm = math.hypot(*two_p)
    if norm == 0.0:
        return [0.0] * len(sigma)
    if norm == math.inf:  # every L_i >= 2 prox_i
        return [math.inf] * len(sigma)

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
    lift = 1.0 + 8.0 * noise / (1.0 - criterion)
    return [r / t * lift for r in ratios(t)]


def l_bound_theoretical(inst: game.IcqsInstance) -> list[float] | None:
    """A-priori per-player cycle diameter bounds; None unless positively
    adequate.  The instance takes them once, as ``inst.l_bound``."""
    if inst.report.classification is not game.Adequacy.POSITIVE:
        return None
    return l_closure(inst.report.sigma_max, [f.radius for f in inst.factors])


def a_priori(inst: game.IcqsInstance) -> tuple[tuple[float, ...] | None, tuple[float, ...] | None]:
    """Every player's a-priori diameter and deviation bounds, each None unless
    positively adequate, with inf for a deviation bound that overflows: the
    instance's ``l_bound`` and ``delta_a_priori``, taken once when it is
    built.  Nothing is raised here; BoundOverflow is raised where the
    deviation bounds are read (`delta_a_priori`, `guarantee_pack`)."""
    l_bounds = l_bound_theoretical(inst)
    return (None, None) if l_bounds is None else (tuple(l_bounds), _deltas(inst, l_bounds))


def _deltas(inst: game.IcqsInstance, diameters) -> tuple[float, ...]:
    """Every player's deviation bound at its nonnegative diameter, unchecked."""
    return tuple(_delta(f, L) for f, L in zip(inst.factors, diameters))


def _all_checked(inst: game.IcqsInstance, diameters, deltas) -> tuple[float, ...]:
    return tuple(_checked(inst, i, L, d) for i, (L, d) in enumerate(zip(diameters, deltas)))


def _priori(inst: game.IcqsInstance) -> tuple[float, ...] | None:
    return None if inst.l_bound is None else _all_checked(inst, inst.l_bound, inst.delta_a_priori)


def delta_a_priori(inst: game.IcqsInstance) -> list[float] | None:
    """Per-player a-priori deviation bounds, ``inst.delta_a_priori``; None
    unless positively adequate, and BoundOverflow when one overflows."""
    priori = _priori(inst)
    return None if priori is None else list(priori)


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
    """Assemble the measured diameters of one run and its bounds: the
    a-posteriori ones at those diameters, and the instance's a-priori ones."""
    l_measured = tuple(cycle_diameter(cycle, i) for i in range(inst.k))
    return GuaranteePack(
        l_measured=l_measured,
        l_bound=inst.l_bound,
        # an overflow of an a-posteriori bound is raised before one of the
        # a-priori bounds, which the instance holds
        delta_a_posteriori=_all_checked(inst, l_measured, _deltas(inst, l_measured)),
        delta_a_priori=_priori(inst),
    )
