"""Closed-form guarantee calculators for cycle-restricted equilibria.

Given the cycle a run ended in, the maximum profitable deviation any player
can find in the full lattice game is bounded a posteriori by

    delta_i = lambda_1(Q_i) * (prox_i + L_i)^2

where L_i is the measured diameter of player i's cycle strategies.  When the
instance is positively adequate, L_i itself is bounded a priori: for two
players

    L_x <= (2 prox_y sigma_x + 2 prox_x) / (1 - sigma_x sigma_y)

(symmetrically for y), and for k players the same one-step inequality
L_i <= sigma_i * ||(L_j)_{j != i}|| + 2 prox_i closes into a monotone
fixed-point system that is iterated from zero; its limit reproduces the
two-player closed form exactly and over-approximates for k >= 3 (it may be
infinite when the sigmas are large, in which case the bound is reported as
inf).  Composing the two gives the a-priori deviation bound per player.

Every formula consumes a proximity radius per player, in one of two
variants: ``"flatness"`` is the plain flatness-constant formula that the
reported numbers quote, and ``"exact"`` upgrades scaled-identity matrices to
their true worst case sqrt(n)/2 (the flatness value understates 1-D blocks,
where measured diameters can legitimately exceed the flatness-based L
bound; such violations are flagged, not hidden).  Both come from the solve's
`game.Prepared` value, under its flatness rule; the L bounds and a-priori
deltas are computed at most once per variant and kept in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, game

_FIXED_POINT_ITERS = 100_000
_FIXED_POINT_TOL = 1e-13
_DIVERGED = 1e15


def cycle_diameter(cycle: dynamics.CycleSets, i: int) -> float:
    """Largest l2 distance between two of player i's cycle strategies."""
    strategies = cycle.strategies[i]
    if len(strategies) == 0:
        raise ValueError(f"player {i} has no cycle strategies")
    if len(strategies) == 1:
        return 0.0
    pts = np.stack([np.asarray(s, dtype=np.float64) for s in strategies])
    best = 0.0
    for a in range(len(pts) - 1):
        d = np.linalg.norm(pts[a + 1 :] - pts[a], axis=1).max()
        best = max(best, float(d))
    return best


def delta_a_posteriori(
    inst: game.IcqsInstance,
    i: int,
    L_i: float,
    prox_variant: str = "flatness",
    prep: game.Prepared | None = None,
) -> float:
    """lambda_1(Q_i) * (prox_i + L_i)^2 for a measured cycle diameter L_i."""
    if L_i < 0:
        raise ValueError("cycle diameter must be nonnegative")
    player = prep.players[i] if prep is not None else game.prepare_player(inst, i)
    return player.factor.lambda_max * (player.prox(prox_variant) + L_i) ** 2


def l_bound_theoretical(
    inst: game.IcqsInstance,
    prep: game.Prepared | None = None,
    prox_variant: str = "flatness",
) -> list[float] | None:
    """A-priori per-player cycle diameter bounds; None unless positively adequate.

    Solved as the least fixed point of L_i = sigma_i ||L_{-i}|| + 2 prox_i,
    iterated from zero.  Entries come out inf when the system has no finite
    fixed point (possible for k >= 3 with sigmas near one; the closure is a
    conservative over-approximation there).
    """
    if prep is None:
        prep = game.prepare(inst)
    if prep.report.classification is not game.Adequacy.POSITIVE:
        return None
    if inst.k == 2:
        # the coupled pair of inequalities solves in closed form
        return two_player_l_bound_closed_form(inst, prep, prox_variant)
    sigma = np.array(prep.report.sigma_max)
    prox = np.array([p.prox(prox_variant) for p in prep.players])
    return _l_fixed_point(sigma, prox)


def _l_fixed_point(sigma: np.ndarray, prox: np.ndarray) -> list[float]:
    k = len(sigma)
    L = np.zeros(k)
    for _ in range(_FIXED_POINT_ITERS):
        norms_rest = np.array(
            [math.sqrt(max(float(L @ L - L[i] * L[i]), 0.0)) for i in range(k)]
        )
        nxt = sigma * norms_rest + 2.0 * prox
        if np.max(np.abs(nxt - L)) < _FIXED_POINT_TOL * max(1.0, float(np.max(nxt))):
            return [float(v) for v in nxt]
        L = nxt
        if float(L.max()) > _DIVERGED:
            return [math.inf] * k
    return [math.inf] * k


def two_player_l_bound_closed_form(
    inst: game.IcqsInstance,
    prep: game.Prepared | None = None,
    prox_variant: str = "flatness",
) -> list[float] | None:
    """The displayed two-player bounds; cross-checks the fixed-point closure."""
    if prep is None:
        prep = game.prepare(inst)
    if prep.report.classification is not game.Adequacy.POSITIVE or inst.k != 2:
        return None
    sx, sy = prep.report.sigma_max
    px = prep.players[0].prox(prox_variant)
    py = prep.players[1].prox(prox_variant)
    denom = 1.0 - sx * sy
    return [
        (2.0 * py * sx + 2.0 * px) / denom,
        (2.0 * px * sy + 2.0 * py) / denom,
    ]


def _a_priori(
    prep: game.Prepared, prox_variant: str
) -> tuple[tuple[float, ...] | None, tuple[float, ...] | None]:
    """(L bounds, a-priori deltas), both None unless positively adequate;
    computed once per prepared instance and variant."""
    hit = prep.a_priori.get(prox_variant)
    if hit is None:
        l_bounds = l_bound_theoretical(prep.inst, prep, prox_variant)
        if l_bounds is None:
            hit = (None, None)
        else:
            # the a-priori delta is the a-posteriori one at the bounded diameter
            deltas = tuple(
                delta_a_posteriori(prep.inst, i, L, prox_variant, prep)
                for i, L in enumerate(l_bounds)
            )
            hit = (tuple(l_bounds), deltas)
        prep.a_priori[prox_variant] = hit
    return hit


def delta_a_priori(
    inst: game.IcqsInstance,
    prep: game.Prepared | None = None,
    prox_variant: str = "flatness",
) -> list[float] | None:
    """Per-player a-priori deviation bounds; None unless positively adequate."""
    if prep is None:
        prep = game.prepare(inst)
    deltas = _a_priori(prep, prox_variant)[1]
    return None if deltas is None else list(deltas)


@dataclass(frozen=True)
class GuaranteePack:
    """Everything the run report quotes about one solved instance.

    ``flatness_l_violated[i]`` flags players whose measured cycle diameter
    exceeds the flatness-variant L bound; the exact-variant bound is the one
    the termination theory actually certifies.
    """

    classification: game.Adequacy
    rho: float | None
    lambda1: tuple[float, ...]
    sigma1: tuple[float, ...]
    prox_flatness: tuple[float, ...]
    prox_exact: tuple[float, ...]
    l_measured: tuple[float, ...]
    l_bound_flatness: tuple[float, ...] | None
    l_bound_exact: tuple[float, ...] | None
    delta_posteriori_flatness: tuple[float, ...]
    delta_posteriori_exact: tuple[float, ...]
    delta_priori_flatness: tuple[float, ...] | None
    delta_priori_exact: tuple[float, ...] | None
    flatness_l_violated: tuple[bool, ...]


def guarantee_pack(
    inst: game.IcqsInstance,
    cycle: dynamics.CycleSets,
    prep: game.Prepared | None = None,
) -> GuaranteePack:
    """Assemble measured diameters and every bound variant for one run."""
    if prep is None:
        prep = game.prepare(inst)
    k = inst.k
    l_measured = tuple(cycle_diameter(cycle, i) for i in range(k))
    lbf, dpf = _a_priori(prep, "flatness")
    lbe, dpe = _a_priori(prep, "exact")
    violated = tuple(
        lbf is not None and l_measured[i] > lbf[i] * (1.0 + 1e-9) + 1e-12
        for i in range(k)
    )
    return GuaranteePack(
        classification=prep.report.classification,
        rho=prep.report.rho,
        lambda1=tuple(p.factor.lambda_max for p in prep.players),
        sigma1=prep.report.sigma_max,
        prox_flatness=tuple(p.prox_flatness for p in prep.players),
        prox_exact=tuple(p.prox_exact for p in prep.players),
        l_measured=l_measured,
        l_bound_flatness=lbf,
        l_bound_exact=lbe,
        delta_posteriori_flatness=tuple(
            delta_a_posteriori(inst, i, l_measured[i], "flatness", prep) for i in range(k)
        ),
        delta_posteriori_exact=tuple(
            delta_a_posteriori(inst, i, l_measured[i], "exact", prep) for i in range(k)
        ),
        delta_priori_flatness=dpf,
        delta_priori_exact=dpe,
        flatness_l_violated=violated,
    )
