"""Seeded instance families: competitive pricing, random integer games,
expanding (negatively adequate) games, and the three hand-built examples.

Randomness comes from SplitMix64, a counter-based 64-bit generator small
enough to respecify exactly (see the class docstring), so a (spec, seed)
pair pins the emitted instance down to the last bit on any platform.

The stochastic families check their advertised classification against the
report each draw derives when it is built (`IcqsInstance.report`) and
redraw on failure; generation raises RejectionBudgetExceeded after 1000
rejected draws.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import game, linalg
from .errors import InvalidM, NotPositiveDefinite, RejectionBudgetExceeded

REJECTION_BUDGET = 1000

_MASK64 = (1 << 64) - 1


def _spec_meta(generator: str, spec) -> dict:
    # json round trip turns tuples into lists so saved meta reloads equal
    return {"generator": generator, "spec": json.loads(json.dumps(asdict(spec)))}


class SplitMix64:
    """splitmix64: state advances by the 64-bit golden ratio, output is the
    mixed state.

        state = (state + 0x9E3779B97F4A7C15) mod 2^64
        z = state
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 mod 2^64
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB mod 2^64
        output = z ^ (z >> 31)

    uniform(lo, hi) maps the top 53 bits to [0, 1); randint(lo, hi) reduces
    the raw output modulo the span (bias below 2^-50 at the spans used here).
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * ((self.next_u64() >> 11) * 2.0**-53)

    def randint(self, lo: int, hi: int) -> int:
        return lo + self.next_u64() % (hi - lo + 1)

    def uniform_vector(self, n: int, lo: float, hi: float) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(n)])

    def randint_matrix(self, rows: int, cols: int, lo: int, hi: int) -> np.ndarray:
        return np.array(
            [[self.randint(lo, hi) for _ in range(cols)] for _ in range(rows)],
            dtype=np.float64,
        )


@dataclass(frozen=True)
class PricingSpec:
    """Retailers pricing disjoint product sets with linear demand coupling.

    Parameter ranges keep each player's quadratic diagonally dominant (hence
    positive definite) and the cross elasticities weak enough that rejection
    for inadequate instances stays rare.
    """

    n_players: int
    seed: int
    products_range: tuple[int, int] = (3, 6)
    a_range: tuple[float, float] = (20.0, 100.0)
    b_range: tuple[float, float] = (1.0, 4.0)
    c_range: tuple[float, float] = (1.0, 10.0)
    cross_scale: float = 0.3


@dataclass(frozen=True)
class RandomSpec:
    """Random integer-entry games scaled into positive adequacy."""

    n_players: int
    vars_per_player: int
    seed: int
    p_entry_range: tuple[int, int] = (-3, 3)
    c_entry_range: tuple[int, int] = (-5, 5)
    d_entry_range: tuple[int, int] = (-10, 10)


@dataclass(frozen=True)
class NegativeSpec:
    """Games built to be negatively adequate (all interaction sigmas > 1).

    Each player's coupling is C_i = Q_i R_i with R_i assembled from random
    orthogonal factors and singular values drawn inside ``sigma_range``, so
    the classification holds by construction and divergence runs stay within
    float range for tens of iterations.
    """

    n_players: int
    vars_per_player: int
    seed: int
    sigma_range: tuple[float, float] = (1.2, 1.5)


def gen_pricing(spec: PricingSpec) -> game.IcqsInstance:
    """Pricing family: player i minimizes the negative of its profit.

    Products have linear price-response q_j = a_j - b_j p_j - sum d_{jj'} p_j';
    expanding -(p_j - c_j) q_j gives a quadratic with diagonal 2 b_j, within-
    player off-diagonal d_{jj'} + d_{j'j}, coupling blocks d_{jj'} against
    opponents' products, and linear term -(a_j + c_j b_j) - sum_j' c_j' d_{j'j}
    over own products (terms constant in the player's own prices are dropped).
    Instances that fail positive adequacy are discarded and redrawn.
    """
    rng = SplitMix64(spec.seed)
    for _ in range(REJECTION_BUDGET):
        counts = [
            rng.randint(spec.products_range[0], spec.products_range[1])
            for _ in range(spec.n_players)
        ]
        total = sum(counts)
        owner = np.repeat(np.arange(spec.n_players), counts)
        a = rng.uniform_vector(total, *spec.a_range)
        b = rng.uniform_vector(total, *spec.b_range)
        c = rng.uniform_vector(total, *spec.c_range)
        s = spec.cross_scale * float(b.min()) / total
        d_cross = np.zeros((total, total))
        for j in range(total):
            for jp in range(total):
                if j != jp:
                    d_cross[j, jp] = rng.uniform(-s, s)

        offsets = np.concatenate([[0], np.cumsum(counts)])
        players = []
        for i in range(spec.n_players):
            own = slice(offsets[i], offsets[i + 1])
            Q = d_cross[own, own] + d_cross[own, own].T
            np.fill_diagonal(Q, 2.0 * b[own])
            dvec = -(a[own] + c[own] * b[own]) - d_cross[own, own].T @ c[own]
            C = {}
            for j in range(spec.n_players):
                if j != i:
                    theirs = slice(offsets[j], offsets[j + 1])
                    C[j] = d_cross[own, theirs].copy()
            players.append(game.PlayerProblem(Q=Q, C=C, d=dvec))
        try:
            inst = game.make_instance(players, meta=_spec_meta("pricing", spec))
        except NotPositiveDefinite:
            continue
        if inst.report.classification is game.Adequacy.POSITIVE:
            return inst
    raise RejectionBudgetExceeded(f"pricing generation rejected {REJECTION_BUDGET} draws")


def gen_random(spec: RandomSpec) -> game.IcqsInstance:
    """Random family: Q_i = max(1, ceil(sigma~_1)) * P P' + I.

    P and the coupling blocks have integer entries; sigma~_1 is the largest
    singular value of (P P')^{-1} C_i, and the rescaling pushes every
    interaction singular value below one.  The construction is heuristic, so
    the classification is verified and failures redrawn.
    """
    rng = SplitMix64(spec.seed)
    n = spec.vars_per_player
    k = spec.n_players
    for _ in range(REJECTION_BUDGET):
        raw = []
        ok = True
        for i in range(k):
            P = rng.randint_matrix(n, n, *spec.p_entry_range)
            Q_tilde = P @ P.T
            C = {
                j: rng.randint_matrix(n, n, *spec.c_entry_range)
                for j in range(k)
                if j != i
            }
            d = np.array([float(rng.randint(*spec.d_entry_range)) for _ in range(n)])
            raw.append((Q_tilde, C, d))
        players = []
        for Q_tilde, C, d in raw:
            concat = np.hstack([C[j] for j in sorted(C)])
            try:
                R_tilde = linalg.solve_spd(Q_tilde, concat)
            except NotPositiveDefinite:
                ok = False
                break
            sigma1 = float(linalg.singular_values(R_tilde)[0])
            scale = max(1, math.ceil(sigma1))
            Q = scale * Q_tilde + np.eye(n)
            players.append(game.PlayerProblem(Q=Q, C=C, d=d))
        if not ok:
            continue
        inst = game.make_instance(players, meta=_spec_meta("random", spec))
        if inst.report.classification is game.Adequacy.POSITIVE:
            return inst
    raise RejectionBudgetExceeded(f"random generation rejected {REJECTION_BUDGET} draws")


def _orthogonal(rng: SplitMix64, n: int) -> np.ndarray:
    # QR of a square matrix of uniform draws; sign-fixed for determinism
    M = np.array([[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)])
    Qm, Rm = np.linalg.qr(M)
    return Qm * np.sign(np.diag(Rm))


def gen_negative(spec: NegativeSpec) -> game.IcqsInstance:
    """Expanding family: every interaction singular value inside sigma_range."""
    rng = SplitMix64(spec.seed)
    n = spec.vars_per_player
    k = spec.n_players
    total_others = n * (k - 1)
    for _ in range(REJECTION_BUDGET):
        players = []
        for i in range(k):
            P = rng.randint_matrix(n, n, -2, 2)
            Q = P @ P.T + np.eye(n)
            U = _orthogonal(rng, n)
            V = _orthogonal(rng, total_others)
            sv = np.array(
                [rng.uniform(spec.sigma_range[0], spec.sigma_range[1]) for _ in range(n)]
            )
            R = U @ (sv[:, None] * V[:n, :])
            C_concat = Q @ R
            C = {}
            col = 0
            for j in range(k):
                if j != i:
                    C[j] = C_concat[:, col : col + n].copy()
                    col += n
            players.append(game.PlayerProblem(Q=Q, C=C, d=np.zeros(n)))
        inst = game.make_instance(players, meta=_spec_meta("negative", spec))
        if inst.report.classification is game.Adequacy.NEGATIVE:
            return inst
    raise RejectionBudgetExceeded(f"negative generation rejected {REJECTION_BUDGET} draws")


BUILTIN_NAMES = ("example1", "cycling", "counterexample")


def builtin(name: str, M: int | None = None) -> game.IcqsInstance:
    """The three hand-built instances used throughout the test scenarios.

    ``example1`` diverges from any start off the origin, ``cycling`` settles
    into a period-4 cycle whose restricted game has the half-half mixed
    equilibrium, and ``counterexample(M)`` cycles between (0,1) and (M,0)
    while admitting an integer deviation that grows quadratically in M
    (M must be even, at least 2 and within the float range).
    """
    if name == "example1":
        players = [
            game.PlayerProblem(Q=np.array([[2.0]]), C={1: np.array([[-4.0]])}, d=np.zeros(1)),
            game.PlayerProblem(Q=np.array([[2.0]]), C={0: np.array([[-4.0]])}, d=np.zeros(1)),
        ]
        meta = {"generator": "builtin", "name": name}
    elif name == "cycling":
        players = [
            game.PlayerProblem(
                Q=np.array([[2.0]]), C={1: np.array([[-0.2]])}, d=np.array([-0.9])
            ),
            game.PlayerProblem(
                Q=np.array([[2.0]]), C={0: np.array([[0.2]])}, d=np.array([-1.1])
            ),
        ]
        meta = {"generator": "builtin", "name": name}
    elif name == "counterexample":
        if M is None or M < 2 or M % 2 != 0:
            raise InvalidM(f"counterexample needs an even M >= 2, got {M}")
        if M > sys.float_info.max:  # 1.0 / M would overflow
            raise InvalidM(f"counterexample needs an M within the float range, got one of {len(str(M))} digits")
        players = [
            game.PlayerProblem(
                Q=np.eye(2), C={1: -np.eye(2)}, d=np.zeros(2)
            ),
            game.PlayerProblem(
                Q=np.eye(2),
                C={0: np.array([[1.0 / M, -(M - 1.0)], [-1.0 / M, 0.0]])},
                d=np.array([-1.0, 0.0]),
            ),
        ]
        meta = {"generator": "builtin", "name": name, "M": M}
    else:
        raise ValueError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")
    return game.make_instance(players, meta=meta)
