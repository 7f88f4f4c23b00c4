"""Exact minimization of strictly convex quadratics over the integer lattice.

The objective is f(x) = 0.5 x'Qx + d'x with Q symmetric positive definite.
Its continuous minimizer is u = -Q^{-1}d, and the integer minimizer is found
by depth-first enumeration over the triangular factor of Q: writing
f(x) = f(u) + 0.5 ||L'(x - u)||^2, coordinates are fixed from the last row of
L' upward, children are visited in zig-zag order around each coordinate's
conditional center, and branches whose accumulated cost already exceeds the
best known objective are pruned.  The rounded continuous minimizer seeds the
incumbent.  This is the classical closest-vector enumeration scheme; it is
exact, and fast at the dimensions used here (n <= ~25).

Everything that depends on Q alone (its Cholesky factor, eigenvalue extremes
and proximity data) is gathered in a `Factor`, built by `factorize`.  A
caller that minimizes against the same Q many times, like a best-response
loop where only d moves, builds the factor once and passes it to
`integer_min`; nothing is cached between calls.

The module also provides the closed-form proximity data for Q: an upper bound
on how far the integer minimizer can sit from u (uniform over all d), and the
matching bound on the objective gap.  Both are stated in terms of a flatness
constant Flt(n) <= coeff * n^exponent, given by a `FlatnessRule`; the default
`PROVEN_RULE` is the proven n^{5/2} bound, and callers pass sharper
conjectured rules explicitly.  For 1x1 and other scaled-identity matrices the
flatness-based distance bound understates the true worst case (which is
sqrt(n)/2 there, attained with u at a cube center), so `guarantee_prox`
returns the larger of the two whenever the exact value is known, while
`prox_bound` reports the plain flatness formula.  The postcondition of
`integer_min` always checks the proven-rule radius and gap, whatever rule
the caller reports bounds under, and raises `ProximityViolation` if the
returned minimizer breaks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EnumerationBudgetExceeded,
    OracleBudgetExceeded,
    ProximityViolation,
)
from .linalg import as_vector, cholesky, require_symmetric, solve_with_factor, sym_eigen

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_ORACLE_BUDGET = 2_000_000

_SCALED_IDENTITY_RTOL = 1e-12


@dataclass(frozen=True)
class FlatnessRule:
    """Flt(n) <= coeff * n**exponent, the dimension bound behind every prox.

    The default is the proven n^{5/2} bound.  Sharper conjectured bounds
    (e.g. O(n)) are passed explicitly by the caller that reports under them.
    """

    coeff: float = 1.0
    exponent: float = 2.5

    def __post_init__(self):
        if not self.coeff > 0.0:
            raise ValueError("flatness coefficient must be positive")

    def constant(self, n: int) -> float:
        return flatness_constant(n, self.exponent, self.coeff)


PROVEN_RULE = FlatnessRule()


@dataclass(frozen=True)
class Quadratic:
    """f(x) = 0.5 x'Qx + d'x with symmetric positive definite Q."""

    Q: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        Q = require_symmetric(self.Q, "Q")
        d = as_vector(self.d, "d")
        if Q.shape[0] != d.shape[0]:
            raise DimensionMismatch(
                f"Q is {Q.shape[0]}x{Q.shape[1]} but d has length {d.shape[0]}"
            )
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "d", d)

    @classmethod
    def trusted(cls, Q: np.ndarray, d: np.ndarray) -> Quadratic:
        """The quadratic with a Q that `factorize` or `game.make_instance`
        already validated.

        Nothing is checked: ``d`` must be a finite float64 vector of Q's
        length.  Best-response loops build one per call and pay for Q's
        validation once.
        """
        q = object.__new__(cls)
        object.__setattr__(q, "Q", Q)
        object.__setattr__(q, "d", d)
        return q

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    def value(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(0.5 * x @ self.Q @ x + self.d @ x)


@dataclass(frozen=True)
class ProxBound:
    """Closed-form proximity data for a positive definite Q.

    prox_value = (flatness / 4) * sqrt(lambda_max / lambda_min) bounds the
    distance between continuous and integer minimizers uniformly over d, and
    obj_gap = lambda_max * flatness^2 / 32 bounds the objective difference.
    """

    prox_value: float
    lambda_max: float
    lambda_min: float
    flatness: float
    obj_gap: float


def flatness_constant(
    n: int, exponent: float = PROVEN_RULE.exponent, coeff: float = PROVEN_RULE.coeff
) -> float:
    """Flt(n) bound used in the proximity formulas; default n^{5/2}.

    Every downstream formula is stated in terms of Flt(n), so a better
    constant (see `FlatnessRule`) propagates directly.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    return coeff * float(n) ** exponent


@dataclass(frozen=True)
class Factor:
    """Everything minimizing 0.5 x'Qx + d'x needs from Q alone, for any d.

    ``radius`` and ``gap`` are the proven-rule proximity radius and
    objective-gap bound (`guarantee_prox` and `guarantee_obj_gap` under
    `PROVEN_RULE`) that `integer_min`'s postcondition checks against.
    """

    Q: np.ndarray
    L: np.ndarray  # lower Cholesky factor, Q = L L'
    G: np.ndarray  # L' as a contiguous array: the rows the DFS walks
    gdiag: np.ndarray
    lambda_max: float
    lambda_min: float
    scaled_identity: bool
    radius: float = field(init=False)
    gap: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "radius", self.guarantee_prox())
        object.__setattr__(self, "gap", self.guarantee_obj_gap())

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    def prox_bound(self, rule: FlatnessRule = PROVEN_RULE) -> ProxBound:
        flt = rule.constant(self.n)
        return ProxBound(
            prox_value=(flt / 4.0) * math.sqrt(self.lambda_max / self.lambda_min),
            lambda_max=self.lambda_max,
            lambda_min=self.lambda_min,
            flatness=flt,
            obj_gap=self.lambda_max * flt * flt / 32.0,
        )

    def guarantee_prox(self, rule: FlatnessRule = PROVEN_RULE) -> float:
        """The flatness radius, raised to sqrt(n)/2 for scaled identities.

        The flatness formula with Flt(n) = n^{5/2} is provably valid for
        n >= 2 but understates the 1-D worst case (0.25 vs the true 0.5), so
        scaled identities take the exact value when it is larger: for c*I
        the integer minimizer rounds u componentwise, so the worst distance
        is attained with u at a cube center.
        """
        bound = self.prox_bound(rule).prox_value
        if self.scaled_identity:
            bound = max(bound, math.sqrt(self.n) / 2.0)
        return bound

    def guarantee_obj_gap(self) -> float:
        """Objective-gap bound matching `guarantee_prox` under the proven rule."""
        pb = self.prox_bound()
        gap = pb.obj_gap
        if self.scaled_identity:
            # distance <= sqrt(n)/2 translates to a gap of lambda_max * n / 8
            gap = max(gap, pb.lambda_max * self.n / 8.0)
        return gap


def factorize(Q: np.ndarray) -> Factor:
    """Validate Q and collect its `Factor`.

    Raises DimensionMismatch for a non-symmetric Q and NotPositiveDefinite
    when the Cholesky pivot test fails.
    """
    Q = require_symmetric(Q, "Q")
    L = cholesky(Q)
    eig = sym_eigen(Q)
    G = np.ascontiguousarray(L.T)
    return Factor(
        Q=Q,
        L=L,
        G=G,
        gdiag=np.diag(G).copy(),
        lambda_max=eig.lambda_max,
        lambda_min=eig.lambda_min,
        scaled_identity=is_scaled_identity(Q),
    )


def continuous_min(q: Quadratic, factor: Factor | None = None) -> np.ndarray:
    """The unconstrained minimizer u = -Q^{-1} d."""
    L = factor.L if factor is not None else cholesky(q.Q)
    return solve_with_factor(L, -q.d)


def prox_bound(q: Quadratic, rule: FlatnessRule = PROVEN_RULE) -> ProxBound:
    """Flatness-based proximity bound for q's quadratic part."""
    return factorize(q.Q).prox_bound(rule)


def is_scaled_identity(Q: np.ndarray) -> bool:
    n = Q.shape[0]
    c = float(np.trace(Q)) / n
    return bool(np.abs(Q - c * np.eye(n)).max() <= _SCALED_IDENTITY_RTOL * max(1.0, abs(c)))


def guarantee_prox(q: Quadratic, rule: FlatnessRule = PROVEN_RULE) -> float:
    """A proximity radius that is a valid upper bound for this Q (see
    `Factor.guarantee_prox`)."""
    return factorize(q.Q).guarantee_prox(rule)


def guarantee_obj_gap(q: Quadratic) -> float:
    """Objective-gap bound valid for this Q (see guarantee_prox)."""
    return factorize(q.Q).guarantee_obj_gap()


def _zigzag(center: float, k: int, base: float, direction: float) -> float:
    # k-th candidate around `center`: base, base+dir, base-dir, base+2*dir, ...
    if k == 0:
        return base
    if k % 2 == 1:
        return base + direction * ((k + 1) // 2)
    return base - direction * (k // 2)


def integer_min(
    q: Quadratic, node_budget: int = DEFAULT_NODE_BUDGET, factor: Factor | None = None
) -> tuple[np.ndarray, float]:
    """Global integer minimizer of q and its objective value.

    ``factor`` is ``factorize(q.Q)``; a caller that minimizes against the same
    Q repeatedly passes it so that Q is factored once, not on every call.
    Ties between co-optimal lattice points are broken toward the
    lexicographically smallest vector so repeated runs (and cycle detection
    built on them) are reproducible.  Raises EnumerationBudgetExceeded when
    the search tree outgrows ``node_budget``, which at desk scale only happens
    for pathologically conditioned Q, and ProximityViolation if the result
    breaks the proven proximity radius or gap bound.
    """
    if factor is None:
        factor = factorize(q.Q)
    n = q.n
    u = solve_with_factor(factor.L, -q.d)
    G = factor.G
    gdiag = factor.gdiag

    inc = np.rint(u)
    # Excess energy 0.5*||G(x-u)||^2 accumulated row by row, matching the
    # association order of the DFS partial sums so exact ties stay exact.
    w = inc - u
    best_excess = 0.0
    for j in range(n - 1, -1, -1):
        best_excess += 0.5 * float(G[j, j:] @ w[j:]) ** 2
    best_vec = inc.copy()

    # Rounded point is certifiably the unique optimum when its excess is
    # below the energy any other lattice point must pay in the softest
    # direction of Q.
    max_frac = float(np.max(np.abs(w))) if n else 0.0
    if max_frac < 0.5:
        guard = 0.5 * factor.lambda_min * (1.0 - max_frac) ** 2
        if best_excess < 0.999 * guard:
            v = best_vec.astype(np.int64)
            _check_proximity(factor, u, best_vec, best_excess)
            return v, q.value(best_vec)

    x = np.zeros(n, dtype=np.float64)
    centers = np.zeros(n, dtype=np.float64)
    bases = np.zeros(n, dtype=np.float64)
    dirs = np.zeros(n, dtype=np.float64)
    ctr = np.zeros(n, dtype=np.int64)
    acc = np.zeros(n, dtype=np.float64)  # acc[j]: cost of rows j+1..n-1

    def enter(j: int) -> None:
        if j == n - 1:
            t = 0.0
        else:
            t = float(G[j, j + 1 :] @ (x[j + 1 :] - u[j + 1 :]))
        c = u[j] - t / gdiag[j]
        centers[j] = c
        bases[j] = np.rint(c)
        dirs[j] = 1.0 if c >= bases[j] else -1.0
        ctr[j] = 0

    nodes = 0
    j = n - 1
    acc[j] = 0.0
    enter(j)
    while True:
        cand = _zigzag(centers[j], int(ctr[j]), bases[j], dirs[j])
        row_cost = 0.5 * (gdiag[j] * (cand - centers[j])) ** 2
        total = acc[j] + row_cost
        if total > best_excess:
            # zig-zag order is monotone in |cand - center|: level exhausted
            j += 1
            if j == n:
                break
            ctr[j] += 1
            continue
        nodes += 1
        if nodes > node_budget:
            raise EnumerationBudgetExceeded(
                f"enumeration exceeded {node_budget} nodes"
            )
        x[j] = cand
        if j == 0:
            if total < best_excess or (
                total == best_excess and _lex_less(x, best_vec)
            ):
                best_excess = total
                best_vec = x.copy()
            ctr[0] += 1
        else:
            acc[j - 1] = total
            j -= 1
            enter(j)

    _check_proximity(factor, u, best_vec, best_excess)
    return best_vec.astype(np.int64), q.value(best_vec)


def _lex_less(a: np.ndarray, b: np.ndarray) -> bool:
    for ai, bi in zip(a, b):
        if ai != bi:
            return ai < bi
    return False


def _check_proximity(factor: Factor, u: np.ndarray, v: np.ndarray, excess: float) -> None:
    # Postcondition guard: the returned minimizer must respect the proximity
    # radius and objective-gap bound that are provable for this Q.  ``excess``
    # is the gap computed in the translated frame 0.5||L'(v-u)||^2, which
    # stays accurate where f(v) - f(u) would cancel catastrophically.
    dist = float(np.linalg.norm(v - u))
    slack = 1e-9 * max(1.0, float(np.abs(u).max()))
    if dist > factor.radius * (1.0 + 1e-9) + slack:
        raise ProximityViolation(
            f"integer minimizer at distance {dist:.6g} exceeds proximity radius {factor.radius:.6g}"
        )
    if excess > factor.gap * (1.0 + 1e-9) + slack:
        raise ProximityViolation(
            f"objective gap {excess:.6g} exceeds bound {factor.gap:.6g}"
        )


def brute_force_min(
    q: Quadratic,
    radius: float | None = None,
    point_budget: int = DEFAULT_ORACLE_BUDGET,
) -> tuple[np.ndarray, float]:
    """Exhaustive lattice scan; the independent oracle for integer_min.

    With an explicit ``radius`` the scan covers the integer box of half-width
    ceil(radius + 1/2) around the rounded continuous minimizer (the extra 1/2
    absorbs the rounding offset, so a box with radius >= the proximity bound
    always contains the global minimizer).  With ``radius=None`` the box is
    derived from the incumbent level set: every global minimizer satisfies
    f(x) <= f(round(u)), hence lies in the ellipsoid of that level, whose
    axis-aligned extent is sqrt(2 gamma (Q^{-1})_jj) per coordinate.  That box
    is exact and usually far smaller than the proximity-radius box.
    """
    n = q.n
    L = cholesky(q.Q)
    u = solve_with_factor(L, -q.d)
    center = np.rint(u)

    if radius is not None:
        half = math.ceil(radius + 0.5)
        lo = center - half
        hi = center + half
    else:
        gamma = max(q.value(center) - q.value(u), 0.0)
        qinv_diag = np.diag(solve_with_factor(L, np.eye(n)))
        h = np.sqrt(np.maximum(2.0 * gamma * qinv_diag, 0.0)) * (1.0 + 1e-12) + 1e-9
        lo = np.minimum(np.ceil(u - h), center)
        hi = np.maximum(np.floor(u + h), center)

    total = 1
    for c in (hi - lo + 1).astype(np.int64):
        total *= int(c)  # python int: immune to overflow for huge boxes
        if total > point_budget:
            raise OracleBudgetExceeded(
                f"box holds more than {point_budget} lattice points"
            )

    axes = [np.arange(int(lo[j]), int(hi[j]) + 1, dtype=np.float64) for j in range(n)]
    grid = np.meshgrid(*axes, indexing="ij")
    X = np.stack([g.ravel() for g in grid], axis=1)
    values = 0.5 * np.einsum("ij,jk,ik->i", X, q.Q, X) + X @ q.d
    vmin = values.min()
    ties = X[values == vmin]
    order = np.lexsort(ties[:, ::-1].T)
    v = ties[order[0]]
    return v.astype(np.int64), float(vmin)
