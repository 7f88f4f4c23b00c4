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

Everything that depends on Q alone (its Cholesky factor, the diagonal of
Q^{-1}, eigenvalue extremes, the proven proximity radius and gap bound, and
the row views the search takes its dot products with) is gathered in a
`Factor`, built by `factorize` from Q and the Cholesky factor the caller
already holds: `game.IcqsInstance` factors each Q_i once, when it is built
(Q's one validation), and keeps each player's `Factor`.  A caller that
minimizes against the same Q many times, like a best-response loop where
only d moves, builds the factor once; nothing is cached between calls.
`integer_min(q)`, `continuous_min(q)` and `brute_force_min(q)` take a bare
`Quadratic` and factor its Q themselves, with `linalg.cholesky_unchecked`:
building the `Quadratic` validated Q, so it is not scanned again.

Minimization is split in two: the continuous minimizer u, then the integer
minimizer given u and the factor (`lattice_mins`).  Both work on a
`FactorStack`, the factors of several Qs of one dimension stacked row by
row, with one u per row and the per-row constants of the certificate and
the postcondition precomputed: `FactorStack.continuous_mins` gives every
row's u from one stacked solve pair, and `lattice_mins` runs the rounding
certificate and the proximity postcondition on all rows as arrays and
enumerates only the rows the certificate cannot answer.  A best-response
sweep (`game.integer_sweep`) calls them once per group of players of one
dimension; `integer_min(q)` is the same code on a stack of one.

The rounding certificate is the first level of Fincke-Pohst enumeration
(Fincke & Pohst, Math. Comp. 44, 1985).  With r = rint(u) and w = r - u, a
lattice point x that differs from r in coordinate j has |x_j - u_j| >=
1 - |w_j|, and the least energy 0.5 (x - u)'Q(x - u) with a given x_j - u_j = t
is 0.5 t^2 / (Q^{-1})_jj.  So every x other than r pays at least
min_j 0.5 (1 - |w_j|)^2 / (Q^{-1})_jj, and r is returned without a search
when max|w| < 0.5 and its excess 0.5 ||L'(r - u)||^2 is below 0.999 times
that minimum: `FactorStack.cert` holds 0.999 * 0.5 / (Q^{-1})_jj.  Since
1/(Q^{-1})_jj >= lambda_min(Q), this never accepts less than the former
guard 0.5 lambda_min (1 - max|w|)^2.

Each row's result is bitwise the one a stack of one gives, and the one a
search run entirely in numpy scalars gives.  numpy's stacked `solve` calls
LAPACK's gesv once per matrix, exactly as a single call does.  The
enumeration (the Schnorr-Euchner zig-zag search; Agrell, Eriksson, Vardy &
Zeger, IEEE Trans. Inf. Theory 48, 2002) keeps its per-node state in Python
floats, which perform the same IEEE operations as numpy scalars, and
`round` rounds half to even as `np.rint` does; x - u stays one numpy
vector, so each row's partial dot is the same BLAS ddot on the same
operands.  The enumeration starts from the rounded point's excess computed
row by row, in the association order of its own partial sums, so exact ties
stay exact.  The certificate's batched excess and its bound may differ from
exact values in their last bits, but they only decide whether rint(u) is
returned without a search, and the certificate passes only 0.1% below the
energy of every other lattice point, far outside that rounding, where the
search returns rint(u) as well.

The module also provides the closed-form proximity radius for Q: an upper
bound on how far the integer minimizer can sit from u, uniform over all d.
It is stated in terms of a flatness constant Flt(n) <= coeff * n^exponent,
given by a `FlatnessRule`; the default `PROVEN_RULE` is the proven n^{5/2}
bound, and callers pass sharper conjectured rules explicitly.
`prox_bound(factor, rule)` is the plain flatness formula
(Flt(n) / 4) sqrt(lambda_max / lambda_min).  For 1x1 and other
scaled-identity matrices it understates the true worst case (which is
sqrt(n)/2 there, attained with u at a cube center), so
`guarantee_prox(factor, rule)` returns the larger of the two whenever the
exact value is known.  These two functions are the only radius formulas.
The postcondition of `lattice_mins` always checks the proven-rule radius
and gap (`Factor.radius`, `Factor.gap`), whatever rule the caller reports
bounds under, and raises `ProximityViolation` if the returned minimizer
breaks them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BoundOverflow,
    DimensionMismatch,
    EnumerationBudgetExceeded,
    OracleBudgetExceeded,
    ProximityViolation,
)
from .linalg import as_vector, cholesky_unchecked, require_symmetric, solve_with_factor, sym_eigen
from .linalg import cholesky  # noqa: F401  not called here; perfbench's tracer wraps iqp.cholesky

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_ORACLE_BUDGET = 2_000_000

_SCALED_IDENTITY_RTOL = 1e-12


@dataclass(frozen=True)
class FlatnessRule:
    """Flt(n) <= coeff * n**exponent, the dimension bound behind every prox.

    The default is the proven n^{5/2} bound.  Sharper conjectured bounds
    (e.g. O(n)) are passed explicitly by the caller that reports under them.
    Both numbers must be finite and the coefficient positive.
    """

    coeff: float = 1.0
    exponent: float = 2.5

    def __post_init__(self):
        if not (math.isfinite(self.coeff) and math.isfinite(self.exponent)):
            raise ValueError(
                f"flatness coefficient and exponent must be finite, got "
                f"{self.coeff!r} and {self.exponent!r}"
            )
        if not self.coeff > 0.0:
            raise ValueError("flatness coefficient must be positive")

    def constant(self, n: int) -> float:
        """Flt(n) = coeff * n**exponent, the constant of every prox formula.

        Raises BoundOverflow when Flt(n) or its square, which the
        objective-gap and deviation bounds carry, is not a finite float.
        """
        if n < 1:
            raise ValueError("dimension must be >= 1")
        try:
            flt = self.coeff * float(n) ** self.exponent
        except OverflowError:
            flt = math.inf
        if not math.isfinite(flt * flt):
            raise BoundOverflow(
                f"flatness rule {self.coeff!r} * n**{self.exponent!r} overflows at n = {n}"
            )
        return flt


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
        """The quadratic with a Q that `game.make_instance` already validated.

        Nothing is checked: ``d`` must be a finite float64 vector of Q's
        length.  `game.objective` builds one per call and pays for Q's
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
class Factor:
    """Everything minimizing 0.5 x'Qx + d'x needs from Q alone, for any d.

    ``qinv_diag`` is the diagonal of Q^{-1}, which the rounding certificate
    of `lattice_mins` reads.  ``radius`` is `guarantee_prox` under
    `PROVEN_RULE` and ``gap`` the matching objective-gap bound
    lambda_max Flt(n)^2 / 32, raised to lambda_max n / 8 for scaled
    identities: the bounds its postcondition checks against, computed once
    here.  ``rows[j]`` and ``strict_rows[j]`` are the views ``G[j, j:]`` and
    ``G[j, j + 1:]`` the search takes its dot products with.
    """

    Q: np.ndarray
    L: np.ndarray  # lower Cholesky factor, Q = L L'
    G: np.ndarray  # L' as a contiguous array: the rows the DFS walks
    gdiag: list[float]
    qinv_diag: np.ndarray
    lambda_max: float
    lambda_min: float
    scaled_identity: bool
    radius: float = field(init=False)
    gap: float = field(init=False)
    rows: tuple[np.ndarray, ...] = field(init=False, repr=False)
    strict_rows: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        G = self.G
        flt = PROVEN_RULE.constant(self.n)
        gap = self.lambda_max * flt * flt / 32.0
        if self.scaled_identity:
            # distance <= sqrt(n)/2 translates to a gap of lambda_max * n / 8
            gap = max(gap, self.lambda_max * self.n / 8.0)
        object.__setattr__(self, "radius", guarantee_prox(self))
        object.__setattr__(self, "gap", gap)
        object.__setattr__(self, "rows", tuple(G[j, j:] for j in range(self.n)))
        object.__setattr__(self, "strict_rows", tuple(G[j, j + 1 :] for j in range(self.n)))

    @property
    def n(self) -> int:
        return self.Q.shape[0]


def factorize(Q: np.ndarray, L: np.ndarray) -> Factor:
    """Collect the `Factor` of a symmetric float64 matrix Q from its lower
    Cholesky factor ``L = cholesky(Q)``.

    Nothing is checked: Q was validated once, by the `cholesky` that
    produced L when the instance was built (``IcqsInstance.factors``), or by
    building the bare `Quadratic` that `integer_min` factors.
    """
    eig = sym_eigen(Q)
    G = np.ascontiguousarray(L.T)
    Linv = np.linalg.solve(L, np.eye(Q.shape[0]))
    return Factor(
        Q=Q,
        L=L,
        G=G,
        gdiag=np.diag(G).tolist(),
        qinv_diag=np.einsum("ij,ij->j", Linv, Linv),
        lambda_max=eig.lambda_max,
        lambda_min=eig.lambda_min,
        scaled_identity=is_scaled_identity(Q),
    )


@dataclass(frozen=True)
class FactorStack:
    """The factors of m matrices Q of one dimension n, stacked row by row.

    Row r of every array belongs to ``factors[r]``: the lower Cholesky
    factors ``L`` and their transposes ``G`` (m x n x n), the rounding
    certificate's per-coordinate factor ``cert = 0.999 * 0.5 / diag(Q^{-1})``
    (m x n), and the proven proximity radius and gap bound with the
    postcondition's relative tolerance 1e-9 applied (length m).
    """

    factors: tuple[Factor, ...]
    L: np.ndarray = field(init=False)
    G: np.ndarray = field(init=False)
    cert: np.ndarray = field(init=False)
    radius_tol: np.ndarray = field(init=False)
    gap_tol: np.ndarray = field(init=False)

    def __post_init__(self):
        fs = self.factors
        object.__setattr__(self, "L", np.stack([f.L for f in fs]))
        object.__setattr__(self, "G", np.stack([f.G for f in fs]))
        object.__setattr__(self, "cert", 0.999 * 0.5 / np.stack([f.qinv_diag for f in fs]))
        object.__setattr__(self, "radius_tol", np.array([f.radius for f in fs]) * (1.0 + 1e-9))
        object.__setattr__(self, "gap_tol", np.array([f.gap for f in fs]) * (1.0 + 1e-9))

    def continuous_mins(self, D: np.ndarray) -> np.ndarray:
        """Row r: the minimizer -Q_r^{-1} D[r] of 0.5 x'Q_r x + D[r]'x.

        One stacked solve pair; numpy runs LAPACK's gesv once per matrix, as
        `continuous_min` does for one, so each row is bitwise the same.
        """
        return np.linalg.solve(self.G, np.linalg.solve(self.L, -D[:, :, None]))[:, :, 0]


def continuous_min(q: Quadratic) -> np.ndarray:
    """The unconstrained minimizer u = -Q^{-1} d."""
    return solve_with_factor(cholesky_unchecked(q.Q), -q.d)


def prox_bound(factor: Factor, rule: FlatnessRule = PROVEN_RULE) -> float:
    """The flatness radius (Flt(n) / 4) sqrt(lambda_max / lambda_min) of the
    factored Q under ``rule``: a bound on the distance between the
    continuous and the integer minimizer, uniform over d."""
    return (rule.constant(factor.n) / 4.0) * math.sqrt(factor.lambda_max / factor.lambda_min)


def guarantee_prox(factor: Factor, rule: FlatnessRule = PROVEN_RULE) -> float:
    """The flatness radius, raised to sqrt(n)/2 for scaled identities.

    The flatness formula with Flt(n) = n^{5/2} is provably valid for
    n >= 2 but understates the 1-D worst case (0.25 vs the true 0.5), so
    scaled identities take the exact value when it is larger: for c*I
    the integer minimizer rounds u componentwise, so the worst distance
    is attained with u at a cube center.
    """
    bound = prox_bound(factor, rule)
    if factor.scaled_identity:
        bound = max(bound, math.sqrt(factor.n) / 2.0)
    return bound


def is_scaled_identity(Q: np.ndarray) -> bool:
    n = Q.shape[0]
    c = float(np.trace(Q)) / n
    return bool(np.abs(Q - c * np.eye(n)).max() <= _SCALED_IDENTITY_RTOL * max(1.0, abs(c)))


def integer_min(q: Quadratic, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[np.ndarray, float]:
    """Global integer minimizer of q and its objective value.

    This is `lattice_mins` on a stack of one, from q's own factorization.
    Ties between co-optimal lattice points are broken toward the
    lexicographically smallest vector so repeated runs (and cycle detection
    built on them) are reproducible.  Raises EnumerationBudgetExceeded when
    the search tree outgrows ``node_budget``, which at desk scale only
    happens for pathologically conditioned Q, and ProximityViolation if the
    result breaks the proven proximity radius or gap bound.
    """
    stack = FactorStack((factorize(q.Q, cholesky_unchecked(q.Q)),))
    v = lattice_mins(stack, stack.continuous_mins(q.d[None]), node_budget)[0]
    return v, q.value(v)


def lattice_mins(
    stack: FactorStack,
    U: np.ndarray,
    node_budget: int = DEFAULT_NODE_BUDGET,
    labels: Sequence[str] | None = None,
) -> np.ndarray:
    """Integer minimizer of each row's quadratic, given its continuous
    minimizer ``U[r]`` and its factor ``stack.factors[r]``.

    The rounding certificate runs on all rows at once; only the rows it
    cannot answer are enumerated, one at a time.  The proximity
    postcondition then runs on all rows at once and raises
    ProximityViolation for the first row that breaks it, named by
    ``labels[r]`` when given.
    """
    X = np.rint(U)
    W = X - U
    # Row j of G(x - u) holds G[j, j:] @ w[j:]: G = L' is upper triangular.
    T = np.matmul(stack.G, W[:, :, None])[:, :, 0]
    excess = 0.5 * np.einsum("rj,rj->r", T, T)
    # The rounded point is certifiably the unique optimum when its excess is
    # below the energy every lattice point that moves coordinate j must pay,
    # 0.5 (1 - |w_j|)^2 / (Q^{-1})_jj, for every j, with 0.1% to spare.
    A = np.abs(W)
    guard = (stack.cert * (1.0 - A) ** 2).min(axis=1)
    for r in (~((A.max(axis=1) < 0.5) & (excess < guard))).nonzero()[0]:
        X[r], excess[r] = _enumerate(stack.factors[r], U[r], X[r], W[r], node_budget)
    _check_proximity(stack, U, X, excess, labels)
    return X.astype(np.int64)


def _enumerate(
    factor: Factor, u: np.ndarray, x0: np.ndarray, w: np.ndarray, node_budget: int
) -> tuple[list[float], float]:
    """Zig-zag depth-first search for the integer minimizer around ``u``,
    from the incumbent ``x0 = rint(u)`` with ``w = x0 - u``: the minimizer
    and its excess energy 0.5*||G(x - u)||^2.

    The per-node state lives in Python floats and lists, which perform the
    same IEEE operations as numpy scalars; x - u stays one numpy vector so
    that each row's partial dot is the same BLAS call on the same operands.
    """
    n = factor.n
    gdiag = factor.gdiag
    rows = factor.strict_rows
    us = u.tolist()

    # Excess energy accumulated row by row, matching the association order of
    # the search's partial sums so exact ties stay exact.
    best_excess = 0.0
    for j in range(n - 1, -1, -1):
        best_excess += 0.5 * float(factor.rows[j] @ w[j:]) ** 2
    best = x0.tolist()

    xu = np.zeros(n)  # x - u on the coordinates fixed so far
    tails = [xu[j + 1 :] for j in range(n)]
    x = [0.0] * n
    centers = [0.0] * n
    bases = [0.0] * n
    dirs = [0.0] * n
    ctr = [0] * n
    acc = [0.0] * n  # acc[j]: cost of rows j+1..n-1

    nodes = 0
    j = n - 1
    # Entering a level: its conditional center c, the nearest integer (half
    # to even, as np.rint) and the side of c the zig-zag tries first.
    c = us[j]
    b = float(round(c))
    centers[j], bases[j], dirs[j], ctr[j] = c, b, 1.0 if c >= b else -1.0, 0
    while True:
        # k-th candidate around the center: base, base+dir, base-dir, ...
        k = ctr[j]
        if k == 0:
            cand = bases[j]
        elif k % 2 == 1:
            cand = bases[j] + dirs[j] * ((k + 1) // 2)
        else:
            cand = bases[j] - dirs[j] * (k // 2)
        total = acc[j] + 0.5 * (gdiag[j] * (cand - centers[j])) ** 2
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
            if total < best_excess or (total == best_excess and x < best):
                best_excess = total
                best = x.copy()
            ctr[0] += 1
        else:
            xu[j] = cand - us[j]
            acc[j - 1] = total
            j -= 1
            c = us[j] - float(rows[j] @ tails[j]) / gdiag[j]
            b = float(round(c))
            centers[j], bases[j], dirs[j], ctr[j] = c, b, 1.0 if c >= b else -1.0, 0
    return best, best_excess


def _check_proximity(
    stack: FactorStack,
    U: np.ndarray,
    V: np.ndarray,
    excess: np.ndarray,
    labels: Sequence[str] | None,
) -> None:
    # Postcondition guard: each returned minimizer must respect the proximity
    # radius and objective-gap bound that are provable for its Q.  ``excess``
    # is the gap computed in the translated frame 0.5||L'(v-u)||^2, which
    # stays accurate where f(v) - f(u) would cancel catastrophically.
    E = V - U
    dist = np.sqrt(np.einsum("rj,rj->r", E, E))
    if not ((dist > stack.radius_tol) | (excess > stack.gap_tol)).any():
        return  # the slack below is >= 0, so every row passes
    slack = 1e-9 * np.maximum(1.0, np.abs(U).max(axis=1))
    far = dist > stack.radius_tol + slack
    high = excess > stack.gap_tol + slack
    bad = (far | high).nonzero()[0]
    if bad.size:
        r = bad[0]
        who = f"{labels[r]}: " if labels is not None else ""
        factor = stack.factors[r]
        if far[r]:
            raise ProximityViolation(
                f"{who}integer minimizer at distance {dist[r]:.6g} exceeds "
                f"proximity radius {factor.radius:.6g}"
            )
        raise ProximityViolation(
            f"{who}objective gap {excess[r]:.6g} exceeds bound {factor.gap:.6g}"
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
    L = cholesky_unchecked(q.Q)
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
