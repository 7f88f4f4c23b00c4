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

Everything that depends on Q alone (its Cholesky factor, the rounding
certificate's constants, eigenvalue extremes, the proven proximity radius
and gap bound with the postcondition's limits, and the search frame with
the rows it takes its dots with) is a `Factor`, built once by `factorize`
from Q and the Cholesky factor the caller holds:
`game.IcqsInstance` factors each Q_i when it is built (Q's one validation)
and keeps each player's `Factor`; no data is cached between calls.  The one
memo, `_kernels`, holds code: each dimension's compiled search and
certificate, a pure function of n.
`integer_min(q)`, `continuous_min(q)` and `brute_force_min(q)` take a bare
`Quadratic` and factor its Q themselves, with `linalg.cholesky_unchecked`:
building the `Quadratic` validated Q, so it is not scanned again.

Minimization is split in two: the continuous minimizer u, then the integer
minimizer given u and the factor (`lattice_mins`).  `lattice_mins` takes
the factors of several Qs of one dimension, their stacked G, and one u per
row; it takes every row's dots in a fixed number of numpy calls, then
answers each row in one frame: the rounding certificate, the search when
the certificate cannot answer, and the proximity postcondition.  A sweep
(`game.integer_sweep`) calls it once per group of players of one
dimension, with every row's u from one stacked solve pair against the
group's Cholesky factors; `integer_min(q)` is the same code on one row.
A search centre with an entry of 2^52 or more in magnitude is
`CentreTooLarge`: there floats are a unit or more apart, and the search's
unit steps would round back onto points it has visited.

The rounding certificate is the first level of Fincke-Pohst enumeration
(Fincke & Pohst, Math. Comp. 44, 1985).  With r = rint(u) and w = r - u, a
lattice point x that differs from r in coordinate j has |x_j - u_j| >=
1 - |w_j|, and the least energy 0.5 (x - u)'Q(x - u) with a given x_j - u_j = t
is 0.5 t^2 / (Q^{-1})_jj.  So every x other than r pays at least
min_j 0.5 (1 - |w_j|)^2 / (Q^{-1})_jj, and r is returned without a search
when its excess 0.5 ||L'(r - u)||^2 is below 0.999 times that minimum:
`Factor.cert` holds 0.999 * 0.5 / (Q^{-1})_jj.  A row that passes
has max|w| < 0.5: with |w_j| = 0.5, r itself is 0.5 from u in coordinate
j, so its excess is at least that coordinate's energy.  Since
1/(Q^{-1})_jj >= lambda_min(Q), this never accepts less than the former
guard 0.5 lambda_min (1 - max|w|)^2.

Each row's result is bitwise the one a single row gives, and the one a
search run entirely in numpy scalars gives.  numpy's stacked gesv gufunc
calls LAPACK's gesv once per matrix, exactly as a single call does.  The
enumeration is the Schnorr-Euchner zig-zag search (Agrell, Eriksson, Vardy
& Zeger, IEEE Trans. Inf. Theory 48, 2002).  Its searches are short (a
mean of 2.6 to 6.0 nodes at n = 2 to 4 on the benchmark's `divergence`),
so their cost is the interpreter's per node, and the search and the
certificate are compiled once per dimension n from a source template
(`_kernels`, as `dataclasses` builds ``__init__``).  The search has one
nested ``while`` loop per level and keeps each level's centre, candidate,
step and partial energy in local Python floats, which perform the same
IEEE operations as numpy scalars; the certificate is straight-line code.
`_zigzag` is the same search over lists indexed by level: the one search
above `_NESTING_LIMIT` levels, CPython's limit on nested blocks, and the
tests' reference below it.  Each centre is rounded half to even as
`np.rint` does: by adding and taking away 1.5 * 2^52 below 2^51 in
magnitude, and by `round` beyond, which raises on a NaN or infinite centre.
The searches of one `lattice_mins` call share one x - u buffer
(`_scratch`), which only n >= 3 reads.  Each dot of length >= 2 is
one BLAS ddot of a row of G and a vector, since no cheaper form keeps its
bits: on OpenBLAS 0.3.31 (Haswell kernel), ddot below length 16 is a chain
of fused multiply-adds, which a plain Python sum missed on 15-32% of
sampled vectors and Python 3.11 has no math.fma to write; `G @ w` and a
stacked matmul differ from the per-row ddot in some row on 26-100% of
random triangular systems (n = 2..10).  `np.vecdot` runs that ddot once per
row of its stacked operands, so `lattice_mins` takes the rounded points'
dots for a whole group in a fixed number of calls.  Rows of the last
min(n, 15) levels share one call over G[:, :, a:] (a = max(0, n - 15)):
the chain starts at +0 and stays there through the zeros before a row's
diagonal, so each is bitwise its slice G[j, j:].  A row padded to 16 terms
or more is not, since from length 16 the kernel blocks, so each level
j < a takes its own call on the slice.  The search takes its node dots with
`ndarray.dot` on views of x - u.  Squares stay `** 2`: x ** 2 != x * x for
about 1 float in 1,300.  A dot of length one is the plain product (see
`_zigzag`).  The rounded point's excess is summed row by row, in the
association order of the search's own partial sums, so exact ties stay
exact; the certificate reads that same excess, and the search starts from
it (`_certificate_source`).  The certificate's bound may differ from exact
values in its last bits, but it passes only 0.1% below the energy of every
other lattice point, far outside that rounding, where the search returns
rint(u) as well.

Each factor searches in one of two frames, chosen once by `factorize`
(`_choose_frame`): the Cholesky frame G = L', or an LLL-reduced frame
(`Reduced`), the triangular factor R of G T for a unimodular T found by LLL
reduction (Lenstra, Lenstra & Lovasz, Math. Ann. 261, 1982), with T's exact
integer inverse.  A reduced basis has a flatter Gram-Schmidt diagonal, so
the same search visits fewer nodes: about 4.5 times fewer on the
10-variable searches of the benchmark's `corpus`.  Changing frames costs a
few microseconds per search, so the reduced frame is taken only where the
Gaussian-heuristic estimate of the nodes it saves exceeds that cost
(`_FRAME_NODES`), and never at n = 1; the reduction runs at all only where
the Cholesky frame's estimate leaves room for such a saving.

Both frames return the same point, bit for bit.  The answer is defined in
the Cholesky frame: the least of (the certificate's excess, rint(u)) and
the pairs (E(x), x), E the Cholesky search's computed energy, in that
order.  The reduced search keeps every point whose reduced-frame energy is
within 2S of the least it finds, S a bound on the distance between any two
computed energies of one point (the Cholesky frame's, with the rounding of
its centres near ulp(max|u|), the reduced frame's and the certificate's;
derived in `reduced_frame` and `_reduced_start`), maps each to x = rint(u)
+ T z, and returns the least pair, taking E(x) by the Cholesky frame's own
arithmetic (`_energy`) when more than one point is kept.  That set holds
the Cholesky search's answer (`_reduced_answer`), so the choice, and every
response, trace and report built on it, is the Cholesky frame's.  A row
whose S is not small beside its excess, or whose reduced search keeps more
than `_KEPT` points, searches in the Cholesky frame.

The module also provides the proximity radius of Q, an upper bound on how
far the integer minimizer can sit from u, uniform over all d.
`guarantee_prox(factor)` is the proven radius sqrt(sum_j G_jj^2) /
(2 sqrt(lambda_min)) from Babai's nearest-plane bound on the factor's
columns, with lambda_min taken 4 n eps lambda_max below the computed one
(`lambda_floor`), beyond the eigensolver's rounding; every certificate and
every reported bound reads it, as `Factor.radius`, and the postcondition
of `lattice_mins` checks it and the matching gap bound (`Factor.gap`),
raising `ProximityViolation` if the minimizer breaks them.
`prox_bound(factor)` is the paper's formula
(Flt(n) / 4) sqrt(lambda_max / lambda_min) with the proven flatness bound
Flt(n) = n^{5/2}, which states the paper's numbers and is never below the
proven radius for n >= 2.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CentreTooLarge,
    DimensionMismatch,
    EnumerationBudgetExceeded,
    NonFiniteCentre,
    OracleBudgetExceeded,
    ProximityViolation,
)
from .linalg import as_vector, cholesky_unchecked, gesv, require_symmetric, solve_with_factor, sym_eigen
from .linalg import cholesky  # noqa: F401  not called here; perfbench's tracer wraps iqp.cholesky

DEFAULT_NODE_BUDGET = 10**8
DEFAULT_ORACLE_BUDGET = 2_000_000

# The proven radius and gap are rounded up by this relative margin, far
# above the few ulps their own float operations can lose.  The rounding of
# lambda_min, which grows with the conditioning of Q, is covered by
# `lambda_floor`.
_LIFT = 1.0 + 1e-12
_EPS = float(np.finfo(np.float64).eps)
_MU = 0.5 * _EPS  # the unit roundoff
# The cost of a search's frame change, in nodes of the search it saves.
_FRAME_NODES = 8.0
# A reduced-frame search that keeps more leaves than this, its slack wide
# beside the lattice's spacing, runs again in the Cholesky frame.
_KEPT = 64
# OpenBLAS's ddot is one sequential chain of fused multiply-adds up to this
# length, so zeros before a row's diagonal leave its dot unchanged.
_CHAIN = 15
# A search centre with an entry this large has neighbouring floats a unit
# or more apart.
_CENTRE_LIMIT = 2.0**52
# Below 2^51 in magnitude, c + 1.5 * 2^52 lies where floats are one apart,
# so adding and taking away this shift rounds c half to even, as round does.
_ROUND_SHIFT = 1.5 * 2.0**52
_ROUND_LIMIT = 2.0**51


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

    @property
    def n(self) -> int:
        return self.Q.shape[0]

    def value(self, x) -> float:
        x = np.asarray(x, dtype=np.float64)
        return float(0.5 * x @ self.Q @ x + self.d @ x)


@dataclass(frozen=True)
class Factor:
    """Everything minimizing 0.5 x'Qx + d'x needs from Q alone, for any d.

    ``cert[j]`` is 0.999 * 0.5 / (Q^{-1})_jj, the rounding certificate's
    constant for coordinate j in `lattice_mins`.  ``radius`` is the proven
    proximity radius `guarantee_prox` and ``gap`` the matching objective-gap
    bound sum_j G_jj^2 / 8, rounded up like it; the postcondition checks
    against ``radius_limit`` and ``gap_limit``, each 1 + 1e-9 times its
    bound, computed once here.  The Cholesky frame's dots take the views
    ``strict_rows[j]`` = G[j, j + 1:], and ``corner`` = G[n - 2, n - 1]
    (0.0 when n = 1) is its one-term dot at level n - 2; `lattice_mins`
    takes the rounded point's dots from the stacked ``G``.  ``reduced`` is
    the LLL-reduced search frame, or None when the search runs in the
    Cholesky frame.
    """

    Q: np.ndarray
    L: np.ndarray  # lower Cholesky factor, Q = L L'
    G: np.ndarray  # L' as a contiguous array: the rows the DFS walks
    gdiag: list[float]
    cert: list[float]
    lambda_max: float
    lambda_min: float
    reduced: Reduced | None = field(default=None, repr=False)
    radius: float = field(init=False)
    gap: float = field(init=False)
    radius_limit: float = field(init=False, repr=False)
    gap_limit: float = field(init=False, repr=False)
    strict_rows: tuple[np.ndarray, ...] = field(init=False, repr=False)
    corner: float = field(init=False)

    def __post_init__(self):
        G = self.G
        # a Babai point pays at most (1/2 G_jj)^2 / 2 per coordinate
        object.__setattr__(self, "radius", guarantee_prox(self))
        object.__setattr__(self, "gap", 0.125 * math.fsum(g * g for g in self.gdiag) * _LIFT)
        object.__setattr__(self, "radius_limit", self.radius * (1.0 + 1e-9))
        object.__setattr__(self, "gap_limit", self.gap * (1.0 + 1e-9))
        object.__setattr__(self, "strict_rows", tuple(G[j, j + 1 :] for j in range(self.n)))
        object.__setattr__(self, "corner", float(G[-2, -1]) if self.n > 1 else 0.0)

    @property
    def n(self) -> int:
        return self.Q.shape[0]


def factorize(Q: np.ndarray, L: np.ndarray) -> Factor:
    """Collect the `Factor` of a symmetric float64 matrix Q from its lower
    Cholesky factor ``L = cholesky(Q)``, with the search frame `_choose_frame`
    picks for it.

    Nothing is checked: Q was validated once, by the `cholesky` that
    produced L when the instance was built (``IcqsInstance.factors``), or by
    building the bare `Quadratic` that `integer_min` factors.
    """
    eig = sym_eigen(Q)
    G = np.ascontiguousarray(L.T)
    Linv = gesv(L, np.eye(Q.shape[0]))
    factor = Factor(
        Q=Q,
        L=L,
        G=G,
        gdiag=np.diag(G).tolist(),
        cert=(0.999 * 0.5 / np.einsum("ij,ij->j", Linv, Linv)).tolist(),
        lambda_max=eig.lambda_max,
        lambda_min=eig.lambda_min,
    )
    reduced = _choose_frame(factor)
    return factor if reduced is None else dataclasses.replace(factor, reduced=reduced)


@dataclass(frozen=True)
class Reduced:
    """The LLL-reduced search frame of a `Factor`.

    The columns of ``G @ T`` are an LLL-reduced basis of the lattice G Z^n,
    with ``T`` unimodular and ``Tinv`` its exact inverse, both float64
    arrays of small integers, and ``columns`` holds the columns of T as
    lists.  With R the upper triangular factor of G T = Omega R (Omega
    orthogonal, diag(R) > 0), ``gdiag``, ``strict_rows`` and ``corner`` are
    to R what the `Factor`'s fields of those names are to G.
    A lattice point is x = rint(u) + T z, at energy 0.5 ||R (z - Tinv (u -
    rint(u)))||^2.  ``rel``, ``offset`` and ``ulp`` are the constants of the
    slack S in `_reduced_start`.
    """

    T: np.ndarray
    Tinv: np.ndarray
    columns: tuple[list[float], ...]
    gdiag: list[float]
    strict_rows: tuple[np.ndarray, ...]
    corner: float
    rel: float
    offset: float
    ulp: float


def reduced_frame(factor: Factor) -> Reduced | None:
    """The LLL-reduced frame of ``factor``'s lattice, whether or not it pays
    (`_choose_frame` decides that); None if the reduction's integers grow
    past 2^20, which no factor here comes near.

    The slack constants bound, for a point of exact energy e = 0.5 ||G(x -
    u)||^2 and s = sqrt(2e), how far sqrt(2E) of each computed energy E can
    sit from s: ``rel`` * s plus ``offset`` (the frame change) or ``ulp`` *
    max|u| (today's frame).  With mu = 2^-53, gamma_k = k mu / (1 - k mu)
    and every factor of 2 below a margin for second-order terms:

    - A level's computed term is 0.5 a^2 for a = h_j (v_j - c_j), with v
      the point, y the centre and c_j = y_j - (H_j,j+1: . (v - y)_j+1:) /
      h_j in frame H (G or R).  The dot, the division and the subtraction
      from y_j put c_j within mu |y_j| + gamma_{n+3} p_j / h_j of its exact
      value, p_j = sum_k |H_jk| |v_k - y_k|; the squares and the sum are
      relative gamma_{n+1}.  With ||p|| <= ||H||_F ||v - y|| and ||v - y||
      <= ||H^-1||_F ||H(v - y)||, sqrt(2E) is within rho_H ||H(v - y)|| +
      2 mu ||diag H|| max|y| of ||H(v - y)||, where rho_H = 2 gamma_{2n+8}
      (1 + ||H||_F ||H^-1||_F).  The certificate's excess is the same with
      exact w = rint(u) - u and no division: within rho_G s.
    - In the reduced frame y = Tinv (u - r) is computed to within gamma_n
      |Tinv| |u - r|, so ||R (y - y_exact)|| <= ||R||_F gamma_n ||Tinv|
      1|| / 2, and |y| <= (1 + gamma_n) max_i sum_k |Tinv_ik| / 2.  R is
      exactly Omega^T (G T + dB), with ||dB||_F at most gamma_n || |G| |T|
      ||_F for the product and gamma_{16 n^2} ||G T||_F for Householder QR,
      so ||R(z - y_exact)|| is within ||dB||_F ||Tinv||_F ||G^-1||_F s of
      s = ||G(x - u)||.
    """
    n = factor.n
    G = factor.G
    try:
        T, Tinv = _lll(G)
    except (ArithmeticError, ValueError):  # a float factor that broke down
        return None
    if T is None:
        return None
    B = G @ T
    R = np.linalg.qr(B, mode="r")
    R = np.ascontiguousarray(R * np.copysign(1.0, np.diag(R))[:, None])
    rdiag = np.diag(R)
    rows = np.abs(Tinv).sum(axis=1)
    norm_G, norm_R, norm_Tinv = _fro(G), _fro(R), _fro(Tinv)
    norm_Ginv = _fro(np.linalg.inv(G))
    # R^-1 = Tinv G^-1 Omega up to R's rounding, so ||R^-1||_F is about at
    # most ||Tinv||_F ||G^-1||_F, well inside the margin of 2
    rel_G = 2.0 * _gamma(2 * n + 8) * (1.0 + norm_G * norm_Ginv)
    rel_R = 2.0 * _gamma(2 * n + 8) * (1.0 + norm_R * norm_Tinv * norm_Ginv)
    dB = 2.0 * (_gamma(n) * _fro(np.abs(G) @ np.abs(T)) + _gamma(16 * n * n) * _fro(B))
    rel_M = dB * norm_Tinv * norm_Ginv
    off_M = 2.0 * norm_R * _gamma(n) * 0.5 * _fro(rows)
    off_R = 4.0 * _MU * _fro(rdiag) * 0.5 * float(rows.max()) * (1.0 + _gamma(n))
    return Reduced(
        T=T,
        Tinv=Tinv,
        columns=tuple(T.T.tolist()),
        gdiag=rdiag.tolist(),
        strict_rows=tuple(R[j, j + 1 :] for j in range(n)),
        corner=float(R[-2, -1]) if n > 1 else 0.0,
        rel=max(rel_G, rel_R * (1.0 + rel_M) + rel_M),
        offset=(1.0 + rel_R) * off_M + off_R,
        ulp=4.0 * _MU * math.hypot(*factor.gdiag),
    )


def _fro(A: np.ndarray) -> float:
    """The Frobenius norm of A."""
    return math.sqrt(float(np.vdot(A, A)))


def _gamma(k: int) -> float:
    """gamma_k = k mu / (1 - k mu), the classical bound on k roundings."""
    return k * _MU / (1.0 - k * _MU)


def _lll(G: np.ndarray, delta: float = 0.99) -> tuple[np.ndarray | None, np.ndarray | None]:
    """LLL reduction (Lenstra, Lenstra & Lovasz, Math. Ann. 261, 1982) of
    the columns of the upper triangular G: a unimodular T and its exact
    inverse, float64 arrays of integers, with the columns of G T reduced;
    (None, None) if an entry of T or of its inverse reaches 2^20.

    It works on the triangular factor, column by column in Python floats:
    size reduction is a column update, and a swap of columns k - 1 and k is
    restored to triangular form by one Givens rotation of rows k - 1 and k,
    O(n) per step.  The float factor only steers the reduction: T is kept
    in Python integers, its inverse is the rounded float inverse checked
    exactly, and the frame's factor is taken afresh from G T.
    """
    n = G.shape[0]
    R = G.T.tolist()  # R[k]: column k of the triangular factor
    T = [[int(i == k) for i in range(n)] for k in range(n)]  # T[k]: column k
    k = 1
    while k < n:
        col = R[k]
        for j in range(k - 1, -1, -1):
            q = round(col[j] / R[j][j])
            if q:
                if not abs(q) < 2**20:
                    return None, None
                col[: j + 1] = [a - q * b for a, b in zip(col[: j + 1], R[j])]
                T[k] = [a - q * b for a, b in zip(T[k], T[j])]
        a, b, c = R[k - 1][k - 1], col[k - 1], col[k]
        if delta * a * a > b * b + c * c:
            R[k - 1], R[k] = col, R[k - 1]
            T[k - 1], T[k] = T[k], T[k - 1]
            h = math.hypot(b, c)
            cs, sn = b / h, c / h
            for column in R[k - 1 :]:
                top, bottom = column[k - 1], column[k]
                column[k - 1], column[k] = cs * top + sn * bottom, cs * bottom - sn * top
            R[k - 1][k] = 0.0
            k = max(k - 1, 1)
        else:
            k += 1
    if not max(abs(t) for column in T for t in column) < 2**20:
        return None, None
    T = np.array(T, dtype=np.float64).T.copy()
    Tinv = np.rint(np.linalg.inv(T))
    if not np.abs(Tinv).max() < 2**20:
        return None, None
    if not np.array_equal(T.astype(np.int64) @ Tinv.astype(np.int64), np.eye(n, dtype=np.int64)):
        return None, None
    return T, Tinv


def _choose_frame(factor: Factor) -> Reduced | None:
    """The LLL-reduced frame when its search tree is estimated to be
    smaller than the Cholesky frame's by more than a frame change costs,
    else None: the Cholesky frame, always at n = 1.

    The estimate is the Gaussian heuristic (`_search_nodes`) at the energy
    of the Gaussian-heuristic radius, where the ball holds one lattice point
    on average: about where a search's bound settles.  On the searches of
    the benchmark's workloads it tracked the measured node savings to within
    a factor of two.  A frame change costs about `_FRAME_NODES` nodes, so the
    reduction runs only when the Cholesky frame's tree exceeds that by n,
    the least tree any frame can have.
    """
    n = factor.n
    if n == 1:
        return None
    volume = math.pi ** (0.5 * n) / math.gamma(0.5 * n + 1.0)
    energy = 0.5 * math.exp(2.0 * (math.fsum(map(math.log, factor.gdiag)) - math.log(volume)) / n)
    before = _search_nodes(factor.gdiag, energy)
    if not before > _FRAME_NODES + n:
        return None
    reduced = reduced_frame(factor)
    if reduced is None or not before - _search_nodes(reduced.gdiag, energy) > _FRAME_NODES:
        return None
    return reduced


def _search_nodes(gdiag: Sequence[float], energy: float) -> float:
    """The Gaussian-heuristic node count of a search in the frame with
    diagonal ``gdiag`` and energy bound ``energy``."""
    radius = math.sqrt(2.0 * energy)
    nodes = volume = 1.0
    for k, h in enumerate(reversed(gdiag), 1):
        volume *= radius / h
        nodes += volume * math.pi ** (0.5 * k) / math.gamma(0.5 * k + 1.0)
    return nodes


def continuous_min(q: Quadratic) -> np.ndarray:
    """The unconstrained minimizer u = -Q^{-1} d."""
    return solve_with_factor(cholesky_unchecked(q.Q), -q.d)


def prox_bound(factor: Factor) -> float:
    """The paper's proximity radius (Flt(n) / 4) sqrt(lambda_max / lambda_min)
    of the factored Q, with the proven flatness bound Flt(n) = n^{5/2}.

    It states the paper's numbers; no solve reads it.  For n >= 2 it is at
    least n^2 / 2 times `guarantee_prox`, and for n = 1 it gives 1/4, below
    the true worst case 1/2.
    """
    return (float(factor.n) ** 2.5 / 4.0) * math.sqrt(factor.lambda_max / factor.lambda_min)


def guarantee_prox(factor: Factor) -> float:
    """The proven proximity radius sqrt(sum_j G_jj^2) / (2 sqrt(lambda_min))
    of the factored Q = G'G: no integer minimizer of 0.5 x'Qx + d'x lies
    farther from the continuous one u, for any d.

    f(x) - f(u) = 0.5 ||G(x - u)||^2, so the integer minimizer x* gives the
    point of the lattice G Z^n closest to Gu.  Babai's nearest-plane rule on
    the columns of G, whose Gram-Schmidt vectors are G_jj e_j, reaches a
    lattice point within sqrt(sum_j G_jj^2) / 2 of Gu (Babai, Combinatorica
    6, 1986), and Gx* is no farther; ||x* - u|| <= ||G(x* - u)|| /
    sqrt(lambda_min).  On c*I this is sqrt(n)/2, the true worst case (u at a
    cube centre), and it is never above (sqrt(n)/2) sqrt(lambda_max /
    lambda_min).  It divides by `lambda_floor`, not by the computed
    lambda_min, and is rounded up by a relative 1e-12; inf when the floor
    is not positive.
    """
    floor = lambda_floor(factor)
    return math.hypot(*factor.gdiag) / (2.0 * math.sqrt(floor)) * _LIFT if floor > 0.0 else math.inf


def lambda_floor(factor: Factor) -> float:
    """The computed lambda_min less 4 n eps lambda_max: below the true least
    eigenvalue of Q.

    A symmetric eigensolver's eigenvalues are off by its backward error, a
    small multiple of n eps ||Q||, so the computed lambda_min can sit above
    the true one; a relative lift of the radius does not cover that once Q
    is ill-conditioned.  On 4 x 4 draws of condition 1e2 to 1e8, Q minus
    this floor times I was positive definite in exact arithmetic on every
    draw, and Q - lambda_min (1 - 2e-12) I was not on some.
    """
    return factor.lambda_min - 4.0 * factor.n * _EPS * factor.lambda_max


def integer_min(q: Quadratic, node_budget: int = DEFAULT_NODE_BUDGET) -> tuple[np.ndarray, float]:
    """Global integer minimizer of q and its objective value.

    This is `lattice_mins` on one row, from q's own factorization.
    It keeps the least computed energy 0.5||L'(x - u)||^2 (u the continuous
    minimizer) and breaks exact ties in that energy toward the
    lexicographically smaller point, so runs are reproducible; the energy's
    last bits can split an exact tie in f.  Raises
    EnumerationBudgetExceeded when the search tree outgrows ``node_budget``,
    which at desk scale only happens for pathologically conditioned Q, and
    ProximityViolation if the result breaks the proven proximity radius or
    gap bound.
    """
    factor = factorize(q.Q, cholesky_unchecked(q.Q))
    u = solve_with_factor(factor.L, -q.d)
    v = lattice_mins((factor,), u[None], node_budget, G=factor.G[None])[0]
    return v, q.value(v)


def lattice_mins(
    factors: Sequence[Factor],
    U: np.ndarray,
    node_budget: int = DEFAULT_NODE_BUDGET,
    labels: Sequence[str] | None = None,
    G: np.ndarray | None = None,
) -> np.ndarray:
    """Integer minimizer of each row's quadratic, given its continuous
    minimizer ``U[r]`` and its factor ``factors[r]``, as int64 rows.

    ``G`` stacks the factors' ``G`` (a `game.PlayerGroup`'s, or
    ``factor.G[None]`` for one row); it is stacked from ``factors`` when not
    given.  Every row's dots come from a fixed number of `np.vecdot` calls:
    one over the rows G[j, a:] of the last min(n, 15) levels (a = max(0,
    n - 15)), whose zeros before the diagonal keep ddot's sequential chain
    below length 16, and one per level j < a on the slice G[j, j:].
    Each row is then answered in turn: the rounding certificate, then, when
    it cannot answer, the search in the factor's frame (NonFiniteCentre
    when its centre is not finite, CentreTooLarge when an entry is 2^52 or
    more in magnitude, EnumerationBudgetExceeded past ``node_budget``
    nodes), then the proximity postcondition (ProximityViolation).  These
    errors name the row ``labels[r]``, when given.  `_lattice_rows` is the
    same kernel with float64 rows, which `game.integer_sweep` reads.
    """
    return _lattice_rows(factors, U, node_budget, labels, G).astype(np.int64)


def _lattice_rows(
    factors: Sequence[Factor],
    U: np.ndarray,
    node_budget: int = DEFAULT_NODE_BUDGET,
    labels: Sequence[str] | None = None,
    G: np.ndarray | None = None,
) -> np.ndarray:
    """`lattice_mins` with float64 rows, each an integer point."""
    if G is None:
        G = np.stack([f.G for f in factors])
    n = U.shape[1]
    X = np.rint(U)
    W = X - U
    # The rounded point's excess 0.5||G(x - u)||^2, row j of G = L' being
    # G[j, j:] @ w[j:]: D[r, j] is that dot, bitwise the slice's ddot.
    if n <= _CHAIN:
        D = np.vecdot(G, W[:, None])
    else:
        a = n - _CHAIN
        D = np.empty_like(W)
        np.vecdot(G[:, a:, a:], W[:, None, a:], out=D[:, a:])
        for j in range(a):
            np.vecdot(G[:, j, j:], W[:, j:], out=D[:, j])
    search, certify = _kernels(n)
    Us = Xs = scratch = None
    for r, (factor, ws, ds) in enumerate(zip(factors, W.tolist(), D.tolist())):
        # the rounded point's excess, and whether the rounding certificate
        # answers the row; the search answers it when not
        excess, certified = certify(factor.cert, ws, ds)
        if certified:
            dist = math.hypot(*ws)
        else:
            if Us is None:
                Us, Xs, scratch = U.tolist(), X.tolist(), _scratch(n) if n > 2 else None
            us = Us[r]
            # an infinite or NaN entry is left to the search's round()
            if not max(map(abs, us)) < _CENTRE_LIMIT and all(map(math.isfinite, us)):
                raise CentreTooLarge(
                    f"{_name(labels, r)}a lattice search centre has an entry of 2^52 or more in magnitude "
                    f"(u = {us}), where the search's unit steps may round onto points already visited"
                )
            # a factor without a reduced frame goes straight to the loop
            run = search if factor.reduced is None else _enumerate
            try:
                x, excess = run(factor, us, Xs[r], excess, node_budget, scratch)
            except (OverflowError, ValueError) as exc:  # round() of an infinite or NaN centre
                raise NonFiniteCentre(f"{_name(labels, r)}a lattice search centre is not finite (u = {us})") from exc
            except EnumerationBudgetExceeded as exc:
                raise EnumerationBudgetExceeded(f"{_name(labels, r)}{exc}") from None
            X[r] = x
            dist = math.dist(x, us)
        # Postcondition guard: the minimizer must respect the proximity
        # radius and objective-gap bound that are provable for its Q.  The
        # excess is the gap computed in the translated frame, which stays
        # accurate where f(x) - f(u) would cancel catastrophically.  The
        # slack is in lattice units, times lambda_max for the gap's.  Only
        # this guard reads the distance, so its last bits move no output.
        if dist > factor.radius_limit or excess > factor.gap_limit:
            slack = 1e-9 * max(1.0, float(np.abs(U[r]).max()))
            who = _name(labels, r)
            if dist > factor.radius_limit + slack:
                raise ProximityViolation(
                    f"{who}integer minimizer at distance {dist:.6g} exceeds "
                    f"proximity radius {factor.radius:.6g}"
                )
            if excess > factor.gap_limit + factor.lambda_max * slack:
                raise ProximityViolation(f"{who}objective gap {excess:.6g} exceeds bound {factor.gap:.6g}")
    return X


def _name(labels: Sequence[str] | None, r: int) -> str:
    """The prefix naming row ``r`` in an error of `lattice_mins`."""
    return f"{labels[r]}: " if labels is not None else ""


def _enumerate(
    factor: Factor,
    us: Sequence[float],
    x0: Sequence[float],
    excess: float,
    node_budget: int,
    scratch: tuple[np.ndarray, list[np.ndarray]] | None,
) -> tuple[list[float], float]:
    """The integer minimizer around ``us`` from the incumbent ``x0 =
    rint(u)`` and its excess energy ``excess``, in the factor's frame: the
    point of least computed energy 0.5*||G(x - u)||^2 in the Cholesky frame,
    the lexicographically smaller one on a tie, and that energy.  ``us`` and
    ``x0`` are float sequences; `lattice_mins` passes rows of ``U.tolist()``
    and ``X.tolist()``, and calls the search itself for a factor with no
    reduced frame.  ``scratch`` is the buffers of `_scratch` (None at n <=
    2), which both frames' searches share.

    Both frames run the n-variable search of `_kernels`.  A factor with a
    reduced frame runs it in that frame (`_reduced_start`), keeping every
    leaf within a window of the least, and returns the same point
    (`_reduced_answer`); its excess is then the Cholesky frame's when two
    kept points compete, else its own computed energy of the point.  A row
    whose slack is not small beside ``excess`` searches in the Cholesky
    frame, and so does one whose reduced search keeps more than `_KEPT`
    leaves.  EnumerationBudgetExceeded once a
    search visits more than ``node_budget`` nodes of the frame it runs in.
    """
    search = _kernels(len(us))[0]
    reduced = factor.reduced
    start = None if reduced is None else _reduced_start(reduced, us, x0, excess)
    if start is not None:
        centre, slack = start
        keep: list = []
        _, least = search(reduced, centre, [0.0] * len(us), excess + slack, node_budget, scratch, 2.0 * slack, keep)
        if len(keep) <= _KEPT:
            return _reduced_answer(factor, us, x0, excess, keep, least + 2.0 * slack)
    return search(factor, us, x0, excess, node_budget, scratch)


def _scratch(n: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """The buffers of an n-variable search: x - u, and its tail views from
    level j + 1 for the levels j < n - 2 that take a dot; a search at n <= 2
    takes no dot and reads none.  Each search writes an entry before it
    reads it, so the searches of one `lattice_mins` call share one set."""
    xu = np.zeros(n)
    return xu, [xu[j + 1 :] for j in range(n - 2)]


def _zigzag(
    frame: Factor | Reduced,
    us: Sequence[float],
    x0: Sequence[float],
    excess: float,
    node_budget: int,
    scratch: tuple[np.ndarray, list[np.ndarray]],
    window: float = 0.0,
    keep: list | None = None,
) -> tuple[list[float], float]:
    """Zig-zag depth-first search in ``frame`` for the integer point of
    least computed energy around ``us``, from the incumbent ``x0`` at
    ``excess``: the point, the lexicographically smaller one on a tie, and
    that energy.  ``scratch`` is the buffers of `_scratch` for n =
    len(us).  With ``keep``, a list, each leaf within ``window`` of the
    least found so far is appended to it as (energy, point), and the search
    stops once it holds more than `_KEPT`; `_enumerate` reads it.
    EnumerationBudgetExceeded once it visits more than ``node_budget``
    nodes.  `_kernels` runs this loop above `_NESTING_LIMIT` variables, and
    below it the search compiled for n, which is this loop written out per
    level (`_search_source`).

    Each level tries b, b + s, b - s, b + 2s, ... around its conditional
    center c (b the nearest integer, s = +-1 toward c) by one step x_j += s
    per candidate, then s = -s - 1 or -s + 1: the integers b + s k wherever
    |b| < 2^53.  b is (c + 1.5 * 2^52) - 1.5 * 2^52 when |c| < 2^51, which
    rounds half to even as np.rint does and gives +0.0 for a zero, and
    float(round(c)) otherwise, which raises on a NaN or infinite c.  A
    branch is pruned once its partial energy exceeds the least found so far
    plus the window: partial sums of non-negative terms only grow, in
    floats too, and the zig-zag order is monotone in |cand - center|, so no
    leaf within the window of the final least is pruned.
    Level j < n - 2 takes its center's dot, of length >= 2, with
    `ndarray.dot` on a view of x - u: the ddot of `@` without the matmul
    ufunc's dispatch.  Level n - 2's dot is one product, ``corner`` times
    x_{n-1} - u_{n-1}, so a 2-variable search makes no numpy call per node.
    numpy's one-element dot is that product, and ddot's 0 + a*b differs
    from it only in the sign of a zero, which the search never reads: the
    center moves by a zero, its nearest integer is +0.0 either way, and c
    enters every cost squared.
    """
    n = len(us)
    gdiag = frame.gdiag
    rows = frame.strict_rows
    corner = frame.corner
    shift, low, high = _ROUND_SHIFT, -_ROUND_LIMIT, _ROUND_LIMIT
    best_excess = excess
    bound = excess + window
    best = list(x0)

    deep = n > 2  # whether any level's dot has two terms or more
    if deep:
        xu, tails = scratch  # x - u on the coordinates fixed so far
    x = [0.0] * n
    centers = [0.0] * n
    steps = [0.0] * n  # steps[j]: from x[j] to the next candidate of level j
    acc = [0.0] * n  # acc[j]: cost of rows j+1..n-1

    nodes = 0
    j = n - 1
    # Entering a level: its conditional center c, the nearest integer
    # (half to even, as np.rint) and a first step toward the side of c.
    c = us[j]
    x[j] = b = (c + shift) - shift if low < c < high else float(round(c))
    centers[j], steps[j] = c, 1.0 if c >= b else -1.0
    while True:
        cand = x[j]
        total = acc[j] + 0.5 * (gdiag[j] * (cand - centers[j])) ** 2
        if total > bound:
            # zig-zag order is monotone in |cand - center|: level exhausted
            j += 1
            if j == n:
                break
        else:
            nodes += 1
            if nodes > node_budget:
                raise EnumerationBudgetExceeded(f"enumeration exceeded {node_budget} nodes")
            if j:
                t = cand - us[j]
                acc[j - 1] = total
                j -= 1
                if deep:
                    xu[j + 1] = t
                if j < n - 2:
                    c = us[j] - float(rows[j].dot(tails[j])) / gdiag[j]
                else:
                    c = us[j] - corner * t / gdiag[j]
                x[j] = b = (c + shift) - shift if low < c < high else float(round(c))
                centers[j], steps[j] = c, 1.0 if c >= b else -1.0
                continue
            if total < best_excess or (total == best_excess and x < best):
                best_excess = total
                best = x.copy()
                bound = total + window
            if keep is not None:
                keep.append((total, x.copy()))
                if len(keep) > _KEPT:
                    break
        # the next candidate of level j: b, b + s, b - s, b + 2s, ...
        s = steps[j]
        x[j] += s
        steps[j] = -s - 1.0 if s > 0.0 else -s + 1.0
    return best, best_excess


# CPython compiles at most 20 statically nested blocks in one function, each
# ``while`` loop one of them, so a generated search, one loop per level,
# exists up to this dimension; `_zigzag` searches above it.
_NESTING_LIMIT = 20


@functools.cache
def _kernels(n: int) -> tuple[Callable, Callable]:
    """The n-variable search and rounding certificate of `_lattice_rows`,
    compiled from `_search_source` and `_certificate_source` on first use;
    above `_NESTING_LIMIT` the search is `_zigzag`.  The search takes
    `_zigzag`'s arguments and returns its result.

    The memo holds code, not data: each entry is a pure function of n, so
    no output depends on when, or whether, it was filled.  Dimensions are
    built one at a time because building all of them at import would make
    every process pay for dimensions it never solves.
    """
    search = _zigzag if n > _NESTING_LIMIT else _compiled(_search_source(n), "search", n)
    return search, _compiled(_certificate_source(n), "certify", n)


def _compiled(source: str, name: str, n: int) -> Callable:
    """The function ``name`` that ``source`` defines, compiled under a file
    name that gives its dimension in profiles and tracebacks."""
    namespace = {"__name__": __name__, "EnumerationBudgetExceeded": EnumerationBudgetExceeded}
    exec(compile(source, f"<icqs.iqp {name} n={n}>", "exec"), namespace)
    return namespace[name]


def _names(prefix: str, n: int) -> str:
    """The targets ``p0, p1, ..., p{n-1},`` of an unpacking."""
    return "".join(f"{prefix}{j}, " for j in range(n)).rstrip()


def _certificate_source(n: int) -> str:
    """The source of the n-variable rounding certificate ``certify(cert,
    ws, ds)``: the rounded point's excess 0.5 ||G w||^2 from the dots ds of
    G's rows with w = rint(u) - u, and whether it certifies rint(u).

    The excess is summed from the last row up, the association order of
    the search's partial sums, so exact ties stay exact.  It starts from
    the last term itself, which is the bits of 0.0 plus that term: a term
    0.5 t^2 is never -0.0.  The rounded point is certifiably the unique
    optimum when its excess is below cert_j (1 - |w_j|)^2, the energy every
    lattice point that moves coordinate j must pay, for every j, tested in
    j order.  A row with |w_j| = 1/2 fails by j at the latest, and a
    non-finite u at once: its excess is NaN, as is each test.
    """
    lines = [
        "def certify(cert, ws, ds):",
        f"    {_names('c', n)} = cert",
        f"    {_names('w', n)} = ws",
        f"    {_names('d', n)} = ds",
        f"    excess = 0.5 * d{n - 1} ** 2",
    ]
    lines += [f"    excess += 0.5 * d{j} ** 2" for j in range(n - 2, -1, -1)]
    for j in range(n):
        lines += [f"    if not excess < c{j} * (1.0 - abs(w{j})) ** 2:", "        return excess, False"]
    lines.append("    return excess, True")
    return "\n".join(lines) + "\n"


def _search_source(n: int) -> str:
    """The source of the n-variable search: `_zigzag` with one nested
    ``while`` loop per level, level j's state in locals (its centre cj,
    candidate vj, step sj and partial energy ej) in place of lists indexed
    by j.  Each level does `_zigzag`'s float operations in the same order:
    the 1.5 * 2^52 rounding or ``round``, the ``corner`` product at level
    n - 2 and the ``ndarray.dot`` on a tail of x - u below it; it counts and
    checks each node against the budget as `_zigzag` does, and the leaf
    keeps its order, window and ``keep`` exit.  The last level's energy is
    its one term, the bits of `_zigzag`'s 0.0 plus that term.
    """
    shift, limit = repr(_ROUND_SHIFT), repr(_ROUND_LIMIT)
    point = "[" + ", ".join(f"v{j}" for j in range(n)) + "]"

    def enter(j: int, centre: str, pad: str) -> list[str]:
        # its conditional center, the nearest integer (half to even, as
        # np.rint) and a first step toward the side of the center
        return [
            f"{pad}c{j} = {centre}",
            f"{pad}v{j} = (c{j} + {shift}) - {shift} if -{limit} < c{j} < {limit} else float(round(c{j}))",
            f"{pad}s{j} = 1.0 if c{j} >= v{j} else -1.0",
        ]

    def level(j: int, pad: str) -> list[str]:
        inner = pad + "    "
        term = f"0.5 * (g{j} * (v{j} - c{j})) ** 2"
        lines = [
            f"{pad}while True:",
            f"{inner}e{j} = {term if j == n - 1 else f'e{j + 1} + {term}'}",
            f"{inner}if e{j} > bound:",
            f"{inner}    break",
            f"{inner}nodes += 1",
            f"{inner}if nodes > node_budget:",
            f'{inner}    raise EnumerationBudgetExceeded(f"enumeration exceeded {{node_budget}} nodes")',
        ]
        if j:
            if j == n - 1:
                lines.append(f"{inner}t = v{j} - u{j}")
                if n > 2:
                    lines.append(f"{inner}xu[{j}] = t")
                lines += enter(j - 1, f"u{j - 1} - corner * t / g{j - 1}", inner)
            else:
                lines.append(f"{inner}xu[{j}] = v{j} - u{j}")
                lines += enter(j - 1, f"u{j - 1} - float(row{j - 1}.dot(tail{j - 1})) / g{j - 1}", inner)
            lines += level(j - 1, inner)
        else:
            lines += [
                f"{inner}if e0 < best_excess or (e0 == best_excess and {point} < best):",
                f"{inner}    best_excess = e0",
                f"{inner}    best = {point}",
                f"{inner}    bound = e0 + window",
                f"{inner}if keep is not None:",
                f"{inner}    keep.append((e0, {point}))",
                f"{inner}    if len(keep) > {_KEPT}:",
                f"{inner}        return best, best_excess",
            ]
        # the next candidate of level j: b, b + s, b - s, b + 2s, ...
        return lines + [f"{inner}v{j} += s{j}", f"{inner}s{j} = -s{j} - 1.0 if s{j} > 0.0 else -s{j} + 1.0"]

    lines = [
        "def search(frame, us, x0, excess, node_budget, scratch, window=0.0, keep=None):",
        f"    {_names('g', n)} = frame.gdiag",
        f"    {_names('u', n)} = us",
    ]
    if n > 1:
        lines.append("    corner = frame.corner")
    if n > 2:
        lines += [f"    {_names('row', n - 2)} = frame.strict_rows[:{n - 2}]", f"    xu, ({_names('tail', n - 2)}) = scratch"]
    lines += ["    best_excess = excess", "    bound = excess + window", "    best = list(x0)", "    nodes = 0"]
    lines += enter(n - 1, f"u{n - 1}", "    ")
    lines += level(n - 1, "    ")
    lines.append("    return best, best_excess")
    return "\n".join(lines) + "\n"


def _reduced_start(
    reduced: Reduced, us: Sequence[float], x0: Sequence[float], excess: float
) -> tuple[list[float], float] | None:
    """The reduced frame's centre Tinv (u - x0) and the slack S of a search
    around ``us`` from ``x0`` at ``excess``; None when 4S exceeds
    ``excess``, and the search stays in the Cholesky frame.

    Write E for the Cholesky frame's computed energy of a point, E' for the
    reduced frame's and e for the exact 0.5 ||G(x - u)||^2.  The Cholesky
    search returns the least of (``excess``, x0) and the pairs (E(x), x) in
    the order of (energy, point).  For every point of exact energy at most
    2 ``excess``, S bounds the distance between any two of E, E' and the
    certificate's excess: with s = 2 sqrt(excess) and the `Reduced`
    constants, each computed sqrt(2E) is within delta = rel * s +
    max(offset, ulp * max|u|) of sqrt(2e), so S = delta (2s + delta).  A row
    needs 4S <= ``excess``, so that every point named in `_reduced_answer`
    has exact energy at most excess + 4S <= 2 ``excess``.  The search starts
    from excess + S >= E'(0) and keeps every leaf within 2S of the least.
    """
    ulp = reduced.ulp * max(map(abs, us))
    reach = 2.0 * math.sqrt(excess)
    delta = reduced.rel * reach + (ulp if ulp > reduced.offset else reduced.offset)
    slack = delta * (2.0 * reach + delta)
    if not 4.0 * slack <= excess:
        return None
    return reduced.Tinv.dot(np.subtract(us, x0)).tolist(), slack


def _reduced_answer(
    factor: Factor, us: Sequence[float], x0: Sequence[float], excess: float, keep: list, limit: float
) -> tuple[list[float], float]:
    """The Cholesky search's answer from the leaves (E', z) a reduced-frame
    search kept, ``limit`` being its least E' plus the window 2S.

    Let m be the least E' and x* the Cholesky search's answer, other than x0
    at ``excess``.  E(x*) <= E(x) for every x, so E'(x*) <= E(x*) + S <=
    E(argmin E') + S <= m + 2S, and x* was kept.  Each kept z maps to x =
    x0 + T z, and the answer is the least of (``excess``, x0) and the pairs
    (E(x), x), with E from `_energy`, the Cholesky search's own arithmetic.
    With one kept point x other than x0 that step is skipped: x0 was not
    kept, so ``excess`` >= E'(x0) - S > m + S >= E(x), and x wins.
    """
    near = [(t, z) for t, z in keep if t <= limit]
    reduced = factor.reduced
    if len(near) == 1:
        t, z = near[0]
        return _lattice_point(reduced, x0, z), t if any(z) else excess
    best = (excess, list(x0))
    for _, z in near:
        x = _lattice_point(reduced, x0, z)
        pair = (_energy(factor, us, x), x)
        if pair < best:
            best = pair
    return best[1], best[0]


def _lattice_point(reduced: Reduced, x0: Sequence[float], z: Sequence[float]) -> list[float]:
    """x0 + T z, exact: every term is an integer below 2^53."""
    x = list(x0)
    for zk, column in zip(z, reduced.columns):
        if zk:
            x = [a + zk * b for a, b in zip(x, column)]
    return x


def _energy(factor: Factor, us: Sequence[float], x: Sequence[float]) -> float:
    """The energy the search computes for the leaf ``x`` in the Cholesky
    frame around ``us``, by the same operations in the same order: it
    depends on x alone, not on the path to it."""
    n = len(us)
    gdiag, rows = factor.gdiag, factor.strict_rows
    xu = np.zeros(n)
    total = t = 0.0
    for j in range(n - 1, -1, -1):
        if j == n - 1:
            c = us[j]
        elif j == n - 2:
            c = us[j] - factor.corner * t / gdiag[j]
        else:
            c = us[j] - float(rows[j].dot(xu[j + 1 :])) / gdiag[j]
        total = total + 0.5 * (gdiag[j] * (x[j] - c)) ** 2
        t = x[j] - us[j]
        xu[j] = t
    return total


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
