"""Instance model for integer convex quadratic simultaneous games.

Each of the k >= 2 players i minimizes

    0.5 * x_i' Q_i x_i + (sum_j C_i[j] x_j + d_i)' x_i      over x_i in Z^{n_i}

with Q_i symmetric positive definite and one coupling block C_i[j] per
opponent j.  The interaction matrix R_i = Q_i^{-1} [C_i[j] for j != i,
concatenated in ascending player order] is the linear map from the joint
opponent strategy to the shift of player i's continuous best response; the
singular values of the R_i decide whether best-response iteration contracts
(all below one: "positively adequate") or expands (all above one:
"negatively adequate").

Instances are immutable after construction and every operation is a pure
function, so instances can be shared and evaluated in parallel freely.

Best-response iteration solves each player's integer quadratic over and over
with only the linear term C_i y + d_i moving, so everything that depends on
Q_i, C_i and d_i alone is data of the instance, and `IcqsInstance` derives it
once, when it is built: each Q_i's Cholesky factor, whose pivot test is Q_i's
positive definiteness check, and the `iqp.Factor` taken from it, the
concatenated couplings, the adequacy report (`classify`), the sweep stacks
and the norm of (Q_1^{-1}d_1; ...; Q_k^{-1}d_k).  No classification, solve
or generator draw factors or classifies an instance again.  Each factor
carries its proven proximity radius (`iqp.Factor.radius`), the one every
certificate and every reported bound reads, and the instance holds the
termination or divergence radius taken from them, so every function of a
solve (a best response, a sweep, a radius, a bound) takes the instance.

`integer_sweep(inst, z)` is the sweep kernel: every player's integer best
response to the joint float64 strategy vector z, returned as one joint
int64 vector, the same vector in float64 for the next sweep, and each
player's squared norm, with nothing checked.  The instance groups the
players by dimension (`PlayerGroup`) and stacks, once, what the kernel
reads of each group: the factors, their stacked Cholesky factors and
transposes, an index that gathers each player's opponents from z, the
concatenated couplings, negated, and the linear terms.  Per group, the
kernel forms every negated linear term -(C_i y + d_i) with one stacked
matvec, which gives each row bitwise the one-player matvec up to the sign
of an exact zero, and gets u from one stacked solve pair against the
Cholesky factors, straight to numpy's gesv gufunc (`linalg.gesv`, the same
LAPACK call and bits as `np.linalg.solve`).
`iqp.lattice_mins` then takes every row's dots against the group's stacked
G in a fixed number of `np.vecdot` calls and answers each player in turn
from that u: the rounding certificate, the search when the certificate
cannot answer, and the proximity postcondition.  So a sweep makes a fixed
number of numpy calls per group of n <= 15, however many players it holds
(one more per level beyond 15), beside the rows that search.  One more
`np.vecdot` on the group's float64 rows gives every player's squared norm,
bitwise its own dot (`_squares`); with one group, which holds every player
in player order, the rows are the joint float64 response and no scatter
writes them, and one cast gives the int64 vector.  `continuous_sweep` is
the same gather, matvec and solve without the rounding, and
`squared_norms` the same norms of a joint vector.
`best_responses(inst, profile)` is the checked wrapper: it validates the
per-player vectors, joins them and splits the answer into one array per
player.  `best_response(inst, i, others)` runs the same `lattice_mins` on
one row, from the one-player linear term and `linalg.solve_with_factor`,
and each sweep response is bitwise the one it gives (the argument is in
`iqp`).

Costs have the same two forms.  `objective(inst, i, own, others)` is one
player's cost, with its opponents gathered from per-player vectors.
`objectives(inst, x, y)` is every player's cost at the joint vector x
against the joint vector y in one expression: the instance holds, beside
its joint coupling ``C``, the block-diagonal joint ``Q`` and the joint
``d``, so the linear terms are one matvec ``C y + d`` and the costs one
``np.add.reduceat`` over the players' slots.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from . import bounds, iqp, linalg
from .errors import DimensionMismatch

# Singular values within this margin of 1 are treated as "on the boundary":
# the instance is classified neither positively nor negatively adequate.
ADEQUACY_EPS = 1e-9


class Adequacy(str, Enum):
    POSITIVE = "positively_adequate"
    NEGATIVE = "negatively_adequate"
    NEITHER = "neither"


@dataclass(frozen=True)
class PlayerProblem:
    """One player's quadratic cost and coupling to each opponent."""

    Q: np.ndarray
    C: Mapping[int, np.ndarray]  # opponent player index -> (n_i x n_j) block
    d: np.ndarray

    @property
    def n(self) -> int:
        return self.Q.shape[0]


@dataclass(frozen=True)
class PlayerGroup:
    """The players of one dimension n, ascending, with their factors and the
    stacked arrays one sweep reads.

    Row r belongs to player ``players[r]``: ``factors[r]`` is its
    `iqp.Factor`, ``Q[r]`` its Q_i, ``L[r]`` and ``G[r]`` that factor's
    Cholesky factor and its transpose, ``own[r]`` indexes its entries in the
    joint strategy vector and ``gather[r, :, 0]`` its opponents' entries in
    ascending order, ``minus_C[r]`` is its concatenated coupling, negated,
    and ``d[r, :, 0]`` its linear term.  ``gather`` and ``d`` keep a
    trailing axis of one, the column shape the stacked matvec and solves
    take, so a sweep reshapes nothing.
    ``labels`` name the players in the errors of `iqp.lattice_mins`.
    """

    players: tuple[int, ...]
    factors: tuple[iqp.Factor, ...]
    labels: tuple[str, ...]
    Q: np.ndarray
    L: np.ndarray
    G: np.ndarray
    own: np.ndarray
    gather: np.ndarray
    minus_C: np.ndarray
    d: np.ndarray

    def continuous_mins(self, z: np.ndarray) -> np.ndarray:
        """Row r: player ``players[r]``'s continuous best response
        -Q_i^{-1} (C_i y + d_i) to the joint vector ``z``.

        The stacked matvec of the negated couplings, less the linear terms
        in one (m, n, 1) array, gives each row bitwise the negated linear
        term -(C_cat[i] @ y + d_i) of the one-player matvec, but for the
        sign of an exact zero: rounding to nearest is symmetric, and a - b
        is a + (-b).  The stacked solve pair goes straight to numpy's gesv
        gufunc (`linalg.gesv`), which runs LAPACK's gesv once per matrix, so
        each row is bitwise the one-player `linalg.solve_with_factor`, up to
        that sign, which moves no integer response.  A continuous response
        that is exactly zero can carry either sign.
        """
        D = np.matmul(self.minus_C, z[self.gather])
        D -= self.d
        return linalg.gesv(self.G, linalg.gesv(self.L, D))[:, :, 0]


@dataclass(frozen=True)
class IcqsInstance:
    """A validated instance and everything a solve derives from it alone;
    build it with `make_instance`.

    Construction checks k >= 2 and the length of every d_i and shape of every
    coupling block, and factors each Q_i: ``factors[i].L`` is its lower
    Cholesky factor, whose symmetry and pivot tests are Q_i's one
    validation.  The rest is derived from ``players`` once, on construction,
    and cannot be passed in:

    - ``dims[i]``: player i's variable count n_i;
    - ``C_cat[i]``: player i's coupling blocks concatenated in ascending
      opponent order, the matrix that maps the joint opponent strategy y to
      the shift C_i y of player i's linear term;
    - ``C``: the joint coupling, sum(n_i) x sum(n_i), whose block (i, j) is
      C_ij and whose diagonal blocks are zero, and beside it ``Q``, the
      block-diagonal joint matrix of the Q_i, and ``d``, the joint vector of
      the d_i (`objectives` reads the three);
    - ``factors[i]``: Q_i's `iqp.Factor`, with its Cholesky factor ``L``;
    - ``report``: the adequacy classification (`classify`);
    - ``slots[i]``: the range [a, b) of player i's entries in the joint
      strategy vector, and ``groups``: the players by dimension, in order of
      their first player, with what a sweep reads of each (`PlayerGroup`);
    - ``qinv_d_norm``: ||(Q_1^{-1}d_1; ...; Q_k^{-1}d_k)||, and
      ``norm_radius``: (qinv_d_norm + ||(prox_1; ...; prox_k)||) / rho at the
      proven radii ``factors[i].radius``, the termination radius of a
      positively and the divergence radius of a negatively adequate instance
      (None when it is neither, and inf when it overflows, which
      `dynamics.termination_radius` and `dynamics.divergence_radius` raise);
    - ``l_bound`` and ``delta_a_priori``: every player's a-priori cycle
      diameter and deviation bounds at the proven radii (`bounds.a_priori`;
      None unless positively adequate, and a deviation bound inf when it
      overflows, which `bounds.delta_a_priori` and `bounds.guarantee_pack`
      raise).
    """

    players: tuple[PlayerProblem, ...]
    meta: dict = field(default_factory=dict, compare=False)
    dims: tuple[int, ...] = field(init=False, compare=False, repr=False)
    C_cat: tuple[np.ndarray, ...] = field(init=False, compare=False, repr=False)
    C: np.ndarray = field(init=False, compare=False, repr=False)
    Q: np.ndarray = field(init=False, compare=False, repr=False)
    d: np.ndarray = field(init=False, compare=False, repr=False)
    factors: tuple[iqp.Factor, ...] = field(init=False, compare=False, repr=False)
    report: AdequacyReport = field(init=False, compare=False, repr=False)
    slots: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)
    groups: tuple[PlayerGroup, ...] = field(init=False, compare=False, repr=False)
    qinv_d_norm: float = field(init=False, compare=False, repr=False)
    norm_radius: float | None = field(init=False, compare=False, repr=False)
    l_bound: tuple[float, ...] | None = field(init=False, compare=False, repr=False)
    delta_a_priori: tuple[float, ...] | None = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        players = self.players
        if len(players) < 2:
            raise DimensionMismatch("an instance needs at least two players")
        L = tuple(linalg.cholesky(p.Q, f"Q[{i}]") for i, p in enumerate(players))
        dims = tuple(p.n for p in players)  # each Q_i is a square matrix from here on
        object.__setattr__(self, "dims", dims)
        for i, p in enumerate(players):
            if p.d.shape[0] != dims[i]:
                raise DimensionMismatch(f"player {i}: d has length {p.d.shape[0]}, expected {dims[i]}")
            if set(p.C.keys()) != set(self.opponents(i)):
                raise DimensionMismatch(f"player {i}: coupling blocks for {sorted(p.C)} instead of {list(self.opponents(i))}")
            for j, block in p.C.items():
                if block.shape != (dims[i], dims[j]):
                    raise DimensionMismatch(
                        f"player {i}: block against player {j} is {block.shape}, expected {(dims[i], dims[j])}"
                    )
        C_cat = tuple(np.hstack([p.C[j] for j in self.opponents(i)]) for i, p in enumerate(players))
        factors = tuple(iqp.factorize(p.Q, Li) for p, Li in zip(players, L))
        ends = np.cumsum(dims).tolist()
        slots = tuple(zip([0] + ends[:-1], ends))
        index = np.arange(ends[-1])
        owner = np.repeat(np.arange(len(dims)), dims)
        C = np.zeros((ends[-1], ends[-1]))
        C[owner[:, None] != owner] = np.concatenate([c.ravel() for c in C_cat])  # row by row
        Q = np.zeros_like(C)
        Q[owner[:, None] == owner] = np.concatenate([p.Q.ravel() for p in players])
        members: dict[int, list[int]] = {}
        for i, n in enumerate(dims):
            members.setdefault(n, []).append(i)
        groups = tuple(
            PlayerGroup(
                players=tuple(ps),
                factors=tuple(factors[i] for i in ps),
                labels=tuple(f"player {i}" for i in ps),
                Q=np.stack([players[i].Q for i in ps]),
                L=np.stack([factors[i].L for i in ps]),
                G=np.stack([factors[i].G for i in ps]),
                own=np.array([index[a:b] for a, b in (slots[i] for i in ps)]),
                gather=np.array([np.concatenate((index[:a], index[b:])) for a, b in (slots[i] for i in ps)])[:, :, None],
                minus_C=-np.stack([C_cat[i] for i in ps]),
                d=np.stack([players[i].d for i in ps])[:, :, None],
            )
            for ps in members.values()
        )
        d = np.concatenate([p.d for p in players])
        d_part = np.concatenate([linalg.solve_with_factor(f.L, -p.d) for p, f in zip(players, factors)])
        for name, value in zip(
            ("C_cat", "C", "Q", "d", "factors", "slots", "groups", "qinv_d_norm"),
            (C_cat, C, Q, d, factors, slots, groups, _norm(d_part)),
        ):
            object.__setattr__(self, name, value)
        report = classify(self)  # reads factors and C_cat
        object.__setattr__(self, "report", report)
        radius = None if report.rho is None else (self.qinv_d_norm + _norm([f.radius for f in factors])) / report.rho
        object.__setattr__(self, "norm_radius", radius)
        l_bound, delta_a_priori = bounds.a_priori(self)  # reads factors and report
        object.__setattr__(self, "l_bound", l_bound)
        object.__setattr__(self, "delta_a_priori", delta_a_priori)

    @property
    def k(self) -> int:
        return len(self.players)

    def opponents(self, i: int) -> tuple[int, ...]:
        return tuple(j for j in range(self.k) if j != i)

    def split(self, z: np.ndarray) -> tuple[np.ndarray, ...]:
        """Each player's entries of the joint vector ``z``, as its own array."""
        return tuple(z[a:b].copy() for a, b in self.slots)


def _norm(values) -> float:
    """The Euclidean norm of ``values``; inf, with no numpy warning, on overflow."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(values))


def make_instance(players: Sequence[PlayerProblem], meta: dict | None = None) -> IcqsInstance:
    """Validate and freeze an instance.

    Converts every Q_i to float64, checks that every coupling block and d_i
    is a finite float64 matrix or vector, and builds the `IcqsInstance`,
    which checks the rest: k >= 2, the shapes against each player's variable
    count, and the symmetry and positive definiteness of every Q_i.
    """
    return IcqsInstance(
        players=tuple(
            PlayerProblem(
                Q=np.asarray(p.Q, dtype=np.float64),
                C={int(j): linalg.as_matrix(B, f"C[{i}][{j}]") for j, B in p.C.items()},
                d=linalg.as_vector(p.d, f"d[{i}]"),
            )
            for i, p in enumerate(players)
        ),
        meta=dict(meta or {}),
    )


def interaction_matrix(inst: IcqsInstance, i: int) -> np.ndarray:
    """R_i = Q_i^{-1} [C_i blocks, opponents in player order], from Q_i's
    Cholesky factor ``inst.factors[i].L``."""
    return linalg.solve_with_factor(inst.factors[i].L, inst.C_cat[i])


@dataclass(frozen=True)
class AdequacyReport:
    sigma_max: tuple[float, ...]  # per player, largest singular value of R_i
    sigma_min: tuple[float, ...]  # per player, smallest singular value of R_i
    classification: Adequacy
    rho: float | None  # margin: 1 - max sigma, or min sigma - 1

    @property
    def max_sigma(self) -> float:
        return max(self.sigma_max)


def classify(inst: IcqsInstance) -> AdequacyReport:
    """Adequacy classification from the singular values of the interaction
    matrices (`interaction_matrix`); ValueError naming the player and R_i
    when an R_i overflows.

    Strict inequalities with an epsilon margin; singular values numerically
    equal to one land in NEITHER rather than being misclassified.
    """
    smax, smin = [], []
    for i in range(inst.k):
        sv = linalg.singular_values(interaction_matrix(inst, i), f"player {i}: R_{i} = Q_{i}^-1 C_{i}")
        smax.append(float(sv[0]))
        smin.append(float(sv[-1]))
    overall_max = max(smax)
    overall_min = min(smin)
    if overall_max < 1.0 - ADEQUACY_EPS:
        cls, rho = Adequacy.POSITIVE, 1.0 - overall_max
    elif overall_min > 1.0 + ADEQUACY_EPS:
        cls, rho = Adequacy.NEGATIVE, overall_min - 1.0
    else:
        cls, rho = Adequacy.NEITHER, None
    return AdequacyReport(
        sigma_max=tuple(smax), sigma_min=tuple(smin), classification=cls, rho=rho
    )


def _concat(inst: IcqsInstance, players: Sequence[int], vectors: Sequence[np.ndarray]) -> np.ndarray:
    """The vectors of ``players``, one each in that order, as one float64 vector."""
    dims = inst.dims
    parts = []
    for j, vec in zip(players, vectors):
        v = np.asarray(vec, dtype=np.float64).ravel()
        if v.shape[0] != dims[j]:
            raise DimensionMismatch(
                f"player {j} vector has length {v.shape[0]}, expected {dims[j]}"
            )
        parts.append(v)
    return np.concatenate(parts)


def _others_concat(inst: IcqsInstance, i: int, others: Sequence[np.ndarray]) -> np.ndarray:
    opp = inst.opponents(i)
    if len(others) != len(opp):
        raise DimensionMismatch(
            f"player {i} has {len(opp)} opponents, got {len(others)} vectors"
        )
    return _concat(inst, opp, others)


def _linear_term(inst: IcqsInstance, i: int, y: np.ndarray) -> np.ndarray:
    """C_i y + d_i for the joint opponent strategy y; not checked for
    finiteness."""
    return inst.C_cat[i] @ y + inst.players[i].d


def objective(
    inst: IcqsInstance, i: int, own: np.ndarray, others: Sequence[np.ndarray]
) -> float:
    """Player i's exact cost ``0.5 x'Q_i x + (C_i y + d_i)'x`` at x = own and
    the opponents' joint strategy y, one vector per opponent in ascending
    player order in ``others``.

    Raises DimensionMismatch on a wrong length of ``own`` or of an
    opponent's vector or a wrong opponent count, and ValueError when the
    opponents' strategies make the linear term C_i y + d_i non-finite.
    """
    x = np.asarray(own, dtype=np.float64).ravel()
    if x.shape[0] != inst.dims[i]:
        raise DimensionMismatch(f"player {i} vector has length {x.shape[0]}, expected {inst.dims[i]}")
    d = _linear_term(inst, i, _others_concat(inst, i, others))
    if not np.isfinite(d).all():
        raise ValueError(f"player {i}: the linear term C_i y + d_i is not finite")
    return float(0.5 * x @ inst.players[i].Q @ x + d @ x)


def objectives(inst: IcqsInstance, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every player's cost ``0.5 x_i'Q_i x_i + (C_i y + d_i)'x_i`` as one
    vector, at its own entries x_i of the joint float64 vector ``x`` and
    its opponents' entries of the joint float64 vector ``y``.

    One expression for all players: the joint linear term ``C y + d`` (the
    diagonal blocks of C are zero, so y_i drops out of player i's) and the
    block-diagonal ``Q x``, summed per player by one ``np.add.reduceat``.
    Each cost is `objective`'s up to rounding in its last bits.  ValueError,
    in `objective`'s words, naming the first player whose linear term is
    not finite.
    """
    linear = inst.C @ y + inst.d
    if not np.isfinite(linear).all():
        i = next(i for i, (a, b) in enumerate(inst.slots) if not np.isfinite(linear[a:b]).all())
        raise ValueError(f"player {i}: the linear term C_i y + d_i is not finite")
    return np.add.reduceat(x * (0.5 * (inst.Q @ x) + linear), [a for a, _ in inst.slots])


def joint_vector(inst: IcqsInstance, profile: Sequence[np.ndarray]) -> np.ndarray:
    """The joint float64 vector of ``profile``, one vector per player;
    DimensionMismatch on a wrong player count or vector length."""
    if len(profile) != inst.k:
        raise DimensionMismatch(f"profile has {len(profile)} players, expected {inst.k}")
    return _concat(inst, range(inst.k), profile)


def integer_sweep(inst: IcqsInstance, z: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Every player's integer best response to the joint float64 vector
    ``z``: one Jacobi sweep, unchecked.  It returns the responses as one
    joint int64 vector, the same responses as one joint float64 vector, and
    each player's squared norm, in player order.

    Per group of players of one dimension, the continuous minimizers come
    from one stacked solve pair, and `iqp.lattice_mins` answers each player
    from its own: the rounding certificate, the search when the certificate
    cannot answer, and the proximity postcondition.  The float64 vector and
    the norms are those of its float64 rows (`_joint`); a rounded -0.0 stays
    in the float64 vector, which only the next sweep's matvec reads.
    """
    rows = [iqp._lattice_rows(g.factors, g.continuous_mins(z), labels=g.labels, G=g.G) for g in inst.groups]
    zf, squares = _joint(inst, rows)
    return zf.astype(np.int64), zf, squares


def continuous_sweep(inst: IcqsInstance, z: np.ndarray) -> tuple[np.ndarray, list[float]]:
    """Every player's continuous best response to the joint float64 vector
    ``z``, as one joint vector, and each player's squared norm; unchecked,
    as `integer_sweep`."""
    return _joint(inst, [g.continuous_mins(z) for g in inst.groups])


def squared_norms(inst: IcqsInstance, z: np.ndarray) -> list[float]:
    """Each player's squared l2 norm of its entries of the joint float64
    vector ``z``, in player order, as the sweeps give them."""
    return _squares(inst, [z[g.own] for g in inst.groups])


def _joint(inst: IcqsInstance, rows: list[np.ndarray]) -> tuple[np.ndarray, list[float]]:
    """Each group's float64 rows as one joint float64 vector, and each
    player's squared norm.  One group holds every player in player order,
    so its rows are the joint vector, with no copy; several are scattered
    into it."""
    if len(rows) == 1:
        out = rows[0].reshape(-1)
    else:
        out = np.empty(inst.slots[-1][1])
        for g, X in zip(inst.groups, rows):
            out[g.own] = X
    return out, _squares(inst, rows)


def _squares(inst: IcqsInstance, rows: list[np.ndarray]) -> list[float]:
    """Each player's squared norm from its group's float64 rows, in player
    order: one `np.vecdot` per group, which runs one ddot per row, so each
    is bitwise ``float(x.dot(x))`` of the player's own vector.  A rounded
    -0.0 squares to +0.0, as the integer 0 does."""
    if len(rows) == 1:
        return np.vecdot(rows[0], rows[0]).tolist()
    return in_player_order(inst, [np.vecdot(X, X) for X in rows])


def in_player_order(inst: IcqsInstance, values: list[np.ndarray]) -> list[float]:
    """One float per player, in player order, from one vector per group
    holding its players' values in the group's order.  One group holds
    every player in player order, so its vector is the list."""
    if len(values) == 1:
        return values[0].tolist()
    out = [0.0] * inst.k
    for g, v in zip(inst.groups, values):
        for i, x in zip(g.players, v.tolist()):
            out[i] = x
    return out


def best_responses(inst: IcqsInstance, profile: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Every player's integer best response to the joint ``profile``, one
    vector per player: `integer_sweep` on the checked joint vector.

    Real entries are allowed, as for `best_response`.  Each response is
    bitwise the one `best_response` gives the same player.
    """
    return list(inst.split(integer_sweep(inst, joint_vector(inst, profile))[0]))


def best_response(inst: IcqsInstance, i: int, others: Sequence[np.ndarray]) -> np.ndarray:
    """Integer best response of player i to the opponents' (mean) strategies.

    ``others`` holds one vector per opponent in ascending player order.
    Deterministic, by `iqp.integer_min`'s tie rule (least computed energy,
    then the lexicographically smaller point).  This is the sweep's
    certificate, search and postcondition on one row, from the one-player
    linear term.
    """
    factor = inst.factors[i]
    D = _linear_term(inst, i, _others_concat(inst, i, others))
    u = linalg.solve_with_factor(factor.L, -D)
    return iqp.lattice_mins((factor,), u[None], labels=(f"player {i}",), G=factor.G[None])[0]


# ---------------------------------------------------------------------------
# Instance files: one JSON document per instance.  Floats round-trip exactly
# (json emits shortest repr), so any decimal literal with <= 12 significant
# digits survives load -> save -> load unchanged.

def instance_to_dict(inst: IcqsInstance) -> dict:
    return {
        "players": [
            {
                "Q": p.Q.tolist(),
                "C": {str(j): block.tolist() for j, block in sorted(p.C.items())},
                "d": p.d.tolist(),
            }
            for p in inst.players
        ],
        "meta": inst.meta,
    }


def instance_from_dict(doc: dict) -> IcqsInstance:
    players = [
        PlayerProblem(
            Q=np.asarray(entry["Q"], dtype=np.float64),
            C={int(j): np.asarray(block, dtype=np.float64) for j, block in entry["C"].items()},
            d=np.asarray(entry["d"], dtype=np.float64),
        )
        for entry in doc["players"]
    ]
    return make_instance(players, meta=doc.get("meta", {}))


def save_instance(inst: IcqsInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(inst), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_instance(path) -> IcqsInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))
