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
or generator draw factors or classifies an instance again.  A solve adds
only its flatness rule: `prepare(inst, rule)` gives a `Prepared` value with
every player's proximity radii under that rule.  Every function of a solve
(a best response, a sweep, a radius, a bound) takes the `Prepared` value,
whose ``inst`` is the instance; the functions that need no rule
(`objective`, `classify`) take the instance.

`integer_sweep(prep, z)` is the sweep kernel: every player's integer best
response to the joint float64 strategy vector z, returned as one joint int64
vector, with nothing checked.  The instance groups the players by dimension
(`PlayerGroup`) and stacks, once, what the kernel reads of each group: the
factors and the certificate and postcondition constants
(`iqp.FactorStack`), an index that gathers each player's opponents from z,
the concatenated couplings and the linear terms.  Per group, the kernel
forms every linear term C_i y + d_i with one stacked matvec, which gives
each row bitwise the one-player matvec, gets u from one stacked solve, and
runs the rounding certificate and the proximity postcondition on the group
as arrays (`iqp.lattice_mins`); only the players the certificate cannot
answer are enumerated, from that same u.  `continuous_sweep` is the same
gather, matvec and solve without the rounding.  `best_responses(prep,
profile)` is the checked wrapper: it validates the per-player vectors,
joins them and splits the answer into one array per player.
`best_response(prep, i, others)` runs the certificate and search on a
stack of one from the one-player linear term, and each sweep response is
bitwise the one it gives (the argument is in `iqp`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from . import iqp, linalg
from .errors import BoundOverflow, DimensionMismatch

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
    """The players of one dimension n, ascending, with their stacked factors
    and the stacked arrays one sweep reads.

    Row r belongs to player ``players[r]``: ``own[r]`` indexes its entries in
    the joint strategy vector and ``gather[r]`` its opponents' entries in
    ascending order, ``C[r]`` is its concatenated coupling and ``d[r]`` its
    linear term.  ``labels`` name the players in a `ProximityViolation`.
    """

    players: tuple[int, ...]
    stack: iqp.FactorStack
    labels: tuple[str, ...]
    own: np.ndarray
    gather: np.ndarray
    C: np.ndarray
    d: np.ndarray

    def continuous_mins(self, z: np.ndarray) -> np.ndarray:
        """Row r: player ``players[r]``'s continuous best response
        -Q_i^{-1} (C_i y + d_i) to the joint vector ``z``.

        The stacked matvec gives each row bitwise the linear term the
        one-player matvec ``C_cat[i] @ y + d_i`` gives, and the stacked
        solve each row's one-player solve (see `iqp.FactorStack`).
        """
        D = np.matmul(self.C, z[self.gather][:, :, None])[:, :, 0] + self.d
        return self.stack.continuous_mins(D)


@dataclass(frozen=True)
class IcqsInstance:
    """A validated instance and everything a solve derives from it alone;
    build it with `make_instance`.

    Construction checks k >= 2 and the length of every d_i and shape of every
    coupling block, and factors each Q_i: ``L[i]`` is its lower Cholesky
    factor, whose symmetry and pivot tests are Q_i's one validation.  The
    rest is derived from ``players`` once, on construction, and cannot be
    passed in:

    - ``C_cat[i]``: player i's coupling blocks concatenated in ascending
      opponent order, the matrix that maps the joint opponent strategy y to
      the shift C_i y of player i's linear term;
    - ``factors[i]``: Q_i's `iqp.Factor`, from ``L[i]``;
    - ``report``: the adequacy classification (`classify`);
    - ``slots[i]``: the range [a, b) of player i's entries in the joint
      strategy vector, and ``groups``: the players by dimension, in order of
      their first player, with what a sweep reads of each (`PlayerGroup`);
    - ``qinv_d_norm``: ||(Q_1^{-1}d_1; ...; Q_k^{-1}d_k)||, the part of the
      termination and divergence radii that no flatness rule changes.
    """

    players: tuple[PlayerProblem, ...]
    meta: dict = field(default_factory=dict, compare=False)
    L: tuple[np.ndarray, ...] = field(init=False, compare=False, repr=False)
    C_cat: tuple[np.ndarray, ...] = field(init=False, compare=False, repr=False)
    factors: tuple[iqp.Factor, ...] = field(init=False, compare=False, repr=False)
    report: AdequacyReport = field(init=False, compare=False, repr=False)
    slots: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)
    groups: tuple[PlayerGroup, ...] = field(init=False, compare=False, repr=False)
    qinv_d_norm: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        players = self.players
        if len(players) < 2:
            raise DimensionMismatch("an instance needs at least two players")
        L = tuple(linalg.cholesky(p.Q, f"Q[{i}]") for i, p in enumerate(players))
        dims = self.dims  # each Q_i is a square matrix from here on
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
        members: dict[int, list[int]] = {}
        for i, n in enumerate(dims):
            members.setdefault(n, []).append(i)
        groups = tuple(
            PlayerGroup(
                players=tuple(ps),
                stack=iqp.FactorStack(tuple(factors[i] for i in ps)),
                labels=tuple(f"player {i}" for i in ps),
                own=np.array([index[a:b] for a, b in (slots[i] for i in ps)]),
                gather=np.array([np.concatenate((index[:a], index[b:])) for a, b in (slots[i] for i in ps)]),
                C=np.stack([C_cat[i] for i in ps]),
                d=np.stack([players[i].d for i in ps]),
            )
            for ps in members.values()
        )
        d_part = np.concatenate([linalg.solve_with_factor(Li, -p.d) for p, Li in zip(players, L)])
        for name, value in zip(
            ("L", "C_cat", "factors", "slots", "groups", "qinv_d_norm"),
            (L, C_cat, factors, slots, groups, _norm(d_part)),
        ):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "report", classify(self))  # reads L and C_cat

    @property
    def k(self) -> int:
        return len(self.players)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(p.n for p in self.players)

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
    Cholesky factor ``inst.L[i]``."""
    return linalg.solve_with_factor(inst.L[i], inst.C_cat[i])


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


@dataclass(frozen=True)
class Prepared:
    """An instance and its players' proximity radii under one solve's
    flatness rule; build it with `prepare`.

    ``prox_flatness[i]`` is player i's plain flatness radius and
    ``prox_exact[i]`` the one raised to sqrt(n)/2 for scaled identities.
    """

    inst: IcqsInstance
    prox_flatness: tuple[float, ...]
    prox_exact: tuple[float, ...]

    def prox(self, variant: str) -> tuple[float, ...]:
        """Every player's radius of the ``"flatness"`` or ``"exact"`` variant."""
        if variant == "flatness":
            return self.prox_flatness
        if variant == "exact":
            return self.prox_exact
        raise ValueError(f"unknown prox variant {variant!r}")

    def radius(self, prox_variant: str) -> float:
        """(||(Q_1^{-1}d_1; ...; Q_k^{-1}d_k)|| + ||(prox_1; ...; prox_k)||) / rho.

        BoundOverflow when it is too large for a float.
        """
        rho = self.inst.report.rho
        radius = (self.inst.qinv_d_norm + _norm(self.prox(prox_variant))) / rho
        if not math.isfinite(radius):
            raise BoundOverflow(
                f"the {prox_variant} radius (||Q^-1 d|| + ||prox||) / rho overflows at rho = {rho:.6g}"
            )
        return radius


def prepare(inst: IcqsInstance, rule: iqp.FlatnessRule = iqp.PROVEN_RULE) -> Prepared:
    """Every player's proximity radii under ``rule``, for one solve of
    ``inst``; BoundOverflow when the rule overflows at a player's dimension.
    """
    return Prepared(
        inst=inst,
        prox_flatness=tuple(iqp.prox_bound(f, rule) for f in inst.factors),
        prox_exact=tuple(iqp.guarantee_prox(f, rule) for f in inst.factors),
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
    """Player i's exact cost at (own, others).

    Raises ValueError when the opponents' strategies make the linear term
    C_i y + d_i non-finite.
    """
    own = np.asarray(own, dtype=np.float64).ravel()
    if own.shape[0] != inst.dims[i]:
        raise DimensionMismatch(
            f"player {i} vector has length {own.shape[0]}, expected {inst.dims[i]}"
        )
    d = linalg.as_vector(_linear_term(inst, i, _others_concat(inst, i, others)), "d")
    return iqp.Quadratic.trusted(inst.players[i].Q, d).value(own)


def joint_vector(inst: IcqsInstance, profile: Sequence[np.ndarray]) -> np.ndarray:
    """The joint float64 vector of ``profile``, one vector per player;
    DimensionMismatch on a wrong player count or vector length."""
    if len(profile) != inst.k:
        raise DimensionMismatch(f"profile has {len(profile)} players, expected {inst.k}")
    return _concat(inst, range(inst.k), profile)


def integer_sweep(prep: Prepared, z: np.ndarray) -> np.ndarray:
    """Every player's integer best response to the joint float64 vector
    ``z``, as one joint int64 vector: one Jacobi sweep, unchecked.

    Per group of players of one dimension, the continuous minimizers come
    from one stacked solve, and the rounding certificate and the proximity
    postcondition run on the whole group (`iqp.lattice_mins`); only the
    players the certificate cannot answer are enumerated.
    """
    out = np.empty(z.shape[0], dtype=np.int64)
    for g in prep.inst.groups:
        out[g.own] = iqp.lattice_mins(g.stack, g.continuous_mins(z), labels=g.labels)
    return out


def continuous_sweep(prep: Prepared, z: np.ndarray) -> np.ndarray:
    """Every player's continuous best response to the joint float64 vector
    ``z``, as one joint vector; unchecked, as `integer_sweep`."""
    out = np.empty_like(z)
    for g in prep.inst.groups:
        out[g.own] = g.continuous_mins(z)
    return out


def best_responses(prep: Prepared, profile: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Every player's integer best response to the joint ``profile``, one
    vector per player: `integer_sweep` on the checked joint vector.

    Real entries are allowed, as for `best_response`.  Each response is
    bitwise the one `best_response` gives the same player.
    """
    return list(prep.inst.split(integer_sweep(prep, joint_vector(prep.inst, profile))))


def best_response(prep: Prepared, i: int, others: Sequence[np.ndarray]) -> np.ndarray:
    """Integer best response of player i to the opponents' (mean) strategies.

    ``others`` holds one vector per opponent in ascending player order.
    Deterministic: co-optimal responses resolve to the lexicographically
    smallest vector.  This is the sweep's certificate and search on a stack
    of one, from the one-player linear term.
    """
    stack = iqp.FactorStack((prep.inst.factors[i],))
    D = _linear_term(prep.inst, i, _others_concat(prep.inst, i, others))[None]
    return iqp.lattice_mins(stack, stack.continuous_mins(D), labels=(f"player {i}",))[0]


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
