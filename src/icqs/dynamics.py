"""Simultaneous best-response iteration with certified outcomes.

One iteration replaces every player's strategy at once with its best response
to the *previous* joint profile (a Jacobi sweep, the update the certificates
are proven for).  A run ends in one of four ways:

* ``cycle``        -- the joint profile repeated exactly (integer mode); the
                      window between the two occurrences is the cycle.
* ``fixed_point``  -- two consecutive profiles coincide (exactly in integer
                      mode; in continuous mode, the joint step is at most
                      ``FP_TOLERANCE`` times the largest joint norm of the
                      two and the start, so a zero step at the origin
                      counts).
* ``divergence``   -- the instance is negatively adequate, an iterate's norm
                      exceeded the divergence radius and the norms kept
                      growing monotonically from there on.  Once the growth
                      condition latches, iteration continues (so the doubling
                      pattern is observable in the trace) until the iteration
                      cap or a norm cap that prevents float blow-up.
* ``cap``          -- the iteration limit was reached with no certificate.

Cycle detection hashes each joint integer profile to its first-seen index, so
a repeat is found in O(1) per iteration; this is semantically the "equal to
some earlier iterate" test.

`run_br` iterates one joint strategy vector, and starts from one:
`validate_start` checks each player's length, then tests the joint start
once (finite, and in integer mode integral and within +-2^53), with a fixed
number of numpy calls whatever k is.  An integer sweep is one
`game.integer_sweep` call, the sweep kernel: the players' subproblems of
one sweep answer the same previous profile, so they are independent.  Each
group of players of one dimension shares one stacked matvec and one stacked
solve pair; each player's rounding certificate, search and postcondition
then run on its own row.  The kernel takes the joint float64 vector and
returns the joint int64 response, whose bytes are the cycle key, the same
response as a joint float64 vector, which the next sweep takes, and each
player's squared norm: one `np.vecdot` per group on its float64 rows,
bitwise each player's own dot product.  With one group the float64 vector
is those rows, so a sweep converts its response once, to int64.  A rounded
-0.0 in it reaches the next sweep's matvec, where it can change only the
sign of an exact zero, which moves no integer response.  `run_br` sums the
squares in player order, as on separate vectors.  The start's squares
(`game.squared_norms`) and a continuous sweep's take the same path.  The trace keeps each sweep's joint
response as one row of one array, with the instance's slots beside it: only
`cycle_sets` and `game.IcqsInstance.split` map a row to players.  Trace,
norms and outcome are bitwise those of one `game.best_response` call per
player and sweep.

Continuous mode replaces the integer best response with the continuous one
(`game.continuous_sweep`, the same gather, matvec and stacked solve),
turning the sweep into the affine fixed-point iteration whose contraction /
expansion behaviour mirrors the adequacy classification.  Its fixed-point
test is relative to the joint norms of the start and the two iterates, so
scaling every d_i and the start together (from the zero start: every d_i)
scales the iterates and leaves the number of sweeps unchanged.  The start's
norm keeps the test finite when iterates shrink geometrically to the origin,
where the step stays a fixed fraction of the iterates' norm.

`run_br`, the sweeps and the radii take the instance.  The termination and
divergence radii, and so the divergence certificate, are the instance's
``norm_radius``, taken once from each player's proven proximity radius
(`iqp.Factor.radius`).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import game, iqp
from .errors import BoundOverflow, CentreTooLarge, DimensionMismatch, NoCycle, ResponseOverflow

INTEGER = "integer"
CONTINUOUS = "continuous"

OUTCOME_CYCLE = "cycle"
OUTCOME_FIXED_POINT = "fixed_point"
OUTCOME_DIVERGENCE = "divergence"
OUTCOME_CAP = "cap"

DEFAULT_MAX_ITERS = 10_000
# Continuous-mode fixed-point tolerance on the joint step norm, relative to
# the largest joint norm of the start and the two profiles the step joins.
FP_TOLERANCE = 1e-10
# Stop once divergence is certified and iterates grow past this joint norm;
# also truncates uncertified blow-ups before float64 precision degrades.
DIVERGENCE_NORM_CAP = 1e14
# Largest integer-mode start entry: float64 holds every integer up to 2^53.
_INTEGER_START_LIMIT = 2.0**53
# The norms are the responses' own, taken before the int64 cast, so a
# joint norm this large means a response may be beyond the int64 range.
_INT64_NORM_LIMIT = 2.0**63


@dataclass(frozen=True)
class BrTrace:
    """Ordered joint profiles produced by one run, plus the certified outcome.

    ``profiles`` is one (iterations + 1) x sum(n_i) array, int64 in integer
    mode and float64 in continuous mode: row t is the joint profile after t
    sweeps (row 0 is the start), and player i's entries are the columns
    ``slots[i]`` = [a, b), the instance's slots.  ``norms[t]`` is the joint
    l2 norm of profile t.
    """

    profiles: np.ndarray
    slots: tuple[tuple[int, int], ...]
    norms: tuple[float, ...]
    outcome: str
    mode: str
    cycle_start: int | None = None   # k with profiles[k] == profiles[repeat]
    cycle_repeat: int | None = None
    fixed_index: int | None = None   # index of the settled profile
    divergence_index: int | None = None  # first index with certified growth

    @property
    def iterations(self) -> int:
        return len(self.profiles) - 1

    def cycle_window(self) -> tuple[int, int]:
        """Half-open index range [start, stop) of the recurring profiles."""
        if self.outcome == OUTCOME_CYCLE:
            return self.cycle_start, self.cycle_repeat
        if self.outcome == OUTCOME_FIXED_POINT:
            return self.fixed_index, self.fixed_index + 1
        raise NoCycle(f"trace ended with outcome {self.outcome!r}")


@dataclass(frozen=True)
class CycleSets:
    """Per-player deduplicated strategies visited inside the cycle window:
    ``strategies[i]`` is an m_i x n_i matrix, one strategy per row."""

    strategies: tuple[np.ndarray, ...]

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.strategies)


def validate_start(inst: game.IcqsInstance, start, mode: str) -> np.ndarray:
    """The start as one joint vector checked against the instance: int64 in
    integer mode, float64 in continuous mode, all zeros when ``start`` is
    None.

    ``start`` holds one vector per player.  Each player's length is checked,
    then the joint vector once: finite, and in integer mode integral and
    within +-2^53 (where float64 stops holding every integer).
    DimensionMismatch on a wrong player count, or naming the first player
    at fault and the first check its vector fails, in the order above.
    """
    integer = mode == INTEGER
    if start is None:
        return np.zeros(inst.slots[-1][1], dtype=np.int64 if integer else np.float64)
    if len(start) != inst.k:
        raise DimensionMismatch(f"start has {len(start)} players, expected {inst.k}")
    parts = [np.asarray(vec, dtype=np.float64).ravel() for vec in start]
    z = np.concatenate(parts)
    lengths = tuple(v.shape[0] for v in parts)
    # NaN and infinities fail both tests of an integer-mode entry
    ok = (np.abs(z) <= _INTEGER_START_LIMIT) & (np.rint(z) == z) if integer else np.isfinite(z)
    if lengths != inst.dims or not ok.all():
        raise _start_fault(inst, z, lengths, integer)
    return z.astype(np.int64) if integer else z


def _start_fault(inst: game.IcqsInstance, z: np.ndarray, lengths, integer: bool) -> DimensionMismatch:
    # the first player at fault, by its first failed check
    faults = [(~np.isfinite(z), "has non-finite entries")]
    if integer:
        faults += [(np.rint(z) != z, "is not integral"), (np.abs(z) > _INTEGER_START_LIMIT, "exceeds 2^53 in magnitude")]
    a = 0
    for i, (n, m) in enumerate(zip(lengths, inst.dims)):
        if n != m:
            return DimensionMismatch(f"start for player {i} has length {n}, expected {m}")
        for mask, what in faults:
            if mask[a:a + n].any():
                return DimensionMismatch(f"start for player {i} {what}")
        a += n
    raise AssertionError("no player's start is at fault")


def run_br(
    inst: game.IcqsInstance,
    start=None,
    max_iters: int = DEFAULT_MAX_ITERS,
    mode: str = INTEGER,
    *,
    joint: np.ndarray | None = None,
) -> BrTrace:
    """Run best-response iteration on ``inst`` from ``start`` (all zeros by
    default).  ``joint``, given in place of ``start``, is the start as
    `validate_start` returned it for this instance and mode, and is not
    checked again.

    Deterministic: the same instance, start and configuration always produce
    the identical trace.  An integer sweep that meets a lattice search
    centre of 2^52 or more in magnitude (CentreTooLarge) ends the run as the
    norm cap does, without that sweep: its response is past the cap.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    if mode not in (INTEGER, CONTINUOUS):
        raise ValueError(f"unknown mode {mode!r}")

    z = validate_start(inst, start, mode) if joint is None else joint
    integer = mode == INTEGER
    zf = z.astype(np.float64)
    profiles = [z]
    norms = [math.sqrt(sum(game.squared_norms(inst, zf)))]
    seen: dict[bytes, int] = {z.tobytes(): 0} if integer else {}

    div_radius = divergence_radius(inst)
    latch: int | None = None

    outcome = OUTCOME_CAP
    cycle_start = cycle_repeat = fixed_index = None

    # An integer sweep that overflows leaves a lattice search centre that is
    # not finite, which `iqp.lattice_mins` raises as NonFiniteCentre, and a
    # response beyond int64 stops the run at the norm cap with
    # ResponseOverflow, so numpy's warnings on the way would only repeat
    # those errors: one errstate per run silences them.  Continuous mode
    # raises neither and keeps its warnings.
    quiet = {"over": "ignore", "invalid": "ignore"} if integer else {}
    with np.errstate(**quiet):
        for t in range(1, max_iters + 1):
            try:
                if integer:
                    z, zf, squares = game.integer_sweep(inst, zf)
                else:
                    prev = zf
                    z, squares = game.continuous_sweep(inst, zf)
                    zf = z
            except CentreTooLarge:
                # A response around a search centre of 2^52 or more lies past
                # the norm cap.  The run ends there, without that sweep, and
                # the response's norm, above every earlier one, would latch.
                if div_radius is not None and latch is None and norms[t - 1] > div_radius:
                    latch = t - 1
                break
            profiles.append(z)
            norms.append(math.sqrt(sum(squares)))

            if integer:
                key = z.tobytes()
                first = seen.get(key)
                if first is not None:
                    if first == t - 1:
                        outcome, fixed_index = OUTCOME_FIXED_POINT, t
                    else:
                        outcome, cycle_start, cycle_repeat = OUTCOME_CYCLE, first, t
                    break
                seen[key] = t
            else:
                step = _step_norm(inst, zf, prev)
                # an infinite profile is no fixed point, though inf <= 1e-10 * inf
                if step <= FP_TOLERANCE * max(norms[0], norms[t - 1], norms[t]) < math.inf:
                    outcome, fixed_index = OUTCOME_FIXED_POINT, t
                    break

            if div_radius is not None:
                if latch is None:
                    if norms[t - 1] > div_radius and norms[t] > norms[t - 1]:
                        latch = t - 1
                elif norms[t] <= norms[t - 1]:
                    latch = None  # growth broke; certificate must re-establish
            if norms[t] > DIVERGENCE_NORM_CAP:
                if integer and norms[t] >= _INT64_NORM_LIMIT:
                    raise ResponseOverflow(
                        f"sweep {t}: an integer best response may be beyond the int64 range "
                        f"(joint norm {norms[t]:.6g} >= 2^63)"
                    )
                break

    if outcome == OUTCOME_CAP and latch is not None:
        outcome = OUTCOME_DIVERGENCE

    return BrTrace(
        profiles=np.stack(profiles),
        slots=inst.slots,
        norms=tuple(norms),
        outcome=outcome,
        mode=mode,
        cycle_start=cycle_start,
        cycle_repeat=cycle_repeat,
        fixed_index=fixed_index,
        divergence_index=latch if outcome == OUTCOME_DIVERGENCE else None,
    )


def _step_norm(inst: game.IcqsInstance, z: np.ndarray, prev: np.ndarray) -> float:
    """The joint l2 norm of the step from ``prev`` to ``z``, both joint
    float64 vectors: the difference once, then each player's sum of squares
    as one row sum per group, which is bitwise `np.sum` of the player's own
    slice (the same pairwise sum along one contiguous row), and the sums
    added in player order."""
    diff = z - prev
    return math.sqrt(sum(game.in_player_order(inst, [np.sum(diff[g.own] ** 2, axis=1) for g in inst.groups])))


def cycle_sets(trace: BrTrace) -> CycleSets:
    """Each player's distinct strategies over the cycle window: the rows of
    its slice of the window, in first-seen order, and the slice itself when
    no row repeats.

    Raises NoCycle unless the trace ended in a cycle or fixed point.
    """
    start, stop = trace.cycle_window()
    window = trace.profiles[start:stop]
    strategies = []
    for a, b in trace.slots:
        rows = window[:, a:b]
        first: dict[bytes, int] = {}
        for r, row in enumerate(rows):
            first.setdefault(row.tobytes(), r)
        strategies.append(rows if len(first) == len(rows) else rows[list(first.values())])
    return CycleSets(strategies=tuple(strategies))


def _proven_radius(inst: game.IcqsInstance) -> float:
    """The instance's ``norm_radius``; BoundOverflow when a player's proximity
    radius is unproven (`iqp.lambda_floor` is not positive) or the radius is
    too large for a float."""
    radius = inst.norm_radius
    if not math.isfinite(radius):
        for i, f in enumerate(inst.factors):
            if iqp.lambda_floor(f) <= 0.0:
                raise BoundOverflow(
                    f"player {i}: no proximity radius is proven: lambda_min(Q_{i}) = {f.lambda_min:.6g} "
                    f"is within 4 n eps lambda_max = {f.lambda_min - iqp.lambda_floor(f):.6g} of zero"
                )
        raise BoundOverflow(
            f"the proven radius (||Q^-1 d|| + ||prox||) / rho overflows at rho = {inst.report.rho:.6g}"
        )
    return radius


def termination_radius(inst: game.IcqsInstance) -> float | None:
    """Norm level below which a positively adequate run must eventually stay.

    L = (||(Q_1^{-1}d_1; ...; Q_k^{-1}d_k)|| + ||(prox_1; ...; prox_k)||) / rho
    with rho = 1 - max sigma, at the proven radii (`iqp.Factor.radius`): the
    instance's ``norm_radius``.
    Outside L the joint norm strictly decreases, so only finitely many
    profiles are reachable infinitely often.  Returns None unless the
    instance is positively adequate.
    """
    if inst.report.classification is not game.Adequacy.POSITIVE:
        return None
    return _proven_radius(inst)


def divergence_radius(inst: game.IcqsInstance) -> float | None:
    """Norm level beyond which negatively adequate iterates grow forever.

    Same formula as the termination radius, at the proven radii, with
    rho = min sigma - 1; `run_br`'s divergence latch reads it.  Returns None
    unless the instance is negatively adequate.
    """
    if inst.report.classification is not game.Adequacy.NEGATIVE:
        return None
    return _proven_radius(inst)


def cycle_telemetry(trace: BrTrace) -> np.ndarray:
    """Per-iteration l2 distance from each profile to the nearest cycle profile.

    Profiles inside the cycle report zero; the pre-cycle tail shows the
    approach, whose step-to-step ratio empirically checks the linear
    contraction rate.  Each profile is compared with the window's rows in
    one step.  Raises NoCycle for divergent or capped traces.
    """
    start, stop = trace.cycle_window()
    profiles = np.asarray(trace.profiles, dtype=np.float64)
    window = profiles[start:stop]
    return np.array([np.linalg.norm(window - x, axis=1).min() for x in profiles])


def export_trace(trace: BrTrace, path) -> None:
    """Write one CSV row per iteration: index, joint profile, joint norm."""
    columns = (f"p{i}_{j}" for i, (a, b) in enumerate(trace.slots) for j in range(b - a))
    header = ["iter", *columns, "norm"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for t, (row, norm) in enumerate(zip(trace.profiles.tolist(), trace.norms)):
            writer.writerow([t, *row, repr(norm)])
