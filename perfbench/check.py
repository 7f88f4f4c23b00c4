"""Output checks for benchmark solves; none of this runs inside a timed region.

Two kinds of check:

* a per-workload digest of every solve's (job, outcome, iterations, cycle
  strategies, equilibrium probabilities rounded to 1e-9), compared with the
  digest recorded in ``digests.json`` for the seed's pool entry;
* invariants that hold for any correct solve, independent of the recording:
  the finite game's regret, the reported within-game epsilon and the
  deviation gains against every finite a-priori bound.  The report's
  ``delta_bounded`` flag is not trusted: it reads true when every bound is
  infinite.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from icqs import dynamics, finite

DIGESTS_PATH = Path(__file__).resolve().parent / "digests.json"

EPS_TOLERANCE = 1e-6
GAIN_SLACK = 1e-9
CYCLING_SIGMA_TOLERANCE = 1e-12


def _prob(p: float) -> str:
    text = f"{p:.9f}"
    return "0.000000000" if text == "-0.000000000" else text


def solve_record(name: str, result) -> str:
    """Canonical text of one solve's outputs; ``result`` is a report or an exception."""
    if isinstance(result, BaseException):
        return json.dumps([name, f"error:{type(result).__name__}"])
    eq = result.get("equilibrium") or {}
    strategies = eq.get("strategies")
    probs = eq.get("probabilities")
    return json.dumps(
        [
            name,
            result["outcome"],
            result["iterations"],
            strategies,
            None if probs is None else [[_prob(p) for p in player] for player in probs],
        ],
        separators=(",", ":"),
    )


def digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(rec.encode())
        h.update(b"\n")
    return h.hexdigest()


def recorded_digest(workload: str, pool: int) -> str | None:
    try:
        with open(DIGESTS_PATH, "r", encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(pool))


def solve_problems(inst, result) -> list[str]:
    """Invariant violations of one successful solve (empty when it is sound)."""
    problems = []
    if result["outcome"] not in (dynamics.OUTCOME_CYCLE, dynamics.OUTCOME_FIXED_POINT):
        return problems
    eq = result["equilibrium"]
    if not eq["within_game_eps"] <= EPS_TOLERANCE:
        problems.append(f"within_game_eps {eq['within_game_eps']:.3e}")
    fg = finite.restrict(inst, dynamics.cycle_sets(result["trace"]))
    profile = finite.MixedProfile(probs=tuple(np.asarray(p) for p in eq["probabilities"]))
    worst = float(finite.regret(fg, profile).max())
    if not worst <= EPS_TOLERANCE:
        problems.append(f"finite-game regret {worst:.3e}")
    bounds = eq["delta_a_priori"]["exact"] or [None] * len(eq["deviation_gains"])
    for i, (gain, bound) in enumerate(zip(eq["deviation_gains"], bounds)):
        if bound is not None and not gain <= bound + GAIN_SLACK:
            problems.append(f"player {i} gain {gain:.6g} exceeds a-priori bound {bound:.6g}")
    return problems


def cycling_input_problems(result, sigma: float) -> list[str]:
    """Rotation games must be positively adequate with every sigma at ``sigma``."""
    problems = []
    if result["classification"] != "positively_adequate":
        problems.append(f"classified {result['classification']}")
    for s in list(result["sigma_max"]) + list(result["sigma_min"]):
        if abs(s - sigma) > CYCLING_SIGMA_TOLERANCE:
            problems.append(f"singular value {s!r} is not {sigma}")
    return problems
