"""The per-row lattice frame of `iqp.lattice_mins`, kept verbatim as the
reference its stacked form must reproduce bit for bit.

This form takes n - 1 slice ddots per row for the rounded point's excess and
one more dot for its distance.  The stacked form takes every row's dots from
a fixed number of `np.vecdot` calls.  Two lines differ from the former code:
the slice views ``factor.rows``, no longer a `Factor` field, are taken here
from ``factor.G``, and the search is looked up as ``iqp._enumerate`` on
each call, so a test can record what each frame hands it (`searches`), and
it is handed a fresh search buffer (`iqp._scratch`).
"""

from __future__ import annotations

import contextlib
import math
from typing import Sequence

import numpy as np

from icqs import iqp
from icqs.errors import NonFiniteCentre, ProximityViolation


def lattice_mins(
    factors: Sequence[iqp.Factor],
    U: np.ndarray,
    node_budget: int = iqp.DEFAULT_NODE_BUDGET,
    labels: Sequence[str] | None = None,
) -> np.ndarray:
    X = np.rint(U)
    W = X - U
    for r, (factor, ws) in enumerate(zip(factors, W.tolist())):
        w, rows = W[r], tuple(factor.G[j, j:] for j in range(factor.n))
        # The rounded point's excess 0.5||G(x - u)||^2, row j of G = L' being
        # G[j, j:] @ w[j:], summed in the association order of the search's
        # partial sums so exact ties stay exact.  Row n - 1 is one term.
        excess = 0.5 * (factor.gdiag[-1] * ws[-1]) ** 2
        for j in range(len(ws) - 2, -1, -1):
            excess += 0.5 * float(rows[j].dot(w[j:])) ** 2
        # The rounded point is certifiably the unique optimum when its excess
        # is below cert_j (1 - |w_j|)^2, the energy every lattice point that
        # moves coordinate j must pay, for every j; the first j that fails
        # calls the search.  A row with |w_j| = 1/2 fails by j at the latest,
        # and a non-finite u at once: its excess is NaN, as is each test.
        for c, t in zip(factor.cert, ws):
            if not excess < c * (1.0 - abs(t)) ** 2:
                u = U[r]
                try:
                    X[r], excess = iqp._enumerate(factor, u, X[r], excess, node_budget, iqp._scratch(factor.n))
                except (OverflowError, ValueError) as exc:  # round() of an infinite or NaN centre
                    who = f"{labels[r]}: " if labels is not None else ""
                    raise NonFiniteCentre(f"{who}a lattice search centre is not finite (u = {u.tolist()})") from exc
                w = X[r] - u
                break
        # Postcondition guard: the minimizer must respect the proximity
        # radius and objective-gap bound that are provable for its Q.  The
        # excess is the gap computed in the translated frame, which stays
        # accurate where f(x) - f(u) would cancel catastrophically.  The
        # slack is in lattice units, times lambda_max for the gap's.
        dist = math.sqrt(float(w.dot(w)))
        radius, gap = factor.radius * (1.0 + 1e-9), factor.gap * (1.0 + 1e-9)
        if dist > radius or excess > gap:
            slack = 1e-9 * max(1.0, float(np.abs(U[r]).max()))
            who = f"{labels[r]}: " if labels is not None else ""
            if dist > radius + slack:
                raise ProximityViolation(
                    f"{who}integer minimizer at distance {dist:.6g} exceeds "
                    f"proximity radius {factor.radius:.6g}"
                )
            if excess > gap + factor.lambda_max * slack:
                raise ProximityViolation(f"{who}objective gap {excess:.6g} exceeds bound {factor.gap:.6g}")
    return X.astype(np.int64)


@contextlib.contextmanager
def searches(record):
    """Within the block, ``record(factor, us, x0, excess)`` sees every search
    started through `iqp._enumerate`, and every one `iqp.lattice_mins`
    starts in the zig-zag loop itself (a factor with no reduced frame), in
    call order; the loop's runs inside `_enumerate` are not recorded again.
    The loop is the search `iqp._kernels` returns, which both take."""
    enumerate_, kernels = iqp._enumerate, iqp._kernels
    inside = [0]

    def enumerating(factor, us, x0, excess, node_budget, *rest):
        record(factor, us, x0, excess)
        inside[0] += 1
        try:
            return enumerate_(factor, us, x0, excess, node_budget, *rest)
        finally:
            inside[0] -= 1

    def kernelling(n):
        search, certify = kernels(n)

        def searching(frame, us, x0, excess, node_budget, *rest):
            if not inside[0]:
                record(frame, us, x0, excess)
            return search(frame, us, x0, excess, node_budget, *rest)

        return searching, certify

    iqp._enumerate, iqp._kernels = enumerating, kernelling
    try:
        yield
    finally:
        iqp._enumerate, iqp._kernels = enumerate_, kernels


def frames_agree(factors: Sequence[iqp.Factor], U: np.ndarray, G: np.ndarray | None = None) -> int:
    """Run `iqp.lattice_mins` and the reference on the same rows, and assert
    that both return the same points and hand the search the same centres,
    incumbents and excess bits, in the same order; the number of
    searches."""
    calls: list[tuple] = []

    def recording(factor, u, x0, excess):
        calls.append((np.asarray(u).tobytes(), np.asarray(x0).tobytes(), excess.hex()))

    with searches(recording):
        got = iqp.lattice_mins(factors, U, G=G)
        handed = calls[:]
        del calls[:]
        want = lattice_mins(factors, U)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (got, want)
    assert handed == calls
    return len(calls)
