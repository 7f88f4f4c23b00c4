"""Exception types shared across the solver stack."""


class IcqsError(Exception):
    """Base class for all solver errors."""


class NotPositiveDefinite(IcqsError):
    """A matrix required to be positive definite failed its pivot test."""

    def __init__(self, pivot_index: int, pivot_value: float):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"pivot {pivot_index} is {pivot_value:.3e}; matrix is not positive definite"
        )


class NonConvergence(IcqsError):
    """An iterative factorization failed to converge."""


class DimensionMismatch(IcqsError):
    """Vector or matrix dimensions are inconsistent with the instance."""


class EnumerationBudgetExceeded(IcqsError):
    """Lattice enumeration visited more nodes than the configured budget."""


class ProximityViolation(IcqsError):
    """An integer minimizer broke the proven proximity radius or gap bound.

    Signals numerical failure in the enumeration; a correct minimizer always
    satisfies both bounds.
    """


class NonFiniteCentre(IcqsError):
    """A lattice search centre is infinite or NaN: a linear term overflowed."""


class CentreTooLarge(IcqsError):
    """A lattice search centre has a finite entry of 2^52 or more in
    magnitude, where floats are a unit or more apart and the search's
    unit steps may round onto points it has already visited."""


class ResponseOverflow(IcqsError):
    """An integer best response is beyond the int64 range of the trace."""


class BoundOverflow(IcqsError):
    """A bound is too large for a float: the termination or divergence
    radius overflows, or a deviation bound lambda_1 (prox + L)^2 built on a
    finite radius and diameter does.  Also raised, naming the player, when
    the radius is infinite because a player's proximity radius is unproven:
    its lambda_min is within the eigensolver's rounding of zero."""


class OracleBudgetExceeded(IcqsError):
    """The brute-force search box contains more points than the oracle budget."""


class RejectionBudgetExceeded(IcqsError):
    """Instance generation exhausted its rejection budget."""


class InvalidM(IcqsError):
    """The counterexample family requires an even scale parameter M >= 2."""


class GameTooLarge(IcqsError):
    """The restricted game has too many cells to tabulate."""


class NoCycle(IcqsError):
    """The trace did not end in a cycle or fixed point."""


class NoEquilibriumFound(IcqsError):
    """The equilibrium solver ended without a profile that passes its check.

    Two-player support enumeration exhausting every support, or Lemke's
    algorithm ending on a ray, at its pivot cap or with a profile that
    fails the regret check, signals numerical failure.
    """
