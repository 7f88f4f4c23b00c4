"""Solver toolkit for integer convex quadratic simultaneous games.

Pipeline: build or load an instance (`game`, `instgen`; the instance
derives, once, everything a solve needs from it alone: every player's
Cholesky factor and factor data, its proven proximity radius among them,
the classification of the interaction matrices, the a-priori bounds and
the stacks of a sweep),
run certified best-response iteration on the joint strategy vector
(`dynamics.run_br`), restrict to the cycle and solve the finite game
(`finite`), then measure deviation gains against the a-priori bounds
(`finite.verify_delta`; for an integer fixed point, which is its own
equilibrium, `finite.fixed_point_delta`; `bounds`).  Every stage takes the
instance, and every certificate and bound reads the one proven proximity
radius per player (`iqp.Factor.radius`).
"""

from .bounds import GuaranteePack, cycle_diameter, delta_a_posteriori, delta_a_priori, guarantee_pack, l_bound_theoretical
from .dynamics import (
    BrTrace,
    CycleSets,
    cycle_sets,
    cycle_telemetry,
    divergence_radius,
    run_br,
    termination_radius,
)
from .errors import (
    BoundOverflow,
    CentreTooLarge,
    DimensionMismatch,
    EnumerationBudgetExceeded,
    GameTooLarge,
    IcqsError,
    InvalidM,
    NoCycle,
    NoEquilibriumFound,
    NonConvergence,
    NonFiniteCentre,
    NotPositiveDefinite,
    OracleBudgetExceeded,
    ProximityViolation,
    RejectionBudgetExceeded,
    ResponseOverflow,
)
from .finite import (
    DeltaReport,
    FiniteGame,
    MixedProfile,
    fixed_point_delta,
    mne_k_player,
    mne_two_player,
    pne_search,
    restrict,
    solve_equilibrium,
    verify_delta,
)
from .game import (
    Adequacy,
    AdequacyReport,
    IcqsInstance,
    PlayerProblem,
    best_response,
    best_responses,
    classify,
    interaction_matrix,
    load_instance,
    make_instance,
    objective,
    objectives,
    save_instance,
)
from .instgen import NegativeSpec, PricingSpec, RandomSpec, builtin, gen_negative, gen_pricing, gen_random
from .iqp import (
    Factor,
    Quadratic,
    brute_force_min,
    continuous_min,
    factorize,
    integer_min,
    prox_bound,
)

__version__ = "0.1.0"
