"""Solver toolkit for integer convex quadratic simultaneous games.

Pipeline: build or load an instance (`game`, `instgen`; every player's Q_i
is factored once, there, and the instance keeps the factor), prepare it
once per solve (`game.prepare`: every player's factor data from that
Cholesky factor, and the classification of the interaction matrices), run
certified best-response iteration on the joint strategy vector
(`dynamics.run_br`), restrict to the cycle and solve the finite game
(`finite`), then measure deviation gains against the a-priori bounds
(`finite.verify_delta`, `bounds`).  Every stage that needs a factor takes
the prepared value, and `Prepared.inst` is its instance; `finite.restrict`
and `game.objective` need none and take the instance.
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
    DimensionMismatch,
    EnumerationBudgetExceeded,
    IcqsError,
    InvalidM,
    NoCycle,
    NoEquilibriumFound,
    NonConvergence,
    NotPositiveDefinite,
    OracleBudgetExceeded,
    ProximityViolation,
    RejectionBudgetExceeded,
)
from .finite import (
    DeltaReport,
    FiniteGame,
    MixedProfile,
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
    Prepared,
    best_response,
    best_responses,
    classify,
    interaction_matrix,
    load_instance,
    make_instance,
    objective,
    prepare,
    save_instance,
)
from .instgen import NegativeSpec, PricingSpec, RandomSpec, builtin, gen_negative, gen_pricing, gen_random
from .iqp import (
    PROVEN_RULE,
    Factor,
    FlatnessRule,
    Quadratic,
    brute_force_min,
    continuous_min,
    factorize,
    integer_min,
    prox_bound,
)

__version__ = "0.1.0"
