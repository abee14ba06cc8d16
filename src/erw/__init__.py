"""Moments of the elephant random walk with a general step distribution.

Analytic layer: exact moment recursions, their gamma-ratio closed forms,
and the first four moments of the superdiffusive limit.  Stochastic layer:
a reproducible counter-based Monte Carlo simulator.  The two are built to
check each other.
"""

from .distributions import (
    MomentSet,
    StepDistribution,
    as_discrete,
    derive_moment_set,
    inverse_cdf,
    moment_set,
    raw_moments,
)
from .gammatools import (
    SingularParameterError,
    check_alpha,
    gamma_sum_linear,
    gamma_sum_linear_direct,
    gamma_sum_weighted,
    gamma_sum_weighted_direct,
    log_gamma_ratio,
    martingale_scale,
    solve_recursion,
)
from .moments import (
    ClosedFormMoments,
    ConditionalStepMoments,
    EnumerationSizeError,
    ExactMomentTable,
    LimitMoments,
    RegimeError,
    brute_force_moments,
    closed_form_moments,
    closed_form_s4,
    conditional_step_moments,
    exact_law,
    exact_moment_tables,
    exact_moments_upto,
    fourth_moment_coefficient,
    limit_q_moments,
)
from .rng import parse_seed, replicate_key, replicate_keys
from .simulate import (
    WalkState,
    batch_epsilon_moments,
    check_checkpoints,
    cluster_batch,
    conditional_continuation_test,
    empirical_q_moments,
    simulate_path,
    z_score,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
