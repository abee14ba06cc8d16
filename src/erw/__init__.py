"""Moments of the elephant random walk with a general step distribution.

Analytic layer: exact moment recursions, their gamma-ratio closed forms,
and the first four moments of the superdiffusive limit.  Stochastic layer:
a reproducible counter-based Monte Carlo simulator with martingale
diagnostics.  The two are built to check each other.
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
    GammaRatio,
    RecursionSpec,
    SingularParameterError,
    gamma_ratio,
    gamma_sum_linear,
    gamma_sum_linear_direct,
    gamma_sum_weighted,
    gamma_sum_weighted_direct,
    iterate_recursion,
    log_gamma_ratio,
    martingale_scale,
    solve_recursion,
    solve_recursion_constant,
)
from .moments import (
    ClosedFormMoments,
    ConditionalStepMoments,
    EnumerationSizeError,
    ExactMomentRow,
    ExactMomentTable,
    LimitMoments,
    MemoryParameter,
    RegimeError,
    as_memory,
    brute_force_moments,
    closed_form_moments,
    closed_form_s4,
    conditional_step_moments,
    exact_moments_upto,
    fourth_moment_coefficient,
    limit_q_moments,
)
from .rng import parse_seed, replicate_key, replicate_keys
from .simulate import (
    BatchAccumulator,
    ContinuationCheck,
    EpsilonMoments,
    MarginalSums,
    MartingaleView,
    ScaledMomentEstimate,
    WalkState,
    batch_epsilon_moments,
    conditional_continuation_test,
    empirical_q_moments,
    martingale_diagnostics,
    sample_stderr,
    simulate_batch,
    simulate_path,
    z_score,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
