"""Named invariant suites over the whole toolkit.

Each check returns CheckResult records with a PASS / FAIL / SKIP status and
the worst observed error, so the CLI can emit a machine-readable report and
the test suite can reuse the same code.  Checks that hit a guarded singular
parameter report SKIP, not FAIL.

All randomised checks take an explicit seed and are fully deterministic.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .distributions import (
    MomentSet,
    StepDistribution,
    _is_number,
    inverse_cdf,
    moment_set,
    raw_moments,
)
from .gammatools import (
    SingularParameterError,
    gamma_sum_linear,
    gamma_sum_linear_direct,
    gamma_sum_weighted,
    gamma_sum_weighted_direct,
    log_gamma_ratio,
    martingale_scale,
    solve_recursion,
    unit_constant_solution,
)
from .moments import (
    ExactMomentTable,
    _closed_form_from_ratios,
    _s4_from_ratios,
    _solve_recursion_scan,
    closed_form_moments,
    closed_form_s4,
    brute_force_moments,
    exact_moment_tables,
    limit_q_moments,
)
from .rng import MASK64, replicate_keys, uniform_draws
from .simulate import (
    WalkState,
    _fresh_uniforms,
    _martingale_differences,
    _power_sums,
    _q_scales,
    _row_blocks,
    _run_labels,
    _run_paths,
    _run_uniforms,
    batch_epsilon_moments,
    cluster_batch,
    conditional_continuation_test,
    empirical_q_moments,
    layout_moments,
    marginal_moment_sums,
    simulate_path,
    z_score,
)

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"


@dataclass(frozen=True)
class CheckResult:
    name: str
    status: str
    worst_error: float | None
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == FAIL

    def as_dict(self) -> dict:
        return asdict(self)


def _result(name: str, worst: float, tol: float, detail: str = "") -> CheckResult:
    status = PASS if worst <= tol else FAIL
    return CheckResult(name, status, float(worst), detail or f"tolerance {tol:g}")


def _worst_z(gap, stderr) -> float:
    """The verdict of every Monte Carlo z-test: the largest |gap| / stderr,
    by `z_score`'s rule where a stderr is not positive."""
    return float(z_score(np.abs(gap), stderr).max())


_STANDARD_DISTS = (
    ("rademacher", StepDistribution.rademacher()),
    ("bernoulli(0.3)", StepDistribution.bernoulli(0.3)),
    ("uniform(0,1)", StepDistribution.uniform(0.0, 1.0)),
)

#: Two-point law with nonzero mean, also the documented JSON example.
_SKEWED_TWO_POINT = StepDistribution.discrete((-1.0, 2.0), (0.6, 0.4))


def _random_discrete_laws(count: int, seed: int):
    """`count` discrete laws of 2 to 4 points in [-2, 2]."""
    keys = replicate_keys(seed, 0, count)
    sizes = 2 + (uniform_draws(keys, 0) * 3).astype(np.int64)
    # draws by (counter, law): points at counters 10..13, weights at 100..103
    points = 4.0 * uniform_draws(keys, np.arange(10, 14)) - 2.0
    weights = uniform_draws(keys, np.arange(100, 104)) + 1e-3
    for i, size in enumerate(sizes.tolist()):
        pts = points[:size, i].tolist()
        raw = weights[:size, i].tolist()
        total = math.fsum(raw)
        yield StepDistribution.discrete(pts, [w / total for w in raw])


def check_moment_identities(
    n_laws: int = 1000,
    seed: int = 2024,
    moment_sets: Sequence[tuple[str, MomentSet]] | None = None,
) -> list[CheckResult]:
    """The four algebraic identities every derived moment set must satisfy."""
    atol = 1e-12
    worst = 0.0
    worst_name = ""
    if moment_sets is None:
        moment_sets = [
            (f"random[{i}]", moment_set(dist))
            for i, dist in enumerate(_random_discrete_laws(n_laws, seed))
        ]
    for label, ms in moment_sets:
        for identity, residual in ms.identity_residuals().items():
            if abs(residual) > worst:
                worst = abs(residual)
                worst_name = f"{identity} on {label}"
        if ms.M2 < -atol or ms.M22 < -atol or ms.M4 < ms.M2 ** 2 - atol:
            detail = f"sign constraint violated on {label}"
            return [CheckResult("moment_identities", FAIL, None, detail)]
    return [_result("moment_identities", worst, atol, f"worst: {worst_name}")]


def check_shift_covariance(n_laws: int = 200, seed: int = 71) -> list[CheckResult]:
    """Behaviour of the moment set under a constant shift of a discrete law.

    The centered moments M2, M3, M4 are invariant and m1 moves by exactly
    the shift.  The mixed moments couple to the uncentered square/cube and
    transform with computable corrections instead (writing c for the shift):

        M12  -> M12 + 2 c M2
        M13  -> M13 + 3 c M12 + 3 c^2 M2
        M22  -> M22 + 4 c M12 + 4 c^2 M2
        M112 -> M112 + 2 c M3
    """
    shifts = (6.0 * uniform_draws(replicate_keys(seed, 0, n_laws), 0) - 3.0).tolist()
    worst = 0.0
    for c, dist in zip(shifts, _random_discrete_laws(n_laws, seed + 1)):
        base = moment_set(dist)
        shifted = moment_set(
            StepDistribution.discrete([p + c for p in dist.points], dist.weights)
        )
        scale = (1.0 + abs(c) + max(abs(p) for p in dist.points)) ** 4
        worst = max(
            worst,
            abs(shifted.m1 - (base.m1 + c)) / scale,
            abs(shifted.M2 - base.M2) / scale,
            abs(shifted.M3 - base.M3) / scale,
            abs(shifted.M4 - base.M4) / scale,
            abs(shifted.M12 - (base.M12 + 2.0 * c * base.M2)) / scale,
            abs(shifted.M13 - (base.M13 + 3.0 * c * base.M12 + 3.0 * c * c * base.M2)) / scale,
            abs(shifted.M22 - (base.M22 + 4.0 * c * base.M12 + 4.0 * c * c * base.M2)) / scale,
            abs(shifted.M112 - (base.M112 + 2.0 * c * base.M3)) / scale,
        )
    return [_result("shift_covariance", worst, 1e-10, "scaled by (1+|c|+max|x|)^4")]


def check_sampling_moments(
    n_samples: int = 1_000_000, seed: int = 99, z_max: float = 4.0
) -> list[CheckResult]:
    """Empirical raw moments of each builtin kind vs their exact values."""
    out = []
    dists = _STANDARD_DISTS + (
        ("gaussian(0.5,2)", StepDistribution.gaussian(0.5, 2.0)),
        ("discrete(-1,2)", _SKEWED_TWO_POINT),
    )
    uniforms = uniform_draws(replicate_keys(seed, 0, n_samples), 0)
    for label, dist in dists:
        mean, stderr = layout_moments(_power_sums(inverse_cdf(dist, uniforms)), n_samples)
        worst = _worst_z(mean - raw_moments(dist), stderr)
        out.append(_result(f"sampling_moments[{label}]", worst, z_max, "worst |z|"))
    return out


def check_gamma_sums(n_cases: int = 500, seed: int = 7) -> list[CheckResult]:
    """Both gamma-ratio sum closed forms against term-by-term summation:
    one closed-form call and one direct call per sum, over every case."""
    a_all, b_all, u_n = uniform_draws(replicate_keys(seed, 0, n_cases), np.arange(3))
    a, b = 4.0 * a_all, 4.0 * b_all
    n = 1 + (u_n * 1000).astype(np.int64)
    regular = (np.abs(b - a - 1.0) >= 0.05) & (np.abs(b - a - 2.0) >= 0.05)
    a, b, n = a[regular], b[regular], n[regular]
    worst = 0.0
    for closed, oracle in ((gamma_sum_linear, gamma_sum_linear_direct),
                           (gamma_sum_weighted, gamma_sum_weighted_direct)):
        direct = oracle(a, b, n)
        gap = np.abs(closed(a, b, n) - direct) / np.maximum(np.abs(direct), 1e-300)
        worst = max(worst, float(gap.max(initial=0.0)))
    return [_result("gamma_sums_vs_direct", worst, 1e-12)]


def check_recursion_solver(n_specs: int = 100, seed: int = 13) -> list[CheckResult]:
    """The blocked scan that solves the moment recursions, run on
    b_{n+1} = (1 + beta/n) b_n + c_n with random beta, b_1 and c_n, against
    the explicit gamma-ratio solution at the last n."""
    u_beta, u_b1, u_n = uniform_draws(replicate_keys(seed, 0, n_specs), np.arange(3)).tolist()
    worst = 0.0
    for i in range(n_specs):
        beta = 0.05 + 3.95 * u_beta[i]
        b1 = 0.1 + 1.9 * u_b1[i]
        n = 2 + int(u_n[i] * 398)
        c = 3.0 * uniform_draws(replicate_keys(seed + i + 1, 0, n - 1), 3)
        scan = _solve_recursion_scan(beta, b1, c)[-1]
        oracle = solve_recursion(beta, b1, c)
        worst = max(worst, abs(scan - oracle) / max(abs(oracle), 1e-300))
    return [_result("recursion_solver_vs_iteration", worst, 1e-10)]


def check_constant_recursion() -> list[CheckResult]:
    """The constant-forcing form `unit_constant_solution`, scaled by c,
    against the blocked scan with c_n = b_1 = c, at every n <= 500."""
    n = 500
    ns = np.arange(1.0, n + 1.0)
    worst = 0.0
    for beta in (0.5, 1.5, 2.0, 3.25):
        form = unit_constant_solution(beta, ns, np.exp(log_gamma_ratio(ns, beta)))
        for c in (0.5, 2.0):
            scan = _solve_recursion_scan(beta, c, np.full(n - 1, c))
            worst = max(worst, float((np.abs(c * form - scan) / np.abs(scan)).max()))
    return [_result("constant_recursion_shortcut", worst, 1e-10)]


def check_martingale_scale_recurrence(n_max: int = 100_000) -> list[CheckResult]:
    """a_1 = 1 / Gamma(1 + alpha) and a_{n+1} = a_n * n / (n + alpha)
    pointwise for the gamma-ratio a_n, n <= n_max."""
    worst = 0.0
    ns = np.arange(1.0, n_max + 1.0)
    k = ns[:-1]
    for alpha in (0.3, 0.5, 0.75, 1.0):
        a = martingale_scale(ns, alpha)
        if abs(a[0] - 1.0 / math.gamma(1.0 + alpha)) > 1e-15:
            return [CheckResult("martingale_scale_recurrence", FAIL, None, "a_1 wrong")]
        gap = np.abs(a[1:] * (k + alpha) / (k * a[:-1]) - 1.0)
        worst = max(worst, float(gap.max(initial=0.0)))
    return [_result("martingale_scale_recurrence", worst, 1e-14)]


def row_relerr(reference: np.ndarray, other: np.ndarray) -> np.ndarray:
    """|reference - other| relative to each row's largest magnitude in
    either array: the one row-scaled gap between two tables of moments.

    A moment that is exactly zero (the third moment of a symmetric law)
    carries rounding noise proportional to its siblings, never to itself,
    hence the row scale; the floor keeps an all-zero row at 0.  Rows with
    inf or nan give inf or nan without a warning.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        row_scale = np.maximum(np.maximum(np.abs(reference), np.abs(other)).max(axis=1), 1e-300)
        return np.abs(reference - other) / row_scale[:, None]


def _compare_table_to_closed_form(
    ms: MomentSet, alpha: float, table: ExactMomentTable
) -> tuple[float, float]:
    """Worst gaps between the recursion table and the seven closed forms
    (the six of `closed_form_moments` and `closed_form_s4`).

    Returns (worst `row_relerr`, worst strict per-cell relative gap over
    cells that are not tiny compared to their row).
    """
    rec = table.values
    ns = np.arange(1, len(table) + 1, dtype=np.float64)
    cf = closed_form_moments(ms, alpha, ns)
    closed = np.column_stack(
        [cf.s2, cf.st, cf.s3, cf.su, cf.t2, cf.s2t, closed_form_s4(ms, alpha, ns)]
    )
    gap = np.abs(rec - closed)
    cell_scale = np.maximum(np.abs(rec), np.abs(closed))
    strict_mask = cell_scale >= 1e-6 * cell_scale.max(axis=1, keepdims=True)
    strict = np.where(strict_mask, gap / np.maximum(cell_scale, 1e-300), 0.0)
    return float(row_relerr(rec, closed).max()), float(strict.max())


def check_closed_form_vs_recursion(
    alphas=(0.26, 0.4, 0.6, 0.75, 0.9, 1.0),
    dists=_STANDARD_DISTS,
    n_max: int = 10_000,
    rel_tol: float = 1e-8,
) -> list[CheckResult]:
    """The seven closed forms against the iterated recursions for n <= n_max,
    every table from one blocked scan."""
    cases = [(alpha, label, moment_set(dist)) for alpha in alphas for label, dist in dists]
    tables = exact_moment_tables([(ms, alpha) for alpha, _, ms in cases], n_max)
    out = []
    for (alpha, label, ms), table in zip(cases, tables):
        name = f"closed_form_vs_recursion[alpha={alpha},{label}]"
        try:
            worst = max(_compare_table_to_closed_form(ms, alpha, table))
        except SingularParameterError as exc:
            out.append(CheckResult(name, SKIP, None, str(exc)))
            continue
        detail = f"row-scaled and per-cell tolerance {rel_tol:g}"
        out.append(_result(name, worst, rel_tol, detail))
    return out


def check_brute_force(
    alphas=(0.0, 0.3, 0.5, 0.75, 1.0),
    dists=(("rademacher", StepDistribution.rademacher()), ("discrete(-1,2)", _SKEWED_TWO_POINT)),
    n_max: int = 100,
    rel_tol: float = 1e-12,
) -> list[CheckResult]:
    """The seven moments of `brute_force_moments`, one run of the two-point
    count chain, against the recursion table: the worst `row_relerr` over
    every n <= n_max must be at most rel_tol.  The recursion tables come
    from one blocked scan."""
    cases = [(alpha, label, dist) for alpha in alphas for label, dist in dists]
    tables = exact_moment_tables([(moment_set(dist), alpha) for alpha, _, dist in cases], n_max)
    out = []
    for (alpha, label, dist), table in zip(cases, tables):
        brute = brute_force_moments(dist, alpha, n_max)
        worst = float(row_relerr(table.values, brute.values).max())
        out.append(
            _result(
                f"brute_force_vs_recursion[alpha={alpha},{label}]", worst, rel_tol,
                f"row-scaled tolerance {rel_tol:g}, n <= {n_max}",
            )
        )
    return out


def check_rademacher_degeneracy(n_max: int = 10_000) -> list[CheckResult]:
    """For steps in {-1,+1}: T~ == 0 identically, so st = t2 = s2t = 0 and
    su = s2, exactly, in both computation paths."""
    ms = moment_set(StepDistribution.rademacher())
    alphas = (0.0, 0.3, 0.6, 0.75, 1.0)

    def gap(st, t2, s2t, su, s2):
        return max(float(np.max(np.abs(x))) for x in (st, t2, s2t, su - s2))

    worst = 0.0
    for alpha, table in zip(alphas, exact_moment_tables([(ms, alpha) for alpha in alphas], n_max)):
        worst = max(worst, gap(*(table.column(c) for c in ("st", "t2", "s2t", "su", "s2"))))
        try:
            cf = closed_form_moments(ms, alpha, np.arange(1, 50, dtype=float))
        except SingularParameterError:
            continue
        worst = max(worst, gap(cf.st, cf.t2, cf.s2t, cf.su, cf.s2))
    return [_result("rademacher_degeneracy", worst, 0.0, "must be exact")]


#: Laws of `check_limit_coefficients`: the three-atom law is not
#: two-point, so the M112 and M13 terms of the s4 closed form count.
_LIMIT_LAWS = (
    ("rademacher", StepDistribution.rademacher()),
    ("discrete(-1,2)", _SKEWED_TWO_POINT),
    ("discrete(-1,0.5,2)", StepDistribution.discrete((-1.0, 0.5, 2.0), (0.3, 0.5, 0.2))),
)


def check_limit_coefficients() -> list[CheckResult]:
    """q2, q3 and q4 of `limit_q_moments` against the leading coefficients
    of the closed forms, lim s_p / R_p with R_p = Gamma(n+pa)/Gamma(n):
    each form's evaluator at n = 0, R_p = 1 and the lower ratios 0, which
    is exact for alpha > 1/2.  K4 is the paper's formula and s4 the
    coupled recursion's solution, so the two derivations meet here only;
    `check_closed_form_vs_recursion` ties the forms to the exact table.
    The gap of each (alpha, law) is the `row_relerr` of its (q2, q3, q4).
    """
    rel_tol = 1e-13
    out = []
    for alpha in (0.55, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 1.0):
        for label, dist in _LIMIT_LAWS:
            ms = moment_set(dist)
            limits = limit_q_moments(ms, alpha)
            lead = (
                _closed_form_from_ratios(ms, alpha, 0.0, 1.0, 0.0).s2,
                _closed_form_from_ratios(ms, alpha, 0.0, 0.0, 1.0).s3,
                _s4_from_ratios(ms, alpha, 0.0, 0.0, 0.0, 1.0),
            )
            gap = row_relerr(np.array([[limits.q2, limits.q3, limits.q4]]), np.array([lead]))[0]
            p = int(gap.argmax())
            out.append(_result(f"limit_coefficients[alpha={alpha},{label}]", gap[p], rel_tol,
                               f"worst at q{p + 2}, tolerance {rel_tol:g}"))
    return out


def check_marginal_moments(
    replicates: int = 100_000, seed: int = 31, z_max: float = 4.0
) -> list[CheckResult]:
    """Marginal preservation: E(X_t^p) = E(xi^p) for every t <= 100 and
    p <= 4, for two laws at alpha = 0.75."""
    alpha, n = 0.75, 100
    laws = (("bernoulli(0.3)", StepDistribution.bernoulli(0.3)),
            ("discrete(-1,2)", _SKEWED_TWO_POINT))
    out = []
    batch = marginal_moment_sums([dist for _, dist in laws], alpha, n, replicates, seed)
    for (label, dist), sums in zip(laws, batch):
        mean, stderr = layout_moments(sums, replicates)
        worst = _worst_z(mean - raw_moments(dist), stderr)
        out.append(
            _result(f"marginal_moments[{label}]", worst, z_max, f"worst |z| over t<=({n}) p<=4")
        )
    return out


def check_martingale_property(
    replicates: int = 20_000, seed: int = 57, z_max: float = 4.0
) -> list[CheckResult]:
    """E(Q_{t} - Q_{t-1}) = a_t E(eps_t) = 0 at every step t <= 200, at
    Monte Carlo accuracy, for Bernoulli(0.3) steps at alpha = 0.75.  The
    factor a_t cancels in the z-score of E(eps_t).

    E(eps_t) = 0 holds for any coefficient of S~_{t-1}, so the second
    moment is tested too: eps_t = Y_t - mu_t with Y_t = X_t - m1 and
    mu_t = (alpha/(t-1)) S~_{t-1} = E(Y_t | F_{t-1}), so E(eps_t^2) =
    M2 - (alpha/(t-1))^2 s2(t-1) (M2 at t = 1), with s2 from the exact
    table (Bercu 2018)."""
    dist, alpha, n = StepDistribution.bernoulli(0.3), 0.75, 200
    ms = moment_set(dist)
    (sums,) = batch_epsilon_moments([dist], alpha, n, replicates, seed)
    mean, stderr = layout_moments(sums, replicates)
    (table,) = exact_moment_tables([(ms, alpha)], n - 1)
    coefficient = alpha / np.arange(1.0, n)  # alpha/(t-1) for t = 2..n
    second = np.concatenate(([ms.M2], ms.M2 - coefficient * coefficient * table.column("s2")))
    return [
        _result("martingale_property", _worst_z(mean[:, 0], stderr[:, 0]), z_max,
                "worst |z| over steps"),
        _result("martingale_second_moment", _worst_z(mean[:, 1] - second, stderr[:, 1]), z_max,
                "worst |z| of E(eps_t^2) against the exact table over steps"),
    ]


def check_epsilon_bound(replicates: int = 10_000, seed: int = 58) -> list[CheckResult]:
    """Martingale differences stay inside E|eps|^p <= 2^p E|xi|^p (p = 2, 4)
    at every step t <= 256, for two laws at alpha = 0.75."""
    laws = (("rademacher", StepDistribution.rademacher()),
            ("bernoulli(0.3)", StepDistribution.bernoulli(0.3)))
    out = []
    batch = batch_epsilon_moments([dist for _, dist in laws], 0.75, 256, replicates, seed)
    for (label, dist), sums in zip(laws, batch):
        m = raw_moments(dist)
        means, _ = layout_moments(sums, replicates)
        bound2 = 4.0 * m[1]
        bound4 = 16.0 * m[3]
        excess = max(
            float((means[:, 1] / bound2).max()) if bound2 > 0 else 0.0,
            float((means[:, 3] / bound4).max()) if bound4 > 0 else 0.0,
        )
        out.append(
            _result(f"epsilon_lp_bound[{label}]", excess, 1.0, "max E|eps|^p / (2^p E|xi|^p)")
        )
    return out


def check_martingale_reconstruction(
    n: int = 2000, seeds=(1, 2, 3), rel_tol: float = 1e-10
) -> list[CheckResult]:
    """sum(a_t eps_t) telescopes back to a_n S~_n on every sampled walk.

    The eps_t are those of `simulate._martingale_differences`, which the
    batch eps statistics reduce, over the walks `simulate_path` makes at
    `seeds`; the sum telescopes only with their coefficient alpha/(t-1).
    The laws of an alpha sample one matrix of gathered uniforms, as the
    batch statistics do.  The gap is relative to the larger of |a_n S~_n|
    and the largest term.
    """
    keys = np.array([seed & MASK64 for seed in seeds], dtype=np.uint64)
    worst = 0.0
    for alpha in (0.0, 0.5, 0.75, 1.0):
        scale = martingale_scale(np.arange(1.0, n + 1.0), alpha)[:, None]
        uniforms = _run_uniforms(alpha, n, keys)
        for _, dist in _STANDARD_DISTS:
            m1 = moment_set(dist).m1
            steps = inverse_cdf(dist, uniforms)
            eps = _martingale_differences(_row_blocks(steps), alpha, m1)
            terms = scale * np.vstack(list(eps))
            q = scale[-1] * (steps.sum(axis=0) - n * m1)
            reference = np.maximum(np.maximum(np.abs(q), np.abs(terms).max(axis=0)), 1e-300)
            worst = max(worst, float((np.abs(terms.sum(axis=0) - q) / reference).max()))
    return [_result("martingale_reconstruction", worst, rel_tol)]


def check_conditional_continuation(
    n_continuations: int = 100_000, seed: int = 77, z_max: float = 3.0
) -> list[CheckResult]:
    """Empirical one-step conditional moments vs their predictions."""
    rad = StepDistribution.rademacher()
    plus3 = WalkState.from_steps([1.0, 1.0, 1.0], moment_set(rad))
    cases = [
        ("rademacher+++@0.6", rad, 0.6, plus3),
        ("rademacher+++@0", rad, 0.0, plus3),
        ("skewed@0.75", _SKEWED_TWO_POINT, 0.75, simulate_path(_SKEWED_TWO_POINT, 0.75, 5, 2024)),
    ]
    out = []
    for label, dist, alpha, prefix in cases:
        predicted, observed, stderr = conditional_continuation_test(
            prefix, dist, alpha, n_continuations, seed
        )
        worst = _worst_z(observed - predicted, stderr)
        out.append(
            _result(f"conditional_continuation[{label}]", worst, z_max, "worst |z| over six moments")
        )
    return out


def compare_with_exact(
    estimate: np.ndarray,
    stderr: np.ndarray,
    table: ExactMomentTable,
    checkpoints: Sequence[int],
    alpha: float,
) -> tuple[np.ndarray, np.ndarray]:
    """The exact n^{-p alpha} E(S~_n^p) on the (checkpoint, p) grid of
    `empirical_q_moments`, read from `table` (the exact table of the
    estimates' law), and the z-scores of the estimates' gaps to it, two
    (checkpoints x 4) arrays.  E(S~) = 0, which the table has no column for.
    """
    rows = np.subtract(checkpoints, 1)
    moments = [np.zeros(rows.size)] + [table.column(c)[rows] for c in ("s2", "s3", "s4")]
    exact = np.column_stack(moments) * _q_scales(checkpoints, alpha)
    return exact, z_score(estimate - exact, stderr)


def founder_rows(labels: np.ndarray, u: np.ndarray, alpha: float) -> np.ndarray:
    """The 0-based row of the fresh step that founded each step's cluster,
    for the cluster engine's (n, walks) labels and the walks' (n, walks)
    draws u.  A walk's fresh steps are read off its draws, as the literal
    engine reads them: step 1, and every step whose u >= alpha.  A label
    is its founder's ordinal among them, which a stable argsort of the
    steps that are not fresh maps to a row."""
    fresh = u >= alpha
    fresh[0] = True
    rows = np.argsort(~fresh, axis=0, kind="stable")
    return np.take_along_axis(rows, labels.astype(np.intp), axis=0)


def cluster_label_mismatches(
    dist: StepDistribution, alpha: float, n: int, keys: np.ndarray
) -> int:
    """Steps where the literal engine's step matrix differs, in any bit,
    from the fresh samples of the same draws gathered at the founder rows
    of the cluster engine's labels (0 when the engines agree).  Step t's
    fresh sample is drawn here from its uniform at counter t-1, by the
    engines' fresh map."""
    steps = _run_paths(dist, alpha, n, keys)
    u = uniform_draws(keys, np.arange(n))
    rows = founder_rows(_run_labels(alpha, n, keys), u, alpha)
    fresh = inverse_cdf(dist, _fresh_uniforms(u, alpha, step_one=True))
    gathered = np.take_along_axis(fresh, rows, axis=0)
    return int(np.count_nonzero(gathered.view(np.uint64) != steps.view(np.uint64)))


#: Walks of `check_cluster_engine`'s path check: at n = 100 their labels
#: take two blocks, of `simulate._block_rows(165)` = 99 steps and of 1.
_PATH_WALKS = 165


def check_cluster_engine(
    replicates: int = 5000, seed: int = 91, z_max: float = 4.0
) -> list[CheckResult]:
    """The cluster engine against the literal engine and the exact table,
    for two laws at alpha = 0.75 and n = 100.

    Its labels, mapped through the literal engine's fresh samples, must
    reproduce the literal step matrix byte for byte (_PATH_WALKS walks,
    whose count of fresh steps crosses a block edge), and its estimates
    of n^{-p alpha} E(S~^p) (p = 2..4, at n/2 and n) must pass a z-test
    against the exact recursion.  Each law has its own seed, so the
    laws do not share cluster sizes.
    """
    dists = (
        ("bernoulli(0.3)", StepDistribution.bernoulli(0.3)),
        ("discrete(-1,2)", _SKEWED_TWO_POINT),
    )
    alpha, n = 0.75, 100
    out = []
    cps = (n // 2, n)
    tables = exact_moment_tables([(moment_set(dist), alpha) for _, dist in dists], n)
    for i, ((label, dist), table) in enumerate(zip(dists, tables)):
        keys = replicate_keys(seed + i, 0, _PATH_WALKS)
        bad = cluster_label_mismatches(dist, alpha, n, keys)
        out.append(_result(f"cluster_engine_paths[{label}]", bad, 0, "steps that differ"))
        sums = cluster_batch(dist, alpha, n, replicates, seed + i, cps)
        estimate, stderr = empirical_q_moments(sums, replicates, cps, alpha)
        exact, _ = compare_with_exact(estimate, stderr, table, cps, alpha)
        worst = _worst_z(estimate[:, 1:] - exact[:, 1:], stderr[:, 1:])
        out.append(
            _result(f"cluster_engine_moments[{label}]", worst, z_max, "worst |z| over p=2..4")
        )
    return out


#: The Monte Carlo z-score limits a caller may override, with their
#: defaults: "z_max" for the 4-sigma checks and "continuation_z_max" for the
#: continuation test.  Analytic tolerances are pinned and not configurable.
_DEFAULT_TOLERANCES = {"z_max": 4.0, "continuation_z_max": 3.0}


def tolerance_limits(tolerances: dict[str, float]) -> dict[str, float]:
    """The z-score limits with `tolerances` laid over their defaults.

    An unknown name would change nothing and a limit that is not a finite
    number > 0 would fail or pass every check whatever the samples, so both
    raise ValueError; JSON true, false and strings are not numbers.
    """
    limits = dict(_DEFAULT_TOLERANCES)
    for name, value in tolerances.items():
        if name not in limits:
            raise ValueError(f"unknown tolerance {name!r}, expected one of {sorted(limits)}")
        if not _is_number(value):
            raise ValueError(f"tolerance {name} must be a number, got {value!r}")
        limit = float(value)
        if not (math.isfinite(limit) and limit > 0.0):
            raise ValueError(f"tolerance {name} must be finite and > 0, got {limit}")
        limits[name] = limit
    return limits


#: Every suite of `run_all`, in its order: (the check's name in this module,
#: the keyword that takes its size, its seed's offset from run_all's seed,
#: the `_DEFAULT_TOLERANCES` key its z_max takes), None where it takes none.
SUITES = (
    ("check_moment_identities", "n_laws", 0, None),
    ("check_shift_covariance", "n_laws", 1, None),
    ("check_sampling_moments", "n_samples", 2, "z_max"),
    ("check_gamma_sums", "n_cases", 3, None),
    ("check_recursion_solver", "n_specs", 4, None),
    ("check_constant_recursion", None, None, None),
    ("check_martingale_scale_recurrence", "n_max", None, None),
    ("check_closed_form_vs_recursion", "n_max", None, None),
    ("check_brute_force", "n_max", None, None),
    ("check_rademacher_degeneracy", "n_max", None, None),
    ("check_limit_coefficients", None, None, None),
    ("check_marginal_moments", "replicates", 5, "z_max"),
    ("check_martingale_property", "replicates", 6, "z_max"),
    ("check_epsilon_bound", "replicates", 7, None),
    ("check_martingale_reconstruction", "n", None, None),
    ("check_conditional_continuation", "n_continuations", 8, "continuation_z_max"),
    ("check_cluster_engine", "replicates", 9, "z_max"),
)

#: A sized suite's full size, its check's own default, read at import: by
#: run time the name may be bound to a wrapper with no signature of its own.
_FULL_SIZES = {
    check: inspect.signature(globals()[check]).parameters[size].default
    for check, size, _, _ in SUITES if size is not None
}


def run_all(
    fast: bool = False,
    seed: int = 2024,
    tolerances: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Every suite of `SUITES` in its order, at its full size or, when
    `fast`, a tenth of it (at least 2).  Each check is looked up by name
    as it runs, so a rebound check is the one that runs.

    `tolerances` may override the Monte Carlo z-score limits; see
    `tolerance_limits`.
    """
    limits = tolerance_limits(tolerances or {})
    results: list[CheckResult] = []
    for check, size, offset, limit in SUITES:
        kwargs = {}
        if size is not None:
            full = _FULL_SIZES[check]
            kwargs[size] = max(2, full // 10) if fast else full
        if offset is not None:
            kwargs["seed"] = seed + offset
        if limit is not None:
            kwargs["z_max"] = limits[limit]
        results += globals()[check](**kwargs)
    return results
