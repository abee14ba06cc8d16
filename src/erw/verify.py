"""Named invariant suites over the whole toolkit.

Each check returns CheckResult records with a PASS / FAIL / SKIP status and
the worst observed error, so the CLI can emit a machine-readable report and
the test suite can reuse the same code.  Checks that hit a guarded singular
parameter report SKIP, not FAIL.

All randomised checks take an explicit seed and are fully deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import (
    MomentSet,
    StepDistribution,
    inverse_cdf,
    moment_set,
    raw_moments,
)
from .gammatools import (
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
)
from .moments import (
    CSV_COLUMNS,
    as_memory,
    closed_form_moments,
    closed_form_s4,
    brute_force_moments,
    exact_moments_upto,
    fourth_moment_coefficient,
    limit_q_moments,
)
from .rng import replicate_keys, uniform_draws
from .simulate import (
    WalkState,
    batch_epsilon_moments,
    conditional_continuation_test,
    marginal_moment_sums,
    martingale_diagnostics,
    sample_stderr,
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
        return {
            "name": self.name,
            "status": self.status,
            "worst_error": self.worst_error,
            "detail": self.detail,
        }


def _result(name: str, worst: float, tol: float, detail: str = "") -> CheckResult:
    status = PASS if worst <= tol else FAIL
    return CheckResult(name, status, float(worst), detail or f"tolerance {tol:g}")


_STANDARD_DISTS = (
    ("rademacher", StepDistribution.rademacher()),
    ("bernoulli(0.3)", StepDistribution.bernoulli(0.3)),
    ("uniform(0,1)", StepDistribution.uniform(0.0, 1.0)),
)

#: Two-point law with nonzero mean, also the documented JSON example.
_SKEWED_TWO_POINT = StepDistribution.discrete((-1.0, 2.0), (0.6, 0.4))

#: Two-point law with nonzero mean and O(1) moments.  The enumeration
#: cross-check uses an absolute tolerance, which is only a few ulp away from
#: rounding once fourth moments reach the thousands, so it needs a law whose
#: values stay of order one.
_SMALL_TWO_POINT = StepDistribution.discrete((-0.5, 1.0), (0.6, 0.4))


def _random_discrete_laws(count: int, seed: int, max_points: int = 4):
    keys = replicate_keys(seed, 0, count)
    for i in range(count):
        size = 2 + int(uniform_draws(keys[i : i + 1], 0)[0] * (max_points - 1))
        pts = [
            4.0 * uniform_draws(keys[i : i + 1], 10 + j)[0] - 2.0 for j in range(size)
        ]
        raw = [uniform_draws(keys[i : i + 1], 100 + j)[0] + 1e-3 for j in range(size)]
        total = math.fsum(raw)
        yield StepDistribution.discrete(pts, [w / total for w in raw])


def check_moment_identities(
    n_laws: int = 1000,
    seed: int = 2024,
    moment_sets: Sequence[tuple[str, MomentSet]] | None = None,
    atol: float = 1e-12,
) -> list[CheckResult]:
    """The four algebraic identities every derived moment set must satisfy."""
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
            return [
                CheckResult(
                    "moment_identities", FAIL, None, f"sign constraint violated on {label}"
                )
            ]
    return [_result("moment_identities", worst, atol, f"worst: {worst_name}")]


def check_shift_covariance(
    n_laws: int = 200, seed: int = 71, atol: float = 1e-10
) -> list[CheckResult]:
    """Behaviour of the moment set under a constant shift of a discrete law.

    The centered moments M2, M3, M4 are invariant and m1 moves by exactly
    the shift.  The mixed moments couple to the uncentered square/cube and
    transform with computable corrections instead (writing c for the shift):

        M12  -> M12 + 2 c M2
        M13  -> M13 + 3 c M12 + 3 c^2 M2
        M22  -> M22 + 4 c M12 + 4 c^2 M2
        M112 -> M112 + 2 c M3
    """
    keys = replicate_keys(seed, 0, n_laws)
    worst = 0.0
    for i, dist in enumerate(_random_discrete_laws(n_laws, seed + 1)):
        c = 6.0 * uniform_draws(keys[i : i + 1], 0)[0] - 3.0
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
    return [_result("shift_covariance", worst, atol, "scaled by (1+|c|+max|x|)^4")]


def check_sampling_moments(
    n_samples: int = 1_000_000, seed: int = 99, z_max: float = 4.0
) -> list[CheckResult]:
    """Empirical raw moments of each builtin kind vs their exact values."""
    out = []
    dists = _STANDARD_DISTS + (
        ("gaussian(0.5,2)", StepDistribution.gaussian(0.5, 2.0)),
        ("discrete(-1,2)", _SKEWED_TWO_POINT),
    )
    for label, dist in dists:
        keys = replicate_keys(seed, 0, n_samples)
        samples = inverse_cdf(dist, uniform_draws(keys, 0))
        exact = raw_moments(dist)
        worst = 0.0
        for k in range(1, 5):
            powers = samples ** k
            gap = float(powers.mean()) - exact[k - 1]
            stderr = float(powers.std(ddof=1)) / math.sqrt(n_samples)
            worst = max(worst, abs(float(z_score(gap, stderr))))
        out.append(_result(f"sampling_moments[{label}]", worst, z_max, "worst |z|"))
    return out


def check_gamma_sums(
    n_cases: int = 500, seed: int = 7, rel_tol: float = 1e-10
) -> list[CheckResult]:
    """Both gamma-ratio sum closed forms against term-by-term summation."""
    keys = replicate_keys(seed, 0, n_cases)
    worst = 0.0
    tried = 0
    for i in range(n_cases):
        a = 4.0 * uniform_draws(keys[i : i + 1], 0)[0]
        b = 4.0 * uniform_draws(keys[i : i + 1], 1)[0]
        if abs(b - a - 1.0) < 0.05 or abs(b - a - 2.0) < 0.05:
            continue
        n = 1 + int(uniform_draws(keys[i : i + 1], 2)[0] * 1000)
        tried += 1
        closed = gamma_sum_linear(a, b, n)
        direct = gamma_sum_linear_direct(a, b, n)
        worst = max(worst, abs(closed - direct) / max(abs(direct), 1e-300))
        closed_w = gamma_sum_weighted(a, b, n)
        direct_w = gamma_sum_weighted_direct(a, b, n)
        worst = max(worst, abs(closed_w - direct_w) / max(abs(direct_w), 1e-300))
    return [_result("gamma_sums_vs_direct", worst, rel_tol, f"{tried} cases")]


def check_recursion_solver(
    n_specs: int = 100, seed: int = 13, rel_tol: float = 1e-10
) -> list[CheckResult]:
    """Explicit gamma-ratio solution vs direct iteration of the recursion."""
    keys = replicate_keys(seed, 0, n_specs)
    worst = 0.0
    for i in range(n_specs):
        beta = 0.05 + 3.95 * uniform_draws(keys[i : i + 1], 0)[0]
        b1 = 0.1 + 1.9 * uniform_draws(keys[i : i + 1], 1)[0]
        n = 2 + int(uniform_draws(keys[i : i + 1], 2)[0] * 398)
        c_values = 3.0 * uniform_draws(replicate_keys(seed + i + 1, 0, n), 3)
        spec = RecursionSpec.from_sequence(beta, b1, c_values)
        direct = iterate_recursion(spec, n)[-1]
        solved = solve_recursion(spec, n)
        worst = max(worst, abs(solved - direct) / max(abs(direct), 1e-300))
    return [_result("recursion_solver_vs_iteration", worst, rel_tol)]


def check_constant_recursion(
    rel_tol: float = 1e-10, betas=(0.5, 1.5, 2.0, 3.25), n: int = 500
) -> list[CheckResult]:
    """Constant-inhomogeneity shortcut vs the general solution and iteration."""
    worst = 0.0
    from .gammatools import solve_recursion_constant

    for beta in betas:
        for c in (0.5, 2.0):
            spec = RecursionSpec.constant(beta, c, c)
            direct = iterate_recursion(spec, n)[-1]
            short = solve_recursion_constant(beta, c, n)
            general = solve_recursion(spec, n)
            worst = max(
                worst,
                abs(short - direct) / abs(direct),
                abs(general - direct) / abs(direct),
            )
    return [_result("constant_recursion_shortcut", worst, rel_tol)]


def check_martingale_scale_recurrence(
    n_max: int = 100_000, alphas=(0.3, 0.5, 0.75, 1.0), rel_tol: float = 1e-14
) -> list[CheckResult]:
    """a_{n+1} = a_n * n / (n + alpha) pointwise for the gamma-ratio a_n.

    The recurrence is checked on the array path; a_1 is checked on the
    scalar path and the array a_1 against it, so both paths stay covered.
    """
    worst = 0.0
    ns = np.arange(1.0, n_max + 1.0)
    k = ns[:-1]
    for alpha in alphas:
        lead = martingale_scale(1, alpha)
        if abs(lead - 1.0 / math.gamma(1.0 + alpha)) > 1e-15:
            return [CheckResult("martingale_scale_recurrence", FAIL, None, "a_1 wrong")]
        a = martingale_scale(ns, alpha)
        if abs(a[0] - lead) > 1e-15:
            return [
                CheckResult("martingale_scale_recurrence", FAIL, None, "array a_1 != scalar a_1")
            ]
        gap = np.abs(a[1:] * (k + alpha) / (k * a[:-1]) - 1.0)
        worst = max(worst, float(gap.max(initial=0.0)))
    return [_result("martingale_scale_recurrence", worst, rel_tol)]


def check_gamma_tail(
    alpha: float = 0.75, n: int = 100_000, tol: float = 0.01
) -> list[CheckResult]:
    """Convergence of sum_j Gamma(j+3a)/Gamma(j+1+4a) to its infinite-n value."""
    partial = gamma_sum_linear(3.0 * alpha, 1.0 + 4.0 * alpha, n - 1)
    limit = gamma_ratio(3.0 * alpha + 1.0, 4.0 * alpha + 1.0) / alpha
    worst = abs(partial - limit) / abs(limit)
    return [_result("gamma_sum_tail", worst, tol, f"alpha={alpha}, n={n}")]


def _compare_table_to_closed_form(
    ms: MomentSet, alpha: float, n_max: int, rel_tol: float, abs_floor: float
) -> tuple[float, float]:
    """Worst scaled deviation between recursion table and the seven closed
    forms (the six of `closed_form_moments` and `closed_form_s4`).

    Returns (worst deviation / row scale, worst strict per-cell relative
    deviation over cells that are not tiny compared to their row).  The row
    scale matters because a cell whose true value is exactly zero (e.g. the
    third moment of a symmetric law with nonzero sibling moments) carries
    recursion rounding noise proportional to the sibling magnitudes, never
    to its own.
    """
    table = exact_moments_upto(ms, alpha, n_max)
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    cf = closed_form_moments(ms, alpha, ns)
    rec = np.column_stack(
        [table.column(c) for c in CSV_COLUMNS[1:]]
    )
    closed = np.column_stack(
        [cf.s2, cf.st, cf.s3, cf.su, cf.t2, cf.s2t, closed_form_s4(ms, alpha, ns)]
    )
    gap = np.abs(rec - closed)
    cell_scale = np.maximum(np.abs(rec), np.abs(closed))
    row_scale = cell_scale.max(axis=1, keepdims=True)
    worst_scaled = float((gap / np.maximum(rel_tol * row_scale, abs_floor)).max())
    strict_mask = cell_scale >= 1e-6 * row_scale
    strict = np.where(strict_mask, gap / np.maximum(cell_scale, 1e-300), 0.0)
    return worst_scaled, float(strict.max())


def check_closed_form_vs_recursion(
    alphas=(0.26, 0.4, 0.6, 0.75, 0.9, 1.0),
    dists=_STANDARD_DISTS,
    n_max: int = 10_000,
    rel_tol: float = 1e-8,
    abs_floor: float = 1e-12,
) -> list[CheckResult]:
    """The seven closed forms against the iterated recursions for n <= n_max."""
    out = []
    for alpha in alphas:
        for label, dist in dists:
            name = f"closed_form_vs_recursion[alpha={alpha},{label}]"
            try:
                worst_scaled, strict = _compare_table_to_closed_form(
                    moment_set(dist), alpha, n_max, rel_tol, abs_floor
                )
            except SingularParameterError as exc:
                out.append(CheckResult(name, SKIP, None, str(exc)))
                continue
            worst = max(worst_scaled, strict / rel_tol)
            status = PASS if worst <= 1.0 else FAIL
            out.append(
                CheckResult(
                    name,
                    status,
                    worst * rel_tol,
                    f"scaled tolerance {rel_tol:g} with absolute floor {abs_floor:g}",
                )
            )
    return out


def check_brute_force(
    alphas=(0.0, 0.3, 0.5, 0.75, 1.0),
    dists=(("rademacher", StepDistribution.rademacher()), ("discrete(-0.5,1)", _SMALL_TWO_POINT)),
    n_max: int = 6,
    atol: float = 1e-12,
) -> list[CheckResult]:
    """Exact enumeration vs the recursion table for every n <= n_max."""
    out = []
    for alpha in alphas:
        for label, dist in dists:
            ms = moment_set(dist)
            table = exact_moments_upto(ms, alpha, n_max)
            worst = 0.0
            for n in range(1, n_max + 1):
                brute = brute_force_moments(dist, alpha, n)
                rec = table.row(n)
                for field in CSV_COLUMNS[1:]:
                    worst = max(worst, abs(getattr(brute, field) - getattr(rec, field)))
            out.append(
                _result(f"brute_force_vs_recursion[alpha={alpha},{label}]", worst, atol)
            )
    return out


def check_rademacher_degeneracy(
    alphas=(0.0, 0.3, 0.6, 0.75, 1.0), n_max: int = 10_000
) -> list[CheckResult]:
    """For steps in {-1,+1}: T~ == 0 identically, so st = t2 = s2t = 0 and
    su = s2, exactly, in both computation paths."""
    ms = moment_set(StepDistribution.rademacher())
    worst = 0.0
    for alpha in alphas:
        table = exact_moments_upto(ms, alpha, n_max)
        worst = max(
            worst,
            float(np.max(np.abs(table.column("st")))),
            float(np.max(np.abs(table.column("t2")))),
            float(np.max(np.abs(table.column("s2t")))),
            float(np.max(np.abs(table.column("su") - table.column("s2")))),
        )
        try:
            cf = closed_form_moments(ms, alpha, np.arange(1, 50, dtype=float))
        except SingularParameterError:
            continue
        worst = max(
            worst,
            float(np.max(np.abs(cf.st))),
            float(np.max(np.abs(cf.t2))),
            float(np.max(np.abs(cf.s2t))),
            float(np.max(np.abs(cf.su - cf.s2))),
        )
    return [_result("rademacher_degeneracy", worst, 0.0, "must be exact")]


def check_fourth_moment_asymptote(
    alphas=(0.6, 0.75, 0.9, 1.0), dists=_STANDARD_DISTS, n: int = 10_000
) -> list[CheckResult]:
    """r_n = E(S~_n^4) Gamma(n)/Gamma(n+4a) approaches K4.

    The subleading corrections decay like n^(1-2a), so a fixed tolerance is
    only meaningful for alpha near 1; for smaller alpha the tolerance tracks
    the true decay rate and the gap is additionally required to shrink with
    growing n.  E(S~_n^4) comes from its finite-n closed form, so the check
    costs O(1) in n; `check_closed_form_vs_recursion` ties that form to the
    recursion.
    """
    out = []
    points = np.array([n // 4, n // 2, n], dtype=np.float64)
    for alpha in alphas:
        tol = 0.02 if alpha >= 0.9 else 3.5 * float(n) ** (1.0 - 2.0 * alpha)
        for label, dist in dists:
            ms = moment_set(dist)
            k4 = fourth_moment_coefficient(ms, alpha)
            r = closed_form_s4(ms, alpha, points) * np.exp(-log_gamma_ratio(points, 4.0 * alpha))
            gaps = np.abs(r - k4) / abs(k4)
            shrinking = gaps[2] < gaps[1] < gaps[0]
            worst = float(gaps[2])
            status = PASS if (worst <= tol and shrinking) else FAIL
            out.append(
                CheckResult(
                    f"fourth_moment_asymptote[alpha={alpha},{label}]",
                    status,
                    worst,
                    f"tolerance {tol:.3g} at n={n}, gap must shrink along {n//4},{n//2},{n}",
                )
            )
    return out


def check_moment_convergence(
    alpha: float = 0.75,
    dists=_STANDARD_DISTS,
    n: int = 100_000,
    tol_q2: float = 0.01,
    tol_q4: float = 0.01,
) -> list[CheckResult]:
    """n^{-p alpha} E(S~_n^p) approaches E(Q^p) for p = 2 and 4.

    E(S~_n^2) and E(S~_n^4) come from their finite-n closed forms, so the
    check costs O(1) in n; `check_closed_form_vs_recursion` ties those forms
    to the recursion.
    """
    out = []
    for label, dist in dists:
        ms = moment_set(dist)
        limits = limit_q_moments(ms, alpha)
        s2 = float(closed_form_moments(ms, alpha, n).s2)
        s4 = float(closed_form_s4(ms, alpha, n))
        gap2 = abs(s2 * float(n) ** (-2 * alpha) - limits.q2) / limits.q2
        gap4 = abs(s4 * float(n) ** (-4 * alpha) - limits.q4) / limits.q4
        worst = max(gap2 / tol_q2, gap4 / tol_q4)
        out.append(
            CheckResult(
                f"moment_convergence[{label}]",
                PASS if worst <= 1.0 else FAIL,
                max(gap2, gap4),
                f"q2 gap {gap2:.2e} (tol {tol_q2}), q4 gap {gap4:.2e} (tol {tol_q4})",
            )
        )
    return out


def check_limit_consistency(
    alphas=(0.6, 0.75, 0.9, 1.0), dists=_STANDARD_DISTS, rel_tol: float = 1e-12
) -> list[CheckResult]:
    """Limit moments against the closed forms they are the leading terms of.

    Rebuilds s2 and s3 at several n from (q2, q3) plus the lower-order
    terms and compares with the closed-form path; q4 must equal K4.
    """
    worst = 0.0
    for alpha in alphas:
        d2 = 2.0 * alpha - 1.0
        d3 = 3.0 * alpha - 1.0
        for label, dist in dists:
            ms = moment_set(dist)
            limits = limit_q_moments(ms, alpha)
            if limits.q4 != fourth_moment_coefficient(ms, alpha):
                return [CheckResult("limit_consistency", FAIL, None, "q4 != K4")]
            for n in (1, 10, 1000, 100_000):
                cf = closed_form_moments(ms, alpha, n)
                r2 = math.exp(log_gamma_ratio(float(n), 2.0 * alpha))
                r3 = math.exp(log_gamma_ratio(float(n), 3.0 * alpha))
                rebuilt_s2 = limits.q2 * r2 - ms.M2 * n / d2
                rebuilt_s3 = (
                    limits.q3 * r3
                    - 3.0 * ms.M3 / (d2 * math.gamma(2.0 * alpha)) * r2
                    + (alpha + 1.0) * ms.M3 * n / (d2 * d3)
                )
                scale2 = max(abs(cf.s2), abs(limits.q2) * r2, 1e-300)
                scale3 = max(abs(cf.s3), abs(limits.q3) * r3, 1.0)
                worst = max(
                    worst,
                    abs(rebuilt_s2 - cf.s2) / scale2,
                    abs(rebuilt_s3 - cf.s3) / scale3,
                )
    return [_result("limit_consistency", worst, rel_tol)]


def check_marginal_moments(
    dists=(("bernoulli(0.3)", StepDistribution.bernoulli(0.3)), ("discrete(-1,2)", _SKEWED_TWO_POINT)),
    alpha: float = 0.75,
    n: int = 100,
    replicates: int = 100_000,
    seed: int = 31,
    z_max: float = 4.0,
) -> list[CheckResult]:
    """Marginal preservation: E(X_t^p) = E(xi^p) for every t and p <= 4."""
    out = []
    for label, dist in dists:
        exact = raw_moments(dist)
        marginal = marginal_moment_sums(dist, alpha, n, replicates, seed)
        count = marginal.count
        worst = 0.0
        for p in range(1, 5):
            mean = marginal.sums[:, p - 1] / count
            stderr = sample_stderr(mean, marginal.sums[:, 2 * p - 1] / count, count)
            z = z_score(np.abs(mean - exact[p - 1]), stderr)
            worst = max(worst, float(z.max()))
        out.append(
            _result(f"marginal_moments[{label}]", worst, z_max, f"worst |z| over t<=({n}) p<=4")
        )
    return out


def check_martingale_property(
    dist: StepDistribution = StepDistribution.bernoulli(0.3),
    alpha: float = 0.75,
    n: int = 200,
    replicates: int = 20_000,
    seed: int = 57,
    z_max: float = 4.0,
) -> list[CheckResult]:
    """E(Q_{t} - Q_{t-1}) = 0 at every step, at Monte Carlo accuracy."""
    stats = batch_epsilon_moments(dist, alpha, n, replicates, seed)
    z = z_score(np.abs(stats.q_increment_mean), stats.q_increment_stderr)
    return [_result("martingale_property", float(z.max()), z_max, "worst |z| over steps")]


def check_epsilon_bound(
    dists=(("rademacher", StepDistribution.rademacher()), ("bernoulli(0.3)", StepDistribution.bernoulli(0.3))),
    alpha: float = 0.75,
    n: int = 256,
    replicates: int = 10_000,
    seed: int = 58,
) -> list[CheckResult]:
    """Martingale differences stay inside E|eps|^p <= 2^p E|xi|^p (p = 2, 4)."""
    out = []
    for label, dist in dists:
        m = raw_moments(dist)
        stats = batch_epsilon_moments(dist, alpha, n, replicates, seed)
        bound2 = 4.0 * m[1]
        bound4 = 16.0 * m[3]
        excess = max(
            float((stats.abs2 / bound2).max()) if bound2 > 0 else 0.0,
            float((stats.abs4 / bound4).max()) if bound4 > 0 else 0.0,
        )
        out.append(
            _result(f"epsilon_lp_bound[{label}]", excess, 1.0, "max E|eps|^p / (2^p E|xi|^p)")
        )
    return out


def check_martingale_reconstruction(
    alphas=(0.0, 0.5, 0.75, 1.0),
    dists=_STANDARD_DISTS,
    n: int = 2000,
    seeds=(1, 2, 3),
    rel_tol: float = 1e-10,
) -> list[CheckResult]:
    """sum(a_k eps_k) telescopes back to a_n S~_n on every sampled path."""
    worst = 0.0
    for alpha in alphas:
        for _, dist in dists:
            ms = moment_set(dist)
            for seed in seeds:
                state = simulate_path(dist, alpha, n, seed)
                view = martingale_diagnostics(state, alpha, ms)
                worst = max(worst, view.reconstruction_error)
    return [_result("martingale_reconstruction", worst, rel_tol)]


def check_conditional_continuation(
    n_continuations: int = 100_000, seed: int = 77, z_max: float = 3.0
) -> list[CheckResult]:
    """Empirical one-step conditional moments vs their predictions."""
    rad = StepDistribution.rademacher()
    cases = [
        ("rademacher+++@0.6", rad, 0.6, WalkState.from_steps([1.0, 1.0, 1.0], moment_set(rad), 0.6)),
        ("rademacher+++@0", rad, 0.0, WalkState.from_steps([1.0, 1.0, 1.0], moment_set(rad), 0.0)),
        (
            "skewed@0.75",
            _SKEWED_TWO_POINT,
            0.75,
            simulate_path(_SKEWED_TWO_POINT, 0.75, 5, 2024),
        ),
    ]
    out = []
    for label, dist, alpha, prefix in cases:
        checks = conditional_continuation_test(prefix, dist, alpha, n_continuations, seed)
        worst = max(abs(c.z) for c in checks)
        out.append(
            _result(f"conditional_continuation[{label}]", worst, z_max, "worst |z| over six moments")
        )
    return out


def run_all(
    fast: bool = False,
    seed: int = 2024,
    tolerances: dict[str, float] | None = None,
) -> list[CheckResult]:
    """Every suite at default (or reduced) sizes, in a deterministic order.

    `tolerances` may override the Monte Carlo z-score limits: key "z_max"
    for the 4-sigma checks and "continuation_z_max" for the continuation
    test.  Analytic tolerances are pinned and not configurable.
    """
    tolerances = tolerances or {}
    z_max = float(tolerances.get("z_max", 4.0))
    continuation_z = float(tolerances.get("continuation_z_max", 3.0))

    def size(full: int) -> int:
        return max(2, int(full * (0.1 if fast else 1.0)))

    results: list[CheckResult] = []
    results += check_moment_identities(n_laws=size(1000), seed=seed)
    results += check_shift_covariance(n_laws=size(200), seed=seed + 1)
    results += check_sampling_moments(n_samples=size(1_000_000), seed=seed + 2, z_max=z_max)
    results += check_gamma_sums(n_cases=size(500), seed=seed + 3)
    results += check_recursion_solver(n_specs=size(100), seed=seed + 4)
    results += check_constant_recursion()
    results += check_martingale_scale_recurrence(n_max=size(100_000))
    results += check_gamma_tail()
    results += check_closed_form_vs_recursion(n_max=size(10_000))
    results += check_brute_force()
    results += check_rademacher_degeneracy(n_max=size(10_000))
    results += check_fourth_moment_asymptote(n=size(10_000))
    # convergence to the limit moments is ~n^(-1/2); n cannot be reduced,
    # but the check reads closed forms at n, so it is O(1)
    results += check_moment_convergence()
    results += check_limit_consistency()
    results += check_marginal_moments(replicates=size(100_000), seed=seed + 5, z_max=z_max)
    results += check_martingale_property(replicates=size(20_000), seed=seed + 6, z_max=z_max)
    results += check_epsilon_bound(replicates=size(10_000), seed=seed + 7)
    results += check_martingale_reconstruction(n=size(2000))
    results += check_conditional_continuation(
        n_continuations=size(100_000), seed=seed + 8, z_max=continuation_z
    )
    return results
