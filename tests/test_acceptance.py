"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from erw import (
    StepDistribution,
    brute_force_moments,
    conditional_continuation_test,
    empirical_q_moments,
    exact_moments_upto,
    gamma_sum_linear,
    gamma_sum_linear_direct,
    gamma_sum_weighted,
    gamma_sum_weighted_direct,
    limit_q_moments,
    moment_set,
    simulate_path,
    solve_recursion,
)
from erw.cli import main as cli_main
from erw.moments import _solve_recursion_scan
from erw.rng import replicate_keys, uniform_draws
from erw.simulate import WalkState, z_score
from erw.verify import (
    PASS,
    check_brute_force,
    check_closed_form_vs_recursion,
    check_epsilon_bound,
    check_marginal_moments,
    check_martingale_reconstruction,
    compare_with_exact,
)
from literal_batch import simulate_batch

RADEMACHER = StepDistribution.rademacher()
BERNOULLI = StepDistribution.bernoulli(0.3)
UNIFORM = StepDistribution.uniform(0.0, 1.0)
TEST_DISTS = (("rademacher", RADEMACHER), ("bernoulli(0.3)", BERNOULLI), ("uniform(0,1)", UNIFORM))

# two-point law with nonzero mean; O(1) moments keep the absolute tolerance
# of criterion 2 at n <= 6 well above double-precision rounding
TWO_POINT = StepDistribution.discrete((-0.5, 1.0), (0.6, 0.4))


def report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {number}: {text}"


def _verdict(results) -> tuple[bool, str]:
    """Whether every verify result passed, and a summary of the worst error."""
    failed = [r.name for r in results if r.status != PASS]
    summary = f"worst {max(r.worst_error or 0.0 for r in results):.2e}"
    if failed:
        summary += f", not passed: {failed}"
    return not failed, summary


def test_criterion_1_recursion_vs_closed_form():
    """Seven closed forms (s4 included) match the recursions to 1e-8 relative
    for n <= 1e4.

    The gap is scaled by the largest moment of its row: a cell whose exact
    value is identically zero (third moments of a symmetric law) carries
    recursion rounding noise proportional to its sibling moments, so a
    bound decoupled from that scale is not meaningful in double precision.
    Cells that are not tiny relative to their row must also meet the strict
    per-cell relative tolerance.
    """
    rel_tol = 1e-8
    started = time.monotonic()
    results = check_closed_form_vs_recursion(
        alphas=(0.6, 0.75, 0.9, 1.0), dists=TEST_DISTS, n_max=10_000, rel_tol=rel_tol,
    )
    elapsed = time.monotonic() - started
    ok, worst = _verdict(results)
    report(
        1,
        ok and elapsed < 10.0,
        f"closed forms vs recursions, 4 alphas x 3 laws, n<=1e4: {worst} "
        f"scaled gap (tol {rel_tol}), {elapsed:.1f}s (< 10 s)",
    )


def test_criterion_2_brute_force_oracle():
    """The count chain's exact law equals the recursions to 1e-12 of each
    row's largest moment for n <= 1000, and to 1e-12 absolute for n <= 6."""
    tol = 1e-12
    alphas = (0.0, 0.3, 0.5, 0.75, 1.0)
    dists = (("rademacher", RADEMACHER), ("discrete(-0.5,1)", TWO_POINT))
    started = time.monotonic()
    results = check_brute_force(alphas=alphas, dists=dists, n_max=1000, rel_tol=tol)
    elapsed = time.monotonic() - started
    ok, worst = _verdict(results)
    # the first rows of a chain run and of the recursion do not depend on
    # n_max, so the tables to 6 are the first rows of those checked above
    worst_abs = max(
        float(np.abs(
            brute_force_moments(dist, alpha, 6).values
            - exact_moments_upto(moment_set(dist), alpha, 6).values
        ).max())
        for alpha in alphas
        for _, dist in dists
    )
    report(
        2,
        ok and worst_abs <= tol and elapsed < 5.0,
        f"count chain vs recursion, 5 alphas x 2 laws: n<=1000 {worst} row-scaled gap, "
        f"n<=6 {worst_abs:.2e} absolute gap (tol {tol}), {elapsed:.1f}s (< 5 s)",
    )


def test_criterion_3_degenerate_limits_exact():
    """At alpha = 1 the limit moments equal (0, M2, M3, M4) exactly."""
    for label, dist in TEST_DISTS:
        ms = moment_set(dist)
        limits = limit_q_moments(ms, 1.0)
        assert limits.q1 == 0.0, label
        assert limits.q2 == ms.M2, label
        assert limits.q3 == ms.M3, label
        assert limits.q4 == ms.M4, label
    report(3, True, "alpha=1 limit moments equal (0, M2, M3, M4) bit-exactly, all laws")


@pytest.mark.slow
def test_criterion_4_rademacher_three_quarters():
    """Limit values, Monte Carlo at n=3000, and convergence at n=1e5."""
    alpha = 0.75
    ms = moment_set(RADEMACHER)
    limits = limit_q_moments(ms, alpha)
    assert limits.q2 == pytest.approx(4.0 / math.sqrt(math.pi), rel=1e-13)
    assert limits.q2 == pytest.approx(2.256758, abs=5e-7)
    assert limits.q3 == 0.0
    assert limits.q4 == 9.75

    n_mc, replicates = 3000, 100_000
    sums = simulate_batch(RADEMACHER, alpha, n_mc, replicates, 0x5EED, [n_mc])
    estimates, stderrs = empirical_q_moments(sums, replicates, [n_mc], alpha)
    table_mc = exact_moments_upto(ms, alpha, n_mc)
    exacts, _ = compare_with_exact(estimates, stderrs, table_mc, [n_mc], alpha)
    mc_report = []
    for p in (2, 4):
        est, stderr, exact = (float(a[0, p - 1]) for a in (estimates, stderrs, exacts))
        budget = max(3.0 * stderr, 0.03 * abs(exact))
        gap = abs(est - exact)
        assert gap <= budget, (p, gap, budget)
        mc_report.append(f"p={p}: |{est:.4f}-{exact:.4f}| <= {budget:.4f}")

    n_big = 100_000
    table = exact_moments_upto(ms, alpha, n_big)
    s2, s4 = (float(table.column(name)[n_big - 1]) for name in ("s2", "s4"))
    gap2 = abs(s2 * float(n_big) ** (-2 * alpha) - limits.q2) / limits.q2
    gap4 = abs(s4 * float(n_big) ** (-4 * alpha) - limits.q4) / limits.q4
    assert gap2 <= 0.01, gap2
    assert gap4 <= 0.02, gap4
    report(
        4,
        True,
        "rademacher alpha=3/4: q2=4/sqrt(pi), q4=9.75; MC(1e5 paths, n=3000) "
        + "; ".join(mc_report)
        + f"; exact n=1e5 gaps q2 {gap2:.2%} (<=1%), q4 {gap4:.2%} (<=2%)",
    )


def test_criterion_5_gamma_identities():
    """500 random gamma-sum cases vs direct sums, and 100 recursion specs:
    the blocked scan vs the gamma-ratio solution."""
    keys = replicate_keys(777, 0, 4000)
    worst_sum = 0.0
    accepted = 0
    i = 0
    while accepted < 500:
        a = 4.0 * uniform_draws(keys[i : i + 1], 0)[0]
        b = 4.0 * uniform_draws(keys[i : i + 1], 1)[0]
        n = 1 + int(uniform_draws(keys[i : i + 1], 2)[0] * 1000)
        i += 1
        if abs(b - a - 1.0) < 0.05 or abs(b - a - 2.0) < 0.05:
            continue
        accepted += 1
        linear = gamma_sum_linear(a, b, n)
        direct = gamma_sum_linear_direct(a, b, n)
        worst_sum = max(worst_sum, abs(linear - direct) / max(abs(direct), 1e-300))
        weighted = gamma_sum_weighted(a, b, n)
        direct_w = gamma_sum_weighted_direct(a, b, n)
        worst_sum = max(worst_sum, abs(weighted - direct_w) / max(abs(direct_w), 1e-300))
    assert worst_sum <= 1e-10

    worst_solver = 0.0
    for j in range(100):
        kj = replicate_keys(778 + j, 0, 1)
        beta = 0.05 + 3.95 * uniform_draws(kj, 0)[0]
        b1 = 0.1 + 1.9 * uniform_draws(kj, 1)[0]
        n = 2 + int(uniform_draws(kj, 2)[0] * 398)
        c = 3.0 * uniform_draws(replicate_keys(900 + j, 0, n - 1), 0)
        oracle = solve_recursion(beta, b1, c)
        scan = _solve_recursion_scan(beta, b1, c)[-1]
        worst_solver = max(worst_solver, abs(scan - oracle) / abs(oracle))
    assert worst_solver <= 1e-10
    report(
        5,
        True,
        f"gamma sums: 500 random cases worst rel {worst_sum:.2e} (<=1e-10); "
        f"recursion scan vs gamma-ratio solution: 100 specs worst rel "
        f"{worst_solver:.2e} (<=1e-10)",
    )


def test_criterion_6_stochastic_invariants():
    """Marginal moments, conditional continuations, reconstruction, Lp bound."""
    # marginal preservation: E(X_t^p) = E(xi^p) within 4 SE, t <= 100, p <= 4
    marginal_ok, marginal_worst = _verdict(
        check_marginal_moments(replicates=100_000, seed=404, z_max=4.0)
    )
    assert marginal_ok, marginal_worst

    # conditional continuations within 3 SE, including the +1,+1,+1 prefix
    ms_rad = moment_set(RADEMACHER)
    cases = [
        (RADEMACHER, 0.6, WalkState.from_steps([1.0, 1.0, 1.0], ms_rad)),
        (RADEMACHER, 0.0, WalkState.from_steps([1.0, 1.0, 1.0], ms_rad)),
        (TWO_POINT, 0.75, simulate_path(TWO_POINT, 0.75, 5, 3)),
    ]
    for dist, alpha, prefix in cases:
        predicted, observed, stderr = conditional_continuation_test(
            prefix, dist, alpha, 100_000, 505
        )
        assert (np.abs(z_score(observed - predicted, stderr)) <= 3.0).all(), (dist.kind, alpha)
    # E(X_4 - m1 | +1,+1,+1), the first of the six
    predicted, observed, stderr = conditional_continuation_test(
        cases[0][2], RADEMACHER, 0.6, 100_000, 505
    )
    assert predicted[0] == pytest.approx(0.6)
    assert abs(observed[0] - 0.6) <= 3.0 * stderr[0]

    # martingale reconstruction to 1e-10 relative on every path
    recon_ok, recon_worst = _verdict(
        check_martingale_reconstruction(n=2000, seeds=(11, 12, 13), rel_tol=1e-10)
    )
    assert recon_ok, recon_worst

    # E|eps_t|^p <= 2^p E|xi|^p (p = 2, 4) at every sampled t, for
    # Rademacher and Bernoulli(0.3) steps (the bound has wide slack)
    bound_ok, bound_worst = _verdict(check_epsilon_bound(replicates=10_000, seed=606))
    assert bound_ok, bound_worst
    report(
        6,
        True,
        f"marginal moments {marginal_worst} |z| (<=4); continuations within 3 SE; "
        f"reconstruction {recon_worst} (<=1e-10); "
        f"max E|eps|^p / (2^p E|xi|^p) {bound_worst} (<=1)",
    )


def test_criterion_7_byte_determinism(tmp_path):
    """Identical seeds give byte-identical CSVs across runs and threads."""
    argv = [
        "simulate", "--dist", "rademacher", "--alpha", "0.75", "--n", "600",
        "--replicates", "4000", "--checkpoints", "300,600", "--seed", "0xfeed",
    ]
    blobs = []
    for tag, workers in (("a", 1), ("b", 3), ("c", 1)):
        path = tmp_path / f"{tag}.csv"
        assert cli_main(argv + ["--out", str(path), "--workers", str(workers)]) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2]

    for tag in ("x", "y"):
        path = tmp_path / f"{tag}-exact.csv"
        assert cli_main([
            "exact", "--dist", '{"kind":"bernoulli","p":0.3}', "--alpha", "0.9",
            "--n", "200", "--out", str(path),
        ]) == 0
    assert (tmp_path / "x-exact.csv").read_bytes() == (tmp_path / "y-exact.csv").read_bytes()
    report(7, True, "simulate CSV byte-identical for workers 1/3 and across reruns")
