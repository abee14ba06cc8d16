"""The invariant suites themselves: green path, skip path, negative controls."""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import erw.gammatools
import erw.moments
import erw.simulate
import erw.verify
from erw import StepDistribution, derive_moment_set, log_gamma_ratio, moment_set
from erw.verify import (
    FAIL,
    PASS,
    SKIP,
    check_brute_force,
    check_closed_form_vs_recursion,
    check_cluster_engine,
    check_constant_recursion,
    check_gamma_sums,
    check_limit_coefficients,
    check_martingale_property,
    check_martingale_scale_recurrence,
    check_moment_identities,
    check_rademacher_degeneracy,
    check_recursion_solver,
    check_shift_covariance,
    run_all,
)


def test_run_all_fast_passes():
    results = run_all(fast=True)
    bad = [r for r in results if r.status == FAIL]
    assert not bad, [(r.name, r.worst_error, r.detail) for r in bad]


@pytest.mark.parametrize("tolerances", [{"zmax": 100.0}, {"z_max": math.nan}, {"z_max": 0.0}],
                         ids=["unknown-name", "nan", "zero"])
def test_run_all_refuses_bad_tolerances(tolerances, monkeypatch):
    monkeypatch.setattr(erw.verify, "check_moment_identities", None)  # nothing may run
    with pytest.raises(ValueError, match="tolerance"):
        run_all(fast=True, tolerances=tolerances)


def _call_plan(monkeypatch, **kwargs) -> list[tuple[str, dict]]:
    """(check, keywords) of every call `run_all(**kwargs)` makes, with each
    `check_*` of erw.verify replaced by a recorder that returns no result."""
    calls = []

    def recorder(name):
        def check(**keywords):
            calls.append((name, keywords))
            return []
        return check

    for name in dir(erw.verify):
        if name.startswith("check_"):
            monkeypatch.setattr(erw.verify, name, recorder(name))
    assert run_all(**kwargs) == []
    return calls


def test_run_all_call_plan(monkeypatch):
    # the order, sizes, seeds and limits of every suite; the checks are
    # looked up as run_all runs, so the recorders see every call
    fast = _call_plan(monkeypatch, fast=True, seed=7)
    assert fast == [
        ("check_moment_identities", {"n_laws": 100, "seed": 7}),
        ("check_shift_covariance", {"n_laws": 20, "seed": 8}),
        ("check_sampling_moments", {"n_samples": 100_000, "seed": 9, "z_max": 4.0}),
        ("check_gamma_sums", {"n_cases": 50, "seed": 10}),
        ("check_recursion_solver", {"n_specs": 10, "seed": 11}),
        ("check_constant_recursion", {}),
        ("check_martingale_scale_recurrence", {"n_max": 10_000}),
        ("check_closed_form_vs_recursion", {"n_max": 1000}),
        ("check_brute_force", {"n_max": 10}),
        ("check_rademacher_degeneracy", {"n_max": 1000}),
        ("check_limit_coefficients", {}),
        ("check_marginal_moments", {"replicates": 10_000, "seed": 12, "z_max": 4.0}),
        ("check_martingale_property", {"replicates": 2000, "seed": 13, "z_max": 4.0}),
        ("check_epsilon_bound", {"replicates": 1000, "seed": 14}),
        ("check_martingale_reconstruction", {"n": 200}),
        ("check_conditional_continuation", {"n_continuations": 10_000, "seed": 15, "z_max": 3.0}),
        ("check_cluster_engine", {"replicates": 500, "seed": 16, "z_max": 4.0}),
    ]
    full = _call_plan(
        monkeypatch, fast=False, seed=7, tolerances={"z_max": 5.0, "continuation_z_max": 4.0}
    )
    assert full == [
        ("check_moment_identities", {"n_laws": 1000, "seed": 7}),
        ("check_shift_covariance", {"n_laws": 200, "seed": 8}),
        ("check_sampling_moments", {"n_samples": 1_000_000, "seed": 9, "z_max": 5.0}),
        ("check_gamma_sums", {"n_cases": 500, "seed": 10}),
        ("check_recursion_solver", {"n_specs": 100, "seed": 11}),
        ("check_constant_recursion", {}),
        ("check_martingale_scale_recurrence", {"n_max": 100_000}),
        ("check_closed_form_vs_recursion", {"n_max": 10_000}),
        ("check_brute_force", {"n_max": 100}),
        ("check_rademacher_degeneracy", {"n_max": 10_000}),
        ("check_limit_coefficients", {}),
        ("check_marginal_moments", {"replicates": 100_000, "seed": 12, "z_max": 5.0}),
        ("check_martingale_property", {"replicates": 20_000, "seed": 13, "z_max": 5.0}),
        ("check_epsilon_bound", {"replicates": 10_000, "seed": 14}),
        ("check_martingale_reconstruction", {"n": 2000}),
        ("check_conditional_continuation", {"n_continuations": 100_000, "seed": 15, "z_max": 4.0}),
        ("check_cluster_engine", {"replicates": 5000, "seed": 16, "z_max": 5.0}),
    ]


def test_tolerance_limits_over_defaults():
    assert erw.verify.tolerance_limits({}) == {"z_max": 4.0, "continuation_z_max": 3.0}
    assert erw.verify.tolerance_limits({"z_max": 5}) == {"z_max": 5.0, "continuation_z_max": 3.0}


def test_results_serialise():
    result = check_gamma_sums(n_cases=20)[0]
    payload = result.as_dict()
    assert payload["name"] == "gamma_sums_vs_direct"
    assert payload["status"] in (PASS, FAIL)
    assert isinstance(payload["worst_error"], float)


def test_singular_alpha_is_skip_not_fail():
    results = check_closed_form_vs_recursion(alphas=(0.5, 1.0 / 3.0, 0.75), n_max=200)
    by_status = {}
    for r in results:
        by_status.setdefault(r.status, []).append(r.name)
    assert len(by_status.get(SKIP, [])) == 6  # two singular alphas x three laws
    assert all("alpha=0.75" in name for name in by_status.get(PASS, []))
    assert FAIL not in by_status


def test_tampered_m3_fails_naming_identity():
    good = moment_set(StepDistribution.bernoulli(0.3))
    tampered = dataclasses.replace(good, M3=-good.M3)
    results = check_moment_identities(moment_sets=[("tampered", tampered)])
    assert results[0].status == FAIL
    assert "M12 - 2*m1*M2 == M3" in results[0].detail


def test_tampered_sign_constraint_fails():
    good = moment_set(StepDistribution.uniform(0.0, 1.0))
    tampered = dataclasses.replace(good, M2=-1.0)
    results = check_moment_identities(moment_sets=[("tampered", tampered)])
    assert results[0].status == FAIL


def test_clean_moment_sets_pass():
    sets = [
        (kind, moment_set(dist))
        for kind, dist in (
            ("rademacher", StepDistribution.rademacher()),
            ("uniform", StepDistribution.uniform(-2.0, 5.0)),
            ("gaussian", StepDistribution.gaussian(1.0, 0.5)),
        )
    ]
    results = check_moment_identities(moment_sets=sets)
    assert results[0].status == PASS


def test_individual_suites_small():
    assert all(r.status == PASS for r in check_shift_covariance(n_laws=40))
    assert all(r.status == PASS for r in check_gamma_sums(n_cases=60))
    assert all(r.status == PASS for r in check_recursion_solver(n_specs=20))
    assert all(r.status == PASS for r in check_brute_force(alphas=(0.0, 0.75, 1.0)))
    assert all(r.status == PASS for r in check_rademacher_degeneracy(n_max=500))
    assert all(r.status == PASS for r in check_limit_coefficients())


def test_martingale_scale_recurrence_full_size():
    (result,) = check_martingale_scale_recurrence()
    assert result.status == PASS, result


def _patch_martingale_scale(monkeypatch, mutate):
    """Replace verify's a_n so that its results pass through `mutate`."""
    real = erw.verify.martingale_scale

    def mutant(n, alpha):
        return mutate(np.asarray(n), real(n, alpha))

    monkeypatch.setattr(erw.verify, "martingale_scale", mutant)


def test_recurrence_mutant_fails(monkeypatch):
    # a relative jump of 1e-13 from n = 5000 on breaks one step of the recurrence
    _patch_martingale_scale(monkeypatch, lambda n, a: np.where(n >= 5000, a * (1.0 + 1e-13), a))
    (result,) = check_martingale_scale_recurrence(n_max=10_000)
    assert result.status == FAIL and result.worst_error > 1e-14


def test_array_a1_mutant_fails(monkeypatch):
    # a uniform rescale keeps every ratio a_{n+1}/a_n; only the check of
    # a_1 against 1/Gamma(1 + alpha) sees it
    _patch_martingale_scale(monkeypatch, lambda n, a: a * (1.0 + 1e-13))
    (result,) = check_martingale_scale_recurrence(n_max=10_000)
    assert result.status == FAIL and "a_1 wrong" in result.detail


def test_gamma_sum_mutant_fails(monkeypatch):
    real = erw.verify.gamma_sum_linear
    monkeypatch.setattr(
        erw.verify, "gamma_sum_linear", lambda a, b, n: real(a, b, n) * (1.0 + 1e-9)
    )
    (result,) = check_gamma_sums(n_cases=20)
    assert result.status == FAIL and result.worst_error > 1e-10


_UNIFORM = moment_set(StepDistribution.uniform(0.0, 1.0))
_NS = np.arange(1.0, 50.0)


def test_shared_sum_form_mutant_fails(monkeypatch):
    # a 1e-9 error in the one closed form of the two gamma sums fails their
    # check and reaches the s4 closed form, which is built on the same form
    real = erw.gammatools.scaled_gamma_sums
    before = erw.moments.closed_form_s4(_UNIFORM, 0.75, _NS)

    def mutant(a, b, n, f_a, f_b1):
        return tuple(v * (1.0 + 1e-9) for v in real(a, b, n, f_a, f_b1))

    monkeypatch.setattr(erw.gammatools, "scaled_gamma_sums", mutant)
    monkeypatch.setattr(erw.moments, "scaled_gamma_sums", mutant)
    (result,) = check_gamma_sums(n_cases=50)
    assert result.status == FAIL and result.worst_error > 1e-10
    assert not np.array_equal(erw.moments.closed_form_s4(_UNIFORM, 0.75, _NS), before)


def test_constant_form_mutant_fails(monkeypatch):
    # a 1e-9 error in the one form of the constant-recursion solution fails
    # the shortcut check and reaches the quadratic closed forms built on it
    real = erw.gammatools.unit_constant_solution
    before = erw.moments.closed_form_moments(_UNIFORM, 0.75, _NS).s2

    def mutant(beta, n, f_beta):
        return real(beta, n, f_beta) * (1.0 + 1e-9)

    monkeypatch.setattr(erw.verify, "unit_constant_solution", mutant)
    monkeypatch.setattr(erw.moments, "unit_constant_solution", mutant)
    (result,) = check_constant_recursion()
    assert result.status == FAIL and result.worst_error > 1e-10
    after = erw.moments.closed_form_moments(_UNIFORM, 0.75, _NS).s2
    assert not np.array_equal(after, before)


def test_scan_chaining_mutant_fails(monkeypatch):
    # a 1e-9 relative error in the block starts that the scan chains fails
    # the solver check and moves the moment tables, alone or in a batch,
    # which the same scan makes; the closed forms' check, at a tolerance
    # the true tables pass (their gap is ~1e-14), fails with them
    source = inspect.getsource(erw.moments._solve_level)
    assert source.count("starts.append(x)") == 1
    namespace = dict(vars(erw.moments))
    exec(source.replace("starts.append(x)", "starts.append(x * (1.0 + 1e-9))"), namespace)
    batch = [(_UNIFORM, 0.4), (_UNIFORM, 0.75), (moment_set(StepDistribution.rademacher()), 1.0)]
    closed = {"alphas": (0.4, 0.75), "n_max": 200, "rel_tol": 1e-10}
    assert all(r.status == PASS for r in check_closed_form_vs_recursion(**closed))
    before = erw.moments.exact_moments_upto(_UNIFORM, 0.75, 200).values
    before_batch = erw.moments.exact_moment_tables(batch, 200)[1].values
    monkeypatch.setattr(erw.moments, "_solve_level", namespace["_solve_level"])
    (result,) = check_recursion_solver(n_specs=20)
    assert result.status == FAIL and result.worst_error > 1e-10
    after = erw.moments.exact_moments_upto(_UNIFORM, 0.75, 200).values
    assert not np.array_equal(after, before)
    after_batch = erw.moments.exact_moment_tables(batch, 200)[1].values
    assert not np.array_equal(after_batch, before_batch)
    results = check_closed_form_vs_recursion(**closed)
    assert results and all(r.status == FAIL for r in results), results


def test_s4_term_mutant_fails(monkeypatch):
    # the leading term M4 R4 / Gamma(1+4a) of the s4 closed form scaled by 1 + 1e-6
    real = erw.verify.closed_form_s4

    def mutant(ms, alpha, n):
        lead = ms.M4 * np.exp(log_gamma_ratio(n, 4.0 * alpha)) / math.gamma(1.0 + 4.0 * alpha)
        return real(ms, alpha, n) + 1e-6 * lead

    monkeypatch.setattr(erw.verify, "closed_form_s4", mutant)
    results = check_closed_form_vs_recursion(alphas=(0.4, 0.75), n_max=200)
    assert results and all(r.status == FAIL for r in results), results


def _limit_coefficient_statuses():
    return {r.name: r.status for r in check_limit_coefficients()}


def _assert_fails_where_nonzero(statuses, q):
    # every entry FAILs except where the mutated q is exactly 0: q3 of the
    # symmetric Rademacher law
    spared = [name for name in statuses if q == "q3" and name.endswith(",rademacher]")]
    assert len(spared) == (8 if q == "q3" else 0)
    assert statuses == {name: PASS if name in spared else FAIL for name in statuses}


def _scale_limit_moment(monkeypatch, q):
    # a limit moment of limit_q_moments 1e-9 off, as verify sees it
    clean = check_limit_coefficients()
    assert len(clean) == 24 and all(r.status == PASS for r in clean), clean
    real = erw.verify.limit_q_moments

    def mutant(ms, alpha):
        limits = real(ms, alpha)
        return dataclasses.replace(limits, **{q: getattr(limits, q) * (1.0 + 1e-9)})

    monkeypatch.setattr(erw.verify, "limit_q_moments", mutant)
    _assert_fails_where_nonzero(_limit_coefficient_statuses(), q)


@pytest.mark.parametrize("q", ["q2", "q3"])
def test_limit_coefficients_mutant_fails(q, monkeypatch):
    _scale_limit_moment(monkeypatch, q)


def test_q4_mutant_fails(monkeypatch):
    _scale_limit_moment(monkeypatch, "q4")


def test_k4_mutant_fails(monkeypatch):
    # K4 is the paper's formula, not the closed forms' limit point, so a K4
    # 1e-9 off reaches verify through limit_q_moments' q4 and fails every entry
    assert set(_limit_coefficient_statuses().values()) == {PASS}
    real = erw.moments.fourth_moment_coefficient
    monkeypatch.setattr(
        erw.moments,
        "fourth_moment_coefficient",
        lambda ms, alpha: real(ms, alpha) * (1.0 + 1e-9),
    )
    _assert_fails_where_nonzero(_limit_coefficient_statuses(), "q4")


def test_martingale_coefficient_mutant_fails(monkeypatch):
    # eps_t with alpha/t in place of alpha/(t-1) still has mean 0, so only
    # the second moment against the exact table sees it (|z| 9.8 here)
    source = inspect.getsource(erw.simulate._martingale_differences)
    assert source.count("alpha / t_less_1[lo:]") == 1
    namespace = dict(vars(erw.simulate))
    exec(source.replace("alpha / t_less_1[lo:]", "alpha / (t_less_1[lo:] + 1.0)"), namespace)
    kwargs = {"replicates": 2000, "seed": 57}
    assert [r.status for r in check_martingale_property(**kwargs)] == [PASS, PASS]
    mutant = namespace["_martingale_differences"]
    monkeypatch.setattr(erw.simulate, "_martingale_differences", mutant)
    first, second = check_martingale_property(**kwargs)
    assert (first.name, first.status) == ("martingale_property", PASS)
    assert (second.name, second.status) == ("martingale_second_moment", FAIL)
    assert second.worst_error > 8.0


def _exact_table_mutant(monkeypatch, text, mutant):
    """Rebind `verify.exact_moment_tables` to a copy of it whose source has
    its one `text` replaced by `mutant`."""
    source = inspect.getsource(erw.moments.exact_moment_tables)
    assert source.count(text) == 1
    namespace = dict(vars(erw.moments))
    exec(source.replace(text, mutant), namespace)
    monkeypatch.setattr(erw.verify, "exact_moment_tables", namespace["exact_moment_tables"])


def test_s2t_law_map_mutant_fails_only_non_two_point_laws(monkeypatch):
    # M3 in place of M112 in the s2t column: for a two-point law T~ is a
    # multiple of S~, so M112 = M3 for the laws of the brute-force entries,
    # which pass; only the uniform closed forms see it
    _exact_table_mutant(monkeypatch, "(ms.M112, e3)", "(ms.M3, e3)")
    failed = [r.name for r in check_closed_form_vs_recursion(n_max=1000) if r.status == FAIL]
    assert len(failed) == 6 and all(name.endswith(",uniform(0,1)]") for name in failed), failed
    assert all(r.status == PASS for r in check_brute_force(n_max=10))


def test_s4_sequence_forcing_mutant_fails(monkeypatch):
    # 6a E S2 in place of 6a E S3 in E S4's forcing: a law-free fault, so
    # every law's s4 moves, and all 18 closed-form entries and the
    # brute-force entries see it wherever a = alpha / n is not 0
    _exact_table_mutant(monkeypatch, "product(6.0, s3)", "product(6.0, s2)")
    closed = [r.status for r in check_closed_form_vs_recursion(n_max=1000)]
    assert closed == [FAIL] * 18
    brute = {r.name: r.status for r in check_brute_force(n_max=10)}
    assert len(brute) == 10
    assert {name for name, status in brute.items() if status == PASS} == {
        "brute_force_vs_recursion[alpha=0.0,rademacher]",
        "brute_force_vs_recursion[alpha=0.0,discrete(-1,2)]",
    }


@pytest.mark.parametrize("seed", [91, 10, 11, 12, 2033])
def test_cluster_engine_passes_and_fails_e4_mutant(seed, monkeypatch):
    # 2 M2^2 in place of 3 M2^2 in E4 = M4 S4 + 3 M2^2 (S2^2 - S4) moves
    # both p = 4 estimates by |z| 6.9-15.5 at the full 5000 walks; the
    # clean engine passes with |z| <= 2.7 and the step matrices agree
    clean = check_cluster_engine(seed=seed)
    assert [r.status for r in clean] == [PASS] * 4, clean
    source = inspect.getsource(erw.simulate._conditional_moments)
    assert source.count("3.0 * ms.M2 * ms.M2") == 1
    namespace = dict(vars(erw.simulate))
    exec(source.replace("3.0 * ms.M2 * ms.M2", "2.0 * ms.M2 * ms.M2"), namespace)
    monkeypatch.setattr(erw.simulate, "_conditional_moments", namespace["_conditional_moments"])
    mutant = {r.name: r.status for r in check_cluster_engine(seed=seed)}
    assert mutant == {
        "cluster_engine_paths[bernoulli(0.3)]": PASS,
        "cluster_engine_moments[bernoulli(0.3)]": FAIL,
        "cluster_engine_paths[discrete(-1,2)]": PASS,
        "cluster_engine_moments[discrete(-1,2)]": FAIL,
    }


def test_cluster_engine_paths_fail_a_count_restarted_per_block(monkeypatch):
    # a label kernel whose count of fresh steps starts again at each block
    # of draws: the path check's walks take two blocks at n = 100, so it
    # fails at --fast sizes, where the clean engine passes
    fast = {"replicates": erw.verify._FULL_SIZES["check_cluster_engine"] // 10, "seed": 2024 + 9}
    assert erw.simulate._block_rows(erw.verify._PATH_WALKS) < 100
    assert [r.status for r in check_cluster_engine(**fast)] == [PASS] * 4
    source = inspect.getsource(erw.simulate._fill_walks)
    text = "_preset_ordinals(block, fresh, first == 0)"
    assert source.count(text) == 1
    namespace = dict(vars(erw.simulate))
    exec(source.replace(text, "_preset_ordinals(block, fresh, True)"), namespace)
    monkeypatch.setattr(erw.simulate, "_fill_walks", namespace["_fill_walks"])
    paths = [r for r in check_cluster_engine(**fast) if r.name.startswith("cluster_engine_paths")]
    assert [r.status for r in paths] == [FAIL, FAIL], paths
