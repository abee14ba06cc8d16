"""The benchmark's workloads: their operations and correctness gates.

Each workload is a round of two operations, `op1` and `op2`, run one at a
time by one caller.  Operations go through the public erw API or
``erw.cli.main`` and look the callee up at call time, so the tracer's
rebinding reaches them.  Gates run outside the timed region.

  mc        op1: `erw simulate`, Rademacher steps at alpha = 0.75
            op2: `erw simulate`, Gaussian steps at alpha = 0.3
  analytic  op1: library exact_moments_upto, then closed_form_moments
            op2: `erw exact --compare`, then plain `erw exact`
  verify    op1: `erw verify --fast --seed <seed>`
            op2: `erw verify --fast --seed <seed + 1>`

`analytic` is deterministic and does not use the seed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import erw
import erw.cli

#: mc gate: every row's |z| against the exact recursion.
Z_MAX = 5.0
#: analytic gate: the acceptance tolerance of recursion against closed form.
RELERR_MAX = 1e-8

MC_N = 3000
MC_CHECKPOINTS = "1000,3000"
#: op name -> (--dist, alpha, replicates).  The two alphas cover the
#: superdiffusive regime (with a `limit` column) and the diffusive one.
MC_OPS = {
    "rademacher": ("rademacher", 0.75, 2000),
    "gaussian": ('{"kind":"gaussian","mean":0,"stddev":1}', 0.3, 1000),
}
#: relative stderr of the scaled E(S~^2) that `q2_tta_s` extrapolates to
TTA_TARGET = 0.01

ANALYTIC_DIST = '{"kind":"discrete","points":[-1,2],"weights":[0.6,0.4]}'
ANALYTIC_ALPHA = 0.75
LIBRARY_N = 200_000
CLI_N = 10_000
_CF_FIELDS = ("s2", "st", "s3", "su", "t2", "s2t")

#: Monte Carlo z limits of the verify workload: 5 for the checks that share
#: `z_max` (as in the mc gate) and 4 for the continuation test.  The 4-sigma
#: marginal-moment and martingale checks take the worst |z| over hundreds of
#: statistics and fail by chance on about one seed in twenty; the 3-sigma
#: continuation test on about one in eighty.  perfbench/BASELINE.md lists the
#: failures.  The analytic tolerances are pinned in erw.verify and unaffected.
VERIFY_CONFIG = Path(__file__).with_name("verify_tolerances.json")


@dataclass
class Outcome:
    """Gate verdict of one operation run.

    `figures` are reported beside the timings (throughput, accuracy);
    `counts` feed the per-layer metrics (rows and bytes written, checks).
    """

    output: bytes
    attempted: int = 1
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    figures: dict[str, float] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)

    def fail(self, problem: str) -> None:
        self.problems.append(problem)
        self.failed = max(self.failed, 1)


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object, float], Outcome]

    def measure(self, sampler=None) -> tuple[float, float, Outcome]:
        """Wall and CPU seconds of one run, and the gate's verdict on its result.

        A `sampler` (worker.SpeedSampler) runs while the operation does; the
        time it spent is taken out of both figures.
        """
        start, start_cpu = time.perf_counter(), time.process_time()
        error = None
        if sampler is not None:
            sampler.start()
        try:
            result = self.run()
        except Exception:  # a crash is a failed operation; keep measuring
            error = traceback.format_exc(limit=-3)
        finally:
            if sampler is not None:
                sampler.stop()
        wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
        if sampler is not None:
            wall, cpu = wall - sampler.spent_wall, cpu - sampler.spent_cpu
        if error is not None:
            outcome = Outcome(b"")
            outcome.fail(error)
            return wall, cpu, outcome
        return wall, cpu, self.check(result, wall)


def run_cli(argv: list[str]) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            code = erw.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            code = exc.code
    return code, buffer.getvalue()


def _cli_outcome(text: str) -> Outcome:
    outcome = Outcome(text.encode())
    outcome.counts["rows_written"] = text.count("\n")
    outcome.counts["bytes_written"] = len(outcome.output)
    return outcome


def _check_simulate(name: str, replicates: int, result, wall: float) -> Outcome:
    code, text = result
    outcome = _cli_outcome(text)
    if code != 0:
        outcome.fail(f"exit code {code}")
        return outcome
    rows = list(csv.DictReader(line for line in text.splitlines() if not line.startswith("#")))
    expected = 4 * len(MC_CHECKPOINTS.split(","))
    if len(rows) != expected:
        outcome.fail(f"{len(rows)} rows, expected {expected}")
    for row in rows:
        z = float(row["z"])
        if not abs(z) <= Z_MAX:
            outcome.fail(f"|z| = {abs(z):g} > {Z_MAX:g} at n={row['n']} p={row['p']}")
        if row["n"] == str(MC_N) and row["p"] == "2":
            relative_stderr = float(row["stderr"]) / float(row["estimate"])
            outcome.figures[f"q2_tta_s.{name}"] = wall * (relative_stderr / TTA_TARGET) ** 2
    outcome.figures[f"msteps_per_s.{name}"] = MC_N * replicates / wall / 1e6
    return outcome


def _mc_ops(seed: int) -> list[Op]:
    ops = []
    for name, (dist, alpha, replicates) in MC_OPS.items():
        argv = [
            "simulate", "--dist", dist, "--alpha", repr(alpha), "--n", str(MC_N),
            "--replicates", str(replicates), "--checkpoints", MC_CHECKPOINTS,
            "--seed", str(seed), "--workers", "1",
        ]
        ops.append(Op(name, partial(run_cli, argv), partial(_check_simulate, name, replicates)))
    return ops


def _library_run(ms) -> tuple:
    table = erw.exact_moments_upto(ms, ANALYTIC_ALPHA, LIBRARY_N)
    closed = erw.closed_form_moments(
        ms, ANALYTIC_ALPHA, np.arange(1, LIBRARY_N + 1, dtype=np.float64)
    )
    return table, closed


def _check_library(result, wall: float) -> Outcome:
    table, closed = result
    rec = np.column_stack([table.column(name) for name in _CF_FIELDS])
    form = np.column_stack([np.atleast_1d(getattr(closed, name)) for name in _CF_FIELDS])
    # the CLI's relerr: deviation over the row's largest moment magnitude
    row_scale = np.maximum(np.abs(rec), np.abs(form)).max(axis=1, keepdims=True)
    relerr = np.abs(rec - form) / np.maximum(row_scale, 1e-300)
    output = rec.tobytes() + table.column("s4").tobytes() + form.tobytes()
    outcome = Outcome(output)
    worst = float(relerr.max())
    outcome.figures["cf_relerr_max"] = worst
    if rec.shape[0] != LIBRARY_N or not worst <= RELERR_MAX:
        outcome.fail(f"recursion vs closed form relerr {worst:g} > {RELERR_MAX:g}")
    return outcome


def _run_exact_cli(compare_argv: list[str], plain_argv: list[str]) -> tuple:
    return run_cli(compare_argv), run_cli(plain_argv)


def _check_exact_cli(result, wall: float) -> Outcome:
    (code, text), (plain_code, plain_text) = result
    # rows and bytes count what cli formats itself; the plain table is
    # formatted by ExactMomentTable.write_csv and counted by the tracer
    outcome = _cli_outcome(text)
    outcome.output += plain_text.encode()
    if code != 0 or plain_code != 0:
        outcome.fail(f"exit codes {code} (--compare) and {plain_code} (plain)")
        return outcome
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    columns = [header.index(f"relerr_{name}") for name in _CF_FIELDS]
    plain = list(csv.reader(io.StringIO(plain_text)))
    width = len(plain[0])
    worst = 0.0
    recursion = [header[:width]]
    for row in reader:
        recursion.append(row[:width])
        worst = max(worst, *(float(row[i]) for i in columns))
    outcome.figures["cli_relerr_max"] = worst
    if len(recursion) != CLI_N + 1:
        outcome.fail(f"{len(recursion) - 1} rows, expected {CLI_N}")
    if not worst <= RELERR_MAX:
        outcome.fail(f"relerr {worst:g} > {RELERR_MAX:g}")
    # both paths print the same recursion values with the same decimals
    if plain != recursion:
        outcome.fail("plain `erw exact` differs from the recursion columns of --compare")
    return outcome


def _analytic_ops(seed: int) -> list[Op]:
    del seed  # the analytic path has no randomness
    ms = erw.moment_set(erw.StepDistribution.from_json(json.loads(ANALYTIC_DIST)))
    argv = ["exact", "--dist", ANALYTIC_DIST, "--alpha", repr(ANALYTIC_ALPHA), "--n", str(CLI_N)]
    return [
        Op("library", partial(_library_run, ms), _check_library),
        Op("cli_exact", partial(_run_exact_cli, [*argv, "--compare"], argv), _check_exact_cli),
    ]


def _check_verify(result, wall: float) -> Outcome:
    code, text = result
    outcome = _cli_outcome(text)
    try:
        checks = json.loads(text)["checks"]
    except (ValueError, KeyError) as exc:
        outcome.fail(f"unreadable report ({exc}), exit code {code}")
        return outcome
    failed = [check["name"] for check in checks if check["status"] == "FAIL"]
    # every check is one gated operation
    outcome.attempted = len(checks)
    outcome.failed = len(failed)
    outcome.problems.extend(f"FAIL {name}" for name in failed)
    outcome.counts["checks"] = len(checks)
    outcome.counts["failed_checks"] = len(failed)
    if code != (1 if failed else 0):
        outcome.fail(f"exit code {code} with {len(failed)} failed checks")
    return outcome


def _verify_ops(seed: int) -> list[Op]:
    ops = []
    for name, op_seed in (("seed", seed), ("seed_plus_1", seed + 1)):
        argv = ["verify", "--fast", "--seed", str(op_seed), "--config", str(VERIFY_CONFIG)]
        ops.append(Op(name, partial(run_cli, argv), _check_verify))
    return ops


WORKLOADS: dict[str, Callable[[int], list[Op]]] = {
    "mc": _mc_ops,
    "analytic": _analytic_ops,
    "verify": _verify_ops,
}
