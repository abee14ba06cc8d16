"""Run one workload in a fresh interpreter and print what it measured.

    python3 perfbench/worker.py --workload mc --seed 1 --seconds 25 --trace 0

Run from the repository root; erw is imported from ./src.  The clock starts
after the import, which `setup_s` reports separately.  One untraced warm-up
round is run and gated but not timed; rounds then repeat until --seconds
have passed (at least three, or two when traced).  With --trace 1 every
operation runs twice in a round, untraced and then traced, so the per-layer
figures and the tracing overhead come from the same rounds.  The last line
of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path
from statistics import mean, median

from tracer import LAYERS, VERIFY_CHECKS, FunctionStats, Tracer

ROOT = Path.cwd()
#: iterations of the reference loop whose CPU time is one reference unit
REFERENCE_LOOPS = 200_000
#: iterations of one speed sample, and the CPU time between samples
SAMPLE_LOOPS = 10_000
SAMPLE_INTERVAL_S = 0.02


def _reference_loop(iterations: int) -> float:
    # thread_time: while a CPU-time timer is armed, Linux updates the
    # process CPU clock only at scheduler ticks, too coarse for one sample
    out = [0.0] * 1024
    start = time.thread_time()
    x = 0.0
    for i in range(1, iterations):
        x = x * 0.5 + 1.0 / i
        out[i & 1023] = x
    return time.thread_time() - start


class SpeedSampler:
    """Samples the machine's speed while an operation runs, on its own CPU.

    Other tenants of a shared virtual machine disturb every process on it in
    two ways: the hypervisor takes the CPU away (steal time, which inflates
    wall time but not CPU time), and contention makes each CPU second do
    less, which inflates both.  On the 2-core machine this benchmark was
    built on, the second changed within a second by up to 60% (a fixed loop
    took 17 ms, then 28 ms) and held for seconds to minutes, and the other
    CPU's speed followed this one's only loosely.  So a CPU-time timer
    (ITIMER_PROF) interrupts the operation every SAMPLE_INTERVAL_S, and the
    handler times SAMPLE_LOOPS iterations of a fixed pure-Python loop; the
    operation's CPU time, less the samples', is divided by the loop's time
    over the same stretch.  Against a loop timed before and after each
    operation, this halved the spread of repeated operations (coefficient
    of variation 0.08-0.13 down to 0.04-0.06).  Changes to erw do not touch
    the loop.  The operations run erw on one thread (`--workers 1`), so the
    process's CPU time is all their work.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent_cpu = 0.0
        self.spent_wall = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        wall, cpu = time.perf_counter(), time.thread_time()
        self.samples.append(_reference_loop(SAMPLE_LOOPS))
        self.spent_cpu += time.thread_time() - cpu
        self.spent_wall += time.perf_counter() - wall

    def start(self) -> None:
        self.samples, self.spent_cpu, self.spent_wall = [], 0.0, 0.0
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        if not self.samples:  # an operation shorter than one interval
            self._sample()

    def reference_units(self, cpu: float) -> float:
        """`cpu` seconds in units of REFERENCE_LOOPS iterations of the loop.

        The samples are spread evenly over the operation's CPU time, so the
        work it did is its CPU time times the mean sampled speed.
        """
        speed = mean(1.0 / s for s in self.samples)
        return cpu * speed * SAMPLE_LOOPS / REFERENCE_LOOPS

    def reference_seconds(self) -> float:
        """Median CPU time of REFERENCE_LOOPS iterations, from the samples."""
        return median(self.samples) * REFERENCE_LOOPS / SAMPLE_LOOPS


class Runner:
    def __init__(self, ops, tracer=None):
        self.ops = ops
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.hashes: dict[str, str] = {}
        self.rounds: list[dict] = []
        # a traced run compares traced with untraced wall time, which the
        # sampler's interruptions would blur; it reports no reference units
        self.sampler = None if tracer else SpeedSampler()

    def _measure(self, op, sampler=None):
        wall, cpu, outcome = op.measure(sampler)
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.problems.extend(f"{op.name}: {p}" for p in outcome.problems)
        digest = hashlib.sha256(outcome.output).hexdigest()
        first = self.hashes.setdefault(op.name, digest)
        if digest != first:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{op.name}: output hash changed within the run")
        return wall, cpu, outcome

    def round(self, keep: bool = True) -> None:
        tracer = self.tracer if keep else None
        record = {"op_wall": {}, "op_cpu": {}, "op_ref": {}, "reference": [], "figures": {},
                  "traced_wall": {}, "profile": None, "traced_counts": {},
                  "op_layer_self": {}}
        for op in self.ops:
            wall, cpu, outcome = self._measure(op, self.sampler)
            record["op_wall"][op.name] = wall
            record["op_cpu"][op.name] = cpu
            if self.sampler is not None:
                record["op_ref"][op.name] = self.sampler.reference_units(cpu)
                record["reference"].append(self.sampler.reference_seconds())
            record["figures"][op.name] = outcome.figures
            if tracer is None:
                continue
            with tracer.active():
                wall, _, outcome = self._measure(op)
            profile = tracer.collect()
            record["op_layer_self"][op.name] = dict(profile.layer_self)
            if record["profile"] is None:
                record["profile"] = profile
            else:
                record["profile"].add(profile)
            record["traced_wall"][op.name] = wall
            record["traced_counts"][op.name] = outcome.counts
        if keep:
            self.rounds.append(record)


def end_to_end(runner: Runner) -> dict[str, float]:
    rounds = runner.rounds
    metrics = {
        "wall_ref": median([sum(r["op_ref"].values()) for r in rounds]),
        "wall_s": median([sum(r["op_wall"].values()) for r in rounds]),
        "cpu_s": median([sum(r["op_cpu"].values()) for r in rounds]),
        "reference_s": median([t for r in rounds for t in r["reference"]]),
    }
    for index, op in enumerate(runner.ops, start=1):
        metrics[f"op{index}_ref"] = median([r["op_ref"][op.name] for r in rounds])
        metrics[f"op{index}_s"] = median([r["op_wall"][op.name] for r in rounds])
        figures = [r["figures"][op.name] for r in rounds]
        # a failed run may lack a figure; the failure itself is counted
        for figure in dict.fromkeys(name for f in figures for name in f):
            metrics[figure] = median([f[figure] for f in figures if figure in f])
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def _per(numerator: float, denominator: float, scale: float) -> float:
    return numerator / denominator * scale if denominator else 0.0


def round_layers(record: dict) -> dict[str, float]:
    """Per-layer figures of one traced round (all its traced operations)."""
    profile = record["profile"]

    def fn(name: str) -> FunctionStats:
        return profile.functions.get(name, FunctionStats())

    def total(count: str) -> int:
        return sum(c.get(count, 0) for c in record["traced_counts"].values())

    m: dict[str, float] = {}
    draws = sum(fn("rng.uniform_draws").infos)
    m["rng.uniform_draws.s"] = fn("rng.uniform_draws").seconds
    m["rng.draws"] = draws
    m["rng.ns_per_draw"] = _per(fn("rng.uniform_draws").self_seconds, draws, 1e9)
    m["rng.replicate_keys.s"] = fn("rng.replicate_keys").seconds

    samples = sum(fn("distributions.inverse_cdf").infos)
    m["distributions.inverse_cdf.s"] = fn("distributions.inverse_cdf").seconds
    m["distributions.samples"] = samples
    m["distributions.ns_per_sample"] = _per(
        fn("distributions.inverse_cdf").self_seconds, samples, 1e9
    )

    steps = (
        sum(n * width for n, width in fn("simulate.simulate_batch").infos)
        + sum(fn("simulate.simulate_path").infos)
        + sum(fn("simulate.batch_epsilon_moments").infos)
        + sum(fn("simulate.marginal_moment_sums").infos)
    )
    m["simulate.simulate_batch.s"] = fn("simulate.simulate_batch").seconds
    m["simulate.self_s"] = profile.layer_self["simulate"]
    m["simulate.steps"] = steps
    m["simulate.ns_per_step_self"] = _per(profile.layer_self["simulate"], steps, 1e9)
    m["simulate.add_chunk.s"] = fn("simulate.add_chunk").seconds
    m["simulate.chunks"] = fn("simulate.add_chunk").calls
    m["simulate.chunk_width"] = max(fn("simulate.add_chunk").infos, default=0)
    m["simulate.step_matrix_bytes"] = profile.step_matrix_bytes
    for name in ("empirical_q_moments", "simulate_path", "batch_epsilon_moments",
                 "marginal_moment_sums", "martingale_diagnostics"):
        m[f"simulate.{name}.s"] = fn(f"simulate.{name}").seconds
    m["simulate.simulate_path.calls"] = fn("simulate.simulate_path").calls

    rows = sum(fn("moments.exact_moments_upto").infos)
    m["moments.exact_moments_upto.s"] = fn("moments.exact_moments_upto").seconds
    m["moments.exact_moments_upto.rows"] = rows
    m["moments.us_per_row"] = _per(fn("moments.exact_moments_upto").self_seconds, rows, 1e6)
    m["moments.closed_form_moments.s"] = fn("moments.closed_form_moments").seconds
    m["moments.closed_form_moments.values"] = sum(fn("moments.closed_form_moments").infos)
    m["moments.write_csv.s"] = fn("moments.write_csv").seconds
    m["moments.write_csv.rows"] = sum(fn("moments.write_csv").infos)

    m["gammatools.log_gamma_ratio.s"] = fn("gammatools.log_gamma_ratio").seconds
    m["gammatools.log_gamma_ratio.calls"] = fn("gammatools.log_gamma_ratio").calls
    m["gammatools.log_gamma_ratio.elements"] = sum(fn("gammatools.log_gamma_ratio").infos)
    m["gammatools.martingale_scale.s"] = fn("gammatools.martingale_scale").seconds
    m["gammatools.martingale_scale.calls"] = fn("gammatools.martingale_scale").calls
    m["gammatools.gamma_sum_linear.s"] = fn("gammatools.gamma_sum_linear").seconds
    m["gammatools.gamma_sum_weighted.s"] = fn("gammatools.gamma_sum_weighted").seconds

    for check in VERIFY_CHECKS:
        m[f"verify.{check}.s"] = fn(f"verify.{check}").seconds
    m["verify.checks"] = total("checks")
    m["verify.failed"] = total("failed_checks")

    cli_rows = total("rows_written")
    m["cli.main.s"] = fn("cli.main").seconds
    m["cli.self_s"] = profile.layer_self["cli"]
    m["cli.rows_written"] = cli_rows
    m["cli.bytes_written"] = total("bytes_written")
    m["cli.us_per_row"] = _per(profile.layer_self["cli"], cli_rows, 1e6)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = profile.layer_self[layer]
    traced_wall = sum(record["traced_wall"].values())
    m["trace.wall_s"] = traced_wall
    m["trace.unattributed_s"] = traced_wall - sum(profile.layer_self.values())
    m["trace_overhead_s"] = traced_wall - sum(record["op_wall"].values())
    return m


def per_layer(runner: Runner, count_names) -> dict[str, float]:
    per_round = [round_layers(r) for r in runner.rounds]
    counts = [{name: m[name] for name in count_names if name in m} for m in per_round]
    if any(c != counts[0] for c in counts[1:]):
        runner.attempted += 1
        runner.failed += 1
        runner.problems.append("per-layer counts differ between traced rounds")
    metrics = {name: median([m[name] for m in per_round]) for name in per_round[0]}
    metrics.update(counts[0])
    return metrics


def op_layer_self(runner: Runner) -> dict[str, dict[str, float]]:
    """Median self seconds of each layer within each traced operation."""
    return {
        op.name: {
            layer: median([r["op_layer_self"][op.name][layer] for r in runner.rounds])
            for layer in runner.rounds[0]["op_layer_self"][op.name]
        }
        for op in runner.ops
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--counts", default="", help="comma-separated count metric names")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import erw

    if not Path(erw.__file__).resolve().is_relative_to(src):
        print(f"error: erw imported from {erw.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    ops = workloads.WORKLOADS[args.workload](args.seed)
    runner = Runner(ops, Tracer() if args.trace else None)
    runner.round(keep=False)
    start = time.perf_counter()
    min_rounds = 2 if args.trace else 3
    while time.perf_counter() - start < args.seconds or len(runner.rounds) < min_rounds:
        runner.round()
    elapsed = time.perf_counter() - start

    layers = {}
    if args.trace:
        metrics = per_layer(runner, [n for n in args.counts.split(",") if n])
        layers = op_layer_self(runner)
    else:
        metrics = end_to_end(runner)
    print(json.dumps({
        "op_walls": {op.name: [r["op_wall"][op.name] for r in runner.rounds] for op in ops},
        "op_cpus": {op.name: [r["op_cpu"][op.name] for r in runner.rounds] for op in ops},
        "op_refs": {op.name: [r["op_ref"].get(op.name) for r in runner.rounds] for op in ops},
        "op_layer_self": layers,
        "rounds": len(runner.rounds),
        "measured_s": elapsed,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:50],
        "hashes": runner.hashes,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
