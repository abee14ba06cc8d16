"""Benchmark of erw: one workload, one seed, tracing off or on.

    python3 perfbench/run.py --workload mc --seed 1 --trace 0
    python3 perfbench/run.py --workload all            # every workload

Run from the repository root; the package is imported from ./src, so nothing
needs installing.  With --trace 0 the run reports the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.  The seed feeds
`--seed` of the mc and verify operations; analytic does not use it.  Each
run measures for the `run_seconds` of BENCHMARK.json, so every commit is
measured alike; `--seconds` is accepted only with that value.

`setup_s` is the cost every CLI call pays: a fresh interpreter that imports
erw.cli and calls build_parser(), timed against a bare interpreter that
imports only what erw.cli builds on (see setup_seconds).
The workload itself runs in one more fresh interpreter (worker.py), so its
peak resident memory is its own.  Every operation is gated for correctness;
its output bytes are hashed, and a hash that differs between rounds of the
run, or from an earlier run of the same sources and seed (kept in
perfbench/out/hashes.json), counts as a failure.  The first run on a set of
sources and a seed only records its hashes.

The run prints one line per metric (name, value, unit), writes everything
it measured to perfbench/out/, and prints the result as one JSON object on
the last line of stdout.  Exit code 0: every operation passed; 1: one
failed; 2: the run could not be made (no ./src/erw, bad arguments).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
#: the seed of the recorded baseline; recheck a claim on another one
DEFAULT_SEED = 1
#: pairs of set-up probes (erw, then bare) per run
SETUP_PROBES = 15
#: the bare probe: the modules erw.cli builds on, without erw
BARE_PROBE = "import argparse, csv, json, numpy"
#: median wall time of the bare probe on the baseline machine, idle
BARE_PROBE_S = 0.18
#: source digests whose output hashes are kept, the most recently used
KEPT_DIGESTS = 16
#: whole-run budget in seconds, kept under the 180 s a run may take
BUDGET_S = 170.0
COUNT_UNITS = ("count", "bytes", "bytes-computed")
#: units of the figures printed beside the gated metrics
EXTRA_UNITS = {"msteps_per_s": "Msteps/s"}
PROBE = (
    "import sys; sys.path.insert(0, 'src'); import erw.cli; "
    "erw.cli.build_parser(); print(erw.cli.__file__)"
)


def _extra_unit(name: str) -> str:
    stem = name.split(".")[0]
    return EXTRA_UNITS.get(stem, "s" if stem.endswith("_s") else "1")


class BenchError(RuntimeError):
    """The run could not be made; exit code 2 and no result."""


def _inside(path: str, directory: Path) -> bool:
    return Path(path).resolve().is_relative_to(directory.resolve())


def _probe(code: str) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    return time.perf_counter() - start, proc


def setup_seconds() -> tuple[float, float]:
    """erw's set-up time in seconds of the baseline machine, and the raw median.

    Each of SETUP_PROBES pairs times PROBE and, right after it, BARE_PROBE.
    The median ratio of the two, times BARE_PROBE_S, is the set-up time.
    Other tenants of a shared machine slow process start-up far more than
    computation: on the 2-core virtual machine this was built on, raw
    medians moved by a quarter between two sets of runs, and two busy
    processes slowed PROBE by 70%.  Both probes slow alike, so the ratio
    moved by 10% under the same load.  Work that erw adds to its import or
    its parser still shows in full.
    """
    ratios, times = [], []
    for _ in range(SETUP_PROBES):
        erw_s, proc = _probe(PROBE)
        if proc.returncode != 0 or not _inside(proc.stdout.strip(), ROOT / "src"):
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        bare_s, proc = _probe(BARE_PROBE)
        if proc.returncode != 0:
            raise BenchError(f"bare probe failed: {proc.stderr.strip()[-500:]}")
        ratios.append(erw_s / bare_s)
        times.append(erw_s)
    return statistics.median(ratios) * BARE_PROBE_S, statistics.median(times)


def run_worker(worker_args: list[str], budget: float) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), *worker_args]
    try:
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload did not finish within {budget:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest() -> str:
    """Digest of everything that decides the outputs: the package and this harness."""
    digest = hashlib.sha256()
    paths = sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py"), *HERE.glob("*.json")])
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def check_against_earlier_runs(
    digest: str, key_prefix: str, fingerprints: dict[str, str]
) -> list[str]:
    """Compare output hashes and counts with earlier runs of the same sources and seed.

    The record is keyed by source digest and keeps the KEPT_DIGESTS most
    recently used, so runs that alternate between two commits each compare
    with earlier runs of their own commit.
    """
    store_path = OUT / "hashes.json"
    try:
        store = json.loads(store_path.read_text())
    except (OSError, ValueError):
        store = {}
    record = store.pop(digest, {})
    store[digest] = record  # the most recently used digest goes last
    for stale in list(store)[:-KEPT_DIGESTS]:
        del store[stale]
    problems = []
    for name, value in fingerprints.items():
        if record.setdefault(f"{key_prefix}/{name}", value) != value:
            problems.append(f"{name}: differs from an earlier run of the same sources and seed")
    tmp = store_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1))
    os.replace(tmp, store_path)
    return problems


def run(workload: str, seed: int, seconds: float, trace: int, spec: dict) -> int:
    """Measure one workload; print its metrics and, last, its JSON result line."""
    started = time.perf_counter()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    count_names = [m["name"] for m in wanted if m["unit"] in COUNT_UNITS]
    try:
        setup = None if trace else setup_seconds()
        worker_args = [
            "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--counts", ",".join(count_names),
        ]
        result = run_worker(worker_args, BUDGET_S - (time.perf_counter() - started))
        measured = dict(result["metrics"])
        if setup is not None:
            measured["setup_s"], measured["setup_wall_s"] = setup
        missing = [m["name"] for m in wanted if m["name"] not in measured]
        if missing:
            raise BenchError(f"not measured: {', '.join(missing)}")
    except (BenchError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed = result["attempted"], result["failed"]
    problems = list(result["problems"])
    fingerprints = dict(result["hashes"])
    if trace:
        counts = {name: measured[name] for name in count_names}
        fingerprints["counts"] = hashlib.sha256(
            json.dumps(counts, sort_keys=True).encode()
        ).hexdigest()
    late = check_against_earlier_runs(source_digest(), f"{workload}/{seed}", fingerprints)
    attempted += len(late)
    failed += len(late)
    problems += late

    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    extras = {"fail_ratio": {"value": failed / attempted, "unit": "1"}}
    if not trace:
        extras.update(
            (name, {"value": value, "unit": _extra_unit(name)})
            for name, value in measured.items() if name not in metrics
        )

    print(f"workload {workload}, seed {seed}, trace {trace}: "
          f"{result['rounds']} rounds in {result['measured_s']:.1f} s")
    for name, entry in {**metrics, **extras}.items():
        print(f"  {name:44s} {entry['value']:<24.10g} {entry['unit']}")
    if trace:
        print(f"  layer self times sum to the traced wall within "
              f"{abs(measured['trace.unattributed_s']):.3g} s "
              f"(tracing overhead {measured['trace_overhead_s']:.3g} s)")
    for op, layers in result["op_layer_self"].items():
        total = sum(layers.values())
        split = ", ".join(f"{layer} {100 * t / total:.1f}%" for layer, t in layers.items() if t)
        print(f"  {op}: self time by layer: {split}")
    for problem in problems:
        print(f"  FAILED {problem}")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "rounds": result["rounds"], "attempted": attempted, "failed": failed,
        "problems": problems, "hashes": result["hashes"], "metrics": metrics,
        "extras": extras, "op_layer_self": result["op_layer_self"],
        "op_walls": result["op_walls"], "op_cpus": result["op_cpus"],
        "op_refs": result["op_refs"],
    }
    out_path = OUT / f"{workload}-seed{seed}-trace{trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (ROOT / "src" / "erw" / "__init__.py").is_file():
            raise BenchError(f"no erw package under {ROOT / 'src'}; run from the repository root")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names + ["all"]:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or all")
        if args.seed < 0:
            raise BenchError("--seed must be >= 0")
        seconds = float(spec["run_seconds"])
        if args.seconds is not None and args.seconds != seconds:
            raise BenchError(f"--seconds must equal run_seconds of BENCHMARK.json ({seconds:g})")
        OUT.mkdir(exist_ok=True)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workloads = names if args.workload == "all" else [args.workload]
    return max(run(w, args.seed, seconds, args.trace, spec) for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
