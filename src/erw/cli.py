"""Command-line front end.

Commands:
    limits    first four moments of the superdiffusive limit (JSON)
    exact     per-n table of the seven mixed moments (CSV)
    simulate  Monte Carlo scaled moments vs theory (CSV)
    verify    run every invariant suite (JSON report)
    sweep     limit moments over an alpha grid (CSV)

Configuration comes from an optional JSON file plus flag overrides; flags
win.  Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 any other error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .distributions import StepDistribution, moment_set
from .gammatools import SingularParameterError
from .moments import (
    CSV_COLUMNS,
    RegimeError,
    closed_form_moments,
    exact_moments_upto,
    format_csv_rows,
    limit_q_moments,
)
from .rng import parse_seed
from .simulate import batch_step_bytes, empirical_q_moments, simulate_batch, z_score
from .verify import run_all

DEFAULT_SEED = 0x243F6A8885A308D3

#: Largest array memory, in bytes, that `exact` and `simulate` may request;
#: larger requests exit 2 before anything is allocated.
MAX_REQUEST_BYTES = 1 << 30

_CF_FIELDS = CSV_COLUMNS[1:7]


class ConfigError(ValueError):
    """Bad or missing configuration; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    """Effective settings of one CLI invocation (file values + flag overrides)."""

    dist: StepDistribution = field(default_factory=StepDistribution.rademacher)
    dists: list[StepDistribution] | None = None
    alpha: float | None = None
    n: int = 1000
    replicates: int = 10_000
    checkpoints: list[int] | None = None
    seed: int = DEFAULT_SEED
    out: str | None = None
    compare: bool = False
    workers: int = 1
    alphas: list[float] | None = None
    fast: bool = False
    tolerances: dict[str, float] = field(default_factory=dict)


def _parse_dist(value) -> StepDistribution:
    if isinstance(value, StepDistribution):
        return value
    if isinstance(value, str):
        text = value.strip()
        if not text.startswith("{"):
            return StepDistribution.from_json({"kind": text})
        value = json.loads(text)
    return StepDistribution.from_json(value)


def _parse_checkpoints(value) -> list[int]:
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    points = [int(v) for v in value]
    if not points or points != sorted(points) or len(set(points)) != len(points):
        raise ConfigError(f"checkpoints must be strictly ascending, got {points}")
    return points


def _parse_alphas(value) -> list[float]:
    if isinstance(value, str):
        text = value.strip()
        if ":" in text:
            lo, hi, step = (float(part) for part in text.split(":"))
            if step <= 0 or hi < lo:
                raise ConfigError(f"bad alpha range {text!r}")
            count = int(round((hi - lo) / step))
            return [round(lo + i * step, 12) for i in range(count + 1)]
        return [float(part) for part in text.split(",") if part.strip()]
    return [float(v) for v in value]


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    config = ExperimentConfig()
    if getattr(args, "config", None):
        try:
            with open(args.config) as handle:
                raw = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in raw.items():
            if key == "dist":
                config.dist = _parse_dist(value)
            elif key == "dists":
                config.dists = [_parse_dist(v) for v in value]
            elif key == "alpha":
                config.alpha = float(value)
            elif key in ("n", "n_max"):
                config.n = int(value)
            elif key == "replicates":
                config.replicates = int(value)
            elif key == "checkpoints":
                config.checkpoints = _parse_checkpoints(value)
            elif key == "seed":
                config.seed = parse_seed(str(value))
            elif key == "out":
                config.out = str(value)
            elif key == "compare":
                config.compare = bool(value)
            elif key == "workers":
                config.workers = int(value)
            elif key == "alphas":
                config.alphas = _parse_alphas(value)
            elif key == "fast":
                config.fast = bool(value)
            elif key == "tolerances":
                if not isinstance(value, dict):
                    raise ConfigError("tolerances must be an object of name -> number")
                config.tolerances = {str(k): float(v) for k, v in value.items()}
            else:
                raise ConfigError(f"unknown config key {key!r}")

    if getattr(args, "dist", None) is not None:
        config.dist = _parse_dist(args.dist)
    if getattr(args, "alpha", None) is not None:
        config.alpha = args.alpha
    if getattr(args, "n", None) is not None:
        config.n = args.n
    if getattr(args, "replicates", None) is not None:
        config.replicates = args.replicates
    if getattr(args, "checkpoints", None) is not None:
        config.checkpoints = _parse_checkpoints(args.checkpoints)
    if getattr(args, "seed", None) is not None:
        config.seed = parse_seed(args.seed)
    if getattr(args, "out", None) is not None:
        config.out = args.out
    if getattr(args, "compare", False):
        config.compare = True
    if getattr(args, "workers", None) is not None:
        config.workers = args.workers
    if getattr(args, "alphas", None) is not None:
        config.alphas = _parse_alphas(args.alphas)
    if getattr(args, "fast", False):
        config.fast = True

    if config.n < 1:
        raise ConfigError(f"n must be >= 1, got {config.n}")
    if config.replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {config.replicates}")
    if config.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {config.workers}")
    if config.alpha is not None and not 0.0 <= config.alpha <= 1.0:
        raise ConfigError(f"alpha must be in [0, 1], got {config.alpha}")
    return config


def _require_alpha(config: ExperimentConfig) -> float:
    if config.alpha is None:
        raise ConfigError("alpha is required (use --alpha or the config file)")
    return config.alpha


@contextlib.contextmanager
def _open_out(path: str | None):
    if path is None:
        yield sys.stdout
    else:
        try:
            handle = open(path, "w", newline="")
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        with handle:
            yield handle


def _check_request_bytes(command: str, nbytes: int) -> None:
    if nbytes > MAX_REQUEST_BYTES:
        raise ConfigError(
            f"{command} would hold about {nbytes:.3g} bytes of arrays, "
            f"above the cap of {MAX_REQUEST_BYTES} bytes"
        )


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_limits(config: ExperimentConfig) -> int:
    alpha = _require_alpha(config)
    ms = moment_set(config.dist)
    try:
        limits = limit_q_moments(ms, alpha)
    except RegimeError as exc:
        raise ConfigError(str(exc)) from exc
    payload = {
        "command": "limits",
        "dist": config.dist.to_json(),
        "alpha": alpha,
        "moments": {"m1": ms.m1, "m2": ms.m2, "m3": ms.m3, "m4": ms.m4,
                    "M2": ms.M2, "M3": ms.M3, "M4": ms.M4},
        "limits": {"q1": limits.q1, "q2": limits.q2, "q3": limits.q3, "q4": limits.q4},
    }
    with _open_out(config.out) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return 0


def _refuse_nonfinite(command: str, blocks, columns) -> None:
    """Raise ConfigError (exit 2) at the first inf or nan cell of the
    (first n, block) pairs, naming its n and column."""
    for first, block in blocks:
        bad = np.argwhere(~np.isfinite(block))
        if bad.size:
            row, col = bad[0]
            raise ConfigError(
                f"{command}: {columns[col]} at n = {first + row} is {float(block[row, col])}, "
                f"not finite in double precision"
            )


def _row_relerr(rec: np.ndarray, form: np.ndarray) -> np.ndarray:
    """|rec - form| relative to each row's largest magnitude in either array.

    Moments that are exactly zero carry recursion noise proportional to
    their siblings, not to themselves, hence the row scale; the floor keeps
    an all-zero row at 0.  Rows with inf or nan give inf or nan without a
    warning; `cmd_exact` refuses them.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        row_scale = np.maximum(np.maximum(np.abs(rec), np.abs(form)).max(axis=1), 1e-300)
        return np.abs(rec - form) / row_scale[:, None]


def cmd_exact(config: ExperimentConfig) -> int:
    alpha = _require_alpha(config)
    # the (n, 7) float64 table; --compare adds as many closed-form values
    _check_request_bytes("exact", 56 * config.n * (2 if config.compare else 1))
    ms = moment_set(config.dist)
    table = exact_moments_upto(ms, alpha, config.n)
    if not config.compare:
        _refuse_nonfinite("exact", table.row_blocks(), CSV_COLUMNS[1:])
        with _open_out(config.out) as handle:
            table.write_csv(handle)
        return 0

    cf = closed_form_moments(ms, alpha, np.arange(1, config.n + 1, dtype=np.float64))
    closed = np.column_stack([getattr(cf, name) for name in _CF_FIELDS])
    columns = (
        CSV_COLUMNS[1:]
        + tuple(f"cf_{name}" for name in _CF_FIELDS)
        + tuple(f"relerr_{name}" for name in _CF_FIELDS)
    )

    def blocks():
        # the closed forms cover the table's first six columns, in order
        for first, rec in table.row_blocks():
            form = closed[first - 1 : first - 1 + len(rec)]
            yield first, np.column_stack((rec, form, _row_relerr(rec[:, :6], form)))

    # one pass to check every cell, so a refused table writes nothing
    _refuse_nonfinite("exact", blocks(), columns)
    with _open_out(config.out) as handle:
        handle.write(",".join(("n",) + columns) + "\n")
        for first, cells in blocks():
            handle.write(format_csv_rows(first, cells))
    return 0


def cmd_simulate(config: ExperimentConfig) -> int:
    alpha = _require_alpha(config)
    checkpoints = config.checkpoints or [config.n]
    if checkpoints[-1] > config.n:
        raise ConfigError(
            f"checkpoints must lie in [1, n]: {checkpoints[-1]} > {config.n}"
        )
    # the step matrices, then the (n, 7) exact table to the last checkpoint
    _check_request_bytes(
        "simulate",
        batch_step_bytes(config.n, config.replicates, checkpoints[-1], config.workers)
        + 56 * checkpoints[-1],
    )
    if config.replicates < 2:
        raise ConfigError(
            f"simulate needs at least 2 replicates for a standard error, got {config.replicates}"
        )
    ms = moment_set(config.dist)
    table = exact_moments_upto(ms, alpha, checkpoints[-1])
    _refuse_nonfinite("simulate", table.row_blocks(), CSV_COLUMNS[1:])
    acc = simulate_batch(
        config.dist, alpha, config.n, config.replicates, config.seed,
        checkpoints, workers=config.workers,
    )
    estimates = empirical_q_moments(acc, alpha)
    # overflowed power sums of the walks: refuse before anything is written
    for est in estimates:
        for name in ("estimate", "stderr"):
            value = getattr(est, name)
            if not math.isfinite(value):
                raise ConfigError(
                    f"simulate: {name} of p = {est.p} at n = {est.n} is {value}, "
                    f"not finite in double precision"
                )
    try:
        limits = limit_q_moments(ms, alpha)
        limit_by_p = {1: limits.q1, 2: limits.q2, 3: limits.q3, 4: limits.q4}
    except (RegimeError, SingularParameterError):
        limit_by_p = {}
    exact_field = {1: None, 2: "s2", 3: "s3", 4: "s4"}

    with _open_out(config.out) as handle:
        handle.write(f"# master_seed=0x{config.seed:016x}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n", "p", "estimate", "stderr", "n_replicates", "exact", "limit", "z"])
        for est in estimates:
            row = table.row(est.n)
            scale = float(est.n) ** (-est.p * alpha)
            exact = 0.0 if est.p == 1 else getattr(row, exact_field[est.p]) * scale
            z = float(z_score(est.estimate - exact, est.stderr))
            limit = limit_by_p.get(est.p)
            writer.writerow(
                [
                    est.n,
                    est.p,
                    _fmt(est.estimate),
                    _fmt(est.stderr),
                    est.n_replicates,
                    _fmt(exact),
                    "" if limit is None else _fmt(limit),
                    _fmt(z) if math.isfinite(z) else "",
                ]
            )
    return 0


def cmd_verify(config: ExperimentConfig) -> int:
    results = run_all(fast=config.fast, seed=config.seed, tolerances=config.tolerances)
    n_fail = sum(1 for r in results if r.failed)
    payload = {
        "command": "verify",
        "master_seed": f"0x{config.seed:016x}",
        "fast": config.fast,
        "checks": [r.as_dict() for r in results],
        "n_fail": n_fail,
        "passed": n_fail == 0,
    }
    with _open_out(config.out) as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    return 0 if n_fail == 0 else 1


def cmd_sweep(config: ExperimentConfig) -> int:
    alphas = config.alphas
    if not alphas:
        raise ConfigError("sweep needs an alpha grid (--alphas lo:hi:step or a,b,c)")
    dists = config.dists or [config.dist]
    with _open_out(config.out) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["dist", "alpha", "status", "q1", "q2", "q3", "q4"])
        for dist in dists:
            label = json.dumps(dist.to_json(), separators=(",", ":"))
            ms = moment_set(dist)
            for alpha in alphas:
                if not 0.0 <= alpha <= 1.0:
                    raise ConfigError(f"alpha grid value {alpha} outside [0, 1]")
                try:
                    limits = limit_q_moments(ms, alpha)
                except (SingularParameterError, RegimeError) as exc:
                    # alpha = 1/2 itself is outside the regime and singular
                    singular = isinstance(exc, SingularParameterError) or alpha == 0.5
                    status = "singular" if singular else "subdiffusive"
                    writer.writerow([label, _fmt(alpha), status, "", "", "", ""])
                    continue
                writer.writerow(
                    [
                        label,
                        _fmt(alpha),
                        "ok",
                        _fmt(limits.q1),
                        _fmt(limits.q2),
                        _fmt(limits.q3),
                        _fmt(limits.q4),
                    ]
                )
    return 0


_COMMANDS = {
    "limits": cmd_limits,
    "exact": cmd_exact,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override its values")
    common.add_argument("--dist", help='distribution JSON, e.g. {"kind":"bernoulli","p":0.3}')
    common.add_argument("--alpha", type=float, help="memory parameter in [0, 1]")
    common.add_argument("--n", type=int, help="number of steps (or table length)")
    common.add_argument("--replicates", type=int, help="Monte Carlo replicates")
    common.add_argument("--seed", help="master seed, decimal or 0x-hex")
    common.add_argument("--checkpoints", help="comma-separated ascending n values")
    common.add_argument("--out", help="output path (default: stdout)")
    common.add_argument("--workers", type=int, help="worker threads for batches")

    parser = argparse.ArgumentParser(
        prog="erw",
        description="Moments of the elephant random walk: exact, closed-form, limiting, Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("limits", parents=[common], help="limit moments (JSON)")
    exact = sub.add_parser("exact", parents=[common], help="exact moment table (CSV)")
    exact.add_argument("--compare", action="store_true",
                       help="add closed-form columns and relative errors")
    sub.add_parser("simulate", parents=[common], help="Monte Carlo vs theory (CSV)")
    verify = sub.add_parser("verify", parents=[common], help="run invariant suites (JSON)")
    verify.add_argument("--fast", action="store_true", help="reduced sample sizes")
    sweep = sub.add_parser("sweep", parents=[common], help="limit moments over an alpha grid (CSV)")
    sweep.add_argument("--alphas", help="grid as lo:hi:step or comma list")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args)
        return _COMMANDS[args.command](config)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is kept for verification failures
        print(f"error: unexpected {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
