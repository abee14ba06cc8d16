"""Command-line front end.

Commands:
    limits    first four moments of the superdiffusive limit (JSON)
    exact     per-n table of the seven mixed moments (CSV)
    simulate  Monte Carlo scaled moments vs theory (CSV)
    verify    run every invariant suite (JSON report)
    sweep     limit moments over an alpha grid (CSV)

Every setting is declared once, in `_SETTINGS`: one parser reads its flag
and its key in the optional JSON config file alike; flags win.  Exit codes:
0 success, 1 verification failure, 2 configuration error (a bad flag
included), 3 any other error; 2 and 3 print one `error: ...` line.
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
from .gammatools import SingularParameterError, check_alpha
from .moments import (
    CSV_COLUMNS,
    RegimeError,
    closed_form_moments,
    exact_moments_bytes,
    exact_moments_upto,
    limit_q_moments,
)
from .rng import parse_seed
from .simulate import (
    batch_step_bytes,
    check_checkpoints,
    cluster_batch,
    empirical_q_moments,
)
from .verify import compare_with_exact, row_relerr, run_all, tolerance_limits

DEFAULT_SEED = 0x243F6A8885A308D3

#: Largest array memory, in bytes, that `exact` and `simulate` may request;
#: larger requests exit 2 before anything is allocated.
MAX_REQUEST_BYTES = 1 << 30

#: Most values a `lo:hi:step` alpha grid may hold; a larger grid exits 2
#: before any of it is built.
MAX_ALPHA_GRID = 1_000_000

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


def _whole(value) -> int:
    """A whole number from flag text or a JSON number: 3.0 is 3, but 2.5,
    true, null, inf and nan are refused."""
    if isinstance(value, str):
        with contextlib.suppress(ValueError):
            return int(value)
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    elif isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"must be a whole number, got {value!r}")


def _count(value) -> int:
    count = _whole(value)
    if count < 1:
        raise ConfigError(f"must be >= 1, got {count}")
    return count


def _switch(value) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"must be true or false, got {value!r}")
    return value


def _text(value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"must be a string, got {value!r}")
    return value


def _parse_alpha(value) -> float:
    if isinstance(value, bool):
        raise ConfigError(f"must be a number, got {value!r}")
    return check_alpha(value)


def _parse_dist(value) -> StepDistribution:
    if isinstance(value, str):
        text = value.strip()
        if not text.startswith("{"):
            return StepDistribution.from_json({"kind": text})
        value = json.loads(text)
    return StepDistribution.from_json(value)


def _parse_dists(value) -> list[StepDistribution]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"must be a non-empty list of distributions, got {value!r}")
    return [_parse_dist(v) for v in value]


def _parse_checkpoints(value) -> list[int]:
    if isinstance(value, str):
        value = [part for part in value.split(",") if part.strip()]
    return list(check_checkpoints([_whole(v) for v in value]))


def _parse_alphas(value) -> list[float]:
    """The sweep grid from `lo:hi:step`, `a,b,c` or a JSON list, every value
    checked, so that a bad grid exits 2 before a row is written."""
    if isinstance(value, str):
        text = value.strip()
        if ":" in text:
            parts = text.split(":")
            if len(parts) != 3:
                raise ConfigError(f"alpha range {text!r} is not of the form lo:hi:step")
            lo, hi, step = (float(part) for part in parts)
            if not (step > 0 and lo <= hi):
                raise ConfigError(f"bad alpha range {text!r}")
            span = (hi - lo) / step
            # the points lo + i*step up to hi; the 1e-9 keeps a span such as
            # 6.999999999999999 (0.25:0.95:0.1) from losing its last point
            count = math.floor(span + 1e-9) + 1 if span < MAX_ALPHA_GRID else math.inf
            if count > MAX_ALPHA_GRID:
                raise ConfigError(f"alpha grid {text!r} has more than {MAX_ALPHA_GRID} values")
            value = [round(lo + i * step, 12) for i in range(count)]
        else:
            value = [part for part in text.split(",") if part.strip()]
    try:
        return [_parse_alpha(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"alpha grid: {exc}") from exc


def _parse_tolerances(value) -> dict[str, float]:
    if not isinstance(value, dict):
        raise ConfigError("must be an object of name -> number")
    tolerance_limits(value)
    return {name: float(limit) for name, limit in value.items()}


#: Each `ExperimentConfig` field: its parser, which takes a flag's text (True
#: for a switch) or a config-file JSON value, and its flag's argparse
#: settings, or None for a setting that only a config file gives.
_SETTINGS = {
    "dist": (_parse_dist, dict(help='distribution JSON, e.g. {"kind":"bernoulli","p":0.3}')),
    "dists": (_parse_dists, None),
    "alpha": (_parse_alpha, dict(help="memory parameter in [0, 1]")),
    "n": (_count, dict(help="number of steps (or table length)")),
    "replicates": (_count, dict(help="Monte Carlo replicates")),
    "checkpoints": (_parse_checkpoints, dict(help="comma-separated ascending n values")),
    "seed": (lambda value: parse_seed(str(value)), dict(help="master seed, decimal or 0x-hex")),
    "out": (_text, dict(help="output path (default: stdout)")),
    "compare": (_switch, dict(action="store_true", help="add closed-form and relerr columns")),
    "workers": (_count, dict(help="worker threads for batches")),
    "alphas": (_parse_alphas, dict(help="grid as lo:hi:step or comma list")),
    "fast": (_switch, dict(action="store_true", help="reduced sample sizes")),
    "tolerances": (_parse_tolerances, None),
}


def _set(config: ExperimentConfig, key: str, value) -> None:
    """Parse `value`, a flag's text or a config-file value, by `key`'s rule
    and store it; a refused value is a ConfigError that names the key once."""
    if key not in _SETTINGS:
        raise ConfigError(f"unknown config key {key!r}")
    try:
        setattr(config, key, _SETTINGS[key][0](value))
    except (TypeError, ValueError) as exc:
        message = str(exc)
        if not message.startswith(f"{key}: "):
            message = f"{key}: {message}"
        raise ConfigError(message) from exc


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """The defaults, then each key of the config file, then each flag given."""
    config = ExperimentConfig()
    if args.config is not None:
        try:
            with open(args.config) as handle:
                raw = json.load(handle)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in raw.items():
            _set(config, key, value)
    for key in _SETTINGS:
        value = getattr(args, key, None)
        if value is not None:
            _set(config, key, value)
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


def _refuse_nonfinite(command: str, columns, first: int, block: np.ndarray) -> None:
    """Raise ConfigError (exit 2) at the first inf or nan cell of `block`,
    whose first row is n = `first`, naming its n and column."""
    bad = np.argwhere(~np.isfinite(block))
    if bad.size:
        row, col = bad[0]
        raise ConfigError(
            f"{command}: {columns[col]} at n = {first + row} is {float(block[row, col])}, "
            f"not finite in double precision"
        )


def exact_request_bytes(n: int, compare: bool) -> int:
    """Bytes `exact` holds at once to n rows, computed without allocating
    anything: the recursion's scan, or its (n, 7) table (56n) and, with
    --compare, the closed forms, n and six forms (56n, 88n while they are
    computed), then the CSV writer's chunk of 7 or 19 columns
    (`format_csv_bytes`).  128 KiB of the command's own small objects come
    on top."""
    from . import csvtext

    writer = csvtext.format_csv_bytes(n, 19 if compare else 7)
    held = max(112 * n + writer, 144 * n) if compare else 56 * n + writer
    return max(exact_moments_bytes(n), held) + (1 << 17)


def cmd_exact(config: ExperimentConfig) -> int:
    alpha = _require_alpha(config)
    _check_request_bytes("exact", exact_request_bytes(config.n, config.compare))
    from . import csvtext

    ms = moment_set(config.dist)
    table = exact_moments_upto(ms, alpha, config.n)
    columns = CSV_COLUMNS[1:]
    if config.compare:
        cf = closed_form_moments(ms, alpha, np.arange(1, config.n + 1, dtype=np.float64))
        forms = [getattr(cf, name) for name in _CF_FIELDS]
        columns += tuple(f"cf_{name}" for name in _CF_FIELDS)
        columns += tuple(f"relerr_{name}" for name in _CF_FIELDS)

    def cells(start, stop):
        rec = table.values[start:stop]
        if not config.compare:
            return rec
        # the closed forms cover the table's first six columns, in order
        block = np.empty((stop - start, len(columns)))
        block[:, :7] = rec
        for k, form in enumerate(forms, 7):
            block[:, k] = form[start:stop]
        block[:, 13:] = row_relerr(rec[:, :6], block[:, 7:13])
        return block

    # one pass to check every cell, so a refused table writes nothing
    for start, stop in csvtext.chunk_spans(config.n, len(columns)):
        _refuse_nonfinite("exact", columns, start + 1, cells(start, stop))
    with _open_out(config.out) as handle:
        csvtext.write_csv(handle, ("n", *columns), cells, config.n)
    return 0


def cmd_simulate(config: ExperimentConfig) -> int:
    alpha = _require_alpha(config)
    checkpoints = check_checkpoints(config.checkpoints or [config.n], config.n)
    # the label matrices and size passes, then the recursion's working set
    # for the exact table to the last checkpoint
    _check_request_bytes(
        "simulate",
        batch_step_bytes(config.n, config.replicates, checkpoints[-1], config.workers)
        + exact_moments_bytes(checkpoints[-1]),
    )
    if config.replicates < 2:
        raise ConfigError(
            f"simulate needs at least 2 replicates for a standard error, got {config.replicates}"
        )
    ms = moment_set(config.dist)
    table = exact_moments_upto(ms, alpha, checkpoints[-1])
    _refuse_nonfinite("simulate", CSV_COLUMNS[1:], 1, table.values)
    sums = cluster_batch(
        config.dist, alpha, config.n, config.replicates, config.seed,
        checkpoints, workers=config.workers,
    )
    estimate, stderr = empirical_q_moments(sums, config.replicates, checkpoints, alpha)
    exact, z = compare_with_exact(estimate, stderr, table, checkpoints, alpha)
    # one (n, p, estimate, stderr, exact, z) row per cell of the grid
    cells = np.stack((estimate, stderr, exact, z), axis=-1).tolist()
    rows = [(n, p, *cell) for n, row in zip(checkpoints, cells) for p, cell in enumerate(row, 1)]
    # overflowed conditional moments of the walks: refuse before anything
    # is written
    for n, p, est, se, _, _ in rows:
        for name, value in (("estimate", est), ("stderr", se)):
            if not math.isfinite(value):
                raise ConfigError(
                    f"simulate: {name} of p = {p} at n = {n} is {value}, "
                    f"not finite in double precision"
                )
    try:
        limits = limit_q_moments(ms, alpha)
        limit_by_p = {1: limits.q1, 2: limits.q2, 3: limits.q3, 4: limits.q4}
    except (RegimeError, SingularParameterError):
        limit_by_p = {}

    with _open_out(config.out) as handle:
        handle.write(f"# master_seed=0x{config.seed:016x}\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["n", "p", "estimate", "stderr", "n_replicates", "exact", "limit", "z"])
        for n, p, est, se, ex, zz in rows:
            limit = limit_by_p.get(p)
            writer.writerow([
                n, p, _fmt(est), _fmt(se), config.replicates,
                _fmt(ex), "" if limit is None else _fmt(limit),
                _fmt(zz) if math.isfinite(zz) else "",
            ])
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
                try:
                    limits = limit_q_moments(ms, alpha)
                except (SingularParameterError, RegimeError) as exc:
                    # alpha = 1/2 itself is outside the regime and singular
                    singular = isinstance(exc, SingularParameterError) or alpha == 0.5
                    status = "singular" if singular else "subdiffusive"
                    writer.writerow([label, _fmt(alpha), status, "", "", "", ""])
                    continue
                qs = (limits.q1, limits.q2, limits.q3, limits.q4)
                writer.writerow([label, _fmt(alpha), "ok", *(_fmt(q) for q in qs)])
    return 0


_COMMANDS = {
    "limits": cmd_limits,
    "exact": cmd_exact,
    "simulate": cmd_simulate,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


#: The help line of each command and the settings it reads.  A command
#: accepts the flags of those settings and `--config`, spelled in full: any
#: other flag, and an abbreviation such as `sweep --alpha` for `--alphas`,
#: exits 2.  A config file may hold any setting of any command.
_COMMAND_SETTINGS = {
    "limits": ("limit moments (JSON)", ("dist", "alpha", "out")),
    "exact": ("exact moment table (CSV)", ("dist", "alpha", "out", "n", "compare")),
    "simulate": ("Monte Carlo vs theory (CSV)",
                 ("dist", "alpha", "n", "replicates", "seed", "checkpoints", "out", "workers")),
    "verify": ("run invariant suites (JSON)", ("seed", "out", "fast", "tolerances")),
    "sweep": ("limit moments over an alpha grid (CSV)", ("dist", "dists", "out", "alphas")),
}


class _Parser(argparse.ArgumentParser):
    """Raises a bad flag as ConfigError, for `main` to print as its one
    error line, instead of printing usage and exiting."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="erw",
        description="Moments of the elephant random walk: exact, closed-form, limiting, Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in _COMMAND_SETTINGS.items():
        command_parser = sub.add_parser(command, help=help_text, allow_abbrev=False)
        command_parser.add_argument("--config", help="JSON config file; flags override its values")
        for key in keys:
            if _SETTINGS[key][1] is not None:
                command_parser.add_argument(f"--{key}", default=None, **_SETTINGS[key][1])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
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
