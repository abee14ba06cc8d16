"""Span tracing of the erw layers, installed from outside the package.

A traced function is rebound, only while a traced operation runs, in every
loaded ``erw`` module that holds it.  ``from .x import y`` copies the binding
into the importing module, so rebinding only the home module would miss
callers such as ``erw.cli.simulate_batch`` or ``erw.verify.uniform_draws``.
Methods are rebound on their class.

Spans (name, start, end, parent, info) are kept in memory and folded into a
profile after each operation; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _size(value) -> int:
    # arrays and numpy scalars carry .size; a Python number is one element
    return getattr(value, "size", 1)


def _gamma_elements(args, kwargs) -> int:
    # erw passes equal shapes or an array with a scalar, never two shapes
    # that broadcast to something larger than both
    return max(_size(_arg(args, kwargs, 0, "n")), _size(_arg(args, kwargs, 1, "delta")))


def _batch_shape(args, kwargs) -> tuple[int, int]:
    return int(_arg(args, kwargs, 2, "n")), int(_arg(args, kwargs, 3, "replicates"))


def _walk_steps(args, kwargs) -> int:
    n, replicates = _batch_shape(args, kwargs)
    return n * replicates


@dataclass(frozen=True)
class Target:
    """One traced callable: ``attr`` in module ``home``, or ``Class.method``.

    ``info`` maps the call's arguments to the work it was given (elements,
    rows, steps); it runs inside the span, so it must stay cheap.
    """

    layer: str
    home: str
    attr: str
    info: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.attr.rsplit('.', 1)[-1]}"


VERIFY_CHECKS = (
    "check_moment_identities",
    "check_shift_covariance",
    "check_sampling_moments",
    "check_gamma_sums",
    "check_recursion_solver",
    "check_constant_recursion",
    "check_martingale_scale_recurrence",
    "check_gamma_tail",
    "check_closed_form_vs_recursion",
    "check_brute_force",
    "check_rademacher_degeneracy",
    "check_fourth_moment_asymptote",
    "check_moment_convergence",
    "check_limit_consistency",
    "check_marginal_moments",
    "check_martingale_property",
    "check_epsilon_bound",
    "check_martingale_reconstruction",
    "check_conditional_continuation",
)

TARGETS = (
    Target("rng", "erw.rng", "uniform_draws", lambda a, k: _size(_arg(a, k, 0, "keys"))),
    Target("rng", "erw.rng", "replicate_keys", lambda a, k: int(_arg(a, k, 2, "count"))),
    Target("distributions", "erw.distributions", "inverse_cdf",
           lambda a, k: _size(_arg(a, k, 1, "u"))),
    Target("simulate", "erw.simulate", "simulate_batch", _batch_shape),
    Target("simulate", "erw.simulate", "BatchAccumulator.add_chunk",
           lambda a, k: int(_arg(a, k, 2, "count"))),
    Target("simulate", "erw.simulate", "empirical_q_moments"),
    Target("simulate", "erw.simulate", "simulate_path", lambda a, k: int(_arg(a, k, 2, "n"))),
    Target("simulate", "erw.simulate", "batch_epsilon_moments", _walk_steps),
    Target("simulate", "erw.simulate", "marginal_moment_sums", _walk_steps),
    Target("simulate", "erw.simulate", "martingale_diagnostics"),
    Target("moments", "erw.moments", "exact_moments_upto",
           lambda a, k: int(_arg(a, k, 2, "n_max"))),
    Target("moments", "erw.moments", "closed_form_moments",
           lambda a, k: _size(_arg(a, k, 2, "n"))),
    Target("moments", "erw.moments", "ExactMomentTable.write_csv", lambda a, k: len(a[0])),
    Target("gammatools", "erw.gammatools", "log_gamma_ratio", _gamma_elements),
    Target("gammatools", "erw.gammatools", "martingale_scale",
           lambda a, k: _size(_arg(a, k, 0, "n"))),
    Target("gammatools", "erw.gammatools", "gamma_sum_linear"),
    Target("gammatools", "erw.gammatools", "gamma_sum_weighted"),
    Target("verify", "erw.verify", "run_all"),
    *(Target("verify", "erw.verify", check) for check in VERIFY_CHECKS),
    Target("cli", "erw.cli", "main"),
)

LAYERS = ("rng", "distributions", "simulate", "moments", "gammatools", "verify", "cli")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    info: object
    outermost: bool  # no enclosing span of the same name


@dataclass
class FunctionStats:
    calls: int = 0
    seconds: float = 0.0  # inclusive, outermost spans only
    self_seconds: float = 0.0
    infos: list = field(default_factory=list)


@dataclass
class Profile:
    """Per-function and per-layer totals of a set of spans."""

    functions: dict[str, FunctionStats] = field(default_factory=dict)
    layer_self: dict[str, float] = field(default_factory=lambda: dict.fromkeys(LAYERS, 0.0))
    step_matrix_bytes: int = 0

    def stats(self, name: str) -> FunctionStats:
        return self.functions.setdefault(name, FunctionStats())

    def add(self, other: "Profile") -> None:
        for name, theirs in other.functions.items():
            mine = self.stats(name)
            mine.calls += theirs.calls
            mine.seconds += theirs.seconds
            mine.self_seconds += theirs.self_seconds
            mine.infos.extend(theirs.infos)
        for layer, seconds in other.layer_self.items():
            self.layer_self[layer] += seconds
        self.step_matrix_bytes = max(self.step_matrix_bytes, other.step_matrix_bytes)


def _resolve(target: Target):
    """(owner object, attribute name) of the target's home definition."""
    module = importlib.import_module(target.home)
    owner_path, _, attr = target.attr.rpartition(".")
    owner = getattr(module, owner_path) if owner_path else module
    return owner, attr


class Tracer:
    """Records spans around the TARGETS while `active()` is entered.

    Bindings are found once, when the tracer is built, so every erw module
    must be imported before it.
    """

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._bindings: list[tuple[object, str, object, object]] = []
        erw_modules = [
            module for name, module in sys.modules.items()
            if module is not None and (name == "erw" or name.startswith("erw."))
        ]
        self.layer_of = {}
        for target in TARGETS:
            try:
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
            except AttributeError:
                continue  # a later version of the package dropped it
            wrapper = self._wrap(target, original)
            self.layer_of[target.name] = target.layer
            if isinstance(owner, type):
                self._bindings.append((owner, attr, original, wrapper))
                continue
            for module in erw_modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bindings.append((module, key, original, wrapper))

    def _wrap(self, target: Target, fn):
        spans = self.spans
        stack = self._stack
        open_by_name = self._open
        name = target.name
        info_of = target.info
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            depth = open_by_name.get(name, 0)
            open_by_name[name] = depth + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                open_by_name[name] = depth
                info = info_of(args, kwargs) if info_of is not None else None
                spans[index] = (name, start, end, parent, info, depth == 0)

        return traced

    @contextlib.contextmanager
    def active(self):
        """Rebind every target to its traced wrapper, and restore on exit."""
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)
        try:
            yield self
        finally:
            for owner, key, original, _ in self._bindings:
                setattr(owner, key, original)

    def collect(self) -> Profile:
        """Fold the recorded spans into a profile and forget them."""
        if self._stack or any(span is None for span in self.spans):
            raise RuntimeError("collect() called with spans still open")
        spans = [Span(*span) for span in self.spans]
        child = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child[span.parent] += span.end - span.start
        profile = Profile()
        for index, span in enumerate(spans):
            duration = span.end - span.start
            own = duration - child[index]
            stats = profile.stats(span.name)
            stats.calls += 1
            stats.self_seconds += own
            if span.outermost:
                stats.seconds += duration
            if span.info is not None:
                stats.infos.append(span.info)
            profile.layer_self[self.layer_of[span.name]] += own
            if span.name == "simulate.add_chunk" and span.parent >= 0:
                parent = spans[span.parent]
                if parent.name == "simulate.simulate_batch":
                    n, _ = parent.info
                    # computed from the shape, not measured: n x width float64
                    profile.step_matrix_bytes = max(
                        profile.step_matrix_bytes, n * span.info * 8
                    )
        self.spans.clear()
        return profile

