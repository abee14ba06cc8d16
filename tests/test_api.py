"""Every public name has a production consumer or is labelled a test oracle,
every defaulted parameter is set by some call, and scalars and arrays take
one path through each computation."""

import ast
import collections
import inspect
import types
from pathlib import Path

import numpy as np
import pytest

import erw
import erw.verify

SRC = Path(erw.__file__).parent
#: Where the calls that may set a parameter live: the package, the tests
#: and the benchmark.
_CALLERS = (SRC, SRC.parents[1] / "tests", SRC.parents[1] / "perfbench")


def _names_used_in_src() -> set[str]:
    """Every identifier read as a Name or an Attribute in a module of the
    package other than `__init__.py`."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


_USED = _names_used_in_src()
_PUBLIC = sorted(
    name for name in erw.__all__
    if name != "__version__" and not isinstance(getattr(erw, name), types.ModuleType)
)


@pytest.mark.parametrize("name", _PUBLIC)
def test_public_name_has_consumer_or_oracle_label(name):
    doc = " ".join((inspect.getdoc(getattr(erw, name)) or "").lower().split())
    assert name in _USED or "test oracle" in doc, (
        f"erw.{name} has no consumer in src/erw and no 'test oracle' label"
    )


def _defaulted_parameters():
    """Yield (function, the name a call uses, parameter, position in a call
    or None for keyword-only) for every parameter with a default of a
    function or method in the package.  A method's position leaves out self
    or cls, and `__init__` is called by its class's name."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {
            item: node.name
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for item in node.body if isinstance(item, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            cls = owner.get(node)
            static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
            skip = 1 if cls and not static else 0
            name = cls if node.name == "__init__" else node.name
            where = f"{path.stem}.{node.name}"
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                yield where, name, arg.arg, i - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield where, name, arg.arg, None


def _sets(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether `call` passes `param`, by keyword or at `position`; `*args`
    and `**kwargs` count as passing every parameter they could fill."""
    if any(k.arg in (None, param) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)
    )


def _suite_keywords() -> list[tuple[str, list[str]]]:
    """(check, keywords) of the call `run_all` makes for each row of
    `verify.SUITES`: the size keyword, seed when the row has an offset and
    z_max when it has a limit."""
    return [
        (check, [name for name in (size, offset is not None and "seed", limit and "z_max") if name])
        for check, size, offset, limit in erw.verify.SUITES
    ]


def test_every_default_is_overridden_somewhere():
    # a default that no call in the package, the tests or the benchmark
    # overrides is a knob that changes nothing: it belongs in the body as a
    # constant.  Parameters only tests set stay; they are the hooks of
    # mutant and acceptance tests.  A row of verify.SUITES counts as a call.
    calls = collections.defaultdict(list)
    for check, names in _suite_keywords():
        keywords = [ast.keyword(name, ast.Constant(None)) for name in names]
        calls[check].append(ast.Call(ast.Name(check), [], keywords))
    for directory in _CALLERS:
        for path in directory.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls[name].append(node)
    never_set = [
        f"{where}({param})" for where, name, param, position in _defaulted_parameters()
        if not any(_sets(call, param, position) for call in calls[name])
    ]
    assert never_set == []
    # a row's keyword that its check lacks makes run_all raise,
    # and a tolerance no row reads is a knob that changes nothing
    unknown = [
        f"{check}({name})" for check, names in _suite_keywords() for name in names
        if name not in inspect.signature(getattr(erw.verify, check)).parameters
    ]
    assert unknown == []
    limits = {limit for *_, limit in erw.verify.SUITES} - {None}
    assert limits == set(erw.verify._DEFAULT_TOLERANCES)


def test_run_all_calls_every_check():
    # a check that no row of verify.SUITES names drops out of `erw verify`
    # unseen, and one named twice runs twice
    tree = ast.parse((SRC / "verify.py").read_text())
    defined = {
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("check_")
    }
    named = collections.Counter(check for check, *_ in erw.verify.SUITES)
    assert defined and named == collections.Counter(defined)


def _functions_reading(module: str, attrs: tuple[str, ...]) -> list[str]:
    """`file.function` of every function in the package that reads
    `module.attr` for an attr in `attrs`."""
    return sorted({
        f"{path.stem}.{func.name}"
        for path in SRC.glob("*.py")
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr in attrs
        and getattr(node.value, "id", None) == module
    })


def test_no_scalar_branches():
    # a branch on np.isscalar or np.ndim is a second path for scalars,
    # whose last bits can drift from the array path's
    assert _functions_reading("np", ("isscalar", "ndim")) == []


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _is_call_of(node: ast.AST, name: str) -> bool:
    """Whether `node` calls `name`, as a name or an attribute."""
    return isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)
    )


def _calls_in_loops(tree: ast.AST, name: str) -> list[int]:
    """Line of every call of `name` inside a loop or a comprehension of `tree`."""
    return sorted({
        node.lineno
        for loop in ast.walk(tree) if isinstance(loop, _LOOPS)
        for node in ast.walk(loop)
        if _is_call_of(node, name)
    })


def test_verify_makes_no_table_in_a_loop():
    # a check makes all of its recursion tables with one call of
    # exact_moment_tables; a call of exact_moments_upto per table pays the
    # scan's numpy calls once per table
    assert _calls_in_loops(ast.parse("for a in x:\n    t = m.exact_moments_upto(s, a, n)\n"),
                           "exact_moments_upto") == [2]
    assert _calls_in_loops(ast.parse((SRC / "verify.py").read_text()), "exact_moments_upto") == []


def test_exact_table_reads_no_raw_moment():
    # the exact table is four law-free sequences times the law's centred
    # and mixed moments; a forcing that carries m1 or m2 cancels only in
    # exact arithmetic, so it may not come back
    tree = ast.parse(inspect.getsource(erw.moments.exact_moment_tables))
    attrs = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    assert {node.attr for node in attrs if getattr(node.value, "id", None) == "ms"} == {
        "M2", "M12", "M3", "M13", "M22", "M112", "M4"
    }
    assert not {node.attr for node in attrs} & {"m1", "m2", "m3", "m4"}


def _square_roots() -> list[str]:
    """`file.function` of every function in the package that takes a
    square root: a call of `sqrt`, or a power of 0.5."""
    return sorted({
        f"{path.stem}.{func.name}"
        for path in SRC.glob("*.py")
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if _is_call_of(node, "sqrt")
        or (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
            and getattr(node.right, "value", None) == 0.5)
    })


def test_one_reader_of_the_layout():
    # only simulate knows that column p-1 of a Monte Carlo sum holds the
    # estimate of E(.^p) and column p+3 its square: every mean and stderr
    # comes from layout_moments, which holds the one stderr formula, so the
    # only other square root is the Gaussian sampler's
    assert _square_roots() == ["distributions._norm_inv_cdf", "simulate.layout_moments"]


def test_private_attributes_read_only_on_self():
    # a record whose owner is the only one to read its private fields
    # hides something; one read elsewhere means the record hides nothing
    # and its fields should be the value passed around
    reads = sorted(
        f"{path.name}:{node.lineno} {ast.unparse(node)}"
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not (node.attr.startswith("__") and node.attr.endswith("__"))
        and getattr(node.value, "id", None) != "self"
    )
    assert reads == []


def test_fill_kernel_knows_no_law():
    # the one fill gathers uniforms (or labels) for every law, and the
    # law is applied after the gather: a law parameter or a sampling call
    # in it would be a per-law fill, and a second function that draws the
    # step words would be a second kernel beside it
    func = ast.parse(inspect.getsource(erw.simulate._fill_walks)).body[0]
    args = func.args.posonlyargs + func.args.args + func.args.kwonlyargs
    assert [a.arg for a in args] == ["out", "keys", "alpha"]
    assert not any(_is_call_of(node, "inverse_cdf") for node in ast.walk(func))
    drawing = sorted(
        node.name for node in ast.walk(ast.parse((SRC / "simulate.py").read_text()))
        if isinstance(node, ast.FunctionDef)
        and any(_is_call_of(call, "mixed_words") for call in ast.walk(node))
    )
    assert drawing == ["_fill_walks", "conditional_continuation_test"]


def test_no_math_exp():
    # every gamma ratio is exponentiated by np.exp, the array path; math.exp
    # differs from it in the last bit on some arguments
    assert _functions_reading("math", ("exp",)) == []


def _importers(module: str) -> list[str]:
    """Files of the package that import its module `module`, at any depth
    of their code."""
    def imports(node) -> bool:
        if isinstance(node, ast.ImportFrom):
            return node.module == module or (
                node.module in (None, "erw") and any(a.name == module for a in node.names)
            )
        return isinstance(node, ast.Import) and any(a.name == f"erw.{module}" for a in node.names)

    return sorted(
        path.name for path in SRC.glob("*.py")
        if any(imports(node) for node in ast.walk(ast.parse(path.read_text())))
    )


def test_one_writer_of_table_text():
    # csvtext writes every table's text: only the CLI, which decides what a
    # table's rows are, imports it, and moments computes tables without
    # knowing how they are written
    assert _importers("csvtext") == ["cli.py"]
    functions = [
        node.name for node in ast.walk(ast.parse((SRC / "moments.py").read_text()))
        if isinstance(node, ast.FunctionDef)
    ]
    assert [name for name in functions if any(
        word in name.lower() for word in ("csv", "text", "format", "write")
    )] == []


_UNIFORM = erw.moment_set(erw.StepDistribution.uniform(0.0, 1.0))
_ALPHAS = (0.0, 0.26, 0.75, 1.0)
#: n below 10, n + delta below 10 and both above, out to 1e12
_NS = (1.0, 1.5, 2.0, 5.0, 9.5, 10.0, 11.0, 13.0, 31.0, 100.0, 1e3, 1e5, 1e7, 1e12)
_CF_FIELDS = ("s2", "st", "s3", "su", "t2", "s2t")
#: (a, b) of the gamma sums: b = 0 and 1 and b - a - 1 < 0 among them
_SUM_ARGS = ((0.0, 2.5), (0.5, 3.2), (2.25, 4.0), (1.3, 0.0), (0.6, 1.0), (4.0, 0.5))

#: name -> (x -> list of results, the x to try): a scalar x must give the
#: bytes of element 0 of the same call on the one-element array [x]
_ONE_PATH = {
    "log_gamma_ratio": (
        lambda n: [
            erw.log_gamma_ratio(n, d)
            for d in (-4.0, -0.7, 0.0, 1e-9, 0.3, 1.0, 2.2, 3.6, 4.0, 1e308)
            if np.all(n + d > 0.0)
        ],
        _NS,
    ),
    "martingale_scale": (lambda n: [erw.martingale_scale(n, a) for a in _ALPHAS], _NS),
    "closed_form_moments": (
        lambda n: [
            getattr(erw.closed_form_moments(_UNIFORM, a, n), field)
            for a in _ALPHAS for field in _CF_FIELDS
        ],
        _NS,
    ),
    "closed_form_s4": (lambda n: [erw.closed_form_s4(_UNIFORM, a, n) for a in _ALPHAS], _NS),
    "gamma_sum_linear": (
        lambda n: [erw.gamma_sum_linear(a, b, n) for a, b in _SUM_ARGS],
        (1, 2, 9, 10, 11, 1000, 100_000),
    ),
    "gamma_sum_weighted": (
        lambda n: [erw.gamma_sum_weighted(a, b, n) for a, b in _SUM_ARGS],
        (1, 2, 9, 10, 11, 1000, 100_000),
    ),
    "gamma_sum_linear_direct": (
        lambda n: [erw.gamma_sum_linear_direct(a, b, n) for a, b in _SUM_ARGS],
        (1, 2, 9, 10, 11, 1000),
    ),
    "gamma_sum_weighted_direct": (
        lambda n: [erw.gamma_sum_weighted_direct(a, b, n) for a, b in _SUM_ARGS],
        (1, 2, 9, 10, 11, 1000),
    ),
    "uniform_draws": (
        lambda c: [erw.rng.uniform_draws(erw.replicate_keys(977, 3, 5), c)],
        (0, 1, 11, 2**63 - 1, 2**63, 2**64 - 1),
    ),
}


@pytest.mark.parametrize("name", _ONE_PATH)
def test_scalar_is_element_zero_of_one_element_array(name):
    call, xs = _ONE_PATH[name]
    for x in xs:
        for scalar, array in zip(call(x), call(np.array([x])), strict=True):
            assert np.shape(scalar) == np.shape(array)[1:], (name, x)
            assert np.asarray(scalar).tobytes() == array[0].tobytes(), (name, x)
