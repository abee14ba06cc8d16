"""Every public name has a production consumer or is labelled a test oracle,
and every defaulted parameter is set by some call."""

import ast
import collections
import inspect
import types
from pathlib import Path

import pytest

import erw

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


def test_every_default_is_overridden_somewhere():
    # a default that no call in the package, the tests or the benchmark
    # overrides is a knob that changes nothing: it belongs in the body as a
    # constant.  Parameters only tests set stay; they are the hooks of
    # mutant and acceptance tests.
    calls = collections.defaultdict(list)
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
