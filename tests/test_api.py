"""Every public name has a production consumer or is labelled a test oracle."""

import ast
import inspect
import types
from pathlib import Path

import pytest

import erw

SRC = Path(erw.__file__).parent


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
