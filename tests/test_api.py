"""Every name a fwlab module exports in ``__all__`` exists and is used.

A stale ``__all__`` entry breaks only ``from fwlab.<module> import *``,
which nothing else in the suite does.  A public name whose only caller
is its own test is dead weight in the package; that holds for the
public methods and properties of exported classes as well.
"""

import ast
import importlib
import inspect
import pkgutil
from functools import cached_property
from pathlib import Path

import pytest

import fwlab

MODULES = ["fwlab"] + [f"fwlab.{m.name}" for m in pkgutil.iter_modules(fwlab.__path__)]
ROOT = Path(__file__).resolve().parent.parent

TEST_ONLY_EXPORTS = {
    # the reader the golden-file tests load committed series with
    "fwlab.ncalg.poly_from_json_obj",
    # the involution and grading primitives the property and acceptance suites use
    "fwlab.ncalg.NCPoly.adjoint",
    "fwlab.ncalg.NCPoly.even_part",
}


def test_every_module_is_covered():
    assert {"fwlab.eriksen", "fwlab.labcli", "fwlab.matfun", "fwlab.ncalg"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


def _names_read(directory: Path, with_strings: bool = False) -> set[str]:
    """Names loaded in a directory's modules, bare or as attributes, outside
    their own top-level definition; with ``with_strings``, string constants too."""
    names = set()
    for path in directory.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            found = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    found.add(node.attr)
                elif with_strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                    found.add(node.value)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                found.discard(stmt.name)
            names |= found
    return names


def _public_members(name: str) -> list[str]:
    """Exports of a module, each followed by the public methods and
    properties its classes define; fields (dataclass defaults, NamedTuple
    getters) are neither, so they are left out."""
    module = importlib.import_module(name)
    members = []
    for export in getattr(module, "__all__", []):
        members.append(export)
        cls = getattr(module, export)
        if not inspect.isclass(cls) or cls.__module__ != name:
            continue
        members += [
            f"{export}.{attr}"
            for attr, value in vars(cls).items()
            if not attr.startswith("_")
            and (inspect.isfunction(value) or isinstance(value, (property, cached_property)))
        ]
    return members


def test_every_export_has_a_caller_besides_its_tests():
    # perfbench binds traced functions by their names as strings
    read = _names_read(ROOT / "src" / "fwlab") | _names_read(ROOT / "perfbench", with_strings=True)
    unused = [
        f"{name}.{member}"
        for name in MODULES
        for member in _public_members(name)
        if member.rpartition(".")[2] not in read
    ]
    assert sorted(unused) == sorted(TEST_ONLY_EXPORTS)
