"""Every name a fwlab module exports in ``__all__`` exists.

A stale ``__all__`` entry breaks only ``from fwlab.<module> import *``,
which nothing else in the suite does.
"""

import importlib
import pkgutil

import pytest

import fwlab

MODULES = ["fwlab"] + [f"fwlab.{m.name}" for m in pkgutil.iter_modules(fwlab.__path__)]


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
