import importlib
import pkgutil

import pytest

import mcfield

MODULES = ["mcfield"] + sorted(f"mcfield.{info.name}"
                               for info in pkgutil.iter_modules(mcfield.__path__))


def test_every_module_is_listed():
    assert MODULES == ["mcfield", "mcfield.calculus", "mcfield.chart", "mcfield.cli",
                       "mcfield.expr", "mcfield.hamiltonian", "mcfield.lagrangian",
                       "mcfield.modelfile", "mcfield.numsim", "mcfield.unified"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a star import raises on a listed name that does not resolve; the
    # package's names are its submodules, which the star import loads
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(importlib.import_module(name).__all__) <= set(namespace)
