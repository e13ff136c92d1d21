"""The package namespace is lazy: `import signedposets` loads no submodule,
and each public name or submodule is imported on first access."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signedposets

SRC = str(Path(signedposets.__file__).parents[1])


def test_import_loads_no_submodule():
    code = "import sys, signedposets; print([m for m in sys.modules if 'signedposets.' in m])"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=SRC), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_every_public_name_is_its_defining_modules_object():
    assert len(signedposets.__all__) == len(set(signedposets.__all__)) == 65
    for name in signedposets.__all__:
        value = getattr(signedposets, name)
        module = sys.modules[value.__module__]
        assert module.__name__.startswith("signedposets.")
        assert getattr(module, name) is value, name


def test_dir_lists_every_public_name():
    assert set(signedposets.__all__) <= set(dir(signedposets))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from signedposets import *", namespace)
    assert {name: namespace[name] for name in signedposets.__all__} == {
        name: getattr(signedposets, name) for name in signedposets.__all__
    }


@pytest.mark.parametrize("name", [
    "catalog", "chains", "cli", "ehrhart", "errors", "geometry", "gorenstein", "halfspaces",
    "jordan", "linalg", "perms", "posetfile", "posets", "roots", "verify",
])
def test_submodules_resolve_by_attribute(name):
    assert getattr(signedposets, name) is importlib.import_module(f"signedposets.{name}")


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        signedposets.no_such_name
    assert not hasattr(signedposets, "maximal_chains")
