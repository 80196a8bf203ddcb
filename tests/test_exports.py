"""Every name that ``qubitcert`` or one of its modules lists in ``__all__``
exists, so ``from qubitcert.<module> import *`` cannot fail on a stale entry,
and each public function or class has one import path: its own module's."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qubitcert

MODULES = ["qubitcert"] + [
    f"qubitcert.{info.name}" for info in pkgutil.iter_modules(qubitcert.__path__)
]


def test_modules_found():
    assert {"qubitcert.extremal", "qubitcert.noise", "qubitcert.sampling"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [attr for attr in exported if not hasattr(module, attr)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_are_defined_in_their_module(name):
    module = importlib.import_module(name)
    objects = [getattr(module, attr) for attr in getattr(module, "__all__", [])]
    defined = [obj for obj in objects if inspect.isfunction(obj) or inspect.isclass(obj)]
    assert [obj.__qualname__ for obj in defined if obj.__module__ != name] == []


#: Run in a fresh interpreter, where nothing has imported a qubitcert module yet.
_IMPORT_PROBE = """
import sys
import types

def loaded():
    return sorted(m for m in sys.modules if m.startswith("qubitcert."))

import qubitcert
assert loaded() == [], loaded()
import qubitcert.witness as w
assert isinstance(w, types.ModuleType), w
assert loaded() == ["qubitcert.witness"], loaded()
"""


def test_importing_a_module_loads_only_that_module():
    src = str(Path(qubitcert.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
