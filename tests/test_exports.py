"""Every name that ``qubitcert`` or one of its modules lists in ``__all__``
exists, so ``from qubitcert.<module> import *`` cannot fail on a stale entry."""

import importlib
import pkgutil

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
