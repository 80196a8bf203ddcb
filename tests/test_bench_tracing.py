"""The traced benchmark run wraps qubitcert functions at the module attributes
listed in bench/tracing.py; a refactor that drops one of them breaks that run."""

import importlib
import importlib.util
from pathlib import Path

import qubitcert.cli  # noqa: F401  (imports every module the list names)


def _patches():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_trace_patch_targets_resolve():
    missing = [
        (mod, attr)
        for mod, attr, _ in _patches()
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert missing == []
