"""The traced benchmark run wraps qubitcert functions at the module attributes
listed in bench/tracing.py; a refactor that drops one of them, or changes the
call shape a wrapper reads, breaks that run."""

import importlib
import importlib.util
import subprocess
import sys
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


def test_bench_smoke_runs_every_workload():
    """One traced op per workload: catches a call-shape break the attribute
    check above cannot see, such as the tracer reading a drift model's mode."""
    run_py = Path(__file__).resolve().parents[1] / "bench" / "run.py"
    proc = subprocess.run(
        [sys.executable, str(run_py), "--smoke"], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 and all(line.endswith("  ok") for line in lines), proc.stdout
