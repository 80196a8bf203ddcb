"""Span recording for the traced benchmark run.

Spans are recorded from the benchmark's own files only: public functions of
``qubitcert`` are wrapped at the module attributes through which their
callers look them up, and the wrappers are installed only in a traced
process, and only around the ops chosen to be traced.  Nothing under ``src/``
changes.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (-1 at the root) and ``op`` the benchmark op index.  Spans are
kept in memory and written out once, when the run ends.
"""

from __future__ import annotations

import gzip
import json
import os
import time
from collections import defaultdict

# (module, attribute, span name).  A name ending in "." is completed from the
# call's arguments (see Tracer._wrap).  The same function wrapped at two import
# sites gets one span name, so its counts cover every caller.
PATCHES = [
    # the names cli imports
    ("qubitcert.cli", "builtin_config", "configs.builtin_config"),
    ("qubitcert.cli", "config_bloch_vectors", "configs.config_bloch_vectors"),
    ("qubitcert.cli", "load_config", "configs.load_config"),
    ("qubitcert.cli", "save_config", "configs.save_config"),
    ("qubitcert.cli", "maximize_witness", "extremal.maximize_witness"),
    ("qubitcert.cli", "save_search_result", "extremal.save_search_result"),
    ("qubitcert.cli", "apply_common_leakage", "noise.apply_common_leakage"),
    ("qubitcert.cli", "apply_readout_error", "noise.apply_readout_error"),
    ("qubitcert.cli", "coherent_leak_prob_matrix", "noise.coherent_leak_prob_matrix"),
    ("qubitcert.cli", "drift_bound", "noise.drift_bound"),
    ("qubitcert.cli", "generate_drift_ensemble", "noise.generate_drift_ensemble."),
    ("qubitcert.cli", "predicted_prob_matrix", "configs.predicted_prob_matrix"),
    ("qubitcert.cli", "analyze_record", "reports.analyze_record"),
    ("qubitcert.cli", "render_text", "reports.render_text"),
    ("qubitcert.cli", "write_scatter_csv", "reports.write_scatter_csv"),
    ("qubitcert.cli", "write_scatter_svg", "reports.write_scatter_svg"),
    ("qubitcert.cli", "load_record", "sampling.load_record"),
    ("qubitcert.cli", "save_record", "sampling.save_record"),
    ("qubitcert.cli", "simulate_record", "sampling.simulate_record"),
    ("qubitcert.cli", "witness", "witness.witness"),
    ("qubitcert.cli", "witness_variance", "witness.witness_variance"),
    # one layer further down
    ("qubitcert.reports", "estimate_per_job", "sampling.estimate_per_job"),
    ("qubitcert.reports", "estimate_pooled", "sampling.estimate_pooled"),
    ("qubitcert.sampling", "witness", "witness.witness"),
    ("qubitcert.sampling", "witness_variance", "witness.witness_variance"),
    ("qubitcert.sampling", "generate_drift_ensemble", "noise.generate_drift_ensemble."),
    ("qubitcert.witness", "adjugate", "witness.adjugate"),
    ("qubitcert.extremal", "adjugate", "witness.adjugate"),
    ("qubitcert.extremal", "minimize", "extremal.polish"),
    ("qubitcert.noise", "predicted_prob_matrix", "configs.predicted_prob_matrix"),
    ("qubitcert.noise", "prep_bloch_vectors", "bloch.prep_bloch_vectors"),
    ("qubitcert.noise", "meas_bloch_vectors", "bloch.meas_bloch_vectors"),
    ("qubitcert.configs", "prep_bloch_vectors", "bloch.prep_bloch_vectors"),
    ("qubitcert.configs", "meas_bloch_vectors", "bloch.meas_bloch_vectors"),
]


class Tracer:
    """Collects spans and counters of the ops run while it is installed."""

    def __init__(self) -> None:
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._originals: list = []

    def span(self, name: str, fn):
        """Run ``fn()`` inside a span called ``name``; return its result."""
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            label = name
            if name.endswith("."):
                # generate_drift_ensemble(config, model, seed): split by mode
                label += args[1].perturbation_mode
            result = self.span(label, lambda: fn(*args, **kwargs))
            if name == "sampling.save_record":
                # save_record(record, path): count the bytes written
                self.counters["sampling.record_bytes"] += os.path.getsize(args[1])
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every attribute in PATCHES; ``modules`` maps names to modules."""
        if self._originals:
            return
        for mod_name, attr, span_name in PATCHES:
            mod = modules[mod_name]
            fn = getattr(mod, attr)
            self._originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(span_name, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def write(self, path: str) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")


def layer_totals(spans: list) -> tuple[dict, dict, dict]:
    """Per span name: (total seconds, self seconds, call count).

    A span's self time is its duration minus that of its direct children;
    spans never overlap because ops run on one thread.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child_time[i]
        calls[name] += 1
    return total, self_time, calls


def nested_count(spans: list, name: str, ancestor: str) -> int:
    """Number of spans called ``name`` with a span ``ancestor`` above them."""
    count = 0
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                count += 1
                break
            parent = spans[parent][3]
    return count
