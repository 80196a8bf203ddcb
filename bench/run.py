#!/usr/bin/env python3
"""qubitcert benchmark: one closed-loop client calling the CLI in-process.

Run from the repository root:

    python3 bench/run.py --workload footprint --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a separate run
of the same ops that reports the per-layer metrics.  The last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
line before it (``details: {...}``) records the environment and the figures
behind the metrics; the same goes to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from tracing import PATCHES, Tracer, layer_totals, nested_count
from workloads import WORKLOADS, Op, Outcome, check, digest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 6
#: Seconds the reference loop (``_spin``) takes when HostSampler times it
#: inside ops: the median over a 200 s search run on the 2-vCPU Xeon host the
#: figures in bench/README.md come from.  The end-to-end times are scaled to a
#: host where it takes this long: each is divided by the run's median loop time
#: over this (see HostSampler and bench/README.md).
REF_LOOP_S = 250e-6
#: how often HostSampler times the reference loop during the ops
SAMPLE_EVERY_S = 0.1
#: op_tail_s is the highest of these percentiles with MIN_BEYOND ops above it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10

# ROADMAP's baseline table (2 vCPU, one run each); traced figures that differ
# from these by more than 2x are listed under details.cross_check.
BASELINE = {
    "adjugate_us": 324.0,
    "drift_trial_ms": 0.61,
    "cli_import_s": 0.83,
}


def import_cli():
    """Import ``qubitcert.cli`` from this checkout's ``src/``, never from an
    installed copy."""
    sys.path.insert(0, str(SRC))
    import qubitcert.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported qubitcert from {cli.__file__}, not from {SRC}")
    return cli


def _spin() -> float:
    """Seconds a fixed pure-Python loop of about 0.2 ms takes."""
    start = time.perf_counter()
    total = 0
    for k in range(5000):
        total += k
    return time.perf_counter() - start


def move_to_quiet_cpu() -> None:
    """Move the calling thread to the CPU that currently runs a short fixed
    loop fastest, then let it run on every CPU again.

    On a shared 2-vCPU host each vCPU flips between a fast and a slow state
    (about 1.6x apart) every few seconds, as other tenants load the cores
    behind it; a run whose ops the scheduler left on a slow vCPU read 30% off
    the others.  The scheduler leaves a lone busy thread where it is, so the
    op that follows runs on the quieter CPU.  Over five 30 s drift-audit runs
    this cut the spread of the median op time from 0.16 to 0.12 of it.  Only
    the calling thread is moved, and it is released before the op starts, so
    threads and processes an op starts may use every CPU.  It costs about 1 ms
    per op, outside the op's timing.
    """
    cpus = sorted(os.sched_getaffinity(0))
    speed = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speed[cpu] = min(_spin() for _ in range(3))
    os.sched_setaffinity(0, {min(cpus, key=speed.__getitem__)})
    os.sched_setaffinity(0, cpus)


class HostSampler:
    """Times the reference loop every SAMPLE_EVERY_S seconds while active,
    from a SIGALRM handler, so on the CPU and at the moment an op runs.

    The host's speed drifts by 30% over minutes, and the loop slows with the
    ops; the run's median loop time measures that drift.  A Python signal
    handler runs in the main thread between bytecodes, so the samples fall
    inside the ops.  Each costs about 0.2 ms, 0.2% of the time it lands in.
    """

    def __init__(self) -> None:
        self.loops: list[float] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.loops.append(_spin())

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def new_workdir() -> Path:
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


# ---------------------------------------------------------------------------
# Set-up time, measured in fresh processes


def probe(workload: str, seed: int) -> int:
    """Child side of a set-up probe: import the CLI, prepare the inputs, and
    report when the first op could start."""
    move_to_quiet_cpu()
    with HostSampler() as host:
        start = time.monotonic()
        import_cli()
        imported = time.monotonic()
        work = new_workdir()
        wl = WORKLOADS[workload]
        ops = [wl.make(i, seed, work) for i in range(wl.period)]
        ready = time.monotonic()
    shutil.rmtree(work, ignore_errors=True)
    # a set-up shorter than SAMPLE_EVERY_S still gives its host factor a sample
    loops = host.loops or [_spin()]
    print(json.dumps({
        "ready": ready, "import_s": imported - start, "ops": len(ops), "loops": loops
    }))
    return 0


def _importtime_s(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from ``python -X importtime``."""
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == module:
            return int(parts[1]) / 1e6
    return 0.0


def measure_setup(workload: str, seed: int, importtime: bool) -> dict:
    """Spawn SETUP_PROBES fresh interpreters one after another.  ``setup``
    runs from spawn to the child being ready for its first op (CLOCK_MONOTONIC
    is shared between processes).  With ``importtime`` the children run under
    ``-X importtime`` to attribute the import to scipy.optimize."""
    samples = {"setup": [], "import": [], "scipy_optimize": [], "loop": []}
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(BENCH / "run.py"), "--probe", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        spawned = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        report = json.loads(proc.stdout.splitlines()[-1])
        samples["setup"].append(report["ready"] - spawned)
        samples["import"].append(report["import_s"])
        samples["loop"].extend(report["loops"])
        samples["scipy_optimize"].append(_importtime_s(proc.stderr, "scipy.optimize"))
    return samples


# ---------------------------------------------------------------------------
# Environment


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through ctypes."""
    with open("/proc/self/maps") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _src_sha256() -> str:
    """Digest of every source file, which identifies the code where the
    checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "qubitcert").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(loadavg: tuple) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "loadavg_at_start": list(loadavg),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# The closed loop


@dataclass
class Record:
    op: Op
    seconds: float
    outcome: Outcome
    traced: bool


def run_op(cli, op: Op, tracer: Tracer | None) -> tuple[float, Outcome]:
    """Run an op's CLI calls with stdout captured; time them."""
    codes, stdouts = [], []
    start = time.perf_counter()
    for argv in op.calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.span("cli.main", lambda: cli.main(argv))
            except Exception as exc:  # a crash fails this op, not the benchmark
                code = f"{type(exc).__name__}: {exc}"
        codes.append(code)
        stdouts.append(buf.getvalue())
    return time.perf_counter() - start, Outcome(codes, stdouts)


def _finish(workload: str, op: Op, outcome: Outcome, with_digest: bool) -> None:
    check(workload, op, outcome)
    if with_digest:
        try:
            outcome.digest = digest(op, outcome.stdouts)
        except OSError as exc:
            outcome.digest = f"unreadable: {exc}"


def closed_loop(cli, workload: str, seed: int, seconds: float, tracer, work: Path):
    """Warm up with op 0, then run ops 0, 1, 2, ... until ``seconds`` pass.

    Timed op 0 repeats the warm-up with the same seed; its artifacts must hash
    the same.  The loop ends on a whole period of ops, so every run holds each
    op kind equally often.  With a tracer, whole periods alternate between
    untraced and traced, so both halves see the same mix of op kinds.  Returns
    the records and HostSampler's loop times over the timed ops.
    """
    wl = WORKLOADS[workload]
    modules = {name: sys.modules[name] for name, _, _ in PATCHES}
    warm = wl.make(0, seed, work)
    move_to_quiet_cpu()
    _, reference = run_op(cli, warm, None)
    _finish(workload, warm, reference, with_digest=True)

    records = []
    # at least one whole period, and in a traced run one traced period too
    min_ops = wl.period * (2 if tracer is not None else 1)
    deadline = time.perf_counter() + seconds
    i = 0
    with HostSampler() as host:
        while i < min_ops or i % wl.period or time.perf_counter() < deadline:
            rec = _timed_op(cli, workload, wl.make(i, seed, work), tracer, modules)
            if i == 0 and rec.outcome.failure is None and rec.outcome.digest != reference.digest:
                rec.outcome.failure = "artifacts differ from the warm-up run of the same op"
            records.append(rec)
            i += 1
    return records, host.loops


def _timed_op(cli, workload: str, op: Op, tracer, modules: dict) -> Record:
    """Run one op on the quietest CPU; trace it if its period is a traced one."""
    period = WORKLOADS[workload].period
    traced = tracer is not None and (op.index // period) % 2 == 1
    move_to_quiet_cpu()
    if traced:
        tracer.op = op.index
        tracer.install(modules)
    try:
        secs, outcome = run_op(cli, op, tracer if traced else None)
    finally:
        if traced:
            tracer.uninstall()
    _finish(workload, op, outcome, with_digest=(op.index == 0))
    return Record(op, secs, outcome, traced)


# ---------------------------------------------------------------------------
# Metrics


def tail(times: list) -> tuple[float, str]:
    """Highest ladder percentile (nearest rank) with at least MIN_BEYOND ops
    above it; the slowest op when there are too few ops for any."""
    s = sorted(times)
    for q in TAIL_LADDER:
        rank = math.ceil(q / 100.0 * len(s))
        if len(s) - rank >= MIN_BEYOND:
            return s[rank - 1], f"p{q:g}"
    return s[-1], "max"


def host_factor(loop_times: list) -> float:
    """How much slower the host ran than the reference: the median time of
    the reference loop over a run, over REF_LOOP_S."""
    return statistics.median(loop_times) / REF_LOOP_S


def end_to_end(records: list, loops: list, setup: dict) -> tuple[dict, dict]:
    """The end-to-end metrics, with every time scaled to the reference host
    speed (see REF_LOOP_S); ``extra`` keeps the wall-clock figures.  ``loops``
    are HostSampler's reference-loop times during the ops."""
    times = [r.seconds for r in records]
    tail_s, tail_label = tail(times)
    hits = sum(r.outcome.hit for r in records)
    ops_host = host_factor(loops)
    setup_host = host_factor(setup["loop"])
    wall = {
        "setup_s": statistics.median(setup["setup"]),
        "op_p50_s": statistics.median(times),
        "op_tail_s": tail_s,
        "work_per_s": sum(r.op.work for r in records) / sum(times),
    }
    metrics = {
        "setup_s": (wall["setup_s"] / setup_host, "s"),
        "op_p50_s": (wall["op_p50_s"] / ops_host, "s"),
        "op_tail_s": (wall["op_tail_s"] / ops_host, "s"),
        "work_per_s": (wall["work_per_s"] * ops_host, "1/s"),
        "hit_ratio": (hits / len(records), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    kinds = sorted({r.op.kind for r in records})
    extra = {
        "wall": wall,
        "host_factor_ops": ops_host,
        "host_loop_samples": len(loops),
        "host_factor_setup": setup_host,
        "op_tail_percentile": tail_label,
        "op_p50_by_kind_wall_s": {
            k: statistics.median(r.seconds for r in records if r.op.kind == k) for k in kinds
        },
        "setup_samples_wall_s": setup["setup"],
    }
    return metrics, extra


# Per-layer metrics read straight off the spans, per traced op: "<span>.s" is
# total time, "<span>.self_s" self time and "<span>.calls" the call count.
SPAN_METRICS = (
    "cli.main.self_s",
    "sampling.simulate_record.s",
    "sampling.save_record.s",
    "sampling.load_record.s",
    "sampling.estimate_per_job.s",
    "sampling.estimate_pooled.s",
    "reports.analyze_record.self_s",
    "reports.render_text.s",
    "reports.write_scatter_csv.s",
    "reports.write_scatter_svg.s",
    "witness.adjugate.calls",
    "witness.adjugate.self_s",
    "witness.witness.calls",
    "witness.witness.self_s",
    "witness.witness_variance.self_s",
    "extremal.maximize_witness.s",
    "extremal.polish.s",
    "extremal.polish.calls",
    "extremal.save_search_result.s",
    "noise.generate_drift_ensemble.angle-jitter.s",
    "noise.generate_drift_ensemble.column-mix.s",
    "bloch.prep_bloch_vectors.s",
    "bloch.meas_bloch_vectors.s",
    "configs.predicted_prob_matrix.calls",
    "configs.predicted_prob_matrix.s",
    "noise.coherent_leak_prob_matrix.s",
)


def per_layer(records: list, tracer: Tracer, setup: dict) -> tuple[dict, dict]:
    """Per-layer figures, averaged over the traced ops (``/op`` units)."""
    traced = [r for r in records if r.traced]
    untraced = [r for r in records if not r.traced]
    n = len(traced)
    total, self_t, calls = layer_totals(tracer.spans)
    fields = {"s": (total, "s/op"), "self_s": (self_t, "s/op"), "calls": (calls, "calls/op")}
    m = {
        "cli.import_s": (statistics.median(setup["import"]), "s"),
        "cli.import.scipy_optimize_s": (statistics.median(setup["scipy_optimize"]), "s"),
    }
    for metric in SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        values, unit = fields[field]
        m[metric] = (values.get(span, 0.0) / n, unit)
    restarts = sum(r.op.restarts for r in traced)
    adjugate_in_search = nested_count(tracer.spans, "witness.adjugate", "extremal.maximize_witness")
    drift_calls = sum(
        v for k, v in calls.items() if k.startswith("noise.generate_drift_ensemble.")
    )
    m.update({
        "sampling.record_bytes": (tracer.counters["sampling.record_bytes"] / n, "bytes/op"),
        # maximize_witness minus its adjugate and polish children
        "extremal.seesaw.self_s": (self_t.get("extremal.maximize_witness", 0.0) / n, "s/op"),
        "extremal.adjugate_calls_per_restart": (
            adjugate_in_search / restarts if restarts else 0.0, "calls/restart"
        ),
        "noise.generate_drift_ensemble.calls": (drift_calls / n, "calls/op"),
        "trace_overhead_ratio": (
            statistics.median(r.seconds for r in traced)
            / statistics.median(r.seconds for r in untraced),
            "ratio",
        ),
    })
    extra = {
        "traced_ops": n,
        "untraced_ops": len(untraced),
        "cross_check": cross_check(records, tracer, m),
    }
    return m, extra


def cross_check(records: list, tracer: Tracer, m: dict) -> dict:
    """Traced figures comparable to ROADMAP's baseline table, plus the see-saw
    restart time of each traced search kind (the table's restart is d=3 real,
    which the timed ops leave out; bench/README.md has that comparison)."""
    total, self_t, calls = layer_totals(tracer.spans)
    seen = {}
    if calls.get("witness.adjugate"):
        seen["adjugate_us"] = 1e6 * self_t["witness.adjugate"] / calls["witness.adjugate"]
    drift = [r for r in records if not r.traced and r.op.kind == "eps-grid"]
    if drift:
        seen["drift_trial_ms"] = 1e3 * statistics.median(r.seconds / r.op.work for r in drift)
    seen["cli_import_s"] = m["cli.import_s"][0]
    out = {
        key: {
            "measured": value,
            "baseline": BASELINE[key],
            "ratio": value / BASELINE[key],
            "over_2x": not 0.5 <= value / BASELINE[key] <= 2.0,
        }
        for key, value in seen.items()
    }
    restarts = defaultdict(int)
    seesaw = defaultdict(float)
    kind_of = {r.op.index: r.op.kind for r in records if r.traced and r.op.restarts}
    for r in records:
        if r.op.index in kind_of:
            restarts[r.op.kind] += r.op.restarts
    for name, start, end, _, op in tracer.spans:
        if op in kind_of and name in ("extremal.maximize_witness", "extremal.polish"):
            sign = 1.0 if name == "extremal.maximize_witness" else -1.0
            seesaw[kind_of[op]] += sign * (end - start)
    for kind, secs in seesaw.items():
        out[f"seesaw_restart_{kind}_ms"] = {"measured": 1e3 * secs / restarts[kind]}
    return out


# ---------------------------------------------------------------------------
# Entry points


def benchmark(args) -> int:
    loadavg = os.getloadavg()
    setup = measure_setup(args.workload, args.seed, importtime=bool(args.trace))
    cli = import_cli()
    env = environment(loadavg)
    tracer = Tracer() if args.trace else None
    work = new_workdir()
    try:
        records, loops = closed_loop(cli, args.workload, args.seed, args.seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is None:
        metrics, extra = end_to_end(records, loops, setup)
    else:
        metrics, extra = per_layer(records, tracer, setup)
        tracer.write(str(OUT / f"spans-{args.workload}.jsonl.gz"))
    failures = [
        f"op {r.op.index} ({r.op.kind}): {r.outcome.failure}"
        for r in records
        if r.outcome.failure
    ]
    unit = WORKLOADS[args.workload].work_unit
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(records),
        "fail_ratio": len(failures) / len(records),
        # wall clock, in a traced run over traced and untraced ops alike
        f"{unit}_per_wall_s": sum(r.op.work for r in records) / sum(r.seconds for r in records),
        "failures": failures[:20],
        "env": env,
        **extra,
    }
    if args.workload == "search":
        details["search_hit_ratio"] = sum(r.outcome.hit for r in records) / len(records)
    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=2) + "\n"
    )
    print(f"details: {json.dumps(details)}")
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Run op 0 of every workload once, traced, and check its output."""
    cli = import_cli()
    modules = {name: sys.modules[name] for name, _, _ in PATCHES}
    work = new_workdir()
    status = 0
    try:
        for name in WORKLOADS:
            tracer = Tracer()
            op = WORKLOADS[name].make(0, 0, work)
            tracer.install(modules)
            try:
                secs, outcome = run_op(cli, op, tracer)
            finally:
                tracer.uninstall()
            _finish(name, op, outcome, with_digest=True)
            spans = len(tracer.spans)
            verdict = "ok" if outcome.failure is None else f"FAILED: {outcome.failure}"
            print(f"{name:12s} {op.kind:14s} {secs:7.3f} s  {spans:6d} spans  {verdict}")
            status |= outcome.failure is not None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description="qubitcert benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true", help="run one op per workload and exit")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "qubitcert" / "cli.py").is_file():
        print(f"error: no qubitcert sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if args.probe:
        return probe(args.workload, args.seed)
    return benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
