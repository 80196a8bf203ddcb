"""The benchmark's workloads: which CLI calls make up op ``i``, and how each
op's output is checked.

Every op is one or more in-process ``qubitcert.cli.main(argv)`` calls.  The
CLI is the contract the README documents, so the ops survive refactors of the
modules behind it.  Each op's ``--seed`` is derived from the workload seed and
the op index only.  Artifacts go to fixed file names in the work directory and
are overwritten by the next op, so disk use does not grow with run length.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

#: Op seeds of two workload seeds never overlap: one run issues far fewer than
#: this many op seeds (a drift-audit op uses ``len(DRIFT_EPS) * TRIALS``
#: consecutive trial seeds).
SEED_STRIDE = 1_000_000

# The two reference device footprints of scripts/run_device_footprints.py:
# (device, jobs, shots, repetitions).  Both have about 18k cells.
FOOTPRINTS = (("nairobi", 115, 100_000, 8), ("lagos", 60, 32_000, 15))
COHERENT_LEAK = "0.3"

# (dim, field, restarts, known maximum |W|).  d=4 real ops spend about 75% of
# their time in the see-saw (adjugate-bound), d=4 complex ops about 60% in the
# Nelder-Mead polish, which runs once per op.  The restart counts make the two
# kinds cost about the same (about 3.5 s), so the median op time does not sit
# between two kinds.  A single restart reached the known maximum 17 times in 24
# (real) and 10 times in 24 (complex), so 48 and 16 restarts miss it with odds
# below 1e-3.  d=3 real is left out of the timed ops: its restart cost is
# heavy-tailed (some restarts run into the 500-sweep cap), which made the
# seed-to-seed spread of a run's timings several times the bounds.
SEARCHES = (
    (4, "real", 48, 2.0**12 / 3.0**7),
    (4, "complex", 16, 2.0**12 / 3.0**7),
)
HIT_TOL = 1e-6
INCONSISTENCY_TOL = 1e-9

# Criterion 6's epsilon grid.  Each op audits the whole grid, both drift modes
# at every epsilon, so every op is the same mix: a median over ops of four
# kinds of different cost would sit between them and move with the host's
# speed more than any one kind does.
DRIFT_EPS = ("0.005", "0.01", "0.02", "0.05")
TRIALS = 45
DRIFT_JOBS = 10
DRIFT_MODES = 2


@dataclass
class Op:
    """One op: its CLI calls, its units of work and what it must produce."""

    index: int
    kind: str
    calls: list
    work: float
    restarts: int = 0
    artifacts: list = field(default_factory=list)
    expect: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What running one op gave: exit codes, captured stdout, a digest of every
    artifact, and the failure reason (None when every check passed)."""

    codes: list
    stdouts: list
    digest: str = ""
    failure: str | None = None
    hit: bool = False


def _footprint(i: int, seed: int, work: Path) -> Op:
    device, jobs, shots, reps = FOOTPRINTS[i % 2]
    leaky = (i // 2) % 2 == 1
    record, csv, svg = work / "record.json", work / "scatter.csv", work / "scatter.svg"
    simulate = [
        "simulate", "--config", "II-0", "--jobs", str(jobs), "--shots", str(shots),
        "--reps", str(reps), "--seed", str(seed * SEED_STRIDE + i),
        "--device", device, "--out", str(record),
    ]
    if leaky:
        simulate += ["--coherent-leak", COHERENT_LEAK]
    analyze = ["analyze", str(record), "--out", str(csv), "--svg", str(svg)]
    return Op(
        index=i,
        kind=f"{device}-{'leaky' if leaky else 'clean'}",
        calls=[simulate, analyze],
        work=float(jobs * reps * 20),
        artifacts=[record, csv, svg],
        expect={"verdict": "FAIL" if leaky else "PASS", "rows": jobs, "csv": csv},
    )


def _search(i: int, seed: int, work: Path) -> Op:
    dim, fld, restarts, target = SEARCHES[i % 2]
    out = work / "search.json"
    argv = [
        "optimize", "--dim", str(dim), "--field", fld, "--restarts", str(restarts),
        "--seed", str(seed * SEED_STRIDE + i), "--out", str(out),
    ]
    return Op(
        index=i,
        kind=f"d{dim}-{fld}",
        calls=[argv],
        work=float(restarts),
        restarts=restarts,
        artifacts=[out],
        expect={"target": target, "json": out},
    )


def _drift_audit(i: int, seed: int, work: Path) -> Op:
    outs = [work / f"audit-{k}.csv" for k in range(len(DRIFT_EPS))]
    calls = [
        [
            "audit-drift", "--config", "II-0", "--drift-eps", eps,
            "--trials", str(TRIALS), "--jobs", str(DRIFT_JOBS), "--drift-mode", "both",
            "--seed", str(seed * SEED_STRIDE + (i * len(DRIFT_EPS) + k) * TRIALS),
            "--out", str(outs[k]),
        ]
        for k, eps in enumerate(DRIFT_EPS)
    ]
    return Op(
        index=i,
        kind="eps-grid",
        calls=calls,
        work=float(len(DRIFT_EPS) * TRIALS * DRIFT_MODES),
        artifacts=outs,
    )


@dataclass(frozen=True)
class Workload:
    name: str
    make: object
    #: ops repeat their pattern with this period; the traced run traces whole
    #: periods so traced and untraced ops see the same mix
    period: int
    work_unit: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("footprint", _footprint, 4, "cells"),
        Workload("search", _search, 2, "restarts"),
        Workload("drift-audit", _drift_audit, 1, "ensembles"),
    )
}


def digest(op: Op, stdouts: list) -> str:
    """SHA-256 over every call's stdout and every artifact's bytes."""
    h = hashlib.sha256()
    for text in stdouts:
        h.update(text.encode())
    for path in op.artifacts:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def check(workload: str, op: Op, outcome: Outcome) -> None:
    """Fill ``outcome.failure`` and ``outcome.hit`` from the op's outputs."""
    bad = [c for c in outcome.codes if c != 0]
    if bad:
        outcome.failure = f"exit code {bad[0]}"
        return
    if workload == "footprint":
        verdicts = [ln for ln in outcome.stdouts[1].splitlines() if ln.startswith("verdict:")]
        verdict = verdicts[0].split()[1] if verdicts else "missing"
        if verdict != op.expect["verdict"]:
            outcome.failure = f"verdict {verdict}, expected {op.expect['verdict']}"
            return
        rows = len(Path(op.expect["csv"]).read_text().splitlines()) - 1
        if rows != op.expect["rows"]:
            outcome.failure = f"CSV has {rows} rows for {op.expect['rows']} jobs"
            return
        outcome.hit = True
    elif workload == "search":
        try:
            best = abs(float(json.loads(Path(op.expect["json"]).read_text())["best_W"]))
        except (ValueError, KeyError, TypeError) as exc:
            outcome.failure = f"search JSON unreadable: {exc}"
            return
        target = op.expect["target"]
        if best > target + INCONSISTENCY_TOL:
            outcome.failure = f"best |W| {best!r} above the known maximum {target!r}"
            return
        outcome.hit = abs(best - target) <= HIT_TOL
    else:
        for eps, stdout in zip(DRIFT_EPS, outcome.stdouts):
            if "PASS: bound never violated" not in stdout:
                outcome.failure = f"audit at eps={eps} did not print PASS: bound never violated"
                return
        outcome.hit = True
