"""Monte Carlo simulation of the experiment's counting structure and the two
witness estimators.

An experiment consists of ``n_jobs`` jobs; each job runs the 20 circuits
(4 measurements x 5 preparations) for ``repetitions`` repetitions of ``shots``
single-shot executions, so every probability cell is backed by
``T = n_jobs * shots * repetitions`` counts.  Records store raw ones-counts
per (job, repetition, circuit) so both estimators can be formed after the
fact; both return a :class:`~qubitcert.witness.WitnessResult`:

* per-job ("method i"): estimate p within each job, take the determinant per
  job, average the per-job witnesses;
* pooled ("method ii"): pool counts across all jobs into one matrix, take a
  single determinant.

Because every term of the determinant's Leibniz expansion touches five
distinct cells and cells are sampled independently, ``det p_hat`` is an
exactly unbiased estimator of ``det p`` at any shot count — for both methods.
What shrinks with the per-job shot count is the fluctuation scale of the
per-job determinants (standard error ~ 1/shots per job), which is what the
bias study below quantifies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .configs import ConfigSet
from .noise import DriftModel, generate_drift_ensemble
from .witness import ProbMatrix, WitnessResult, witness, witness_variance

__all__ = [
    "ExperimentPlan",
    "ExperimentRecord",
    "RecordSchemaError",
    "simulate_record",
    "estimate_per_job",
    "estimate_pooled",
    "estimator_bias_study",
    "BiasStudyRow",
    "record_to_dict",
    "record_from_dict",
    "save_record",
    "load_record",
]


class RecordSchemaError(ValueError):
    """A record file violates the schema; ``field`` names the first offender."""

    def __init__(self, field_path: str, message: str):
        super().__init__(f"{field_path}: {message}")
        self.field = field_path


@dataclass(frozen=True)
class ExperimentPlan:
    """Job/shot/repetition structure of one run; T = n_jobs*shots*repetitions."""

    n_jobs: int
    shots: int
    repetitions: int
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_jobs", "shots", "repetitions"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")

    @property
    def total_counts(self) -> int:
        return self.n_jobs * self.shots * self.repetitions


@dataclass(frozen=True)
class ExperimentRecord:
    """All counts of one experiment plus identifying metadata.

    Jobs are stacked in order: job ``n`` (id ``job_ids[n]``) ran ``reps[n]``
    repetitions of ``shots[n]`` shots of each of the 20 circuits and owns the
    next ``reps[n]`` rows of ``ones``, the ones-counts per circuit in
    row-major (k, j) order.
    """

    config_id: str
    device: str
    job_ids: tuple[str, ...]
    shots: np.ndarray
    reps: np.ndarray
    ones: np.ndarray
    timestamp: str | None = None

    def __post_init__(self) -> None:
        job_ids = tuple(self.job_ids)
        if len(job_ids) == 0:
            raise ValueError("record must contain at least one job")
        if len(set(job_ids)) != len(job_ids):
            raise ValueError("job ids must be unique")
        shots = np.asarray(self.shots, dtype=np.int64)
        reps = np.asarray(self.reps, dtype=np.int64)
        ones = np.asarray(self.ones, dtype=np.int64)
        if shots.shape != (len(job_ids),) or reps.shape != (len(job_ids),):
            raise ValueError("need one shots and one reps value per job")
        if np.any(shots < 1) or np.any(reps < 1):
            raise ValueError("shots and reps must be >= 1")
        if ones.shape != (int(reps.sum()), 20):
            raise ValueError(
                f"ones must have shape ({int(reps.sum())}, 20), got {ones.shape}"
            )
        if np.any(ones < 0) or np.any(ones > np.repeat(shots, reps)[:, None]):
            raise ValueError("need 0 <= ones <= shots in every cell")
        object.__setattr__(self, "job_ids", job_ids)
        for name, arr in (("shots", shots), ("reps", reps), ("ones", ones)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def job_ones(self) -> np.ndarray:
        """Ones-counts summed over each job's repetitions, shape (n_jobs, 20)."""
        return np.add.reduceat(self.ones, np.cumsum(self.reps) - self.reps, axis=0)


def simulate_record(
    true_p: ProbMatrix,
    plan: ExperimentPlan,
    per_job_noise: DriftModel | None = None,
    *,
    config: ConfigSet | None = None,
    config_id: str | None = None,
    device: str = "simulator",
) -> ExperimentRecord:
    """Draw binomial counts for every (job, repetition, circuit).

    With ``per_job_noise`` set, each job samples from its own drifted matrix
    (generated from ``config``, which is then required, since drifted matrices
    are re-derived from the gate angles).  Each job's counts come from an
    independent generator spawned from ``(plan.seed, job index)``, so records
    are reproducible and independent of execution order.
    """
    if per_job_noise is not None:
        if config is None:
            raise ValueError("per_job_noise requires the generating config")
        job_ps = generate_drift_ensemble(config, per_job_noise, plan.seed)[0]
    else:
        job_ps = [true_p.p] * plan.n_jobs
    if config_id is None:
        config_id = config.id if config is not None else "custom"

    ones = []
    for n in range(plan.n_jobs):
        rng = np.random.default_rng(
            np.random.SeedSequence(plan.seed, spawn_key=(n,))
        )
        cells = job_ps[n][:4].reshape(20)
        ones.append(rng.binomial(plan.shots, cells, size=(plan.repetitions, 20)))
    return ExperimentRecord(
        config_id,
        device,
        tuple(f"job-{n:04d}" for n in range(plan.n_jobs)),
        np.full(plan.n_jobs, plan.shots),
        np.full(plan.n_jobs, plan.repetitions),
        np.concatenate(ones),
    )


def estimate_per_job(record: ExperimentRecord) -> tuple[WitnessResult, np.ndarray]:
    """Method (i): witness per job, then average.

    Returns the average, whose ``sigma`` is the sample standard deviation of
    the per-job witnesses over sqrt(n_jobs) (None for a single job), and the
    per-job witnesses in job order.
    """
    rows = record.job_ones() / (record.shots * record.reps)[:, None]
    n = len(rows)
    ws = np.linalg.det(
        np.concatenate([rows.reshape(n, 4, 5), np.ones((n, 1, 5))], axis=1)
    )
    sigma = float(np.std(ws, ddof=1) / np.sqrt(n)) if n > 1 else None
    return WitnessResult(float(np.mean(ws)), sigma), ws


def estimate_pooled(record: ExperimentRecord) -> WitnessResult:
    """Method (ii): pool all counts cellwise, then one witness.

    Every cell is backed by the same ``T = sum(shots * reps)`` counts, and
    ``sigma`` comes from the leading-order variance formula at that ``T``.
    """
    total = int(np.sum(record.shots * record.reps))
    p = ProbMatrix.from_rows((record.ones.sum(axis=0) / total).reshape(4, 5))
    return WitnessResult(witness(p), float(np.sqrt(witness_variance(p, total))))


@dataclass(frozen=True)
class BiasStudyRow:
    """Replication-averaged witness of both methods for one plan."""

    plan: ExperimentPlan
    per_job_mean: float
    per_job_se: float
    pooled_mean: float
    pooled_se: float


def estimator_bias_study(
    true_p: ProbMatrix,
    plan_grid: list[ExperimentPlan],
    replications: int = 1000,
) -> list[BiasStudyRow]:
    """Replication study of both estimators on a witness-zero truth.

    For each plan, draws ``replications`` complete experiments and reports the
    mean per-job-method and pooled-method witness with standard errors.  Since
    the determinant estimator is exactly unbiased for independently sampled
    cells, the observed means are statistical fluctuations around zero whose
    scale shrinks with the per-job shot count (~1/(shots*repetitions) per
    job) — the point of the study is to quantify that scale, not a true bias.
    """
    if abs(witness(true_p)) > 1e-10:
        raise ValueError("bias study requires a witness-zero truth matrix")
    cells = true_p.p[:4]
    rows = []
    for plan in plan_grid:
        rng = np.random.default_rng(
            np.random.SeedSequence(plan.seed, spawn_key=(0xB1A5,))
        )
        t_job = plan.shots * plan.repetitions
        # Counts per replication and job, pooled over that job's repetitions
        # (binomial additivity makes drawing the pooled count directly exact).
        ones = rng.binomial(
            t_job, cells[None, None], size=(replications, plan.n_jobs, 4, 5)
        )
        phat = ones / t_job
        full = np.broadcast_to(
            np.ones((1, 1, 1, 5)), (replications, plan.n_jobs, 1, 5)
        )
        mats = np.concatenate([phat, full], axis=2)
        per_job_w = np.linalg.det(mats)  # (replications, n_jobs)
        w_i = per_job_w.mean(axis=1)
        pooled = mats.mean(axis=1)  # equal per-job totals -> plain mean
        w_ii = np.linalg.det(pooled)
        rows.append(
            BiasStudyRow(
                plan=plan,
                per_job_mean=float(w_i.mean()),
                per_job_se=float(w_i.std(ddof=1) / np.sqrt(replications)),
                pooled_mean=float(w_ii.mean()),
                pooled_se=float(w_ii.std(ddof=1) / np.sqrt(replications)),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# Record file format (JSON):
# {"config_id": str, "device": str, "timestamp": optional str,
#  "jobs": [{"job_id": str, "shots": int, "repetitions": int,
#            "counts": [[[ones, shots] x 20] x repetitions]}]}


def record_to_dict(record: ExperimentRecord) -> dict:
    shots = np.repeat(record.shots, record.reps)[:, None]
    pairs = np.stack([record.ones, np.broadcast_to(shots, record.ones.shape)], axis=-1)
    out = {
        "config_id": record.config_id,
        "device": record.device,
        "jobs": [
            {
                "job_id": job_id,
                "shots": job_shots,
                "repetitions": reps,
                "counts": counts.tolist(),
            }
            for job_id, job_shots, reps, counts in zip(
                record.job_ids,
                record.shots.tolist(),
                record.reps.tolist(),
                np.split(pairs, np.cumsum(record.reps)[:-1]),
            )
        ],
    }
    if record.timestamp is not None:
        out["timestamp"] = record.timestamp
    return out


def _require(data: dict, key: str, kind, path: str):
    if key not in data:
        raise RecordSchemaError(f"{path}{key}", "missing required field")
    value = data[key]
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise RecordSchemaError(f"{path}{key}", f"must be an integer, got {value!r}")
    elif not isinstance(value, kind):
        raise RecordSchemaError(
            f"{path}{key}", f"must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def record_from_dict(data: dict) -> ExperimentRecord:
    """Parse and validate a record document, naming the first offending field.

    Job ids must be unique, and every cell must be ``[ones, shots]`` with the
    job's ``shots`` and ``0 <= ones <= shots``, so no cell is empty.
    """
    if not isinstance(data, dict):
        raise RecordSchemaError("$", "record must be a JSON object")
    config_id = _require(data, "config_id", str, "")
    device = _require(data, "device", str, "")
    raw_jobs = _require(data, "jobs", list, "")
    if len(raw_jobs) == 0:
        raise RecordSchemaError("jobs", "must contain at least one job")
    timestamp = data.get("timestamp")
    if timestamp is not None and not isinstance(timestamp, str):
        raise RecordSchemaError("timestamp", "must be a string when present")
    first_use: dict[str, int] = {}
    all_shots, all_reps, ones = [], [], []
    for idx, raw in enumerate(raw_jobs):
        path = f"jobs[{idx}]."
        if not isinstance(raw, dict):
            raise RecordSchemaError(f"jobs[{idx}]", "must be an object")
        job_id = _require(raw, "job_id", str, path)
        if job_id in first_use:
            raise RecordSchemaError(
                f"{path}job_id",
                f"duplicate id {job_id!r}, already used by jobs[{first_use[job_id]}]",
            )
        first_use[job_id] = idx
        shots = _require(raw, "shots", int, path)
        reps = _require(raw, "repetitions", int, path)
        if shots < 1:
            raise RecordSchemaError(f"{path}shots", "must be >= 1")
        if reps < 1:
            raise RecordSchemaError(f"{path}repetitions", "must be >= 1")
        counts = _require(raw, "counts", list, path)
        try:
            arr = np.asarray(counts)
        except ValueError:
            raise RecordSchemaError(
                f"{path}counts", "must be a rectangular array of integers"
            ) from None
        if arr.dtype == object or not np.issubdtype(arr.dtype, np.integer):
            raise RecordSchemaError(
                f"{path}counts", f"must be an integer array, got dtype {arr.dtype}"
            )
        if arr.shape != (reps, 20, 2):
            raise RecordSchemaError(
                f"{path}counts",
                f"must have shape [repetitions={reps}][20][2], got {list(arr.shape)}",
            )
        # numpy reads a boolean among integers as 0 or 1: look at those entries
        for r, c, k in np.argwhere(arr <= 1).tolist():
            if isinstance(counts[r][c][k], bool):
                raise RecordSchemaError(
                    f"{path}counts[{r}][{c}]", f"must hold integers, got {counts[r][c]!r}"
                )
        arr = arr.astype(np.int64)
        bad = np.argwhere(
            (arr[..., 1] != shots) | (arr[..., 0] < 0) | (arr[..., 0] > shots)
        )
        if bad.size:
            r, c = bad[0]
            raise RecordSchemaError(
                f"{path}counts[{r}][{c}]",
                f"needs [ones, shots] with shots = {shots} (the job's) and "
                f"0 <= ones <= shots, got {arr[r, c].tolist()}",
            )
        all_shots.append(shots)
        all_reps.append(reps)
        ones.append(arr[..., 0])
    return ExperimentRecord(
        config_id,
        device,
        tuple(first_use),
        np.array(all_shots),
        np.array(all_reps),
        np.concatenate(ones),
        timestamp,
    )


def save_record(record: ExperimentRecord, path: str | Path) -> None:
    Path(path).write_text(json.dumps(record_to_dict(record)) + "\n")


def load_record(path: str | Path) -> ExperimentRecord:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise RecordSchemaError("$", f"not valid JSON: {exc}") from None
    return record_from_dict(data)
