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

Records are UTF-8 JSON files.  ``save_record`` formats each job's counts with
one ``%`` format over one flat list of the counts, and ``record_from_dict``
checks and converts every job's counts in one pass over the flattened
document, keeping the per-job loop to name the first offending field of a
document that pass does not accept.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .configs import ConfigSet
from .noise import DriftModel, generate_drift_ensemble
from .witness import WitnessResult, prob_matrix, witness, witness_variance

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

#: Counts are summed in int64, so a record's total sum(shots * reps) must fit.
_INT64_MAX = int(np.iinfo(np.int64).max)


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.total_counts > _INT64_MAX:
            raise ValueError(
                "total count n_jobs * shots * repetitions reaches "
                f"{self.total_counts}, above {_INT64_MAX}"
            )

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
        if sum(s * r for s, r in zip(shots.tolist(), reps.tolist())) > _INT64_MAX:
            raise ValueError(f"total count sum(shots * reps) exceeds {_INT64_MAX}")
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
    true_p: np.ndarray,
    plan: ExperimentPlan,
    per_job_noise: DriftModel | None = None,
    *,
    config: ConfigSet | None = None,
    device: str = "simulator",
) -> ExperimentRecord:
    """Draw binomial counts for every (job, repetition, circuit).

    The record's config id is ``config.id``, or "custom" without a config.
    With ``per_job_noise`` set, each job samples from its own drifted matrix
    (generated from ``config``, which is then required, since drifted matrices
    are re-derived from the gate angles).  Each job's counts come from an
    independent generator spawned from ``(plan.seed, job index)``, so records
    are reproducible and independent of execution order.
    """
    if per_job_noise is not None:
        if config is None:
            raise ValueError("per_job_noise requires the generating config")
        if per_job_noise.n_jobs != plan.n_jobs:
            raise ValueError(
                f"per_job_noise has {per_job_noise.n_jobs} jobs but the plan has "
                f"{plan.n_jobs}"
            )
        job_ps = generate_drift_ensemble(config, per_job_noise, plan.seed)[0]
    else:
        job_ps = [true_p] * plan.n_jobs

    ones = []
    for n in range(plan.n_jobs):
        rng = np.random.default_rng(
            np.random.SeedSequence(plan.seed, spawn_key=(n,))
        )
        cells = job_ps[n][:4].reshape(20)
        ones.append(rng.binomial(plan.shots, cells, size=(plan.repetitions, 20)))
    return ExperimentRecord(
        config.id if config is not None else "custom",
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
    ws = np.linalg.det(prob_matrix(rows.reshape(n, 4, 5)))
    sigma = float(np.std(ws, ddof=1) / np.sqrt(n)) if n > 1 else None
    return WitnessResult(float(np.mean(ws)), sigma), ws


def estimate_pooled(record: ExperimentRecord) -> WitnessResult:
    """Method (ii): pool all counts cellwise, then one witness.

    Every cell is backed by the same ``T = sum(shots * reps)`` counts, and
    ``sigma`` comes from the leading-order variance formula at that ``T``.
    """
    total = int(np.sum(record.shots * record.reps))
    p = prob_matrix((record.ones.sum(axis=0) / total).reshape(4, 5))
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
    true_p: np.ndarray,
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
    if replications < 2:
        raise ValueError(
            f"replications must be >= 2 for a standard error, got {replications}"
        )
    if abs(witness(true_p)) > 1e-10:
        raise ValueError("bias study requires a witness-zero truth matrix")
    cells = true_p[:4]
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
        mats = prob_matrix(ones / t_job)
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
# Record file format (UTF-8 JSON):
# {"config_id": str, "device": str, "jobs": [{"job_id": str, "shots": int,
#  "repetitions": int, "counts": [[[ones, shots] x 20] x repetitions]}],
#  "timestamp": optional str}


def record_to_dict(record: ExperimentRecord) -> dict:
    """The record as a JSON-ready document; ``save_record`` writes exactly
    ``json.dumps`` of it."""
    rows = record.ones.tolist()
    jobs, start = [], 0
    for job_id, shots, reps in zip(
        record.job_ids, record.shots.tolist(), record.reps.tolist()
    ):
        counts = [[[ones, shots] for ones in row] for row in rows[start : start + reps]]
        jobs.append(
            {"job_id": job_id, "shots": shots, "repetitions": reps, "counts": counts}
        )
        start += reps
    out = {"config_id": record.config_id, "device": record.device, "jobs": jobs}
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
    job's ``shots`` and ``0 <= ones <= shots``, so no cell is empty.  A valid
    document is read in one pass over all jobs' counts (``_read_jobs_at_once``);
    any other goes through the per-job loop (``_read_jobs``), which raises on
    the first offending field.
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
    jobs = _read_jobs_at_once(raw_jobs)
    if jobs is None:
        jobs = _read_jobs(raw_jobs)
    return ExperimentRecord(config_id, device, *jobs, timestamp)


def _read_jobs_at_once(raw_jobs: list):
    """``(job_ids, shots, reps, ones)`` of a valid, non-empty ``jobs`` list,
    checked and converted in one pass over the flattened counts; None, never
    an exception, for anything else.

    Every count must be exactly an ``int``: numpy would silently read a float,
    a bool or a numeric string as an integer.
    """
    if set(map(type, raw_jobs)) != {dict}:
        return None
    try:
        ids, shots, reps, counts = zip(
            *[(j["job_id"], j["shots"], j["repetitions"], j["counts"]) for j in raw_jobs]
        )
    except KeyError:
        return None
    if (
        set(map(type, ids)) != {str}
        or len(set(ids)) != len(ids)
        or set(map(type, shots)) != {int}
        or set(map(type, reps)) != {int}
        or min(shots) < 1
        or min(reps) < 1
        or sum(map(operator.mul, shots, reps)) > _INT64_MAX
        or set(map(type, counts)) != {list}
        or tuple(map(len, counts)) != reps
    ):
        return None
    rows = list(chain.from_iterable(counts))
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {20}:
        return None
    cells = list(chain.from_iterable(rows))
    if set(map(type, cells)) != {list} or set(map(len, cells)) != {2}:
        return None
    leaves = list(chain.from_iterable(cells))
    if set(map(type, leaves)) != {int}:
        return None
    try:
        pairs = np.array(leaves, np.int64).reshape(-1, 20, 2)
    except OverflowError:
        return None
    shots, reps = np.array(shots, np.int64), np.array(reps, np.int64)
    ones, row_shots = pairs[..., 0], np.repeat(shots, reps)[:, None]
    if np.any(pairs[..., 1] != row_shots) or np.any(ones < 0) or np.any(ones > row_shots):
        return None
    return ids, shots, reps, ones.copy()


def _read_jobs(raw_jobs: list):
    """``(job_ids, shots, reps, ones)`` of a non-empty ``jobs`` list, read job
    by job; raises :class:`RecordSchemaError` on the first offending field."""
    first_use: dict[str, int] = {}
    all_shots, all_reps, ones = [], [], []
    total = 0  # sum(shots * reps) so far, a Python int so that it cannot wrap
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
        total += shots * reps
        if total > _INT64_MAX:
            raise RecordSchemaError(
                f"{path}shots",
                f"total count sum(shots * repetitions) reaches {total}, "
                f"above {_INT64_MAX}",
            )
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
    return tuple(first_use), np.array(all_shots), np.array(all_reps), np.concatenate(ones)


def save_record(record: ExperimentRecord, path: str | Path) -> None:
    """Write ``json.dumps(record_to_dict(record)) + "\\n"``, byte for byte.

    The counts are not built as nested lists: each job's text comes from one
    ``%`` format with the job's shots written in, over one flat ``tolist()``
    of ``record.ones``.  Every string goes through ``json.dumps``, so it is
    escaped as ``json.dumps`` escapes it.
    """
    flat = record.ones.reshape(-1).tolist()
    templates: dict[tuple[int, int], str] = {}
    jobs, start = [], 0
    for job_id, shots, reps in zip(
        record.job_ids, record.shots.tolist(), record.reps.tolist()
    ):
        template = templates.get((shots, reps))
        if template is None:
            row = "[" + ", ".join([f"[%d, {shots}]"] * 20) + "]"
            template = templates[shots, reps] = (
                '{"job_id": %s, '
                f'"shots": {shots}, "repetitions": {reps}, "counts": ['
                + ", ".join([row] * reps)
                + "]}"
            )
        stop = start + 20 * reps
        jobs.append(template % (json.dumps(job_id), *flat[start:stop]))
        start = stop
    text = '{"config_id": %s, "device": %s, "jobs": [%s]' % (
        json.dumps(record.config_id),
        json.dumps(record.device),
        ", ".join(jobs),
    )
    if record.timestamp is not None:
        text += ', "timestamp": ' + json.dumps(record.timestamp)
    Path(path).write_text(text + "}\n", encoding="utf-8")


def load_record(path: str | Path) -> ExperimentRecord:
    """Read a record file; ``json.loads`` detects its encoding (UTF-8, or
    UTF-16/32 per RFC 8259) from the bytes, whatever the locale."""
    try:
        data = json.loads(Path(path).read_bytes())
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
        raise RecordSchemaError("$", f"not valid JSON: {exc}") from None
    return record_from_dict(data)
