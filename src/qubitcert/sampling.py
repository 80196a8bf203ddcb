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

Job ``n`` of a simulated record draws from the generator spawned as
``(seed, n)``; every job's seed words are hashed before the first draw, in
one batched pass (:mod:`~qubitcert.seeding`).

Because every term of the determinant's Leibniz expansion touches five
distinct cells and cells are sampled independently, ``det p_hat`` is an
exactly unbiased estimator of ``det p`` at any shot count — for both methods.
What shrinks with the per-job shot count is the fluctuation scale of the
per-job determinants (standard error ~ 1/shots per job), which is what the
bias study below quantifies.

Records are UTF-8 JSON files.  ``save_record`` writes format 2, where each
job's counts are one flat list of ones-counts and its shots appear once;
``load_record`` also reads format 1, where every cell repeats the job's
shots as ``[ones, shots]``.  A valid record has one definition, the
:class:`ExperimentRecord` constructor.  ``record_from_dict`` walks a
document's jobs once, in document order: it names the first field that breaks
the schema, and otherwise collects the counts of either format into one flat
list, from which the constructor builds the record.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from pathlib import Path

import numpy as np

# never called here: a patch target of the benchmark tracer until it drops it
from .noise import generate_drift_ensemble  # noqa: F401
from .seeding import generators, integer_arg, spawned_seed_words
from .witness import WitnessResult, prob_matrix, witness, witness_variance

__all__ = [
    "ExperimentRecord",
    "RecordSchemaError",
    "simulate_record",
    "estimate_per_job",
    "estimate_pooled",
    "estimator_bias_study",
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


def _check_run(n_jobs: int, shots: int, repetitions: int, seed: int) -> None:
    """Reject a run of ``n_jobs`` jobs of ``repetitions`` x ``shots`` shots
    whose counts or seed :func:`~qubitcert.seeding.integer_arg` rejects, or
    that puts more counts in a cell, T = n_jobs * shots * repetitions, than
    int64 holds."""
    total = 1  # a product of Python ints, which cannot wrap
    for name, value in (("n_jobs", n_jobs), ("shots", shots), ("repetitions", repetitions)):
        total *= integer_arg(name, value, 1)
    integer_arg("seed", seed, 0)
    if total > _INT64_MAX:
        raise ValueError(
            f"total count n_jobs * shots * repetitions reaches {total}, above {_INT64_MAX}"
        )


@dataclass(frozen=True)
class ExperimentRecord:
    """All counts of one experiment plus identifying metadata.

    Jobs are stacked in order: job ``n`` (id ``job_ids[n]``) ran ``reps[n]``
    repetitions of ``shots[n]`` shots of each of the 20 circuits and owns the
    next ``reps[n]`` rows of ``ones``, the ones-counts per circuit in
    row-major (k, j) order.  This constructor is the one place that checks a
    record's values, so ``load_record`` reads back whatever ``save_record``
    writes of a record it accepts.
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
        strings = (self.config_id, self.device, *job_ids)
        if not all(map(isinstance, strings, repeat(str))) or not isinstance(
            self.timestamp, (str, type(None))
        ):
            raise ValueError("config_id, device and job ids must be str, timestamp str or None")
        if len(set(job_ids)) != len(job_ids):
            raise ValueError("job ids must be unique")
        arrays = []
        for name in ("shots", "reps", "ones"):
            value = getattr(self, name)
            arr = np.asarray(value)
            kind = arr.dtype.kind
            if kind not in "iu" or (kind == "u" and arr.size and arr.max() > _INT64_MAX):
                raise ValueError(f"{name} must be integers within int64, got {arr.dtype}")
            # numpy reads a bool among integers as 0 or 1; only a list can mix them
            if not isinstance(value, np.ndarray) and any(
                isinstance(v, (bool, np.bool_)) for v in np.asarray(value, dtype=object).flat
            ):
                raise ValueError(f"{name} must be integers within int64, got a bool")
            arrays.append(np.array(arr, dtype=np.int64))  # own copy; the caller's stays writable
        shots, reps, ones = arrays
        if shots.shape != (len(job_ids),) or reps.shape != (len(job_ids),):
            raise ValueError("need one shots and one reps value per job")
        if np.any(shots < 1) or np.any(reps < 1):
            raise ValueError("shots and reps must be >= 1")
        if sum(map(mul, shots.tolist(), reps.tolist())) > _INT64_MAX:  # Python ints: no wrap
            raise ValueError(f"total count sum(shots * reps) exceeds {_INT64_MAX}")
        if ones.shape != (int(reps.sum()), 20):
            raise ValueError(
                f"ones must have shape ({int(reps.sum())}, 20), got {ones.shape}"
            )
        if np.any(ones < 0) or np.any(ones > np.repeat(shots, reps)[:, None]):
            raise ValueError("need 0 <= ones <= shots in every cell")
        object.__setattr__(self, "job_ids", job_ids)
        for name, arr in zip(("shots", "reps", "ones"), arrays):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def job_ones(self) -> np.ndarray:
        """Ones-counts summed over each job's repetitions, shape (n_jobs, 20)."""
        return np.add.reduceat(self.ones, np.cumsum(self.reps) - self.reps, axis=0)


def simulate_record(
    true_p: np.ndarray,
    n_jobs: int,
    shots: int,
    repetitions: int,
    seed: int = 0,
    *,
    config_id: str = "custom",
    device: str = "simulator",
) -> ExperimentRecord:
    """Draw binomial counts for ``n_jobs`` jobs of ``repetitions`` x ``shots``
    shots of every circuit, so that each cell holds T = n_jobs * shots *
    repetitions counts.

    ``true_p`` is one (5, 5) matrix that every job samples, or an
    ``(n_jobs, 5, 5)`` stack with one matrix per job, such as a drifting run
    of ``generate_drift_ensemble``.  Each job's counts come from an
    independent generator spawned from ``(seed, job index)``, so records are
    reproducible and independent of execution order; :mod:`~qubitcert.seeding`
    hashes every job's seed words in one batched pass.
    """
    _check_run(n_jobs, shots, repetitions, seed)
    job_ps = np.asarray(true_p)
    if job_ps.shape == (5, 5):
        job_ps = np.broadcast_to(job_ps, (n_jobs, 5, 5))
    elif job_ps.shape != (n_jobs, 5, 5):
        raise ValueError(
            f"true_p must have shape (5, 5) or (n_jobs, 5, 5) with n_jobs = {n_jobs}, "
            f"got {job_ps.shape}"
        )
    cells = job_ps[:, :4].reshape(n_jobs, 20)
    # every job's seed words exist before the first draw, so a run too large
    # to hold them fails here rather than after its first jobs
    seed_words = spawned_seed_words(seed, n_jobs)
    ones = [
        rng.binomial(shots, cells[n], size=(repetitions, 20))
        for n, rng in enumerate(generators(seed_words))
    ]
    return ExperimentRecord(
        config_id,
        device,
        tuple(f"job-{n:04d}" for n in range(n_jobs)),
        np.full(n_jobs, shots),
        np.full(n_jobs, repetitions),
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


def estimator_bias_study(
    true_p: np.ndarray,
    n_jobs: int,
    shots: Sequence[int],
    replications: int = 1000,
    seed: int = 0,
) -> list[tuple[WitnessResult, WitnessResult]]:
    """Replication study of both estimators on a witness-zero truth.

    For each value in ``shots``, draws ``replications`` experiments of
    ``n_jobs`` jobs and returns ``(per_job, pooled)``: for each method, ``W``
    is the mean witness over the replications and ``sigma`` its standard
    error, so ``z`` is the bias t-statistic.  Since the determinant estimator
    is exactly unbiased for independently sampled cells, the means are
    statistical fluctuations around zero whose scale shrinks with the per-job
    shot count (~1/shots per job); the point of the study is to quantify that
    scale, not a true bias.  Every shots value draws from the same generator
    seed.
    """
    if len(shots) == 0:
        raise ValueError("shots must hold at least one shot count")
    for s in shots:  # the first pass also checks n_jobs and seed
        _check_run(n_jobs, s, 1, seed)
    integer_arg("replications", replications, 2)  # two give a standard error
    if abs(witness(true_p)) > 1e-10:
        raise ValueError("bias study requires a witness-zero truth matrix")
    cells = true_p[:4]
    results = []
    for s in shots:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xB1A5,)))
        # Ones-counts per replication and job: repetitions would only split
        # them, and binomial additivity makes drawing the job's total exact.
        ones = rng.binomial(s, cells[None, None], size=(replications, n_jobs, 4, 5))
        mats = prob_matrix(ones / s)
        w_i = np.linalg.det(mats).mean(axis=1)
        w_ii = np.linalg.det(mats.mean(axis=1))  # equal per-job totals -> plain mean
        results.append(tuple(
            WitnessResult(float(w.mean()), float(w.std(ddof=1) / np.sqrt(replications)))
            for w in (w_i, w_ii)
        ))
    return results


# ---------------------------------------------------------------------------
# Record file format (UTF-8 JSON).  Format 2, the one save_record writes:
# {"format": 2, "config_id": str, "device": str, "jobs": [{"job_id": str,
#  "shots": int, "repetitions": int, "ones": [repetitions x 20 ints]}],
#  "timestamp": optional str}
# with each job's ones-counts repetition-major, circuits row-major.  Format 1,
# read but never written, has no "format" key, and each job holds "counts":
# [[[ones, shots] x 20] x repetitions] in place of "ones".


def _require(data: dict, key: str, kind, path: str):
    if key not in data:
        raise RecordSchemaError(f"{path}{key}", "missing required field")
    value = data[key]
    if type(value) is not kind:
        raise RecordSchemaError(
            f"{path}{key}", f"must be {kind.__name__}, got {type(value).__name__}"
        )
    return value


def record_from_dict(data: dict) -> ExperimentRecord:
    """Parse and validate a record document of either format, naming the
    first offending field.

    Every field must have exactly its JSON type (a bool or a float is not an
    ``int``).  ``_read_jobs`` walks the jobs once in document order, raising
    on the first offending field and otherwise collecting every count, and
    the constructor builds the record from what it read.
    """
    if not isinstance(data, dict):
        raise RecordSchemaError("$", "record must be a JSON object")
    fmt = data.get("format", 1)
    if "format" in data and (type(fmt) is not int or fmt != 2):
        raise RecordSchemaError("format", f"must be 2 (format 1 has no format key), got {fmt!r}")
    config_id = _require(data, "config_id", str, "")
    device = _require(data, "device", str, "")
    raw_jobs = _require(data, "jobs", list, "")
    if len(raw_jobs) == 0:
        raise RecordSchemaError("jobs", "must contain at least one job")
    timestamp = data.get("timestamp")
    if timestamp is not None and type(timestamp) is not str:
        raise RecordSchemaError("timestamp", "must be a string when present")
    ids, *counts = _read_jobs(raw_jobs, fmt)
    shots, reps, ones = (np.array(v, np.int64) for v in counts)
    try:
        return ExperimentRecord(
            config_id, device, ids, shots, reps, ones.reshape(-1, 20), timestamp
        )
    except ValueError as exc:
        raise RecordSchemaError("jobs", str(exc)) from None


def _read_jobs(raw_jobs: list, fmt: int) -> tuple[list, list, list, list]:
    """Walk a ``jobs`` list of format ``fmt`` in document order and raise
    :class:`RecordSchemaError` on its first offending field; otherwise return
    ``(job_ids, shots, reps, ones)``, with ``ones`` every count in one flat
    list.  Plain Python, so every value keeps its JSON type."""
    first_use: dict[str, int] = {}  # in document order, so its keys are the ids
    shots_of, reps_of, flat = [], [], []
    total = 0  # sum(shots * reps) so far, a Python int so that it cannot wrap
    for idx, raw in enumerate(raw_jobs):
        path = f"jobs[{idx}]."
        if type(raw) is not dict:
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
        shots_of.append(shots)
        reps_of.append(reps)
        if fmt == 2:
            if "counts" in raw:
                raise RecordSchemaError(f"{path}counts", "not a format-2 field: counts go in ones")
            ones = _require(raw, "ones", list, path)
            if len(ones) != 20 * reps:
                raise RecordSchemaError(
                    f"{path}ones",
                    f"must hold 20 x repetitions={reps} = {20 * reps} counts, got {len(ones)}",
                )
            for n in ones:
                if type(n) is not int or not 0 <= n <= shots:
                    # the first count that is this very object fails first: an
                    # earlier one would fail the same test
                    c = next(c for c, m in enumerate(ones) if m is n)
                    raise RecordSchemaError(
                        f"{path}ones[{c}]",
                        f"needs an integer with 0 <= ones <= shots = {shots} (the job's), "
                        f"got {n!r}",
                    )
            flat += ones
            continue
        if "ones" in raw and "counts" not in raw:
            raise RecordSchemaError(
                f"{path}ones", 'a format-2 field: the document needs "format": 2'
            )
        counts = _require(raw, "counts", list, path)
        if len(counts) != reps:
            raise RecordSchemaError(
                f"{path}counts", f"must hold repetitions={reps} rows, got {len(counts)}"
            )
        for r, row in enumerate(counts):
            if type(row) is not list or len(row) != 20:
                raise RecordSchemaError(f"{path}counts[{r}]", "must be a list of 20 cells")
            for c, cell in enumerate(row):
                if type(cell) is not list or len(cell) != 2 or not (
                    type(cell[0]) is type(cell[1]) is int
                    and cell[1] == shots and 0 <= cell[0] <= shots
                ):
                    raise RecordSchemaError(
                        f"{path}counts[{r}][{c}]",
                        f"needs [ones, shots] of integers with shots = {shots} (the "
                        f"job's) and 0 <= ones <= shots, got {cell!r}",
                    )
                flat.append(cell[0])
    return list(first_use), shots_of, reps_of, flat


def save_record(record: ExperimentRecord, path: str | Path) -> None:
    """Write the record as one line of JSON in format 2, then ``\\n``.

    Keys come in the order above, ``timestamp`` only when set, with ``", "``
    and ``": "`` as separators; every string is escaped by ``json.dumps`` (so
    the file is ASCII).  Each job's ``ones`` is its slice of one flat
    ``tolist()`` of ``record.ones``, and the document is one ``json.dumps``.
    """
    flat = record.ones.reshape(-1).tolist()
    jobs, start = [], 0
    for job_id, shots, reps in zip(
        record.job_ids, record.shots.tolist(), record.reps.tolist()
    ):
        stop = start + 20 * reps
        jobs.append(
            {"job_id": job_id, "shots": shots, "repetitions": reps, "ones": flat[start:stop]}
        )
        start = stop
    doc = {"format": 2, "config_id": record.config_id, "device": record.device, "jobs": jobs}
    if record.timestamp is not None:
        doc["timestamp"] = record.timestamp
    # the document is built here and holds no cycle; skipping the check
    # halves the time for records of many small jobs
    Path(path).write_text(json.dumps(doc, check_circular=False) + "\n", encoding="utf-8")


def load_record(path: str | Path) -> ExperimentRecord:
    """Read a record file; ``json.loads`` detects its encoding (UTF-8, or
    UTF-16/32 per RFC 8259) from the bytes, whatever the locale."""
    try:
        data = json.loads(Path(path).read_bytes())
    except (json.JSONDecodeError, RecursionError, UnicodeDecodeError) as exc:
        raise RecordSchemaError("$", f"not valid JSON: {exc}") from None
    return record_from_dict(data)
