"""Simulated counting, the two estimators, and the record file format."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitcert.configs import builtin_config, predicted_prob_matrix
from qubitcert.noise import DriftModel
from qubitcert.sampling import (
    BiasStudyRow,
    ExperimentPlan,
    ExperimentRecord,
    RecordSchemaError,
    estimate_per_job,
    estimate_pooled,
    estimator_bias_study,
    load_record,
    record_from_dict,
    record_to_dict,
    save_record,
    simulate_record,
)
from qubitcert.witness import prob_matrix, witness

from conftest import json_edits, json_values


@pytest.fixture
def truth():
    return predicted_prob_matrix(builtin_config("I-second"))


@pytest.fixture
def small_plan():
    return ExperimentPlan(n_jobs=4, shots=200, repetitions=3, seed=5)


def _mixed_record(truth):
    """Three jobs of (300 shots x 1 rep, 300 x 1, 700 x 2)."""
    a = simulate_record(truth, ExperimentPlan(2, 300, 1, seed=1))
    b = simulate_record(truth, ExperimentPlan(1, 700, 2, seed=99))
    return ExperimentRecord(
        "I-second", "sim", ("a0", "a1", "b0"), [300, 300, 700], [1, 1, 2],
        np.concatenate([a.ones, b.ones]),
    )


# --- plan & record containers ---------------------------------------------


def test_plan_totals_and_validation():
    plan = ExperimentPlan(n_jobs=115, shots=100_000, repetitions=8)
    assert plan.total_counts == 115 * 100_000 * 8
    with pytest.raises(ValueError):
        ExperimentPlan(n_jobs=0, shots=1, repetitions=1)
    with pytest.raises(ValueError):
        ExperimentPlan(n_jobs=1, shots=0, repetitions=1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ExperimentPlan(n_jobs=1, shots=1, repetitions=1, seed=-1)
    top = 2**63 - 1
    assert ExperimentPlan(n_jobs=1, shots=top, repetitions=1).total_counts == top
    with pytest.raises(ValueError, match=f"reaches {top + 1}, above {top}"):
        ExperimentPlan(n_jobs=1, shots=2**62, repetitions=2)


def test_job_record_validation():
    """Per-job counts held by the record: ones within [0, shots], one block
    of rows per repetition, one shots and reps value per job, unique ids."""
    ones = np.zeros((2, 20), dtype=np.int64)
    ExperimentRecord("II-0", "sim", ("j",), [50], [2], ones)
    bad = ones.copy()
    bad[0, 3] = 51
    with pytest.raises(ValueError):
        ExperimentRecord("II-0", "sim", ("j",), [50], [2], bad)
    with pytest.raises(ValueError):
        ExperimentRecord("II-0", "sim", ("j",), [50], [3], ones)  # shape mismatch
    with pytest.raises(ValueError):
        ExperimentRecord("II-0", "sim", ("j",), [50, 50], [2], ones)
    with pytest.raises(ValueError):
        ExperimentRecord("II-0", "sim", ("j", "j"), [50, 50], [1, 1], ones)
    with pytest.raises(ValueError, match="total count"):  # sum wraps in int64
        ExperimentRecord("II-0", "sim", ("j", "k"), [2**62, 2**62], [1, 1], ones)


def test_record_requires_jobs():
    with pytest.raises(ValueError):
        ExperimentRecord("II-0", "sim", (), [], [], np.zeros((0, 20)))


# --- simulation ------------------------------------------------------------


def test_simulation_is_deterministic(truth, small_plan):
    a = simulate_record(truth, small_plan, config=builtin_config("I-second"))
    b = simulate_record(truth, small_plan, config=builtin_config("I-second"))
    assert a.config_id == "I-second"
    assert a.job_ids == b.job_ids
    assert np.array_equal(a.ones, b.ones)


def test_simulation_seed_changes_counts(truth, small_plan):
    a = simulate_record(truth, small_plan)
    b = simulate_record(truth, ExperimentPlan(4, 200, 3, seed=6))
    assert not np.array_equal(a.ones, b.ones)


def test_simulation_shapes_and_ids(truth, small_plan):
    rec = simulate_record(truth, small_plan)
    assert rec.job_ids == ("job-0000", "job-0001", "job-0002", "job-0003")
    assert rec.ones.shape == (4 * 3, 20)
    assert rec.shots.tolist() == [200] * 4
    assert rec.reps.tolist() == [3] * 4


def test_degenerate_probabilities_sample_exactly():
    rows = np.zeros((4, 5))
    rows[:, 0] = 1.0
    rec = simulate_record(
        prob_matrix(rows), ExperimentPlan(2, 100, 2, seed=1)
    )
    ones = rec.ones.reshape(4, 4, 5)
    assert np.all(ones[:, :, 0] == 100)
    assert np.all(ones[:, :, 1:] == 0)


def test_drift_requires_config(truth, small_plan):
    with pytest.raises(ValueError, match="config"):
        simulate_record(truth, small_plan, DriftModel(0.01, 4))


@pytest.mark.parametrize("drift_jobs", [3, 10])
def test_drift_job_count_must_match_plan(truth, drift_jobs):
    """Too many drifted matrices were once silently cut, too few an IndexError."""
    plan = ExperimentPlan(5, 100, 1, seed=2)
    with pytest.raises(ValueError, match=f"{drift_jobs} jobs but the plan has 5"):
        simulate_record(
            truth, plan, DriftModel(0.02, drift_jobs), config=builtin_config("II-0")
        )


def test_drift_simulation_runs(small_plan):
    cfg = builtin_config("II-0")
    rec = simulate_record(
        predicted_prob_matrix(cfg),
        small_plan,
        DriftModel(0.02, 4, "column-mix"),
        config=cfg,
    )
    assert rec.config_id == "II-0"
    assert len(rec.job_ids) == 4


# --- estimators ------------------------------------------------------------


def test_estimators_on_exact_counts():
    """Counts exactly proportional to a matrix reproduce its witness with no
    spread: identical jobs give stderr 0 for method (i)."""
    rows = np.array(
        [
            [0.50, 0.25, 0.75, 0.10, 0.90],
            [0.20, 0.60, 0.40, 0.80, 0.30],
            [0.45, 0.15, 0.85, 0.55, 0.65],
            [0.05, 0.95, 0.35, 0.70, 0.25],
        ]
    )
    p = prob_matrix(rows)
    shots = 400
    ones = np.round(rows.reshape(20) * shots).astype(np.int64)
    rec = ExperimentRecord(
        "custom", "sim", ("job-0", "job-1", "job-2"), [shots] * 3, [1] * 3,
        np.tile(ones, (3, 1)),
    )
    est_i, per_job_W = estimate_per_job(rec)
    est_ii = estimate_pooled(rec)
    assert est_i.W == pytest.approx(witness(p), abs=1e-12)
    assert est_i.sigma == pytest.approx(0.0, abs=1e-15)
    assert est_ii.W == pytest.approx(witness(p), abs=1e-12)
    assert per_job_W.shape == (3,)


def test_per_job_witnesses_match_per_job_loop(truth):
    """The batched determinant gives, bit for bit, one witness() per job."""
    rec = _mixed_record(truth)
    est, per_job_W = estimate_per_job(rec)
    loop, row = [], 0
    for shots, reps in zip(rec.shots.tolist(), rec.reps.tolist()):
        ones = rec.ones[row : row + reps].sum(axis=0)
        loop.append(witness(prob_matrix((ones / (shots * reps)).reshape(4, 5))))
        row += reps
    assert per_job_W.tolist() == loop
    assert est.W == float(np.mean(loop))
    assert est.sigma == float(np.std(loop, ddof=1) / np.sqrt(3))


def test_single_job_stderr_is_none(truth):
    rec = simulate_record(truth, ExperimentPlan(1, 500, 2, seed=3))
    est, per_job_W = estimate_per_job(rec)
    assert est.sigma is None
    assert est.z is None
    assert len(per_job_W) == 1


def test_estimates_concentrate_near_truth(truth):
    rec = simulate_record(truth, ExperimentPlan(10, 4000, 5, seed=17))
    est_i, _ = estimate_per_job(rec)
    est_ii = estimate_pooled(rec)
    # truth is witness-zero; both should sit within a few sigma of zero
    assert abs(est_i.W) < 5 * est_i.sigma + 1e-12
    assert abs(est_ii.W) < 5 * est_ii.sigma + 1e-12


def test_pooled_stderr_matches_variance_formula(truth):
    from qubitcert.witness import witness_variance

    rec = simulate_record(truth, ExperimentPlan(6, 1000, 2, seed=8))
    est = estimate_pooled(rec)
    p = prob_matrix((rec.ones.sum(axis=0) / 12_000).reshape(4, 5))
    assert est.sigma == pytest.approx(
        np.sqrt(witness_variance(p, 12_000)), rel=1e-12
    )


def test_pooled_handles_unequal_job_sizes(truth):
    """Jobs of different shots and repetitions pool cellwise, every cell
    backed by T = sum(shots * reps); the stderr agrees with the per-cell
    adjugate formula at that T."""
    from qubitcert.witness import adjugate

    rec = _mixed_record(truth)
    est = estimate_pooled(rec)
    total = 300 + 300 + 700 * 2
    p = prob_matrix((rec.ones.sum(axis=0) / total).reshape(4, 5))
    assert est.W == pytest.approx(witness(p), abs=1e-14)
    adj = adjugate(p)
    cells = p[:4]
    var = float(np.sum(cells * (1.0 - cells) * adj.T[:4] ** 2 / total))
    assert est.sigma == pytest.approx(np.sqrt(var), rel=1e-12)


def test_empty_cell_job_rejected(truth):
    """A job whose cells report 0 shots is rejected, naming its first cell."""
    good = record_to_dict(simulate_record(truth, ExperimentPlan(3, 100, 2, seed=4)))
    good["jobs"].append(
        {"job_id": "job-bad", "shots": 100, "repetitions": 2,
         "counts": [[[0, 0]] * 20] * 2}
    )
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(good)
    assert err.value.field == "jobs[3].counts[0][0]"


def test_all_jobs_empty_raises():
    doc = {
        "config_id": "x", "device": "sim",
        "jobs": [{"job_id": "a", "shots": 10, "repetitions": 1,
                  "counts": [[[0, 0]] * 20]}],
    }
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    assert err.value.field == "jobs[0].counts[0][0]"


# --- bias study ------------------------------------------------------------


def test_bias_study_rejects_nonzero_truth(rng):
    rows = rng.uniform(0.2, 0.8, (4, 5))
    with pytest.raises(ValueError):
        estimator_bias_study(
            prob_matrix(rows), [ExperimentPlan(2, 100, 1)], replications=10
        )


def test_bias_study_shapes_and_fluctuation_scaling(truth):
    plans = [
        ExperimentPlan(5, 1_000, 1, seed=7),
        ExperimentPlan(5, 100_000, 1, seed=7),
    ]
    rows = estimator_bias_study(truth, plans, replications=300)
    assert len(rows) == 2
    assert all(isinstance(r, BiasStudyRow) for r in rows)
    # fluctuation scale of the per-job mean shrinks with shots (here 100x
    # more shots -> 10x smaller standard error, so well separated)
    assert rows[1].per_job_se < rows[0].per_job_se / 3
    # both methods are unbiased: means within 5 standard errors of zero
    for r in rows:
        assert abs(r.per_job_mean) < 5 * r.per_job_se
        assert abs(r.pooled_mean) < 5 * r.pooled_se


def test_bias_study_deterministic(truth):
    plans = [ExperimentPlan(3, 500, 1, seed=11)]
    a = estimator_bias_study(truth, plans, replications=50)
    b = estimator_bias_study(truth, plans, replications=50)
    assert a[0].per_job_mean == b[0].per_job_mean
    assert a[0].pooled_mean == b[0].pooled_mean


# --- record file format ----------------------------------------------------


def test_record_round_trip(tmp_path, truth, small_plan):
    rec = simulate_record(
        truth, small_plan, config=builtin_config("I-second"), device="simulator"
    )
    path = tmp_path / "rec.json"
    save_record(rec, path)
    back = load_record(path)
    assert back.config_id == rec.config_id
    assert back.device == rec.device
    assert back.timestamp is None
    assert back.job_ids == rec.job_ids
    assert np.array_equal(back.shots, rec.shots)
    assert np.array_equal(back.reps, rec.reps)
    assert np.array_equal(back.ones, rec.ones)


def test_record_dict_structure(truth):
    rec = simulate_record(truth, ExperimentPlan(2, 50, 1, seed=2))
    d = record_to_dict(rec)
    assert set(d) == {"config_id", "device", "jobs"}
    assert len(d["jobs"]) == 2
    job = d["jobs"][0]
    assert set(job) == {"job_id", "shots", "repetitions", "counts"}
    assert json.dumps(d)  # JSON-serializable as-is


def _valid_doc():
    return {
        "config_id": "II-0",
        "device": "sim",
        "jobs": [
            {
                "job_id": "job-0000",
                "shots": 10,
                "repetitions": 1,
                "counts": [[[5, 10]] * 20],
            }
        ],
    }


def test_schema_error_names_first_offender():
    doc = _valid_doc()
    del doc["device"]
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    assert err.value.field == "device"

    doc = _valid_doc()
    doc["jobs"][0]["counts"][0][7] = [11, 10]  # ones > shots
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    assert err.value.field == "jobs[0].counts[0][7]"

    doc = _valid_doc()
    doc["jobs"][0]["shots"] = "ten"
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    assert err.value.field == "jobs[0].shots"

    doc = _valid_doc()
    doc["jobs"][0]["counts"][0][3] = [5.5, 10]  # non-integer
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    assert err.value.field == "jobs[0].counts"

    doc = _valid_doc()
    doc["jobs"][0]["counts"][0][4] = [True, 10]  # numpy would read it as 1
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    assert err.value.field == "jobs[0].counts[0][4]"

    doc = _valid_doc()
    doc["jobs"][0]["counts"][0][9] = [5, 9]  # cell shots differ from the job's
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    assert err.value.field == "jobs[0].counts[0][9]"

    doc = _valid_doc()
    doc["jobs"].append(dict(doc["jobs"][0]))  # same job_id twice
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    assert err.value.field == "jobs[1].job_id"

    doc = _valid_doc()
    doc["jobs"] = []
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    assert err.value.field == "jobs"


def test_schema_error_is_value_error():
    assert issubclass(RecordSchemaError, ValueError)


#: Files that json.loads cannot decode: a syntax error, nesting deep enough to
#: exhaust the decoder's recursion, and bytes that are not UTF-8.
BAD_JSON = [b"{]", b"[" * 100_000, b"\xff\xfe{"]


def test_load_record_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    for content in BAD_JSON:
        path.write_bytes(content)
        with pytest.raises(RecordSchemaError, match="not valid JSON") as exc:
            load_record(path)
        assert exc.value.field == "$"


def test_timestamp_preserved(tmp_path, truth):
    rec = simulate_record(truth, ExperimentPlan(1, 20, 1, seed=0))
    stamped = dataclasses.replace(rec, timestamp="2024-08-17T12:00:00Z")
    path = tmp_path / "t.json"
    save_record(stamped, path)
    assert load_record(path).timestamp == "2024-08-17T12:00:00Z"


# --- fuzzing the record parser ---------------------------------------------

_TOP_FIELDS = {"$", "config_id", "device", "jobs", "timestamp"}


@st.composite
def _documents(draw):
    """A record document, valid but for an optional repeated job id and an
    optional count entry at or beyond its bounds, then up to two random
    edits."""
    jobs = []
    for n in range(draw(st.integers(1, 3))):
        shots, reps = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        ones = draw(st.lists(st.integers(0, shots), min_size=20 * reps, max_size=20 * reps))
        counts = [[[o, shots] for o in ones[20 * r : 20 * (r + 1)]] for r in range(reps)]
        jobs.append({"job_id": f"j{n}", "shots": shots, "repetitions": reps, "counts": counts})
    if len(jobs) > 1 and draw(st.integers(0, 3)) == 0:
        jobs[-1]["job_id"] = "j0"
    if draw(st.booleans()):  # one count entry at or beyond its bounds
        job = draw(st.sampled_from(jobs))
        cell = job["counts"][draw(st.integers(0, job["repetitions"] - 1))][draw(st.integers(0, 19))]
        cell[draw(st.integers(0, 1))] = draw(st.booleans() | st.integers(-1, 4))
    doc = {"config_id": "II-0", "device": "sim", "jobs": jobs}
    if draw(st.booleans()):
        doc["timestamp"] = "2024-08-17T12:00:00Z"
    return draw(json_edits(doc, json_values))


def _is_int(x):
    return type(x) is int


def _doc_is_valid(doc) -> bool:
    """The record schema stated in plain Python, as the fuzz test's oracle."""
    if type(doc) is not dict:
        return False
    if type(doc.get("config_id")) is not str or type(doc.get("device")) is not str:
        return False
    if doc.get("timestamp") is not None and type(doc["timestamp"]) is not str:
        return False
    jobs = doc.get("jobs")
    if type(jobs) is not list or not jobs:
        return False
    ids, total = [], 0
    for job in jobs:
        if type(job) is not dict:
            return False
        shots, reps, counts = job.get("shots"), job.get("repetitions"), job.get("counts")
        if type(job.get("job_id")) is not str or not (_is_int(shots) and _is_int(reps)):
            return False
        if not (1 <= shots < 2**63 and reps >= 1):
            return False
        total += shots * reps
        if total >= 2**63:
            return False
        if type(counts) is not list or len(counts) != reps:
            return False
        for rep in counts:
            if type(rep) is not list or len(rep) != 20:
                return False
            for cell in rep:
                if type(cell) is not list or len(cell) != 2 or not all(map(_is_int, cell)):
                    return False
                if cell[1] != shots or not 0 <= cell[0] <= shots:
                    return False
        ids.append(job["job_id"])
    return len(set(ids)) == len(ids)


@settings(max_examples=400, deadline=None)
@given(_documents())
def test_record_from_dict_accepts_exactly_the_valid_documents(doc):
    """Every malformed document raises RecordSchemaError naming a field; every
    valid one is accepted and written back unchanged."""
    if _doc_is_valid(doc):
        expected = dict(doc)
        if expected.get("timestamp") is None:
            expected.pop("timestamp", None)
        back = record_to_dict(record_from_dict(doc))
        assert json.dumps(back, sort_keys=True) == json.dumps(expected, sort_keys=True)
    else:
        with pytest.raises(RecordSchemaError) as err:
            record_from_dict(doc)
        assert err.value.field.split(".")[0].split("[")[0] in _TOP_FIELDS
