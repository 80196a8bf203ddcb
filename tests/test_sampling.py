"""Simulated counting, the two estimators, and the record file format."""

import dataclasses
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qubitcert.configs import builtin_config, predicted_prob_matrix
from qubitcert.noise import DriftModel, generate_drift_ensemble
from qubitcert.sampling import (
    ExperimentRecord,
    RecordSchemaError,
    estimate_per_job,
    estimate_pooled,
    estimator_bias_study,
    load_record,
    record_from_dict,
    save_record,
    simulate_record,
)
from qubitcert.witness import WitnessResult, prob_matrix, witness

from conftest import json_edits, json_values, record_to_dict, record_to_v1_dict


@pytest.fixture
def truth():
    return predicted_prob_matrix(builtin_config("I-second"))


@pytest.fixture
def small_run():
    """(n_jobs, shots, repetitions, seed) of a small simulation."""
    return 4, 200, 3, 5


def _mixed_record(truth):
    """Three jobs of (300 shots x 1 rep, 300 x 1, 700 x 2)."""
    a = simulate_record(truth, 2, 300, 1, 1)
    b = simulate_record(truth, 1, 700, 2, 99)
    return ExperimentRecord(
        "I-second", "sim", ("a0", "a1", "b0"), [300, 300, 700], [1, 1, 2],
        np.concatenate([a.ones, b.ones]),
    )


# --- run arguments & record containers ------------------------------------


def test_run_arguments_validation(monkeypatch, truth):
    """simulate_record and estimator_bias_study check their jobs, shots,
    repetitions, seed and total count before any draw, with one message each:
    no generator is built before the check."""
    for name in ("default_rng", "Generator"):
        monkeypatch.setattr(
            np.random, name, lambda *a, **k: pytest.fail("drew before the check")
        )
    for args, message in [
        ((0, 1, 1), "n_jobs must be >= 1, got 0"),
        ((1, 0, 1), "shots must be >= 1, got 0"),
        ((1, 1, 0), "repetitions must be >= 1, got 0"),
        ((1, 1, 1, -1), "seed must be >= 0"),
        ((1, 2**62, 2), f"reaches {2**63}, above {2**63 - 1}"),
    ]:
        with pytest.raises(ValueError, match=message):
            simulate_record(truth, *args)
    for n_jobs, shots, message in [
        (0, [1], "n_jobs must be >= 1, got 0"),
        (1, [10, 0], "shots must be >= 1, got 0"),
        (2, [2**62], f"reaches {2**63}, above {2**63 - 1}"),
        (np.int64(2), [np.int64(2**62)], f"reaches {2**63}, above {2**63 - 1}"),
    ]:
        with pytest.raises(ValueError, match=message):
            estimator_bias_study(truth, n_jobs, shots, replications=2)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        estimator_bias_study(truth, 1, [1], replications=2, seed=-1)
    for shots in ([], np.array([], int)):  # once returned [] unchecked, even for seed=-1
        with pytest.raises(ValueError, match="at least one shot count"):
            estimator_bias_study(truth, 0, shots, seed=-1)


def test_a_total_count_of_int64_max_is_accepted(truth):
    top = 2**63 - 1
    rec = simulate_record(truth, 1, top, 1)
    assert (rec.shots.tolist(), rec.reps.tolist()) == ([top], [1])
    [(per_job, pooled)] = estimator_bias_study(truth, 1, [top], replications=2)
    assert np.isfinite(per_job.W) and np.isfinite(pooled.W)


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
    with pytest.raises(ValueError, match="shots and reps must be >= 1"):
        ExperimentRecord("II-0", "sim", ("j",), [0], [2], ones)
    with pytest.raises(ValueError, match="shots and reps must be >= 1"):
        ExperimentRecord("II-0", "sim", ("j",), [50], [0], np.zeros((0, 20), np.int64))


def test_record_requires_jobs():
    with pytest.raises(ValueError):
        ExperimentRecord("II-0", "sim", (), [], [], np.zeros((0, 20)))


@pytest.mark.parametrize(
    "change",
    [
        {"shots": [10.9]},  # once truncated to 10
        {"reps": [True]},  # once read as 1
        {"shots": [2**64]},  # once an OverflowError
        {"shots": [2**63]},
        {"reps": np.array([1.0])},
        {"ones": np.full((1, 20), 5.7)},  # once truncated to 5
        {"ones": np.ones((1, 20), dtype=bool)},
        {"config_id": 3},  # once saved as a file that cannot be loaded
        {"device": None},
        {"job_ids": (7,)},
        {"timestamp": 5},
    ],
)
def test_record_rejects_values_it_could_not_write_back(change):
    args = dict(config_id="II-0", device="sim", job_ids=("j",), shots=[10], reps=[1],
                ones=np.full((1, 20), 5), timestamp=None)
    ExperimentRecord(**args)
    with pytest.raises(ValueError):
        ExperimentRecord(**{**args, **change})


@pytest.mark.parametrize(
    "change",
    [
        {"shots": [10, True]},
        {"reps": [1, np.True_]},
        {"ones": [[0] * 20, [0] * 19 + [False]]},
    ],
)
def test_record_rejects_a_bool_among_integers(change):
    """numpy gives such a list an integer dtype, reading the bool as 0 or 1."""
    args = dict(config_id="a", device="b", job_ids=("j", "k"), shots=[10, 1], reps=[1, 1],
                ones=np.zeros((2, 20), int))
    ExperimentRecord(**args)
    with pytest.raises(ValueError, match="got a bool"):
        ExperimentRecord(**{**args, **change})


def test_record_holds_its_own_copy_of_the_counts():
    shots, reps, ones = np.array([5]), np.array([1]), np.zeros((1, 20), np.int64)
    rec = ExperimentRecord("c", "d", ("j",), shots, reps, ones)
    shots[0], reps[0], ones[0, 0] = 6, 2, 1
    assert (rec.shots.tolist(), rec.reps.tolist(), rec.ones[0, 0]) == ([5], [1], 0)
    assert not any(a.flags.writeable for a in (rec.shots, rec.reps, rec.ones))


#: a value of the wrong type or range for any field of a record
_WRONG = (
    st.booleans() | st.floats(-1, 5) | st.integers(-1, 3) | st.none()
    | st.sampled_from([2**63 - 1, 2**63, 2**64]) | st.text(max_size=2)
)


@st.composite
def _record_args(draw):
    """ExperimentRecord arguments: a valid record's, with perhaps one argument
    or one entry of a list argument replaced by a draw from ``_WRONG``."""
    n = draw(st.integers(1, 3))
    shots = draw(st.lists(st.integers(1, 3) | st.just(2**62), min_size=n, max_size=n))
    reps = draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    ones = []
    for s, r in zip(shots, reps):
        ones += [draw(st.lists(st.integers(0, s), min_size=20, max_size=20)) for _ in range(r)]
    args = dict(config_id="II-0", device=draw(st.text(max_size=3)),
                job_ids=[f"j{i}" for i in range(n)], shots=shots, reps=reps, ones=ones,
                timestamp=draw(st.none() | st.text(max_size=3)))
    where = draw(st.sampled_from([None, *args]))
    if where in ("config_id", "device", "timestamp"):
        args[where] = draw(_WRONG)
    elif where == "ones":
        ones[draw(st.integers(0, len(ones) - 1))][draw(st.integers(0, 19))] = draw(_WRONG)
    elif where is not None:
        args[where][draw(st.integers(0, n - 1))] = draw(_WRONG)
    return args


@settings(max_examples=300, deadline=None)
@given(_record_args())
def test_every_record_the_constructor_accepts_saves_and_loads_back(args):
    """save_record -> load_record -> save_record gives the same bytes for every
    record the constructor accepts."""
    try:
        rec = ExperimentRecord(**args)
    except ValueError:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rec.json"
        save_record(rec, path)
        first = path.read_bytes()
        save_record(load_record(path), path)
        assert path.read_bytes() == first


# --- simulation ------------------------------------------------------------


def test_simulation_is_deterministic(truth, small_run):
    a = simulate_record(truth, *small_run, config_id="I-second")
    b = simulate_record(truth, *small_run, config_id="I-second")
    assert a.config_id == "I-second"
    assert a.job_ids == b.job_ids
    assert np.array_equal(a.ones, b.ones)


@pytest.mark.parametrize("seed", [0, 2**32 + 5])
@pytest.mark.parametrize("stacked", [False, True], ids=["one-matrix", "per-job-stack"])
def test_simulation_draws_each_job_from_its_spawned_generator(truth, seed, stacked):
    """Job n's counts are the draw of the generator spawned as (seed, n),
    bit for bit, whether every job samples one matrix or its own."""
    n_jobs, shots, reps = 6, 300, 2
    if stacked:
        cfg = builtin_config("II-0")
        true_p = generate_drift_ensemble(cfg, DriftModel(0.05, n_jobs, "angle-jitter"), 3)
    else:
        true_p = truth
    rec = simulate_record(true_p, n_jobs, shots, reps, seed)
    job_ps = np.broadcast_to(true_p, (n_jobs, 5, 5))
    for n in range(n_jobs):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(n,)))
        expected = rng.binomial(shots, job_ps[n, :4].reshape(20), size=(reps, 20))
        assert rec.ones[n * reps : (n + 1) * reps].tobytes() == expected.tobytes(), n


def test_simulation_of_numpy_integers_is_that_of_python_ints(truth):
    """numpy integer job, shot, repetition counts and seed draw the record of
    their values."""
    a = simulate_record(truth, np.int64(4), np.int64(50), np.int64(2), np.int64(5))
    b = simulate_record(truth, 4, 50, 2, 5)
    assert a.ones.tobytes() == b.ones.tobytes()
    assert a.job_ids == b.job_ids


def test_simulation_seed_changes_counts(truth, small_run):
    a = simulate_record(truth, *small_run)
    b = simulate_record(truth, 4, 200, 3, 6)
    assert not np.array_equal(a.ones, b.ones)


def test_simulation_shapes_and_ids(truth, small_run):
    rec = simulate_record(truth, *small_run)
    assert rec.job_ids == ("job-0000", "job-0001", "job-0002", "job-0003")
    assert rec.ones.shape == (4 * 3, 20)
    assert rec.shots.tolist() == [200] * 4
    assert rec.reps.tolist() == [3] * 4


def test_degenerate_probabilities_sample_exactly():
    rows = np.zeros((4, 5))
    rows[:, 0] = 1.0
    rec = simulate_record(prob_matrix(rows), 2, 100, 2, 1)
    ones = rec.ones.reshape(4, 4, 5)
    assert np.all(ones[:, :, 0] == 100)
    assert np.all(ones[:, :, 1:] == 0)


def test_each_job_samples_its_own_matrix():
    stack = prob_matrix(np.stack([np.zeros((4, 5)), np.ones((4, 5)), np.zeros((4, 5))]))
    rec = simulate_record(stack, 3, 100, 2, 1)
    assert rec.ones.reshape(3, 2, 20)[:, :, 0].tolist() == [[0, 0], [100, 100], [0, 0]]


@pytest.mark.parametrize("drift_jobs", [3, 10])
def test_drift_job_count_must_match_plan(truth, drift_jobs):
    """Too many drifted matrices were once silently cut, too few an IndexError."""
    stack = np.broadcast_to(truth, (drift_jobs, 5, 5))
    with pytest.raises(ValueError, match=rf"n_jobs = 5, got \({drift_jobs}, 5, 5\)"):
        simulate_record(stack, 5, 100, 1, 2)


def test_drift_simulation_runs(small_run):
    cfg = builtin_config("II-0")
    drifted = generate_drift_ensemble(cfg, DriftModel(0.02, 4, "column-mix"), small_run[-1])
    rec = simulate_record(drifted, *small_run, config_id=cfg.id)
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
    rec = simulate_record(truth, 1, 500, 2, 3)
    est, per_job_W = estimate_per_job(rec)
    assert est.sigma is None
    assert est.z is None
    assert len(per_job_W) == 1


def test_estimates_concentrate_near_truth(truth):
    rec = simulate_record(truth, 10, 4000, 5, 17)
    est_i, _ = estimate_per_job(rec)
    est_ii = estimate_pooled(rec)
    # truth is witness-zero; both should sit within a few sigma of zero
    assert abs(est_i.W) < 5 * est_i.sigma + 1e-12
    assert abs(est_ii.W) < 5 * est_ii.sigma + 1e-12


def test_pooled_stderr_matches_variance_formula(truth):
    from qubitcert.witness import witness_variance

    rec = simulate_record(truth, 6, 1000, 2, 8)
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
    good = record_to_v1_dict(simulate_record(truth, 3, 100, 2, 4))
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
        estimator_bias_study(prob_matrix(rows), 2, [100], replications=10)


def test_bias_study_shapes_and_fluctuation_scaling(truth):
    results = estimator_bias_study(truth, 5, [1_000, 100_000], replications=300, seed=7)
    assert len(results) == 2
    assert all(
        len(pair) == 2 and all(type(r) is WitnessResult for r in pair) for pair in results
    )
    # fluctuation scale of the per-job mean shrinks with shots (here 100x
    # more shots -> 10x smaller standard error, so well separated)
    assert results[1][0].sigma < results[0][0].sigma / 3
    # both methods are unbiased: means within 5 standard errors of zero
    for pair in results:
        for r in pair:
            assert abs(r.z) < 5


def test_bias_study_deterministic(truth):
    a = estimator_bias_study(truth, 3, [500], replications=50, seed=11)
    b = estimator_bias_study(truth, 3, [500], replications=50, seed=11)
    assert a == b


def test_bias_study_reproduces_its_recorded_draws(truth):
    """The floats the study gave, for this call, before it returned
    WitnessResults: every draw and every reduction is unchanged."""
    [(per_job, pooled)] = estimator_bias_study(truth, 10, [1000], replications=50, seed=7)
    assert per_job == WitnessResult(-0.0004903848268060097, 0.0005294961558075103)
    assert pooled == WitnessResult(-0.0004853352076946897, 0.0005283960901313361)


# --- record file format ----------------------------------------------------


def test_record_round_trip(tmp_path, truth, small_run):
    rec = simulate_record(
        truth, *small_run, config_id="I-second", device="simulator"
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
    rec = simulate_record(truth, 2, 50, 3, 2)
    d = record_to_dict(rec)
    assert list(d) == ["format", "config_id", "device", "jobs"] and d["format"] == 2
    assert len(d["jobs"]) == 2
    job = d["jobs"][1]
    assert list(job) == ["job_id", "shots", "repetitions", "ones"]
    assert job["ones"] == rec.ones[3:].reshape(-1).tolist()  # repetition-major
    assert json.dumps(d)  # JSON-serializable as-is
    v1 = record_to_v1_dict(rec)
    assert list(v1) == ["config_id", "device", "jobs"]
    assert v1["jobs"][1]["counts"][2][19] == [job["ones"][59], 50]


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


def _valid_v2_doc():
    return {
        "format": 2,
        "config_id": "II-0",
        "device": "sim",
        "jobs": [{"job_id": "job-0000", "shots": 10, "repetitions": 1, "ones": [5] * 20}],
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
    assert err.value.field == "jobs[0].counts[0][3]"

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

    doc = _valid_doc()
    doc["timestamp"] = 20240101
    bad_rows = _valid_doc()
    bad_rows["jobs"][0]["counts"].append([[5, 10]] * 20)  # two rows, one repetition
    short_row = _valid_doc()
    short_row["jobs"][0]["counts"][0] = [[5, 10]] * 19
    for bad, field in [
        ([_valid_doc()], "$"),
        (doc, "timestamp"),
        ({**_valid_doc(), "jobs": _valid_doc()["jobs"] + ["job-0001"]}, "jobs[1]"),
        (bad_rows, "jobs[0].counts"),
        (short_row, "jobs[0].counts[0]"),
    ]:
        with pytest.raises(RecordSchemaError) as err:
            record_from_dict(bad)
        assert err.value.field == field


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


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32-be"])
def test_load_record_detects_the_encoding(tmp_path, truth, encoding):
    rec = simulate_record(truth, 2, 20, 1, 0)
    path = tmp_path / "rec.json"
    path.write_bytes(json.dumps(record_to_dict(rec)).encode(encoding))
    assert np.array_equal(load_record(path).ones, rec.ones)


DATA = Path(__file__).parent / "data"


def test_both_pinned_formats_load_the_same_record_and_save_format_2(tmp_path):
    """record_v1.json is the pinned record as format 1 was written, and
    record_v2.json the same record in format 2: both load to the same arrays,
    and save -> load -> save of either gives the format-2 bytes."""
    v1, v2 = (DATA / "record_v1.json").read_bytes(), (DATA / "record_v2.json").read_bytes()
    a, b = load_record(DATA / "record_v1.json"), load_record(DATA / "record_v2.json")
    for name in ("config_id", "device", "job_ids", "timestamp", "shots", "reps", "ones"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert json.dumps(record_to_v1_dict(a)).encode() + b"\n" == v1
    for rec in (a, b):
        path = tmp_path / "rec.json"
        save_record(rec, path)
        assert path.read_bytes() == v2
        save_record(load_record(path), path)
        assert path.read_bytes() == v2


def test_timestamp_preserved(tmp_path, truth):
    rec = simulate_record(truth, 1, 20, 1, 0)
    stamped = dataclasses.replace(rec, timestamp="2024-08-17T12:00:00Z")
    path = tmp_path / "t.json"
    save_record(stamped, path)
    assert load_record(path).timestamp == "2024-08-17T12:00:00Z"


def _saved_text(record) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rec.json"
        save_record(record, path)
        return path.read_bytes().decode("utf-8")


#: strings that json.dumps escapes: a quote, a backslash, control characters
#: and text outside ASCII
_AWKWARD = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "Zürich Ω 量子 😀", "%d %s"]


@pytest.mark.parametrize("text", _AWKWARD)
def test_save_record_escapes_strings_as_json_dumps(truth, text):
    rec = simulate_record(truth, 2, 30, 2, 3)
    rec = dataclasses.replace(
        rec, device=text, config_id=text, job_ids=(text, text + "'"), timestamp=text
    )
    saved = _saved_text(rec)
    assert saved == json.dumps(record_to_dict(rec)) + "\n"
    assert saved.isascii()


def test_save_record_of_mixed_jobs_is_json_dumps(tmp_path, truth):
    rec = _mixed_record(truth)
    assert _saved_text(rec) == json.dumps(record_to_dict(rec)) + "\n"
    save_record(rec, tmp_path / "rec.json")
    back = load_record(tmp_path / "rec.json")
    assert back.job_ids == rec.job_ids
    assert np.array_equal(back.shots, rec.shots) and np.array_equal(back.reps, rec.reps)
    assert np.array_equal(back.ones, rec.ones)


@pytest.mark.parametrize(
    "leaf", [1.5, 1.0, True, "3", None, [1], 2**63, -(2**63) - 1, 2**64 + 1]
)
def test_a_count_numpy_would_coerce_goes_to_the_per_job_loop(leaf):
    """A leaf that numpy would coerce to an int64, or fail on, is named down
    to its cell."""
    doc = _valid_doc()
    doc["jobs"][0]["counts"][0][7] = [leaf, 10]
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    assert err.value.field == "jobs[0].counts[0][7]"


@pytest.mark.parametrize(
    "leaf", [1.5, 1.0, True, "3", None, [1], 2**63, -(2**63) - 1, 2**64 + 1]
)
def test_a_format_2_count_numpy_would_coerce_goes_to_the_per_job_loop(leaf):
    doc = _valid_v2_doc()
    doc["jobs"][0]["ones"][7] = leaf
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    assert err.value.field == "jobs[0].ones[7]"


def test_a_python_built_document_with_numpy_integers_is_rejected():
    """A JSON file cannot hold a numpy integer; a document built in Python that
    does is rejected with the field named, as a float or a bool would be."""
    doc = _valid_doc()
    doc["jobs"][0]["shots"] = np.int64(10)
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    assert err.value.field == "jobs[0].shots"
    doc = _valid_doc()
    doc["jobs"][0]["counts"][0][2] = [np.int64(5), 10]
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    assert err.value.field == "jobs[0].counts[0][2]"


# --- fuzzing the record parser ---------------------------------------------

_TOP_FIELDS = {"$", "config_id", "device", "jobs", "timestamp"}


@st.composite
def _documents(draw):
    """A record document, valid but for an optional repeated job id and up to
    two count entries at or beyond their bounds, then up to two random
    edits."""
    jobs = []
    for n in range(draw(st.integers(1, 3))):
        shots, reps = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        ones = draw(st.lists(st.integers(0, shots), min_size=20 * reps, max_size=20 * reps))
        counts = [[[o, shots] for o in ones[20 * r : 20 * (r + 1)]] for r in range(reps)]
        jobs.append({"job_id": f"j{n}", "shots": shots, "repetitions": reps, "counts": counts})
    if len(jobs) > 1 and draw(st.integers(0, 3)) == 0:
        jobs[-1]["job_id"] = "j0"
    for _ in range(draw(st.integers(0, 2))):  # count entries at or beyond their bounds
        job = draw(st.sampled_from(jobs))
        cell = job["counts"][draw(st.integers(0, job["repetitions"] - 1))][draw(st.integers(0, 19))]
        cell[draw(st.integers(0, 1))] = draw(st.booleans() | st.integers(-1, 4))
    doc = {"config_id": "II-0", "device": "sim", "jobs": jobs}
    if draw(st.booleans()):
        doc["timestamp"] = "2024-08-17T12:00:00Z"
    return draw(json_edits(doc, json_values))


def _is_int(x):
    return type(x) is int


def _first_fault(doc):
    """The record schema stated in plain Python, as the fuzz tests' oracle:
    None for a valid document, "top" when a top-level field is at fault, or
    else the index of the first job, in document order, that breaks it."""
    if type(doc) is not dict:
        return "top"
    if type(doc.get("config_id")) is not str or type(doc.get("device")) is not str:
        return "top"
    if doc.get("timestamp") is not None and type(doc["timestamp"]) is not str:
        return "top"
    jobs = doc.get("jobs")
    if type(jobs) is not list or not jobs:
        return "top"
    ids, total = set(), 0
    for i, job in enumerate(jobs):
        if type(job) is not dict:
            return i
        shots, reps, counts = job.get("shots"), job.get("repetitions"), job.get("counts")
        if type(job.get("job_id")) is not str or not (_is_int(shots) and _is_int(reps)):
            return i
        if job["job_id"] in ids or not (1 <= shots and reps >= 1):
            return i
        ids.add(job["job_id"])
        total += shots * reps
        if total >= 2**63:
            return i
        if type(counts) is not list or len(counts) != reps:
            return i
        for rep in counts:
            if type(rep) is not list or len(rep) != 20:
                return i
            for cell in rep:
                if type(cell) is not list or len(cell) != 2 or not all(map(_is_int, cell)):
                    return i
                if cell[1] != shots or not 0 <= cell[0] <= shots:
                    return i
    return None


def _doc_is_valid(doc) -> bool:
    return _first_fault(doc) is None


@settings(max_examples=400, deadline=None)
@given(_documents())
def test_record_from_dict_accepts_exactly_the_valid_documents(doc):
    """Every valid document is accepted and written back unchanged; every
    malformed one raises RecordSchemaError naming a top-level field or a field
    of exactly its first offending job."""
    fault = _first_fault(doc)
    if fault is None:
        expected = dict(doc)
        if expected.get("timestamp") is None:
            expected.pop("timestamp", None)
        back = record_to_v1_dict(record_from_dict(doc))
        assert json.dumps(back, sort_keys=True) == json.dumps(expected, sort_keys=True)
        return
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    if fault == "top":
        assert err.value.field in _TOP_FIELDS
    else:
        assert err.value.field == f"jobs[{fault}]" or err.value.field.startswith(
            f"jobs[{fault}]."
        )


@settings(max_examples=400, deadline=None)
@given(_documents())
def test_save_record_writes_json_dumps_of_every_valid_document(doc):
    if _doc_is_valid(doc):
        rec = record_from_dict(doc)
        assert _saved_text(rec) == json.dumps(record_to_dict(rec)) + "\n"


# --- fuzzing the format-2 reader ---------------------------------------------

_TOP_FIELDS_V2 = _TOP_FIELDS | {"format"}


@st.composite
def _v2_documents(draw):
    """A format-2 record document, valid but for an optional repeated job id
    and up to two counts at or beyond their bounds, then up to two random
    edits (which may drop or change ``format``)."""
    jobs = []
    for n in range(draw(st.integers(1, 3))):
        shots, reps = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        ones = draw(st.lists(st.integers(0, shots), min_size=20 * reps, max_size=20 * reps))
        jobs.append({"job_id": f"j{n}", "shots": shots, "repetitions": reps, "ones": ones})
    if len(jobs) > 1 and draw(st.integers(0, 3)) == 0:
        jobs[-1]["job_id"] = "j0"
    for _ in range(draw(st.integers(0, 2))):  # counts at or beyond their bounds
        job = draw(st.sampled_from(jobs))
        job["ones"][draw(st.integers(0, len(job["ones"]) - 1))] = draw(
            st.booleans() | st.integers(-1, 4)
        )
    doc = {"format": 2, "config_id": "II-0", "device": "sim", "jobs": jobs}
    if draw(st.booleans()):
        doc["timestamp"] = "2024-08-17T12:00:00Z"
    return draw(json_edits(doc, json_values))


def _first_v2_fault(doc):
    """The format-2 schema in plain Python, as ``_first_fault`` states format
    1, which it defers to for a document without ``format``."""
    if type(doc) is not dict:
        return "top"
    if "format" not in doc:
        return _first_fault(doc)
    if type(doc["format"]) is not int or doc["format"] != 2:
        return "top"
    if type(doc.get("config_id")) is not str or type(doc.get("device")) is not str:
        return "top"
    if doc.get("timestamp") is not None and type(doc["timestamp"]) is not str:
        return "top"
    jobs = doc.get("jobs")
    if type(jobs) is not list or not jobs:
        return "top"
    ids, total = set(), 0
    for i, job in enumerate(jobs):
        if type(job) is not dict:
            return i
        shots, reps, ones = job.get("shots"), job.get("repetitions"), job.get("ones")
        if type(job.get("job_id")) is not str or not (_is_int(shots) and _is_int(reps)):
            return i
        if job["job_id"] in ids or not (1 <= shots and reps >= 1):
            return i
        ids.add(job["job_id"])
        total += shots * reps
        if total >= 2**63 or "counts" in job:
            return i
        if type(ones) is not list or len(ones) != 20 * reps:
            return i
        if not all(_is_int(n) and 0 <= n <= shots for n in ones):
            return i
    return None


@settings(max_examples=400, deadline=None)
@given(_v2_documents())
def test_record_from_dict_accepts_exactly_the_valid_format_2_documents(doc):
    """Every valid format-2 document is accepted and written back unchanged;
    every malformed one raises RecordSchemaError naming a top-level field or a
    field of exactly its first offending job."""
    fault = _first_v2_fault(doc)
    if fault is None:
        expected = dict(doc)
        if expected.get("timestamp") is None:
            expected.pop("timestamp", None)
        rec = record_from_dict(doc)
        assert json.dumps(record_to_dict(rec), sort_keys=True) == json.dumps(
            expected, sort_keys=True
        )
        assert _saved_text(rec) == json.dumps(record_to_dict(rec)) + "\n"
        return
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    if fault == "top":
        assert err.value.field in _TOP_FIELDS_V2
    else:
        assert err.value.field == f"jobs[{fault}]" or err.value.field.startswith(
            f"jobs[{fault}]."
        )
