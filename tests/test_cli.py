"""End-to-end CLI behaviour: subcommands, exit codes, file outputs."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import qubitcert.cli as cli
import qubitcert.noise as noise
import qubitcert.sampling as sampling
from qubitcert.cli import (
    EXIT_BOUND_VIOLATED,
    EXIT_IO,
    EXIT_OK,
    EXIT_SCHEMA,
    EXIT_USAGE,
    main,
)
from qubitcert.configs import builtin_config, load_config, predicted_prob_matrix
from qubitcert.extremal import MAX_RESTARTS
from qubitcert.noise import DriftModel, apply_readout_error, drift_bound
from qubitcert.sampling import load_record, save_record, simulate_record
from qubitcert.witness import witness

from drift_reference import reference_ensemble, reference_worst


DATA = Path(__file__).parent / "data"

#: JSON files json.loads cannot decode: nesting deep enough to exhaust the
#: decoder's recursion, and bytes that are not UTF-8.
UNDECODABLE = [b"[" * 100_000, b"\xff\xfe{"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- gen-config ------------------------------------------------------------


def test_gen_config_builtin(tmp_path, capsys):
    out = tmp_path / "cfg.json"
    code, stdout, _ = run(capsys, "gen-config", "II-0", "--out", str(out))
    assert code == EXIT_OK
    assert "prep n_1" in stdout and "meas m_4" in stdout
    cfg = load_config(out)
    assert cfg == builtin_config("II-0")


def test_gen_config_canonicalizes_custom_file(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(
        json.dumps(
            {
                "id": "custom",
                "preparations": [[0, 0], [0.7, 0.1], [1.4, 0.2], [2.1, 0.3], [2.8, 0.4]],
                "measurements": [[0.5, 1.5], [1.0, 2.0], [1.5, 2.5], [2.0, 3.0]],
            }
        )
    )
    out = tmp_path / "out.json"
    code, _, _ = run(capsys, "gen-config", "--config", str(src), "--out", str(out))
    assert code == EXIT_OK
    assert load_config(out).id == "custom"


@pytest.mark.parametrize("config_id", ["../x", "a/b"])
def test_gen_config_default_output_stays_in_the_working_directory(
    tmp_path, capsys, monkeypatch, config_id
):
    cfg = builtin_config("II-0")
    src = tmp_path / "in.json"
    src.write_text(
        json.dumps(
            {
                "id": config_id,
                "preparations": [list(a) for a in cfg.preparations],
                "measurements": [list(a) for a in cfg.measurements],
            }
        )
    )
    work = tmp_path / "work"
    (work / "a").mkdir(parents=True)
    monkeypatch.chdir(work)
    code, stdout, stderr = run(capsys, "gen-config", "--config", str(src))
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "--out" in stderr and repr(config_id) in stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json", "work"]
    assert [p.name for p in work.iterdir()] == ["a"]
    assert list((work / "a").iterdir()) == []


def test_gen_config_unknown_id(capsys):
    code, _, stderr = run(capsys, "gen-config", "II-9")
    assert code == EXIT_USAGE
    assert "II-9" in stderr


# --- simulate --------------------------------------------------------------


def test_simulate_writes_record(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, stdout, _ = run(
        capsys,
        "simulate",
        "--config",
        "I-second",
        "--jobs",
        "3",
        "--shots",
        "500",
        "--reps",
        "2",
        "--seed",
        "7",
        "--out",
        str(out),
    )
    assert code == EXIT_OK
    assert "T = 3000" in stdout
    rec = load_record(out)
    assert rec.config_id == "I-second"
    assert len(rec.job_ids) == 3
    assert rec.shots.tolist() == [500] * 3


def test_simulate_is_seed_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run(
            capsys, "simulate", "--config", "II-1", "--jobs", "2", "--shots", "100",
            "--seed", "3", "--out", str(out),
        )
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_simulate_noise_flags_change_truth(tmp_path, capsys):
    out = tmp_path / "rec.json"
    code, stdout, _ = run(
        capsys, "simulate", "--config", "II-0", "--jobs", "2", "--shots", "100",
        "--coherent-leak", "0.3", "--out", str(out),
    )
    assert code == EXIT_OK
    assert "true W = +3.4" in stdout  # frozen leak witness 3.41e-3


def test_simulate_drift_excludes_other_noise(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "simulate", "--config", "II-0", "--drift-eps", "0.01",
        "--coherent-leak", "0.1", "--out", str(tmp_path / "r.json"),
    )
    assert code == EXIT_USAGE
    assert "drift" in stderr


def test_simulate_drift_excludes_leak_mu(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, stdout, stderr = run(
        capsys, "simulate", "--config", "II-0", "--drift-eps", "0.01",
        "--leak-mu", "0.3", "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "--drift-eps" in stderr and "--leak-mu" in stderr
    assert not out.exists()


def test_simulate_rejects_leak_mu_without_leak_lambda(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, stdout, stderr = run(
        capsys, "simulate", "--config", "II-0", "--leak-mu", "0.3", "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "--leak-mu" in stderr and "--leak-lambda" in stderr
    assert not out.exists()


@pytest.mark.parametrize("eps", [[], ["--drift-eps", "0"]], ids=["no-eps", "eps-0"])
@pytest.mark.parametrize("mode", ["angle-jitter", "column-mix"])
def test_simulate_rejects_drift_mode_without_drift_eps(tmp_path, capsys, eps, mode):
    out = tmp_path / "r.json"
    code, stdout, stderr = run(
        capsys, "simulate", "--config", "II-0", "--drift-mode", mode, *eps, "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "--drift-mode" in stderr and "--drift-eps" in stderr
    assert not out.exists()


@pytest.mark.parametrize("eps", ["-0.1", "nan"])
def test_simulate_rejects_invalid_drift_eps(tmp_path, capsys, eps):
    out = tmp_path / "r.json"
    code, stdout, stderr = run(
        capsys, "simulate", "--config", "II-0", "--drift-eps", eps, "--out", str(out)
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "epsilon" in stderr
    assert not out.exists()


@pytest.mark.parametrize(
    "jobs, shots", [("1", "10000000000000000000"), ("4", "4611686018427387904")]
)
def test_simulate_rejects_total_count_beyond_int64(tmp_path, capsys, monkeypatch, jobs, shots):
    """The run is rejected before any count is drawn: no generator is built."""

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the run was checked")

    monkeypatch.setattr(np.random, "default_rng", no_sampling)
    monkeypatch.setattr(np.random, "Generator", no_sampling)
    out = tmp_path / "r.json"
    code, stdout, stderr = run(
        capsys, "simulate", "--config", "II-0", "--jobs", jobs, "--shots", shots,
        "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "total count" in stderr
    assert not out.exists()


@pytest.mark.parametrize("mode", ["angle-jitter", "column-mix"])
def test_simulate_drift_rejects_a_job_count_numpy_cannot_index(tmp_path, capsys, mode):
    """A job count numpy could not index is rejected as a usage error: the
    run's own check finds its total count beyond int64 before the drifted
    matrices are built."""
    out = tmp_path / "r.json"
    code, stdout, stderr = run(
        capsys, "simulate", "--config", "II-0", "--jobs", "4611686018427387904",
        "--shots", "4", "--drift-eps", "0.01", "--drift-mode", mode, "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert stderr.startswith("error: ")
    assert not out.exists()


def test_simulate_drift_checks_the_run_before_the_drift_stack(tmp_path, capsys, monkeypatch):
    """An invalid run is named by the run's own check, whatever its size,
    before a drifted stack of that size is built."""

    def no_stack(*args):
        raise AssertionError("built the drift stack before the run was checked")

    monkeypatch.setattr(cli, "generate_drift_ensemble", no_stack)
    out = tmp_path / "r.json"
    code, stdout, stderr = run(
        capsys, "simulate", "--config", "II-0", "--jobs", "1000000000", "--shots", "0",
        "--drift-eps", "0.01", "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert stderr == "error: shots must be >= 1, got 0\n"
    assert not out.exists()


def test_simulate_seeds_every_job_before_the_first_draw(tmp_path, capsys, monkeypatch):
    """Every job's seed words are built before any count is drawn, so a job
    count too large to seed fails at once as a usage error, not after a
    per-job loop has run for minutes."""

    def no_memory(seed, count):
        assert count == 100_000_000_000
        raise MemoryError

    def no_sampling(*args, **kwargs):
        raise AssertionError("drew before every job was seeded")

    monkeypatch.setattr(sampling, "spawned_seed_words", no_memory)
    monkeypatch.setattr(np.random, "Generator", no_sampling)
    out = tmp_path / "r.json"
    code, stdout, stderr = run(
        capsys, "simulate", "--config", "II-0", "--jobs", "100000000000", "--shots", "1",
        "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert stderr == "error: the run does not fit in memory\n"
    assert not out.exists()


def test_simulate_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "generate_drift_ensemble", no_memory)
    out = tmp_path / "r.json"
    code, stdout, stderr = run(
        capsys, "simulate", "--config", "II-0", "--jobs", "1000000000", "--shots", "1",
        "--drift-eps", "0.01", "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert stderr == "error: the run does not fit in memory\n"
    assert not out.exists()


def test_simulate_readout_error_record(tmp_path, capsys):
    out, expected = tmp_path / "r.json", tmp_path / "expected.json"
    code, _, _ = run(
        capsys, "simulate", "--config", "II-0", "--jobs", "3", "--shots", "200",
        "--seed", "4", "--readout-e0", "0.05", "--readout-e1", "0.1", "--out", str(out),
    )
    assert code == EXIT_OK
    truth = apply_readout_error(predicted_prob_matrix(builtin_config("II-0")), 0.05, 0.1)
    save_record(simulate_record(truth, 3, 200, 1, 4, config_id="II-0"), expected)
    assert out.read_bytes() == expected.read_bytes()


def test_simulate_rejects_readout_errors_summing_past_one(tmp_path, capsys):
    out = tmp_path / "r.json"
    code, stdout, _ = run(
        capsys, "simulate", "--config", "II-0", "--readout-e0", "0.7",
        "--readout-e1", "0.5", "--out", str(out),
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert not out.exists()


@pytest.mark.parametrize("mode", ["angle-jitter", "column-mix"])
def test_simulate_drift_record_matches_per_trial_reference(tmp_path, capsys, monkeypatch, mode):
    argv = [
        "simulate", "--config", "II-0", "--jobs", "7", "--shots", "300", "--reps", "2",
        "--drift-eps", "0.02", "--drift-mode", mode, "--seed", "5", "--out",
    ]
    code, _, _ = run(capsys, *argv, str(tmp_path / "batched.json"))
    assert code == EXIT_OK
    monkeypatch.setattr(
        cli,
        "generate_drift_ensemble",
        lambda config, model, seed: reference_ensemble(config, model, seed),
    )
    code, _, _ = run(capsys, *argv, str(tmp_path / "reference.json"))
    assert code == EXIT_OK
    batched = (tmp_path / "batched.json").read_bytes()
    assert batched == (tmp_path / "reference.json").read_bytes()


def test_simulate_bad_leak_params(tmp_path, capsys):
    code, _, _ = run(
        capsys, "simulate", "--config", "II-0", "--leak-lambda", "1.5",
        "--out", str(tmp_path / "r.json"),
    )
    assert code == EXIT_USAGE


def test_simulate_custom_config_file(tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    code, _, _ = run(capsys, "gen-config", "I-prime", "--out", str(cfgfile))
    assert code == EXIT_OK
    out = tmp_path / "rec.json"
    code, _, _ = run(
        capsys, "simulate", "--config", str(cfgfile), "--jobs", "1",
        "--shots", "50", "--out", str(out),
    )
    assert code == EXIT_OK
    assert load_record(out).config_id == "I-prime"


@pytest.mark.parametrize("content", UNDECODABLE, ids=["deep", "not-utf8"])
def test_simulate_undecodable_config_is_usage_error(tmp_path, capsys, content):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_bytes(content)
    out = tmp_path / "r.json"
    code, _, stderr = run(capsys, "simulate", "--config", str(cfgfile), "--out", str(out))
    assert code == EXIT_USAGE
    assert "not valid JSON" in stderr
    assert not out.exists()


def test_simulate_missing_config(capsys, tmp_path):
    code, _, stderr = run(
        capsys, "simulate", "--config", str(tmp_path / "ghost.json"),
        "--out", str(tmp_path / "r.json"),
    )
    assert code == EXIT_USAGE
    assert "neither" in stderr


# --- analyze ---------------------------------------------------------------


def test_analyze_pipeline(tmp_path, capsys):
    rec = tmp_path / "rec.json"
    code, _, _ = run(
        capsys, "simulate", "--config", "I-second", "--jobs", "6",
        "--shots", "2000", "--seed", "21", "--out", str(rec),
    )
    assert code == EXIT_OK
    csv = tmp_path / "scatter.csv"
    svg = tmp_path / "scatter.svg"
    code, stdout, _ = run(
        capsys, "analyze", str(rec), "--out", str(csv), "--svg", str(svg)
    )
    assert code == EXIT_OK
    assert "verdict" in stdout
    assert "PASS" in stdout
    assert csv.read_text().startswith("job_index,W")
    assert svg.read_text().startswith("<svg")


def test_analyze_flags_coherent_leak(tmp_path, capsys):
    """The headline detection scenario end to end: a strong coherent leak at
    high statistics must push |z| past the flag threshold."""
    rec = tmp_path / "leaky.json"
    code, _, _ = run(
        capsys, "simulate", "--config", "II-0", "--jobs", "10", "--shots", "100000",
        "--reps", "4", "--coherent-leak", "0.3", "--seed", "11", "--out", str(rec),
    )
    assert code == EXIT_OK
    code, stdout, _ = run(capsys, "analyze", str(rec))
    assert code == EXIT_OK
    assert "FAIL" in stdout


def test_analyze_zero_variance_record(tmp_path, capsys):
    """A record whose every count is 0 has sigma = 0 for both methods, so no
    z-score and no verdict either way."""
    doc = {"format": 2, "config_id": "II-0", "device": "sim", "jobs": [
        {"job_id": f"j{n}", "shots": 10, "repetitions": 1, "ones": [0] * 20}
        for n in range(3)
    ]}
    rec, csv, svg = tmp_path / "rec.json", tmp_path / "s.csv", tmp_path / "s.svg"
    rec.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "analyze", str(rec), "--out", str(csv), "--svg", str(svg))
    assert code == EXIT_OK
    assert "verdict:          UNDEFINED (zero variance)" in stdout
    assert csv.read_text().startswith("job_index,W")
    assert svg.read_text().startswith("<svg")


def test_analyze_missing_file(capsys, tmp_path):
    code, _, stderr = run(capsys, "analyze", str(tmp_path / "ghost.json"))
    assert code == EXIT_IO


@pytest.mark.parametrize("content", UNDECODABLE, ids=["deep", "not-utf8"])
def test_analyze_undecodable_record_is_schema_error(tmp_path, capsys, content):
    rec = tmp_path / "rec.json"
    rec.write_bytes(content)
    code, stdout, stderr = run(capsys, "analyze", str(rec))
    assert code == EXIT_SCHEMA
    assert "not valid JSON" in stderr
    assert stdout == ""


def test_analyze_schema_violation(tmp_path, capsys):
    rec = tmp_path / "rec.json"
    code, _, _ = run(
        capsys, "simulate", "--config", "II-0", "--jobs", "1", "--shots", "20",
        "--out", str(rec),
    )
    assert code == EXIT_OK
    doc = json.loads(rec.read_text())
    doc["jobs"][0]["ones"][3] = 99  # ones > shots
    rec.write_text(json.dumps(doc))
    code, _, stderr = run(capsys, "analyze", str(rec))
    assert code == EXIT_SCHEMA
    assert "jobs[0].ones[3]" in stderr


def test_analyze_rejects_duplicate_job_ids(tmp_path, capsys):
    rec = tmp_path / "rec.json"
    code, _, _ = run(
        capsys, "simulate", "--config", "II-0", "--jobs", "3", "--shots", "20",
        "--out", str(rec),
    )
    assert code == EXIT_OK
    doc = json.loads(rec.read_text())
    doc["jobs"][2]["job_id"] = doc["jobs"][0]["job_id"]
    rec.write_text(json.dumps(doc))
    code, _, stderr = run(capsys, "analyze", str(rec))
    assert code == EXIT_SCHEMA
    assert "jobs[2].job_id" in stderr


def test_analyze_rejects_total_count_beyond_int64(tmp_path, capsys):
    """Four empty 2**62-shot jobs before one leaky job: the total count wraps
    in int64, which once gave a small T and a PASS for the leaky record."""
    rec = tmp_path / "rec.json"
    code, _, _ = run(
        capsys, "simulate", "--config", "II-0", "--jobs", "1", "--shots", "100000",
        "--coherent-leak", "0.3", "--out", str(rec),
    )
    assert code == EXIT_OK
    doc = json.loads(rec.read_text())
    huge = [
        {"job_id": f"huge-{n}", "shots": 2**62, "repetitions": 1,
         "ones": [0] * 20}
        for n in range(4)
    ]
    doc["jobs"] = huge + doc["jobs"]
    rec.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "analyze", str(rec))
    assert code == EXIT_SCHEMA
    assert "jobs[1].shots" in stderr
    assert "PASS" not in stdout


def _analyze_in(capsys, monkeypatch, where, record):
    """stdout, CSV and SVG of ``analyze record`` run in the directory ``where``."""
    where.mkdir()
    monkeypatch.chdir(where)
    code, stdout, _ = run(capsys, "analyze", str(record), "--out", "s.csv", "--svg", "s.svg")
    assert code == EXIT_OK
    return stdout, (where / "s.csv").read_bytes(), (where / "s.svg").read_bytes()


def test_analyze_gives_the_same_bytes_for_both_record_formats(tmp_path, capsys, monkeypatch):
    """The pinned record, mixed shots and repetitions, in format 1 (as written
    before format 2) and in format 2."""
    v1 = _analyze_in(capsys, monkeypatch, tmp_path / "v1", DATA / "record_v1.json")
    v2 = _analyze_in(capsys, monkeypatch, tmp_path / "v2", DATA / "record_v2.json")
    assert v1 == v2
    assert "jobs included:    3" in v2[0]


def _v2_doc():
    return json.loads((DATA / "record_v2.json").read_text())


def _set(path, value):
    def edit(doc):
        *keys, last = path
        for key in keys:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize(
    "edit, field",
    [
        (_set(["format"], 3), "format"),
        (_set(["format"], 1), "format"),
        (_set(["format"], "2"), "format"),
        (_set(["format"], True), "format"),
        (_set(["format"], 2.0), "format"),
        (_set(["jobs", 2, "ones"], [0] * 39), "jobs[2].ones"),
        (_set(["jobs", 1, "ones"], [0] * 21), "jobs[1].ones"),
        (_set(["jobs", 0, "ones"], "0"), "jobs[0].ones"),
        (_set(["jobs", 2, "ones", 17], 5.0), "jobs[2].ones[17]"),
        (_set(["jobs", 2, "ones", 17], True), "jobs[2].ones[17]"),
        (_set(["jobs", 2, "ones", 17], -1), "jobs[2].ones[17]"),
        (_set(["jobs", 2, "ones", 17], 701), "jobs[2].ones[17]"),
        (_set(["jobs", 0, "counts"], [[[0, 300]] * 20]), "jobs[0].counts"),
        (lambda doc: doc["jobs"][1].pop("ones"), "jobs[1].ones"),
        (lambda doc: doc.pop("format"), "jobs[0].ones"),
        (_set(["jobs", 0, "shots"], 0), "jobs[0].shots"),
        (_set(["jobs", 2, "repetitions"], 0), "jobs[2].repetitions"),
    ],
    ids=[
        "format-3", "format-1", "format-str", "format-bool", "format-float", "short-ones",
        "long-ones", "ones-not-a-list", "float-leaf", "bool-leaf", "negative-leaf",
        "leaf-above-shots", "counts-in-format-2", "no-ones", "no-format-key",
        "zero-shots", "zero-repetitions",
    ],
)
def test_analyze_names_the_faulty_format_2_field(tmp_path, capsys, edit, field):
    doc = _v2_doc()
    edit(doc)
    rec = tmp_path / "rec.json"
    rec.write_text(json.dumps(doc))
    code, stdout, stderr = run(capsys, "analyze", str(rec))
    assert code == EXIT_SCHEMA
    assert f"{field}: " in stderr
    assert stdout == ""


# --- audit-drift -----------------------------------------------------------


def test_audit_drift_both_modes(tmp_path, capsys):
    csv = tmp_path / "audit.csv"
    code, stdout, _ = run(
        capsys, "audit-drift", "--config", "II-0", "--drift-eps", "0.02",
        "--trials", "20", "--jobs", "6", "--out", str(csv),
    )
    assert code == EXIT_OK
    assert "PASS: bound never violated" in stdout
    lines = csv.read_text().strip().split("\n")
    assert lines[0] == "mode,trials,max_abs_pooled_W,bound,fraction,pass"
    assert len(lines) == 3
    assert lines[1].startswith("angle-jitter,20,")
    assert lines[2].startswith("column-mix,20,")


def test_audit_drift_csv_matches_per_trial_reference_across_blocks(tmp_path, capsys):
    """A --trials count one block and three trials long: the CSV is byte for
    byte what the one-trial-at-a-time loop gives."""
    trials = cli.AUDIT_BLOCK_MEMBERS // 10 + 3
    csv = tmp_path / "audit.csv"
    code, _, _ = run(
        capsys, "audit-drift", "--config", "II-0", "--drift-eps", "0.05",
        "--trials", str(trials), "--jobs", "10", "--seed", "11", "--out", str(csv),
    )
    assert code == EXIT_OK
    cfg, bound = builtin_config("II-0"), drift_bound(0.05)
    rows = ["mode,trials,max_abs_pooled_W,bound,fraction,pass"]
    for mode in ("angle-jitter", "column-mix"):
        worst = reference_worst(cfg, DriftModel(0.05, 10, mode), 11, trials)
        rows.append(f"{mode},{trials},{worst!r},{bound!r},{worst / bound!r},True")
    assert csv.read_text() == "\n".join(rows) + "\n"


def test_audit_drift_both_modes_give_each_mode_alone_across_blocks(tmp_path, capsys):
    """The second mode of each block reuses the first one's draws, and gives
    the rows of a single-mode audit over two blocks."""
    trials = cli.AUDIT_BLOCK_MEMBERS // 10 + 3
    argv = [
        "audit-drift", "--config", "II-0", "--drift-eps", "0.02",
        "--trials", str(trials), "--jobs", "10", "--seed", "3", "--out",
    ]
    rows = {}
    for mode in ("both", "angle-jitter", "column-mix"):
        csv = tmp_path / f"{mode}.csv"
        code, _, _ = run(capsys, *argv, str(csv), "--drift-mode", mode)
        assert code == EXIT_OK
        rows[mode] = csv.read_text().splitlines()
    assert rows["both"] == rows["angle-jitter"] + rows["column-mix"][1:]


def test_audit_drift_seeds_each_trial_once(capsys, monkeypatch):
    """Over two blocks in both modes, each trial's seed is seeded once, by the
    batched helper or by a generator constructor: the second mode reuses the
    first one's draws."""
    seeds = Counter()
    real_words = noise.offset_seed_words
    real_default_rng, real_pcg64 = np.random.default_rng, np.random.PCG64

    def offset_seed_words(seed, count):
        seeds.update(range(seed, seed + count))
        return real_words(seed, count)

    def default_rng(seed=None):
        seeds[seed] += 1
        return real_default_rng(seed)

    def pcg64(seed=None):
        # the batched words reach PCG64 wrapped, already counted above
        if isinstance(seed, (int, np.integer)):
            seeds[seed] += 1
        return real_pcg64(seed)

    monkeypatch.setattr(noise, "offset_seed_words", offset_seed_words)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    monkeypatch.setattr(np.random, "PCG64", pcg64)
    trials, seed = cli.AUDIT_BLOCK_MEMBERS // 10 + 3, 424_242
    code, _, _ = run(
        capsys, "audit-drift", "--config", "II-0", "--drift-eps", "0.02",
        "--trials", str(trials), "--jobs", "10", "--seed", str(seed),
    )
    assert code == EXIT_OK
    assert seeds == Counter({seed + t: 1 for t in range(trials)})


def test_audit_drift_column_mix_reuses_the_angle_jitter_draws(capsys, monkeypatch):
    """In both modes, over two blocks, the audit builds one generator per
    trial: column-mix reads the draws angle jitter reads."""
    yields = 0
    real_generators = noise.generators

    def generators(words):
        nonlocal yields
        for rng in real_generators(words):
            yields += 1
            yield rng

    monkeypatch.setattr(noise, "generators", generators)
    trials = cli.AUDIT_BLOCK_MEMBERS // 10 + 3
    code, _, _ = run(
        capsys, "audit-drift", "--config", "II-0", "--drift-eps", "0.02",
        "--trials", str(trials), "--jobs", "10", "--seed", "77",
    )
    assert code == EXIT_OK
    assert yields == trials


def test_gen_config_canonical_round_trip(tmp_path, capsys):
    """Feeding gen-config its own output reproduces the file bit-identically."""
    first = tmp_path / "one.json"
    second = tmp_path / "two.json"
    code, _, _ = run(capsys, "gen-config", "I-second", "--out", str(first))
    assert code == EXIT_OK
    code, _, _ = run(capsys, "gen-config", "--config", str(first), "--out", str(second))
    assert code == EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def test_gen_config_malformed_leaves_no_file(tmp_path, capsys):
    src = tmp_path / "bad.json"
    src.write_text(json.dumps({"id": "x", "preparations": [[0, 0]], "measurements": []}))
    out = tmp_path / "never.json"
    code, _, _ = run(capsys, "gen-config", "--config", str(src), "--out", str(out))
    assert code == EXIT_USAGE
    assert not out.exists()


@pytest.mark.parametrize("eps", ["0", "5e-8"])
def test_audit_drift_rejects_a_bound_within_round_off(capsys, eps):
    """The pass test forgives 1e-12 of round-off, so a bound 80*sqrt(2)*eps^2
    at or below it (0, and 2.8e-13 at eps = 5e-8) could only pass."""
    code, stdout, stderr = run(
        capsys, "audit-drift", "--config", "I-prime", "--drift-eps", eps,
        "--trials", "3",
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "--drift-eps" in stderr and "could not fail" in stderr


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_audit_drift_rejects_no_trials(capsys, trials):
    code, stdout, stderr = run(
        capsys, "audit-drift", "--config", "II-0", "--drift-eps", "0.01",
        "--trials", trials,
    )
    assert code == EXIT_USAGE
    assert "--trials" in stderr
    assert "PASS" not in stdout


@pytest.mark.parametrize("mode", ["both", "column-mix"])
def test_audit_drift_rejects_no_jobs_before_any_output(capsys, mode):
    code, stdout, stderr = run(
        capsys, "audit-drift", "--config", "II-0", "--drift-eps", "0.01",
        "--jobs", "0", "--drift-mode", mode,
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "n_jobs" in stderr


@pytest.mark.parametrize("eps", ["1e200", "1"])
def test_audit_drift_rejects_a_bound_no_witness_can_break(capsys, eps):
    """No behaviour matrix has |W| above 3, so an audit against a bound of 3
    or more (113 at eps = 1, inf at 1e200) could only pass."""
    code, stdout, stderr = run(
        capsys, "audit-drift", "--config", "II-0", "--drift-eps", eps, "--trials", "1",
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "--drift-eps" in stderr and "bound" in stderr


def test_audit_drift_caps_jobs_at_one_block(capsys):
    cap = cli.AUDIT_BLOCK_MEMBERS
    code, stdout, stderr = run(
        capsys, "audit-drift", "--config", "II-0", "--drift-eps", "0.01",
        "--jobs", str(cap + 1),
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "--jobs" in stderr
    code, stdout, _ = run(
        capsys, "audit-drift", "--config", "II-0", "--drift-eps", "0.01",
        "--jobs", str(cap), "--trials", "1",
    )
    assert code == EXIT_OK
    assert "PASS: bound never violated" in stdout


@pytest.mark.parametrize("mode", ["both", "angle-jitter", "column-mix"])
def test_audit_drift_rejects_one_job(capsys, mode):
    """One job pools one exactly witness-zero matrix, whose |W| is round-off,
    so the audit could not fail."""
    code, stdout, stderr = run(
        capsys, "audit-drift", "--config", "II-0", "--drift-eps", "0.05",
        "--jobs", "1", "--trials", "3", "--drift-mode", mode,
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "--jobs" in stderr and "could not fail" in stderr


def test_audit_drift_violated_bound_exits_1(tmp_path, capsys, monkeypatch):
    # the bound is a theorem, so shrink it to make the audit fail
    monkeypatch.setattr(cli, "drift_bound", lambda eps: 1e-9)
    csv = tmp_path / "audit.csv"
    code, stdout, _ = run(
        capsys, "audit-drift", "--config", "II-0", "--drift-eps", "0.02",
        "--trials", "3", "--drift-mode", "column-mix", "--out", str(csv),
    )
    assert code == EXIT_BOUND_VIOLATED == 1
    assert "FAIL: bound violated" in stdout
    assert csv.read_text().splitlines()[1].endswith(",False")


def test_audit_drift_single_mode(capsys):
    code, stdout, _ = run(
        capsys, "audit-drift", "--config", "I-second", "--drift-eps", "0.01",
        "--trials", "5", "--drift-mode", "angle-jitter",
    )
    assert code == EXIT_OK
    assert "column-mix" not in stdout


# --- optimize --------------------------------------------------------------


def test_optimize_d3_real(tmp_path, capsys):
    out = tmp_path / "result.json"
    code, stdout, _ = run(
        capsys, "optimize", "--dim", "3", "--field", "real", "--restarts", "15",
        "--out", str(out),
    )
    assert code == EXIT_OK
    assert "0.596621346626" in stdout
    data = json.loads(out.read_text())
    assert data["problem"]["d"] == 3
    assert data["best_W"] == pytest.approx(27 * np.sqrt(2) / 64, abs=1e-9)


def test_optimize_d2_reports_zero(capsys):
    code, stdout, _ = run(capsys, "optimize", "--dim", "2", "--restarts", "5")
    assert code == EXIT_OK
    assert "vanishes" in stdout


def test_optimize_rejects_zero_restarts(capsys):
    code, stdout, stderr = run(capsys, "optimize", "--dim", "2", "--restarts", "0")
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "--restarts" in stderr


def test_optimize_rejects_restarts_above_the_cap(capsys, no_seesaw):
    too_many = str(MAX_RESTARTS + 1)
    code, stdout, stderr = run(capsys, "optimize", "--dim", "4", "--restarts", too_many)
    assert code == EXIT_USAGE
    assert stdout == ""
    assert too_many in stderr and str(MAX_RESTARTS) in stderr


def test_optimize_requires_dim(capsys):
    code, _, _ = run(capsys, "optimize")
    assert code == EXIT_USAGE


# --- top-level -------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "II-0"],
        ["optimize", "--dim", "2"],
        ["audit-drift", "--config", "II-0", "--drift-eps", "0.01"],
    ],
)
def test_negative_seed_rejected_at_parse_time(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, stdout, stderr = run(capsys, *argv, "--seed", "-1")
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "--seed" in stderr
    assert list(tmp_path.iterdir()) == []


#: (argv before the output flag, the output flag, the first step of the work)
_OUTPUT_FLAGS = {
    "gen-config-out": (["gen-config", "II-0"], "--out", "builtin_config"),
    "simulate-out": (["simulate", "--config", "II-0", "--jobs", "2"], "--out", "simulate_record"),
    "analyze-out": (["analyze", "rec.json"], "--out", "load_record"),
    "analyze-svg": (["analyze", "rec.json"], "--svg", "load_record"),
    "audit-drift-out": (
        ["audit-drift", "--config", "II-0", "--drift-eps", "0.01", "--trials", "2"],
        "--out",
        "audit_drift",
    ),
    "optimize-out": (["optimize", "--dim", "3"], "--out", "maximize_witness"),
}


@pytest.mark.parametrize(
    "out",
    ["missing/result", "a-file/result", "a-dir", ""],
    ids=["missing", "a-file", "a-dir", "empty"],
)
@pytest.mark.parametrize("command", list(_OUTPUT_FLAGS))
def test_an_unwritable_output_fails_before_the_work(
    tmp_path, capsys, monkeypatch, command, out
):
    argv, flag, first_step = _OUTPUT_FLAGS[command]

    def fail(*args, **kwargs):
        raise AssertionError(f"{first_step} ran")

    monkeypatch.setattr(cli, first_step, fail)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-file").write_text("")
    (tmp_path / "a-dir").mkdir()
    value = str(tmp_path / out) if out else ""
    code, stdout, stderr = run(capsys, *argv, flag, value)
    assert code == EXIT_IO
    assert stdout == ""
    assert f"{flag} {value}" in stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a-dir", "a-file"]
    assert list((tmp_path / "a-dir").iterdir()) == []


#: (argv, the output flag, what its path names, the first step of the work)
_SAME_FILE = {
    "analyze-out-record": (
        ["analyze", "rec.json", "--out", "rec.json"], "--out", "the record", "load_record"
    ),
    "analyze-svg-record": (
        ["analyze", "rec.json", "--svg", "./rec.json"], "--svg", "the record", "load_record"
    ),
    "analyze-svg-out": (
        ["analyze", "rec.json", "--out", "scatter", "--svg", "sub/../scatter"],
        "--svg",
        "--out",
        "load_record",
    ),
    "simulate-out-config": (
        ["simulate", "--config", "cfg.json", "--jobs", "2", "--out", "cfg.json"],
        "--out",
        "--config",
        "simulate_record",
    ),
    "audit-drift-out-config": (
        ["audit-drift", "--config", "cfg.json", "--drift-eps", "0.01", "--trials", "2",
         "--out", "sub/../cfg.json"],
        "--out",
        "--config",
        "audit_drift",
    ),
}


@pytest.mark.parametrize("case", list(_SAME_FILE))
def test_an_output_that_names_an_input_or_another_output_fails_before_the_work(
    tmp_path, capsys, monkeypatch, case
):
    argv, flag, other, first_step = _SAME_FILE[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert main(["gen-config", "II-0", "--out", "cfg.json"]) == EXIT_OK
    assert main(["simulate", "--config", "II-0", "--jobs", "2", "--out", "rec.json"]) == EXIT_OK
    capsys.readouterr()
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}

    def fail(*args, **kwargs):
        raise AssertionError(f"{first_step} ran")

    monkeypatch.setattr(cli, first_step, fail)
    code, stdout, stderr = run(capsys, *argv)
    assert code == EXIT_IO
    assert stdout == ""
    assert f"I/O error: {flag} " in stderr and f"same file as {other} " in stderr
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before


def test_no_command_prints_help(capsys):
    code, stdout, _ = run(capsys)
    assert code == EXIT_USAGE
    assert "gen-config" in stdout


def test_version_flag(capsys):
    code, stdout, _ = run(capsys, "--version")
    assert code == EXIT_OK
    assert "qubitcert" in stdout


def test_main_gives_the_same_result_for_the_same_argv_twice(tmp_path, capsys, monkeypatch):
    """The parser is built once per process; reusing it leaves no trace of
    one call in the next."""
    monkeypatch.chdir(tmp_path)
    argvs = [
        ["--version"],
        [],
        ["optimize"],
        ["gen-config", "II-9"],
        ["gen-config", "II-0", "--out", "cfg.json"],
        ["simulate", "--config", "cfg.json", "--jobs", "2", "--shots", "100", "--out", "rec.json"],
        ["analyze", "rec.json", "--out", "scatter.csv"],
        ["analyze", "rec.json"],
        ["audit-drift", "--config", "II-0", "--drift-eps", "0.01", "--jobs", "2", "--trials", "2"],
        ["optimize", "--dim", "2", "--restarts", "1"],
    ]
    first = [run(capsys, *argv) for argv in argvs]
    second = [run(capsys, *argv) for argv in argvs]
    assert first == second
    assert [code for code, _, _ in first] == [
        EXIT_OK, EXIT_USAGE, EXIT_USAGE, EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_OK, EXIT_OK,
        EXIT_OK, EXIT_OK,
    ]
    assert "usage:" in first[2][2]


def _env_with_src() -> dict:
    """The environment for a fresh interpreter that imports this checkout."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = [str(src), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def test_every_command_reads_and_writes_utf8_whatever_the_locale(tmp_path):
    """Under -X warn_default_encoding, any open() that falls back on the
    locale's encoding warns, and -W error turns that warning into a failure."""
    env = _env_with_src()
    strict = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
    for argv in (
        ["gen-config", "II-0", "--out", "cfg.json"],
        ["simulate", "--config", "cfg.json", "--jobs", "2", "--shots", "100", "--out", "rec.json"],
        ["analyze", "rec.json", "--out", "scatter.csv", "--svg", "scatter.svg"],
        ["audit-drift", "--config", "cfg.json", "--drift-eps", "0.01", "--jobs", "2",
         "--trials", "2", "--out", "audit.csv"],
        ["optimize", "--dim", "2", "--restarts", "1", "--out", "search.json"],
    ):
        proc = subprocess.run(
            [*strict, "-m", "qubitcert.cli", *argv],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == EXIT_OK, (argv[0], proc.stderr)


#: Run in a fresh interpreter: no command imports scipy.
_SCIPY_IMPORT_PROBE = """
import sys

import qubitcert
from qubitcert.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

assert main(["gen-config", "II-0", "--out", "cfg.json"]) == 0
assert main(["simulate", "--config", "II-0", "--jobs", "2", "--shots", "100",
             "--out", "rec.json"]) == 0
assert main(["analyze", "rec.json", "--out", "scatter.csv"]) == 0
assert main(["audit-drift", "--config", "II-0", "--drift-eps", "0.01", "--jobs", "2",
             "--trials", "2"]) == 0
assert main(["optimize", "--dim", "2", "--restarts", "1"]) == 0
assert scipy_modules() == [], scipy_modules()[:5]
"""


def test_no_command_imports_scipy(tmp_path):
    env = _env_with_src()
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_IMPORT_PROBE],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


#: Run in a fresh interpreter beside a saved record: these commands draw
#: nothing, so neither loads numpy.random.
_RANDOM_IMPORT_PROBE = """
import sys

from qubitcert.cli import main

assert main(["gen-config", "II-0", "--out", "cfg.json"]) == 0
assert main(["analyze", "rec.json"]) == 0
assert "numpy.random" not in sys.modules
"""


def test_gen_config_and_analyze_load_no_numpy_random(tmp_path):
    p = predicted_prob_matrix(builtin_config("II-0"))
    save_record(simulate_record(p, 2, 100, 1, config_id="II-0"), tmp_path / "rec.json")
    proc = subprocess.run(
        [sys.executable, "-c", _RANDOM_IMPORT_PROBE],
        cwd=tmp_path,
        env=_env_with_src(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
