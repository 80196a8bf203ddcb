"""The scripts under scripts/ run against the current API: each parses --help
and rejects a negative --seed, bad arguments exit 2 before any output, and
the estimator study and the device footprints run end to end."""

import csv
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from qubitcert.extremal import MAX_RESTARTS

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def _run(monkeypatch, path, *args):
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    runpy.run_path(str(path), run_name="__main__")


def test_scripts_found():
    assert len(SCRIPTS) >= 3


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_help(monkeypatch, capsys, path):
    with pytest.raises(SystemExit) as exc:
        _run(monkeypatch, path, "--help")
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_estimator_study_writes_csv(monkeypatch, tmp_path):
    out = tmp_path / "study.csv"
    path = next(p for p in SCRIPTS if p.name == "run_estimator_study.py")
    _run(monkeypatch, path, "--replications", "20", "--shots", "1000", "--out", str(out))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert (row["shots"], row["jobs"], row["replications"]) == ("1000", "10", "20")
    for key in ("per_job_mean", "per_job_se", "pooled_mean", "pooled_se"):
        float(row[key])
    assert float(row["per_job_se"]) > 0.0 and float(row["pooled_se"]) > 0.0


@pytest.mark.parametrize("out", ["missing/x.csv", "a-dir", ""], ids=["missing", "a-dir", "empty"])
def test_estimator_study_rejects_an_unwritable_out_before_the_study(
    monkeypatch, capsys, tmp_path, out
):
    path = next(p for p in SCRIPTS if p.name == "run_estimator_study.py")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-dir").mkdir()
    monkeypatch.setattr(
        "qubitcert.sampling.estimator_bias_study",
        lambda *args, **kwargs: pytest.fail("the study ran"),
    )
    with pytest.raises(SystemExit) as exc:
        _run(monkeypatch, path, "--out", out)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"--out {out}" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["a-dir"]


def test_estimator_study_writes_utf8_whatever_the_locale(tmp_path):
    """Under -X warn_default_encoding, an open() that falls back on the
    locale's encoding warns, and -W error turns that warning into a failure."""
    path = next(p for p in SCRIPTS if p.name == "run_estimator_study.py")
    src = Path(__file__).resolve().parents[1] / "src"
    path_entries = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    proc = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         str(path), "--replications", "20", "--shots", "1000", "--out", "study.csv"],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "study.csv").read_text(encoding="utf-8").startswith("shots,jobs,")


@pytest.mark.parametrize(
    "args, message",
    [
        (["--replications", "0"], "replications"),
        (["--replications", "1"], "replications"),
        (["--jobs", "0"], "n_jobs"),
        (["--shots", "0"], "shots"),
        (["--config", "bogus"], "unknown config id"),
    ],
)
def test_estimator_study_rejects_degenerate_inputs(monkeypatch, capsys, tmp_path, args, message):
    out = tmp_path / "study.csv"
    path = next(p for p in SCRIPTS if p.name == "run_estimator_study.py")
    with pytest.raises(SystemExit) as exc:
        _run(monkeypatch, path, *args, "--out", str(out))
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_extremal_survey_rejects_zero_restarts(monkeypatch, capsys, tmp_path):
    path = next(p for p in SCRIPTS if p.name == "run_extremal_survey.py")
    with pytest.raises(SystemExit) as exc:
        _run(monkeypatch, path, "--restarts", "0", "--outdir", str(tmp_path))
    assert exc.value.code == 2
    assert "--restarts must be >= 1" in capsys.readouterr().err


def test_extremal_survey_rejects_restarts_above_the_cap(
    monkeypatch, capsys, tmp_path, no_seesaw
):
    path = next(p for p in SCRIPTS if p.name == "run_extremal_survey.py")
    too_many = str(MAX_RESTARTS + 1)
    with pytest.raises(SystemExit) as exc:
        _run(monkeypatch, path, "--restarts", too_many, "--outdir", str(tmp_path))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert too_many in captured.err and str(MAX_RESTARTS) in captured.err
    assert list(tmp_path.iterdir()) == []


def test_extremal_survey_rejects_a_file_as_outdir(monkeypatch, capsys, tmp_path):
    path = next(p for p in SCRIPTS if p.name == "run_extremal_survey.py")
    outdir = tmp_path / "taken"
    outdir.write_text("")
    with pytest.raises(SystemExit) as exc:
        _run(monkeypatch, path, "--outdir", str(outdir))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--outdir" in captured.err


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_rejects_negative_seed(monkeypatch, capsys, tmp_path, path):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        _run(monkeypatch, path, "--seed", "-1")
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


@pytest.mark.parametrize("leak", ["nan", "inf"])
def test_device_footprints_rejects_non_finite_leak(monkeypatch, capsys, leak):
    path = next(p for p in SCRIPTS if p.name == "run_device_footprints.py")
    with pytest.raises(SystemExit) as exc:
        _run(monkeypatch, path, "--leak", leak)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--leak must be finite" in captured.err


def test_device_footprints_flag_only_the_leak(monkeypatch, capsys):
    path = next(p for p in SCRIPTS if p.name == "run_device_footprints.py")
    _run(monkeypatch, path)
    header, *rows = capsys.readouterr().out.strip().split("\n")
    assert header.split()[:2] == ["device", "config"]
    assert len(rows) == 14
    for row in rows:
        device, cid, z_i, slash, z_ii, z_leak = row.split()
        assert slash == "/"
        assert abs(float(z_i)) < 5.0 and abs(float(z_ii)) < 5.0, row
        assert float(z_leak) > 5.0, row


def test_output_digests_are_reproducible(tmp_path):
    """Two runs print the same digest of every listed CLI command's output,
    one line per command, so the digests of two checkouts can be compared."""
    path = next(p for p in SCRIPTS if p.name == "output_digests.py")
    src = Path(__file__).resolve().parents[1] / "src"
    path_entries = [str(src), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    runs = [
        subprocess.run(
            [sys.executable, str(path)], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )
        for _ in range(2)
    ]
    assert [proc.returncode for proc in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    lines = runs[0].stdout.splitlines()
    assert len(lines) > 60 and all(" | exit " in line for line in lines)
    assert list(tmp_path.iterdir()) == []
