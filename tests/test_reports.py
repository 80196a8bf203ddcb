"""Report assembly, text rendering, and deterministic CSV/SVG output."""

import dataclasses
import math
import re

import numpy as np
import pytest

from qubitcert.configs import builtin_config, predicted_prob_matrix
from qubitcert.reports import (
    AnalysisReport,
    Z_FLAG,
    analyze_record,
    render_text,
    write_scatter_csv,
    write_scatter_svg,
)
from qubitcert.sampling import (
    ExperimentRecord,
    RecordSchemaError,
    record_from_dict,
    simulate_record,
)
from qubitcert.witness import WitnessResult

from conftest import record_to_v1_dict


@pytest.fixture
def record():
    cfg = builtin_config("I-second")
    return simulate_record(predicted_prob_matrix(cfg), 8, 2000, 2, 13, config_id=cfg.id)


def test_report_structure(record):
    rep = analyze_record(record)
    assert isinstance(rep, AnalysisReport)
    assert rep.config_id == "I-second"
    assert rep.per_job_W.shape == (8,)
    assert rep.per_job.W == pytest.approx(rep.per_job_W.mean())
    assert rep.per_job.z == pytest.approx(rep.per_job.W / rep.per_job.sigma)
    assert rep.pooled.z == pytest.approx(rep.pooled.W / rep.pooled.sigma)


def test_render_text_clean_record_passes(record):
    text = render_text(analyze_record(record))
    assert "method i" in text and "method ii" in text
    assert "PASS" in text
    assert "I-second" in text


def test_render_text_flags_large_z(record):
    rep = analyze_record(record)
    # synthetic report with a huge pooled z
    sigma = rep.pooled.sigma
    fake = dataclasses.replace(rep, pooled=WitnessResult(3.0 * Z_FLAG * sigma, sigma))
    assert "FAIL" in render_text(fake)


def test_render_text_single_job():
    cfg = builtin_config("II-0")
    rec = simulate_record(predicted_prob_matrix(cfg), 1, 500, 1, 2, config_id=cfg.id)
    rep = analyze_record(rec)
    assert rep.per_job.z is None
    assert "undef" in render_text(rep)


def test_empty_job_rejected_before_analysis(record):
    """A job with 0 shots in every cell is rejected when the record is read,
    so no scatter ever has to skip it."""
    doc = record_to_v1_dict(record)
    doc["jobs"].append(
        {"job_id": "job-dead", "shots": 100, "repetitions": 2,
         "counts": [[[0, 0]] * 20] * 2}
    )
    with pytest.raises(RecordSchemaError) as err:
        record_from_dict(doc)
    assert err.value.field == "jobs[8].counts[0][0]"


def test_csv_deterministic_and_parsable(tmp_path, record):
    rep = analyze_record(record)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_scatter_csv(rep, p1)
    write_scatter_csv(rep, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().strip().split("\n")
    assert lines[0] == "job_index,W"
    assert len(lines) == 9
    idx, w = lines[3].split(",")
    assert int(idx) == 2
    # repr round-trip: the float parses back exactly
    assert float(w) == rep.per_job_W[2]


def test_svg_deterministic_and_well_formed(tmp_path, record):
    rep = analyze_record(record)
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    write_scatter_svg(rep, p1)
    write_scatter_svg(rep, p2)
    assert p1.read_bytes() == p2.read_bytes()
    svg = p1.read_text()
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<circle") == 8
    assert "firebrick" in svg and "steelblue" in svg
    assert "job index" in svg
    import xml.etree.ElementTree as ET

    ET.fromstring(svg)  # parses as XML


def _bar_lengths(svg: str) -> list[float]:
    """Pixel length of every per-job error bar, in job order."""
    bars = re.findall(
        r'<line x1="[^"]+" y1="([^"]+)" x2="[^"]+" y2="([^"]+)" stroke="firebrick" '
        r'stroke-width="0.8"/>',
        svg,
    )
    return [float(y1) - float(y2) for y1, y2 in bars]


def test_svg_error_bars_scale_with_each_jobs_counts(tmp_path):
    """Jobs of 200 and 3000 counts per cell get bars sqrt(15) apart; each is
    the pooled sigma scaled to its own job's counts."""
    truth = predicted_prob_matrix(builtin_config("II-0"))
    rng = np.random.default_rng(4)
    shots, reps = np.array([100, 1000, 200]), np.array([2, 3, 1])
    ones = rng.binomial(np.repeat(shots, reps)[:, None], truth[:4].ravel())
    rec = ExperimentRecord("II-0", "sim", ("a", "b", "c"), shots, reps, ones)
    rep = analyze_record(rec)
    assert rep.per_job_T.tolist() == [200, 3000, 200]
    path = tmp_path / "mixed.svg"
    write_scatter_svg(rep, path)
    small, large, small_again = _bar_lengths(path.read_text())
    assert small / large == pytest.approx(math.sqrt(15.0), rel=1e-3)
    assert small_again == pytest.approx(small, abs=0.02)


def test_svg_error_bars_of_equal_jobs_are_equal(tmp_path, record):
    rep = analyze_record(record)
    path = tmp_path / "equal.svg"
    write_scatter_svg(rep, path)
    lengths = _bar_lengths(path.read_text())
    assert len(lengths) == 8
    assert max(lengths) - min(lengths) <= 0.02
