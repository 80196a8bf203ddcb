"""Report assembly, text rendering, and deterministic CSV/SVG output."""

import dataclasses

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
    ExperimentPlan,
    RecordSchemaError,
    record_from_dict,
    record_to_dict,
    simulate_record,
)
from qubitcert.witness import WitnessResult


@pytest.fixture
def record():
    truth = predicted_prob_matrix(builtin_config("I-second"))
    return simulate_record(
        truth, ExperimentPlan(8, 2000, 2, seed=13), config_id="I-second"
    )


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
    truth = predicted_prob_matrix(builtin_config("II-0"))
    rec = simulate_record(truth, ExperimentPlan(1, 500, 1, seed=2), config_id="II-0")
    rep = analyze_record(rec)
    assert rep.per_job.z is None
    assert "undef" in render_text(rep)


def test_empty_job_rejected_before_analysis(record):
    """A job with 0 shots in every cell is rejected when the record is read,
    so no scatter ever has to skip it."""
    doc = record_to_dict(record)
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
