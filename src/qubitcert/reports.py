"""Analysis reports: both estimators side by side, z-scores, CSV and SVG.

The report always carries both estimation methods because they answer subtly
different questions: the per-job average (method i) is sensitive to per-job
fluctuation scale, the pooled determinant (method ii) to the aggregate
behaviour; on clean simulations they nearly coincide.  Two z-scores are
emitted and labeled, one per method — the per-job z uses the empirical scatter
of per-job witnesses, the pooled z uses the leading-order variance formula —
since either normalization is defensible and they differ in small samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .sampling import ExperimentRecord, estimate_per_job, estimate_pooled
from .witness import WitnessResult

__all__ = [
    "AnalysisReport",
    "analyze_record",
    "render_text",
    "write_scatter_csv",
    "write_scatter_svg",
]

#: Conventional failure criterion: the witness is "detected" beyond 5 sigma.
Z_FLAG = 5.0


@dataclass(frozen=True)
class AnalysisReport:
    """Everything cmd-analyze prints, in structured form: both estimates, the
    per-job witnesses behind ``per_job`` and the counts behind each cell of
    each job (shots x reps), both in job order."""

    config_id: str
    per_job: WitnessResult
    pooled: WitnessResult
    per_job_W: np.ndarray
    per_job_T: np.ndarray


def analyze_record(record: ExperimentRecord) -> AnalysisReport:
    """Run both estimators over a record and package the comparison."""
    per_job, per_job_W = estimate_per_job(record)
    return AnalysisReport(
        config_id=record.config_id,
        per_job=per_job,
        pooled=estimate_pooled(record),
        per_job_W=per_job_W,
        per_job_T=record.shots * record.reps,
    )


def _fmt_z(z: float | None) -> str:
    return f"{z:+8.3f}" if z is not None else "   undef"


def render_text(report: AnalysisReport) -> str:
    """Human-readable summary table with the 5-sigma verdict."""
    per_job, pooled = report.per_job, report.pooled
    stderr_i = f"{per_job.sigma:.3e}" if per_job.sigma is not None else "undef"
    lines = [
        f"config:           {report.config_id}",
        f"jobs included:    {len(report.per_job_W)}",
        f"method i  (per-job W, averaged):  W = {per_job.W:+.6e}  stderr = {stderr_i}",
        f"method ii (pooled p, one W):      W = {pooled.W:+.6e}  sigma  = {pooled.sigma:.3e}",
        f"z (per-job / pooled):             {_fmt_z(per_job.z)} / {_fmt_z(pooled.z)}",
    ]
    z = pooled.z
    if z is None:
        verdict = "UNDEFINED (zero variance)"
    elif abs(z) > Z_FLAG:
        verdict = f"FAIL (|z| > {Z_FLAG:g}: inconsistent with a qubit model)"
    else:
        verdict = f"PASS (|z| <= {Z_FLAG:g}: consistent with a qubit model)"
    lines.append(f"verdict:          {verdict}")
    return "\n".join(lines)


def write_scatter_csv(report: AnalysisReport, path: str | Path) -> None:
    """Per-job witness scatter (job index vs W), byte-deterministic."""
    rows = ["job_index,W"]
    rows += [f"{idx},{w!r}" for idx, w in enumerate(report.per_job_W.tolist())]
    Path(path).write_text("\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# Minimal deterministic SVG scatter


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = np.linspace(lo, hi, n)
    return [float(t) for t in raw]


def write_scatter_svg(report: AnalysisReport, path: str | Path) -> None:
    """Per-job scatter with error bars and both method lines.

    Job j's error bar is the pooled formula sigma scaled to that job's
    counts: ``sigma * sqrt(T / T_j)``, with ``T_j`` = shots x reps of job j
    and ``T`` their sum (``sqrt(n_jobs) * sigma`` when all jobs are equal).
    """
    width, height = 640, 400
    ml, mr, mt, mb = 70, 20, 20, 45
    pw, ph = width - ml - mr, height - mt - mb
    ys = report.per_job_W.tolist()
    n = len(ys)
    total = int(report.per_job_T.sum())
    bars = [report.pooled.sigma * math.sqrt(total / t) for t in report.per_job_T.tolist()]
    lo = min(min(y - bar for y, bar in zip(ys, bars)), 0.0)
    hi = max(max(y + bar for y, bar in zip(ys, bars)), 0.0)
    pad = 0.08 * (hi - lo or 1.0)
    lo, hi = lo - pad, hi + pad
    x0, x1 = 0, max(n - 1, 1)

    def px(x: float) -> float:
        return ml + pw * (x - x0) / (x1 - x0)

    def py(y: float) -> float:
        return mt + ph * (hi - y) / (hi - lo)

    e = []
    e.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">'
    )
    e.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    # axes and ticks
    e.append(
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>'
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>'
    )
    for t in _ticks(lo, hi):
        y = py(t)
        e.append(
            f'<line x1="{ml - 4}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="black"/>'
            f'<text x="{ml - 8}" y="{y + 4:.2f}" text-anchor="end">{t:.2e}</text>'
        )
    step = max(1, n // 8)
    for idx in range(0, n, step):
        x = px(idx)
        e.append(
            f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" y2="{mt + ph + 4}" stroke="black"/>'
            f'<text x="{x:.2f}" y="{mt + ph + 16}" text-anchor="middle">{idx}</text>'
        )
    e.append(
        f'<text x="{ml + pw / 2:.2f}" y="{height - 8}" text-anchor="middle">job index</text>'
    )
    # zero line and method lines
    e.append(
        f'<line x1="{ml}" y1="{py(0.0):.2f}" x2="{ml + pw}" y2="{py(0.0):.2f}" '
        'stroke="gray" stroke-dasharray="4 3"/>'
    )
    yi = py(report.per_job.W)
    e.append(
        f'<line x1="{ml}" y1="{yi:.2f}" x2="{ml + pw}" y2="{yi:.2f}" stroke="firebrick"/>'
    )
    yii = py(report.pooled.W)
    e.append(
        f'<line x1="{ml}" y1="{yii:.2f}" x2="{ml + pw}" y2="{yii:.2f}" '
        'stroke="steelblue" stroke-dasharray="7 3"/>'
    )
    # scatter with error bars
    for idx, (w, bar) in enumerate(zip(ys, bars)):
        x = px(idx)
        if bar > 0.0:
            e.append(
                f'<line x1="{x:.2f}" y1="{py(w - bar):.2f}" x2="{x:.2f}" '
                f'y2="{py(w + bar):.2f}" stroke="firebrick" stroke-width="0.8"/>'
            )
        e.append(f'<circle cx="{x:.2f}" cy="{py(w):.2f}" r="2.6" fill="firebrick"/>')
    e.append(
        f'<text x="{ml + 8}" y="{mt + 14}" fill="firebrick">per-job W (mean {report.per_job.W:+.3e})</text>'
    )
    e.append(
        f'<text x="{ml + 8}" y="{mt + 28}" fill="steelblue">pooled W {report.pooled.W:+.3e}</text>'
    )
    e.append("</svg>")
    Path(path).write_text("\n".join(e) + "\n")
