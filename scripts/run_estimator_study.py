#!/usr/bin/env python3
"""Replication study of the two witness estimators across a shots grid.

The determinant of the estimated probability matrix is exactly unbiased when
cells are sampled independently (every Leibniz monomial touches five distinct
cells), so what this study shows is not a systematic bias but the shrinking
fluctuation scale of the replication mean: the per-job method's deviation
from zero falls roughly like 1/shots, and the pooled method tracks it
closely for equal-size jobs.
"""

import argparse
import csv
from pathlib import Path

from qubitcert.configs import builtin_config, predicted_prob_matrix
from qubitcert.sampling import estimator_bias_study


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", default="I-second")
    ap.add_argument("--jobs", type=int, default=10)
    ap.add_argument("--replications", type=int, default=1000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument(
        "--shots", type=int, nargs="+",
        default=[1_000, 10_000, 100_000],
    )
    ap.add_argument("--out", default="estimator_study.csv")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")
    out = Path(args.out)
    if not out.parent.is_dir():
        ap.error(f"--out {args.out}: {out.parent} is not a directory")
    if out.is_dir():
        ap.error(f"--out {args.out}: is a directory")

    # the config and the study check their inputs before any sampling
    try:
        truth = predicted_prob_matrix(builtin_config(args.config))
        results = estimator_bias_study(
            truth, args.jobs, args.shots, args.replications, args.seed
        )
    except ValueError as exc:
        ap.error(str(exc))

    print(
        f"{'shots':>8s} {'per-job mean':>13s} {'(se)':>10s} "
        f"{'pooled mean':>12s} {'(se)':>10s}"
    )
    out_rows = []
    for shots, (per_job, pooled) in zip(args.shots, results):
        print(
            f"{shots:8d} {per_job.W:+13.3e} {per_job.sigma:10.1e} "
            f"{pooled.W:+12.3e} {pooled.sigma:10.1e}"
        )
        out_rows.append(
            {
                "shots": shots,
                "jobs": args.jobs,
                "replications": args.replications,
                "per_job_mean": per_job.W,
                "per_job_se": per_job.sigma,
                "pooled_mean": pooled.W,
                "pooled_se": pooled.sigma,
            }
        )

    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(out_rows[0]))
        writer.writeheader()
        writer.writerows(out_rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
