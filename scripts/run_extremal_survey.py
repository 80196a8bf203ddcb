#!/usr/bin/env python3
"""Run the extremal witness search for every (dimension, field) pair at the
default restart budgets and tabulate the results against the known targets.

Writes one SearchResult JSON per problem into --outdir (default: results/).
Expected values: 0 for qubits, 27*sqrt(2)/64 for d=3 real, ~0.6319201 for
d=3 complex (numerical; no closed form known), 2^12/3^7 for d=4.
"""

import argparse
import time
from pathlib import Path

from qubitcert.extremal import (
    DEFAULT_RESTARTS,
    KNOWN_MAXIMA,
    MAX_RESTARTS,
    maximize_witness,
    save_search_result,
)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", type=Path, default=Path("results"))
    ap.add_argument(
        "--restarts", type=int, default=None,
        help="override the per-dimension default budget",
    )
    args = ap.parse_args()
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")
    if args.restarts is not None and args.restarts < 1:
        ap.error(f"--restarts must be >= 1, got {args.restarts}")
    if args.restarts is not None and args.restarts > MAX_RESTARTS:
        ap.error(f"--restarts {args.restarts} exceeds MAX_RESTARTS = {MAX_RESTARTS}")
    try:
        args.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        ap.error(f"--outdir {args.outdir} cannot be made a directory: {exc.strerror}")

    print(f"{'d':>2s} {'field':8s} {'restarts':>8s} {'best |W|':>16s} {'gap':>10s} {'time':>7s}")
    for (d, field), (_, target) in KNOWN_MAXIMA.items():
        restarts = DEFAULT_RESTARTS[d] if args.restarts is None else args.restarts
        t0 = time.perf_counter()
        res = maximize_witness(d, field, restarts, seed=args.seed)
        dt = time.perf_counter() - t0
        gap = "" if target is None else f"{abs(res.best_W) - target:+.1e}"
        print(
            f"{d:2d} {field:8s} {restarts:8d} {abs(res.best_W):16.12f} {gap:>10s} {dt:6.1f}s"
        )
        out = args.outdir / f"extremal_d{d}_{field}.json"
        save_search_result(res, out)


if __name__ == "__main__":
    main()
