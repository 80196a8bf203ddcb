#!/usr/bin/env python3
"""Simulate the two reference device footprints over every built-in config.

Footprints (job x shot x repetition structure of the two superconducting
devices whose published runs motivated this toolkit):

* nairobi: 115 jobs x 100000 shots x 8 repetitions  (T = 9.2e7 per cell)
* lagos:    60 jobs x  32000 shots x 15 repetitions (T = 2.88e7 per cell)

For each (footprint, config) this script simulates a clean ideal-qubit run
and a run with a coherent leak of 0.3 per gate, then prints the pooled
z-scores side by side.  Clean runs should stay within |z| < 5; leaky runs
should be flagged far beyond it.
"""

import argparse
import math

from qubitcert.configs import BUILTIN_IDS, builtin_config, predicted_prob_matrix
from qubitcert.noise import coherent_leak_prob_matrix
from qubitcert.sampling import estimate_per_job, estimate_pooled, simulate_record

#: (jobs, shots, repetitions) per device
FOOTPRINTS = {
    "nairobi": (115, 100_000, 8),
    "lagos": (60, 32_000, 15),
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--leak", type=float, default=0.3, help="coherent leak angle")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error(f"--seed must be >= 0, got {args.seed}")
    if not math.isfinite(args.leak):
        ap.error(f"--leak must be finite, got {args.leak}")

    print(f"{'device':8s} {'config':9s} {'z clean (i/ii)':>18s} {'z leak (ii)':>12s}")
    for device, footprint in FOOTPRINTS.items():
        for cid in BUILTIN_IDS:
            cfg = builtin_config(cid)
            clean = simulate_record(
                predicted_prob_matrix(cfg), *footprint, args.seed, config_id=cid, device=device
            )
            z_i = estimate_per_job(clean)[0].z
            z_ii = estimate_pooled(clean).z

            leaky = simulate_record(
                coherent_leak_prob_matrix(cfg, args.leak),
                *footprint,
                args.seed,
                config_id=cid,
                device=device,
            )
            z_leak = estimate_pooled(leaky).z
            print(
                f"{device:8s} {cid:9s} {z_i:+8.2f} / {z_ii:+6.2f} {z_leak:+12.1f}"
            )


if __name__ == "__main__":
    main()
