"""Acceptance suite: the nine headline guarantees of the toolkit, each at its
stated tolerance and runtime budget, printing one PASS/FAIL line apiece.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  These tests intentionally repeat a few module-level regressions at
full budget; the per-module suites run reduced budgets for quick iteration.
"""

import math
import time

import numpy as np

import qubitcert.cli as cli
from qubitcert.configs import (
    BUILTIN_IDS,
    builtin_config,
    predicted_prob_matrix,
)
from qubitcert.extremal import (
    DEFAULT_RESTARTS,
    maximize_witness,
)
from qubitcert.noise import (
    apply_common_leakage,
    coherent_leak_prob_matrix,
    drift_bound,
)
from qubitcert.sampling import (
    estimate_pooled,
    estimator_bias_study,
    simulate_record,
)
from qubitcert.witness import prob_matrix, witness, witness_variance

from classical_reference import classical_max_detail
from conftest import random_config


def _report(n: int, ok: bool, detail: str, t: float) -> None:
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}  {detail}  ({t:.1f} s)")
    assert ok, detail


def test_criterion_1_qubit_witness_exactness():
    """|W| < 1e-10 on the predicted matrix of 10^3 random configurations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        cfg = random_config(rng)
        worst = max(worst, abs(witness(predicted_prob_matrix(cfg))))
    t = time.perf_counter() - t0
    _report(
        1,
        worst < 1e-10 and t < 5.0,
        f"max |W| over 1000 random qubit configs = {worst:.3e} (< 1e-10)",
        t,
    )


def test_criterion_2_extremal_d3_real():
    """Default-budget search reaches 27*sqrt(2)/64 within 1e-3."""
    t0 = time.perf_counter()
    target = 27.0 * math.sqrt(2.0) / 64.0
    res = maximize_witness(3, "real", DEFAULT_RESTARTS[3], seed=0)
    t = time.perf_counter() - t0
    gap = abs(res.best_W - target)
    _report(
        2,
        gap < 1e-3 and t < 120.0,
        f"d=3 real best W = {res.best_W:.12f}, gap to 27*sqrt(2)/64 = {gap:.2e} (< 1e-3)",
        t,
    )


def test_criterion_3_extremal_d4():
    """Default-budget search reaches 2^12/3^7 within 5e-3."""
    t0 = time.perf_counter()
    target = 2.0**12 / 3.0**7
    res = maximize_witness(4, "complex", DEFAULT_RESTARTS[4], seed=0)
    t = time.perf_counter() - t0
    gap = abs(res.best_W - target)
    _report(
        3,
        gap < 5e-3 and t < 600.0,
        f"d=4 best W = {res.best_W:.12f}, gap to 2^12/3^7 = {gap:.2e} (< 5e-3)",
        t,
    )


def test_criterion_4_classical_maximum():
    """Exhaustive 2^20 integer enumeration returns exactly 3."""
    t0 = time.perf_counter()
    best, count, example = classical_max_detail()
    t = time.perf_counter() - t0
    _report(
        4,
        best == 3 and t < 30.0,
        f"classical max |W| = {best} (exactly 3; {count} optimal assignments)",
        t,
    )


def test_criterion_5_leakage_invariance_and_scaling():
    """Common leakage leaves every built-in witness < 1e-10 on a 10x10
    parameter grid, and scales arbitrary witnesses by (1-lambda)^4."""
    t0 = time.perf_counter()
    worst_zero = 0.0
    for cid in BUILTIN_IDS:
        p = predicted_prob_matrix(builtin_config(cid))
        for lam in np.linspace(0.0, 0.99, 10):
            for mu in np.linspace(0.0, 1.0, 10):
                q = apply_common_leakage(p, lam, mu)
                worst_zero = max(worst_zero, abs(witness(q)))
    rng = np.random.default_rng(5)
    worst_scale = 0.0
    for _ in range(1000):
        p = prob_matrix(rng.uniform(0.0, 1.0, (4, 5)))
        lam, mu = rng.uniform(0.0, 0.99), rng.uniform(0.0, 1.0)
        q = apply_common_leakage(p, lam, mu)
        worst_scale = max(
            worst_scale, abs(witness(q) - (1.0 - lam) ** 4 * witness(p))
        )
    t = time.perf_counter() - t0
    _report(
        5,
        worst_zero < 1e-10 and worst_scale < 1e-10,
        f"builtin grid max |W'| = {worst_zero:.2e}; scaling-law max error = {worst_scale:.2e} (both < 1e-10)",
        t,
    )


def test_criterion_6_drift_bound_never_violated(tmp_path):
    """10^4 drift ensembles per (epsilon, mode), audited by ``audit-drift``:
    pooled |W| <= 80*sqrt(2)*eps^2, strictly, in every one of them."""
    t0 = time.perf_counter()
    ok = True
    closest = 0.0
    for eps in ("0.005", "0.01", "0.02", "0.05"):
        csv = tmp_path / f"audit-{eps}.csv"
        code = cli.main(
            [
                "audit-drift", "--config", "II-0", "--drift-eps", eps,
                "--trials", "10000", "--jobs", "10", "--drift-mode", "both",
                "--seed", "0", "--out", str(csv),
            ]
        )
        ok &= code == cli.EXIT_OK
        rows = csv.read_text().splitlines()[1:]
        ok &= [row.split(",")[:2] for row in rows] == [
            ["angle-jitter", "10000"],
            ["column-mix", "10000"],
        ]
        for row in rows:
            worst, bound = (float(x) for x in row.split(",")[2:4])
            ok &= bound == drift_bound(float(eps)) and worst <= bound
            closest = max(closest, worst / bound)
    t = time.perf_counter() - t0
    _report(
        6,
        ok and t < 300.0,
        f"pooled |W| <= 80*sqrt(2)*eps^2 in all 8e4 ensembles (worst at {100 * closest:.2f}% of bound)",
        t,
    )


def test_criterion_7_variance_formula_calibration():
    """Empirical Var(pooled W) matches the leading-order formula within 5%."""
    t0 = time.perf_counter()
    truth = predicted_prob_matrix(builtin_config("I-second"))
    cells = truth[:4]
    reps = 10_000
    ok = True
    details = []
    for T in (10_000, 1_000_000):
        rng = np.random.default_rng(np.random.SeedSequence(2024, spawn_key=(T,)))
        ones = rng.binomial(T, cells[None], size=(reps, 4, 5))
        mats = np.concatenate([ones / T, np.ones((reps, 1, 5))], axis=1)
        empirical = float(np.linalg.det(mats).var(ddof=1))
        formula = witness_variance(truth, T)
        rel = abs(empirical / formula - 1.0)
        ok &= rel < 0.05
        details.append(f"T=1e{int(math.log10(T))}: {100 * rel:.1f}%")
    t = time.perf_counter() - t0
    _report(
        7,
        ok and t < 600.0,
        f"empirical/formula variance deviation {', '.join(details)} (< 5%)",
        t,
    )


def test_criterion_8_reference_footprint_z_scores():
    """The 115-job x 100000-shot x 8-rep footprint: an ideal-qubit truth stays
    below the 5-sigma flag (the >5 sigma seen on hardware is not an artifact
    of the statistics pipeline), while a coherent leak of 0.3 blows past it."""
    t0 = time.perf_counter()
    run = (115, 100_000, 8, 11)  # jobs, shots, repetitions, seed
    cfg = builtin_config("II-0")

    clean = simulate_record(
        predicted_prob_matrix(cfg), *run, config_id=cfg.id, device="nairobi"
    )
    z_clean = estimate_pooled(clean).z

    leaky_p = coherent_leak_prob_matrix(cfg, 0.3)
    leaky = simulate_record(leaky_p, *run, config_id=cfg.id, device="nairobi")
    z_leak = estimate_pooled(leaky).z

    t = time.perf_counter() - t0
    _report(
        8,
        abs(z_clean) < 5.0 < abs(z_leak),
        f"clean z = {z_clean:+.2f} (|z| < 5), coherent-leak-0.3 z = {z_leak:+.1f} (|z| > 5)",
        t,
    )


def test_criterion_9_per_job_fluctuation_ordering():
    """Across 10^3 replications, the per-job estimator's deviation from zero
    at shots = 10^3 strictly exceeds that at shots = 10^5."""
    t0 = time.perf_counter()
    truth = predicted_prob_matrix(builtin_config("I-second"))
    (low, _), (high, _) = estimator_bias_study(
        truth, 10, [1_000, 100_000], replications=1000, seed=7
    )
    low, high = abs(low.W), abs(high.W)
    t = time.perf_counter() - t0
    _report(
        9,
        low > high,
        f"mean per-job W magnitude: {low:.3e} at 1e3 shots > {high:.3e} at 1e5 shots",
        t,
    )
