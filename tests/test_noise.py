"""Noise channels: invisible ones stay invisible, the coherent leak is seen."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from qubitcert.configs import BUILTIN_IDS, builtin_config, predicted_prob_matrix
from qubitcert.noise import (
    DriftModel,
    apply_common_leakage,
    apply_readout_error,
    coherent_leak_prob_matrix,
    drift_bound,
    generate_drift_ensemble,
)
from qubitcert.witness import prob_matrix, witness

from conftest import random_config
from drift_reference import reference_ensemble, reference_worst


# --- incoherent leakage ----------------------------------------------------


def test_leakage_param_validation():
    p = predicted_prob_matrix(builtin_config("II-0"))
    with pytest.raises(ValueError, match="lambda_prep"):
        apply_common_leakage(p, -0.1, 0.5)
    with pytest.raises(ValueError, match="lambda_prep"):
        apply_common_leakage(p, 1.0, 0.5)
    with pytest.raises(ValueError, match="mu_meas"):
        apply_common_leakage(p, 0.3, 1.5)
    apply_common_leakage(p, 0.0, 0.0)
    apply_common_leakage(p, 0.99, 1.0)


def test_leakage_keeps_builtin_witnesses_zero():
    for cid in BUILTIN_IDS:
        p = predicted_prob_matrix(builtin_config(cid))
        for lam in (0.1, 0.5, 0.9):
            for mu in (0.0, 0.3, 1.0):
                q = apply_common_leakage(p, lam, mu)
                assert abs(witness(q)) < 1e-12


def test_leakage_scales_witness_by_fourth_power(rng):
    for _ in range(20):
        rows = rng.uniform(0.1, 0.9, (4, 5))
        p = prob_matrix(rows)
        lam, mu = rng.uniform(0, 0.8), rng.uniform(0, 1)
        q = apply_common_leakage(p, lam, mu)
        assert abs(witness(q) - (1 - lam) ** 4 * witness(p)) < 1e-12


# --- readout error ---------------------------------------------------------


def test_readout_param_validation():
    with pytest.raises(ValueError):
        apply_readout_error(predicted_prob_matrix(builtin_config("II-0")), 0.6, 0.5)
    with pytest.raises(ValueError):
        apply_readout_error(predicted_prob_matrix(builtin_config("II-0")), -0.1, 0.0)


def test_readout_scales_witness_by_fourth_power(rng):
    for _ in range(20):
        rows = rng.uniform(0.1, 0.9, (4, 5))
        p = prob_matrix(rows)
        e0, e1 = rng.uniform(0, 0.4), rng.uniform(0, 0.4)
        q = apply_readout_error(p, e0, e1)
        assert abs(witness(q) - (1 - e0 - e1) ** 4 * witness(p)) < 1e-12


def test_readout_example():
    rows = np.array(
        [
            [0.9, 0.1, 0.5, 0.3, 0.7],
            [0.2, 0.8, 0.4, 0.6, 0.5],
            [0.5, 0.5, 0.9, 0.1, 0.3],
            [0.3, 0.7, 0.2, 0.8, 0.9],
        ]
    )
    p = prob_matrix(rows)
    q = apply_readout_error(p, 0.1, 0.1)
    assert witness(q) == pytest.approx(0.8**4 * witness(p), abs=1e-14)


def test_channels_commute_on_witness_scale(rng):
    rows = rng.uniform(0.1, 0.9, (4, 5))
    p = prob_matrix(rows)
    a = apply_readout_error(apply_common_leakage(p, 0.2, 0.4), 0.05, 0.1)
    b = apply_common_leakage(apply_readout_error(p, 0.05, 0.1), 0.2, 0.4)
    scale = 0.8**4 * 0.85**4
    assert abs(witness(a) - scale * witness(p)) < 1e-12
    assert abs(witness(b) - scale * witness(p)) < 1e-12


# --- per-job drift ---------------------------------------------------------


def test_drift_model_validation():
    with pytest.raises(ValueError):
        DriftModel(-0.01, 5)
    with pytest.raises(ValueError):
        DriftModel(0.01, 0)
    with pytest.raises(ValueError):
        DriftModel(0.01, 5, "sideways")


def test_drift_bound_formula():
    assert drift_bound(0.0) == 0.0
    assert drift_bound(0.01) == pytest.approx(80 * math.sqrt(2) * 1e-4)
    with pytest.raises(ValueError):
        drift_bound(-1.0)


def test_zero_epsilon_reproduces_reference():
    cfg = builtin_config("I-second")
    ref = predicted_prob_matrix(cfg)
    ens = generate_drift_ensemble(cfg, DriftModel(0.0, 7), seed=3, trials=2)
    assert ens.shape == (2, 7, 5, 5)
    for p in ens.reshape(-1, 5, 5):
        assert np.array_equal(p, ref)


@pytest.mark.parametrize("mode", ["angle-jitter", "column-mix"])
@pytest.mark.parametrize("cid", ["I-second", "II-0"])
def test_drift_members_are_witness_zero_and_within_budget(mode, cid):
    cfg = builtin_config(cid)
    ref = predicted_prob_matrix(cfg)
    eps = 0.02
    ens = generate_drift_ensemble(cfg, DriftModel(eps, 12, mode), seed=42, trials=3)
    assert ens.shape == (3, 12, 5, 5)
    for p in ens.reshape(-1, 5, 5):
        assert abs(witness(p)) < 1e-10
        assert np.max(np.abs(p - ref)) <= eps + 1e-12
        assert np.all(p[4] == 1.0) and np.all((0.0 <= p) & (p <= 1.0))


def test_drift_is_deterministic():
    cfg = builtin_config("II-1")
    m = DriftModel(0.01, 6, "column-mix")
    a = generate_drift_ensemble(cfg, m, seed=9)
    b = generate_drift_ensemble(cfg, m, seed=9)
    assert np.array_equal(a, b)
    c = generate_drift_ensemble(cfg, m, seed=10)
    assert any(not np.array_equal(x, y) for x, y in zip(a[0], c[0]))


@pytest.mark.parametrize("mode", ["angle-jitter", "column-mix"])
def test_drift_trial_depends_only_on_its_own_seed(mode):
    """Trial t of a batch is the one-trial ensemble of seed + t."""
    cfg = builtin_config("II-0")
    m = DriftModel(0.05, 5, mode)
    batch = generate_drift_ensemble(cfg, m, seed=100, trials=6)
    for t in range(6):
        alone = generate_drift_ensemble(cfg, m, seed=100 + t)
        assert batch[t].tobytes() == alone[0].tobytes()


def test_drift_needs_a_trial():
    with pytest.raises(ValueError, match="trials"):
        generate_drift_ensemble(builtin_config("II-0"), DriftModel(0.01, 3), 0, trials=0)


@pytest.mark.parametrize("n_jobs", [1, 7, 10])
@pytest.mark.parametrize("eps", [0.0, 0.005, 0.05, 0.2])
@pytest.mark.parametrize("mode", ["angle-jitter", "column-mix"])
@pytest.mark.parametrize("cid", ["II-0", "I-prime"])
def test_batched_drift_matches_per_trial_loop(cid, mode, eps, n_jobs):
    """Every ensemble, and the worst pooled |W|, bit for bit as the one-trial
    loop makes them (I-prime's exact 0s and 1s drive column-mix into its
    shrink-and-fall-back path)."""
    cfg = builtin_config(cid)
    model = DriftModel(eps, n_jobs, mode)
    seed, trials = 7, 40
    batch = generate_drift_ensemble(cfg, model, seed, trials)
    assert batch.shape == (trials, n_jobs, 5, 5)
    for t in range(trials):
        assert batch[t].tobytes() == reference_ensemble(cfg, model, seed + t).tobytes()
    worst = float(np.abs(np.linalg.det(batch.mean(axis=1))).max())
    assert worst == reference_worst(cfg, model, seed, trials)


def test_column_mix_moves_the_pooled_witness():
    """The adversarial mode must actually exercise the quadratic loophole:
    pooling the jobs should give |W| > 0 while staying under the bound."""
    cfg = builtin_config("II-0")
    eps = 0.02
    best = 0.0
    ensembles = generate_drift_ensemble(cfg, DriftModel(eps, 10, "column-mix"), 0, 25)
    for ens in ensembles:
        pooled = prob_matrix(np.mean([p[:4] for p in ens], axis=0))
        w = abs(witness(pooled))
        assert w <= drift_bound(eps)
        best = max(best, w)
    assert best > 1e-6


def test_pooled_jitter_respects_bound(rng):
    cfg = builtin_config("I-second")
    eps = 0.05
    ensembles = generate_drift_ensemble(cfg, DriftModel(eps, 8, "angle-jitter"), 0, 25)
    for ens in ensembles:
        pooled = prob_matrix(np.mean([p[:4] for p in ens], axis=0))
        assert abs(witness(pooled)) <= drift_bound(eps)


# --- coherent leak ---------------------------------------------------------


def _oracle_gate(gamma: float, chi: float) -> np.ndarray:
    """Independent reconstruction: qubit block conjugated by z-phases, then a
    matrix-exponential rotation in the |1>-|2> plane with axis phase gamma."""
    z = np.diag([np.exp(-0.5j * gamma), np.exp(0.5j * gamma)])
    s = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / math.sqrt(2.0)
    u = np.eye(3, dtype=complex)
    u[:2, :2] = z.conj().T @ s @ z
    x12 = np.zeros((3, 3), complex)
    x12[1, 2] = x12[2, 1] = 1.0
    y12 = np.zeros((3, 3), complex)
    y12[1, 2], y12[2, 1] = -1.0j, 1.0j
    leak = expm(-0.5j * chi * (math.cos(gamma) * x12 + math.sin(gamma) * y12))
    return leak @ u


def _oracle_matrix(cfg, chi):
    ket0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    preps = [_oracle_gate(b, chi) @ _oracle_gate(a, chi) @ ket0 for a, b in cfg.preparations]
    bras = [ket0 @ _oracle_gate(t, chi) @ _oracle_gate(f, chi) for t, f in cfg.measurements]
    return np.array([[abs(b @ n) ** 2 for n in preps] for b in bras])


def test_leak_param_validation():
    with pytest.raises(ValueError, match="finite"):
        coherent_leak_prob_matrix(builtin_config("II-0"), float("nan"))


def test_zero_leak_reduces_to_qubit_model(rng):
    for cid in ("I-prime", "II-2"):
        cfg = builtin_config(cid)
        p = coherent_leak_prob_matrix(cfg, 0.0)
        assert np.allclose(p, predicted_prob_matrix(cfg), atol=1e-12)
    cfg = random_config(rng)
    p = coherent_leak_prob_matrix(cfg, 0.0)
    assert np.allclose(p, predicted_prob_matrix(cfg), atol=1e-12)


def test_leak_matches_matrix_exponential_oracle(rng):
    for chi in (0.05, 0.3, 1.1):
        for cfg in (builtin_config("II-0"), random_config(rng)):
            ours = coherent_leak_prob_matrix(cfg, chi)
            assert np.allclose(ours[:4], _oracle_matrix(cfg, chi), atol=1e-12)


def test_leak_witness_regressions():
    cfg = builtin_config("II-0")
    frozen = {
        0.01: 4.418671935717578e-06,
        0.05: 0.00011002041581580402,
        0.1: 0.00043454548993814647,
        0.3: 0.00341483845067273,
    }
    for chi, expected in frozen.items():
        w = witness(coherent_leak_prob_matrix(cfg, chi))
        assert w == pytest.approx(expected, rel=1e-9)


def test_leak_witness_grows_with_angle():
    cfg = builtin_config("II-0")
    values = [
        abs(witness(coherent_leak_prob_matrix(cfg, chi)))
        for chi in (0.01, 0.05, 0.1, 0.3)
    ]
    assert values == sorted(values)


def test_leak_detected_by_every_builtin():
    for cid in BUILTIN_IDS:
        w = witness(
            coherent_leak_prob_matrix(builtin_config(cid), 0.05)
        )
        assert abs(w) > 1e-9, cid
