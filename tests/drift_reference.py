"""One-trial-at-a-time drift ensembles: the per-trial loop that the batched
``noise.generate_drift_ensemble`` replaced, kept as its oracle.  Each trial
draws from its own ``default_rng(seed)`` and builds its matrices one by one."""

import math

import numpy as np

from qubitcert.bloch import meas_bloch_vectors, prep_bloch_vectors
from qubitcert.configs import predicted_prob_matrix
from qubitcert.witness import prob_matrix

_JITTER_LIPSCHITZ = 1.0 + math.sqrt(2.0)


def _jitter_matrices(config, eps, n_jobs, rng):
    delta = eps / _JITTER_LIPSCHITZ
    pa, pb = np.array(config.preparations).T
    mt, mf = np.array(config.measurements).T
    jit = rng.uniform(-delta, delta, size=(n_jobs, 18))
    n = prep_bloch_vectors(pa + jit[:, 0:5], pb + jit[:, 5:10])
    m = meas_bloch_vectors(mt + jit[:, 10:14], mf + jit[:, 14:18])
    return 0.5 * (1.0 + np.einsum("jkc,jlc->jkl", m, n))


def _affine_rebuild(cols, target):
    n = cols.shape[1]
    kkt = np.zeros((n + 1, n + 1))
    kkt[:n, :n] = 2.0 * cols.T @ cols
    kkt[:n, n] = 1.0
    kkt[n, :n] = 1.0
    rhs = np.zeros(n + 1)
    rhs[:n] = 2.0 * cols.T @ target
    rhs[n] = 1.0
    w = np.linalg.solve(kkt, rhs)[:n]
    return cols @ w


def _column_mix_pattern(p0, eps, rng):
    t = int(rng.integers(0, 5))
    others = [j for j in range(5) if j != t]
    e0 = rng.uniform(-eps, eps, size=(4, 5))
    scale = 1.0
    for _ in range(8):
        e = np.clip(scale * e0, -p0, 1.0 - p0)
        q = p0 + e
        rebuilt = _affine_rebuild(q[:, others], p0[:, t])
        dev = float(np.max(np.abs(rebuilt - p0[:, t])))
        if dev <= eps and rebuilt.min() >= 0.0 and rebuilt.max() <= 1.0:
            q[:, t] = rebuilt
            return q
        scale *= min(0.9, eps / max(dev, 1e-300))
    return p0.copy()


def reference_ensemble(config, model, seed) -> np.ndarray:
    """The ``(n_jobs, 5, 5)`` ensemble of one trial drawn from ``seed``."""
    ref = predicted_prob_matrix(config)
    if model.epsilon == 0.0:
        return np.array([ref] * model.n_jobs)
    rng = np.random.default_rng(seed)
    if model.perturbation_mode == "angle-jitter":
        rows = _jitter_matrices(config, model.epsilon, model.n_jobs, rng)
        return np.array([prob_matrix(r) for r in rows])
    pattern_a = _column_mix_pattern(ref[:4], model.epsilon, rng)
    pattern_b = _column_mix_pattern(ref[:4], model.epsilon, rng)
    return np.array(
        [prob_matrix(pattern_b if n % 2 else pattern_a) for n in range(model.n_jobs)]
    )


def reference_worst(config, model, seed, trials) -> float:
    """Largest pooled |W| over trials ``seed .. seed + trials - 1``."""
    worst = 0.0
    for trial in range(trials):
        pooled = np.mean(list(reference_ensemble(config, model, seed + trial)), axis=0)
        worst = max(worst, abs(float(np.linalg.det(pooled))))
    return worst
