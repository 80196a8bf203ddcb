"""Noise channels for the determinant witness: what it ignores and what it sees.

Three channels leave a zero witness exactly zero, because they act affinely
and identically on the four measured rows:

* common incoherent leakage — every preparation loses weight ``lambda`` to one
  fixed external state to which every effect responds with ``mu``;
* uniform readout error — outcome 1 is misread as 0 with probability ``e1``
  and 0 as 1 with ``e0``;
* per-job calibration drift — each job realizes a slightly different but still
  exactly-qubit matrix; pooling jobs mixes witness-zero matrices, and the
  pooled witness obeys ``|W| <= 80*sqrt(2)*eps^2`` when every entry moves by
  at most ``eps``.

One channel is built to be seen: a coherent leak where each gate rotates part
of the qubit amplitude into a third level by a phase-dependent amount.  That
makes outcome probabilities depend on the gate phases in a way no qubit model
can reproduce, so the witness picks it up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bloch import meas_bloch_vectors, prep_bloch_vectors
from .configs import ConfigSet, predicted_prob_matrix
from .witness import ProbMatrix, checked_probabilities

__all__ = [
    "LeakageParams",
    "DriftModel",
    "CoherentLeakParams",
    "apply_common_leakage",
    "apply_readout_error",
    "generate_drift_ensemble",
    "drift_bound",
    "coherent_leak_prob_matrix",
]

_SQRT2 = math.sqrt(2.0)

# An angle jitter of delta moves any predicted probability by at most
# (1 + sqrt(2)) * delta: the Bloch vectors are 1-Lipschitz in the first gate
# angle and sqrt(2)-Lipschitz in the second, and |dp| <= (|dm| + |dn|)/2.
_JITTER_LIPSCHITZ = 1.0 + _SQRT2


@dataclass(frozen=True)
class LeakageParams:
    """Common incoherent leakage: weight ``lambda_prep`` moved from every
    preparation to one external state, to which every effect responds with
    probability ``mu_meas``."""

    lambda_prep: float
    mu_meas: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda_prep < 1.0:
            raise ValueError(f"lambda_prep must be in [0, 1), got {self.lambda_prep}")
        if not 0.0 <= self.mu_meas <= 1.0:
            raise ValueError(f"mu_meas must be in [0, 1], got {self.mu_meas}")


@dataclass(frozen=True)
class DriftModel:
    """Entrywise-bounded per-job drift.

    ``epsilon`` bounds |p_drifted - p_reference| per entry; every generated
    matrix stays exactly qubit-realizable (witness zero on its own).  Modes:

    * ``angle-jitter`` — physical: all 18 gate phases jitter independently and
      the matrix is re-derived; deviations stay below epsilon by the Lipschitz
      bound above.
    * ``column-mix`` — adversarial: entries are pushed to the box boundary and
      one preparation column is rebuilt as an affine combination of the other
      four (weights summing to one, so the ones row is respected), keeping the
      determinant exactly zero while the pooled matrix moves as far as the
      budget allows.
    """

    epsilon: float
    n_jobs: int
    perturbation_mode: str = "angle-jitter"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise ValueError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.perturbation_mode not in ("angle-jitter", "column-mix"):
            raise ValueError(
                "perturbation_mode must be 'angle-jitter' or 'column-mix', "
                f"got {self.perturbation_mode!r}"
            )


@dataclass(frozen=True)
class CoherentLeakParams:
    """Phase-dependent coherent rotation into a third level, per gate.

    ``leak_angle = 0`` reduces exactly to the qubit model.  Only a single
    external level is modeled (dimension 3).
    """

    leak_angle: float
    dimension: int = 3

    def __post_init__(self) -> None:
        if not math.isfinite(self.leak_angle):
            raise ValueError("leak_angle must be finite")
        if self.dimension != 3:
            raise ValueError("only a single external level (dimension 3) is supported")


def apply_common_leakage(p: ProbMatrix, params: LeakageParams) -> ProbMatrix:
    """p'_{kj} = (1 - lambda) p_{kj} + lambda * mu on the measured rows.

    This is the probability-level action of normalized leaky preparations
    N' = (1-lambda) N + lambda |e><e| against effects with <e|M'|e> = mu.
    Scales any witness by (1 - lambda)^4; a zero witness stays zero.
    """
    lam, mu = params.lambda_prep, params.mu_meas
    rows = (1.0 - lam) * p.p[:4] + lam * mu
    return ProbMatrix.from_rows(rows)


def apply_readout_error(p: ProbMatrix, e0: float, e1: float) -> ProbMatrix:
    """Uniform assignment errors: 0 read as 1 with ``e0``, 1 read as 0 with
    ``e1``; p' = e0 + (1 - e0 - e1) p.  Scales the witness by (1-e0-e1)^4."""
    if not (0.0 <= e0 < 1.0 and 0.0 <= e1 < 1.0 and e0 + e1 < 1.0):
        raise ValueError(f"need e0, e1 in [0, 1) with e0 + e1 < 1, got {e0}, {e1}")
    rows = e0 + (1.0 - e0 - e1) * p.p[:4]
    return ProbMatrix.from_rows(rows)


def drift_bound(epsilon: float) -> float:
    """Upper bound 80*sqrt(2)*eps^2 on the pooled witness of any mixture of
    witness-zero matrices within ``epsilon`` of a common reference."""
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    return 80.0 * _SQRT2 * epsilon * epsilon


def _jitter_rows(config: ConfigSet, jit: np.ndarray) -> np.ndarray:
    """Measured rows, shape (..., 4, 5), of the config with its 18 gate angles
    shifted by ``jit`` (..., 18): five alphas, five betas, four thetas, four
    phis."""
    pa, pb = np.array(config.preparations).T  # (5,), (5,)
    mt, mf = np.array(config.measurements).T  # (4,), (4,)
    n = prep_bloch_vectors(pa + jit[..., 0:5], pb + jit[..., 5:10])  # (..., 5, 3)
    m = meas_bloch_vectors(mt + jit[..., 10:14], mf + jit[..., 14:18])
    return 0.5 * (1.0 + np.einsum("...kc,...lc->...kl", m, n))


# _OTHERS[t] lists the four columns other than t
_OTHERS = np.array([[j for j in range(5) if j != t] for t in range(5)])


def _column_mix_patterns(
    p0: np.ndarray, eps: float, t: np.ndarray, e0: np.ndarray
) -> np.ndarray:
    """Adversarial witness-zero matrices within ``eps`` of reference rows
    ``p0`` (4x5), one per drawn column ``t[i]`` and perturbation ``e0[i]``
    (4x5): perturb all cells, then rebuild column ``t[i]`` as the affine
    combination of the other four closest to the reference column (least
    squares, weights summing to one).  The perturbation shrinks until the
    rebuilt column stays within ``eps`` and in [0, 1], for at most eight tries;
    a pattern that never gets there falls back to the reference."""
    count = len(t)
    out = np.broadcast_to(p0, (count, 4, 5)).copy()
    target = p0.T[t]  # (count, 4): p0[:, t[i]]
    scale = np.ones(count)
    kkt = np.zeros((count, 5, 5))
    kkt[:, :4, 4] = kkt[:, 4, :4] = 1.0
    rhs = np.zeros((count, 5, 1))
    rhs[:, 4] = 1.0
    live = np.arange(count)
    for _ in range(8):
        q = p0 + np.clip(scale[live, None, None] * e0[live], -p0, 1.0 - p0)
        # cols[i] = q[i][:, others], laid out column-major as fancy indexing
        # of a single matrix lays it out, so the BLAS calls below round alike
        colsT = q.transpose(0, 2, 1)[np.arange(len(live))[:, None], _OTHERS[t[live]]]
        cols = colsT.transpose(0, 2, 1)
        kkt[live, :4, :4] = 2.0 * colsT @ cols
        rhs[live, :4] = 2.0 * colsT @ target[live, :, None]
        w = np.linalg.solve(kkt[live], rhs[live])[:, :4]
        rebuilt = (cols @ w)[..., 0]
        dev = np.max(np.abs(rebuilt - target[live]), axis=1)
        ok = (dev <= eps) & (rebuilt.min(axis=1) >= 0.0) & (rebuilt.max(axis=1) <= 1.0)
        done = np.flatnonzero(ok)
        q[done, :, t[live[done]]] = rebuilt[done]
        out[live[done]] = q[done]
        live = live[~ok]
        if not live.size:
            break
        scale[live] *= np.minimum(0.9, eps / np.maximum(dev[~ok], 1e-300))
    return out


def generate_drift_ensemble(
    config: ConfigSet, model: DriftModel, seed: int, trials: int = 1
) -> np.ndarray:
    """Per-job matrices of ``trials`` drifting runs, shape
    ``(trials, model.n_jobs, 5, 5)``: each exactly witness-zero and within
    ``model.epsilon`` of the config's predicted matrix entrywise.

    Run ``t`` draws from ``default_rng(seed + t)`` alone, so it does not
    depend on how many runs are generated with it.  The column-mix mode
    alternates between two drawn patterns so that pooling does not average the
    drift away.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    ref = predicted_prob_matrix(config).p
    eps, n_jobs = model.epsilon, model.n_jobs
    if eps == 0.0:
        return np.broadcast_to(ref, (trials, n_jobs, 5, 5)).copy()
    rngs = (np.random.default_rng(seed + t) for t in range(trials))
    if model.perturbation_mode == "angle-jitter":
        delta = eps / _JITTER_LIPSCHITZ
        jit = np.stack([rng.uniform(-delta, delta, size=(n_jobs, 18)) for rng in rngs])
        rows = _jitter_rows(config, jit)
    else:
        # per run: column and perturbation of pattern a, then of pattern b
        draws = [
            (int(rng.integers(0, 5)), rng.uniform(-eps, eps, size=(4, 5)))
            for rng in rngs
            for _ in range(2)
        ]
        t = np.array([d[0] for d in draws])
        e0 = np.stack([d[1] for d in draws])
        patterns = _column_mix_patterns(ref[:4], eps, t, e0).reshape(trials, 2, 4, 5)
        rows = patterns[:, np.arange(n_jobs) % 2]
    out = np.ones((trials, n_jobs, 5, 5))
    out[..., :4, :] = rows
    return checked_probabilities(out)


# ---------------------------------------------------------------------------
# Coherent leakage (three-level model)

_S_QUBIT = np.array([[1.0, -1.0j], [-1.0j, 1.0]]) / _SQRT2


def _leaky_gate(gamma: float, chi: float) -> np.ndarray:
    """Qutrit unitary of one phased sqrt(NOT) with coherent leak ``chi``.

    The qubit block is Z_gamma^dag S Z_gamma; it is followed by a rotation by
    ``chi`` in the |1>-|2> plane whose axis phase tracks the gate phase, so
    the leak is coherent and parameter-dependent (detectable), not a fixed
    incoherent loss (invisible).
    """
    z = np.diag([np.exp(-0.5j * gamma), np.exp(0.5j * gamma)])
    u = np.eye(3, dtype=complex)
    u[:2, :2] = z.conj().T @ _S_QUBIT @ z
    if chi == 0.0:
        return u
    c, s = math.cos(0.5 * chi), math.sin(0.5 * chi)
    leak = np.eye(3, dtype=complex)
    leak[1:, 1:] = [
        [c, -1.0j * np.exp(-1.0j * gamma) * s],
        [-1.0j * np.exp(1.0j * gamma) * s, c],
    ]
    return leak @ u


def coherent_leak_prob_matrix(
    config: ConfigSet, params: CoherentLeakParams
) -> ProbMatrix:
    """Outcome probabilities |<0| U_theta U_phi U_beta U_alpha |0>|^2 with
    every gate embedded as the leaky qutrit unitary above."""
    chi = params.leak_angle
    ket0 = np.zeros(3, dtype=complex)
    ket0[0] = 1.0
    preps = [
        _leaky_gate(b, chi) @ _leaky_gate(a, chi) @ ket0
        for a, b in config.preparations
    ]
    bras = [
        ket0 @ _leaky_gate(t, chi) @ _leaky_gate(f, chi)
        for t, f in config.measurements
    ]
    rows = np.empty((4, 5))
    for k, bra in enumerate(bras):
        for j, psi in enumerate(preps):
            rows[k, j] = abs(bra @ psi) ** 2
    return ProbMatrix.from_rows(rows)
