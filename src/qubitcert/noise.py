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

Drift run ``t`` draws the stream of ``default_rng(seed + t)``.  A block of
runs is seeded in one batched pass (:mod:`~qubitcert.seeding`), and each run
draws its stream once for every mode asked for: word 0 raw, then unit doubles
straight into the block's array.  Column-mix takes its two column picks from
word 0's low and high 32-bit halves, as ``Generator.integers(0, 5)`` does
(Lemire's ``(half * 5) >> 32``), then a copy of words 1-40 as its two
patterns' unit doubles.  Angle jitter takes word 0 as numpy's unit double
``(w >> 11) * 2**-53`` and maps the block in place to its range, as
``Generator.uniform`` maps them.  A zero half would make numpy draw again and
shift the stream; such a run (odds 2^-31) is replayed on its own
``default_rng``.  :func:`audit_drift` pools its runs block by block, so every
mode of an audit reads one draw, and nothing drawn is kept between calls.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bloch import meas_bloch_vectors, prep_bloch_vectors
from .configs import ConfigSet, predicted_prob_matrix
from .seeding import generators, integer_arg, offset_seed_words, real_arg
from .witness import prob_matrix

__all__ = [
    "AUDIT_BLOCK_MEMBERS",
    "DriftModel",
    "apply_common_leakage",
    "apply_readout_error",
    "generate_drift_ensemble",
    "audit_drift",
    "drift_bound",
    "coherent_leak_prob_matrix",
]

_SQRT2 = math.sqrt(2.0)

# An angle jitter of delta moves any predicted probability by at most
# (1 + sqrt(2)) * delta: the Bloch vectors are 1-Lipschitz in the first gate
# angle and sqrt(2)-Lipschitz in the second, and |dp| <= (|dm| + |dn|)/2.
_JITTER_LIPSCHITZ = 1.0 + _SQRT2

#: an audit runs its trials in blocks of about this many ensemble members
#: (1024 trials at 10 jobs), so its memory does not grow with the trial count
AUDIT_BLOCK_MEMBERS = 10_240


def _check_drift(epsilon: float, n_jobs: int = 1, modes=()) -> tuple[float, int]:
    """Reject a drift budget, job count or mode of no drifting run; return
    ``epsilon`` and ``n_jobs`` as a Python float and int."""
    if (epsilon := real_arg("epsilon", epsilon)) < 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    n_jobs = integer_arg("n_jobs", n_jobs, 1)
    for mode in modes:
        if mode not in ("angle-jitter", "column-mix"):
            raise ValueError(
                f"perturbation_mode must be 'angle-jitter' or 'column-mix', got {mode!r}"
            )
    return epsilon, n_jobs


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
        checked = _check_drift(self.epsilon, self.n_jobs, (self.perturbation_mode,))
        for field, value in zip(("epsilon", "n_jobs"), checked):
            object.__setattr__(self, field, value)


def apply_common_leakage(p: np.ndarray, lambda_prep: float, mu_meas: float) -> np.ndarray:
    """Common incoherent leakage: weight ``lambda_prep`` moved from every
    preparation to one external state, to which every effect responds with
    probability ``mu_meas``; p'_{kj} = (1 - lambda) p_{kj} + lambda * mu on the
    measured rows.

    This is the probability-level action of normalized leaky preparations
    N' = (1-lambda) N + lambda |e><e| against effects with <e|M'|e> = mu.
    Scales any witness by (1 - lambda)^4; a zero witness stays zero.
    """
    lambda_prep, mu_meas = real_arg("lambda_prep", lambda_prep), real_arg("mu_meas", mu_meas)
    if not 0.0 <= lambda_prep < 1.0:
        raise ValueError(f"lambda_prep must be in [0, 1), got {lambda_prep}")
    if not 0.0 <= mu_meas <= 1.0:
        raise ValueError(f"mu_meas must be in [0, 1], got {mu_meas}")
    return prob_matrix((1.0 - lambda_prep) * p[:4] + lambda_prep * mu_meas)


def apply_readout_error(p: np.ndarray, e0: float, e1: float) -> np.ndarray:
    """Uniform assignment errors: 0 read as 1 with ``e0``, 1 read as 0 with
    ``e1``; p' = e0 + (1 - e0 - e1) p.  Scales the witness by (1-e0-e1)^4."""
    e0, e1 = real_arg("e0", e0), real_arg("e1", e1)
    if not (0.0 <= e0 < 1.0 and 0.0 <= e1 < 1.0 and e0 + e1 < 1.0):
        raise ValueError(f"need e0, e1 in [0, 1) with e0 + e1 < 1, got {e0}, {e1}")
    return prob_matrix(e0 + (1.0 - e0 - e1) * p[:4])


def drift_bound(epsilon: float) -> float:
    """Upper bound 80*sqrt(2)*eps^2 on the pooled witness of any mixture of
    witness-zero matrices within ``epsilon`` of a common reference."""
    epsilon = _check_drift(epsilon)[0]
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


@functools.lru_cache(maxsize=1)
def _reference_rows(config: ConfigSet) -> np.ndarray:
    """The config's predicted measured rows, (4, 5), read-only.  One config
    is kept: an audit asks for the same one once per block."""
    return predicted_prob_matrix(config)[:4]


def _unit(words: np.ndarray) -> np.ndarray:
    """numpy's unit double of each raw PCG64 word: ``(w >> 11) * 2**-53``."""
    return (words >> 11) * 2.0**-53


def _picks(halves: np.ndarray) -> np.ndarray:
    """``Generator.integers(0, 5)`` of each nonzero 32-bit draw: Lemire's
    ``(half * 5) >> 32``.  numpy draws again only when ``half * 5`` has a zero
    low word, which for five choices means a zero half."""
    return ((halves * 5) >> 32).astype(np.intp)


def _uniform(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Map unit draws ``u`` in place to ``Generator.uniform(lo, hi)``'s
    values: ``lo + (hi - lo) * u``, the same float operations in the same
    order, so the bits agree."""
    u *= hi - lo
    u += lo
    return u


def _drift_block(
    config: ConfigSet, eps: float, n_jobs: int, modes, seed: int, trials: int
) -> list[np.ndarray]:
    """Each mode's ensembles, ``(trials, n_jobs, 5, 5)``, of drifting runs
    ``seed`` to ``seed + trials - 1``.  Every run's stream is drawn once, into
    one array that every mode reads."""
    ref = _reference_rows(config)
    if eps == 0.0:
        return [prob_matrix(np.broadcast_to(ref, (trials, n_jobs, 4, 5)))] * len(modes)
    # word 0, then 18 words per job for angle jitter and 40 for column-mix
    jitter, mix = "angle-jitter" in modes, "column-mix" in modes
    width = max(18 * n_jobs if jitter else 0, 41 if mix else 0)
    u = np.empty((trials, width))
    word0 = np.empty(trials, dtype=np.uint64)
    for run, rng in enumerate(generators(offset_seed_words(seed, trials))):
        word0[run] = rng.bit_generator.random_raw()
        rng.random(out=u[run, 1:])
    rows = {}
    if mix:
        # per run: column and perturbation of pattern a, then of pattern b;
        # the perturbations are a copy, taken before angle jitter maps ``u``
        halves = np.stack([word0 & 0xFFFFFFFF, word0 >> 32], axis=1).reshape(-1)
        t = _picks(halves)
        e0 = u[:, 1:41].copy().reshape(2 * trials, 4, 5)
        for i in np.flatnonzero(halves.reshape(trials, 2).min(axis=1) == 0).tolist():
            # a zero half shifts the stream: replay the Generator's own calls
            rng = np.random.default_rng(seed + i)
            for k in (2 * i, 2 * i + 1):
                t[k] = rng.integers(0, 5)
                rng.random(out=e0[k])
        patterns = _column_mix_patterns(ref, eps, t, _uniform(e0, -eps, eps))
        rows["column-mix"] = patterns.reshape(trials, 2, 4, 5)[:, np.arange(n_jobs) % 2]
    if jitter:
        delta = eps / _JITTER_LIPSCHITZ
        u[:, 0] = _unit(word0)
        jit = u[:, : 18 * n_jobs].reshape(trials, n_jobs, 18)
        rows["angle-jitter"] = _jitter_rows(config, _uniform(jit, -delta, delta))
    return [prob_matrix(rows[mode]) for mode in modes]


def generate_drift_ensemble(config: ConfigSet, model: DriftModel, seed: int) -> np.ndarray:
    """Per-job matrices of one drifting run, shape ``(model.n_jobs, 5, 5)``:
    each exactly witness-zero and within ``model.epsilon`` of the config's
    predicted matrix entrywise.

    The run draws the stream of ``default_rng(seed)``.  The column-mix mode
    alternates between two drawn patterns so that pooling does not average the
    drift away.
    """
    modes, seed = (model.perturbation_mode,), integer_arg("seed", seed, 0)
    return _drift_block(config, model.epsilon, model.n_jobs, modes, seed, 1)[0][0]


def audit_drift(
    config: ConfigSet, epsilon: float, n_jobs: int, modes, seed: int, trials: int
) -> list[float]:
    """The largest pooled |W|, the |det| of a run's mean matrix, of each mode
    in ``modes`` in turn, over ``generate_drift_ensemble``'s runs of seeds
    ``seed`` to ``seed + trials - 1``.  The inputs are checked before any
    draw; the runs go in blocks of about :data:`AUDIT_BLOCK_MEMBERS` ensemble
    members, and every mode reads one draw of each block."""
    if isinstance(modes, str):
        raise ValueError(f"modes must be a sequence of mode names, got the string {modes!r}")
    if not modes:
        raise ValueError("modes must name at least one drift mode")
    epsilon, n_jobs = _check_drift(epsilon, n_jobs, modes)
    seed, trials = integer_arg("seed", seed, 0), integer_arg("trials", trials, 1)
    worst = [0.0] * len(modes)
    block = max(1, AUDIT_BLOCK_MEMBERS // n_jobs)
    for start in range(0, trials, block):
        count = min(block, trials - start)
        ensembles = _drift_block(config, epsilon, n_jobs, modes, seed + start, count)
        for i, ens in enumerate(ensembles):
            worst[i] = max(worst[i], float(np.abs(np.linalg.det(ens.mean(axis=1))).max()))
    return worst


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
    c, s = math.cos(0.5 * chi), math.sin(0.5 * chi)
    leak = np.eye(3, dtype=complex)
    leak[1:, 1:] = [
        [c, -1.0j * np.exp(-1.0j * gamma) * s],
        [-1.0j * np.exp(1.0j * gamma) * s, c],
    ]
    return leak @ u


def coherent_leak_prob_matrix(config: ConfigSet, leak_angle: float) -> np.ndarray:
    """Outcome probabilities |<0| U_theta U_phi U_beta U_alpha |0>|^2 with
    every gate embedded as the leaky qutrit unitary above, a phase-dependent
    coherent rotation by ``leak_angle`` into a third level.  ``leak_angle = 0``
    reduces exactly to the qubit model."""
    leak_angle = real_arg("leak_angle", leak_angle)
    ket0 = np.zeros(3, dtype=complex)
    ket0[0] = 1.0
    preps = [
        _leaky_gate(b, leak_angle) @ _leaky_gate(a, leak_angle) @ ket0
        for a, b in config.preparations
    ]
    bras = [
        ket0 @ _leaky_gate(t, leak_angle) @ _leaky_gate(f, leak_angle)
        for t, f in config.measurements
    ]
    rows = np.empty((4, 5))
    for k, bra in enumerate(bras):
        for j, psi in enumerate(preps):
            rows[k, j] = abs(bra @ psi) ** 2
    return prob_matrix(rows)
