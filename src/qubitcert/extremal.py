"""Maximization of the determinant witness over d-dimensional strategies.

The witness is linear in each probability-matrix row (fixing the other rows)
and in each column, so for a fixed set of preparations the optimal k-th effect
maximizes ``tr(G_k M)`` with ``G_k = sum_j C_kj |psi_j><psi_j|`` built from the
current cofactors ``C`` — the maximizer over ``0 <= M <= 1`` is the projector
onto the positive eigenspace of ``G_k``.  Likewise the optimal j-th
preparation is the top eigenvector of ``H_j = sum_k C_kj M_k``.  Alternating
these closed-form updates is a monotone coordinate ascent on det p ("see-saw")
that converges to a stationary point in a few dozen sweeps; random restarts
handle the nonconvexity, and the best point is polished by a Nelder-Mead pass
over an unconstrained chart (hyperspherical angles for unit vectors, a
squashed-eigenvalue map for effects).

All restarts ascend as one batch: stacked ``(R, 5, d)`` states,
``(R, 4, d, d)`` effects and ``(R, 5, 5)`` probability matrices, with batched
adjugates and eigendecompositions.  Restart r starts from its own generator, spawned as
(seed, r).  A sweep updates only the restarts still active; a restart freezes
once its sweep-to-sweep change in W falls below 1e-14 (converged) or at the
sweep cap.  Every per-restart operation acts on one slice at a time, so a
restart ends at the same bits whatever the batch size.  The winner is the
first restart, in index order, to beat the best so far by more than 1e-15, so
ties go to the lowest index; only the winner is polished.

Known targets reproduced by the search: 0 in d=2 (identically), 27*sqrt(2)/64
in d=3 over the reals, about 0.6319 in d=3 over the complex field, and
2^12/3^7 in d=4 (both fields; the maximizer needs a rank-2 projector, which is
why effect updates keep the full positive eigenspace instead of forcing
rank 1).  Deterministic 0/1 strategies reach |W| = 3, verified exactly by
:func:`classical_max_detail` via exhaustive integer enumeration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

import numpy as np
from scipy.optimize import minimize

from .configs import ConfigSet
from .witness import ProbMatrix, adjugate

__all__ = [
    "ExtremalProblem",
    "StrategyPoint",
    "SearchResult",
    "DEFAULT_RESTARTS",
    "strategy_prob_matrix",
    "maximize_witness",
    "classical_max_detail",
    "search_result_to_dict",
    "save_search_result",
]

_ATOL = 1e-10

#: Restart budgets the CLI uses when none are given.
DEFAULT_RESTARTS = {2: 50, 3: 200, 4: 500}


@dataclass(frozen=True)
class ExtremalProblem:
    d: int
    field: str = "complex"
    effect_class: str = "projective"

    def __post_init__(self) -> None:
        if self.d not in (2, 3, 4):
            raise ValueError(f"d must be 2, 3 or 4, got {self.d}")
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")
        if self.effect_class not in ("projective", "general"):
            raise ValueError(
                f"effect_class must be 'projective' or 'general', got {self.effect_class!r}"
            )


@dataclass(frozen=True)
class StrategyPoint:
    """Five pure preparations (rows of ``preparations``) and four effects."""

    preparations: np.ndarray  # (5, d)
    effects: np.ndarray  # (4, d, d)

    def __post_init__(self) -> None:
        psi = np.asarray(self.preparations, dtype=complex)
        eff = np.asarray(self.effects, dtype=complex)
        if psi.ndim != 2 or psi.shape[0] != 5:
            raise ValueError(f"preparations must be 5 x d, got {psi.shape}")
        d = psi.shape[1]
        if eff.shape != (4, d, d):
            raise ValueError(f"effects must be 4 x {d} x {d}, got {eff.shape}")
        norms = np.linalg.norm(psi, axis=1)
        if np.any(np.abs(norms - 1.0) > _ATOL):
            raise ValueError(f"preparations must be unit vectors, norms {norms}")
        if np.max(np.abs(eff - eff.conj().transpose(0, 2, 1))) > _ATOL:
            raise ValueError("effects must be Hermitian")
        eigs = np.linalg.eigvalsh(eff)
        if eigs.min() < -_ATOL or eigs.max() > 1.0 + _ATOL:
            raise ValueError(f"effect spectra must lie in [0, 1], got {eigs}")
        psi.flags.writeable = False
        eff.flags.writeable = False
        object.__setattr__(self, "preparations", psi)
        object.__setattr__(self, "effects", eff)

    @property
    def d(self) -> int:
        return self.preparations.shape[1]


@dataclass(frozen=True)
class SearchResult:
    """Best point of a search, plus its restart landscape when the search
    recorded one: per restart, the final see-saw W, the sweeps it ran and
    whether it converged (arrays in restart order)."""

    best_W: float
    best_point: StrategyPoint
    restarts: int
    converged: bool
    restart_W: np.ndarray | None = None
    restart_sweeps: np.ndarray | None = None
    restart_converged: np.ndarray | None = None

    def __post_init__(self) -> None:
        if abs(self.best_W) > 3.0 + 1e-9:
            raise ValueError(
                f"witness {self.best_W} exceeds the theoretical ceiling 3"
            )


def strategy_prob_matrix(point: StrategyPoint) -> ProbMatrix:
    """p[k, j] = <psi_j| M_k |psi_j>, with the ones row appended."""
    rows = np.einsum(
        "jd,kde,je->kj", point.preparations.conj(), point.effects, point.preparations
    ).real
    return ProbMatrix.from_rows(np.clip(rows, 0.0, 1.0))


# ---------------------------------------------------------------------------
# See-saw coordinate ascent


def _random_point(problem: ExtremalProblem, rng) -> tuple[np.ndarray, np.ndarray]:
    d = problem.d
    cplx = problem.field == "complex"

    def rvec(shape):
        v = rng.standard_normal(shape)
        return v + 1j * rng.standard_normal(shape) if cplx else v + 0j

    psi = rvec((5, d))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    effects = np.empty((4, d, d), dtype=complex)
    for k in range(4):
        if problem.effect_class == "projective":
            # Rank-1 starts work markedly better than random-rank projectors;
            # the updates grow the rank where the ascent wants it.
            v = rvec(d)
            v /= np.linalg.norm(v)
            effects[k] = np.outer(v, v.conj())
        else:
            h = rvec((d, d))
            h = h + h.conj().T
            lam, v = np.linalg.eigh(h)
            effects[k] = (v * rng.uniform(0.0, 1.0, d)) @ v.conj().T
    return psi, effects


def _rows_from(psi: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """p[..., k, j] = <psi_j| M_k |psi_j> over stacked states and effects."""
    return np.einsum("...jd,...kde,...je->...kj", psi.conj(), effects, psi).real


def _herm(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _seesaw(
    problem: ExtremalProblem, seed: int, restarts: int, sweeps: int, tol: float
):
    """All restarts of the alternating closed-form ascent, run as one batch.

    Restart r starts from its own generator, spawned as (seed, r).  Each sweep
    updates only the restarts still active; a restart freezes once its
    sweep-to-sweep change falls below ``tol`` (converged) or at the sweep cap.
    Returns the stacked (psi, effects) and, per restart, the final W, the
    number of sweeps run and the converged flag.
    """
    rngs = [
        np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(r,)))
        for r in range(restarts)
    ]
    starts = [_random_point(problem, rng) for rng in rngs]
    psi = np.stack([s[0] for s in starts])  # (R, 5, d)
    effects = np.stack([s[1] for s in starts])  # (R, 4, d, d)
    d = problem.d
    p = np.ones((restarts, 5, 5))
    p[:, :4] = _rows_from(psi, effects)
    w = np.linalg.det(p)
    n_sweeps = np.zeros(restarts, dtype=np.int64)
    converged = np.zeros(restarts, dtype=bool)
    active = np.arange(restarts)
    for _ in range(sweeps):
        if active.size == 0:
            break
        ps, ef, pp = psi[active], effects[active], p[active]
        for k in range(4):
            adj = adjugate(pp)  # adj[:, j, k] = d det / d p[:, k, j]
            # G = sum_j C_kj |psi_j><psi_j| so that tr(M G) = sum_j C_kj p_kj.
            g = _herm(np.einsum("rj,rjd,rje->rde", adj[:, :, k], ps, ps.conj()))
            lam, v = np.linalg.eigh(g)
            # Project onto the positive eigenspace, the last `rank` columns of
            # v.  Multiplying only those columns, grouped by rank, rounds
            # exactly as a one-restart update would; a product over all d
            # columns with the rest zeroed does not, in complex arithmetic.
            rank = np.count_nonzero(lam > 0.0, axis=1)
            for m in np.unique(rank):
                sel = rank == m
                keep = v[sel, :, d - m :]
                ef[sel, k] = keep @ keep.conj().swapaxes(1, 2)
            pp[:, k] = _rows_from(ps, ef[:, k : k + 1])[:, 0]
        for j in range(5):
            adj = adjugate(pp)
            h = _herm(np.einsum("rk,rkde->rde", adj[:, j, :4], ef))
            lam, v = np.linalg.eigh(h)
            ps[:, j] = v[:, :, -1]
            pp[:, :4, j] = _rows_from(ps[:, j : j + 1], ef)[:, :, 0]
        w_new = np.linalg.det(pp)
        done = np.abs(w_new - w[active]) < tol
        psi[active], effects[active], p[active], w[active] = ps, ef, pp, w_new
        n_sweeps[active] += 1
        converged[active[done]] = True
        active = active[~done]
    return psi, effects, w, n_sweeps, converged


# ---------------------------------------------------------------------------
# Unconstrained charts for the polish


def _sphere_from_angles(phi: np.ndarray) -> np.ndarray:
    n = phi.size + 1
    x = np.empty(n)
    r = 1.0
    for i in range(n - 1):
        x[i] = r * math.cos(phi[i])
        r *= math.sin(phi[i])
    x[n - 1] = r
    return x


def _angles_from_sphere(x: np.ndarray) -> np.ndarray:
    n = x.size
    phi = np.empty(n - 1)
    for i in range(n - 2):
        phi[i] = math.atan2(float(np.linalg.norm(x[i + 1 :])), float(x[i]))
    phi[n - 2] = math.atan2(float(x[n - 1]), float(x[n - 2]))
    return phi


def _pack_hermitian(h: np.ndarray, cplx: bool) -> np.ndarray:
    d = h.shape[0]
    iu = np.triu_indices(d, k=1)
    parts = [np.diag(h).real, h[iu].real]
    if cplx:
        parts.append(h[iu].imag)
    return np.concatenate(parts)


def _unpack_hermitian(v: np.ndarray, d: int, cplx: bool) -> np.ndarray:
    iu = np.triu_indices(d, k=1)
    noff = iu[0].size
    h = np.zeros((d, d), dtype=complex)
    h[np.diag_indices(d)] = v[:d]
    off = v[d : d + noff].astype(complex)
    if cplx:
        off = off + 1j * v[d + noff : d + 2 * noff]
    h[iu] = off
    return h + np.triu(h, k=1).conj().T


def _encode(psi: np.ndarray, effects: np.ndarray, cplx: bool) -> np.ndarray:
    parts = []
    for j in range(5):
        x = (
            np.concatenate([psi[j].real, psi[j].imag])
            if cplx
            else psi[j].real.copy()
        )
        x /= np.linalg.norm(x)
        parts.append(_angles_from_sphere(x))
    for k in range(4):
        lam, v = np.linalg.eigh(effects[k])
        mu = np.arcsin(np.sqrt(np.clip(lam, 0.0, 1.0)))
        parts.append(_pack_hermitian((v * mu) @ v.conj().T, cplx))
    return np.concatenate(parts)


def _decode(params: np.ndarray, d: int, cplx: bool) -> tuple[np.ndarray, np.ndarray]:
    nvec = 2 * d if cplx else d
    nh = d * d if cplx else d * (d + 1) // 2
    psi = np.empty((5, d), dtype=complex)
    pos = 0
    for j in range(5):
        x = _sphere_from_angles(params[pos : pos + nvec - 1])
        psi[j] = x[:d] + 1j * x[d:] if cplx else x
        pos += nvec - 1
    effects = np.empty((4, d, d), dtype=complex)
    for k in range(4):
        h = _unpack_hermitian(params[pos : pos + nh], d, cplx)
        lam, v = np.linalg.eigh(h)
        effects[k] = (v * np.sin(lam) ** 2) @ v.conj().T
        pos += nh
    return psi, effects


def _polish(psi, effects, problem: ExtremalProblem, maxiter: int):
    cplx = problem.field == "complex"
    x0 = _encode(psi, effects, cplx)

    def neg_w(params):
        ps, ef = _decode(params, problem.d, cplx)
        p = np.vstack([_rows_from(ps, ef), np.ones(5)])
        return -np.linalg.det(p)

    res = minimize(
        neg_w,
        x0,
        method="Nelder-Mead",
        options={
            "xatol": 1e-10,
            "fatol": 1e-12,
            "maxiter": maxiter,
            "maxfev": maxiter,
            "initial_simplex": x0 + 1e-4 * np.vstack([np.zeros_like(x0), np.eye(x0.size)]),
        },
    )
    ps, ef = _decode(res.x, problem.d, cplx)
    return ps, ef, -float(res.fun)


def maximize_witness(
    problem: ExtremalProblem,
    restarts: int,
    seed: int = 0,
    sweeps: int = 500,
    polish_iters: int = 10**4,
) -> SearchResult:
    """Random-restart see-saw ascent, with a Nelder-Mead polish of the best
    restart over the unconstrained chart.

    Restarts draw independent starting points from generators spawned as
    (seed, restart index) and ascend as one batch, so each restart's result
    does not depend on how many others run beside it; ties break toward the
    lowest restart index.  ``converged`` reports whether the winning
    restart's sweep-to-sweep improvement fell below 1e-14 within the sweep
    budget.  The result also carries every restart's final W, sweep count and
    converged flag.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    psis, effs, ws, n_sweeps, convs = _seesaw(problem, seed, restarts, sweeps, tol=1e-14)
    win = 0
    for r in range(1, restarts):
        if ws[r] > ws[win] + 1e-15:
            win = r
    psi, effects, w, conv = psis[win], effs[win], float(ws[win]), convs[win]
    if problem.field == "real":
        psi = psi.real + 0j
        psi /= np.linalg.norm(psi, axis=1, keepdims=True)
        effects = effects.real + 0j
    if polish_iters > 0:
        ps, ef, w_pol = _polish(psi, effects, problem, polish_iters)
        if w_pol > w:
            psi, effects, w = ps, ef, w_pol
    # Clean tiny numerical excursions before constructing the typed point.
    psi = psi / np.linalg.norm(psi, axis=1, keepdims=True)
    effects = _herm(effects)
    point = StrategyPoint(psi, effects)
    return SearchResult(
        best_W=float(w),
        best_point=point,
        restarts=restarts,
        converged=bool(conv),
        restart_W=ws,
        restart_sweeps=n_sweeps,
        restart_converged=convs,
    )


# ---------------------------------------------------------------------------
# Exact classical maximum


def _det4_table() -> np.ndarray:
    """det of every 4x4 0/1 matrix, indexed by its 16-bit row-major mask."""
    masks = np.arange(1 << 16, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(16)) & 1).astype(np.int64)
    dets = np.zeros(1 << 16, dtype=np.int64)
    for perm in permutations(range(4)):
        sign = int(np.sign(np.prod([perm[b] - perm[a] for a in range(4) for b in range(a + 1, 4)])))
        cells = [4 * r + perm[r] for r in range(4)]
        dets += sign * bits[:, cells].prod(axis=1)
    return dets


def classical_max_detail() -> tuple[int, int, np.ndarray]:
    """(max |W|, number of optimal assignments, one optimal matrix) over all
    2^20 deterministic 0/1 strategies, in exact integer arithmetic.

    The determinant is expanded along the ones row: W = sum_j (-1)^j minor_j,
    with each 4x4 minor looked up by its bit mask.
    """
    det4 = _det4_table()
    masks = np.arange(1 << 20, dtype=np.int64)
    total = np.zeros(1 << 20, dtype=np.int64)
    for j in range(5):
        cols = [c for c in range(5) if c != j]
        positions = [5 * r + c for r in range(4) for c in cols]
        sub = np.zeros(1 << 20, dtype=np.int64)
        for t, pos in enumerate(positions):
            sub |= ((masks >> pos) & 1) << t
        total += (1 if j % 2 == 0 else -1) * det4[sub]
    absw = np.abs(total)
    best = int(absw.max())
    count = int((absw == best).sum())
    winner = int(np.argmax(absw == best))
    rows = ((winner >> np.arange(20)) & 1).astype(np.int64).reshape(4, 5)
    example = np.vstack([rows, np.ones(5, dtype=np.int64)])
    return best, count, example


# ---------------------------------------------------------------------------
# Export


_PAULI = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)


def _angles_from_bloch_prep(n: np.ndarray) -> tuple[float, float]:
    delta = math.acos(min(1.0, max(-1.0, -float(n[2]))))
    beta = math.atan2(-float(n[1]), float(n[0])) if math.sin(delta) > 1e-9 else 0.0
    return beta - delta, beta


def _angles_from_bloch_meas(m: np.ndarray) -> tuple[float, float]:
    delta = math.acos(min(1.0, max(-1.0, -float(m[2]))))
    phi = math.atan2(-float(m[1]), float(m[0])) if math.sin(delta) > 1e-9 else 0.0
    return phi + delta, phi


def _config_from_point(point: StrategyPoint) -> ConfigSet | None:
    """Angle configuration reproducing a d=2 point, when the effects are
    rank-1 projectors; None otherwise."""
    if point.d != 2:
        return None
    eigs = np.linalg.eigvalsh(point.effects)
    if np.max(np.abs(np.sort(eigs, axis=1) - np.array([0.0, 1.0]))) > 1e-8:
        return None
    preps = []
    for psi in point.preparations:
        n = np.einsum("a,cab,b->c", psi.conj(), _PAULI, psi).real
        preps.append(_angles_from_bloch_prep(n))
    meas = []
    for eff in point.effects:
        m = np.einsum("cab,ba->c", _PAULI, eff).real
        meas.append(_angles_from_bloch_meas(m))
    try:
        return ConfigSet("search-result", tuple(preps), tuple(meas))
    except ValueError:
        return None  # coinciding preparations: valid point, not a usable config


def search_result_to_dict(result: SearchResult, problem: ExtremalProblem) -> dict:
    point = result.best_point
    prob = strategy_prob_matrix(point)
    config = _config_from_point(point)
    out = {
        "problem": {
            "d": problem.d,
            "field": problem.field,
            "effect_class": problem.effect_class,
        },
        "best_W": result.best_W,
        "restarts": result.restarts,
        "converged": result.converged,
        "preparations": [
            [[float(z.real), float(z.imag)] for z in row] for row in point.preparations
        ],
        "effects": [
            [[[float(z.real), float(z.imag)] for z in row] for row in eff]
            for eff in point.effects
        ],
        "prob_matrix": prob.p.tolist(),
        "config": None,
        "landscape": None,
    }
    if result.restart_W is not None:
        out["landscape"] = {
            "W": result.restart_W.tolist(),
            "sweeps": result.restart_sweeps.tolist(),
            "converged": result.restart_converged.tolist(),
        }
    if config is not None:
        from .configs import config_to_dict

        out["config"] = config_to_dict(config)
    return out


def save_search_result(
    result: SearchResult, problem: ExtremalProblem, path: str | Path
) -> None:
    Path(path).write_text(
        json.dumps(search_result_to_dict(result, problem), indent=2) + "\n"
    )
