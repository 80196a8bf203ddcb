"""Maximization of the determinant witness over d-dimensional strategies.

The witness is linear in each probability-matrix row (fixing the other rows)
and in each column, so for a fixed set of preparations the optimal k-th effect
maximizes ``tr(G_k M)`` with ``G_k = sum_j C_kj |psi_j><psi_j|`` built from the
current cofactors ``C`` — the maximizer over ``0 <= M <= 1`` is the projector
onto the positive eigenspace of ``G_k``.  Likewise the optimal j-th
preparation is the top eigenvector of ``H_j = sum_k C_kj M_k``.  Alternating
these closed-form updates is a monotone coordinate ascent on det p ("see-saw")
that converges to a stationary point in a few dozen sweeps; random restarts
handle the nonconvexity.  The search reports the best restart's see-saw point.

All restarts ascend as one batch: stacked ``(R, 5, d)`` states,
``(R, 4, d, d)`` effects and ``(R, 5, 5)`` probability matrices, with batched
cofactors, matrix products and eigendecompositions.  Each update computes only
the cofactors it reads, column k of the adjugate (5 minors) for effect k and
the first four entries of row j (4 minors) for preparation j, not the full 25;
:func:`~qubitcert.witness.adjugate` expands each minor in closed form.  A
real-field search runs in float64 throughout, a complex one in complex128.
Restart r's start is one draw of normals from its own generator, spawned as
(seed, r) and seeded with the others in one batched pass
(:mod:`~qubitcert.seeding`), and every start is normalised in one batch.  A
sweep updates only the restarts still active; a restart freezes once its
sweep-to-sweep change in W falls below 1e-14 (converged) or at the sweep cap,
and the active state is compacted only on a sweep where some restart
freezes.  Every per-restart operation acts on one slice at a time, so a
restart ends at the same bits whatever the batch size.  The winner is the
restart with the largest W, the lowest index on an exact tie.

Known targets reproduced by the search: 0 in d=2 (identically), 27*sqrt(2)/64
in d=3 over the reals, about 0.6319 in d=3 over the complex field, and
2^12/3^7 in d=4 (both fields; the maximizer needs a rank-2 projector, which is
why effect updates keep the full positive eigenspace instead of forcing
rank 1).  Deterministic 0/1 strategies reach |W| = 3, which
``tests/classical_reference.py`` verifies by exhaustive integer enumeration.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .seeding import generators, integer_arg, spawned_seed_words
from .witness import W_CEILING, adjugate, prob_matrix

__all__ = [
    "StrategyPoint",
    "SearchResult",
    "DEFAULT_RESTARTS",
    "MAX_RESTARTS",
    "KNOWN_MAXIMA",
    "strategy_prob_matrix",
    "maximize_witness",
    "search_result_to_dict",
    "save_search_result",
]

_ATOL = 1e-10

#: See-saw sweep cap per restart, and the sweep-to-sweep change in W below
#: which a restart counts as converged.
_SWEEPS = 500
_TOL = 1e-14

#: Restart budgets the CLI uses when none are given.
DEFAULT_RESTARTS = {2: 50, 3: 200, 4: 500}

#: Largest restart budget one search accepts.  Every restart ascends at once,
#: 10-14 KB each at peak on d=4 complex, so this caps a search near 1 GB.
MAX_RESTARTS = 10**5

#: Known maximum of |W| per (d, field): a printable label and the value, None
#: where no closed form is known.
KNOWN_MAXIMA = {
    (2, "real"): ("0 (witness vanishes identically for qubits)", 0.0),
    (2, "complex"): ("0 (witness vanishes identically for qubits)", 0.0),
    (3, "real"): ("27*sqrt(2)/64 = 0.5966213...", 27.0 * math.sqrt(2.0) / 64.0),
    (3, "complex"): ("~0.632 (numerical, no known closed form)", None),
    (4, "real"): ("2^12/3^7 = 1.8728852...", 2.0**12 / 3.0**7),
    (4, "complex"): ("2^12/3^7 = 1.8728852...", 2.0**12 / 3.0**7),
}


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
    """Best point of a search over ``field`` ("real" or "complex"), plus its
    restart landscape: per restart, the final see-saw W, the sweeps it ran and
    whether it converged (arrays in restart order).  ``best_point`` is the
    point of the restart with the largest W, the lowest index on a tie."""

    best_point: StrategyPoint
    field: str
    restart_W: np.ndarray
    restart_sweeps: np.ndarray
    restart_converged: np.ndarray

    def __post_init__(self) -> None:
        if abs(self.best_W) > W_CEILING + 1e-9:
            raise ValueError(
                f"witness {self.best_W} exceeds the theoretical ceiling {W_CEILING:g}"
            )

    @property
    def best_W(self) -> float:
        return float(self.restart_W.max())

    @property
    def restarts(self) -> int:
        return len(self.restart_W)

    @property
    def converged(self) -> bool:
        """Whether the winning restart converged."""
        return bool(self.restart_converged[np.argmax(self.restart_W)])


def strategy_prob_matrix(point: StrategyPoint) -> np.ndarray:
    """p[k, j] = <psi_j| M_k |psi_j>, with the ones row appended."""
    rows = _rows_from(point.preparations, point.effects)
    return prob_matrix(np.clip(rows, 0.0, 1.0))


# ---------------------------------------------------------------------------
# See-saw coordinate ascent


def _starts(d: int, field: str, seed: int, restarts: int) -> tuple[np.ndarray, np.ndarray]:
    """Every restart's random start, stacked: ``(R, 5, d)`` unit states and
    ``(R, 4, d, d)`` rank-1 projectors, float64 over the reals and complex128
    otherwise.  Restart r's normals are one draw from the generator spawned as
    (seed, r): the states' real parts then imaginary parts, then each
    projector's vector likewise.  Rank-1 starts work markedly better than
    random-rank projectors; the updates grow the rank where the ascent wants
    it."""
    parts = 2 if field == "complex" else 1
    z = np.empty((restarts, 9 * parts, d))
    for r, rng in enumerate(generators(spawned_seed_words(seed, restarts))):
        rng.standard_normal(out=z[r])
    if field == "complex":
        v = z[:, 10:].reshape(restarts, 4, 2, d)
        z = np.concatenate([z[:, :5] + 1j * z[:, 5:10], v[:, :, 0] + 1j * v[:, :, 1]], axis=1)
    z /= np.linalg.norm(z, axis=-1, keepdims=True)
    v = z[:, 5:]
    return z[:, :5], v[..., :, None] * v.conj()[..., None, :]


def _rows_from(psi: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """p[..., k, j] = <psi_j| M_k |psi_j> over stacked states and effects."""
    return np.einsum("...jd,...kde,...je->...kj", psi.conj(), effects, psi).real


def _seesaw(d: int, field: str, seed: int, restarts: int, sweeps: int):
    """All restarts of the alternating closed-form ascent, run as one batch.

    Each sweep updates only the restarts still active; a restart freezes once
    its sweep-to-sweep change falls below ``_TOL`` (converged) or after
    ``sweeps``, and only then is it written out and dropped from the batch.
    Returns the stacked (psi, effects) and, per restart, the final W, the
    number of sweeps run and the converged flag.
    """
    ps, ef = _starts(d, field, seed, restarts)
    pp = np.ones((restarts, 5, 5))
    pp[:, :4] = _rows_from(ps, ef)
    w = np.linalg.det(pp)
    psi, effects, w_out = np.empty_like(ps), np.empty_like(ef), np.empty_like(w)
    n_sweeps = np.empty(restarts, dtype=np.int64)
    converged = np.zeros(restarts, dtype=bool)
    active = np.arange(restarts)
    for n in range(1, sweeps + 1):
        ps_bar = ps.conj()
        for k in range(4):
            # c[:, j] = (Adj p)[:, j, k] = d det / d p[:, k, j]: 5 of the 25
            # cofactors.  G = sum_j C_kj |psi_j><psi_j| so that
            # tr(M G) = sum_j C_kj p_kj.
            c = adjugate(pp, (slice(None), k))
            g = (ps * c[:, :, None]).swapaxes(1, 2) @ ps_bar
            lam, v = np.linalg.eigh(g)
            # Project onto the positive eigenspace: zero the other columns of v.
            keep = v * (lam > 0.0)[:, None, :]
            ef[:, k] = keep @ v.conj().swapaxes(1, 2)
            pp[:, k] = ((ps_bar @ ef[:, k]) * ps).sum(-1).real
        for j in range(5):
            c = adjugate(pp, (j, slice(0, 4)))  # (Adj p)[:, j, :4]
            h = np.einsum("rk,rkde->rde", c, ef)
            lam, v = np.linalg.eigh(h)
            ps[:, j] = v[:, :, -1]
            # one state against four effects: einsum beats a batched matmul here
            pp[:, :4, j] = _rows_from(ps[:, j : j + 1], ef)[:, :, 0]
        w_new = np.linalg.det(pp)
        done = np.abs(w_new - w) < _TOL
        w = w_new
        finished = done | (n == sweeps)
        if finished.any():
            ids = active[finished]
            psi[ids], effects[ids], w_out[ids] = ps[finished], ef[finished], w[finished]
            n_sweeps[ids] = n
            converged[ids] = done[finished]
            if finished.all():
                break
            left = ~finished
            active, ps, ef, pp, w = active[left], ps[left], ef[left], pp[left], w[left]
    return psi, effects, w_out, n_sweeps, converged


def minimize(fun, x0, **kwargs):
    """scipy.optimize.minimize, imported on call.  Nothing in the package calls
    it; it stays only as a patch target of the benchmark tracer and goes when
    the benchmark drops that patch."""
    from scipy.optimize import minimize

    return minimize(fun, x0, **kwargs)


def maximize_witness(d: int, field: str, restarts: int, seed: int = 0) -> SearchResult:
    """Random-restart see-saw ascent over d-dimensional strategies (d = 2, 3
    or 4, ``field`` "real" or "complex", 1 to ``MAX_RESTARTS`` restarts, a
    seed >= 0; d and the counts are Python or numpy integers, not bools).

    Restarts draw independent starting points from generators spawned as
    (seed, restart index) and ascend as one batch, so each restart's result
    does not depend on how many others run beside it; ties break toward the
    lowest restart index.  ``best_W`` is the winning restart's see-saw W, the
    largest element of ``restart_W``, and ``best_point`` its point as the
    see-saw left it.  ``converged`` reports whether the winning restart's
    sweep-to-sweep improvement fell below 1e-14 within 500 sweeps.  The
    result also carries every restart's final W, sweep count and converged
    flag.
    """
    if (d := integer_arg("d", d, 2)) not in (2, 3, 4):
        raise ValueError(f"d must be 2, 3 or 4, got {d}")
    if field not in ("real", "complex"):
        raise ValueError(f"field must be 'real' or 'complex', got {field!r}")
    restarts, seed = integer_arg("restarts", restarts, 1), integer_arg("seed", seed, 0)
    if restarts > MAX_RESTARTS:
        raise ValueError(f"restarts {restarts} exceeds MAX_RESTARTS = {MAX_RESTARTS}")
    psis, effs, ws, n_sweeps, convs = _seesaw(d, field, seed, restarts, _SWEEPS)
    win = int(np.argmax(ws))
    return SearchResult(StrategyPoint(psis[win], effs[win]), field, ws, n_sweeps, convs)


# ---------------------------------------------------------------------------
# Export


def search_result_to_dict(result: SearchResult) -> dict:
    point = result.best_point
    return {
        "problem": {"d": point.d, "field": result.field},
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
        "prob_matrix": strategy_prob_matrix(point).tolist(),
        "landscape": {
            "W": result.restart_W.tolist(),
            "sweeps": result.restart_sweeps.tolist(),
            "converged": result.restart_converged.tolist(),
        },
    }


def save_search_result(result: SearchResult, path: str | Path) -> None:
    Path(path).write_text(
        json.dumps(search_result_to_dict(result), indent=2) + "\n", encoding="utf-8"
    )
