"""The determinant dimension witness and its shot-noise statistics.

A prepare-and-measure run with five preparations and four binary measurements
is summarised by the 5x5 matrix whose first four rows are the outcome
probabilities ``p[k, j]`` and whose fifth row is identically one.  The witness
is ``W = det p``.  Any qubit (or classical bit) strategy makes the five
probability columns affinely dependent, so ``W = 0`` exactly; a nonzero value
certifies that no two-dimensional model reproduces the data.

When each cell is estimated from ``T`` shots the determinant is an exactly
unbiased estimator of ``W`` (every monomial in the Leibniz expansion touches
each matrix cell at most once, and cells are sampled independently), and its
leading-order variance follows from expanding the determinant to first order
in the per-cell fluctuations:

    Var(W) = sum_{k<=4, j} p_kj (1 - p_kj) (Adj p)_{jk}^2 / T,

with ``Adj`` the adjugate (transposed cofactor) matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "W_CEILING",
    "WitnessResult",
    "prob_matrix",
    "witness",
    "adjugate",
    "witness_variance",
]

_ATOL = 1e-12

#: Largest |W| of any behaviour matrix.  The determinant is affine in each
#: entry, so its maximum over [0, 1]^20 sits at a 0/1 vertex, where
#: :func:`~qubitcert.extremal.classical_max_detail` finds 3.
W_CEILING = 3.0


def prob_matrix(rows: np.ndarray) -> np.ndarray:
    """The behaviour matrix of four measurement rows, or of each in a
    ``(..., 4, 5)`` stack: a read-only float array of shape ``(..., 5, 5)``
    with the ones row appended.

    Every entry must be finite and lie in [0, 1] up to 1e-12 roundoff, which
    is clipped away; ValueError otherwise.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[-2:] != (4, 5):
        raise ValueError(f"expected four rows of five, got {rows.shape}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("probability matrix entries must be finite")
    if np.any(rows < -_ATOL) or np.any(rows > 1.0 + _ATOL):
        raise ValueError("probability matrix entries must lie in [0, 1]")
    p = np.ones(rows.shape[:-2] + (5, 5))
    p[..., :4, :] = np.clip(rows, 0.0, 1.0)
    p.flags.writeable = False
    return p


@dataclass(frozen=True)
class WitnessResult:
    """Witness estimate with its standard error.

    ``sigma`` is None when no error bar is defined (a per-job average over a
    single job).  ``z = W / sigma`` is the significance that the ``|z| > 5``
    failure criterion reads; it is None when ``sigma`` is None or 0 (cells
    pinned to 0/1, or identical jobs).
    """

    W: float
    sigma: float | None

    @property
    def z(self) -> float | None:
        return self.W / self.sigma if self.sigma else None


def _mat(p: np.ndarray) -> np.ndarray:
    a = np.asarray(p, dtype=float)
    if a.shape != (5, 5):
        raise ValueError(f"expected a 5x5 matrix, got shape {a.shape}")
    return a


def witness(p: np.ndarray) -> float:
    """Determinant witness W = det p."""
    return float(np.linalg.det(_mat(p)))


_IDX = np.array([[i for i in range(5) if i != k] for k in range(5)])
# a[..., _ROWS[m], _COLS[m]] is a with row k and column j removed, for the
# minor m = _MINOR[j, k]; an entries selector indexes _MINOR, so only the
# selected minors are gathered.
_MINOR = np.arange(25).reshape(5, 5)
_ROWS, _COLS = (
    x.reshape(25, 4, 4)
    for x in np.broadcast_arrays(_IDX[None, :, :, None], _IDX[:, None, None, :])
)
_SIGNS = ((-1.0) ** np.add.outer(np.arange(5), np.arange(5))).ravel()


def adjugate(p: np.ndarray, entries=...) -> np.ndarray:
    """Adjugate of a 5x5 matrix, or of each matrix in a ``(..., 5, 5)`` stack:
    (Adj p)_{jk} = (-1)^{j+k} minor_{kj}.

    ``entries`` selects part of the adjugate by an index of integers, slices
    or integer arrays into its last two axes: ``adjugate(p, e)`` equals ``adjugate(p)[..., *e]`` bit for bit, but
    only the selected minors are computed, so ``(slice(None), k)`` costs 5
    minors instead of 25.  The default is the whole adjugate.  A selector that
    does not index a 5x5 array raises IndexError.

    The minors are gathered with one precomputed index and reduced by one
    batched determinant call; no division, so it is well defined for singular
    matrices and satisfies ``p @ Adj p = det(p) * I`` identically.
    """
    a = np.asarray(p, dtype=float)
    if a.shape[-2:] != (5, 5):
        raise ValueError(f"expected a (..., 5, 5) array, got shape {a.shape}")
    m = _MINOR[entries]
    return _SIGNS[m] * np.linalg.det(a[..., _ROWS[m], _COLS[m]])


def witness_variance(p: np.ndarray, T: int) -> float:
    """Leading-order variance of the witness under binomial shot noise.

    ``T`` is the total count behind every cell of ``p``.  The sum runs over
    all 25 cells; the constant row contributes nothing since p(1-p) = 0 there.
    """
    if T < 1:
        raise ValueError(f"total count T must be >= 1, got {T}")
    a = _mat(p)
    adj = adjugate(a)
    return float(np.sum(a * (1.0 - a) * adj.T**2)) / T
