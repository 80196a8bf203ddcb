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
    "ProbMatrix",
    "WitnessResult",
    "witness",
    "adjugate",
    "witness_variance",
    "checked_probabilities",
]

_ATOL = 1e-12


def checked_probabilities(p: np.ndarray) -> np.ndarray:
    """``p`` (any shape) clipped to [0, 1], after checking that every entry is
    finite and lies in [0, 1] up to 1e-12 roundoff; ValueError otherwise."""
    if not np.all(np.isfinite(p)):
        raise ValueError("probability matrix entries must be finite")
    if np.any(p < -_ATOL) or np.any(p > 1.0 + _ATOL):
        raise ValueError("probability matrix entries must lie in [0, 1]")
    return np.clip(p, 0.0, 1.0)


@dataclass(frozen=True)
class ProbMatrix:
    """5x5 behaviour matrix: four probability rows plus the all-ones row."""

    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        if p.shape != (5, 5):
            raise ValueError(f"probability matrix must be 5x5, got {p.shape}")
        clipped = checked_probabilities(p)
        if np.any(p[4] != 1.0):
            raise ValueError("fifth row must be identically 1")
        clipped.flags.writeable = False
        object.__setattr__(self, "p", clipped)

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "ProbMatrix":
        """Build from the four measurement rows; the ones row is appended."""
        rows = np.asarray(rows, dtype=float)
        if rows.shape != (4, 5):
            raise ValueError(f"expected four rows of five, got {rows.shape}")
        return cls(np.vstack([rows, np.ones(5)]))


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


def _mat(p: ProbMatrix | np.ndarray) -> np.ndarray:
    if isinstance(p, ProbMatrix):
        return p.p
    a = np.asarray(p, dtype=float)
    if a.shape != (5, 5):
        raise ValueError(f"expected a 5x5 matrix, got shape {a.shape}")
    return a


def witness(p: ProbMatrix | np.ndarray) -> float:
    """Determinant witness W = det p."""
    return float(np.linalg.det(_mat(p)))


_IDX = np.array([[i for i in range(5) if i != k] for k in range(5)])
# a[..., _ROWS, _COLS][..., j, k, :, :] is a with row k and column j removed.
_ROWS = _IDX[None, :, :, None]
_COLS = _IDX[:, None, None, :]
_SIGNS = (-1.0) ** np.add.outer(np.arange(5), np.arange(5))


def adjugate(p: ProbMatrix | np.ndarray) -> np.ndarray:
    """Adjugate of a 5x5 matrix, or of each matrix in a ``(..., 5, 5)`` stack:
    (Adj p)_{jk} = (-1)^{j+k} minor_{kj}.

    The 25 4x4 minors are gathered with one precomputed index and reduced by
    one batched determinant call; no division, so it is well defined for
    singular matrices and satisfies ``p @ Adj p = det(p) * I`` identically.
    """
    a = p.p if isinstance(p, ProbMatrix) else np.asarray(p, dtype=float)
    if a.shape[-2:] != (5, 5):
        raise ValueError(f"expected a (..., 5, 5) array, got shape {a.shape}")
    return _SIGNS * np.linalg.det(a[..., _ROWS, _COLS])


def witness_variance(p: ProbMatrix | np.ndarray, T: int) -> float:
    """Leading-order variance of the witness under binomial shot noise.

    ``T`` is the total count behind every cell of ``p``.  The sum runs over
    all 25 cells; the constant row contributes nothing since p(1-p) = 0 there.
    """
    if T < 1:
        raise ValueError(f"total count T must be >= 1, got {T}")
    a = _mat(p)
    adj = adjugate(a)
    return float(np.sum(a * (1.0 - a) * adj.T**2)) / T
