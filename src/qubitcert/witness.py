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
from fractions import Fraction

import numpy as np

__all__ = [
    "ProbMatrix",
    "WitnessResult",
    "witness",
    "adjugate",
    "witness_variance",
    "det_exact",
]

_ATOL = 1e-12


@dataclass(frozen=True)
class ProbMatrix:
    """5x5 behaviour matrix: four probability rows plus the all-ones row."""

    p: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.p, dtype=float)
        if p.shape != (5, 5):
            raise ValueError(f"probability matrix must be 5x5, got {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValueError("probability matrix entries must be finite")
        if np.any(p < -_ATOL) or np.any(p > 1.0 + _ATOL):
            raise ValueError("probability matrix entries must lie in [0, 1]")
        if np.any(p[4] != 1.0):
            raise ValueError("fifth row must be identically 1")
        p = np.clip(p, 0.0, 1.0)
        p.flags.writeable = False
        object.__setattr__(self, "p", p)

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


def adjugate(p: ProbMatrix | np.ndarray) -> np.ndarray:
    """Adjugate of a 5x5 matrix: (Adj p)_{jk} = (-1)^{j+k} minor_{kj}.

    Computed from the 25 signed 4x4 minors in one batched determinant call;
    no division, so it is well defined for singular matrices and satisfies
    ``p @ Adj p = det(p) * I`` identically.
    """
    a = _mat(p)
    idx = [[i for i in range(5) if i != k] for k in range(5)]
    subs = np.empty((5, 5, 4, 4))
    for j in range(5):
        for k in range(5):
            subs[j, k] = a[np.ix_(idx[k], idx[j])]
    minors = np.linalg.det(subs.reshape(25, 4, 4)).reshape(5, 5)
    signs = (-1.0) ** np.add.outer(np.arange(5), np.arange(5))
    return signs * minors


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


def det_exact(matrix) -> Fraction:
    """Exact determinant over the rationals by cofactor expansion.

    Accepts any square nested sequence of ints/Fractions.  Quadratic-ish in
    cost but only used on 4x4/5x5 matrices as an arithmetic-error-free oracle.
    """
    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("matrix must be square")
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j, x in enumerate(m[0]):
        if x == 0:
            continue
        sub = [row[:j] + row[j + 1 :] for row in m[1:]]
        term = x * det_exact(sub)
        total += term if j % 2 == 0 else -term
    return total
