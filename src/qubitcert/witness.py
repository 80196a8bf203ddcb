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
#: entry, so its maximum over [0, 1]^20 sits at a 0/1 vertex, where the
#: exhaustive enumeration in ``tests/classical_reference.py`` finds 3.
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
    # NaN fails both comparisons and +-inf one, so this also rejects non-finite entries
    if not np.all((rows >= -_ATOL) & (rows <= 1.0 + _ATOL)):
        raise ValueError("probability matrix entries must be finite and lie in [0, 1]")
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
# Each 4x4 minor is expanded along its first two rows: a sum over six pairs of
# columns of det(rows 0-1, the pair) * det(rows 2-3, the other two columns).
# _LAPLACE lists each term's four columns in an order of sign +1, and _TERMS
# swaps the bottom pair where (-1)^(j+k) = -1, so every adjugate entry is a
# plain sum of six products of 2x2 determinants.
_LAPLACE = np.array([(0, 1, 2, 3), (2, 0, 1, 3), (0, 3, 1, 2), (1, 2, 0, 3), (3, 1, 0, 2), (2, 3, 0, 1)])
_TERMS = np.stack([_LAPLACE, _LAPLACE[:, [0, 1, 3, 2]]])[np.add.outer(np.arange(5), np.arange(5)) % 2]
# Entry e = x00, x01, x10, x11 of factor h (0 top, 1 bottom): its row in the
# minor, and its place in the term's column order.
_ROW_OF = np.array([[0, 2], [0, 2], [1, 3], [1, 3]])
_COL_OF = np.array([[0, 2], [1, 3], [0, 2], [1, 3]])
# a.reshape(-1, 25).T[_FLAT[..., m]] holds entry e of factor h of term t of
# the minor m = _MINOR[j, k] (row k and column j of a removed) at [e, h, t]
# of each of the n matrices, shape (4, 2, 6, n); an entries selector indexes
# _MINOR, so only the selected minors are gathered.
_MINOR = np.arange(25).reshape(5, 5)
_e, _h, _t, _j, _k = np.ix_(range(4), range(2), range(6), range(5), range(5))
_FLAT = (
    5 * _IDX[_k, _ROW_OF[_e, _h]] + _IDX[_j, _TERMS[_j, _k, _t, _COL_OF[_e, _h]]]
).reshape(4, 2, 6, 25)


def adjugate(p: np.ndarray, entries=...) -> np.ndarray:
    """Adjugate of a 5x5 matrix, or of each matrix in a ``(..., 5, 5)`` stack:
    (Adj p)_{jk} = (-1)^{j+k} minor_{kj}.

    ``entries`` selects part of the adjugate by an index of integers, slices
    or integer arrays into its last two axes: ``adjugate(p, e)`` equals ``adjugate(p)[..., *e]`` bit for bit, but
    only the selected minors are computed, so ``(slice(None), k)`` costs 5
    minors instead of 25.  The default is the whole adjugate.  A selector that
    does not index a 5x5 array raises IndexError.

    Each minor is a closed-form Laplace expansion in complementary 2x2 minors,
    read from one precomputed gather of the entries; no division, so it is
    well defined for singular matrices and satisfies ``p @ Adj p = det(p) * I``
    to round-off.
    """
    a = np.asarray(p, dtype=float)
    if a.shape[-2:] != (5, 5):
        raise ValueError(f"expected a (..., 5, 5) array, got shape {a.shape}")
    m = _MINOR[entries]
    x = a.reshape(-1, 25).T[_FLAT[..., m]]
    m2 = x[0] * x[3] - x[1] * x[2]
    t = m2[0] * m2[1]
    t = t[:3] + t[3:]
    adj = t[0] + t[1] + t[2]  # (*m.shape, n)
    return adj.transpose(-1, *range(adj.ndim - 1)).reshape(a.shape[:-2] + np.shape(m))


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
