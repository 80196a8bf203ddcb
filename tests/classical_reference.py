"""The exact classical maximum of |W|: every 2^20 deterministic 0/1
strategy enumerated in integer arithmetic.  It backs ``witness.W_CEILING``
and the extremal tests' classical row, so it lives with the tests."""

from itertools import permutations

import numpy as np


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
