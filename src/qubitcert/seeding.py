"""numpy's PCG64 generators for many runs, seeded in one batched pass.

Drift trial ``t`` draws from ``default_rng(seed + t)``, and record job or
search restart ``t`` from ``default_rng(SeedSequence(seed, spawn_key=(t,)))``.
Building each of those generators costs more than most runs draw, because
``SeedSequence`` hashes its few words of entropy in Python-level calls.  Here
the same hash runs once over an ``(L, count)`` uint32 array of every run's
entropy words: ``SeedSequence``'s entropy mix, then its ``generate_state`` of
the four 64-bit words PCG64 seeds from.  The hash constants do not depend on
the words, so they are precomputed as uint32 columns and each step hashes
the four pool words of every run at once.  :func:`generators` hands each run's
words to numpy's own PCG64 constructor, through its ``ISeedSequence``
interface, and gives every run its own Generator.  numpy's RNG policy (NEP 19)
keeps ``SeedSequence`` and the PCG64 stream fixed across releases, and
``tests/test_seeding.py`` pins every state against numpy's constructors.
:func:`integer_arg` is the one check of every count and seed argument of the
package's public calls, and :func:`real_arg` of every real-valued one.
"""

from __future__ import annotations

import functools
import sys
from collections.abc import Iterator

import numpy as np

__all__ = ["integer_arg", "real_arg", "offset_seed_words", "spawned_seed_words", "generators"]

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _words(first: int, count: int, width: int) -> np.ndarray:
    """The little-endian uint32 words of ``first + t`` for t = 0..count-1,
    one row per word: shape ``(width, count)``.  They are added with carries
    so that any ``first`` works."""
    out = np.empty((width, count), dtype=np.uint32)
    carry = np.arange(count, dtype=np.uint64)
    for i in range(width):
        acc = carry + np.uint64((first >> (32 * i)) & _MASK32)
        out[i] = acc & np.uint64(_MASK32)
        carry = acc >> np.uint64(32)
    return out


def _n_words(value: int) -> int:
    """How many uint32 words numpy's ``SeedSequence`` reads from ``value``."""
    return max(1, -(-value.bit_length() // 32))


@functools.lru_cache(maxsize=None)
def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants of ``count`` successive ``SeedSequence`` hashes that
    start from ``init``: each XORs in one constant, steps it by ``mult``, and
    multiplies by the next.  Returns (xor, mul) uint32 columns, (count, 1)."""
    consts = [init]
    for _ in range(count):
        consts.append((consts[-1] * mult) & _MASK32)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _hash(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s hashmix of ``value`` with the given constants,
    broadcast over the leading axis."""
    value = (value ^ xor) * mul
    return value ^ (value >> np.uint32(16))


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s mix of pool word ``x`` with hashed word ``y``."""
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


#: for each source pool word, the three others it mixes into, in order
_OTHERS = [[j for j in range(_POOL_SIZE) if j != i] for i in range(_POOL_SIZE)]


def _pool(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence.mix_entropy`` of each column of ``entropy`` (L, count),
    every column L >= 4 words long: the four pool words as rows.

    The hash constants run on from one hash to the next whatever the words
    are, so each step hashes a whole row of runs, or four rows, at once."""
    n_extra = len(entropy) - _POOL_SIZE
    xor, mul = _hash_consts(_INIT_A, _MULT_A, 16 + _POOL_SIZE * n_extra)
    mixer = _hash(entropy[:_POOL_SIZE], xor[:4], mul[:4])
    # a source word is hashed once per other pool word, and mixing into
    # those others leaves the source as it was
    for i_src, dst in enumerate(_OTHERS):
        k = 4 + 3 * i_src
        mixer[dst] = _mix(mixer[dst], _hash(mixer[i_src], xor[k : k + 3], mul[k : k + 3]))
    for i_src in range(n_extra):
        k = 16 + 4 * i_src
        mixer = _mix(mixer, _hash(entropy[_POOL_SIZE + i_src], xor[k : k + 4], mul[k : k + 4]))
    return mixer


def _seed_words(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """PCG64's four 64-bit seed words, ``generate_state(4, np.uint64)``, of
    the ``SeedSequence`` whose entropy is column t of ``entropy`` (L, count)
    cut to ``lengths[t]`` words: shape (count, 4).

    For four words or fewer, a zero word mixes as a missing one does, so a
    column shorter than the array needs no cut below four words."""
    state = np.empty((8, entropy.shape[1]), dtype="<u4")
    xor, mul = _hash_consts(_INIT_B, _MULT_B, 8)
    # the distinct lengths; np.unique would import numpy.ma, about 1 MB
    distinct = np.flatnonzero(np.bincount(lengths)).tolist()
    for length in distinct:
        runs = lengths == length if len(distinct) > 1 else slice(None)
        pool = _pool(entropy[: max(length, _POOL_SIZE), runs])
        # the eight 32-bit state words hash pool words 0, 1, 2, 3, 0, 1, 2, 3
        state[:, runs] = _hash(np.tile(pool, (2, 1)), xor, mul)
    return np.ascontiguousarray(state.T).view("<u8")


def integer_arg(name: str, value, minimum: int) -> int:
    """``value``, the count or seed argument ``name``, as a Python int: an
    ``int`` or numpy integer, never a bool, and at least ``minimum``.  numpy
    integers are converted: ``seed + t`` could wrap in one."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def real_arg(name: str, value) -> float:
    """``value``, the real argument ``name``, as a finite Python float: an
    ``int``, ``float`` or numpy real scalar, never a bool.  One bound test
    rejects NaN, +-inf and an int too large for a float."""
    real = isinstance(value, (int, float, np.integer, np.floating))
    if isinstance(value, bool) or not (real and abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def offset_seed_words(seed: int, count: int) -> np.ndarray:
    """Seed words of ``np.random.PCG64(seed + t)`` for t = 0..count-1,
    shape (count, 4) uint64."""
    seed, count = integer_arg("seed", seed, 0), integer_arg("count", count, 0)
    width = max(_POOL_SIZE, _n_words(seed + max(count - 1, 0)))
    entropy = _words(seed, count, width)
    # rows holding more than four words are cut at their highest nonzero one
    lengths = np.full(count, _POOL_SIZE)
    for i in range(_POOL_SIZE, width):
        lengths[entropy[i] != 0] = i + 1
    return _seed_words(entropy, lengths)


def spawned_seed_words(seed: int, count: int) -> np.ndarray:
    """Seed words of ``np.random.PCG64(np.random.SeedSequence(seed,
    spawn_key=(t,)))`` for t = 0..count-1, shape (count, 4) uint64."""
    seed, count = integer_arg("seed", seed, 0), integer_arg("count", count, 0)
    # the run entropy is padded to the pool size before the spawn key
    run = max(_POOL_SIZE, _n_words(seed))
    key = _n_words(max(count - 1, 0))
    entropy = np.empty((run + key, count), dtype=np.uint32)
    entropy[:run] = _words(seed, 1, run)
    entropy[run:] = _words(0, count, key)
    lengths = np.full(count, run + 1)
    if key > 1:
        lengths[entropy[run + 1] != 0] = run + 2
    return _seed_words(entropy, lengths)


@functools.cache
def _words_type() -> type:
    """An array of one run's four seed words that numpy's PCG64 takes as its
    ``ISeedSequence`` and reads by raw pointer.  It is made on first use: its
    import loads ``numpy.random``, which ``analyze`` and ``gen-config`` never need."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(np.ndarray, ISeedSequence):
        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError(f"holds 4 uint64 seed words, not {n_words} of {np.dtype(dtype)}")
            return self

    return Words


def generators(seed_words: np.ndarray) -> Iterator[np.random.Generator]:
    """For each row of four seed words in turn, a new Generator at the start
    of that run's stream, built by numpy's own PCG64 constructor."""
    rows = np.ascontiguousarray(seed_words, dtype=np.uint64).reshape(-1, 4)
    for words in rows.view(_words_type()):
        yield np.random.Generator(np.random.PCG64(words))
