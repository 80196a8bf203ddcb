"""numpy's PCG64 starting states for many runs, seeded in one batched pass.

Drift trial ``t`` draws from ``default_rng(seed + t)``, and record job or
search restart ``t`` from ``default_rng(SeedSequence(seed, spawn_key=(t,)))``.
Building each of those generators costs more than most runs draw, because
``SeedSequence`` hashes its few words of entropy in Python-level calls.  Here
the same hash runs once over a ``(count, L)`` uint32 array of every run's
entropy words: ``SeedSequence``'s entropy mix, then its ``generate_state`` of
the four 64-bit words PCG64 seeds from.  Each run keeps only those 32 bytes;
PCG64's two seeding steps, in Python ints, build a run's state only when
:func:`generators` sets it on its one bit generator.  numpy's RNG policy
(NEP 19) keeps ``SeedSequence`` and the PCG64 stream fixed across releases,
and ``tests/test_seeding.py`` pins every state against numpy's constructors.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator

import numpy as np

__all__ = ["offset_seed_words", "spawned_seed_words", "generators"]

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MASK128 = (1 << 128) - 1

#: rows of seed words turned into Python ints at a time
_CHUNK = 4096


def _words(first: int, count: int, width: int) -> np.ndarray:
    """The ``(count, width)`` little-endian uint32 words of ``first + t`` for
    t = 0..count-1, added with carries so that any ``first`` works."""
    out = np.empty((count, width), dtype=np.uint32)
    carry = np.arange(count, dtype=np.uint64)
    for i in range(width):
        acc = carry + np.uint64((first >> (32 * i)) & _MASK32)
        out[:, i] = acc & np.uint64(_MASK32)
        carry = acc >> np.uint64(32)
    return out


def _n_words(value: int) -> int:
    """How many uint32 words numpy's ``SeedSequence`` reads from ``value``."""
    return max(1, -(-value.bit_length() // 32))


def _pool(entropy: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence.mix_entropy`` of each row of ``entropy`` (count, L),
    every row L >= 4 words long: the four pool words as columns."""
    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    mixer = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixer[i_dst] = mix(mixer[i_dst], hashmix(mixer[i_src]))
    for i_src in range(_POOL_SIZE, entropy.shape[1]):
        for i_dst in range(_POOL_SIZE):
            mixer[i_dst] = mix(mixer[i_dst], hashmix(entropy[:, i_src]))
    return mixer


def _seed_words(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """PCG64's four 64-bit seed words, ``generate_state(4, np.uint64)``, of
    the ``SeedSequence`` whose entropy is row t of ``entropy`` cut to
    ``lengths[t]`` words: shape (count, 4).

    For four words or fewer, a zero word mixes as a missing one does, so a
    row shorter than the array needs no cut below four words."""
    state = np.empty((len(entropy), 8), dtype="<u4")
    # the distinct lengths; np.unique would import numpy.ma, about 1 MB
    for length in np.flatnonzero(np.bincount(lengths)).tolist():
        rows = lengths == length
        pool = _pool(entropy[rows, : max(length, _POOL_SIZE)])
        hash_const = _INIT_B
        for i in range(8):
            value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
            hash_const = (hash_const * _MULT_B) & _MASK32
            value *= np.uint32(hash_const)
            state[rows, i] = value ^ (value >> np.uint32(16))
    return state.view("<u8")


def _check(seed: int, count: int) -> tuple[int, int]:
    """``seed`` and ``count`` as Python ints, both >= 0.  numpy integers are
    converted first: they have no ``bit_length``, and ``seed + t`` could wrap."""
    seed, count = operator.index(seed), operator.index(count)
    if seed < 0 or count < 0:
        raise ValueError(f"need seed >= 0 and count >= 0, got {seed}, {count}")
    return seed, count


def offset_seed_words(seed: int, count: int) -> np.ndarray:
    """Seed words of ``np.random.PCG64(seed + t)`` for t = 0..count-1,
    shape (count, 4) uint64."""
    seed, count = _check(seed, count)
    width = max(_POOL_SIZE, _n_words(seed + max(count - 1, 0)))
    entropy = _words(seed, count, width)
    # rows holding more than four words are cut at their highest nonzero one
    lengths = np.full(count, _POOL_SIZE)
    for i in range(_POOL_SIZE, width):
        lengths[entropy[:, i] != 0] = i + 1
    return _seed_words(entropy, lengths)


def spawned_seed_words(seed: int, count: int) -> np.ndarray:
    """Seed words of ``np.random.PCG64(np.random.SeedSequence(seed,
    spawn_key=(t,)))`` for t = 0..count-1, shape (count, 4) uint64."""
    seed, count = _check(seed, count)
    # the run entropy is padded to the pool size before the spawn key
    run = max(_POOL_SIZE, _n_words(seed))
    key = _n_words(max(count - 1, 0))
    entropy = np.empty((count, run + key), dtype=np.uint32)
    entropy[:, :run] = _words(seed, 1, run)
    entropy[:, run:] = _words(0, count, key)
    lengths = np.full(count, run + 1)
    if key > 1:
        lengths[entropy[:, run + 1] != 0] = run + 2
    return _seed_words(entropy, lengths)


def generators(seed_words: np.ndarray) -> Iterator[np.random.Generator]:
    """For each row of seed words in turn, a Generator at the start of that
    run's stream.  It is the same Generator every time, over one PCG64 made
    for this call, so draw from it before taking the next."""
    bit_gen = np.random.PCG64()  # its own seeding is never drawn from
    rng = np.random.Generator(bit_gen)
    for start in range(0, len(seed_words), _CHUNK):
        for s_hi, s_lo, i_hi, i_lo in seed_words[start : start + _CHUNK].tolist():
            inc = ((i_hi << 65) | (i_lo << 1) | 1) & _MASK128
            state = (((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc) & _MASK128
            bit_gen.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng
