"""Replica noise streams as integer arithmetic, for one replica or many at once.

Replica i of a run with seed s draws its noise from numpy's
Generator(Philox(SeedSequence(s, spawn_key=(0, i)))), which harness.replica_rng
builds; random policy j draws from spawn key (1, j). Both steps are fixed
integer arithmetic: SeedSequence hashes the entropy words into a pool of four
32-bit words and hashes the pool into a 128-bit Philox key; Philox4x64-10 maps
(key, counter) to four 64-bit lanes (Salmon et al., "Parallel random numbers:
as easy as 1, 2, 3", SC'11).

The steps below use only ^ & >> * + - and Python-int constants, so they run
on Python ints and on numpy uint64 arrays alike: masks keep ints to 32 or 64
bits (on uint64 arrays the 64-bit ones are no-ops), and Philox's 128-bit
products are built from 32-bit halves. ReplicaStream runs them on ints, so a
command that needs a few draws of one replica loads no numpy; harness runs
them on arrays of replicas. This module imports no numpy.
"""

from __future__ import annotations

import operator
from itertools import count
from typing import Iterator

INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence's entropy hash
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED  # and its generate_state hash
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715  # and its pool cross-mix
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # Philox4x64's multipliers
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # and its key increments

MASK32, MASK64 = 2**32 - 1, 2**64 - 1
_POOL = 4  # SeedSequence's pool size in 32-bit words


def _words(n: int) -> list[int]:
    """SeedSequence's 32-bit words of a non-negative int, least significant first."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")  # numpy's message
    words = [n & MASK32]
    while n := n >> 32:
        words.append(n & MASK32)
    return words


def _hashmix(value, const: int, mult: int):
    """SeedSequence's hashmix of a 32-bit value at hash constant const: the hash,
    and the constant the next hashmix starts from."""
    value = value ^ const  # not in place: value may be the caller's array
    const = const * mult & MASK32
    value = value * const & MASK32
    return value ^ value >> 16, const


def _mix(x, y):
    value = (MIX_L * x - MIX_R * y) & MASK32
    return value ^ value >> 16


def absorb(pool: list, const: int, word) -> tuple[list, int]:
    """Mix one more entropy word into each of the four pool words, from hash
    constant const: the new pool and the constant after it."""
    mixed = []
    for x in pool:
        h, const = _hashmix(word, const, MULT_A)
        mixed.append(_mix(x, h))
    return mixed, const


def seeded_pool(seed: int, *spawn_key: int) -> tuple[list[int], int]:
    """The pool of SeedSequence(seed, spawn_key=spawn_key), and the hash constant
    one more entropy word would start from. Raises numpy's ValueError for a
    negative seed."""
    run = _words(seed)
    entropy = run + [0] * (_POOL - len(run))  # the seed, padded to the pool
    entropy += [word for key in spawn_key for word in _words(key)]
    pool, const = [], INIT_A
    for word in entropy[:_POOL]:
        h, const = _hashmix(word, const, MULT_A)
        pool.append(h)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                h, const = _hashmix(pool[src], const, MULT_A)
                pool[dst] = _mix(pool[dst], h)
    for word in entropy[_POOL:]:
        pool, const = absorb(pool, const, word)
    return pool, const


def philox_key(pool: list) -> tuple:
    """The pool's generate_state(2, numpy.uint64): the stream's Philox key."""
    state, const = [], INIT_B
    for word in pool:
        h, const = _hashmix(word, const, MULT_B)
        state.append(h)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _mul128(m: int, x) -> tuple:
    """The high and low 64 bits of m * x, for 64-bit m and x."""
    m_lo, m_hi, x_lo, x_hi = m & MASK32, m >> 32, x & MASK32, x >> 32
    t = m_hi * x_lo + (m_lo * x_lo >> 32)
    u = m_lo * x_hi + (t & MASK32)
    return m_hi * x_hi + (t >> 32) + (u >> 32), m * x & MASK64


def philox_block(key: tuple, counter) -> tuple:
    """Philox4x64-10 at counter (counter, 0, 0, 0): numpy's Philox block number counter."""
    k0, k1 = key
    x0, x1, x2, x3 = counter, 0, 0, 0
    for r in range(10):
        if r:
            k0, k1 = (k0 + PHILOX_W[0]) & MASK64, (k1 + PHILOX_W[1]) & MASK64
        (hi0, lo0), (hi1, lo1) = _mul128(PHILOX_M[0], x0), _mul128(PHILOX_M[1], x2)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
    return x0, x1, x2, x3


class ReplicaStream:
    """The uniforms replica_rng(seed, index).random() returns, in the same order.

    Draw c is lane c % 4 of Philox block c // 4 + 1 (numpy increments the
    counter before each block), its top 53 bits over 2**53.
    """

    def __init__(self, seed: int, index: int) -> None:
        self._draws = self._uniforms(philox_key(seeded_pool(seed, 0, index)[0]))

    @staticmethod
    def _uniforms(key: tuple[int, int]) -> Iterator[float]:
        for block in count(1):
            for word in philox_block(key, block):
                yield (word >> 11) * 2.0**-53

    def random(self) -> float:
        return next(self._draws)
