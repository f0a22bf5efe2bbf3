"""One replica's noise stream in plain Python ints, without numpy.

Replica i of a run with seed s draws its noise from numpy's
Generator(Philox(SeedSequence(s, spawn_key=(0, i)))), which harness.replica_rng
builds. Both steps are fixed integer arithmetic: SeedSequence hashes the
entropy words into a pool of four 32-bit words and hashes the pool into a
128-bit Philox key; Philox4x64-10 maps (key, counter) to four 64-bit lanes
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11).
ReplicaStream runs them on Python ints, masked to 32 and 64 bits, so a
command that needs a few draws of one replica loads no numpy. harness runs the
same arithmetic on arrays of replicas and takes its constants from here.
"""

from __future__ import annotations

from itertools import count
from typing import Iterator

INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875  # SeedSequence's entropy hash
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED  # and its generate_state hash
MIX_L, MIX_R = 0xCA01F9DD, 0x4973F715  # and its pool cross-mix
PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)  # Philox4x64's multipliers
PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)  # and its key increments

_MASK32, _MASK64 = 2**32 - 1, 2**64 - 1
_POOL = 4  # SeedSequence's pool size in 32-bit words


def _words(n: int) -> list[int]:
    """SeedSequence's 32-bit words of a non-negative int, least significant first."""
    if n < 0:
        raise ValueError("expected non-negative integer")  # numpy's message
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hashes(const: int, mult: int) -> Iterator[tuple[int, int]]:
    """SeedSequence's hashmix constants: (the one a word is xored with, the one it is
    multiplied by), advancing by mult on every hashmix."""
    while True:
        yield const, (const := const * mult & _MASK32)


def _hashmix(value: int, consts: Iterator[tuple[int, int]]) -> int:
    xor, mult = next(consts)
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (MIX_L * x - MIX_R * y) & _MASK32
    return value ^ value >> 16


def _philox_key(seed: int, index: int) -> tuple[int, int]:
    """SeedSequence(seed, spawn_key=(0, index)).generate_state(2, numpy.uint64)."""
    run = _words(seed)
    entropy = run + [0] * (_POOL - len(run)) + [0] + _words(index)
    consts = _hashes(INIT_A, MULT_A)
    pool = [_hashmix(word, consts) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = _mix(pool[dst], _hashmix(word, consts))
    consts = _hashes(INIT_B, MULT_B)
    state = [_hashmix(word, consts) for word in pool]
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _philox_block(key: tuple[int, int], counter: int) -> tuple[int, int, int, int]:
    """Philox4x64-10 at counter (counter, 0, 0, 0): numpy's Philox block number counter."""
    k0, k1 = key
    x0, x1, x2, x3 = counter, 0, 0, 0
    for r in range(10):
        if r:
            k0, k1 = (k0 + PHILOX_W[0]) & _MASK64, (k1 + PHILOX_W[1]) & _MASK64
        p0, p1 = PHILOX_M[0] * x0, PHILOX_M[1] * x2
        x0, x1, x2, x3 = (p1 >> 64) ^ x1 ^ k0, p1 & _MASK64, (p0 >> 64) ^ x3 ^ k1, p0 & _MASK64
    return x0, x1, x2, x3


class ReplicaStream:
    """The uniforms replica_rng(seed, index).random() returns, in the same order.

    Draw c is lane c % 4 of Philox block c // 4 + 1 (numpy increments the
    counter before each block), its top 53 bits over 2**53.
    """

    def __init__(self, seed: int, index: int) -> None:
        self._draws = self._uniforms(_philox_key(seed, index))

    @staticmethod
    def _uniforms(key: tuple[int, int]) -> Iterator[float]:
        for block in count(1):
            for word in _philox_block(key, block):
                yield (word >> 11) * 2.0**-53

    def random(self) -> float:
        return next(self._draws)
