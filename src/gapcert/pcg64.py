"""numpy's default_rng stream, bit for bit, without importing numpy.random.

Stream(entropy) draws what np.random.default_rng(entropy) draws: the
entropy is mixed by SeedSequence (the hashmix pool of 4 words) into
generate_state(4, uint64), which seeds PCG64, the 128-bit LCG with the
XSL-RR output (O'Neill 2014).  Stream offers the two draws gapcert makes,
Generator.uniform and Generator.integers(0, n) for n <= 2**32, the 32-bit
Lemire draw with rejection (Lemire 2019) on the bit generator's buffered
half-words.  Importing numpy.random costs a short job more than its draws.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# SeedSequence's hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _entropy_words(entropy) -> list[int]:
    """SeedSequence's uint32 words of a nonnegative int or a tuple of them:
    each int little-endian, 0 as one word, tuples concatenated."""
    if isinstance(entropy, tuple):
        return [word for part in entropy for word in _entropy_words(part)]
    n = operator.index(entropy)
    if n < 0:
        raise ValueError(f"expected non-negative integer, got {n}")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _seed_words(entropy) -> list[int]:
    """SeedSequence(entropy).generate_state(4, np.uint64) as Python ints."""
    words, hash_a = _entropy_words(entropy), _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _MULT_A & _M32
        value = value * hash_a & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    halves, hash_b = [], _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * _MULT_B & _M32
        value = value * hash_b & _M32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


class Stream:
    """The draws of np.random.default_rng(entropy), one bit generator state
    (the LCG state, and the high half-word a 32-bit draw left buffered)."""

    def __init__(self, entropy) -> None:
        s0, s1, i0, i1 = _seed_words(entropy)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        # pcg64_srandom_r: step from 0 (to inc), add the seed, step again
        seeded = self._inc + (s0 << 64 | s1)
        self._state = (seeded * _PCG_MULT + self._inc) & _M128
        self._half: int | None = None

    def _states(self, count: int) -> list[int]:
        """The next count LCG states; the stream's own state stays."""
        state, inc, states = self._state, self._inc, []
        for _ in range(count):
            state = (state * _PCG_MULT + inc) & _M128
            states.append(state)
        return states

    def uniform(self, low: float, high: float, n: int) -> np.ndarray:
        """n draws of Generator.uniform(low, high): low + (high - low) times
        the top 53 bits of a 64-bit output over 2**53."""
        low, high = float(low), float(high)
        span = high - low
        if not math.isfinite(span):
            raise OverflowError("high - low range exceeds valid bounds")
        states = self._states(n)
        if states:
            self._state = states[-1]
        out = []
        for state in states:
            x, rot = (state >> 64 ^ state) & 0xFFFFFFFFFFFFFFFF, state >> 122
            word = (x >> rot | x << (64 - rot)) & 0xFFFFFFFFFFFFFFFF
            out.append(low + span * ((word >> 11) * 2.0**-53))
        return np.array(out)

    def integers(self, n: int, count: int) -> np.ndarray:
        """count draws of Generator.integers(0, n) (int64), for 1 <= n <=
        2**32: a half-word h gives (h n) >> 32 when its low 32 bits are at
        least 2**32 mod n, and is rejected otherwise.  Every half-word is
        judged on its own, so a block steps the LCG in Python ints and takes
        the accepted values in order, in array passes."""
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"numpy draws integers below {n} by another path")
        if n == 1:  # numpy draws nothing for a one-value range
            return np.zeros(count, np.int64)
        threshold, values, need = (1 << 32) % n, [], count
        while need > 0:
            head = [] if self._half is None else [self._half]
            halves_due = -(-need * (1 << 32) // ((1 << 32) - threshold))
            states = self._states(max(0, -(-(halves_due - len(head)) // 2)))
            raw = np.frombuffer(
                b"".join(state.to_bytes(16, "little") for state in states), "<u8"
            ).reshape(-1, 2)
            x, rot = raw[:, 1] ^ raw[:, 0], raw[:, 1] >> 58
            words = x >> rot | x << ((64 - rot) & 63)
            halves = np.empty(len(head) + 2 * len(words), np.uint64)
            halves[: len(head)] = head
            halves[len(head) :: 2] = words & _M32
            halves[len(head) + 1 :: 2] = words >> 32
            scaled = halves * np.uint64(n)
            kept = np.flatnonzero((scaled & _M32) >= threshold)[:need]
            values.append((scaled[kept] >> 32).astype(np.int64))
            need -= len(kept)
            # leave the state at the word of the last half-word used
            last = (kept[-1] if need == 0 else len(halves) - 1) - len(head)
            if last >= 0:
                self._state = states[last // 2]
            self._half = int(halves[last + len(head) + 1]) if last % 2 == 0 else None
        return np.concatenate(values) if values else np.zeros(0, np.int64)
