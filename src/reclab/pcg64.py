"""The integer stream of ``numpy.random.default_rng(seed)``, without ``numpy.random``.

Three layers, each written out from numpy's own definition:

- ``SeedSequence(seed)``: the seed's 32-bit words are hashed into a pool
  of 4 words, which ``generate_state(4, uint64)`` stretches to 4 words
  of 64 bits;
- PCG64 (O'Neill 2014): a 128-bit LCG, advanced before each output,
  whose output is the XSL-RR mix of the new state, hi ^ lo rotated right
  by the state's top 6 bits.  The state between draws is a Python int.
  A draw lays its states out in rows of ``_LANES``: Python steps from
  row start to row start, and lane i of a row is A^(i+1) t + G_(i+1) inc
  (A the multiplier, G_i = 1 + A + ... + A^(i-1)), taken mod 2^128 in
  64-bit halves in ``uint64`` arrays, as is the output step;
- ``Generator.integers`` for spans up to 2^32: Lemire's multiply-shift
  (ACM TOMACS 2019) on 32-bit words, the low half of each output first.
  A spare high half is kept for the next draw, as numpy keeps it.

The tests check every layer against numpy's ``Generator``, which this
module must equal bit for bit: pinned report bytes are drawn here.
"""

from __future__ import annotations

import numpy as np

__all__ = ["PCG64"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4
# PCG64's LCG multiplier
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
#: states in one row of a draw
_LANES = 128
#: most 32-bit words one step of a draw decides, which bounds its temporaries
_CHUNK = 1 << 14


def _hash32(value: int, const: int, mult: int) -> tuple[int, int]:
    """One step of SeedSequence's hash: (hashed value, next constant)."""
    following = const * mult & _MASK32
    value = (value ^ const) * following & _MASK32
    return value ^ value >> 16, following


def _seed_state(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as Python ints."""
    if seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}")
    entropy = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    const = _INIT_A
    pool = []
    for i in range(_POOL):
        value, const = _hash32(entropy[i] if i < len(entropy) else 0, const, _MULT_A)
        pool.append(value)

    def mix(dst: int, word: int) -> None:
        nonlocal const
        hashed, const = _hash32(word, const, _MULT_A)
        value = (_MIX_L * pool[dst] - _MIX_R * hashed) & _MASK32
        pool[dst] = value ^ value >> 16

    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mix(dst, pool[src])
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            mix(dst, word)
    const, words = _INIT_B, []
    for i in range(2 * _POOL):
        value, const = _hash32(pool[i % _POOL], const, _MULT_B)
        words.append(value)
    return [words[i] | words[i + 1] << 32 for i in range(0, len(words), 2)]


def _halves(values: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """The low and high 64 bits of 128-bit values, as uint64 arrays."""
    lo = np.array([v & _MASK64 for v in values], dtype=np.uint64)
    return lo, np.array([v >> 64 for v in values], dtype=np.uint64)


def _mul_hi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products a * b of uint64 arrays."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _lane_constants() -> tuple[int, int, list[int], list[int]]:
    """A^L, G_L and the lists A^(i+1), G_(i+1) for the L = _LANES lanes of a row."""
    a, g, powers, sums = 1, 0, [], []
    for _ in range(_LANES):
        a, g = a * _MULT & _MASK128, (g * _MULT + 1) & _MASK128
        powers.append(a)
        sums.append(g)
    return a, g, powers, sums


_ROW_MULT, _ROW_SUM, _LANE_POWERS, _LANE_SUMS = _lane_constants()
_LANE_LO, _LANE_HI = _halves(_LANE_POWERS)


class PCG64:
    """The bit generator of ``np.random.default_rng(seed)`` and its integer draws."""

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = (i0 << 64 | i1) << 1 & _MASK128 | 1
        self._state = ((self._inc + (s0 << 64 | s1)) * _MULT + self._inc) & _MASK128
        self._half: int | None = None
        # lane i of a row adds G_(i+1) inc to A^(i+1) times the row's start
        self._lane_inc = _halves([g * self._inc & _MASK128 for g in _LANE_SUMS])

    def _outputs(self, n: int) -> np.ndarray:
        """The next n >= 1 64-bit outputs."""
        starts, s = [], self._state
        for _ in range(-(-n // _LANES)):
            starts.append(s)
            s = (_ROW_MULT * s + _ROW_SUM * self._inc) & _MASK128
        t_lo, t_hi = (half[:, None] for half in _halves(starts))
        d_lo, d_hi = self._lane_inc
        # A t + d mod 2^128 in 64-bit halves; uint64 products wrap mod 2^64
        lo = _LANE_LO * t_lo + d_lo
        hi = _mul_hi(_LANE_LO, t_lo) + _LANE_HI * t_lo + _LANE_LO * t_hi + d_hi + (lo < d_lo)
        lo, hi = lo.ravel()[:n], hi.ravel()[:n]
        self._state = int(hi[-1]) << 64 | int(lo[-1])
        x, rot = hi ^ lo, hi >> np.uint64(58)
        return x >> rot | x << ((np.uint64(64) - rot) & np.uint64(63))

    def _words(self, n: int) -> np.ndarray:
        """The next n 32-bit words, as uint64: a kept half first, then low before high."""
        head = np.array([] if self._half is None else [self._half], dtype=np.uint64)
        fresh = n - len(head)
        if not fresh:
            self._half = None
            return head
        halves = self._outputs((fresh + 1) // 2).astype("<u8").view("<u4").astype(np.uint64)
        words = np.concatenate([head, halves])
        self._half = int(words[-1]) if fresh % 2 else None
        return words[:n]

    def integers(self, low: int, high: int, count: int) -> np.ndarray:
        """``Generator.integers(low, high, count)`` in int64, for 1 <= high - low <= 2^32.

        A word w gives m = w * span; it is kept, as low + (m >> 32), when
        m's low 32 bits are at least 2^32 mod span, and otherwise the
        next word is tried.  Every word drawn is decided, so a draw asks
        for as many words as it still lacks values until it has them all.
        """
        span = high - low
        if not 1 <= span <= 1 << 32:
            raise ValueError(f"span high - low = {span} is outside [1, 2^32]")
        if span == 1:
            # numpy draws no word for a one-value range
            return np.full(count, low, dtype=np.int64)
        threshold = np.uint64((1 << 32) % span)
        kept: list[np.ndarray] = [np.empty(0, dtype=np.uint64)]
        need = count
        while need:
            m = self._words(min(need, _CHUNK)) * np.uint64(span)
            kept.append(m[(m & np.uint64(_MASK32)) >= threshold] >> np.uint64(32))
            need -= len(kept[-1])
        return np.concatenate(kept).astype(np.int64) + low
