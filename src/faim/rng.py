"""Deterministic counter-based random number generator.

The generator is SplitMix64 used in counter mode: draw ``i`` of a stream
seeded with ``s`` is ``mix64(s + (i+1)*GOLDEN)`` where ``mix64`` is the
SplitMix64 finalizer.  Because every draw is a pure function of
``(seed, counter)`` the stream is reproducible bit-for-bit on any platform,
independent of numpy version, and cheap to vectorize.

Substreams are derived with :func:`derive_seed`, which folds arbitrary
string/int tags into a new 64-bit seed through the same mixing function.
Every stochastic choice in the package (parameter init, mask plans, batch
shuffling, synthetic data, noise injection) goes through this module.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64 = np.uint64


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer, elementwise on uint64 arrays (wrapping)."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> _U64(30))) * _MIX1
        z = (z ^ (z >> _U64(27))) * _MIX2
        return z ^ (z >> _U64(31))


def derive_seed(*parts: int | str) -> int:
    """Fold ints and strings into a 64-bit substream seed, deterministically."""
    state = _U64(0x5AF1D89A0D3C2E1B)
    with np.errstate(over="ignore"):
        for part in parts:
            if isinstance(part, str):
                data = part.encode("utf-8")
                for i in range(0, len(data), 8):
                    chunk = int.from_bytes(data[i : i + 8], "little")
                    state = _mix64(state ^ _U64(chunk))
            else:
                state = _mix64(state ^ _U64(int(part) & 0xFFFFFFFFFFFFFFFF))
    return int(state)


class CounterRng:
    """Stateful view over the counter-based stream for one seed."""

    def __init__(self, seed: int):
        self.seed = _U64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._counter = 0

    def _next_block(self, n: int) -> np.ndarray:
        idx = np.arange(self._counter + 1, self._counter + n + 1, dtype=np.uint64)
        self._counter += n
        with np.errstate(over="ignore"):
            return _mix64(self.seed + idx * _GOLDEN)

    def uniform(self, shape=(), low: float = 0.0, high: float = 1.0) -> np.ndarray:
        """Uniform float64 in [low, high), 53-bit mantissa resolution."""
        n = int(np.prod(shape)) if shape else 1
        u = (self._next_block(n) >> _U64(11)).astype(np.float64) * 2.0**-53
        out = low + (high - low) * u
        return out.reshape(shape) if shape else float(out[0])

    def normal(self, shape=(), mean: float = 0.0, std: float = 1.0) -> np.ndarray:
        """Standard normal via Box-Muller (fixed draw count, no rejection)."""
        n = int(np.prod(shape)) if shape else 1
        u1 = (self._next_block(n) >> _U64(11)).astype(np.float64) * 2.0**-53
        u2 = (self._next_block(n) >> _U64(11)).astype(np.float64) * 2.0**-53
        z = np.sqrt(-2.0 * np.log1p(-u1)) * np.cos(2.0 * np.pi * u2)
        out = mean + std * z
        return out.reshape(shape) if shape else float(out[0])

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n) by sorting random keys."""
        return self.permutations(1, n)[0]

    def permutations(self, rows: int, n: int) -> np.ndarray:
        """[rows, n] permutations of range(n), the same as ``rows`` calls of
        :meth:`permutation` in a row: each row sorts the next n keys."""
        keys = self._next_block(rows * n).reshape(rows, n)
        return np.argsort(keys, axis=-1, kind="stable")

    def spawn(self, *tags: int | str) -> "CounterRng":
        """Independent substream derived from this seed plus tags."""
        return CounterRng(derive_seed(int(self.seed), *tags))
