"""Deterministic splittable random streams.

Every stream is a counter keyed by a 64-bit seed: draw i is the SplitMix64
finalizer applied to seed + (i + 1) * GOLDEN, so a stream is a pure function
of (seed, position) and never depends on process state.  Substreams derive a
fresh seed by mixing the parent seed with a label hash and an index, which
makes nested splits (per iteration, per trial, per domain) reproducible and
order independent.

Gaussians come from the Box-Muller transform on pairs of uniforms.  A call
``normals(n)`` always consumes ``2 * ceil(n / 2)`` uniforms; nothing is
cached between calls, so the stream position after a call is independent of
how earlier outputs were used.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(value: int) -> int:
    """SplitMix64 finalizer: a bijective avalanche mix of one 64-bit word."""
    z = value & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def label_hash(text: str) -> int:
    """FNV-1a hash of a stream label, pinned to 64 bits."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(*parts: int | str) -> int:
    """Fold seed components (ints or labels) into one 64-bit seed."""
    acc = 0
    for part in parts:
        word = label_hash(part) if isinstance(part, str) else part & _MASK64
        acc = mix64((acc + _GOLDEN) ^ word)
    return acc


# Vectorized copy of mix64 for bulk draws; uint64 arithmetic wraps mod 2^64.
def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4B5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class RngStream:
    """A counter-based random stream with named substreams."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._pos = 0

    def substream(self, label: str, index: int = 0) -> "RngStream":
        """Child stream keyed by (this seed, label, index); position-free."""
        return RngStream(derive_seed(self.seed, label, index))

    def _raw(self, n: int) -> np.ndarray:
        idx = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        with np.errstate(over="ignore"):
            state = np.uint64(self.seed) + idx * np.uint64(_GOLDEN)
            return _mix64_array(state)

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1]; 53-bit mantissas, never exactly 0."""
        return ((self._raw(n) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard Gaussians via Box-Muller on consecutive uniform pairs."""
        if n == 0:
            return np.zeros(0)
        m = (n + 1) // 2
        u = self.uniforms(2 * m)
        r = np.sqrt(-2.0 * np.log(u[:m]))
        theta = 2.0 * np.pi * u[m:]
        out = np.empty(2 * m)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n ints uniform on [0, bound); bias is O(bound / 2^64), negligible."""
        if bound <= 0:
            raise ValueError("integers: bound must be positive")
        return (self._raw(n) % np.uint64(bound)).astype(np.int64)

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of range(n)."""
        return self.permutations((n,))[0]

    def permutations(self, ns) -> list[list[int]]:
        """One shuffle of range(n) per n in ``ns``, from one bulk draw.

        Equal to successive ``permutation(n)`` calls, and leaves the stream
        where they would: a shuffle of n items consumes n - 1 draws.
        """
        # Python ints: indexing a uint64 array and mixing in np.uint64
        # scalars would cost more than the shuffle itself.
        draws = iter(self._raw(sum(n - 1 for n in ns if n > 1)).tolist())
        out = []
        for n in ns:
            items = list(range(n))
            # zip pulls from the range first, so it takes exactly n - 1 draws.
            for i, d in zip(range(n - 1, 0, -1), draws):
                j = d % (i + 1)
                items[i], items[j] = items[j], items[i]
            out.append(items)
        return out

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), order given by the shuffle."""
        if k > n:
            raise ValueError(f"sample_without_replacement: k={k} exceeds n={n}")
        return self.permutation(n)[:k]
