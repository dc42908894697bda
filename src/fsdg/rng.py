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

import functools

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


@functools.lru_cache(maxsize=1024)
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


# mix64's constants for bulk draws; uint64 array arithmetic wraps mod 2^64.
_U_GOLDEN = np.uint64(_GOLDEN)
_U_MUL1 = np.uint64(0xBF58476D1CE4B5B9)
_U_MUL2 = np.uint64(0x94D049BB133111EB)
_U_30, _U_27, _U_31, _U_11 = np.uint64(30), np.uint64(27), np.uint64(31), np.uint64(11)
_U_NONE = np.zeros(0, dtype=np.uint64)


@functools.lru_cache(maxsize=256)
def _box_muller_plan(ns: tuple[int, ...]) -> tuple[int, np.ndarray | slice, tuple[int, ...]]:
    """For ``normals_each(ns)``: how many uniforms the calls consume, the
    order that puts every call's radius uniforms before every call's angle
    uniforms (for one call, the draw's own order), and where each call's
    Gaussians start in the interleaved output."""
    radii, angles, starts = [], [], []
    pos = 0
    for n in ns:
        m = (n + 1) // 2
        radii.extend(range(pos, pos + m))
        angles.extend(range(pos + m, pos + 2 * m))
        starts.append(pos)
        pos += 2 * m
    if len(ns) <= 1:
        return pos, slice(None), tuple(starts)
    gather = np.array(radii + angles, dtype=np.intp)
    gather.setflags(write=False)
    return pos, gather, tuple(starts)


class RngStream:
    """A counter-based random stream with named substreams."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._pos = 0

    def substream(self, label: str, index: int = 0) -> "RngStream":
        """Child stream keyed by (this seed, label, index); position-free."""
        return RngStream(derive_seed(self.seed, label, index))

    def _raw(self, n: int) -> np.ndarray:
        # mix64 of seed + i * GOLDEN for the next n positions i, in place.
        z = np.arange(self._pos + 1, self._pos + n + 1, dtype=np.uint64)
        self._pos += n
        z *= _U_GOLDEN
        z += np.uint64(self.seed)
        z ^= z >> _U_30
        z *= _U_MUL1
        z ^= z >> _U_27
        z *= _U_MUL2
        z ^= z >> _U_31
        return z

    def uniforms(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1]; 53-bit mantissas, never exactly 0."""
        return ((self._raw(n) >> _U_11).astype(np.float64) + 1.0) * 2.0**-53

    def normals(self, n: int) -> np.ndarray:
        """n standard Gaussians via Box-Muller on consecutive uniform pairs."""
        return self.normals_each((n,))[0]

    def normals_each(self, ns) -> list[np.ndarray]:
        """One array of n standard Gaussians per n in ``ns``, from one draw.

        Equal to successive ``normals(n)`` calls, and leaves the stream
        where they would: a call of n consumes ``2 * ceil(n / 2)`` uniforms,
        the first half radii and the second half angles of its pairs.
        """
        ns = tuple(ns)
        total, gather, starts = _box_muller_plan(ns)
        v = self.uniforms(total)[gather]
        m = total // 2
        r = np.sqrt(-2.0 * np.log(v[:m]))
        theta = 2.0 * np.pi * v[m:]
        out = np.empty(2 * m)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return [out[s:s + n] for s, n in zip(starts, ns)]

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
        # Every swap index draw % (i + 1) from one uint64 array op, then
        # Python ints: indexing a uint64 array would cost more than the swaps.
        moduli = np.concatenate([np.arange(n, 1, -1, dtype=np.uint64) for n in ns] or [_U_NONE])
        picks = iter((self._raw(moduli.size) % moduli).tolist())
        out = []
        for n in ns:
            items = list(range(n))
            # zip pulls from the range first, so it takes exactly n - 1 picks.
            for i, j in zip(range(n - 1, 0, -1), picks):
                items[i], items[j] = items[j], items[i]
            out.append(items)
        return out

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), order given by the shuffle."""
        if k > n:
            raise ValueError(f"sample_without_replacement: k={k} exceeds n={n}")
        return self.permutation(n)[:k]
