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
import itertools

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


def _finalize(z: np.ndarray) -> np.ndarray:
    """mix64's avalanche steps on a uint64 array, in place."""
    z ^= z >> _U_30
    z *= _U_MUL1
    z ^= z >> _U_27
    z *= _U_MUL2
    z ^= z >> _U_31
    return z


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
        return _finalize(z)

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
        return stream_integers([self], n, bound)[0]

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of range(n); it consumes n - 1 draws."""
        if n < 0:
            raise ValueError(f"permutation: n={n} is negative")
        return shuffles([self], [[range(n)]])[0][0]

    def sample_without_replacement(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), order given by the shuffle."""
        if k < 0:
            raise ValueError(f"sample_without_replacement: k={k} is negative")
        if k > n:
            raise ValueError(f"sample_without_replacement: k={k} exceeds n={n}")
        return self.permutation(n)[:k]


def _draws(streams, used) -> np.ndarray:
    """The next ``used[t]`` raw draws of each stream t, stream after stream,
    from one uint64 pass; each stream ends past its draws."""
    # Draw g of the pass (from 1) is stream t's draw pos_t + g - start_t,
    # so its counter word is g * GOLDEN plus a constant of stream t.
    offsets = [((s._pos - start) * _GOLDEN + s.seed) & _MASK64
               for s, start in zip(streams, itertools.accumulate(used, initial=0))]
    z = np.arange(1, sum(used) + 1, dtype=np.uint64)
    z *= _U_GOLDEN
    z += np.repeat(np.array(offsets, dtype=np.uint64), used)
    for stream, m in zip(streams, used):
        stream._pos += m
    return _finalize(z)


def stream_integers(streams, n: int, bound: int) -> np.ndarray:
    """Stream t's ``integers(n, bound)`` as row t of a (len(streams), n)
    array, with the draws of every stream from one uint64 pass.

    Each row equals that stream's own ``integers`` call, and each stream
    ends where that call would leave it.
    """
    if bound <= 0:
        raise ValueError("integers: bound must be positive")
    draws = _draws(streams, [n] * len(streams)) % np.uint64(bound)
    return draws.astype(np.int64).reshape(len(streams), n)


@functools.lru_cache(maxsize=256)
def _moduli(n: int) -> np.ndarray:
    """The swap moduli of a shuffle of n items: swap i (i = n - 1 down to 1)
    picks modulo i + 1.  Keyed by one shuffle's length, the cache serves
    every domain whose classes take at most a few hundred distinct sizes,
    equal or not."""
    moduli = np.arange(n, 1, -1, dtype=np.uint64)
    moduli.setflags(write=False)
    return moduli


def shuffles(streams, ranges_each) -> list[list[list[int]]]:
    """Stream t's Fisher-Yates shuffle of each range in ``ranges_each[t]``,
    with the swap draws of every stream from one uint64 pass.

    Each stream's shuffles equal its successive ``permutation`` calls,
    offset by each range's start, and each stream ends where they would
    leave it: a shuffle of n items consumes n - 1 draws.
    """
    lens = [[len(r) for r in ranges] for ranges in ranges_each]
    used = [sum(max(n - 1, 0) for n in ns) for ns in lens]
    moduli = np.concatenate([_moduli(n) for ns in lens for n in ns] or [_U_NONE])
    # Python ints: indexing a uint64 array would cost more than the swaps.
    picks = iter((_draws(streams, used) % moduli).tolist())
    out = []
    for ranges in ranges_each:
        shuffled = []
        for r in ranges:
            items = list(r)
            # zip pulls from the range first, so it takes exactly n - 1 picks.
            for i, j in zip(range(len(items) - 1, 0, -1), picks):
                items[i], items[j] = items[j], items[i]
            shuffled.append(items)
        out.append(shuffled)
    return out
