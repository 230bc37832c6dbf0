"""Deterministic random number generation for simulation and initialization.

All randomness in this package flows through :class:`Rng`, a SplitMix64
stream generator, so that every simulated dataset, network draw, and
weight initialization is reproducible bit-for-bit across platforms for a
given seed.  Independent streams (per replication, per method) are
derived with :func:`derive_seed` rather than by partitioning one stream.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

__all__ = ["Rng", "derive_seed", "seed_for"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
# SplitMix64 constants (Steele, Lea & Flood's mixer, as used in Java 8's
# SplittableRandom and xoshiro seeding).
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# most uniforms one Rng.poissons block holds; a larger need is met by refills
_POISSON_BLOCK_CAP = 1 << 14


def derive_seed(base_seed: int, index: int) -> int:
    """Derive an independent 64-bit seed from a base seed and an index.

    Mixes the index through two SplitMix64 rounds so that nearby indices
    give unrelated streams.
    """
    return Rng(Rng(base_seed).next_u64() ^ (index & _MASK64)).next_u64()


def seed_for(name: str, base_seed: int) -> int:
    """Derive a seed keyed by a string label (stable across runs)."""
    h = 0xCBF29CE484222325  # FNV-1a offset basis
    for b in name.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & _MASK64
    return derive_seed(base_seed, h)


class Rng:
    """SplitMix64 stream with uniform and Poisson sampling.

    The Poisson sampler is pinned: the exponential-product method below
    rate 30, Hormann's PTRS transformed rejection at and above 30.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform double in [0, 1) using the top 53 bits."""
        return (self.next_u64() >> 11) * (1.0 / 9007199254740992.0)

    def uniforms(self, k: int) -> np.ndarray:
        """The next k :meth:`uniform` values, bit for bit, as one array.

        SplitMix64 is a counter mixer: the i-th next output is the mix of
        state + i*GOLDEN, so all k are computed at once in uint64 (which
        wraps mod 2**64 like the scalar masks) and the state advances by k.
        The arithmetic is in place because a Shapley node draws
        samples*(q-1) values in one call.
        """
        z = np.arange(1, k + 1, dtype=np.uint64)
        z *= np.uint64(_GOLDEN)
        z += np.uint64(self._state)
        self._state = (self._state + k * _GOLDEN) & _MASK64
        for shift, mult in ((30, _MIX1), (27, _MIX2)):
            z ^= z >> np.uint64(shift)
            z *= np.uint64(mult)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        u = z.astype(np.float64)
        u *= 1.0 / 9007199254740992.0
        return u

    def uniform_signed(self) -> float:
        """Uniform double in (-1, 1); exact zero is redrawn."""
        while True:
            u = 2.0 * self.uniform() - 1.0
            if u != 0.0:
                return u

    def uniforms_signed(self, k: int, guard: int = 0, min_abs: float = 0.0) -> np.ndarray:
        """k draws of :meth:`uniform_signed`, bit for bit, as one array.

        Each of the first ``guard`` entries is also redrawn while its
        magnitude is below ``min_abs``.  The draws come from one
        :meth:`uniforms` block; at the first entry that needs a redraw the
        state is rewound to just before it and the rest of the row is drawn
        one value at a time, so the stream is consumed exactly as by k
        scalar calls.
        """
        v = 2.0 * self.uniforms(k) - 1.0
        redraw = (v == 0.0) | ((np.arange(k) < guard) & (np.abs(v) < min_abs))
        if redraw.any():
            first = int(redraw.argmax())
            self._state = (self._state - (k - first) * _GOLDEN) & _MASK64
            for j in range(first, k):
                u = self.uniform_signed()
                if j < guard:
                    while abs(u) < min_abs:
                        u = self.uniform_signed()
                v[j] = u
        return v

    def poissons(self, rates) -> np.ndarray:
        """One draw of the pinned sampler per rate, in order, as int64.

        Rate 0 reads no uniform.  The uniforms come from :meth:`uniforms`
        blocks, refilled whenever one runs out (also within a draw), and
        the state is rewound by the count left unread, so draws and final
        state equal those of one rate at a time from scalar uniforms.
        """
        lams = np.asarray(rates, dtype=np.float64)
        bad = ~np.isfinite(lams) | (lams < 0.0)
        if bad.any():
            lam = float(lams[bad.argmax()])
            raise ValueError(f"Poisson rate must be finite and >= 0, got {lam}")
        small = lams[lams < 30.0]
        # the product branch reads lam + 1 uniforms on average, PTRS 2.2 to 2.4
        size = min(_POISSON_BLOCK_CAP,
                   small.size + int(small.sum()) + 3 * (lams.size - small.size) + 64)
        block = None

        def blocks():
            nonlocal block
            while True:
                block = iter(self.uniforms(size).tolist())
                yield block

        uniform = chain.from_iterable(blocks()).__next__
        draws = []
        for lam in lams.tolist():
            if lam == 0.0:
                k = 0
            elif lam < 30.0:
                # Knuth: count uniforms until their product drops below exp(-lam).
                limit = math.exp(-lam)
                k = 0
                prod = uniform()
                while prod > limit:
                    k += 1
                    prod *= uniform()
            else:
                k = _poisson_ptrs(lam, uniform)
            draws.append(k)
        if block is not None:
            self._state = (self._state - block.__length_hint__() * _GOLDEN) & _MASK64
        return np.array(draws, dtype=np.int64)


def _poisson_ptrs(lam: float, uniform) -> int:
    # Hormann (1993) PTRS transformed rejection, valid for lam >= 10.
    log_lam = math.log(lam)
    b = 0.931 + 2.53 * math.sqrt(lam)
    a = -0.059 + 0.02483 * b
    inv_alpha = 1.1239 + 1.1328 / (b - 3.4)
    v_r = 0.9277 - 3.6224 / (b - 2.0)
    while True:
        u = uniform() - 0.5
        v = uniform()
        us = 0.5 - abs(u)
        k = math.floor((2.0 * a / us + b) * u + lam + 0.43)
        if us >= 0.07 and v <= v_r:
            return int(k)
        if k < 0 or (us < 0.013 and v > us):
            continue
        lhs = math.log(v * inv_alpha / (a / (us * us) + b))
        if lhs <= k * log_lam - lam - math.lgamma(k + 1.0):
            return int(k)
