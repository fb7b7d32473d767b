"""Deterministic random streams.

All randomness in the package flows through :class:`RngStream`, a thin wrapper
around numpy's Philox bit generator.  Philox is counter-based, so identical
seeds give identical draw sequences for a fixed numpy version regardless of
platform, and independent substreams can be split off deterministically.
"""

import numpy as np

from .exceptions import PreconditionError


def _entropy_seed():
    """A fresh seed in [0, 2**64) from operating-system entropy, for runs given none."""
    return int(np.random.SeedSequence().entropy % (1 << 64))


class RngStream:
    """Seedable, splittable source of uniform variates.

    Parameters
    ----------
    seed : int
        Seed in [0, 2**64).  The seed is retained on the instance so callers
        (for example the CLI manifest) can log it.
    """

    __slots__ = ("seed", "_seed_seq", "_generator")

    def __init__(self, seed, _seed_seq=None):
        seed = int(seed)
        if not 0 <= seed < 2**64:
            raise PreconditionError("seed must be an integer in [0, 2**64)")
        self.seed = seed
        self._seed_seq = _seed_seq if _seed_seq is not None else np.random.SeedSequence(seed)
        self._generator = np.random.Generator(np.random.Philox(self._seed_seq))

    @property
    def generator(self):
        """The underlying numpy Generator."""
        return self._generator

    def random(self, size=None):
        """Uniform variates on [0, 1)."""
        return self._generator.random(size)

    def integers(self, low, high=None, size=None):
        return self._generator.integers(low, high=high, size=size)

    def split(self, k):
        """Return ``k`` independent child streams.

        Children are derived from the parent's seed sequence, so the same
        parent seed always yields the same children, in order.
        """
        if k < 1:
            raise PreconditionError("k must be at least 1")
        return [RngStream(self.seed, _seed_seq=child) for child in self._seed_seq.spawn(k)]

    def __repr__(self):
        return f"RngStream(seed={self.seed})"
