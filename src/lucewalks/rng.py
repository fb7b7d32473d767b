"""Deterministic random streams.

All randomness in the package flows through :class:`RngStream`, a thin wrapper
around numpy's Philox bit generator.  Philox is counter-based, so identical
seeds give identical draw sequences for a fixed numpy version regardless of
platform, and independent substreams can be split off deterministically.
"""

import numpy as np

from .exceptions import PreconditionError, _as_int, _as_ints


def _entropy_seed():
    """A fresh seed in [0, 2**64) from operating-system entropy, for runs given none."""
    return int(np.random.SeedSequence().entropy % (1 << 64))


def _as_size(size):
    """An array ``size``: None (one variate), a count, or a tuple or list of counts."""
    if size is None:
        return None
    if isinstance(size, (tuple, list)):
        return _as_ints(size, "size", 0)
    return _as_int(size, "size", 0)


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
        try:
            self.seed = _as_int(seed, "seed", 0, 2**64 - 1)
        except PreconditionError:
            raise PreconditionError("seed must be an integer in [0, 2**64)") from None
        self._seed_seq = _seed_seq if _seed_seq is not None else np.random.SeedSequence(self.seed)
        self._generator = np.random.Generator(np.random.Philox(self._seed_seq))

    @property
    def generator(self):
        """The underlying numpy Generator."""
        return self._generator

    def random(self, size=None):
        """Uniform variates on [0, 1): one float, or an array of shape ``size``."""
        return self._generator.random(_as_size(size))

    def integers(self, low, high=None, size=None):
        return self._generator.integers(low, high=high, size=_as_size(size))

    def split(self, k):
        """Return ``k`` independent child streams.

        Children are derived from the parent's seed sequence, so the same
        parent seed always yields the same children, in order.
        """
        children = self._seed_seq.spawn(_as_int(k, "k", 1))
        return [RngStream(self.seed, _seed_seq=child) for child in children]

    def __repr__(self):
        return f"RngStream(seed={self.seed})"
