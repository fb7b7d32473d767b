"""The Luce model: sequential weighted sampling without replacement.

A weight vector (theta_1, ..., theta_n) assigns each label a strictly
positive weight.  Balls are drawn one at a time, each draw picking an
undrawn label with probability proportional to its weight; the resulting
draw order is a random permutation sigma with

    P(sigma) = prod_j theta_{sigma(j)} / (remaining weight before draw j).

sigma(1) is always the first label drawn.  The same distribution arises by
attaching independent Exponential(theta_i) clocks to the labels and sorting
them in increasing order.  Every sampler here draws orders by that race,
and the topk/bottomk modules compute with it.

Weights are accepted unnormalized everywhere; when an operation needs a
probability vector, normalization is the caller's explicit step.
"""

import itertools
import math

import numpy as np

from . import kernels
from .exceptions import PreconditionError, _as_int, _as_ints
from .rng import RngStream

__all__ = [
    "WeightVector",
    "Permutation",
    "RngStream",
    "luce_pmf",
    "normalize",
    "restrict",
    "sukhatme_weights",
    "bruhat_covers",
    "sample_urn",
    "sample_urn_many",
    "sample_exponential",
    "sample_exponential_many",
    "sample_spacings",
    "sample_spacings_many",
    "all_permutations",
    "permutation_rank_many",
]


class WeightVector:
    """Strictly positive, finite weights with a finite total, for labels 1..n.

    The array is stored immutably; ``weights[i]`` is the weight of label
    ``i + 1``.  ``total`` is cached at construction (the array cannot change
    afterwards, so the cache stays consistent).
    """

    __slots__ = ("_weights", "_total")

    def __init__(self, weights):
        arr = np.array(weights, dtype=np.float64, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise PreconditionError("weights must be a nonempty one-dimensional sequence")
        if not np.all(np.isfinite(arr)):
            raise PreconditionError("weights must be finite")
        if np.any(arr <= 0.0):
            raise PreconditionError("weights must be strictly positive")
        with np.errstate(over="ignore"):
            self._total = float(arr.sum())
        if not math.isfinite(self._total):
            raise PreconditionError("weights must have a finite total")
        arr.flags.writeable = False
        self._weights = arr

    @property
    def weights(self):
        return self._weights

    @property
    def n(self):
        return self._weights.size

    @property
    def total(self):
        return self._total

    def __len__(self):
        return self._weights.size

    def __eq__(self, other):
        if not isinstance(other, WeightVector):
            return NotImplemented
        return np.array_equal(self._weights, other._weights)

    def __repr__(self):
        return f"WeightVector({self._weights.tolist()!r})"


class Permutation:
    """A permutation of 1..n in draw order: ``p(j)`` is the j-th label drawn."""

    __slots__ = ("_mapping",)

    def __init__(self, mapping):
        m = _as_ints(mapping, "permutation entry")
        if sorted(m) != list(range(1, len(m) + 1)):
            raise PreconditionError(f"not a permutation of 1..{len(m)}: {m}")
        self._mapping = m

    @classmethod
    def identity(cls, n):
        return cls(range(1, _as_int(n, "n", 0) + 1))

    @property
    def mapping(self):
        return self._mapping

    @property
    def n(self):
        return len(self._mapping)

    def __call__(self, j):
        """sigma(j) for 1-based position j."""
        return self._mapping[_as_int(j, "position", 1, len(self._mapping)) - 1]

    def inverse(self):
        inv = [0] * len(self._mapping)
        for pos, lab in enumerate(self._mapping, start=1):
            inv[lab - 1] = pos
        return Permutation(inv)

    def __iter__(self):
        return iter(self._mapping)

    def __len__(self):
        return len(self._mapping)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._mapping == other._mapping

    def __hash__(self):
        return hash(self._mapping)

    def __repr__(self):
        return f"Permutation({self._mapping!r})"


def as_weight_vector(w):
    return w if isinstance(w, WeightVector) else WeightVector(w)


def as_permutation(sigma):
    return sigma if isinstance(sigma, Permutation) else Permutation(sigma)


def luce_pmf(w, sigma):
    """Probability of drawing the labels in exactly the order ``sigma``."""
    w = as_weight_vector(w)
    sigma = as_permutation(sigma)
    if sigma.n != w.n:
        raise PreconditionError(f"permutation has n={sigma.n} but weights have n={w.n}")
    pw = w.weights[np.asarray(sigma.mapping) - 1]
    # denominator of draw j is the total weight still in the urn, which is
    # the suffix sum of the permuted weights
    denoms = np.cumsum(pw[::-1])[::-1]
    return float(np.prod(pw / denoms))


def normalize(w):
    """Rescale so the weights sum to one."""
    w = as_weight_vector(w)
    return WeightVector(w.weights / w.total)


def _check_labels(labels, n, distinct=True):
    """``labels`` as a nonempty tuple of ints in 1..n, distinct unless ``distinct`` is false."""
    labels = _as_ints(labels, "label", 1, n)
    if not labels:
        raise PreconditionError("labels must be nonempty")
    if distinct and len(set(labels)) != len(labels):
        raise PreconditionError("labels must be distinct")
    return labels


def _check_tol(tol):
    """A tolerance must be a positive number; zero, negative and NaN values raise."""
    if not tol > 0:
        raise PreconditionError(f"tol must be positive, got {tol!r}")


def restrict(w, subset):
    """Weights of a subset of labels, in the order given.

    Sampling restricted weights reproduces the relative draw order of the
    subset under the full model (irrelevance of the other labels).
    """
    w = as_weight_vector(w)
    idx = _check_labels(subset, w.n)
    return WeightVector(w.weights[np.asarray(idx) - 1])


def sukhatme_weights(n, orientation="descending"):
    """Integer weights n..1 (descending) or 1..n (ascending), unnormalized."""
    n = _as_int(n, "n", 1)
    if orientation == "descending":
        return WeightVector(np.arange(n, 0, -1, dtype=np.float64))
    if orientation == "ascending":
        return WeightVector(np.arange(1, n + 1, dtype=np.float64))
    raise PreconditionError(f"orientation must be 'descending' or 'ascending', got {orientation!r}")


def bruhat_covers(sigma):
    """Permutations reached from ``sigma`` by transposing one adjacent ascent.

    These are the elements covered by ``sigma`` in the weak order: each has
    one more inversion.  For weights sorted in decreasing order the pmf can
    only drop along such a step, so the identity is the mode and the
    reversal the antimode.
    """
    sigma = as_permutation(sigma)
    m = list(sigma.mapping)
    out = []
    for i in range(len(m) - 1):
        if m[i] < m[i + 1]:
            swapped = m.copy()
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            out.append(Permutation(swapped))
    return out


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _race_rows(w, size, rng, order):
    """``size`` rows of 1-based draw orders: ``order`` of the weights and a uniform per cell."""
    w = as_weight_vector(w)
    size = _as_int(size, "size", 0)
    out = order(w.weights, rng.random((size, w.n)))
    out += 1
    return out


def sample_urn_many(w, size, rng, method="auto"):
    """Draw ``size`` independent permutations by sequential urn draws.

    Returns an (size, n) int64 array of 1-based labels in draw order.
    Every ``method`` (``auto``, ``scan`` or ``tree``) runs the exponential
    race, which has exactly the urn's law; the names are kept as aliases.
    """
    if method not in ("auto", "scan", "tree"):
        raise PreconditionError(f"unknown method {method!r}")
    order = kernels._race_order if method == "tree" else kernels.weighted_order_many
    return _race_rows(w, size, rng, order)


def sample_urn(w, rng):
    """One permutation from the urn scheme."""
    return Permutation(sample_urn_many(w, 1, rng)[0])


def sample_exponential_many(w, size, rng):
    """Draw permutations by sorting independent exponential clocks.

    X_i = -log(U_i) / theta_i; the draw order is the ascending sort of the
    clocks, ties broken toward the smaller label.
    """
    return _race_rows(w, size, rng, kernels._race_order)


def sample_exponential(w, rng):
    return Permutation(sample_exponential_many(w, 1, rng)[0])


def sample_spacings_many(n, size, rng):
    """Spacings of n sorted standard exponentials, ``size`` independent rows.

    Row entries are Y_(1), Y_(2)-Y_(1), ..., Y_(n)-Y_(n-1); the j-th spacing
    (1-based) is distributed as Exponential(1)/(n - j + 1).
    """
    n, size = _as_int(n, "n", 1), _as_int(size, "size", 0)
    y = -np.log(rng.random((size, n)))
    y.sort(axis=1)
    return np.diff(y, axis=1, prepend=0.0)


def sample_spacings(n, rng):
    return sample_spacings_many(n, 1, rng)[0]


# ---------------------------------------------------------------------------
# enumeration helpers
# ---------------------------------------------------------------------------

def all_permutations(n):
    """All of S_n in lexicographic order."""
    n = _as_int(n, "n", 1, 10)
    return [Permutation(p) for p in itertools.permutations(range(1, n + 1))]


def permutation_rank_many(perms):
    """Lexicographic ranks of an array of 1-based permutation rows.

    Vectorized Lehmer encoding; handy for histogramming sampler output
    against the n! pmf values in ``all_permutations`` order.  Each row must
    hold the integers 1..n, n at most 20; integral floats count.
    """
    a = np.atleast_2d(perms)
    n = _as_int(a.shape[-1], "permutation length", 0, 20)  # 21! passes int64
    if a.ndim != 2 or a.dtype.kind not in "iuf" or \
            not np.array_equal(np.sort(a, axis=1), np.broadcast_to(np.arange(1, n + 1), a.shape)):
        raise PreconditionError(f"rows must be permutations of 1..{n}")
    a = a.astype(np.int64)
    fact = [math.factorial(i) for i in range(n)]
    ranks = np.zeros(a.shape[0], dtype=np.int64)
    for i in range(n - 1):
        smaller_later = np.sum(a[:, i + 1:] < a[:, i:i + 1], axis=1)
        ranks += smaller_later * fact[n - 1 - i]
    return ranks
