"""Distances between the first k draws and independent sampling.

Let P be the law of the first k labels drawn without replacement and Q the
law of k independent draws from the same (normalized) weights.  This module
computes the prefix probabilities, the sup-ratio distance

    d_inf(P, Q) = max over ordered prefixes of 1 - Q(prefix) / P(prefix),

its exponential upper bound, the exact total variation via the birthday
identity  TV = 1 - k! e_k(theta),  and the Poisson collision approximation
TV ~ 1 - exp(-lambda) with lambda = C(k,2) sum theta_i^2.

All operations here require normalized weights (sum within 1e-9 of one);
use :func:`lucewalks.normalize` first, the functions never rescale silently.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import as_weight_vector
from .exceptions import PreconditionError

__all__ = [
    "prefix_prob_p",
    "prefix_prob_q",
    "d_inf_exact",
    "d_inf_bound",
    "elementary_symmetric",
    "tv_exact",
    "tv_uniform_exact",
    "collision_lambda",
    "tv_poisson_approx",
    "second_card_marginal",
    "DistanceReport",
    "distance_report",
]

NORMALIZATION_TOL = 1e-9


def _require_normalized(w):
    if abs(w.total - 1.0) > NORMALIZATION_TOL:
        raise PreconditionError(
            f"weights must sum to 1 within {NORMALIZATION_TOL:g} (got {w.total!r}); "
            "call normalize() explicitly"
        )


def _check_prefix(w, labels, distinct=False):
    labels = tuple(int(a) for a in labels)
    if len(labels) == 0:
        raise PreconditionError("prefix must be nonempty")
    for a in labels:
        if not 1 <= a <= w.n:
            raise PreconditionError(f"label {a} out of range 1..{w.n}")
    if distinct and len(set(labels)) != len(labels):
        raise PreconditionError("labels must be distinct")
    return labels


def prefix_prob_p(w, labels):
    """P(first k draws are exactly ``labels``, in order); 0 on repeats."""
    w = as_weight_vector(w)
    _require_normalized(w)
    labels = _check_prefix(w, labels)
    if len(set(labels)) != len(labels):
        return 0.0
    th = w.weights[np.asarray(labels) - 1]
    partial = np.cumsum(th)
    denom = np.prod(1.0 - partial[:-1]) if len(labels) > 1 else 1.0
    return float(np.prod(th) / denom)


def prefix_prob_q(w, labels):
    """Q(k independent draws are exactly ``labels``, in order)."""
    w = as_weight_vector(w)
    _require_normalized(w)
    labels = _check_prefix(w, labels)
    return float(np.prod(w.weights[np.asarray(labels) - 1]))


def d_inf_exact(w, k):
    """Exact sup-ratio distance for the k-prefix.

    On distinct prefixes 1 - Q/P = 1 - prod_{j<k} (1 - S_j) with S_j the
    j-th partial sum; the maximizer greedily takes the k-1 heaviest labels
    in decreasing order, which gives the closed form evaluated here.
    """
    w = as_weight_vector(w)
    _require_normalized(w)
    if not 1 <= k <= w.n:
        raise PreconditionError(f"k must be in 1..{w.n}")
    if k == 1:
        return 0.0
    heaviest = np.sort(w.weights)[::-1][: k - 1]
    partial = np.cumsum(heaviest)
    return 1.0 - float(np.prod(1.0 - partial))


def d_inf_bound(w, k):
    """Exponential upper bound 1 - exp(-2 sum_{j<k} (k-j) theta_(j)).

    Weights above 1/2 raise; the formula is never reported for them.  The
    derivation replaces each log(1 - S_j) by -2 S_j, which is only valid
    while the partial sums of the k-1 heaviest weights stay at most 1/2,
    so domination over :func:`d_inf_exact` is guaranteed in that regime
    and can fail outside it (e.g. (0.5, 0.49, 0.01) with k = 3).
    """
    w = as_weight_vector(w)
    _require_normalized(w)
    if not 1 <= k <= w.n:
        raise PreconditionError(f"k must be in 1..{w.n}")
    if float(np.max(w.weights)) > 0.5:
        raise PreconditionError("bound requires every weight <= 1/2")
    if k == 1:
        return 0.0
    heaviest = np.sort(w.weights)[::-1][: k - 1]
    coeffs = np.arange(k - 1, 0, -1, dtype=np.float64)
    s = float(np.dot(coeffs, heaviest))
    return -math.expm1(-2.0 * s)


def _symmetric_recurrence(weights, k, coef, dtype):
    """c_k of c_j <- c_j + coef_j theta c_{j-1} over the weights: e_k for coef 1, k! e_k for j."""
    c = np.zeros(k + 1, dtype=dtype)
    c[0] = 1.0
    for th in weights:
        c[1:] = c[1:] + (coef * th) * c[:-1]
    return float(c[k])


def elementary_symmetric(weights, k):
    """e_k of the weights by the triangular recurrence.

    Accepts raw (unnormalized) values.  Accumulates in extended precision
    once n exceeds 1000 to keep long products honest.
    """
    arr = weights.weights if hasattr(weights, "weights") else np.asarray(weights, dtype=np.float64)
    n = arr.size
    if not 0 <= k <= n:
        raise PreconditionError(f"k must be in 0..{n}")
    if k == 0:
        return 1.0
    return _symmetric_recurrence(arr, k, 1, np.longdouble if n > 1000 else np.float64)


def tv_exact(w, k):
    """Exact total variation 1 - k! e_k(theta).

    Computed with the rescaled recurrence on r_j = j! e_j, whose values stay
    in [0, 1] for normalized weights, so n = 10^4 and beyond do not underflow.
    """
    w = as_weight_vector(w)
    _require_normalized(w)
    if not 1 <= k <= w.n:
        raise PreconditionError(f"k must be in 1..{w.n}")
    tv = 1.0 - _symmetric_recurrence(w.weights, k, np.arange(1, k + 1, dtype=np.float64),
                                     np.float64)
    if tv < -1e-9:
        raise PreconditionError(f"k! e_k exceeded 1 by {-tv:g}; weights not normalized?")
    return min(max(tv, 0.0), 1.0)


def tv_uniform_exact(n, k):
    """Closed form for equal weights: 1 - n! / ((n-k)! n^k), in log space."""
    if not 1 <= k <= n:
        raise PreconditionError(f"k must be in 1..{n}")
    log_p = sum(math.log1p(-j / n) for j in range(k))
    return -math.expm1(log_p)


def collision_lambda(w, k):
    """Expected number of colliding pairs among k independent draws."""
    w = as_weight_vector(w)
    _require_normalized(w)
    if k < 1:
        raise PreconditionError("k must be at least 1")
    return math.comb(k, 2) * float(np.sum(w.weights**2))


def tv_poisson_approx(lam):
    """Poissonized collision estimate 1 - exp(-lambda)."""
    if lam < 0:
        raise PreconditionError("lambda must be nonnegative")
    return -math.expm1(-lam)


def second_card_marginal(w, label):
    """P(second draw is ``label``) = theta_b sum_{i != b} theta_i / (1 - theta_i)."""
    w = as_weight_vector(w)
    _require_normalized(w)
    b = int(label)
    if not 1 <= b <= w.n:
        raise PreconditionError(f"label {b} out of range 1..{w.n}")
    th = w.weights
    mask = np.arange(w.n) != b - 1
    return float(th[b - 1] * np.sum(th[mask] / (1.0 - th[mask])))


@dataclass(frozen=True)
class DistanceReport:
    """Bundle of the k-prefix distance diagnostics.

    ``d_inf_exact`` may be None when the caller skipped it; every other
    field is required.  Values are validated: probabilities in [0, 1],
    lambda nonnegative, and tv_exact never exceeds d_inf_exact.
    """

    k: int
    d_inf_exact: float | None
    d_inf_bound: float
    tv_exact: float
    collision_lambda: float
    tv_poisson: float

    def __post_init__(self):
        for name in ("d_inf_bound", "tv_exact", "tv_poisson"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise PreconditionError(f"{name} must lie in [0, 1], got {v!r}")
        if self.collision_lambda < 0.0:
            raise PreconditionError("collision_lambda must be nonnegative")
        if self.d_inf_exact is not None:
            if not 0.0 <= self.d_inf_exact <= 1.0:
                raise PreconditionError("d_inf_exact must lie in [0, 1]")
            if self.tv_exact > self.d_inf_exact + 1e-12:
                raise PreconditionError("tv_exact cannot exceed d_inf_exact")

    def to_dict(self):
        return {
            "k": self.k,
            "d_inf_exact": self.d_inf_exact,
            "d_inf_bound": self.d_inf_bound,
            "tv_exact": self.tv_exact,
            "lambda": self.collision_lambda,
            "tv_poisson": self.tv_poisson,
        }


def distance_report(w, k):
    """Compute every diagnostic at once (bound precondition applies)."""
    w = as_weight_vector(w)
    lam = collision_lambda(w, k)
    return DistanceReport(
        k=int(k),
        d_inf_exact=d_inf_exact(w, k),
        d_inf_bound=d_inf_bound(w, k),
        tv_exact=tv_exact(w, k),
        collision_lambda=lam,
        tv_poisson=tv_poisson_approx(lam),
    )
