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

from .core import _check_labels, as_weight_vector
from .exceptions import PreconditionError, _as_int

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


def _normalized(w):
    """``w`` as a WeightVector that must sum to 1 within ``NORMALIZATION_TOL``; never rescaled."""
    w = as_weight_vector(w)
    if abs(w.total - 1.0) > NORMALIZATION_TOL:
        raise PreconditionError(
            f"weights must sum to 1 within {NORMALIZATION_TOL:g} (got {w.total!r}); "
            "call normalize() explicitly"
        )
    return w


def prefix_prob_p(w, labels):
    """P(first k draws are exactly ``labels``, in order); 0 on repeats."""
    w = _normalized(w)
    labels = _check_labels(labels, w.n, distinct=False)
    if len(set(labels)) != len(labels):
        return 0.0
    th = w.weights[np.asarray(labels) - 1]
    partial = np.cumsum(th)
    return float(np.prod(th) / np.prod(1.0 - partial[:-1]))


def prefix_prob_q(w, labels):
    """Q(k independent draws are exactly ``labels``, in order)."""
    w = _normalized(w)
    labels = _check_labels(labels, w.n, distinct=False)
    return float(np.prod(w.weights[np.asarray(labels) - 1]))


def d_inf_exact(w, k):
    """Exact sup-ratio distance for the k-prefix.

    On distinct prefixes 1 - Q/P = 1 - prod_{j<k} (1 - S_j) with S_j the
    j-th partial sum; the maximizer greedily takes the k-1 heaviest labels
    in decreasing order, which gives the closed form evaluated here.
    """
    w = _normalized(w)
    k = _as_int(k, "k", 1, w.n)
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
    w = _normalized(w)
    k = _as_int(k, "k", 1, w.n)
    if float(np.max(w.weights)) > 0.5:
        raise PreconditionError("bound requires every weight <= 1/2")
    heaviest = np.sort(w.weights)[::-1][: k - 1]
    coeffs = np.arange(k - 1, 0, -1, dtype=np.float64)
    s = float(np.dot(coeffs, heaviest))
    return -math.expm1(-2.0 * s)


BLOCK = 1024  # weights per block; a power of two, so equal weights scale to exactly 1/BLOCK


def _block_polynomials(theta, m, coef):
    """Row b: c_0..c_m of c_j <- c_j + coef_j theta_t c_{j-1} over row b of theta.

    One numpy step per column runs every row at once.  Before step m, step
    t touches only degrees up to t + 1; the rest are still zero.
    """
    c = np.zeros((theta.shape[0], m + 1), dtype=theta.dtype)
    c[:, 0] = 1.0
    coef, lower, upper = coef[:m], c[:, :-1], c[:, 1:]
    for t, column in enumerate(np.ascontiguousarray(theta.T)[:, :, None]):
        if t < m:
            c[:, 1:t + 2] += (coef[:t + 1] * column) * c[:, :t + 1]
        else:
            upper += (coef * column) * lower
    return c


def _log_binomial_parts(log_fact, log_p, log_q, m):
    """Rows x, y with log C(j,i) p^i q^(j-i) = x[j] + y[i] - log (j-i)!, for i, j <= m.

    x[j] = log j! + j log q and y[i] = i log(p/q) - log i!, one row per pair.
    """
    j = np.arange(m + 1)
    x = log_fact[:m + 1] + log_q[:, None] * j
    y = (log_p - log_q)[:, None] * j - log_fact[:m + 1]
    return x, y


def _merge_pairs(a, b, m, log_fact=None, log_p=None, log_q=None):
    """Row r: degrees 0..m of the product of polynomials a_r and b_r.

    Plain convolution when ``log_fact`` is None.  Otherwise the rows hold
    g_j = j! e_j / s^j of parts with masses s_a and s_b, and the product is
    the binomial convolution g_j = sum_i C(j,i) p^i q^(j-i) a_i b_(j-i) with
    p = s_a / (s_a + s_b) = 1 - q: every weight is a binomial probability
    and every g_j lies in [0, 1], so no factor overflows and nothing cancels.
    One numpy step per degree of a runs every pair at once.
    """
    pairs, width = a.shape
    out = np.zeros((pairs, m + 1), dtype=a.dtype)
    if log_fact is not None:
        x, y = _log_binomial_parts(log_fact, log_p, log_q, m)
    for i in range(min(width, m + 1)):
        hi = min(i + width - 1, m)
        span = hi - i + 1
        term = a[:, i:i + 1] * b[:, :span]
        if log_fact is not None:
            log_w = x[:, i:hi + 1] + y[:, i:i + 1]
            log_w -= log_fact[:span]
            term *= np.exp(log_w)
        out[:, i:hi + 1] += term
    return out


def _degree_cap(k, covered, frac, lam):
    """Highest degree kept for tree nodes covering ``covered`` weights each.

    With ``frac`` None that is min(k, covered).  Otherwise ``frac`` holds
    the nodes' shares of the total mass.  The degree-j coefficient of a
    node weighs the event that j of k i.i.d. draws land in it, and
    K ~ Binomial(k, frac) exceeds k frac + t with probability below e^-lam
    for t = lam/3 + sqrt(lam^2/9 + 2 lam k frac (1 - frac)) (Bernstein).
    """
    cap = min(k, covered)
    if frac is None:
        return cap
    t = lam / 3 + np.sqrt(lam * lam / 9 + 2 * lam * k * frac * (1.0 - frac))
    return min(cap, int(np.ceil(np.max(k * frac + t))))


def _symmetric_recurrence(weights, k, binomial, dtype):
    """k! e_k of the weights when ``binomial``, else e_k, in ``dtype``.

    The weights are cut into blocks of ``BLOCK`` (the last one padded with
    zeros).  :func:`_block_polynomials` runs every block at once, and
    :func:`_merge_pairs` multiplies the block polynomials pairwise up a
    tree, each product kept to degree min(k, weights covered); the root
    needs only its degree-k coefficient, one dot product.  The work is
    O(n k) in O(BLOCK + k log(n / BLOCK)) numpy steps.  With a single block
    this is the one-weight-at-a-time recurrence, step for step.

    For k! e_k the blocks are scaled to unit mass, so a node's g_j =
    j! e_j / s^j is the chance that j i.i.d. draws from it are distinct,
    and the root's g_k = E[prod over blocks of g_(K_b)] with (K_b)
    multinomial(k, block masses / total).  A node is also cut at the
    degree its share of the k draws exceeds with probability below e^-lam
    (:func:`_degree_cap`).  Each g lies in [0, 1], so the cuts together
    lower g_k by at most 2 (blocks) e^-lam = e^-50.  The result is g_k s^k.
    """
    n = weights.size
    width = min(n, BLOCK)
    rows = -(-n // width)
    theta = np.zeros(rows * width, dtype=dtype)
    theta[:n] = weights
    theta = theta.reshape(rows, width)
    coef = np.arange(1, k + 1, dtype=np.float64) if binomial else np.ones(k)
    if rows == 1:
        return float(_block_polynomials(theta, k, coef)[0, k])
    log_fact = mass = frac = lam = log_p = log_q = None
    if binomial:
        lam = 50.0 + math.log(2 * rows)
        mass = theta.sum(axis=1)
        theta = theta / mass[:, None]
        frac = mass / mass.sum()
        log_fact = np.array([math.lgamma(j + 1.0) for j in range(k + 1)])
    polys = _block_polynomials(theta, _degree_cap(k, width, frac, lam), coef)
    covered = width
    while True:
        pairs = polys.shape[0] // 2
        if binomial:
            total = mass[0:2 * pairs:2] + mass[1:2 * pairs:2]
            log_p = np.log(mass[0:2 * pairs:2] / total)
            log_q = np.log(mass[1:2 * pairs:2] / total)
            mass = np.append(total, mass[2 * pairs:])
            frac = mass / mass.sum()
        if polys.shape[0] == 2:
            break
        covered *= 2
        m = min(_degree_cap(k, covered, frac, lam), 2 * (polys.shape[1] - 1))
        merged = _merge_pairs(polys[0:2 * pairs:2], polys[1:2 * pairs:2], m,
                              log_fact, log_p, log_q)
        if polys.shape[0] % 2:
            carried = np.zeros((1, m + 1), dtype=merged.dtype)
            carried[0, :polys.shape[1]] = polys[-1]
            merged = np.vstack([merged, carried])
        polys = merged
    a, b = np.pad(polys, ((0, 0), (0, k + 1 - polys.shape[1])))
    terms = a * b[::-1]
    if not binomial:
        return float(terms.sum())
    x, y = _log_binomial_parts(log_fact, log_p, log_q, k)
    terms *= np.exp(x[0, k] + y[0] - log_fact[::-1])
    return float(terms.sum() * mass[0] ** k)


def elementary_symmetric(weights, k):
    """e_k of the weights by the blocked recurrence.

    Accepts raw (unnormalized) values.  Accumulates in extended precision
    once n exceeds 1000 to keep long products honest.  Up to ``BLOCK``
    weights this is the triangular recurrence e_j <- e_j + theta e_{j-1},
    one weight at a time.  Beyond, blocks of ``BLOCK`` weights run it side
    by side and their polynomials are convolved pairwise up a tree, each
    kept to degree min(k, weights covered): O(n k) work in
    O(BLOCK + k log(n / BLOCK)) numpy steps.  Every term of a positive
    input is positive; at n = 2000 and 5000 the result is within 1e-12
    relative of the one-weight-at-a-time recurrence.  A result past the
    float64 range raises ``PreconditionError``.
    """
    arr = weights.weights if hasattr(weights, "weights") else np.asarray(weights, dtype=np.float64)
    n = arr.size
    k = _as_int(k, "k", 0, n)
    if k == 0:
        return 1.0
    e_k = _symmetric_recurrence(arr, k, False, np.longdouble if n > 1000 else np.float64)
    if not math.isfinite(e_k):
        raise PreconditionError(f"e_{k} of {n} weights is not a finite float64")
    return e_k


def tv_exact(w, k):
    """Exact total variation 1 - k! e_k(theta).

    Computed in float64 on r_j = j! e_j, whose values stay in [0, 1] for
    normalized weights, so n = 10^4 and beyond do not underflow.  Up to
    ``BLOCK`` weights this is the recurrence r_j <- r_j + j theta r_{j-1},
    one weight at a time.  Beyond, blocks of ``BLOCK`` weights run it side
    by side, each scaled to unit mass, and the blocks are merged pairwise
    up a tree by binomial convolution (see :func:`_symmetric_recurrence`):
    O(n k) work at most, in O(BLOCK + k log(n / BLOCK)) numpy steps, and
    far less when k is small against n.  Every term is nonnegative.  At
    n = 10^5 and k <= 200 the result is within 1e-13 of the
    one-weight-at-a-time recurrence and of :func:`tv_uniform_exact`.

    Uniform weights maximize k! e_k at a given n (Schur concavity), so
    k! e_k <= exp(-k(k-1)/(2n)).  Once k(k-1) >= 100 n that bound is below
    e^-50 and the total variation rounds to 1.0, which is returned without
    running the recurrence.
    """
    w = _normalized(w)
    k = _as_int(k, "k", 1, w.n)
    if k * (k - 1) >= 100 * w.n:
        return 1.0
    tv = 1.0 - _symmetric_recurrence(w.weights, k, True, np.float64)
    if tv < -1e-9:
        raise PreconditionError(f"k! e_k exceeded 1 by {-tv:g}; weights not normalized?")
    return min(max(tv, 0.0), 1.0)


def tv_uniform_exact(n, k):
    """Closed form for equal weights: 1 - n! / ((n-k)! n^k), in log space."""
    n = _as_int(n, "n", 1)
    k = _as_int(k, "k", 1, n)
    log_p = sum(math.log1p(-j / n) for j in range(k))
    return -math.expm1(log_p)


def collision_lambda(w, k):
    """Expected number of colliding pairs among k independent draws."""
    w = _normalized(w)
    return math.comb(_as_int(k, "k", 1), 2) * float(np.sum(w.weights**2))


def tv_poisson_approx(lam):
    """Poissonized collision estimate 1 - exp(-lambda)."""
    if not 0.0 <= lam < math.inf:
        raise PreconditionError(f"lambda must be nonnegative and finite, got {lam!r}")
    return -math.expm1(-lam)


def second_card_marginal(w, label):
    """P(second draw is ``label``) = theta_b sum_{i != b} theta_i / (1 - theta_i)."""
    w = _normalized(w)
    (b,) = _check_labels((label,), w.n)
    th = w.weights
    mask = np.arange(w.n) != b - 1
    return float(th[b - 1] * np.sum(th[mask] / (1.0 - th[mask])))


@dataclass(frozen=True)
class DistanceReport:
    """Bundle of the k-prefix distance diagnostics.

    Values are validated: probabilities in [0, 1], lambda nonnegative and finite, and
    tv_exact never exceeds d_inf_exact.
    """

    k: int
    d_inf_exact: float
    d_inf_bound: float
    tv_exact: float
    collision_lambda: float
    tv_poisson: float

    def __post_init__(self):
        for name in ("d_inf_exact", "d_inf_bound", "tv_exact", "tv_poisson"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise PreconditionError(f"{name} must lie in [0, 1], got {v!r}")
        if not 0.0 <= self.collision_lambda < math.inf:
            raise PreconditionError("collision_lambda must be nonnegative and finite, "
                                    f"got {self.collision_lambda!r}")
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
    w = _normalized(w)
    k = _as_int(k, "k", 1, w.n)
    lam = collision_lambda(w, k)
    return DistanceReport(
        k=k,
        d_inf_exact=d_inf_exact(w, k),
        d_inf_bound=d_inf_bound(w, k),
        tv_exact=tv_exact(w, k),
        collision_lambda=lam,
        tv_poisson=tv_poisson_approx(lam),
    )
