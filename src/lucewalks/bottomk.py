"""Limit law of the last cards drawn under an infinite weight sequence.

For weights theta_1 <= theta_2 <= ... attach independent Exponential(theta_i)
clocks X_i.  The reversed draw order of the finite model on labels 1..n
converges in law, as n grows, exactly when

    x0 = inf { x : f(x) < infinity } < infinity   and   f(x0) = infinity,

where f(x) = sum_i exp(-theta_i x).  The limiting probability that the
bottom k cards read a_1, ..., a_k (a_1 at the very bottom) is

    integral over x_1 > ... > x_k > 0 of
        prod_j theta_{a_j} e^{-theta_{a_j} x_j}
        * prod_{i not in a} (1 - e^{-theta_i x_k})  dx.

The inner x_1..x_{k-1} integrals telescope in closed form, leaving a single
one-dimensional integral

    prod_{m=2}^{k-1} theta_{a_m}/T_m *
    integral_0^inf theta_{a_k} e^{-T_k x} prod_{i not in a}(1 - e^{-theta_i x}) dx

with T_m = theta_{a_1} + ... + theta_{a_m}, evaluated here after the
substitution y = e^{-u x}, x in a unit u of the model's own (the law of c
theta is the law of theta), by adaptive 21-point Gauss-Kronrod quadrature
whose integrand takes every node of a refinement round at once.  The log of
the survival product is a head of terms summed directly plus the tail
-sum_m S_n(m x) / m, where S_n(x) = sum_{i > n} e^{-theta_i x} is the tail of
f itself: each weight family writes one certified bracket of S_n, read by
both f and this order sum.  For the log families that bracket is an
Euler-Maclaurin sum whose remainder the next term bounds, intersected with
the trapezoid and midpoint bounds and widened by its rounding; it is tight
from the first head on, so the head of 2 max(a) terms, 32 at least, does
not grow as the tolerance shrinks.  An importance-sampling Monte Carlo
estimator is provided as an independent cross-check.

The module global ``integrate`` is the one place the quadrature is looked
up; its ``quad`` is that rule, in numpy alone.
"""

import functools
import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import kernels
from .core import _check_labels, _check_tol, as_weight_vector, luce_pmf
from .exceptions import DefectiveMassWarning, PreconditionError, ToleranceError, _as_int

__all__ = [
    "WeightSequence",
    "linear_weights",
    "constant_weights",
    "log_weights",
    "log_loglog_weights",
    "SEQUENCE_FAMILIES",
    "ConvergenceReport",
    "f_eval",
    "convergence_test",
    "limit_bottom_pmf",
    "limit_bottom_pmf_mc",
    "sukhatme_last_card_table",
    "finite_n_bottom_pmf",
]

LOG_PRODUCT_FLOOR = -700.0  # survival products below e^-700 are flushed to zero
_HEAD_START = 32  # least head of the survival sum; the head doubles from here
_TERMS_MAX = 1 << 21
_LABEL_MAX = _TERMS_MAX // 2  # the survival head starts at twice the largest label


# QUADPACK's 21-point Gauss-Kronrod rule on [-1, 1] (qk21, Piessens et al. 1983):
# the Kronrod nodes in ascending order, their weights, and the weights of the
# embedded 10-point Gauss rule, zero on the nodes that rule lacks
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980640325, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.zeros(11)
_WG[1::2] = [0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
             0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
             0.295524224714752870173892994651338]
_GK_NODES = np.r_[-_XGK[:-1], _XGK[::-1]]
_GK_WEIGHTS = np.r_[_WGK[:-1], _WGK[::-1]]
_GAUSS_WEIGHTS = np.r_[_WG[:-1], _WG[::-1]]
_EPS = np.finfo(np.float64).eps
# a tail bracket within this share of its own magnitude is at its rounding floor:
# a longer head narrows it no further
_ROUNDING_FLOOR = 512 * _EPS


def _gk21_panels(func, lo, hi):
    """Kronrod value, QUADPACK error estimate, its rounding floor and saturation of each panel.

    One call of func covers every panel [lo_i, hi_i].  The estimate is never
    below 50 eps times the panel's integral of |f|, a floor that bisection
    cannot lower, and saturates at resasc, the mean deviation from the
    panel's mean, when the Kronrod and Gauss values differ by more than
    resasc / 200.
    """
    half = 0.5 * (hi - lo)
    f = func(((lo + hi)[:, None] * 0.5 + half[:, None] * _GK_NODES).ravel())
    f = f.reshape(lo.size, _GK_NODES.size)
    resk = f @ _GK_WEIGHTS
    floor = 50.0 * _EPS * (np.abs(f) @ _GK_WEIGHTS * np.abs(half))
    resasc = np.abs(f - 0.5 * resk[:, None]) @ _GK_WEIGHTS * np.abs(half)
    err = np.abs((resk - f @ _GAUSS_WEIGHTS) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.maximum(floor, np.where((resasc != 0.0) & (err != 0.0), scaled, err))
    return resk * half, err, floor, (err == resasc) & (err != 0.0)


def _gk21_quad(func, a, b, *, epsabs, epsrel, limit=300, points=None):
    """Adaptive 21-point Gauss-Kronrod quadrature of func over [a, b]: (value, abserr).

    ``func`` maps a 1-D array of nodes to the array of integrand values, and
    is called once per refinement round with the nodes of every new panel.
    The first panels run between a, the ``points`` inside (a, b), and b.
    While the summed error is above max(epsabs, epsrel |value|), each panel
    whose error is above its length's share of that target, and above its
    rounding floor, is bisected, the largest errors first once the panels
    would pass ``limit``.  As in QUADPACK's qags, a lone first panel whose
    estimate saturated is bisected whatever its error.  When no panel can be
    bisected, or at the limit, the current value and error are returned, as
    QUADPACK does.
    """
    edges = np.unique([a, b, *(p for p in points or () if a < p < b)])
    lo, hi = edges[:-1], edges[1:]
    val, err, floor, saturated = _gk21_panels(func, lo, hi)
    refine = lo.size == 1 and saturated[0]
    while True:
        target = max(epsabs, epsrel * abs(val.sum()))
        split = np.flatnonzero((err > np.maximum(floor, target * (hi - lo) / (b - a))) | refine)
        if (err.sum() <= target and not refine) or split.size == 0 or lo.size >= limit:
            return float(val.sum()), float(err.sum())
        refine = False
        split = split[np.argsort(-err[split], kind="stable")[:limit - lo.size]]
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.r_[lo[split], mid], np.r_[mid, hi[split]]
        new_val, new_err, new_floor, _ = _gk21_panels(func, new_lo, new_hi)
        lo, hi = np.r_[lo[keep], new_lo], np.r_[hi[keep], new_hi]
        val, err = np.r_[val[keep], new_val], np.r_[err[keep], new_err]
        floor = np.r_[floor[keep], new_floor]


integrate = SimpleNamespace(quad=_gk21_quad)


class WeightSequence:
    """An infinite nondecreasing sequence of strictly positive weights.

    Parameters
    ----------
    evaluator : callable
        Maps a 1-based index to the weight; values must be positive and
        nondecreasing (checked lazily as indices are touched).
    monotone : bool
        Declares the sequence nondecreasing; required by the convergence
        classifier.
    tail_bound : callable or None
        Optional ``(n_terms, x) -> upper bound on sum_{i > n_terms}
        exp(-theta_i x)``.  Enables certified truncation for custom
        sequences; the named families below carry sharper built-in brackets.

    ``family`` and ``beta`` (the ``log`` scale) drive analytic classification
    and exact tails, so only the built-in constructors set them; else None.
    """

    __slots__ = ("_evaluator", "monotone", "tail_bound", "family", "beta", "_cache")

    def __init__(self, evaluator, *, monotone=False, tail_bound=None):
        self._evaluator = evaluator
        self.monotone = bool(monotone)
        self.tail_bound = tail_bound
        self.family = None
        self.beta = None
        self._cache = np.empty(0, dtype=np.float64)

    @classmethod
    def _builtin(cls, evaluator, family, beta=None):
        """A built-in family whose evaluator maps a whole index array at once."""
        seq = cls(evaluator, monotone=True)
        seq.family = family
        seq.beta = beta
        return seq

    def thetas(self, n):
        """Weights for indices 1..n as an array (cached).

        The cache grows at least geometrically, so a run of ``theta(i)`` calls
        for i = 1, 2, ... costs amortised O(1) each, and never past twice the
        largest index asked for.  New weights are checked as they are cached.
        """
        n, lo = _as_int(n, "n", 0), self._cache.size
        if n > lo:
            hi = max(n, 2 * lo)
            if self.family is not None:  # a built-in evaluator maps the index array at once
                new = np.asarray(self._evaluator(np.arange(lo + 1, hi + 1, dtype=np.float64)),
                                 dtype=np.float64)
            else:
                new = np.array([self._evaluator(i) for i in range(lo + 1, hi + 1)],
                               dtype=np.float64)
            if np.any(new <= 0.0) or not np.all(np.isfinite(new)):
                raise PreconditionError("sequence weights must be strictly positive and finite")
            if self.monotone and np.any(np.diff(np.concatenate([self._cache[-1:], new])) < -1e-12):
                raise PreconditionError("sequence declared monotone but weights decrease")
            self._cache = np.concatenate([self._cache, new])
        return self._cache[:n]

    def theta(self, i):
        i = _as_int(i, "index", 1)
        return float(self.thetas(i)[i - 1])

    def __repr__(self):
        tag = self.family or "custom"
        return f"WeightSequence({tag})"


def linear_weights():
    """theta_i = i."""
    return WeightSequence._builtin(lambda i: i, "linear")


def constant_weights():
    """theta_i = 1 (the uniform urn; the reversed order never converges)."""
    return WeightSequence._builtin(np.ones_like, "constant")


def log_weights(beta=1.0):
    """theta_i = beta * log(i + 1)."""
    beta = float(beta)
    if not 0.0 < beta < math.inf:
        raise PreconditionError("beta must be positive and finite")
    return WeightSequence._builtin(lambda i: beta * np.log(i + 1.0), "log", beta)


def log_loglog_weights():
    """theta_i = log(i+1) + 2 log log(i+1), first term floored to log 2.

    At i = 1 the nominal formula is negative (log log 2 < 0), so the first
    weight is taken as log 2; the tail, and hence the convergence behavior,
    is unchanged.  The sequence sits exactly on the boundary where
    f(x0) stays finite, so the reversed order has a defective limit.
    """

    def ev(i):
        u = np.log(i + 1.0)
        return np.where(i == 1, math.log(2.0), u + 2.0 * np.log(u))

    return WeightSequence._builtin(ev, "log-loglog")


SEQUENCE_FAMILIES = {
    "linear": linear_weights,
    "constant": constant_weights,
    "log": log_weights,
    "log-loglog": log_loglog_weights,
}


# ---------------------------------------------------------------------------
# certified tails
# ---------------------------------------------------------------------------

# exp-sinh rule for integrals over (0, inf): nodes w = exp(pi/2 sinh(t)),
# t = k/32 for |k| <= 160.  On the integrands of _loglog_tail_integral
# (y >= 1, log a >= 3.5) it is accurate to rounding level.
_DE_T = np.arange(-160, 161) / 32.0
_DE_NODES = np.exp(0.5 * np.pi * np.sinh(_DE_T))
_DE_WEIGHTS = _DE_NODES * np.cosh(_DE_T) * (0.5 * np.pi / 32.0)
_DE_LOG1P = np.log1p(_DE_NODES)

_FIRST_ORDERS = np.arange(1.0, 5.0)  # orders 1..3 of the log-survival tail, and the fold's 4


def _loglog_tail_integral(y, a):
    """integral_a^inf u^-y log(u)^-2y du for y >= 1 (an array) and a > e.

    With u = a^(1+w) it equals a^(1-y) log(a)^(1-2y) times
    integral_0^inf e^{-(y-1) log(a) w} (1+w)^(-2y) dw, summed over the
    exp-sinh nodes in blocks of at most kernels._CHUNK_CELLS (entry, node) pairs.
    """
    y = np.asarray(y, dtype=np.float64)
    la = np.log(np.asarray(a, dtype=np.float64))
    flat = y.reshape(-1)
    out = np.empty(flat.shape)
    step = kernels._CHUNK_CELLS // _DE_NODES.size
    for j in range(0, flat.size, step):
        b = flat[j:j + step]
        integrand = np.exp((1.0 - b[:, None]) * la * _DE_NODES - 2.0 * b[:, None] * _DE_LOG1P)
        scale = np.exp((1.0 - b) * la + (1.0 - 2.0 * b) * np.log(la))
        out[j:j + step] = scale * np.einsum("ij,j->i", integrand, _DE_WEIGHTS)
    return out.reshape(y.shape)


_EM_TERMS = 5  # Euler-Maclaurin corrections summed; the next one bounds the remainder
_EM_J = np.arange(1.0, _EM_TERMS + 2.0)
# the midpoint rule's weights -B_2j(1/2) / 2j = (1 - 2^(1-2j)) B_2j / 2j, j = 1 .. _EM_TERMS + 1
_EM_WEIGHTS = (np.array([1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730])
               * (1.0 - 2.0 ** (1.0 - 2.0 * _EM_J)) / (2.0 * _EM_J))
_EM_PAD = 2.0 * _EPS  # a bound's relative rounding, per unit of 4 + |log g(a)|


def _series_powers(c):
    """Column k holds the coefficients of C(h)^k, for C(h) = sum_r c[r] h^r with c[0] = 0,
    truncated at the degree of c."""
    out = np.zeros((c.size, c.size))
    out[0, 0] = 1.0
    for k in range(1, c.size):
        out[:, k] = np.convolve(out[:, k - 1], c)[:c.size]
    return out


@functools.lru_cache(maxsize=64)
def _em_matrix(a, loglog):
    """Rows k = 0 .. 2p+1 of the (-t)^k coefficients, over g(a), of the Euler-Maclaurin
    corrections M_1 + ... + M_p at a, of |M_1| + ... + |M_(p+1)|, and of M_(p+1).

    log g(a + h) = log g(a) - t C(h), with C(h) = log(1 + h/a) for k^-t and
    C(h) + 2 log(1 + C(h)/log a) for k^-t (log k)^-2t, so the Taylor
    coefficient g^(r)(a)/r! is g(a) sum_k (-t)^k [h^r] C(h)^k / k!.  Those
    of odd r are negative, as g is completely monotone, so M_j has the sign
    of -_EM_WEIGHTS[j].
    """
    r = np.arange(1.0, 2.0 * _EM_TERMS + 2.0)
    c = np.r_[0.0, -(-1.0 / a) ** r / r]
    if loglog:
        w = _series_powers(c / math.log(a))
        c = c + 2.0 * (w[:, 1:] @ (-(-1.0) ** r / r))
    m = (_series_powers(c) / np.cumprod(np.r_[1.0, r]))[1::2].T * _EM_WEIGHTS
    out = np.c_[m[:, :-1].sum(axis=1), m @ -np.sign(_EM_WEIGHTS), m[:, -1]]
    out.flags.writeable = False  # one cached array serves every caller
    return out


def _em_bracket(a, t, loglog, upper, g_a):
    """Bracket (lo, hi) of sum_{k >= a + 1/2} g(k) for g(k) = k^-t, or k^-t (log k)^-2t.

    g is completely monotone, so the midpoint Euler-Maclaurin sum
    integral_a^inf g + sum_{j <= p} M_j, M_j = -B_2j(1/2)/(2j)! g^(2j-1)(a)
    and p = _EM_TERMS,
    misses the sum by at most M_(p+1), on its side (Olver 1974, ch. 8).
    ``upper`` is the integral and ``g_a`` = g(a).  Each side is widened by
    its rounding, _EM_PAD (4 + |log g(a)|) times the sum of |terms|: exp and
    pow lose about eps |z| to the rounding of their argument z.  Where
    g(a) < 1e-300 the terms would lose digits to underflow, and the bracket
    is (0, inf).
    """
    lo, hi = np.zeros(t.shape), np.full(t.shape, math.inf)
    i = np.flatnonzero(g_a >= 1e-300)
    k = _em_matrix(a, loglog)
    neg_t = -t[i, None]
    terms = np.tile(k[-1], (i.size, 1))
    for row in k[-2::-1]:  # Horner's rule in -t
        terms *= neg_t
        terms += row
    terms *= g_a[i, None]
    corr, size, last = terms.T
    em = upper[i] + corr
    log_g = t[i] * (math.log(a) + (2.0 * math.log(math.log(a)) if loglog else 0.0))
    err = _EM_PAD * (4.0 + log_g) * (upper[i] + size)
    lo[i] = em + np.minimum(last, 0.0) - err
    hi[i] = em + np.maximum(last, 0.0) + err
    return lo, hi


def _exp_sum_tail(seq, n_terms, x, lower=True):
    """Bracket (lo, hi) of S(x) = sum_{i > n_terms} exp(-theta_i x), elementwise over an array x.

    The only code that knows a family's tail.  ``linear`` is the geometric sum
    itself.  The ``log`` families write theta_i in k = i + 1, so the terms are
    g(k) for k >= q = n_terms + 2, g completely monotone: k^-t with t = beta x,
    or k^-x (log k)^-2x.  S lies between the trapezoid bound
    integral_q^inf g + g(q)/2 and the midpoint bound integral_{q-1/2}^inf g
    (q - 1/2 > e for log-loglog), and inside the Euler-Maclaurin bracket of
    :func:`_em_bracket`; the two are intersected, so the bracket is never
    wider than the first (but for 8 eps of rounding), and is far narrower
    wherever t is small against q.
    (inf, inf) means S diverges; a custom sequence gives (0, tail_bound), or
    (0, inf) without one.  With ``lower=False`` only hi is computed and lo is None.
    """
    x = np.asarray(x, dtype=np.float64)
    q = n_terms + 2.0
    if seq.family == "linear":
        # a zero denominator at x <= 0 makes S infinite
        with np.errstate(divide="ignore"):
            lo = hi = np.exp(-(n_terms + 1) * x) / np.maximum(-np.expm1(-x), 0.0)
    elif seq.family in ("log", "log-loglog"):
        loglog = seq.family == "log-loglog"
        a = q - 0.5
        if loglog:
            ok = x >= 1.0
            t = x[ok]

            def integral(b):
                return _loglog_tail_integral(t, b)

            def g(b):
                return b ** -t * math.log(b) ** (-2.0 * t)
        else:
            # integral_b^inf k^-t dk = b^(1-t) / (t - 1), infinite for t <= 1
            t = seq.beta * x
            ok = t > 1.0
            t = t[ok]

            def integral(b):
                return b ** (1.0 - t) / (t - 1.0)

            def g(b):
                return b ** -t
        lo, hi = np.full(x.shape, math.inf), np.full(x.shape, math.inf)
        upper = integral(a)
        em_lo, em_hi = _em_bracket(a, t, loglog, upper, g(a))
        # the trapezoid and midpoint bounds, widened by the E-M sides' base pad for rounding
        hi[ok] = np.minimum(upper * (1.0 + 4.0 * _EM_PAD), em_hi)
        if lower:
            lo[ok] = np.maximum((integral(q) + 0.5 * g(q)) * (1.0 - 4.0 * _EM_PAD), em_lo)
    elif seq.family == "constant":
        lo = hi = np.full(x.shape, math.inf)
    else:
        lo = np.zeros(x.shape)
        hi = np.full(x.shape, math.inf) if seq.tail_bound is None else \
            np.reshape([float(seq.tail_bound(n_terms, v)) for v in x.flat], x.shape)
    return (lo if lower else None), hi


def _order_block(seq, n_terms, x, r, m):
    """Orders m[:-1] of sum_m S(m x) / m, bracketed, and the fold of the orders from m[-1] on.

    Rows of x go through in blocks of at most kernels._CHUNK_CELLS (node, order) pairs.
    """
    step = max(1, kernels._CHUNK_CELLS // m.size)
    w = 1.0 / m[:-1]
    out = np.empty((3, x.size))
    for j in range(0, x.size, step):
        xs = x[j:j + step, None]
        s_lo, s_hi = _exp_sum_tail(seq, n_terms, xs * m[:-1])
        fold = _exp_sum_tail(seq, n_terms, xs[:, 0] * m[-1], lower=False)[1]
        out[:, j:j + step] = (np.einsum("ij,j->i", s_lo, w), np.einsum("ij,j->i", s_hi, w),
                              fold / (m[-1] * (1.0 - r[j:j + step])))
    return out


def _needs_orders(lo_mag, hi_mag, fold):
    return (fold > np.maximum(hi_mag - lo_mag, 1e-18 * hi_mag)) & (hi_mag <= 800.0)


def _tail_log_survival(seq, n_terms, x):
    """Bracket (lo, hi) of sum_{i > n_terms} log(1 - e^{-theta_i x}) for an array x.

    -log(1 - u) = sum_m u^m / m turns the tail into -sum_m S(m x) / m, with S
    bracketed by :func:`_exp_sum_tail`.  The orders from M on are at most
    S_hi(M x) / (M (1 - r)), with r = e^{-theta_{n+1} x} the largest tail
    term, and that fold is added to the upper magnitude.
    Orders 1..3 are summed for every entry, then blocks m0 <= m < 4 m0 = M
    for the entries whose fold is above the width of their summed bracket and
    above 1e-18 of its total, while the total stays below 800 (past that the
    product flushes to zero).  (-inf, -inf) means the tail diverges and
    (-inf, 0) that nothing is known of it; such a tail counts as zero once r
    is negligible.
    """
    r = np.exp(-seq.theta(n_terms + 1) * x)
    m = _FIRST_ORDERS
    with np.errstate(divide="ignore", invalid="ignore"):
        lo_mag, hi_mag, fold = _order_block(seq, n_terms, x, r, m)
        live = np.flatnonzero(_needs_orders(lo_mag, hi_mag, fold))
        while live.size and m[-1] < 1 << 16:
            m = np.arange(m[-1], 4.0 * m[-1] + 1.0)
            d_lo, d_hi, fold[live] = _order_block(seq, n_terms, x[live], r[live], m)
            lo_mag[live] += d_lo
            hi_mag[live] += d_hi
            live = live[_needs_orders(lo_mag[live], hi_mag[live], fold[live])]
    lo, hi = -(hi_mag + fold), -lo_mag
    lo[np.isinf(lo) & (hi == 0.0) & (r < 1e-18)] = 0.0
    return lo, hi


def _head_log_survival(x, th):
    """sum_j log(1 - e^{-th_j x}) per entry of x, kernels._CHUNK_CELLS (node, term) pairs a call."""
    step = max(1, kernels._CHUNK_CELLS // max(x.size, 1))
    with np.errstate(divide="ignore"):
        return sum(np.log1p(-np.exp(-np.outer(x, th[j:j + step]))).sum(axis=1)
                   for j in range(0, th.size, step))


def _log_survival_bracket(seq, x, exclude, rel_tol):
    """Bracket of sum over i not in ``exclude`` of log(1 - e^{-theta_i x}).

    ``x`` is an array of nodes; returns arrays (lo, hi).  (-inf, -inf) means
    the product is exactly zero: the underlying sum diverges or the product
    is certainly below e^-700.  The head 1..n-1 is summed directly and n doubled
    until the tail bracket, from the cached theta_n on, is narrower than
    ``rel_tol`` or than _ROUNDING_FLOOR of its own size; out of budget, the
    widest honest bracket is returned.
    """
    x = np.asarray(x, dtype=np.float64)
    lo = np.empty(x.shape)
    hi = np.empty(x.shape)
    partial = np.zeros(x.shape)
    live = np.arange(x.size)
    n = max(_HEAD_START, 2 * max(exclude, default=0))
    th = np.delete(seq.thetas(n)[:n - 1], [i - 1 for i in exclude])
    while True:
        partial[live] += _head_log_survival(x[live], th)
        t_lo, t_hi = _tail_log_survival(seq, n - 1, x[live])
        lo[live] = partial[live] + t_lo
        hi[live] = partial[live] + t_hi
        if n >= _TERMS_MAX:
            break
        with np.errstate(invalid="ignore"):
            wide = t_hi - t_lo > np.maximum(rel_tol, _ROUNDING_FLOOR * -t_hi)
            live = live[wide & (hi[live] > LOG_PRODUCT_FLOOR)]
        if live.size == 0:
            break
        th = seq.thetas(2 * n)[n - 1:2 * n - 1]
        n *= 2
    flushed = hi <= LOG_PRODUCT_FLOOR
    lo[flushed] = hi[flushed] = -math.inf
    return lo, hi


# ---------------------------------------------------------------------------
# f and the convergence classifier
# ---------------------------------------------------------------------------

def _logsumexp(a):
    """log(sum(exp(a))) without overflow; -inf when every entry is -inf."""
    top = a.max()
    return top if top == -math.inf else top + math.log(np.exp(a - top).sum())


def _condensation_finite(seq, x):
    """Cauchy condensation: f(x) counts as finite when, over the first 2^16 weights,
    the window [2^15, 2^16) sums to less than [2^14, 2^15) (in log space, so
    large x cannot underflow both to 0).  A heuristic: it resolves x0 to about 2^-15.
    """
    prefix = seq.thetas(1 << 16)
    return _logsumexp(-x * prefix[1 << 15:]) < _logsumexp(-x * prefix[1 << 14:1 << 15])


def f_eval(seq, x, tol=1e-10):
    """sum_i exp(-theta_i x) within additive ``tol``; inf when divergent.

    A custom sequence without ``tail_bound`` gives inf when
    :func:`_condensation_finite` says so.  Without a finite tail bracket the
    sum is certified once its windows shrink geometrically, else
    ``ToleranceError`` after 2^21 terms.
    """
    _check_tol(tol)
    x = float(x)
    if x <= 0.0:
        raise PreconditionError("x must be positive (the sum is infinite at x <= 0)")
    if seq.family is None and seq.tail_bound is None and not _condensation_finite(seq, x):
        return math.inf
    n = 64
    partial = 0.0
    done = 0
    prev_window = None
    while True:
        th = seq.thetas(n)[done:n]
        window = float(np.exp(-x * th).sum())
        partial += window
        done = n
        lo, hi = map(float, _exp_sum_tail(seq, n, x))
        if lo == math.inf:
            return math.inf
        if hi - lo <= tol:
            return partial + 0.5 * (lo + hi)
        if hi == math.inf and prev_window is not None and window <= tol / 4.0 \
                and window < 0.5 * prev_window:
            q = window / prev_window
            est = window * q / (1.0 - q)
            if est <= tol:
                return partial + 0.5 * est
        prev_window = window
        if n >= _TERMS_MAX:
            raise ToleranceError(f"f_eval could not certify tolerance {tol:g} at x={x:g}")
        n *= 2


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of the reversed-order convergence test.

    ``converges`` is a property derived from x0 and f(x0).
    """

    x0: float
    f_at_x0: str
    method: str
    caveat: str | None = None

    def __post_init__(self):
        if self.f_at_x0 not in ("finite", "infinite", "undetermined"):
            raise PreconditionError("f_at_x0 must be 'finite', 'infinite' or 'undetermined'")

    @property
    def converges(self):
        """True exactly when x0 is finite and f(x0) infinite; None when f(x0) is undetermined."""
        if self.f_at_x0 == "undetermined":
            return None
        return math.isfinite(self.x0) and self.f_at_x0 == "infinite"

    def to_dict(self):
        return {
            "x0": self.x0 if math.isfinite(self.x0) else "inf",
            "f_at_x0": self.f_at_x0,
            "converges": self.converges,
            "method": self.method,
            "caveat": self.caveat,
        }


_ANALYTIC_CLASSIFICATION = {
    # family -> (x0(beta), f_at_x0)
    "linear": (lambda beta: 0.0, "infinite"),
    "constant": (lambda beta: math.inf, "finite"),
    "log": (lambda beta: 1.0 / beta, "infinite"),
    "log-loglog": (lambda beta: 1.0, "finite"),
}


def convergence_test(seq):
    """Classify whether the reversed draw order has a (proper) limit law."""
    if seq.family in _ANALYTIC_CLASSIFICATION:
        x0_of, f_at = _ANALYTIC_CLASSIFICATION[seq.family]
        return ConvergenceReport(x0=x0_of(seq.beta), f_at_x0=f_at, method="analytic")
    if not seq.monotone:
        raise PreconditionError("convergence_test requires a monotone sequence")

    caveat = None if seq.tail_bound is not None else \
        "no tail bound supplied; classification rests on partial-sum heuristics " \
        "and x0 is resolved only to about 2^-15"

    def is_finite(x):
        if seq.tail_bound is not None:  # a finite bound at any n = 64 .. 2^21
            return any(math.isfinite(_exp_sum_tail(seq, 64 << j, x)[1]) for j in range(16))
        return _condensation_finite(seq, x)

    hi = unit = 1.0 / seq.theta(1)  # x in the sequence's own unit, as the law is scale-free
    doublings = 0
    while not is_finite(hi):
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            return ConvergenceReport(x0=math.inf, f_at_x0="finite", method="numeric-best-effort",
                                     caveat=caveat or "no finite point located")
    lo = hi / 2.0
    halvings = 0
    while is_finite(lo):
        hi = lo
        lo /= 2.0
        halvings += 1
        if halvings > 60:
            lo = 0.0
            break
    if lo == 0.0:
        x0 = 0.0
    else:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if is_finite(mid):
                hi = mid
            else:
                lo = mid
        x0 = 0.5 * (lo + hi)

    # f(x0) is infinite when the first 2^16 terms at (or just above) x0 already
    # pass 1e4; a smaller prefix sum cannot tell a finite f(x0) from a slow one
    probe = x0 if x0 > 0 else 1e-12 * unit
    infinite = float(np.exp(-probe * seq.thetas(1 << 16)).sum()) > 1e4
    return ConvergenceReport(x0=x0, f_at_x0="infinite" if infinite else "undetermined",
                             method="numeric-best-effort", caveat=caveat)


# ---------------------------------------------------------------------------
# bottom-card pmfs
# ---------------------------------------------------------------------------

def _telescoped_integral(theta_a, outside, log_survival_bracket, tol, x0=0.0):
    """prefactor * integral_0^1 (theta_k/u) y^(T_k/u - 1) * survival(x=-log(y)/u) dy.

    u, the least weight clamped to [T_k/64, T_k], makes the integrand
    scale-free and keeps the power of y in [0, 63].  Each weight theta of
    the sorted array ``outside`` (not in ``a``) steps the survival up at x
    below 40/theta; a step by y = 1 that the first rule's nodes miss, out of
    reach of the step below it, has its edge as a breakpoint, as has x0 > 0.
    ``log_survival_bracket(x)`` returns arrays (lo, hi) enclosing the log
    survival product at an array of nodes x; ``integrate.quad`` calls the
    integrand once per refinement round with every new panel's 21 nodes, so
    the bracket sees each round as one batch.  The integrand uses the
    midpoint; the worst node-wise gap of the envelope, the maximum over all
    batches, joins the quadrature error before the tolerance check, so tails
    that cannot be bracketed tightly fail loudly, not silently degraded.
    """
    th = np.asarray(theta_a, dtype=np.float64)
    t_partial = np.cumsum(th)
    prefactor = float(np.prod(th[1:-1] / t_partial[1:-1]))
    t_k = float(t_partial[-1])
    u = min(t_k, max(min(float(th.min()), float(outside[0])), t_k / 64.0))
    power = t_k / u - 1.0
    scale = float(th[-1]) / u
    worst_gap = 0.0

    def integrand(y):
        nonlocal worst_gap
        value = np.zeros(y.shape)
        inside = (y > 0.0) & (y < 1.0)
        log_y = np.log(y[inside])
        lo, hi = log_survival_bracket(-log_y / u)
        base = power * log_y
        t_hi = base + hi
        t_mid = base + 0.5 * (lo + hi)
        v = np.where(t_mid <= -745.0, 0.0, scale * np.exp(t_mid))
        gap = np.where(t_hi <= -745.0, 0.0, scale * np.exp(t_hi) - v)
        worst_gap = max(worst_gap, gap.max(initial=0.0))
        value[inside] = v
        return value

    lone = outside[np.r_[True, outside[1:] > 64.0 * outside[:-1]] & (40.0 * u < 0.05 * outside)]
    points = sorted(math.exp(-u * x) for x in [x0, *40.0 / lone] if 0.0 < x < math.inf) or None
    val, abserr = integrate.quad(integrand, 0.0, 1.0, epsabs=0.5 * tol,
                                 epsrel=min(1e-8, 0.1 * tol), limit=300, points=points)
    # the y interval has unit length, so max node gap bounds its integral
    if not abserr + worst_gap <= tol:
        raise ToleranceError(
            f"certified error {abserr + worst_gap:g} exceeds tol {tol:g} "
            f"(quadrature {abserr:g}, survival bracket {worst_gap:g})"
        )
    return prefactor * val


def limit_bottom_pmf(seq, a, tol=1e-8):
    """Limiting probability that the bottom cards read a_1, ..., a_k.

    a_1 is the very bottom card (last drawn), a_2 the one above it, and so
    on, each at most 2^20.  In the defective regime the value is still
    computed but a :class:`DefectiveMassWarning` is emitted because the
    probabilities over all prefixes then sum to less than one.
    """
    _check_tol(tol)
    a = _check_labels(a, _LABEL_MAX)
    exclude = frozenset(a)
    theta_a = [seq.theta(v) for v in a]
    rel = min(1e-9, max(0.01 * tol, 1e-14))

    def ln_surv(x):
        return _log_survival_bracket(seq, x, exclude, rel)

    x0 = 0.0
    if seq.family in _ANALYTIC_CLASSIFICATION:
        report = convergence_test(seq)
        x0 = report.x0
        if not report.converges:
            warnings.warn("limit law is defective; probabilities sum to less than one",
                          DefectiveMassWarning, stacklevel=2)
    outside = np.array([seq.theta(min(set(range(1, len(a) + 2)) - exclude))])  # the least
    return _telescoped_integral(theta_a, outside, ln_surv, tol, x0)


def sukhatme_last_card_table(max_label, tol=1e-6):
    """Limiting last-card probabilities for theta_i = i.

    Row ell is P(bottom card = ell) = integral_0^1 ell y^(ell-1)
    prod_{j != ell} (1 - y^j) dy; returns [(label, probability)] for
    labels 1..max_label.
    """
    labels = range(1, _as_int(max_label, "max_label", 1) + 1)
    seq = linear_weights()
    return [(ell, limit_bottom_pmf(seq, (ell,), tol=tol)) for ell in labels]


def finite_n_bottom_pmf(w, a, tol=1e-10):
    """P(reversed draw order starts a_1, ..., a_k) under finite weights.

    Equivalently the chance the bottom k cards of an n-card deck, built by
    drawing labels 1..n without replacement, read a_1 (bottom) through a_k.
    Uses the same telescoped integral as the limit law, with the finite
    survival product over the labels outside ``a``.
    """
    _check_tol(tol)
    w = as_weight_vector(w)
    a = _check_labels(a, w.n)
    idx = np.asarray(a) - 1
    theta_a = w.weights[idx]
    others = np.delete(w.weights, idx)
    if others.size == 0:  # a lists the whole deck, bottom first
        return luce_pmf(w, a[::-1])

    def ln_surv(x):
        v = _head_log_survival(x, others)
        return v, v

    return _telescoped_integral(theta_a, np.sort(others), ln_surv, tol)


def limit_bottom_pmf_mc(seq, a, size, rng):
    """Importance-sampling Monte Carlo estimate of :func:`limit_bottom_pmf`.

    Draws the k exponential clocks of the named labels directly, scores the
    descending-order indicator times the survival product of the remaining
    labels at the smallest clock, and averages.  The survival product of
    every ordered sample comes from one vectorized call of the certified
    log-survival bracket, tail included; each sample is weighted by the
    midpoint of its bracket.  Labels are at most 2^20, as in
    :func:`limit_bottom_pmf`.  Returns (estimate, stderr); ``size`` is at
    least 2, since one sample has no stderr.  A bracket with no
    lower bound (a custom tail without ``tail_bound`` that does not shrink)
    has no midpoint: ``ToleranceError``, as :func:`limit_bottom_pmf` raises.
    """
    a = _check_labels(a, _LABEL_MAX)
    size = _as_int(size, "size", 2)
    th = np.array([seq.theta(v) for v in a])
    u = rng.random((size, len(a)))
    x = -np.log(u) / th[None, :]
    ordered = np.all(x[:, :-1] > x[:, 1:], axis=1)
    lo, hi = _log_survival_bracket(seq, x[ordered, -1], frozenset(a), 1e-9)
    unbounded = np.count_nonzero(np.isneginf(lo) & (hi > -math.inf))
    if unbounded:
        raise ToleranceError(f"survival bracket has no lower bound at {unbounded} of "
                             f"{lo.size} ordered samples; a tail_bound would bound it")
    weight = np.zeros(size)
    weight[ordered] = np.exp(0.5 * (lo + hi))
    est = float(weight.mean())
    stderr = float(weight.std(ddof=1) / math.sqrt(size))
    return est, stderr
