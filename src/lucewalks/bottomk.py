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
substitution y = e^{-x} by adaptive Gauss-Kronrod quadrature.  The infinite
survival product is evaluated in log space with certified tail brackets per
weight family, and an importance-sampling Monte Carlo estimator is provided
as an independent cross-check.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.special import logsumexp

from .core import as_weight_vector
from .exceptions import DefectiveMassWarning, PreconditionError, ToleranceError

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
_TERMS_MAX = 1 << 21
_DIVERGENT = (math.inf, math.inf)


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

    __slots__ = ("_evaluator", "monotone", "tail_bound", "family", "beta", "_cache",
                 "_vectorized")

    def __init__(self, evaluator, *, monotone=False, tail_bound=None):
        self._evaluator = evaluator
        self.monotone = bool(monotone)
        self.tail_bound = tail_bound
        self.family = None
        self.beta = None
        self._cache = np.empty(0, dtype=np.float64)
        self._vectorized = False

    @classmethod
    def _builtin(cls, evaluator, family, beta=None):
        """A built-in family whose evaluator maps a whole index array at once."""
        seq = cls(evaluator, monotone=True)
        seq.family = family
        seq.beta = beta
        seq._vectorized = True
        return seq

    def thetas(self, n):
        """Weights for indices 1..n as an array (cached).

        The cache grows at least geometrically, so a run of ``theta(i)`` calls
        for i = 1, 2, ... costs amortised O(1) each, and never past twice the
        largest index asked for.
        """
        lo = self._cache.size
        if n > lo:
            hi = max(n, 2 * lo)
            if self._vectorized:
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
        if i < 1:
            raise PreconditionError("indices are 1-based")
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
    if beta <= 0:
        raise PreconditionError("beta must be positive")
    beta = float(beta)
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

_SERIES_ORDERS = 3  # orders of -log(1-u) = sum_m u^m/m bracketed one by one
_HEAD_BLOCK = 1 << 18  # (node, term) pairs summed per numpy call


def _loglog_tail_integral(y, a):
    """integral_a^inf u^-y log(u)^-2y du for y >= 1 and a > e (arrays broadcast).

    With u = a^(1+w) it equals a^(1-y) log(a)^(1-2y) times
    integral_0^inf e^{-(y-1) log(a) w} (1+w)^(-2y) dw.
    """
    y = np.asarray(y, dtype=np.float64)[..., None]
    la = np.log(np.asarray(a, dtype=np.float64))[..., None]
    integrand = np.exp(-(y - 1.0) * la * _DE_NODES - 2.0 * y * np.log1p(_DE_NODES))
    scale = np.exp((1.0 - y) * la + (1.0 - 2.0 * y) * np.log(la))
    return (scale * integrand @ _DE_WEIGHTS[:, None])[..., 0]


def _log_family_tail(seq, q, x):
    """Tail data of the ``log`` and ``log-loglog`` families for an array x.

    Returns ``(ok, g_q, integral)``: ``ok`` masks the x at which the tail
    converges (beta x > 1, or x >= 1); for those x, with g(k) = e^{-theta_i x}
    written in k = i + 1, ``g_q`` is g(q) and ``integral(m, a)`` is
    integral_a^inf g^m.  The terms i > n lie at k >= q = n + 2.
    """
    if seq.family == "log":
        ok = seq.beta * x > 1.0
        s = seq.beta * x[ok]
        return ok, q ** -s, lambda m, a: a ** (1.0 - m * s) / (m * s - 1.0)
    ok = x >= 1.0
    v = x[ok]
    return (ok, q ** -v * math.log(q) ** (-2.0 * v),
            lambda m, a: _loglog_tail_integral(m * v, a))


def _tail_exp_sum_bracket(seq, n_terms, x):
    """Bracket (lo, hi) of sum_{i > n_terms} exp(-theta_i x).

    Returns ``(inf, inf)`` when the tail provably diverges and None when the
    sequence carries no usable tail information.  The log families use the
    m = 1 trapezoid and midpoint bounds of :func:`_second_order_tail`.
    """
    if seq.family == "linear":
        q = math.exp(-x)
        v = math.exp(-(n_terms + 1) * x) / (1.0 - q) if x > 0 else math.inf
        if x <= 0:
            return _DIVERGENT
        return (v, v)
    if seq.family == "constant":
        return _DIVERGENT
    if seq.family in ("log", "log-loglog"):
        q = n_terms + 2.0
        ok, g_q, integral = _log_family_tail(seq, q, np.array([float(x)]))
        if not ok[0]:
            return _DIVERGENT
        return (float(integral(1.0, q)[0] + 0.5 * g_q[0]), float(integral(1.0, q - 0.5)[0]))
    if seq.tail_bound is not None:
        hi = float(seq.tail_bound(n_terms, x))
        if math.isinf(hi):
            return None
        return (0.0, hi)
    return None


def _linear_tail_log_survival(n_terms, x):
    """Exact sum_{i > n_terms} log(1 - e^{-ix}) via the geometric m-series.

    Equals -sum_m (1/m) e^{-m(n_terms+1)x} / (1 - e^{-mx}) for each entry of
    the array ``x``.  Orders are summed in blocks of growing length; an entry
    stops once its newest term falls below machine noise or its running total
    guarantees the survival product flushes to zero anyway.
    """
    acc = np.zeros(x.shape)
    live = np.arange(x.size)
    m0, width = 1, 16
    while live.size and m0 < 100000:
        m = np.arange(m0, m0 + width, dtype=np.float64)
        xl = x[live, None]
        terms = np.exp(-m * (n_terms + 1) * xl) / (m * -np.expm1(-m * xl))
        total = acc[live] + terms.sum(axis=1)
        acc[live] = total
        live = live[(terms[:, -1] >= 1e-18 * total) & (total <= 800.0)]
        m0, width = m0 + width, 4 * width
    return -acc


def _second_order_tail(integral, g_q, q):
    """Bracket (lo, hi) of sum_{k >= q} log(1 - g(k)) for g convex, decreasing, g < 1.

    -log(1 - u) = sum_m u^m / m, and every g^m is convex and decreasing, so
    its sum over k >= q lies between the trapezoid bound
    integral_q^inf g^m + g(q)^m / 2 and the midpoint bound
    integral_{q-1/2}^inf g^m.  Orders above ``_SERIES_ORDERS`` are folded
    into the upper side through u^m <= u^(M+1) r^(m-M-1) with r = g(q).
    ``integral(m, a)`` returns integral_a^inf g^m for an order column ``m``.
    """
    m = np.arange(1.0, _SERIES_ORDERS + 1.0)[:, None]
    top = _SERIES_ORDERS + 1.0
    lo_mag = ((integral(m, q) + 0.5 * g_q ** m) / m).sum(axis=0)
    hi_mag = ((integral(m, q - 0.5) / m).sum(axis=0)
              + integral(top, q - 0.5) / (top * (1.0 - g_q)))
    return -hi_mag, -lo_mag


def _tail_log_survival(seq, n_terms, x):
    """Bracket (lo, hi) of sum_{i > n_terms} log(1 - e^{-theta_i x}) for an array x.

    Entries are (-inf, -inf) where the tail provably diverges and (-inf, 0)
    where the sequence carries no usable tail information yet.
    """
    lo = np.full(x.shape, -math.inf)
    hi = lo.copy()
    if seq.family == "linear":
        ok = x > 0.0
        lo[ok] = hi[ok] = _linear_tail_log_survival(n_terms, x[ok])
    elif seq.family in ("log", "log-loglog"):
        q = n_terms + 2.0
        ok, g_q, integral = _log_family_tail(seq, q, x)
        lo[ok], hi[ok] = _second_order_tail(integral, g_q, q)
    elif seq.family != "constant":
        # custom: first-order bracket from the tail bound; the m >= 2 terms of
        # the -log(1-u) expansions are folded into the upper magnitude via
        # u^m <= u r^(m-1).  Without a bound the tail counts as zero once the
        # newest head term is negligible.
        br = [_tail_exp_sum_bracket(seq, n_terms, v) for v in x]
        s_hi = np.array([math.inf if b is None else b[1] for b in br])
        s_lo = np.array([0.0 if b is None else b[0] for b in br])
        r = np.exp(-seq.theta(n_terms + 1) * x)
        with np.errstate(divide="ignore", invalid="ignore"):
            lo = np.where(r < 1.0, -s_hi * (1.0 + r / (2.0 * (1.0 - r))), -math.inf)
        hi = -s_lo
        negligible = np.isinf(s_hi) & (np.exp(-seq.theta(n_terms) * x) < 1e-18)
        lo[negligible] = 0.0
    return lo, hi


def _head_log_survival(x, th):
    """sum_j log(1 - e^{-th_j x}) for each entry of x, in blocks of bounded size."""
    step = max(1, _HEAD_BLOCK // max(x.size, 1))
    with np.errstate(divide="ignore"):
        return sum(np.log1p(-np.exp(-np.outer(x, th[j:j + step]))).sum(axis=1)
                   for j in range(0, th.size, step))


def _log_survival_bracket(seq, x, exclude, rel_tol, min_terms=0):
    """Bracket of sum over i not in ``exclude`` of log(1 - e^{-theta_i x}).

    ``x`` is an array of nodes; returns arrays (lo, hi).  (-inf, -inf) means
    the product is exactly zero: the underlying sum diverges or the product
    is certainly below e^-700.  The head is summed directly and doubled until
    the family tail bracket is narrower than ``rel_tol``; out of budget, the
    widest honest bracket is returned instead of a silently tightened one.
    """
    x = np.asarray(x, dtype=np.float64)
    lo = np.empty(x.shape)
    hi = np.empty(x.shape)
    partial = np.zeros(x.shape)
    live = np.arange(x.size)
    n = max(32, 2 * max(exclude, default=0), int(min_terms))
    th = np.delete(seq.thetas(n), [i - 1 for i in exclude])
    while True:
        partial[live] += _head_log_survival(x[live], th)
        t_lo, t_hi = _tail_log_survival(seq, n, x[live])
        lo[live] = partial[live] + t_lo
        hi[live] = partial[live] + t_hi
        if n >= _TERMS_MAX:
            break
        with np.errstate(invalid="ignore"):
            live = live[(t_hi - t_lo > rel_tol) & (t_lo < -1e-300)
                        & (hi[live] > LOG_PRODUCT_FLOOR)]
        if live.size == 0:
            break
        th = seq.thetas(2 * n)[n:]
        n *= 2
    flushed = hi <= LOG_PRODUCT_FLOOR
    lo[flushed] = hi[flushed] = -math.inf
    return lo, hi


# ---------------------------------------------------------------------------
# f and the convergence classifier
# ---------------------------------------------------------------------------

def _condensation_finite(seq, x):
    """Cauchy condensation: f(x) counts as finite when, over the first 2^16 weights,
    the window [2^15, 2^16) sums to less than [2^14, 2^15) (in log space, so
    large x cannot underflow both to 0).  A heuristic: it resolves x0 to about 2^-15.
    """
    prefix = seq.thetas(1 << 16)
    return logsumexp(-x * prefix[1 << 15:]) < logsumexp(-x * prefix[1 << 14:1 << 15])


def f_eval(seq, x, tol=1e-10):
    """sum_i exp(-theta_i x) within additive ``tol``; inf when divergent.

    Without a finite tail bracket the sum is inf when :func:`_condensation_finite`
    says so, else certified once its windows shrink geometrically, else
    ``ToleranceError`` after 2^21 terms.
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    x = float(x)
    if x <= 0.0:
        raise PreconditionError("x must be positive (the sum is infinite at x <= 0)")
    n = 64
    partial = 0.0
    done = 0
    prev_window = None
    while True:
        th = seq.thetas(n)[done:n]
        window = float(np.exp(-x * th).sum())
        partial += window
        done = n
        br = _tail_exp_sum_bracket(seq, n, x)
        if br == _DIVERGENT:
            return math.inf
        if br is not None and br[1] - br[0] <= tol and math.isfinite(br[1]):
            return partial + 0.5 * (br[0] + br[1])
        if br is None and prev_window is not None:
            if window <= tol / 4.0 and window < 0.5 * prev_window:
                q = window / prev_window
                est = window * q / (1.0 - q)
                if est <= tol:
                    return partial + 0.5 * est
            if not _condensation_finite(seq, x):
                return math.inf
        prev_window = window
        if n >= _TERMS_MAX:
            raise ToleranceError(f"f_eval could not certify tolerance {tol:g} at x={x:g}")
        n *= 2


@dataclass(frozen=True)
class ConvergenceReport:
    """Outcome of the reversed-order convergence test.

    ``converges`` is true exactly when x0 is finite and f(x0) is infinite.
    """

    x0: float
    f_at_x0: str
    converges: bool
    method: str
    caveat: str | None = None

    def __post_init__(self):
        if self.f_at_x0 not in ("finite", "infinite"):
            raise PreconditionError("f_at_x0 must be 'finite' or 'infinite'")
        expected = math.isfinite(self.x0) and self.f_at_x0 == "infinite"
        if self.converges != expected:
            raise PreconditionError("converges flag inconsistent with x0 / f(x0)")

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
        x0 = x0_of(seq.beta)
        converges = math.isfinite(x0) and f_at == "infinite"
        return ConvergenceReport(x0=x0, f_at_x0=f_at, converges=converges, method="analytic")
    if not seq.monotone:
        raise PreconditionError("convergence_test requires a monotone sequence")

    caveat = None if seq.tail_bound is not None else \
        "no tail bound supplied; classification rests on partial-sum heuristics " \
        "and x0 is resolved only to about 2^-15"

    def is_finite(x):
        if seq.tail_bound is not None:
            n = 64
            while n <= _TERMS_MAX:
                if math.isfinite(float(seq.tail_bound(n, x))):
                    return True
                n *= 2
            return False
        return _condensation_finite(seq, x)

    hi = 1.0
    doublings = 0
    while not is_finite(hi):
        hi *= 2.0
        doublings += 1
        if doublings > 60:
            return ConvergenceReport(x0=math.inf, f_at_x0="finite", converges=False,
                                     method="numeric-best-effort",
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

    # decide f(x0) by raw partial-sum growth at (or just above) zero
    probe = x0 if x0 > 0 else 1e-12
    partial = float(np.exp(-probe * seq.thetas(1 << 16)).sum())
    f_at_x0 = "infinite" if partial > 1e4 else "finite"
    converges = math.isfinite(x0) and f_at_x0 == "infinite"
    return ConvergenceReport(x0=x0, f_at_x0=f_at_x0, converges=converges,
                             method="numeric-best-effort", caveat=caveat)


# ---------------------------------------------------------------------------
# bottom-card pmfs
# ---------------------------------------------------------------------------

def _check_bottom_labels(a, n=None):
    a = tuple(int(v) for v in a)
    if len(a) == 0:
        raise PreconditionError("need at least one label")
    if len(set(a)) != len(a):
        raise PreconditionError("labels must be distinct")
    for v in a:
        if v < 1 or (n is not None and v > n):
            hi = n if n is not None else "inf"
            raise PreconditionError(f"label {v} out of range 1..{hi}")
    return a


def _telescoped_integral(theta_a, log_survival_bracket, tol, points=None):
    """prefactor * integral_0^1 theta_k y^(T_k - 1) * survival(x=-log y) dy.

    ``log_survival_bracket(x)`` returns (lo, hi) enclosing the log survival
    product.  The integrand uses the midpoint; the worst node-wise envelope
    gap is added to the quadrature error estimate before the tolerance
    check, so sequences whose tails cannot be bracketed tightly fail loudly
    instead of returning a silently degraded value.
    """
    th = np.asarray(theta_a, dtype=np.float64)
    t_partial = np.cumsum(th)
    prefactor = float(np.prod(th[1:-1] / t_partial[1:-1])) if th.size > 2 else 1.0
    c = float(t_partial[-1])
    th_last = float(th[-1])
    worst_gap = 0.0

    def integrand(y):
        nonlocal worst_gap
        if y <= 0.0 or y >= 1.0:
            return 0.0
        x = -math.log(y)
        lo, hi = log_survival_bracket(x)
        base = (c - 1.0) * math.log(y)
        t_hi = base + hi
        if t_hi <= -745.0 or t_hi == -math.inf:
            return 0.0
        t_mid = base + 0.5 * (lo + hi)
        value = 0.0 if t_mid <= -745.0 else th_last * math.exp(t_mid)
        worst_gap = max(worst_gap, th_last * math.exp(t_hi) - value)
        return value

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, abserr = integrate.quad(integrand, 0.0, 1.0,
                                     epsabs=0.5 * tol, epsrel=min(1e-8, 0.1 * tol),
                                     limit=300, points=points)
    # the y interval has unit length, so max node gap bounds its integral
    if abserr + worst_gap > tol:
        raise ToleranceError(
            f"certified error {abserr + worst_gap:g} exceeds tol {tol:g} "
            f"(quadrature {abserr:g}, survival bracket {worst_gap:g})"
        )
    return prefactor * val


def limit_bottom_pmf(seq, a, tol=1e-8, min_terms=0):
    """Limiting probability that the bottom cards read a_1, ..., a_k.

    a_1 is the very bottom card (last drawn), a_2 the one above it, and so
    on.  In the defective regime the value is still computed but a
    :class:`DefectiveMassWarning` is emitted because the probabilities over
    all prefixes then sum to less than one.
    """
    if tol <= 0:
        raise PreconditionError("tol must be positive")
    a = _check_bottom_labels(a)
    exclude = frozenset(a)
    theta_a = [seq.theta(v) for v in a]
    rel = min(1e-9, max(0.01 * tol, 1e-14))

    def ln_surv(x):
        lo, hi = _log_survival_bracket(seq, [x], exclude, rel, min_terms)
        return lo[0], hi[0]

    points = None
    if seq.family in _ANALYTIC_CLASSIFICATION:
        x0 = _ANALYTIC_CLASSIFICATION[seq.family][0](seq.beta)
        if 0.0 < x0 < math.inf:
            points = [math.exp(-x0)]
        report = convergence_test(seq)
        if not report.converges:
            warnings.warn("limit law is defective; probabilities sum to less than one",
                          DefectiveMassWarning, stacklevel=2)
    value = _telescoped_integral(theta_a, ln_surv, tol, points=points)
    return value


def sukhatme_last_card_table(max_label, tol=1e-6):
    """Limiting last-card probabilities for theta_i = i.

    Row ell is P(bottom card = ell) = integral_0^1 ell y^(ell-1)
    prod_{j != ell} (1 - y^j) dy; returns [(label, probability)] for
    labels 1..max_label.
    """
    if max_label < 1:
        raise PreconditionError("max_label must be at least 1")
    seq = linear_weights()
    return [(ell, limit_bottom_pmf(seq, (ell,), tol=tol)) for ell in range(1, max_label + 1)]


def finite_n_bottom_pmf(w, a, tol=1e-10):
    """P(reversed draw order starts a_1, ..., a_k) under finite weights.

    Equivalently the chance the bottom k cards of an n-card deck, built by
    drawing labels 1..n without replacement, read a_1 (bottom) through a_k.
    Uses the same telescoped integral as the limit law, with the finite
    survival product over the labels outside ``a``.
    """
    w = as_weight_vector(w)
    a = _check_bottom_labels(a, n=w.n)
    idx = np.asarray(a) - 1
    theta_a = w.weights[idx]
    others = np.delete(w.weights, idx)
    if others.size == 0:
        t_partial = np.cumsum(theta_a)
        return float(np.prod(theta_a / t_partial))

    def ln_surv(x):
        with np.errstate(divide="ignore"):
            v = float(np.log1p(-np.exp(-x * others)).sum())
        return (v, v)

    return _telescoped_integral(theta_a, ln_surv, tol)


def limit_bottom_pmf_mc(seq, a, size, rng):
    """Importance-sampling Monte Carlo estimate of :func:`limit_bottom_pmf`.

    Draws the k exponential clocks of the named labels directly, scores the
    descending-order indicator times the survival product of the remaining
    labels at the smallest clock, and averages.  The survival product of
    every ordered sample comes from one vectorized call of the certified
    log-survival bracket, tail included; each sample is weighted by the
    midpoint of its bracket.  Returns (estimate, stderr).
    """
    a = _check_bottom_labels(a)
    if size < 1:
        raise PreconditionError("size must be at least 1")
    th = np.array([seq.theta(v) for v in a])
    u = rng.random((size, len(a)))
    x = -np.log(u) / th[None, :]
    ordered = np.all(x[:, :-1] > x[:, 1:], axis=1) if len(a) > 1 else np.ones(size, dtype=bool)
    lo, hi = _log_survival_bracket(seq, x[ordered, -1], frozenset(a), 1e-9)
    weight = np.zeros(size)
    weight[ordered] = np.exp(0.5 * (lo + hi))
    est = float(weight.mean())
    stderr = float(weight.std(ddof=1) / math.sqrt(size))
    return est, stderr
