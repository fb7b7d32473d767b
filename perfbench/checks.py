"""Independent reference routes and statistical gates for the output checks.

None of these call the ``lucewalks`` code path they are used to check: the
bottom-card references integrate the survival product with their own
Gauss-Legendre rule or Hurwitz-zeta tail, and the samplers are judged by
chi-square against exact probabilities.
"""

import functools
import math

import numpy as np

# scipy is imported inside the functions that need it: checks run after the
# timed region, and a top-level import would count toward the worker's set-up.

# A correct sampler fails a single gate with this probability, and a run
# evaluates fewer than ten gates, so chance failures stay far below one in a
# thousand runs.
CHI2_P = 1e-6
# |z| > 4 has two-sided probability 6.3e-5; the z gate runs once per seed
# because every pass repeats the same draws.
MC_Z_MAX = 4.0

# frozen limiting last-card probabilities for theta_i = i (6 significant digits)
LAST_CARD_TABLE = [0.516094, 0.213212, 0.107310, 0.0597505, 0.0354888,
                   0.0220716, 0.0142167, 0.00941619, 0.00638121, 0.00440862]
LAST_CARD_ATOL = 1e-5


class CheckFailure(Exception):
    """An output disagreed with its independent route."""


def expect(condition, message):
    if not condition:
        raise CheckFailure(message)


def chi_square(counts, probs, what):
    """Pearson chi-square of observed ``counts`` against ``probs``; raises on failure."""
    counts = np.asarray(counts, dtype=np.float64)
    probs = np.asarray(probs, dtype=np.float64)
    expected = counts.sum() * probs / probs.sum()
    return gate(float(((counts - expected) ** 2 / expected).sum()), counts.size - 1, what)


def gate(stat, df, what):
    """Fail when a chi-square statistic with ``df`` degrees of freedom exceeds its CHI2_P quantile."""
    from scipy import stats

    limit = float(stats.chi2.isf(CHI2_P, df))
    expect(stat <= limit, f"{what}: chi-square {stat:.1f} > {limit:.1f} (df {df})")
    return stat


def is_permutation_rows(rows, n):
    rows = np.asarray(rows)
    return rows.shape[1] == n and bool(np.all(np.sort(rows, axis=1) == np.arange(1, n + 1)))


# ---------------------------------------------------------------------------
# bottom-card references
# ---------------------------------------------------------------------------

def _gauss_legendre(edges, nodes_per_panel=80):
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    pts, wts = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        pts.append(0.5 * (b - a) * x + 0.5 * (b + a))
        wts.append(0.5 * (b - a) * w)
    return np.concatenate(pts), np.concatenate(wts)


def _telescoped(theta_a, y, wts, log_survival):
    """prod_{m=2}^{k-1} theta_m / T_m * int_0^1 theta_k y^(T_k-1) S(y) dy."""
    th = np.asarray(theta_a, dtype=np.float64)
    t_partial = np.cumsum(th)
    prefactor = float(np.prod(th[1:-1] / t_partial[1:-1])) if th.size > 2 else 1.0
    log_f = (t_partial[-1] - 1.0) * np.log(y) + log_survival
    return prefactor * float(np.sum(wts * th[-1] * np.exp(log_f)))


@functools.lru_cache(maxsize=4)
def _integer_log_factors(n_max):
    y, wts = _gauss_legendre([0.0, 0.5, 0.8, 0.9, 0.95, 0.98, 0.995, 1.0])
    i = np.arange(1, n_max + 1, dtype=np.float64)
    return y, wts, np.log1p(-np.power(y[:, None], i[None, :]))


def integer_weights_bottom_pmf(labels, n_max=5000):
    """Bottom-card probability for theta_i = i, i <= n_max (labels excluded).

    With n_max large this is the limit law: every factor with i > n_max
    differs from 1 by at most y^n_max, which is below e^-100 wherever the
    integrand is not itself below e^-80.
    """
    y, wts, factors = _integer_log_factors(n_max)
    log_s = factors.sum(axis=1) - factors[:, [v - 1 for v in labels]].sum(axis=1)
    return _telescoped([float(v) for v in labels], y, wts, log_s)


def log_family_bottom_pmf(beta, label, head=2000):
    """Limit bottom-card probability for theta_i = beta log(i + 1), one label.

    The survival product is summed directly for i <= head; the tail
    sum_{i > head} log(1 - (i+1)^-s), s = beta x, is -sum_m zeta(m s, head + 2) / m
    (Hurwitz zeta), and the integrand vanishes for s <= 1.
    """
    from scipy import integrate, special

    i = np.arange(1, head + 1, dtype=np.float64)
    i = i[i != label]
    theta = beta * math.log(label + 1)

    def integrand(x):
        s = beta * x
        if s <= 1.0:
            return 0.0
        log_s = float(np.log1p(-np.power(i + 1.0, -s)).sum())
        for m in range(1, 200):
            term = float(special.zeta(m * s, head + 2.0)) / m
            log_s -= term
            if term < 1e-18:
                break
        return theta * math.exp(-theta * x + log_s)

    x0 = 1.0 / beta
    val, _ = integrate.quad(integrand, x0, x0 + 60.0 / theta, epsabs=1e-12, epsrel=1e-11,
                            limit=400, points=[x0 + 0.05, x0 + 0.5])
    return val
