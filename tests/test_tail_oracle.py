"""The per-family tail code that the shared S_n bracket replaced, kept as an oracle.

Before ``bottomk._exp_sum_tail``, each weight family wrote its tail of the
survival product on its own: the linear family summed the geometric m-series
exactly, and the log families bracketed orders 1..3 of -log(1-u) = sum u^m/m
by trapezoid and midpoint bounds and folded the orders above into the upper
side.  The copies below are that code.  The order sum over the shared bracket
must nest inside those brackets wherever the tail is above -700 (to 1e-14
relative), and keep every flushed or divergent entry flushed or divergent.
"""

import math

import numpy as np
import pytest

from lucewalks import constant_weights, linear_weights, log_loglog_weights, log_weights
from lucewalks.bottomk import _exp_sum_tail, _loglog_tail_integral, _tail_log_survival

_SERIES_ORDERS = 3


def _log_family_tail(seq, q, x):
    if seq.family == "log":
        ok = seq.beta * x > 1.0
        s = seq.beta * x[ok]
        return ok, q ** -s, lambda m, a: a ** (1.0 - m * s) / (m * s - 1.0)
    ok = x >= 1.0
    v = x[ok]
    return (ok, q ** -v * math.log(q) ** (-2.0 * v),
            lambda m, a: _loglog_tail_integral(m * v, a))


def _tail_exp_sum_bracket(seq, n_terms, x):
    if seq.family == "linear":
        if x <= 0:
            return (math.inf, math.inf)
        v = math.exp(-(n_terms + 1) * x) / (1.0 - math.exp(-x))
        return (v, v)
    if seq.family == "constant":
        return (math.inf, math.inf)
    q = n_terms + 2.0
    ok, g_q, integral = _log_family_tail(seq, q, np.array([float(x)]))
    if not ok[0]:
        return (math.inf, math.inf)
    return (float(integral(1.0, q)[0] + 0.5 * g_q[0]), float(integral(1.0, q - 0.5)[0]))


def _linear_tail_log_survival(n_terms, x):
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
    m = np.arange(1.0, _SERIES_ORDERS + 1.0)[:, None]
    top = _SERIES_ORDERS + 1.0
    lo_mag = ((integral(m, q) + 0.5 * g_q ** m) / m).sum(axis=0)
    hi_mag = ((integral(m, q - 0.5) / m).sum(axis=0)
              + integral(top, q - 0.5) / (top * (1.0 - g_q)))
    return -hi_mag, -lo_mag


def _family_tail_log_survival(seq, n_terms, x):
    lo = np.full(x.shape, -math.inf)
    hi = lo.copy()
    if seq.family == "linear":
        ok = x > 0.0
        lo[ok] = hi[ok] = _linear_tail_log_survival(n_terms, x[ok])
    elif seq.family in ("log", "log-loglog"):
        q = n_terms + 2.0
        ok, g_q, integral = _log_family_tail(seq, q, x)
        lo[ok], hi[ok] = _second_order_tail(integral, g_q, q)
    return lo, hi


def _grid(x0):
    """68 nodes: a geometric sweep, and x0 approached from above and below."""
    sweep = np.geomspace(1e-3, 60.0, 44)
    if x0 == 0.0:
        return np.concatenate([sweep, np.geomspace(1e-6, 9e-4, 24)])
    near = x0 * (1.0 + np.geomspace(1e-9, 0.5, 20))
    return np.concatenate([sweep, near, x0 * np.array([0.5, 0.999, 1.0 - 1e-9, 1.0])])


FAMILIES = [(linear_weights(), 0.0), (log_weights(1.0), 1.0), (log_weights(2.0), 0.5),
            (log_loglog_weights(), 1.0), (constant_weights(), math.inf)]
IDS = ["linear", "log-beta1", "log-beta2", "log-loglog", "constant"]


@pytest.mark.parametrize("n", [32, 4096])
@pytest.mark.parametrize("seq,x0", FAMILIES, ids=IDS)
def test_order_sum_nests_in_family_tails(seq, x0, n):
    x = _grid(1.0 if math.isinf(x0) else x0)
    assert x.size == 68
    old_lo, old_hi = _family_tail_log_survival(seq, n, x)
    new_lo, new_hi = _tail_log_survival(seq, n, x)
    divergent = np.isneginf(old_hi)
    assert np.all(np.isneginf(new_lo[divergent]) & np.isneginf(new_hi[divergent]))
    flushed = ~divergent & (old_hi <= -700.0)
    assert np.all(new_hi[flushed] <= -700.0)
    kept = ~divergent & ~flushed
    assert np.all(np.isfinite(new_lo[kept])) and np.all(new_lo[kept] <= new_hi[kept])
    slack = 1e-14 * np.abs(old_lo[kept])
    assert np.all(new_lo[kept] >= old_lo[kept] - slack)
    assert np.all(new_hi[kept] <= old_hi[kept] + slack)


@pytest.mark.parametrize("n", [64, 4096])
@pytest.mark.parametrize("seq,x0", FAMILIES, ids=IDS)
def test_exp_sum_bracket_matches_family_tails(seq, x0, n):
    # linear and constant keep the formula; the log families intersect it with an
    # Euler-Maclaurin bracket, so theirs nests inside it (TestEulerMaclaurinTails in
    # test_bottomk.py checks that it holds the sum)
    x = _grid(1.0 if math.isinf(x0) else x0)
    new_lo, new_hi = _exp_sum_tail(seq, n, x)
    for v, lo, hi in zip(x, new_lo, new_hi):
        old_lo, old_hi = _tail_exp_sum_bracket(seq, n, v)
        if math.isinf(old_lo):
            assert math.isinf(lo) and math.isinf(hi)
            continue
        if seq.family in ("log", "log-loglog"):
            assert old_lo * (1.0 - 1e-14) <= lo <= hi <= old_hi * (1.0 + 1e-14)
            continue
        # 1 - e^-x loses digits to cancellation at small x; -expm1(-x) does not
        rtol = 1e-16 / min(v, 1.0) + 1e-15
        assert lo == pytest.approx(old_lo, rel=rtol, abs=0.0)
        assert hi == pytest.approx(old_hi, rel=rtol, abs=0.0)
