"""The blocked e_k recurrence against the one-weight-at-a-time loop it replaced.

``loop_recurrence`` is a copy of the earlier ``topk._symmetric_recurrence``:
one numpy step per weight.  Up to one block of weights the library must
agree with it bit for bit; past that, to 1e-12.
"""

import math
import tracemalloc

import numpy as np
import pytest

from lucewalks import elementary_symmetric, tv_exact, tv_uniform_exact
from lucewalks.topk import BLOCK, _symmetric_recurrence


def loop_recurrence(weights, k, coef, dtype):
    """c_k of c_j <- c_j + coef_j theta c_{j-1} over the weights: e_k for coef 1, k! e_k for j."""
    c = np.zeros(k + 1, dtype=dtype)
    c[0] = 1.0
    for th in weights:
        c[1:] = c[1:] + (coef * th) * c[:-1]
    return float(c[k])


def loop_tv(w, k):
    """The earlier tv_exact: 1 - k! e_k from the loop, clipped to [0, 1]."""
    tv = 1.0 - loop_recurrence(w, k, np.arange(1, k + 1, dtype=np.float64), np.float64)
    return min(max(tv, 0.0), 1.0)


def loop_e(w, k):
    """The earlier elementary_symmetric: extended precision past 1000 weights."""
    return loop_recurrence(w, k, 1, np.longdouble if w.size > 1000 else np.float64)


def simplex(seed, n):
    w = np.random.default_rng(seed).uniform(0.5, 2.0, n)
    return w / w.sum()


def ks_for(n):
    return sorted({k for k in (1, 2, 50, 200, n) if k <= n})


class TestBitIdenticalWithinOneBlock:
    @pytest.mark.parametrize("n", [1, 2, 7, 50, BLOCK - 1, BLOCK])
    def test_tv_exact(self, n):
        w = simplex(n, n)
        for k in ks_for(n):
            assert tv_exact(w, k) == loop_tv(w, k), k

    @pytest.mark.parametrize("n", [3, 50, BLOCK - 1, BLOCK])
    def test_elementary_symmetric(self, n):
        raw = np.random.default_rng(n).uniform(0.5, 2.0, n)
        for k in ks_for(n):
            assert elementary_symmetric(raw, k) == loop_e(raw, k), k


class TestAcrossBlocks:
    @pytest.mark.parametrize("n", [BLOCK + 1, 3 * BLOCK + 5])
    def test_tv_exact_against_loop(self, n):
        w = simplex(n, n)
        for k in ks_for(n):
            assert abs(tv_exact(w, k) - loop_tv(w, k)) <= 1e-12, k

    @pytest.mark.parametrize("k", [1, 2, 50, 200])
    def test_tv_exact_against_loop_at_deck_scale(self, k):
        w = simplex(5, 100_000)
        assert abs(tv_exact(w, k) - loop_tv(w, k)) <= 1e-12

    @pytest.mark.parametrize("k", [50, 200])
    def test_uniform_against_closed_form_at_deck_scale(self, k):
        n = 100_000
        assert abs(tv_exact(np.full(n, 1.0 / n), k) - tv_uniform_exact(n, k)) <= 1e-12

    @pytest.mark.parametrize("n,k", [(3 * BLOCK + 5, 1100), (5000, 1000)])
    def test_degree_past_one_block(self, n, k):
        # merged degrees past BLOCK; the loop in extended precision is the reference,
        # since in float64 its early prefixes underflow at this k
        w = simplex(n, n)
        ref = loop_recurrence(w, k, np.arange(1, k + 1, dtype=np.longdouble), np.longdouble)
        assert _symmetric_recurrence(w, k, True, np.float64) == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("n", [2000, 5000])
    def test_elementary_symmetric_extended_precision(self, n):
        raw = np.random.default_rng(n).uniform(0.5, 2.0, n)
        for k in (1, 2, 50, 200, 1000, 3 * n // 5):
            # scaled so that e_k is near 1: C(n, k) mu^k = 1
            mu = math.exp(-(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)) / k)
            w = raw * (mu / raw.mean())
            assert elementary_symmetric(w, k) == pytest.approx(loop_e(w, k), rel=1e-12, abs=0.0)

    def test_k2_is_one_minus_sum_of_squares(self):
        # 2 e_2 = 1 - sum theta^2; with one heavy weight the loop drifts by 1.5e-12
        n = 100_000
        w = np.r_[0.3, np.full(n - 1, 0.7 / (n - 1))]
        exact = 1.0 - float(np.sum(w.astype(np.longdouble) ** 2))
        assert abs((1.0 - tv_exact(w, 2)) - exact) <= 1e-14


class TestLargeK:
    def test_negligible_collision_free_mass_is_one(self):
        # k(k-1) >= 100 n: k! e_k <= exp(-k(k-1)/2n) < e^-50, so TV rounds to 1.0
        n = 20_000
        assert tv_exact(np.full(n, 1.0 / n), n) == 1.0
        assert tv_exact(simplex(1, n), 1415) == 1.0
        assert tv_uniform_exact(n, 1415) == 1.0

    def test_beyond_the_loop_underflow(self):
        # at n = 1e5 and k = 2000 the float64 loop loses 73% of k! e_k to underflow,
        # since its early prefixes cannot hold (t/n)^2000; unit-mass blocks can
        n, k = 100_000, 2000
        got = _symmetric_recurrence(np.full(n, 1.0 / n), k, True, np.float64)
        ref = math.exp(math.fsum(np.log1p(-np.arange(k) / n)))
        assert got == pytest.approx(ref, rel=1e-11)

    def test_merge_temporaries_stay_linear_in_k(self):
        # a (pairs, k+1, k+1) temporary would be 20 x 2001^2 doubles (611 MiB)
        n, k = 20_000, 2000
        tracemalloc.start()
        try:
            elementary_symmetric(np.full(n, 0.04), k)
            _symmetric_recurrence(np.full(n, 1.0 / n), k, True, np.float64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
