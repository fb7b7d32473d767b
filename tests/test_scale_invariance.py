"""Luce's model sees only ratios of weights: the law of c theta is the law of theta.

Every probability, and every threshold x0 times c, must therefore come out
the same whatever the scale c of the weights.  Each test below compares a
value at scale c with the same value at c = 1.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lucewalks import (
    RngStream,
    WeightSequence,
    convergence_test,
    finite_n_bottom_pmf,
    limit_bottom_pmf,
    limit_bottom_pmf_mc,
    log_weights,
    luce_pmf,
)

LABELS = [(1,), (2, 5), (3, 1, 4)]
TOL = 1e-8

# c = 10^e for e in [-6, 6]: every decade of the range is drawn alike
scales = st.floats(min_value=-6.0, max_value=6.0).map(lambda e: 10.0 ** e)


def scale_examples(test):
    """Always run both ends of the range, and 1e-3, which printed 0.0 before."""
    for c in (1e-6, 1e-3, 1e6):
        test = example(c=c)(test)
    return settings(max_examples=8)(test)


def linear_times(c):
    """theta_i = c i, a custom sequence with no tail bound."""
    return WeightSequence(lambda i: c * i, monotone=True)


@functools.cache
def log_at_one(a):
    return limit_bottom_pmf(log_weights(1.0), a, tol=TOL)


@functools.cache
def linear_at_one(a):
    return limit_bottom_pmf(linear_times(1.0), a, tol=TOL)


@pytest.mark.parametrize("a", LABELS, ids=str)
@scale_examples
@given(c=scales)
def test_limit_log_family_over_beta(a, c):
    got = limit_bottom_pmf(log_weights(c), a, tol=TOL)
    assert got == pytest.approx(log_at_one(a), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a", LABELS, ids=str)
@scale_examples
@given(c=scales)
def test_limit_custom_linear(a, c):
    got = limit_bottom_pmf(linear_times(c), a, tol=TOL)
    assert got == pytest.approx(linear_at_one(a), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a", LABELS, ids=str)
@scale_examples
@given(c=scales)
def test_finite_n(a, c):
    w = np.arange(1.0, 51.0)
    got = finite_n_bottom_pmf(c * w, a)
    assert got == pytest.approx(finite_n_bottom_pmf(w, a), rel=1e-12, abs=0.0)


@scale_examples
@given(c=scales)
def test_luce_pmf(c):
    w = np.random.default_rng(3).uniform(0.5, 2.0, 8)
    sigma = (5, 2, 8, 1, 7, 3, 6, 4)
    assert luce_pmf(c * w, sigma) == pytest.approx(luce_pmf(w, sigma), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a", LABELS, ids=str)
@scale_examples
@given(c=scales)
def test_mc_z_score(a, c):
    # the estimate from one seed moves only by rounding, and stays within
    # 4 standard errors of the certified value at the same scale
    seq = linear_times(c)
    est, stderr = limit_bottom_pmf_mc(seq, a, 4000, RngStream(29))
    z = (est - limit_bottom_pmf(seq, a, tol=TOL)) / stderr
    est1, stderr1 = limit_bottom_pmf_mc(linear_times(1.0), a, 4000, RngStream(29))
    assert abs(z) <= 4.0
    assert z == pytest.approx((est1 - linear_at_one(a)) / stderr1, abs=1e-6)


@pytest.mark.parametrize("theta", [lambda c, i: 1.5 * c * math.log(i + 1),
                                   lambda c, i: c * i], ids=["1.5c_log", "c_i"])
@pytest.mark.parametrize("c", [1e-30, 1e30])
def test_classifier_x0_times_c(theta, c):
    # at c = 1: x0 = 0.666698 (f(x0) undetermined) and 2.937e-5 (convergent)
    def report(scale):
        return convergence_test(WeightSequence(functools.partial(theta, scale), monotone=True))

    ref, got = report(1.0), report(c)
    assert got.x0 * c == pytest.approx(ref.x0, rel=1e-12, abs=0.0)
    assert (got.f_at_x0, got.converges) == (ref.f_at_x0, ref.converges)
