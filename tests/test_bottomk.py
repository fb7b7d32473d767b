"""Bottom-of-the-deck limits: convergence classification and the limiting pmf."""

import dataclasses
import itertools
import json
import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from lucewalks import (
    DefectiveMassWarning,
    PreconditionError,
    RngStream,
    ToleranceError,
    WeightSequence,
    constant_weights,
    convergence_test,
    f_eval,
    finite_n_bottom_pmf,
    limit_bottom_pmf,
    limit_bottom_pmf_mc,
    linear_weights,
    log_loglog_weights,
    log_weights,
    luce_pmf,
    sukhatme_last_card_table,
)
from lucewalks import bottomk, kernels
from lucewalks.bottomk import SEQUENCE_FAMILIES, _logsumexp

# the ten last-card probabilities for theta_i = i, frozen reference values
LAST_CARD_TABLE = [
    0.516094,
    0.213212,
    0.107310,
    0.0597505,
    0.0354888,
    0.0220716,
    0.0142167,
    0.00941619,
    0.00638121,
    0.00440862,
]


class TestWeightSequence:
    def test_theta_caching_and_one_based(self):
        seq = linear_weights()
        assert seq.theta(1) == 1.0
        assert seq.theta(5) == 5.0
        np.testing.assert_allclose(seq.thetas(4), [1.0, 2.0, 3.0, 4.0])

    def test_positivity_enforced(self):
        seq = WeightSequence(lambda i: i - 2.0, monotone=True)
        with pytest.raises(PreconditionError):
            seq.thetas(3)

    def test_monotone_enforced(self):
        seq = WeightSequence(lambda i: 4.0 - i if i < 4 else i, monotone=True)
        with pytest.raises(PreconditionError):
            seq.thetas(5)

    def test_family_tags_only_from_builtins(self):
        # a tag would make a custom evaluator be classified and summed as that family
        for tag in ({"family": "linear"}, {"beta": 2.0}):
            with pytest.raises(TypeError):
                WeightSequence(lambda i: 1.0, **tag)
        assert (WeightSequence(float).family, WeightSequence(float).beta) == (None, None)
        assert (log_weights(2.0).family, log_weights(2.0).beta) == ("log", 2.0)

    def test_families_registered(self):
        assert set(SEQUENCE_FAMILIES) == {"linear", "constant", "log", "log-loglog"}

    @pytest.mark.parametrize(
        "seq,formula",
        [
            (linear_weights(), float),
            (constant_weights(), lambda i: 1.0),
            (log_weights(1.0), lambda i: math.log(i + 1)),
            (log_weights(2.0), lambda i: 2.0 * math.log(i + 1)),
            (log_loglog_weights(),
             lambda i: math.log(2.0) if i == 1 else math.log(i + 1) + 2.0 * math.log(math.log(i + 1))),
        ],
    )
    def test_builtin_thetas_match_scalar_formula(self, seq, formula):
        th = seq.thetas(10**6)
        eps = np.finfo(np.float64).eps
        for i in [*range(1, 11), 10**6]:
            assert th[i - 1] == pytest.approx(formula(i), rel=4 * eps, abs=0.0)
            assert type(seq.theta(i)) is float

    def test_custom_int_only_evaluator(self):
        calls = []

        def ev(i):
            calls.append(i)
            return math.log(i + 1)  # math.log rejects arrays

        seq = WeightSequence(ev, monotone=True)
        for i in range(1, 1001):
            assert seq.theta(i) == math.log(i + 1)
        assert calls == list(range(1, len(calls) + 1))
        assert 1000 <= len(calls) <= 2000

    def test_tail_read_leaves_cache_at_head(self):
        # the survival tail starts at theta_n, the last weight the head cached,
        # so no tail read grows the cache
        seq = log_weights(2.0)
        limit_bottom_pmf(seq, (1,), tol=1e-6)
        assert seq._cache.size <= 16384  # the head of 2^14 terms

        from lucewalks.bottomk import _tail_log_survival

        seq = WeightSequence(lambda i: 2.0 * math.log(i + 1), monotone=True)
        seq.thetas(64)
        _tail_log_survival(seq, 63, np.array([1.0, 2.0]))
        assert seq._cache.size == 64


class TestFamilies:
    def test_linear(self):
        np.testing.assert_allclose(linear_weights().thetas(3), [1.0, 2.0, 3.0])

    def test_constant(self):
        np.testing.assert_allclose(constant_weights().thetas(3), [1.0, 1.0, 1.0])

    def test_log(self):
        seq = log_weights(2.0)
        assert seq.theta(1) == pytest.approx(2.0 * math.log(2.0))
        assert seq.beta == 2.0
        with pytest.raises(PreconditionError):
            log_weights(0.0)

    @pytest.mark.parametrize("beta", [math.inf, math.nan])
    def test_log_beta_must_be_finite(self, beta):
        # beta = inf made every weight inf and x0 = 0; nan made x0 nan
        with pytest.raises(PreconditionError, match="finite"):
            log_weights(beta)

    def test_log_loglog(self):
        seq = log_loglog_weights()
        # the i = 1 term is clamped to log 2 so it stays positive
        assert seq.theta(1) == pytest.approx(math.log(2.0))
        assert seq.theta(2) == pytest.approx(math.log(3.0) + 2.0 * math.log(math.log(3.0)))


class TestTailBounds:
    """Every family tail bound must sandwich empirical partial sums."""

    @pytest.mark.parametrize("name", ["linear", "log", "log-loglog"])
    @pytest.mark.parametrize("x", [0.5, 1.0, 2.5])
    def test_bracket_contains_continuation(self, name, x):
        from lucewalks.bottomk import _exp_sum_tail

        seq = SEQUENCE_FAMILIES[name]() if name != "log" else log_weights(1.0)
        if name == "log-loglog" and x < 1.0:
            return  # divergent regime, bracket is (inf, inf)
        n = 256
        lo, hi = _exp_sum_tail(seq, n, x)
        th = seq.thetas(16 * n)
        partial = float(np.exp(-th[n:] * x).sum())
        assert partial <= hi + 1e-12
        _, hi_far = _exp_sum_tail(seq, 16 * n, x)
        assert lo <= partial + hi_far + 1e-12

    def test_constant_divergent(self):
        from lucewalks.bottomk import _exp_sum_tail

        lo, hi = _exp_sum_tail(constant_weights(), 64, 1.0)
        assert math.isinf(lo) and math.isinf(hi)

    def test_custom_bound_respected(self):
        # theta_i = i with a valid integral-test tail bound
        seq = WeightSequence(
            lambda i: float(i), monotone=True, tail_bound=lambda n, x: math.exp(-n * x) / x
        )
        th = seq.thetas(2048)
        for x in (0.5, 2.0):
            partial = float(np.exp(-th[256:] * x).sum())
            assert partial <= seq.tail_bound(256, x)


def _far_tail_log_survival(g_power_integral, g, g_slope, q, orders=3):
    """sum_{k >= q} log(1 - g(k)) by Euler-Maclaurin, for q so large that the
    derivative remainder and the orders above ``orders`` are below 1e-20."""
    total = 0.0
    for m in range(1, orders + 1):
        f_q = g(q) ** m
        slope = m * g(q) ** (m - 1) * g_slope(q)
        total -= (g_power_integral(m, q) + 0.5 * f_q - slope / 12.0) / m
    return total


def _direct_log_survival(g_of_k, k_lo, k_hi, chunk=1 << 20):
    """sum_{k_lo <= k < k_hi} log(1 - g(k)), summed in chunks."""
    total = 0.0
    for start in range(k_lo, k_hi, chunk):
        k = np.arange(start, min(start + chunk, k_hi), dtype=np.float64)
        total += float(np.log1p(-g_of_k(k)).sum())
    return total


def _log_family_oracle(s):
    def integral(m, q):
        return q ** (1.0 - m * s) / (m * s - 1.0)

    return (lambda k: k ** -s), integral, (lambda q: -s * q ** (-s - 1.0))


def _loglog_oracle(x):
    from scipy import integrate

    def g(k):
        return np.exp(-x * (np.log(k) + 2.0 * np.log(np.log(k))))

    def integral(m, q):
        # t = log u: integral_{log q}^inf e^{(1 - mx) t} t^(-2mx) dt
        val, _ = integrate.quad(lambda t: math.exp((1.0 - m * x) * t) * t ** (-2.0 * m * x),
                                math.log(q), math.inf, epsabs=0.0, epsrel=1e-13, limit=400)
        return val

    def slope(q):
        return -x * float(g(q)) * (1.0 + 2.0 / math.log(q)) / q

    return (lambda k: g(k)), integral, slope


class TestSecondOrderTails:
    """The log-survival tail brackets of the log families contain the truth."""

    FAR = 1 << 23

    @pytest.mark.parametrize(
        "seq,x",
        [(log_weights(beta), s / beta) for beta in (1.0, 2.0) for s in (1.02, 1.3, 2.0, 5.0)]
        + [(log_loglog_weights(), x) for x in (1.0, 1.05, 1.5, 3.0)],
    )
    def test_bracket_contains_truth(self, seq, x):
        from lucewalks.bottomk import _tail_log_survival

        s = seq.beta * x if seq.family == "log" else x
        g, integral, slope = _log_family_oracle(s) if seq.family == "log" else _loglog_oracle(x)
        # theta_i depends on k = i + 1; terms i > n are k >= n + 2
        far = _far_tail_log_survival(integral, g, slope, float(self.FAR + 2))
        beyond_4096 = _direct_log_survival(g, 4096 + 2, self.FAR + 2) + far
        truth = {4096: beyond_4096, 64: _direct_log_survival(g, 64 + 2, 4096 + 2) + beyond_4096}
        for n, true in truth.items():
            lo, hi = _tail_log_survival(seq, n, np.array([x]))
            slack = 1e-12 * abs(true)
            assert lo[0] <= true + slack
            assert true <= hi[0] + slack
            if n == 4096 and s >= 1.3:
                assert hi[0] - lo[0] < 1e-9

    @pytest.mark.parametrize("y", [1.0, 1.001, 1.3, 4.0, 40.0])
    @pytest.mark.parametrize("a", [33.5, 4098.0, 2.0**21])
    def test_loglog_integral(self, y, a):
        from scipy import integrate

        from lucewalks.bottomk import _loglog_tail_integral

        ref, _ = integrate.quad(lambda t: math.exp((1.0 - y) * t) * t ** (-2.0 * y),
                                math.log(a), math.inf, epsabs=0.0, epsrel=1e-13, limit=400)
        assert float(_loglog_tail_integral(y, a)) == pytest.approx(ref, rel=1e-12)

    def test_linear_series_matches_scalar_loop(self):
        from lucewalks.bottomk import _tail_log_survival

        def one_term_at_a_time(n, x):
            acc = 0.0
            for m in range(1, 100000):
                term = math.exp(-m * (n + 1) * x) / (m * -math.expm1(-m * x))
                acc += term
                if term < 1e-18 * max(acc, 1e-300) or acc > 800.0:
                    break
            return -acc

        x = np.geomspace(1e-3, 50.0, 200)
        for n in (32, 1000):
            want = np.array([one_term_at_a_time(n, v) for v in x])
            # past -800 both stop early: the survival product flushes to zero
            flushed = want < -800.0
            for got in _tail_log_survival(linear_weights(), n, x):
                assert np.all(got[flushed] < -800.0)
                np.testing.assert_allclose(got[~flushed], want[~flushed], rtol=1e-14, atol=0.0)

    def test_divergent_and_vectorized(self):
        from lucewalks.bottomk import _tail_log_survival

        x = np.array([0.4, 0.5, 0.75, 2.0])  # beta x = 0.8, 1, 1.5, 4
        lo, hi = _tail_log_survival(log_weights(2.0), 64, x)
        assert np.all(np.isneginf(lo[:2])) and np.all(np.isneginf(hi[:2]))
        for j in (2, 3):
            one_lo, one_hi = _tail_log_survival(log_weights(2.0), 64, x[j:j + 1])
            assert (lo[j], hi[j]) == (one_lo[0], one_hi[0])
            assert -np.inf < lo[j] < hi[j] < 0.0


class TheoremSeriesEvaluation:
    """f(x) = sum exp(-theta_i x) evaluated with certified truncation."""


class TestSeriesEvaluationTheorem:
    def test_linear_geometric(self):
        # sum exp(-i) = 1 / (e - 1)
        assert f_eval(linear_weights(), 1.0) == pytest.approx(1.0 / (math.e - 1.0), abs=1e-10)
        assert f_eval(linear_weights(), 3.0) == pytest.approx(
            1.0 / (math.exp(3.0) - 1.0), abs=1e-10
        )

    def test_constant_divergent(self):
        assert f_eval(constant_weights(), 1.0) == math.inf

    @pytest.mark.parametrize("beta", [1.0, 3.0])
    def test_log_zeta_value(self, beta):
        # theta_i = beta log(i+1), x = 2/beta: sum (i+1)^(-2) = pi^2/6 - 1
        got = f_eval(log_weights(beta), 2.0 / beta, tol=1e-9)
        assert got == pytest.approx(math.pi**2 / 6.0 - 1.0, abs=1e-8)

    def test_log_divergent_below_threshold(self):
        assert f_eval(log_weights(1.0), 0.5) == math.inf

    def test_nonpositive_x_rejected(self):
        with pytest.raises(PreconditionError):
            f_eval(linear_weights(), 0.0)
        with pytest.raises(PreconditionError):
            f_eval(linear_weights(), -1.0)

    @pytest.mark.parametrize("beta,x", [(1.0, 1.1), (1.0, 1.5), (2.0, 0.55)])
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_log_near_threshold(self, beta, x, tol):
        from scipy.special import zeta

        # sum_i (i+1)^(-beta x) = zeta(beta x) - 1
        got = f_eval(log_weights(beta), x, tol=tol)
        assert abs(got - (zeta(beta * x) - 1.0)) <= tol

    @pytest.mark.parametrize("x", [1.0, 1.05])
    def test_log_loglog_at_threshold(self, x):
        g, integral, slope = _loglog_oracle(x)
        # theta_1 = log 2; theta_i for i >= 2 is g at k = i + 1.  With orders=1 the
        # far-tail log survival is minus the Euler-Maclaurin sum of g beyond k_far.
        k_far = 1 << 16
        truth = (2.0 ** -x + float(g(np.arange(3.0, k_far)).sum())
                 - _far_tail_log_survival(integral, g, slope, float(k_far), orders=1))
        assert abs(f_eval(log_loglog_weights(), x, tol=1e-10) - truth) <= 1e-10

    def test_custom_without_bound(self):
        # fast decay: certified by window extrapolation alone
        seq = WeightSequence(lambda i: float(i * i), monotone=True)
        brute = sum(math.exp(-(i * i) * 0.3) for i in range(1, 200))
        assert f_eval(seq, 0.3, tol=1e-9) == pytest.approx(brute, abs=1e-8)

    def test_custom_without_bound_slow_decay(self):
        from scipy.special import zeta

        # sum_i (i+1)^(-1.5x) is finite exactly when x > 2/3
        seq = WeightSequence(lambda i: 1.5 * math.log(i + 1), monotone=True)
        assert f_eval(seq, 0.5) == math.inf
        # zeta(1.05) - 1 ~ 19.58 is finite but too slow to certify from 2^21 terms
        with pytest.raises(ToleranceError):
            f_eval(seq, 0.7)
        assert abs(f_eval(seq, 2.0) - (zeta(3.0) - 1.0)) <= 1e-10

    def test_custom_without_bound_capped_diverges(self):
        # every term past i = 50 is e^-50, so the sum diverges, though its
        # second window is already small enough for the window extrapolation
        seq = WeightSequence(lambda i: min(float(i), 50.0), monotone=True)
        assert f_eval(seq, 1.0) == math.inf


class TheoremConvergenceCriterion:
    """Reversed orders converge iff x0 is finite and f blows up at x0."""


class TestConvergenceCriterionTheorem:
    def test_linear_family(self):
        rep = convergence_test(linear_weights())
        assert rep.x0 == 0.0 and rep.f_at_x0 == "infinite" and rep.converges
        assert rep.method == "analytic"

    def test_constant_family(self):
        rep = convergence_test(constant_weights())
        assert math.isinf(rep.x0) and not rep.converges

    def test_log_family(self):
        for beta in (0.5, 1.0, 2.0):
            rep = convergence_test(log_weights(beta))
            assert rep.x0 == pytest.approx(1.0 / beta)
            assert rep.f_at_x0 == "infinite" and rep.converges

    def test_log_loglog_family(self):
        # x0 = 1 but f(1) < infinity: defective limit, no convergence
        rep = convergence_test(log_loglog_weights())
        assert rep.x0 == pytest.approx(1.0)
        assert rep.f_at_x0 == "finite" and not rep.converges

    def test_custom_numeric_with_bound(self):
        seq = WeightSequence(
            lambda i: float(i), monotone=True, tail_bound=lambda n, x: math.exp(-n * x) / x
        )
        rep = convergence_test(seq)
        assert rep.method == "numeric-best-effort"
        assert rep.x0 == pytest.approx(0.0, abs=1e-6)
        assert rep.converges
        assert rep.caveat is None

    def test_custom_numeric_without_bound(self):
        seq = WeightSequence(lambda i: float(i), monotone=True)
        rep = convergence_test(seq)
        assert rep.caveat is not None

    def test_custom_without_bound_condensation(self):
        def classify(evaluator):
            rep = convergence_test(WeightSequence(evaluator, monotone=True))
            assert rep.caveat is not None
            return rep

        # (i+1)^(-1.5x) is summable exactly when x > 2/3
        assert abs(classify(lambda i: 1.5 * math.log(i + 1)).x0 - 2.0 / 3.0) < 0.01
        assert classify(lambda i: float(i)).converges
        # constant weights never give a finite sum, however large x is
        assert math.isinf(classify(lambda i: 1.0).x0)

    def test_custom_slow_divergence_undetermined(self):
        # x0 = 2/3 and f(x0) = sum 1/(i+1) = inf, but 2^16 terms only reach about 11
        rep = convergence_test(WeightSequence(lambda i: 1.5 * math.log(i + 1), monotone=True))
        assert rep.f_at_x0 == "undetermined" and rep.converges is None
        assert rep.to_dict()["converges"] is None
        # a prefix past 1e4 still decides f(x0) infinite
        rep = convergence_test(WeightSequence(lambda i: float(i), monotone=True))
        assert rep.f_at_x0 == "infinite" and rep.converges is True

    def test_non_monotone_custom_rejected(self):
        seq = WeightSequence(lambda i: float(i % 3 + 1))
        with pytest.raises(PreconditionError):
            convergence_test(seq)

    def test_report_invariant(self):
        from lucewalks import ConvergenceReport

        # the flag is derived: true exactly for finite x0 with f(x0) infinite
        for x0, f_at in itertools.product((0.0, 0.5, math.inf),
                                          ("finite", "infinite", "undetermined")):
            rep = ConvergenceReport(x0=x0, f_at_x0=f_at, method="analytic")
            want = None if f_at == "undetermined" else math.isfinite(x0) and f_at == "infinite"
            assert rep.converges is want, (x0, f_at)
            assert json.loads(json.dumps(rep.to_dict()))["converges"] is want

    def test_report_undetermined_invariant(self):
        from lucewalks import ConvergenceReport

        with pytest.raises(TypeError):
            ConvergenceReport(x0=0.5, f_at_x0="infinite", converges=True, method="analytic")
        with pytest.raises(PreconditionError):
            ConvergenceReport(x0=0.5, f_at_x0="maybe", method="analytic")
        assert "converges" not in {f.name for f in dataclasses.fields(ConvergenceReport)}

    def test_report_to_dict(self):
        d = convergence_test(constant_weights()).to_dict()
        assert d["x0"] == "inf"
        assert d["converges"] is False

    @pytest.mark.parametrize("evaluator,x0", [
        (lambda i: 1.5 * math.log(i + 1), 0.666698425833097),
        (lambda i: float(i), 2.9370838931860597e-05),
        (lambda i: 2.0 * math.log(i + 1), 0.5000238193748225),
        (lambda i: math.log(i + 1) + 2.0 * math.log(math.log(i + 2)), 0.8386182803338824),
        (math.sqrt, 0.01094088140657706),
    ], ids=["1.5log", "linear", "2log", "log+2loglog", "sqrt"])
    def test_condensation_x0_pinned(self, evaluator, x0):
        # the bisection's every comparison of the two window log-sums is pinned
        assert convergence_test(WeightSequence(evaluator, monotone=True)).x0 == x0


class TestLogSumExp:
    """The condensation test's log-sum against scipy's."""

    @staticmethod
    def _reference(a):
        from scipy.special import logsumexp

        return float(logsumexp(a))

    @pytest.mark.parametrize("size", [1, 7, 1000, 1 << 15])
    @pytest.mark.parametrize("centre", [0.0, 700.0, -700.0])
    def test_matches_scipy(self, size, centre):
        a = centre + 5.0 * np.random.default_rng(size).standard_normal(size)
        assert math.isclose(_logsumexp(a), self._reference(a), rel_tol=1e-14)

    def test_minus_inf_entries(self):
        a = np.random.default_rng(3).standard_normal(1000) - 700.0
        a[::3] = -math.inf
        assert math.isclose(_logsumexp(a), self._reference(a), rel_tol=1e-14)

    def test_all_minus_inf(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert _logsumexp(np.full(16, -math.inf)) == -math.inf


class TheoremLastCardTable:
    """Limiting last-card probabilities for theta_i = i."""


class TestLastCardTableTheorem:
    def test_table_reproduced(self):
        rows = sukhatme_last_card_table(10, tol=1e-6)
        got = [p for _, p in rows]
        assert [lab for lab, _ in rows] == list(range(1, 11))
        np.testing.assert_allclose(got, LAST_CARD_TABLE, atol=1e-5)

    def test_strictly_decreasing_positive(self):
        rows = sukhatme_last_card_table(10, tol=1e-6)
        probs = np.array([p for _, p in rows])
        assert np.all(probs > 0)
        assert np.all(np.diff(probs) < 0)

    def test_partial_sum(self):
        rows = sukhatme_last_card_table(10, tol=1e-6)
        assert sum(p for _, p in rows) == pytest.approx(0.9883493, abs=2e-6)


def enumeration_bottom_prob(w, a):
    """P(bottom cards read a_1 (last drawn), ..., a_k) by exhausting S_n."""
    n = len(w)
    k = len(a)
    suffix = tuple(reversed(a))  # draw order visits a_k first, a_1 last
    total = 0.0
    for sigma in itertools.permutations(range(1, n + 1)):
        if tuple(sigma[n - k:]) == suffix:
            total += luce_pmf(w, sigma)
    return total


class TestFiniteN:
    def test_single_card(self):
        assert finite_n_bottom_pmf([5.0], (1,)) == pytest.approx(1.0)

    def test_three_cards(self):
        w = [1.0, 2.0, 3.0]
        got = finite_n_bottom_pmf(w, (1,))
        assert got == pytest.approx(enumeration_bottom_prob(w, (1,)), abs=1e-10)

    def test_seven_cards_linear(self):
        w = [float(i) for i in range(1, 8)]
        got = finite_n_bottom_pmf(w, (1,))
        assert got == pytest.approx(enumeration_bottom_prob(w, (1,)), abs=1e-8)

    def test_pairs_match_enumeration(self, np_rng):
        w = np_rng.uniform(0.5, 3.0, size=5)
        for a in itertools.permutations(range(1, 6), 2):
            got = finite_n_bottom_pmf(w, a)
            assert got == pytest.approx(enumeration_bottom_prob(w, a), abs=1e-10)

    def test_full_deck_is_luce_reversal(self, np_rng):
        w = np_rng.uniform(0.5, 3.0, size=4)
        for a in itertools.permutations(range(1, 5)):
            got = finite_n_bottom_pmf(w, a)
            assert got == pytest.approx(luce_pmf(w, tuple(reversed(a))), abs=1e-12)

    def test_full_deck_every_order(self, np_rng):
        # the 873 orders of n <= 6: the whole deck is the reversed draw order
        for n in range(1, 7):
            w = np_rng.uniform(0.5, 3.0, size=n)
            for a in itertools.permutations(range(1, n + 1)):
                want = luce_pmf(w, a[::-1])
                assert finite_n_bottom_pmf(w, a) == pytest.approx(want, rel=1e-15, abs=0.0), a

    @pytest.mark.parametrize("w", [[1e-6, 1.0, 1.0], [1.0, 1e6, 1e6], [1e-6, 1.0, 2.0, 3.0],
                                   [1.0, 2.0, 1e5], [1e-3, 1.0, 1e3, 1e6]], ids=str)
    def test_weights_decades_apart(self, w):
        # no one unit fits every weight: unclamped, the power of y reached 999999
        # and label 2 read 0.0; a survival step in a sliver by y = 1 needs an
        # interval of its own, or label 1 reads 1.0 (off by up to 1.5e-6)
        for a in itertools.chain(itertools.permutations(range(1, len(w) + 1), 1),
                                 itertools.permutations(range(1, len(w) + 1), 2)):
            got = finite_n_bottom_pmf(w, a)
            assert got == pytest.approx(enumeration_bottom_prob(w, a), rel=0.0, abs=1e-10), a

    def test_bad_labels(self):
        with pytest.raises(PreconditionError):
            finite_n_bottom_pmf([1.0, 2.0], (1, 1))
        with pytest.raises(PreconditionError):
            finite_n_bottom_pmf([1.0, 2.0], (3,))
        with pytest.raises(PreconditionError):
            finite_n_bottom_pmf([1.0, 2.0], ())


class TestTinyFirstWeight:
    """theta_1 = 1e-6 c and theta_i = c i after it: the weights span six decades."""

    @staticmethod
    def direct(label):
        # integral_0^inf theta e^{-theta x} prod_{i != label} (1 - e^{-theta_i x}) dx
        # in x itself, at c = 1; past x = 60 the product is 1 to e^-120
        from scipy import integrate

        th = np.concatenate([[1e-6], np.arange(2.0, 6001.0)])
        t = th[label - 1]
        others = np.delete(th, label - 1)

        def f(x):
            return t * math.exp(-t * x + np.log1p(-np.exp(-others * x)).sum()) if x > 0 else 0.0

        head, _ = integrate.quad(f, 0.0, 60.0, epsabs=1e-18, epsrel=1e-12, limit=500,
                                 points=[0.05, 0.5, 2.0, 10.0])
        return head + math.exp(-60.0 * t)

    @pytest.mark.parametrize("label", [1, 2, 3])
    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_against_direct_integral(self, label, c):
        seq = WeightSequence(lambda i: c * (1e-6 if i == 1 else float(i)), monotone=True)
        got = limit_bottom_pmf(seq, (label,), tol=1e-12)
        assert got == pytest.approx(self.direct(label), rel=0.0, abs=1e-12)


class TheoremFiniteToLimit:
    """Finite-deck last-card probabilities decrease to the limit value.

    Each extra card multiplies the survival integrand by one more factor
    below one, so the approach is monotone from above.
    """


class TestFiniteToLimitTheorem:
    def test_monotone_approach(self):
        seq = linear_weights()
        limit = limit_bottom_pmf(seq, (1,), tol=1e-10)
        prev = 1.0
        for n in (10, 20, 40, 80):
            val = finite_n_bottom_pmf(seq.thetas(n), (1,))
            assert val < prev
            assert val > limit - 1e-12
            prev = val
        assert prev - limit <= 1e-3
        assert limit == pytest.approx(LAST_CARD_TABLE[0], abs=1e-5)


class TheoremTruncationStability:
    """Doubling the series truncation does not move certified outputs."""


class TestTruncationStabilityTheorem:
    @pytest.mark.parametrize(
        "seq,a",
        [
            (linear_weights(), (1,)),
            (linear_weights(), (2, 5)),
            (log_weights(2.0), (1,)),
        ],
    )
    def test_min_terms_insensitive(self, monkeypatch, seq, a):
        tol = 1e-8
        base = limit_bottom_pmf(seq, a, tol=tol)
        for m in (64, 128, 512):
            monkeypatch.setattr(bottomk, "_HEAD_START", m)
            again = limit_bottom_pmf(seq, a, tol=tol)
            assert abs(again - base) < tol


class TestKConsistency:
    def test_pair_marginals_sum_to_single(self):
        # summing P(bottom pair = (1, b)) over the second card b recovers
        # P(bottom card = 1) from below
        seq = linear_weights()
        single = limit_bottom_pmf(seq, (1,), tol=1e-10)
        partial = 0.0
        for b in range(2, 32):
            partial += limit_bottom_pmf(seq, (1, b), tol=1e-10)
            assert partial < single + 1e-9
        # remaining labels carry little mass
        assert single - partial <= 5e-4


class TestDefectiveFamilies:
    def test_warning_emitted(self):
        with pytest.warns(DefectiveMassWarning):
            limit_bottom_pmf(log_loglog_weights(), (1,), tol=1e-6)

    def test_defective_total_below_one(self):
        seq = log_loglog_weights()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DefectiveMassWarning)
            vals = [limit_bottom_pmf(seq, (lab,), tol=1e-6) for lab in range(1, 7)]
        total = sum(vals)
        assert 0.0 < total < 0.9
        assert all(v > 0 for v in vals)

    def test_constant_mass_vanishes(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DefectiveMassWarning)
            assert limit_bottom_pmf(constant_weights(), (1,), tol=1e-8) <= 1e-12


def log_family_zeta_bottom_pmf(beta, label, head=2000):
    """P(bottom card = label) for theta_i = beta log(i + 1), from Hurwitz zeta.

    The survival product is summed directly for i <= head; the tail
    sum_{i > head} log(1 - (i+1)^-s), s = beta x, equals
    -sum_m zeta(m s, head + 2) / m, and the product vanishes for s <= 1.
    """
    from scipy import integrate, special

    i = np.arange(1, head + 1, dtype=np.float64)
    i = i[i != label]
    theta = beta * math.log(label + 1)

    def integrand(x):
        s = beta * x
        if s <= 1.0:
            return 0.0
        log_surv = float(np.log1p(-np.power(i + 1.0, -s)).sum())
        for m in range(1, 200):
            term = float(special.zeta(m * s, head + 2.0)) / m
            log_surv -= term
            if term < 1e-18:
                break
        return theta * math.exp(-theta * x + log_surv)

    x0 = 1.0 / beta
    val, _ = integrate.quad(integrand, x0, x0 + 60.0 / theta, epsabs=1e-12, epsrel=1e-11,
                            limit=400, points=[x0 + 0.05, x0 + 0.5])
    return val


class TestZetaOracle:
    @pytest.mark.parametrize("label", [1, 2, 3])
    def test_log_beta2_table(self, label):
        tol = 1e-6
        got = limit_bottom_pmf(log_weights(2.0), (label,), tol=tol)
        assert abs(got - log_family_zeta_bottom_pmf(2.0, label)) <= tol


class TestMonteCarloCrossCheck:
    @pytest.mark.parametrize("a", [(1,), (1, 2), (3, 1, 4)])
    def test_z_scores(self, a):
        seq = linear_weights()
        quad = limit_bottom_pmf(seq, a, tol=1e-9)
        est, stderr = limit_bottom_pmf_mc(seq, a, 60_000, RngStream(17))
        assert stderr > 0
        assert abs(est - quad) / stderr <= 4.0

    @pytest.mark.parametrize("factory", [lambda: log_weights(2.0), log_loglog_weights])
    @pytest.mark.parametrize("a", [(1,), (2, 1)])
    def test_z_scores_log_families(self, factory, a):
        seq = factory()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DefectiveMassWarning)
            quad = limit_bottom_pmf(seq, a, tol=1e-7)
        est, stderr = limit_bottom_pmf_mc(seq, a, 20_000, RngStream(23))
        assert stderr > 0
        assert abs(est - quad) / stderr <= 4.0

    def test_unbounded_custom_tail_raises(self):
        # every term past i = 50 is e^(-50 x), so the tail never shrinks and its log
        # survival has no lower bound; limit_bottom_pmf raises ToleranceError here
        # (bracket gap 0.695), and the MC route must not report a value either
        seq = WeightSequence(lambda i: min(float(i), 50.0), monotone=True)
        with pytest.raises(ToleranceError, match="no lower bound"):
            limit_bottom_pmf_mc(seq, (1,), 20, RngStream(5))

    def test_bad_inputs(self):
        with pytest.raises(PreconditionError):
            limit_bottom_pmf_mc(linear_weights(), (1, 1), 100, RngStream(0))
        with pytest.raises(PreconditionError):
            limit_bottom_pmf_mc(linear_weights(), (1,), 0, RngStream(0))
        # one sample has no standard error: std(ddof=1) would be NaN, with a warning
        with pytest.raises(PreconditionError, match="at least 2"):
            limit_bottom_pmf_mc(linear_weights(), (1,), 1, RngStream(0))


class TestLabelBound:
    """Labels of an infinite sequence stop at 2^20, where the survival head reaches its cap."""

    CALLS = [lambda a: limit_bottom_pmf(linear_weights(), a),
             lambda a: limit_bottom_pmf_mc(linear_weights(), a, 10, RngStream(0))[0]]

    @pytest.mark.parametrize("label", [10**12, 2**20 + 1], ids=["1e12", "2^20+1"])
    @pytest.mark.parametrize("call", CALLS, ids=["limit", "mc"])
    def test_refused(self, call, label):
        with pytest.raises(PreconditionError, match="at most 1048576"):
            call((label,))

    @pytest.mark.parametrize("call", CALLS, ids=["limit", "mc"])
    def test_largest_returns(self, call):
        assert 0.0 <= call((2**20,)) <= 1.0


class TestToleranceChecks:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
    @pytest.mark.parametrize("call", [
        lambda tol: f_eval(linear_weights(), 1.0, tol=tol),
        lambda tol: limit_bottom_pmf(linear_weights(), (1,), tol=tol),
        lambda tol: finite_n_bottom_pmf([1.0, 2.0, 3.0], (1,), tol=tol),
    ], ids=["f_eval", "limit", "finite"])
    def test_raises_precondition(self, call, tol):
        with pytest.raises(PreconditionError, match="tol"):
            call(tol)


def scipy_quad(func, a, b, **kwargs):
    """``scipy.integrate.quad`` fed one node per call: the oracle of the batched rule."""
    from scipy import integrate

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return integrate.quad(lambda y: float(func(np.array([y]))[0]), a, b, **kwargs)


# name: (a weight-sequence factory, or finite weights; labels; tol), first the
# bottom workload's four tasks, then the stress cases
QUADRATURE_CASES = {
    "log_beta2": (lambda: log_weights(2.0), [(1,), (2,), (3,)], 1e-6),
    "log_loglog": (log_loglog_weights, [(1,), (2,)], 1e-4),
    "linear": (linear_weights, [(v,) for v in range(1, 11)] + [(1, 2), (3, 1, 4)], 1e-8),
    "finite_n": (np.arange(1.0, 2001.0), [(1,)], 1e-10),
    "log_beta1.05": (lambda: log_weights(1.05), [(2, 5)], 1e-6),
    "log_beta3": (lambda: log_weights(3.0), [(2, 5)], 1e-6),
    "log_loglog_3": (log_loglog_weights, [(3,)], 1e-4),
    "linear_1e-12": (linear_weights, [(1,), (2, 5)], 1e-12),
    # near the rounding floor: bisecting panels at their floor used up the 300 panels
    "log_beta2_1e-14": (lambda: log_weights(2.0), [(1,)], 1e-14),
    "log_loglog_1e-14": (log_loglog_weights, [(1,)], 1e-14),
}


def _quadrature_case(case):
    weights, labels, tol = QUADRATURE_CASES[case]
    if isinstance(weights, np.ndarray):
        return [finite_n_bottom_pmf(weights, a, tol=tol) for a in labels]
    seq = weights()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DefectiveMassWarning)
        return [limit_bottom_pmf(seq, a, tol=tol) for a in labels]


class TestGaussKronrodRule:
    """``bottomk.integrate.quad``: QUADPACK's 21-point rule, one integrand call per round."""

    def test_gauss_nodes_are_legendre(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        gauss = bottomk._GAUSS_WEIGHTS != 0.0
        assert gauss.sum() == 10
        np.testing.assert_allclose(bottomk._GK_NODES[gauss], nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(bottomk._GAUSS_WEIGHTS[gauss], weights, rtol=0.0, atol=1e-15)

    def test_kronrod_exact_to_degree_31(self):
        for d in range(32):
            val, _ = bottomk.integrate.quad(lambda x: x ** d, 0.0, 1.0, epsabs=1.0,
                                            epsrel=0.0, limit=1)
            assert abs(val - 1.0 / (d + 1)) <= 1e-14, d

    @pytest.mark.parametrize("power,calls", [(200, 2), (2, 1)])
    def test_saturated_lone_panel_is_refined(self, power, calls):
        # as in QUADPACK's qags, a lone first panel whose estimate saturated is
        # bisected even when that estimate meets the target
        sizes = []

        def f(x):
            sizes.append(x.size)
            return x ** power

        bottomk.integrate.quad(f, 0.0, 1.0, epsabs=1.0, epsrel=0.0)
        assert len(sizes) == calls

    @pytest.mark.parametrize("case", QUADRATURE_CASES)
    def test_agrees_with_scipy_quad(self, monkeypatch, case):
        got = _quadrature_case(case)
        monkeypatch.setattr(bottomk, "integrate", SimpleNamespace(quad=scipy_quad))
        ref = _quadrature_case(case)
        assert np.abs(np.subtract(got, ref)).max() <= QUADRATURE_CASES[case][2]

    def test_unconverged_names_both_parts(self):
        # the survival flips between 1/2 and 1 a thousand times across x in (0, 5):
        # no 300 panels resolve it to 1e-10
        def ln_surv(x):
            v = np.log(0.75 + 0.25 * np.sign(np.sin(200.0 * np.pi * x)))
            return v, v

        with pytest.raises(ToleranceError,
                           match=r"exceeds tol 1e-10 \(quadrature \S+, survival bracket 0\)"):
            bottomk._telescoped_integral([1.0], np.array([2.0]), ln_surv, 1e-10)

    def test_stops_at_panel_limit(self):
        sizes = []

        def f(x):
            sizes.append(x.size)
            return np.sign(np.sin(200.0 * np.pi * x))

        val, err = bottomk.integrate.quad(f, 0.0, 1.0, epsabs=1e-12, epsrel=0.0, limit=300)
        assert err > 1e-12
        assert all(n % 21 == 0 for n in sizes)
        # each round adds half its new panels, so the leaves never pass the limit
        assert 1 + sum(n // 42 for n in sizes[1:]) <= 300

    @pytest.mark.parametrize("case", ["log_beta2", "linear", "finite_n"])
    def test_calls_and_nodes_repeat(self, monkeypatch, case):
        def count():
            sizes = []

            def quad(func, *args, **kwargs):
                def counted(y):
                    sizes.append(y.size)
                    return func(y)

                return bottomk._gk21_quad(counted, *args, **kwargs)

            monkeypatch.setattr(bottomk, "integrate", SimpleNamespace(quad=quad))
            values = _quadrature_case(case)
            return len(sizes), sum(sizes), values

        first = count()
        assert first[0] > 0 and first[1] % 21 == 0
        assert count() == first


class TestWideRounds:
    """A full 300-panel round, 6300 nodes, goes through the survival bracket in bounded blocks."""

    # one block is kernels._CHUNK_CELLS float64 cells; the head sum and each order block
    # hold a few temporaries of that size at once
    BLOCKS = 6

    @pytest.mark.parametrize("factory,x0", [(lambda: log_weights(1.05), 1.0 / 1.05),
                                            (linear_weights, 0.0),
                                            (log_loglog_weights, 1.0)],
                             ids=["log1.05", "linear", "log-loglog"])
    def test_round_memory_bounded(self, factory, x0):
        seq = factory()
        seq.thetas(bottomk._TERMS_MAX)  # the weight cache is not the round's
        x = x0 + np.geomspace(1e-4, 2.0, 6300)
        tracemalloc.start()
        try:
            lo, hi = bottomk._log_survival_bracket(seq, x, frozenset({2}), 1e-9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(lo <= hi)
        assert peak <= self.BLOCKS * 8 * kernels._CHUNK_CELLS, peak / (8 * kernels._CHUNK_CELLS)

    @pytest.mark.parametrize("chunk_cells", [1 << 18, 1 << 10])
    @pytest.mark.parametrize("factory,x0", [(lambda: log_weights(1.05), 1.0 / 1.05),
                                            (linear_weights, 0.0),
                                            (log_loglog_weights, 1.0)],
                             ids=["log1.05", "linear", "log-loglog"])
    def test_blocks_and_fold_leave_values_unchanged(self, monkeypatch, factory, x0, chunk_cells):
        # the orders of all nodes in one block, upper and lower bound of every column,
        # bit for bit against the blocked call that skips the fold's lower bound
        seq = factory()
        x = x0 + np.geomspace(1e-3, 2.0, 500)
        r = np.exp(-seq.theta(32) * x)
        m = np.arange(4.0, 17.0)
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", 1 << 40)
        s_lo, s_hi = bottomk._exp_sum_tail(seq, 31, x[:, None] * m)
        w = 1.0 / m[:-1]
        want = (np.einsum("ij,j->i", s_lo[:, :-1], w), np.einsum("ij,j->i", s_hi[:, :-1], w),
                s_hi[:, -1] / (m[-1] * (1.0 - r)))
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", chunk_cells)
        got = bottomk._order_block(seq, 31, x, r, m)
        for g, e in zip(got, want):
            np.testing.assert_array_equal(g, e)

    def test_fold_skips_the_lower_integral(self, monkeypatch):
        entries = []
        integral = bottomk._loglog_tail_integral

        def counted(y, a):
            entries.append(np.size(y))
            return integral(y, a)

        monkeypatch.setattr(bottomk, "_loglog_tail_integral", counted)
        x = np.linspace(1.0, 3.0, 50)
        bottomk._order_block(log_loglog_weights(), 31, x, np.zeros(50), np.arange(1.0, 5.0))
        # both bounds of orders 1..3, the upper bound alone of the fold's order 4
        assert sum(entries) == 50 * (2 * 3 + 1)
