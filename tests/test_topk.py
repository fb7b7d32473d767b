"""Top-k prefix distances: sup-ratio bound, birthday TV identity, Poisson regime."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucewalks import (
    DistanceReport,
    PreconditionError,
    RngStream,
    collision_lambda,
    d_inf_bound,
    d_inf_exact,
    distance_report,
    elementary_symmetric,
    normalize,
    prefix_prob_p,
    prefix_prob_q,
    sample_exponential_many,
    second_card_marginal,
    sukhatme_weights,
    tv_exact,
    tv_poisson_approx,
    tv_uniform_exact,
)


def d_inf_exact_bruteforce(w, k):
    """Enumeration cross-check of :func:`d_inf_exact`: the largest
    1 - prod_{j<k} (1 - S_j) over every ordered k-prefix."""
    w = np.asarray(w, dtype=np.float64)
    best = 0.0
    for pref in itertools.permutations(range(w.size), k):
        partial = np.cumsum(w[list(pref)])
        best = max(best, 1.0 - float(np.prod(1.0 - partial[:-1])))
    return best


def random_simplex(gen, n, cap=None):
    while True:
        w = gen.uniform(0.1, 1.0, size=n)
        w /= w.sum()
        if cap is None or w.max() <= cap:
            return w


W123 = normalize([1.0, 2.0, 3.0]).weights


class TestPrefixProbs:
    def test_sequential_prefix(self):
        assert prefix_prob_p(W123, (3, 2)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_repeated_label_impossible(self):
        assert prefix_prob_p(W123, (1, 1)) == 0.0

    def test_independent_prefix(self):
        assert prefix_prob_q(W123, (3, 3)) == pytest.approx(0.25, abs=1e-15)
        assert prefix_prob_q(W123, (3, 2)) == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_single_draw_agree(self):
        for lab in (1, 2, 3):
            assert prefix_prob_p(W123, (lab,)) == pytest.approx(prefix_prob_q(W123, (lab,)))

    def test_p_normalizes_over_distinct(self, np_rng):
        w = random_simplex(np_rng, 5)
        total = sum(prefix_prob_p(w, pref) for pref in itertools.permutations(range(1, 6), 3))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_q_normalizes_over_all(self, np_rng):
        w = random_simplex(np_rng, 4)
        total = sum(
            prefix_prob_q(w, pref) for pref in itertools.product(range(1, 5), repeat=2)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_requires_normalized(self):
        with pytest.raises(PreconditionError):
            prefix_prob_p([1.0, 2.0], (1,))


class TheoremSupRatioBound:
    """d_inf is the greedy closed form and respects the exponential bound."""


class TestSupRatioTheorem:
    def test_k1_is_zero(self, np_rng):
        # == 0.0 holds for -0.0 too, so the sign is read with copysign
        w = random_simplex(np_rng, 6)
        for d in (d_inf_exact(w, 1), d_inf_bound(w, 1)):
            assert d == 0.0 and math.copysign(1.0, d) == 1.0

    def test_half_heavy_example(self):
        # one weight 1/2, five weights 1/10: the distance is exactly 1/2
        w = np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
        assert d_inf_exact(w, 2) == 0.5

    def test_hand_value_k3(self):
        w = np.array([0.4, 0.3, 0.2, 0.1])
        assert d_inf_exact(w, 3) == pytest.approx(0.82, abs=1e-12)

    def test_closed_form_matches_enumeration(self, np_rng):
        for n in range(2, 11):
            w = random_simplex(np_rng, n)
            for k in range(1, min(n, 5) + 1):
                assert d_inf_exact(w, k) == pytest.approx(
                    d_inf_exact_bruteforce(w, k), abs=1e-12
                )

    def test_uniform_bound_closed_form(self):
        for n in (4, 10, 50):
            w = np.full(n, 1.0 / n)
            assert d_inf_bound(w, 2) == pytest.approx(-math.expm1(-2.0 / n), abs=1e-15)

    def test_bound_dominates_exact(self, np_rng):
        # 100 random vectors; the k-1 heaviest must carry mass <= 1/2 or
        # the -2x <= log(1-x) step behind the bound does not apply
        checked = 0
        while checked < 100:
            n = int(np_rng.integers(3, 9))
            w = random_simplex(np_rng, n, cap=0.5)
            k = int(np_rng.integers(2, min(n, 4) + 1))
            if np.sort(w)[::-1][: k - 1].sum() > 0.5:
                continue
            assert d_inf_exact(w, k) <= d_inf_bound(w, k) + 1e-12
            checked += 1

    def test_bound_gap_outside_prefix_mass_regime(self):
        # two near-half weights defeat the exponential bound at k = 3
        w = np.array([0.5, 0.49, 0.01])
        assert d_inf_exact(w, 3) > d_inf_bound(w, 3)

    def test_heavy_weight_rejected(self):
        w = np.array([0.6, 0.2, 0.2])
        with pytest.raises(PreconditionError):
            d_inf_bound(w, 2)


class TestSqrtScalingRegime:
    """Ascending ramp weights at k ~ sqrt(n): exponent 2c^2, lambda 2c^2/3."""

    def test_exponent_and_lambda(self):
        n, k = 10_000, 100  # c = 1
        w = normalize(sukhatme_weights(n, orientation="ascending"))
        bound = d_inf_bound(w, k)
        exponent = -math.log1p(-bound)
        assert abs(exponent - 2.0) <= 0.05
        assert exponent < 3.0  # clearly not 4 c^2
        lam = collision_lambda(w, k)
        assert abs(lam - 2.0 / 3.0) <= 0.02
        assert lam > 0.5  # clearly not c^2 / 3


class TheoremBirthdayIdentity:
    """TV(P, Q) = 1 - k! e_k(theta), verified by full enumeration."""


class TestBirthdayIdentityTheorem:
    def test_k1_zero(self, np_rng):
        w = random_simplex(np_rng, 5)
        assert tv_exact(w, 1) == 0.0

    def test_uniform_four_pairs(self):
        w = np.full(4, 0.25)
        assert tv_exact(w, 2) == pytest.approx(0.25, abs=1e-15)

    def test_enumeration(self, np_rng):
        for n, k in ((3, 2), (5, 3), (8, 4), (6, 2)):
            w = random_simplex(np_rng, n)
            half_l1 = 0.0
            for tup in itertools.product(range(1, n + 1), repeat=k):
                p = prefix_prob_p(w, tup) if len(set(tup)) == k else 0.0
                half_l1 += abs(p - prefix_prob_q(w, tup))
            assert tv_exact(w, k) == pytest.approx(0.5 * half_l1, abs=1e-12)

    def test_uniform_closed_form(self, np_rng):
        for n, k in ((4, 2), (100, 5), (2000, 7)):
            w = np.full(n, 1.0 / n)
            assert tv_exact(w, k) == pytest.approx(tv_uniform_exact(n, k), abs=1e-10)

    def test_tv_below_d_inf(self, np_rng):
        for _ in range(30):
            n = int(np_rng.integers(2, 9))
            w = random_simplex(np_rng, n)
            k = int(np_rng.integers(1, min(n, 4) + 1))
            assert tv_exact(w, k) <= d_inf_exact(w, k) + 1e-12


class TestMonteCarloRoutes:
    """The top-k law sampled, z-scored against the exact values at |z| <= 4."""

    @staticmethod
    def z(hits, size, p):
        return (hits - size * p) / math.sqrt(size * p * (1.0 - p))

    @pytest.mark.parametrize("n,k", [(30, 5), (3077, 60)])
    def test_collision_frequency_is_tv(self, n, k):
        # birthday identity: TV is the chance that k i.i.d. draws repeat a label;
        # n = 3077 runs the blocked recurrence
        w = normalize(np.random.default_rng(n).uniform(0.5, 2.0, n)).weights
        size = 20_000
        u = RngStream(20260901).random((size, k))
        draws = np.sort(np.minimum(np.searchsorted(np.cumsum(w), u, side="right"), n - 1), axis=1)
        hits = int(np.count_nonzero((draws[:, 1:] == draws[:, :-1]).any(axis=1)))
        assert abs(self.z(hits, size, tv_exact(w, k))) <= 4.0

    def test_exponential_prefix_frequencies(self):
        w = normalize([3.0, 1.0, 2.0, 0.5, 1.5, 2.5])
        size = 40_000
        rows = sample_exponential_many(w, size, RngStream(20260902))
        for prefix in ((1,), (4,), (3, 6), (2, 4), (1, 3, 6), (6, 5, 4), (4, 2, 5, 1)):
            k = len(prefix)
            hits = int(np.count_nonzero((rows[:, :k] == np.asarray(prefix)).all(axis=1)))
            assert abs(self.z(hits, size, prefix_prob_p(w, prefix))) <= 4.0, prefix


class TestElementarySymmetric:
    def test_edge_cases(self):
        assert elementary_symmetric([1.0, 2.0, 3.0], 0) == 1.0
        assert elementary_symmetric([1.0, 2.0, 3.0], 2) == pytest.approx(11.0)
        assert elementary_symmetric([1.0, 2.0, 3.0], 3) == pytest.approx(6.0)

    def test_combinatorial_oracle(self, np_rng):
        w = np_rng.uniform(0.5, 2.0, size=8)
        for k in range(9):
            brute = sum(
                math.prod(w[list(c)]) for c in itertools.combinations(range(8), k)
            )
            assert elementary_symmetric(w, k) == pytest.approx(brute, rel=1e-12)

    def test_extended_precision_path(self):
        n = 2000
        w = np.full(n, 1.0 / n)
        assert elementary_symmetric(w, 1) == pytest.approx(1.0, rel=1e-12)

    def test_bad_k(self):
        with pytest.raises(PreconditionError):
            elementary_symmetric([1.0], 2)

    @pytest.mark.parametrize("n, k", [(20000, 2000), (2000, 1000)])
    def test_overflow_raises(self, n, k):
        with pytest.raises(PreconditionError, match="float64"):
            elementary_symmetric(np.ones(n), k)

    def test_largest_binomial_in_range(self):
        got = elementary_symmetric(np.ones(1000), 500)
        assert got == pytest.approx(math.comb(1000, 500), rel=1e-12)


class TheoremSchurConcavity:
    """Uniform weights minimize the k-prefix TV at fixed n."""


class TestSchurConcavityTheorem:
    @pytest.mark.parametrize("n,k", [(5, 2), (7, 3), (10, 4)])
    def test_uniform_minimizes(self, np_rng, n, k):
        base = tv_exact(np.full(n, 1.0 / n), k)
        for _ in range(100):
            w = random_simplex(np_rng, n)
            assert base <= tv_exact(w, k) + 1e-15


class TheoremPoissonCollisionLimit:
    """For near-uniform weights TV tends to 1 - exp(-lambda)."""


class TestPoissonLimitTheorem:
    def test_lambda_values(self):
        w = np.full(4, 0.25)
        assert collision_lambda(w, 2) == pytest.approx(0.25)
        assert tv_poisson_approx(0.0) == 0.0
        assert tv_poisson_approx(1.0) == pytest.approx(1 - math.exp(-1))

    def test_negative_lambda_rejected(self):
        with pytest.raises(PreconditionError):
            tv_poisson_approx(-0.1)

    @pytest.mark.parametrize("lam", [math.nan, math.inf])
    def test_nan_and_inf_lambda_rejected(self, lam):
        # nan passed a plain lam < 0 check and returned nan; inf returned 1.0
        with pytest.raises(PreconditionError, match="nonnegative and finite"):
            tv_poisson_approx(lam)

    @pytest.mark.parametrize("k", [100, 142, 201])
    def test_uniform_large_n(self, k):
        n = 10_000
        w = np.full(n, 1.0 / n)
        lam = collision_lambda(w, k)
        assert 0.4 <= lam <= 2.1
        assert abs(tv_exact(w, k) - tv_poisson_approx(lam)) <= 0.05


class TestHeavyPrefixSeparation:
    """A planted prefix regime where d_inf is near 1 but TV stays moderate."""

    def test_regime(self):
        n, k = 10_000, 100
        top = k ** (-7.0 / 4.0)
        rest = (1.0 - k * top) / (n - k)
        w = np.concatenate([np.full(k, top), np.full(n - k, rest)])
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        lam = collision_lambda(w, k)
        assert lam <= 0.05 + k * k / (n - k)
        bound = d_inf_bound(w, k)
        s = 0.5 * (-math.log1p(-bound))
        assert s >= 1.5
        assert bound >= 0.9
        tv = tv_exact(w, k)
        assert tv <= 0.5
        assert bound - tv >= 0.4


class TestSecondCardMarginal:
    def test_against_enumeration(self, np_rng):
        from lucewalks import luce_pmf, second_card_marginal

        w = random_simplex(np_rng, 5)
        for lab in range(1, 6):
            brute = sum(
                luce_pmf(w, sigma)
                for sigma in itertools.permutations(range(1, 6))
                if sigma[1] == lab
            )
            assert second_card_marginal(w, lab) == pytest.approx(brute, abs=1e-12)

    def test_bad_label(self):
        from lucewalks import second_card_marginal

        with pytest.raises(PreconditionError):
            second_card_marginal(np.full(4, 0.25), 5)


class TestDistanceReport:
    def test_fields_and_dict(self):
        w = np.array([0.4, 0.3, 0.2, 0.1])
        rep = distance_report(w, 2)
        d = rep.to_dict()
        assert set(d) == {"k", "d_inf_exact", "d_inf_bound", "tv_exact", "lambda", "tv_poisson"}
        assert d["k"] == 2
        assert d["tv_exact"] <= d["d_inf_exact"]
        assert d["lambda"] == pytest.approx(collision_lambda(w, 2))

    def test_invariant_enforced(self):
        with pytest.raises(PreconditionError):
            DistanceReport(
                k=2, d_inf_exact=0.1, d_inf_bound=0.5, tv_exact=0.3,
                collision_lambda=0.2, tv_poisson=0.18,
            )
        with pytest.raises(PreconditionError):
            DistanceReport(
                k=2, d_inf_exact=0.5, d_inf_bound=1.5, tv_exact=0.3,
                collision_lambda=0.2, tv_poisson=0.18,
            )

    @pytest.mark.parametrize("lam", [-0.2, math.nan, math.inf])
    def test_lambda_outside_range_rejected(self, lam):
        # nan and inf passed a plain collision_lambda < 0 check
        with pytest.raises(PreconditionError, match="collision_lambda"):
            DistanceReport(
                k=2, d_inf_exact=0.5, d_inf_bound=0.5, tv_exact=0.3,
                collision_lambda=lam, tv_poisson=0.18,
            )


@given(
    st.lists(st.floats(min_value=0.05, max_value=1.0), min_size=2, max_size=7),
    st.integers(min_value=1, max_value=4),
)
@settings(max_examples=25)
def test_tv_unit_interval_and_domination(raw, k):
    w = np.asarray(raw) / np.sum(raw)
    k = min(k, w.size)
    tv = tv_exact(w, k)
    assert 0.0 <= tv <= 1.0
    assert tv <= d_inf_exact(w, k) + 1e-12


class TestInputChecks:
    W = np.array([0.4, 0.3, 0.2, 0.1])

    @pytest.mark.parametrize("call, match", [
        (lambda w: prefix_prob_p(w, ()), "nonempty"),
        (lambda w: prefix_prob_q(w, ()), "nonempty"),
        (lambda w: prefix_prob_p(w, (1, 5)), "out of range"),
        (lambda w: prefix_prob_q(w, (0,)), "out of range"),
        (lambda w: second_card_marginal(w, 5), "out of range"),
        (lambda w: d_inf_exact(w, 0), "k must be"),
        (lambda w: d_inf_exact(w, 5), "k must be"),
        (lambda w: d_inf_bound(w, 5), "k must be"),
        (lambda w: tv_exact(w, 0), "k must be"),
        (lambda w: tv_uniform_exact(4, 5), "k must be"),
        (lambda w: collision_lambda(w, 0), "k must be"),
    ], ids=["p_empty", "q_empty", "p_range", "q_zero", "second_range", "dinf_k0",
            "dinf_k_big", "bound_k_big", "tv_k0", "uniform_k_big", "lambda_k0"])
    def test_raises_precondition(self, call, match):
        with pytest.raises(PreconditionError, match=match):
            call(self.W)
