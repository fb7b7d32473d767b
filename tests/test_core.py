"""Core model: pmf identities, restriction, Bruhat order, samplers."""

import itertools
import math

import numpy as np
import pytest
import scipy.stats

from lucewalks import (
    Permutation,
    PreconditionError,
    RngStream,
    WeightVector,
    all_permutations,
    bruhat_covers,
    luce_pmf,
    normalize,
    permutation_rank_many,
    restrict,
    sample_exponential,
    sample_exponential_many,
    sample_spacings,
    sample_spacings_many,
    sample_urn,
    sample_urn_many,
    sukhatme_weights,
)


def random_weights(gen, n, low=0.2, high=3.0):
    return gen.uniform(low, high, size=n)


class TestWeightVector:
    def test_basic(self):
        w = WeightVector([1.0, 2.0, 3.0])
        assert w.n == 3
        assert w.total == pytest.approx(6.0)
        assert w.weights.dtype == np.float64

    def test_values_read_only(self):
        w = WeightVector([1.0, 2.0])
        with pytest.raises((ValueError, RuntimeError)):
            w.weights[0] = 5.0

    @pytest.mark.parametrize("bad", [[], [0.0, 1.0], [-1.0, 2.0], [np.inf, 1.0], [np.nan, 1.0],
                                     [1e308, 1e308]])
    def test_invalid(self, bad):
        with pytest.raises(PreconditionError):
            WeightVector(bad)


class TestPermutation:
    def test_mapping_is_draw_order(self):
        sigma = Permutation((3, 1, 2))
        assert sigma.mapping == (3, 1, 2)
        assert sigma.n == 3

    @pytest.mark.parametrize("bad", [(1, 1), (0, 1), (1, 3)])
    def test_invalid(self, bad):
        with pytest.raises(PreconditionError):
            Permutation(bad)

    def test_eq_hash(self):
        assert Permutation((2, 1)) == Permutation([2, 1])
        assert hash(Permutation((2, 1))) == hash(Permutation((2, 1)))
        assert Permutation((1, 2)) != Permutation((2, 1))


class TestLucePmf:
    def test_single_item(self):
        assert luce_pmf([4.2], (1,)) == 1.0

    def test_uniform_three(self):
        for sigma in itertools.permutations((1, 2, 3)):
            assert luce_pmf([1.0, 1.0, 1.0], sigma) == pytest.approx(1.0 / 6.0)

    def test_hand_value(self):
        # (3,2,1): 3/6 * 2/3 * 1 = 1/3
        assert luce_pmf([1.0, 2.0, 3.0], (3, 2, 1)) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(PreconditionError):
            luce_pmf([1.0, 2.0], (1, 2, 3))


class TestRelabellingEquivariance:
    """Renaming the labels by pi and reading sigma through pi leaves the pmf unchanged, exactly."""

    @pytest.mark.parametrize("n", [5, 50])
    def test_relabelled_pmf_is_identical(self, np_rng, n):
        w = np_rng.uniform(0.2, 3.0, n)
        for _ in range(20):
            pi = np_rng.permutation(n)  # label i + 1 becomes pi[i] + 1
            w_pi = np.empty(n)
            w_pi[pi] = w
            sigma = np_rng.permutation(n) + 1
            assert luce_pmf(w_pi, pi[sigma - 1] + 1) == luce_pmf(w, sigma)

    def test_every_order_at_n4(self, np_rng):
        w = np_rng.uniform(0.2, 3.0, 4)
        for pi in itertools.permutations(range(4)):
            pi = np.array(pi)
            w_pi = np.empty(4)
            w_pi[pi] = w
            for sigma in itertools.permutations(range(1, 5)):
                sigma = np.array(sigma)
                assert luce_pmf(w_pi, pi[sigma - 1] + 1) == luce_pmf(w, sigma)


class TheoremNormalization:
    """The pmf sums to one over the whole symmetric group."""


class TestNormalizationTheorem:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sums_to_one(self, np_rng, n):
        w = random_weights(np_rng, n)
        total = sum(luce_pmf(w, sigma) for sigma in itertools.permutations(range(1, n + 1)))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_scale_invariance(self, np_rng):
        w = random_weights(np_rng, 5)
        for sigma in itertools.permutations(range(1, 6)):
            assert luce_pmf(w, sigma) == pytest.approx(luce_pmf(17.3 * w, sigma), abs=1e-12)


class TestNormalize:
    def test_examples(self):
        np.testing.assert_allclose(normalize([1.0, 1.0]).weights, [0.5, 0.5])
        np.testing.assert_allclose(normalize([1.0, 2.0, 3.0]).weights, np.array([1, 2, 3]) / 6.0)

    def test_pmf_invariant(self, np_rng):
        w = random_weights(np_rng, 4)
        v = normalize(w)
        for sigma in itertools.permutations(range(1, 5)):
            assert luce_pmf(w, sigma) == pytest.approx(luce_pmf(v, sigma), abs=1e-14)


class TestRestrict:
    def test_identity_subset(self):
        w = restrict([1.0, 2.0, 3.0], (1, 2, 3))
        np.testing.assert_allclose(w.weights, [1.0, 2.0, 3.0])

    def test_errors(self):
        with pytest.raises(PreconditionError):
            restrict([1.0, 2.0], (1, 1))
        with pytest.raises(PreconditionError):
            restrict([1.0, 2.0], (0,))
        with pytest.raises(PreconditionError):
            restrict([1.0, 2.0], (3,))
        with pytest.raises(PreconditionError):
            restrict([1.0, 2.0], ())

    def test_pairwise_race(self):
        # P(1 before 3) under (1,2,3) is 1/(1+3)
        w = np.array([1.0, 2.0, 3.0])
        p = sum(
            luce_pmf(w, sigma)
            for sigma in itertools.permutations((1, 2, 3))
            if sigma.index(1) < sigma.index(3)
        )
        assert p == pytest.approx(0.25, abs=1e-14)
        sub = restrict(w, (1, 3))
        assert luce_pmf(sub, (1, 2)) == pytest.approx(0.25, abs=1e-14)

    def test_uniform_pairs(self):
        sub = restrict([2.0, 2.0, 2.0, 2.0], (2, 4))
        assert luce_pmf(sub, (1, 2)) == pytest.approx(0.5)


class TheoremMarginalRestriction:
    """Relative order of a subset is the Luce model on the restricted weights."""


class TestMarginalRestrictionTheorem:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_subset_marginals(self, np_rng, n):
        w = random_weights(np_rng, n)
        labels = list(range(1, n + 1))
        for k in range(2, n):
            subset = tuple(sorted(np_rng.choice(labels, size=k, replace=False).tolist()))
            sub = restrict(w, subset)
            marg = {tau: 0.0 for tau in itertools.permutations(subset)}
            for sigma in itertools.permutations(labels):
                rel = tuple(lab for lab in sigma if lab in set(subset))
                marg[rel] += luce_pmf(w, sigma)
            pos = {lab: j + 1 for j, lab in enumerate(subset)}
            for tau, p in marg.items():
                local = tuple(pos[lab] for lab in tau)
                assert p == pytest.approx(luce_pmf(sub, local), abs=1e-10)


class TestIntegerLabels:
    """Labels and sizes must be integers; an integral float counts, a bool does not."""

    @pytest.mark.parametrize("bad", [1.5, math.inf, math.nan, None, True, "1"])
    def test_refused_everywhere(self, bad):
        from lucewalks import finite_n_bottom_pmf, limit_bottom_pmf, linear_weights

        for call in (lambda: luce_pmf([1.0, 2.0, 3.0], (bad, 2, 3)),
                     lambda: Permutation([bad, 2]),
                     lambda: restrict([1.0, 2.0, 3.0], (bad,)),
                     lambda: limit_bottom_pmf(linear_weights(), (bad,)),
                     lambda: finite_n_bottom_pmf([1.0, 2.0, 3.0], (bad,)),
                     lambda: sukhatme_weights(bad)):
            with pytest.raises(PreconditionError, match="not an integer"):
                call()

    def test_fractional_label_is_not_truncated(self):
        # 1.9 was read as label 1
        with pytest.raises(PreconditionError):
            luce_pmf([1.0, 2.0, 3.0], (1.5, 2, 3))
        with pytest.raises(PreconditionError):
            sukhatme_weights(2.5)

    def test_integral_values_accepted(self):
        assert Permutation([2.0, np.int64(1), 3]).mapping == (2, 1, 3)
        assert Permutation(np.array([3, 1, 2])).mapping == (3, 1, 2)
        assert Permutation(np.array([3.0, 1.0, 2.0])).mapping == (3, 1, 2)
        assert sukhatme_weights(3.0) == sukhatme_weights(3)
        assert luce_pmf([1.0, 2.0, 3.0], (1.0, 2.0, 3.0)) == luce_pmf([1.0, 2.0, 3.0], (1, 2, 3))


class TestSukhatmeWeights:
    def test_descending(self):
        np.testing.assert_allclose(sukhatme_weights(3).weights, [3.0, 2.0, 1.0])

    def test_ascending(self):
        np.testing.assert_allclose(
            sukhatme_weights(3, orientation="ascending").weights, [1.0, 2.0, 3.0]
        )

    def test_total(self):
        assert sukhatme_weights(50).total == pytest.approx(50 * 51 / 2)

    def test_errors(self):
        with pytest.raises(PreconditionError):
            sukhatme_weights(0)
        with pytest.raises(PreconditionError):
            sukhatme_weights(3, orientation="sideways")


class TestBruhatCovers:
    def test_identity_three(self):
        got = {p.mapping for p in bruhat_covers((1, 2, 3))}
        assert got == {(2, 1, 3), (1, 3, 2)}

    def test_reversal_is_maximal(self):
        assert bruhat_covers((3, 2, 1)) == []

    def test_single(self):
        assert bruhat_covers((1,)) == []

    def test_cover_inversion_count(self):
        def inv(m):
            return sum(m[i] > m[j] for i in range(len(m)) for j in range(i + 1, len(m)))

        for sigma in itertools.permutations(range(1, 6)):
            base = inv(sigma)
            for child in bruhat_covers(sigma):
                assert inv(child.mapping) == base + 1


class TheoremBruhatMonotonicity:
    """With sorted weights the pmf is monotone along Bruhat covers."""


class TestBruhatMonotonicityTheorem:
    def test_descending_weights(self, np_rng):
        for _ in range(5):
            w = np.sort(random_weights(np_rng, 5))[::-1].copy()
            for sigma in itertools.permutations(range(1, 6)):
                p_sigma = luce_pmf(w, sigma)
                for child in bruhat_covers(sigma):
                    # one extra inversion can only lower the pmf
                    assert p_sigma >= luce_pmf(w, child) - 1e-15


def empirical_counts(samples, n):
    ranks = permutation_rank_many(samples)
    return np.bincount(ranks, minlength=math.factorial(n))


def exact_pmf_vector(w, n):
    return np.array([luce_pmf(w, tuple(p)) for p in all_permutations(n)])


class TestSamplers:
    def test_single_item(self, rng):
        out = sample_urn_many([2.0], 5, rng)
        np.testing.assert_array_equal(out, np.ones((5, 1), dtype=out.dtype))

    def test_size_zero(self, rng):
        # empty int64 rows from the stable sort (n <= 8) and from the repaired one
        for n in (1, 2, 8, 9, 40):
            w = np.arange(1.0, n + 1.0)
            for out in [sample_urn_many(w, 0, rng, method=m) for m in ("auto", "scan", "tree")] \
                    + [sample_exponential_many(w, 0, rng)]:
                assert out.shape == (0, n) and out.dtype == np.int64

    def test_two_item_frequency(self):
        # P(first draw is 1) = 3/4
        for sampler in (sample_urn_many, sample_exponential_many):
            out = sampler([3.0, 1.0], 1_000_000, RngStream(7))
            freq = np.mean(out[:, 0] == 1)
            assert abs(freq - 0.75) <= 0.002

    @pytest.mark.parametrize("sampler", [sample_urn_many, sample_exponential_many])
    def test_chi_square_n4(self, sampler):
        n = 4
        w = np.array([0.4, 0.3, 0.2, 0.1])
        out = sampler(w, 1_000_000, RngStream(13))
        counts = empirical_counts(out, n)
        expected = exact_pmf_vector(w, n) * out.shape[0]
        stat = scipy.stats.chisquare(counts, expected)
        assert stat.pvalue >= 0.001

    def test_tree_method_matches_scan(self):
        w = np.array([0.5, 1.5, 1.0, 2.0])
        tree = sample_urn_many(w, 200_000, RngStream(5), method="tree")
        counts = empirical_counts(tree, 4)
        probs = exact_pmf_vector(w, 4)
        tv = 0.5 * np.abs(counts / counts.sum() - probs).sum()
        assert tv <= 0.01

    def test_tree_rows_are_permutations(self, rng):
        out = sample_urn_many(np.arange(1.0, 31.0), 50, rng, method="tree")
        sorted_rows = np.sort(out, axis=1)
        np.testing.assert_array_equal(sorted_rows, np.tile(np.arange(1, 31), (50, 1)))

    @pytest.mark.parametrize("method,seed", [("auto", 17), ("scan", 19), ("tree", 23)])
    def test_chi_square_n4_every_method(self, method, seed):
        n = 4
        w = np.array([0.4, 0.3, 0.2, 0.1])
        out = sample_urn_many(w, 200_000, RngStream(seed), method=method)
        counts = empirical_counts(out, n)
        expected = exact_pmf_vector(w, n) * out.shape[0]
        assert scipy.stats.chisquare(counts, expected).pvalue >= 0.001

    def test_method_validation(self, rng):
        with pytest.raises(PreconditionError):
            sample_urn_many([1.0, 2.0], 1, rng, method="magic")


class TestUrnOracle:
    """The sequential urn in conftest is the reference law for the race."""

    W = np.array([0.4, 0.3, 0.2, 0.1])

    def test_oracle_matches_pmf(self, sequential_urn):
        out = sequential_urn(self.W, 20_000, RngStream(47).generator) + 1
        counts = empirical_counts(out, 4)
        expected = exact_pmf_vector(self.W, 4) * out.shape[0]
        assert scipy.stats.chisquare(counts, expected).pvalue >= 0.001

    def test_race_matches_oracle(self, sequential_urn):
        race = sample_urn_many(self.W, 20_000, RngStream(53))
        urn = sequential_urn(self.W, 20_000, RngStream(59).generator) + 1
        table = np.vstack([empirical_counts(race, 4), empirical_counts(urn, 4)])
        assert scipy.stats.chi2_contingency(table).pvalue >= 0.001


class TheoremSpacingScaling:
    """Rescaled uniform spacings are asymptotically standard exponentials."""


class TestSpacingsTheorem:
    def test_shapes_and_positivity(self, rng):
        out = sample_spacings_many(6, 100, rng)
        assert out.shape == (100, 6)
        assert np.all(out > 0)

    def test_rescaled_spacings_exponential(self):
        n, trials = 20, 100_000
        out = sample_spacings_many(n, trials, RngStream(3))
        for j in (1, 7, 20):
            z = (n - j + 1) * out[:, j - 1]
            p = scipy.stats.kstest(z, "expon").pvalue
            assert p >= 0.001

    def test_smallest_spacing_position(self):
        n, trials = 6, 1_000_000
        out = sample_spacings_many(n, trials, RngStream(11))
        pos = np.argmin(out, axis=1)
        p_first = np.mean(pos == 0)
        p_last = np.mean(pos == n - 1)
        assert abs(p_first - 2.0 / (n + 1)) <= 0.002
        assert abs(p_last - 1.0 / math.comb(n + 1, 2)) <= 0.001


class TestRngStream:
    def test_determinism(self):
        a = RngStream(42).generator.random(8)
        b = RngStream(42).generator.random(8)
        np.testing.assert_array_equal(a, b)

    def test_seed_changes_stream(self):
        a = RngStream(1).generator.random(8)
        b = RngStream(2).generator.random(8)
        assert not np.array_equal(a, b)

    def test_split(self):
        parent = RngStream(9)
        c1, c2 = parent.split(2)
        x1, x2 = c1.generator.random(4), c2.generator.random(4)
        assert not np.array_equal(x1, x2)
        d1, d2 = RngStream(9).split(2)
        np.testing.assert_array_equal(x1, d1.generator.random(4))
        np.testing.assert_array_equal(x2, d2.generator.random(4))

    def test_invalid_seed(self):
        with pytest.raises(PreconditionError):
            RngStream(-1)
        with pytest.raises(PreconditionError):
            RngStream(2**64)


class TestEnumerationAndRank:
    def test_all_permutations_lex(self):
        perms = [p.mapping for p in all_permutations(3)]
        assert perms == sorted(itertools.permutations((1, 2, 3)))

    def test_rank_round_trip(self):
        rows = np.array([p.mapping for p in all_permutations(5)])
        ranks = permutation_rank_many(rows)
        np.testing.assert_array_equal(ranks, np.arange(120))

    def test_too_large(self):
        with pytest.raises(PreconditionError):
            all_permutations(13)

    def test_rank_of_twenty_labels_is_exact(self):
        assert permutation_rank_many(np.arange(20, 0, -1)[None]).tolist() == \
            [math.factorial(20) - 1]

    @pytest.mark.parametrize("n", [21, 22])  # 21! passes int64
    def test_rank_length_bounded(self, n):
        with pytest.raises(PreconditionError, match="permutation length must be at most 20"):
            permutation_rank_many(np.arange(n, 0, -1)[None])


class TestInputChecks:
    @pytest.mark.parametrize("call, match", [
        (lambda: sample_urn_many([1.0, 2.0], -1, RngStream(0)), "size"),
        (lambda: sample_exponential_many([1.0, 2.0], -1, RngStream(0)), "size"),
        (lambda: sample_spacings_many(3, -1, RngStream(0)), "size"),
        (lambda: sample_spacings_many(0, 5, RngStream(0)), "n must be"),
        (lambda: RngStream(0).split(0), "k must be"),
        (lambda: Permutation((2, 1))(3), "out of range"),
    ], ids=["urn_size", "exponential_size", "spacings_size", "spacings_n", "split_zero",
            "call_range"])
    def test_raises_precondition(self, call, match):
        with pytest.raises(PreconditionError, match=match):
            call()


W3 = [0.5, 0.3, 0.2]


class TestPublicPaths:
    """Public calls that no other test runs, each against an equivalent route."""

    @pytest.mark.parametrize("got, want", [
        (lambda: sample_urn(W3, RngStream(3)).mapping,
         lambda: sample_urn_many(W3, 1, RngStream(3))[0]),
        (lambda: sample_exponential(W3, RngStream(3)).mapping,
         lambda: sample_exponential_many(W3, 1, RngStream(3))[0]),
        (lambda: sample_spacings(4, RngStream(3)),
         lambda: sample_spacings_many(4, 1, RngStream(3))[0]),
        (lambda: [Permutation((3, 1, 4, 2))(j) for j in range(1, 5)], lambda: [3, 1, 4, 2]),
        (lambda: Permutation((3, 1, 4, 2)).inverse().mapping, lambda: (2, 4, 1, 3)),
    ], ids=["urn", "exponential", "spacings", "call", "inverse"])
    def test_equals(self, got, want):
        np.testing.assert_array_equal(got(), want())
