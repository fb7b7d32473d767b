"""Array kernels: the exponential-race order sampler and reverse face projection."""

import itertools
import math

import numpy as np
import pytest

from lucewalks import RngStream, luce_pmf
from lucewalks.arrangements import (
    BlockOrderedSetPartition,
    SignVector,
    project_boolean,
    project_braid,
)
from lucewalks.kernels import (
    BACKEND,
    apply_boolean_reverse,
    apply_braid_reverse,
    weighted_order_many,
)


def random_boolean_case(gen, m, d, size):
    entries = gen.integers(-1, 2, size=(m, d)).astype(np.int8)
    orders = gen.integers(0, m, size=(size, m)).astype(np.int64)
    for row in orders:
        row[:] = gen.permutation(m)
    return entries, orders


def random_braid_case(gen, m, n, size):
    # dense block ids per face: random surjections onto 0..b-1
    ids = np.zeros((m, n), dtype=np.int64)
    for i in range(m):
        b = int(gen.integers(1, n + 1))
        lab = gen.integers(0, b, size=n)
        lab[gen.permutation(n)[:b]] = np.arange(b)  # force every block nonempty
        # re-densify in first-appearance order so ids are 0..b-1
        seen = {}
        for j in range(n):
            seen.setdefault(int(lab[j]), len(seen))
        ids[i] = [seen[int(v)] for v in lab]
    orders = np.zeros((size, m), dtype=np.int64)
    for row in orders:
        row[:] = gen.permutation(m)
    return ids, orders


class TestBackend:
    def test_module_reports_backend(self):
        assert BACKEND == "numpy"


class TestWeightedOrder:
    def test_rows_are_permutations(self, np_rng):
        weights = np_rng.uniform(0.1, 2.0, size=6)
        uniforms = np_rng.random((300, 6))
        out = weighted_order_many(weights, uniforms)
        np.testing.assert_array_equal(np.sort(out, axis=1), np.tile(np.arange(6), (300, 1)))

    def test_extreme_uniforms(self):
        weights = np.array([1.0, 2.0, 3.0])
        u = np.array([[1 - 1e-16, 1 - 1e-16, 1 - 1e-16], [0.0, 0.0, 0.0]])
        out = weighted_order_many(weights, u)
        for row in out:
            assert sorted(row.tolist()) == [0, 1, 2]

    def test_is_stable_argsort_of_clocks(self, np_rng):
        weights = np_rng.uniform(0.1, 5.0, size=7)
        weights[5] = weights[1]
        u = np_rng.random((500, 7))
        u[:50, 2:5] = 0.0  # infinite clocks tie
        u[50:100, 5] = u[50:100, 1]  # equal finite clocks tie
        with np.errstate(divide="ignore"):
            expected = np.argsort(-np.log(u) / weights, axis=1, kind="stable")
        np.testing.assert_array_equal(weighted_order_many(weights, u), expected)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            weighted_order_many(np.ones(3), np.full((2, 4), 0.5))

    def test_distribution_matches_pmf(self):
        # frequency of each draw order vs the model pmf
        weights = np.array([0.4, 0.3, 0.2, 0.1])
        gen = RngStream(101).generator
        out = weighted_order_many(weights, gen.random((200_000, 4)))
        keys = {p: i for i, p in enumerate(itertools.permutations(range(4)))}
        counts = np.zeros(math.factorial(4))
        for row in out:
            counts[keys[tuple(row.tolist())]] += 1
        probs = np.array([luce_pmf(weights, tuple(x + 1 for x in p)) for p in keys])
        tv = 0.5 * np.abs(counts / counts.sum() - probs).sum()
        assert tv <= 0.01


def boolean_oracle(entries, orders):
    # sequential projections from the all-+1 row, first drawn face outermost
    out = np.empty((orders.shape[0], entries.shape[1]), dtype=np.int8)
    for s in range(orders.shape[0]):
        c = SignVector([1] * entries.shape[1])
        for t in range(orders.shape[1] - 1, -1, -1):
            c = project_boolean(c, SignVector(entries[orders[s, t]].tolist()))
        out[s] = c.to_array()
    return out


def braid_oracle(ids, orders):
    # sequential projections from the identity order
    n = ids.shape[1]
    out = np.empty((orders.shape[0], n), dtype=np.int64)
    for s in range(orders.shape[0]):
        from lucewalks import Permutation

        c = Permutation.identity(n)
        for t in range(orders.shape[1] - 1, -1, -1):
            row = ids[orders[s, t]]
            blocks = [frozenset(int(l + 1) for l in np.flatnonzero(row == b)) for b in range(row.max() + 1)]
            c = project_braid(c, BlockOrderedSetPartition(blocks))
        out[s] = np.array(c.mapping) - 1
    return out


class TestApplyReverseOracle:
    def test_boolean_matches_sequential_projection(self, np_rng):
        for m, d in ((2, 3), (5, 4), (6, 5)):
            entries, orders = random_boolean_case(np_rng, m, d, 40)
            got = apply_boolean_reverse(entries, orders)
            np.testing.assert_array_equal(got, boolean_oracle(entries, orders))

    def test_braid_matches_sequential_projection(self, np_rng):
        for m, n in ((2, 3), (4, 4), (5, 5)):
            ids, orders = random_braid_case(np_rng, m, n, 40)
            got = apply_braid_reverse(ids, orders)
            np.testing.assert_array_equal(got, braid_oracle(ids, orders))
