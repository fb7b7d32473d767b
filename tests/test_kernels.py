"""Array kernels: the exponential-race order sampler and the forward face products."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from lucewalks import RngStream, kernels, luce_pmf, normalize
from lucewalks.arrangements import (
    BlockOrderedSetPartition,
    SignVector,
    brown_diaconis_sample_many,
    ehrenfest_face_weights,
    graph_coloring_face_weights,
    project_boolean,
    project_braid,
    riffle_face_weights,
    tsetlin_face_weights,
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


@pytest.fixture
def reverse_chain_from_identity(reverse_chain):
    return lambda ids, orders: reverse_chain("braid", ids, orders, np.arange(ids.shape[1]))


def tied_braid_case(gen, m, n, size):
    # labels 0 and 1 share a block in every face, so no row's product is a chamber
    ids, orders = random_braid_case(gen, m, n - 1, size)
    return np.insert(ids, 1, ids[:, 0], axis=1), orders


class TestForwardBraidProduct:
    """``apply_braid_reverse`` computes F1 F2 ... Fm forward and must equal the reverse chain."""

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 5), (3, 1), (2, 3), (4, 4), (6, 5), (9, 7)])
    def test_equals_oracles(self, np_rng, reverse_chain_from_identity, m, n):
        for case in (random_braid_case, tied_braid_case) if n > 1 else (random_braid_case,):
            ids, orders = case(np_rng, m, n, 60)
            got = apply_braid_reverse(ids, orders)
            np.testing.assert_array_equal(got, braid_oracle(ids, orders))
            np.testing.assert_array_equal(got, reverse_chain_from_identity(ids, orders))

    def test_many_random_tables(self, np_rng, reverse_chain_from_identity):
        # separating or not, with block counts from 1 to n
        for _ in range(200):
            m, n = (int(v) for v in np_rng.integers(1, 9, size=2))
            ids, orders = random_braid_case(np_rng, m, n, int(np_rng.integers(1, 40)))
            np.testing.assert_array_equal(apply_braid_reverse(ids, orders),
                                          reverse_chain_from_identity(ids, orders))

    @pytest.mark.parametrize("headroom", [0, 1, 50])
    def test_rerank_keeps_output(self, np_rng, monkeypatch, reverse_chain_from_identity,
                                 headroom):
        calls = []
        dense_rank = kernels._dense_rank

        def counting(keys):
            calls.append(keys.shape[0])
            return dense_rank(keys)

        monkeypatch.setattr(kernels, "_KEY_HEADROOM", headroom)
        monkeypatch.setattr(kernels, "_dense_rank", counting)
        m, n = 12, 6
        ids, orders = tied_braid_case(np_rng, m, n, 80)
        got = apply_braid_reverse(ids, orders)
        np.testing.assert_array_equal(got, reverse_chain_from_identity(ids, orders))
        if headroom <= 1:
            assert len(calls) == m  # no row can finish, so every step re-ranks
        else:
            assert 0 < len(calls) <= m
        ids, orders = random_braid_case(np_rng, m, n, 80)
        np.testing.assert_array_equal(apply_braid_reverse(ids, orders),
                                      reverse_chain_from_identity(ids, orders))

    @pytest.mark.parametrize("make,size", [
        (lambda: riffle_face_weights(8), 2000),
        (lambda: riffle_face_weights(12), 20),
        (lambda: tsetlin_face_weights(normalize(np.arange(1.0, 31.0))), 20000),
    ], ids=["riffle8", "riffle12", "tsetlin30"])
    def test_brown_diaconis_equals_reverse_chain(self, reverse_chain_from_identity, make, size):
        table = make()
        got = brown_diaconis_sample_many(table, size, RngStream(2101))
        orders = weighted_order_many(table.weights, RngStream(2101).random((size, table.m)))
        np.testing.assert_array_equal(got - 1,
                                      reverse_chain_from_identity(table.entries_matrix(), orders))


@pytest.fixture
def boolean_chain(reverse_chain):
    return lambda entries, orders: reverse_chain("boolean", entries, orders,
                                                 np.ones(entries.shape[1], dtype=np.int8))


def unpinned_boolean_case(gen, m, d, size):
    # random dense faces with the last coordinate left unpinned
    entries, orders = random_boolean_case(gen, m, d, size)
    entries[:, -1] = 0
    return entries, orders


def zero_boolean_case(gen, m, d, size):
    entries, orders = random_boolean_case(gen, m, d, size)
    return np.zeros_like(entries), orders


class TestFirstPinBooleanProduct:
    """``apply_boolean_reverse`` takes each coordinate from its first drawn pin
    and must equal the reverse chain from the all-+1 row."""

    @pytest.mark.parametrize("m,d", [(1, 1), (1, 5), (4, 1), (2, 3), (6, 5), (9, 7)])
    @pytest.mark.parametrize("size", [1, 60])
    @pytest.mark.parametrize("case", [random_boolean_case, unpinned_boolean_case,
                                      zero_boolean_case], ids=["dense", "unpinned", "zero"])
    def test_equals_oracles(self, np_rng, boolean_chain, m, d, size, case):
        entries, orders = case(np_rng, m, d, size)
        got = apply_boolean_reverse(entries, orders)
        assert got.dtype == np.int8
        np.testing.assert_array_equal(got, boolean_oracle(entries, orders))
        np.testing.assert_array_equal(got, boolean_chain(entries, orders))

    def test_many_random_tables(self, np_rng, boolean_chain):
        for i in range(300):
            m, d = (int(v) for v in np_rng.integers(1, 12, size=2))
            case = zero_boolean_case if i % 5 == 0 else random_boolean_case
            entries, orders = case(np_rng, m, d, int(np_rng.integers(1, 40)))
            np.testing.assert_array_equal(apply_boolean_reverse(entries, orders),
                                          boolean_chain(entries, orders))

    @pytest.mark.parametrize("cells", [1, 20, 3 * 20 - 1, 5 * 20 + 1])
    def test_chunk_edges(self, np_rng, monkeypatch, boolean_chain, cells):
        # 20 pins, so chunks of 1, 1, 2 and 5 rows; 23 rows leave a short last chunk
        entries = np.zeros((8, 6), dtype=np.int8)
        pins = np_rng.permutation(entries.size)[:20]
        entries.flat[pins] = np_rng.choice(np.array([-1, 1], dtype=np.int8), size=20)
        _, orders = random_boolean_case(np_rng, 8, 6, 23)
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", cells)
        np.testing.assert_array_equal(apply_boolean_reverse(entries, orders),
                                      boolean_chain(entries, orders))

    @pytest.mark.parametrize("make,size", [
        (lambda: ehrenfest_face_weights(64), 5000),
        (lambda: graph_coloring_face_weights([(i, i % 200 + 1) for i in range(1, 201)]), 2000),
    ], ids=["ehrenfest64", "cycle200"])
    def test_brown_diaconis_equals_reverse_chain(self, boolean_chain, make, size):
        table = make()
        got = brown_diaconis_sample_many(table, size, RngStream(2201))
        orders = weighted_order_many(table.weights, RngStream(2201).random((size, table.m)))
        np.testing.assert_array_equal(got, boolean_chain(table.entries_matrix(), orders))

    def test_peak_memory_is_one_chunk(self, np_rng, monkeypatch, boolean_chain):
        chunk = 2**15
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", chunk)
        m, d, rows = 120, 60, 1500  # about 4800 pins: unchunked, 27 MiB of ranks
        entries, _ = random_boolean_case(np_rng, m, d, 1)
        orders = np.argsort(np_rng.random((rows, m)), axis=1)
        tracemalloc.start()
        try:
            got = apply_boolean_reverse(entries, orders)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, boolean_chain(entries, orders))
        # orders, the result, every row's face ranks, and one chunk of int32
        # pin ranks; the slack holds the pin lists and a chunk's small arrays
        assert peak <= orders.nbytes + got.nbytes + rows * m * 4 + chunk * 4 + 2**17


def stable_clock_order(weights, u):
    with np.errstate(divide="ignore"):
        return np.argsort(-np.log(u) / weights, axis=1, kind="stable")


# both sides of the stable-sort cutover, n = 2^s and 2^s + 1, and a wider row
RACE_WIDTHS = sorted({kernels._STABLE_SORT_MAX_N - 1, kernels._STABLE_SORT_MAX_N,
                      kernels._STABLE_SORT_MAX_N + 1, 8, 9, 16, 17, 40})


class TestRaceSortRepair:
    """The packed key sort with tied rows re-sorted equals the stable argsort."""

    @pytest.mark.parametrize("n", RACE_WIDTHS)
    @pytest.mark.parametrize("tie", ["infinite", "finite"])
    def test_ties_at_chunk_edges(self, np_rng, monkeypatch, n, tie):
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", 16 * n)  # 16 rows per chunk
        rows = 16 * 5 + 3  # a short last chunk
        weights = np_rng.uniform(0.1, 5.0, size=n)
        weights[-1] = weights[0]
        u = np_rng.random((rows, n))
        tied = [0, 15, 16, 31, 32, rows - 3, rows - 1]  # first chunk, both sides of edges, last
        for r in tied:
            if tie == "infinite":
                u[r, [0, n // 2, n - 1]] = 0.0
            else:
                u[r, n - 1] = u[r, 0]
        expected = stable_clock_order(weights, u)
        np.testing.assert_array_equal(weighted_order_many(weights, u), expected)
        np.testing.assert_array_equal(kernels._race_order(weights, u), expected)

    @pytest.mark.parametrize("n", RACE_WIDTHS)
    def test_packed_key_edge_cases(self, np_rng, monkeypatch, n):
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", 4 * n)  # 4 rows per chunk
        weights = np.ones(n)
        u = np_rng.uniform(0.2, 0.9, size=(13, n))
        # clocks that differ only in their low bits, falling as the label rises:
        # u one ulp apart near 0.5 moves -log(u) by about two ulps
        u[0] = 0.5 + np.arange(n) * 2.0**-53
        u[1] = 0.5 + np.arange(n)[::-1] * 2.0**-53
        u[2, ::3] = 0.0  # +inf clocks
        u[3, : n // 2] = 0.0
        u[4, 1::2] = 1.0  # -0.0 clocks, tied with each other
        u[5] = 1.0
        u[6, :] = u[6, 0]  # with unit weights, one clock for the whole row
        big = weights.copy()
        big[::2] = 1e308  # clocks that underflow to +0.0
        u[7:10, ::4] = 1.0 - 2.0**-53
        u[8, 1::4] = 1.0
        u[9, 2::4] = 0.0
        u[10, :2] = 1.0 - 2.0**-53, 1.0  # a single +0.0 clock before a single -0.0 one
        for w in (weights, big):
            expected = stable_clock_order(w, u)
            np.testing.assert_array_equal(kernels._race_order(w, u), expected)
        with np.errstate(divide="ignore"):
            clocks = -np.log(u[7:10]) / big
        assert np.signbit(clocks[1, 1]) and clocks[0, 0] == 0.0 and not np.signbit(clocks[0, 0])

    def test_peak_memory_is_one_chunk(self, np_rng, monkeypatch):
        assert 2**17 <= kernels._CHUNK_CELLS <= 2**20
        chunk = 2**15
        monkeypatch.setattr(kernels, "_CHUNK_CELLS", chunk)
        rows, n = 400, 2000
        weights = np_rng.uniform(0.5, 2.0, size=n)
        u = np_rng.random((rows, n))
        u[::50, :3] = 0.0  # some rows need the stable re-sort
        tracemalloc.start()
        try:
            got = kernels._race_order(weights, u)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(got, stable_clock_order(weights, u))
        # the result, which holds the keys, and one chunk of shifted keys with
        # its flags; the slack holds numpy's buffers and a chunk's tied row
        assert peak <= u.nbytes + chunk * (8 + 1) + 2**18
